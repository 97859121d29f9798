//! Microbenches for the AoA estimators: MUSIC vs the Bartlett/Capon
//! baselines, the smoothing and scan variants of the reference engine,
//! the mode-space transform and the whole per-packet analysis step,
//! source counting and peak extraction — the ablation dimensions of
//! experiment E8 measured in time rather than accuracy.

use criterion::{criterion_group, criterion_main, Criterion};
use sa_aoa::beamform::{bartlett_spectrum, capon_spectrum};
use sa_aoa::estimator::{AoaConfig, AoaEngine, ReferenceSetup, ScanBackend, Smoothing};
use sa_aoa::music::music_spectrum;
use sa_aoa::source_count::SourceCount;
use sa_aoa::ConfidenceModel;
use sa_array::geometry::Array;
use sa_array::modespace::ModeSpace;
use sa_linalg::complex::C64;
use sa_linalg::CMat;
use sa_sigproc::covariance::{sample_covariance, smooth_fb};

fn two_path_cov(array: &Array) -> CMat {
    let s1 = array.steering(0.8);
    let s2 = array.steering(2.4);
    let x = CMat::from_fn(array.len(), 512, |m, t| {
        let sym = C64::cis(1.1 * t as f64);
        s1[m] * sym + s2[m] * C64::from_polar(0.6, 1.0) * sym
    });
    sample_covariance(&x)
}

/// The three spectrum methods on the full 1° grid, each a free function
/// on the same analysis covariance (the production mode-space,
/// FB + spatially smoothed one), so the rows compare methods, not scans
/// or engine setup. MUSIC includes its eigendecomposition, Capon its
/// covariance inverse.
fn bench_methods(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let space = AoaEngine::new(&array, &AoaConfig::default())
        .scan_space()
        .clone();
    let ms = space.modespace().expect("octagon scans in mode space");
    let ra = smooth_fb(&ms.transform_cov(&r), space.len());
    let mut group = c.benchmark_group("aoa_methods_octagon_1deg");
    group.bench_function("music", |b| b.iter(|| music_spectrum(&ra, &space, 2, 1.0)));
    group.bench_function("bartlett", |b| {
        b.iter(|| bartlett_spectrum(&ra, &space, 1.0))
    });
    group.bench_function("capon", |b| {
        b.iter(|| capon_spectrum(&ra, &space, 1.0, 1e-6))
    });
    group.finish();
}

fn bench_smoothing_variants(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let mut group = c.benchmark_group("aoa_smoothing");
    for (label, smoothing) in [
        ("none", Smoothing::None),
        ("fb", Smoothing::ForwardBackward),
        ("fb_spatial_auto", Smoothing::FbSpatial),
    ] {
        let setup = ReferenceSetup {
            smoothing,
            ..ReferenceSetup::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                AoaEngine::reference(&array, &AoaConfig::default(), setup).estimate_cov(&r, 512)
            })
        });
    }
    group.finish();
}

fn bench_modespace_transform(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let ms = ModeSpace::for_array(&array);
    let r = two_path_cov(&array);
    c.bench_function("modespace_cov_transform", |b| {
        b.iter(|| ms.transform_cov(&r))
    });
    c.bench_function("modespace_build", |b| {
        b.iter(|| ModeSpace::for_array(&array))
    });
    // The production analysis step `AoaEngine` runs per packet: mode
    // space, then FB + spatial smoothing to the engine's scan aperture.
    let sub_len = AoaEngine::new(&array, &AoaConfig::default())
        .scan_space()
        .len();
    let mut group = c.benchmark_group("aoa_analysis");
    group.bench_function("apply_octagon", |b| {
        b.iter(|| smooth_fb(&ms.transform_cov(&r), sub_len))
    });
    group.finish();
}

/// The estimator-layer amortisation: a fresh [`AoaEngine`] per call
/// (rebuilds manifold + steering table + eigen buffers) vs a prebuilt,
/// reused one.
fn bench_engine_reuse(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let cfg = AoaConfig::default();
    let mut group = c.benchmark_group("aoa_estimator");
    group.bench_function("one_shot", |b| {
        b.iter(|| AoaEngine::new(&array, &cfg).estimate_cov(&r, 512))
    });
    let mut engine = AoaEngine::new(&array, &cfg);
    group.bench_function("engine_reuse", |b| b.iter(|| engine.estimate_cov(&r, 512)));
    group.finish();
}

/// The spectrum-search backends head to head on the production octagon
/// path, each behind a reused engine built with `AoaEngine::reference`
/// so only the scan differs: the exhaustive 1° oracle vs decimated
/// coarse-to-fine refinement (the production scan).
fn bench_scan_backends(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let mut group = c.benchmark_group("aoa_backends");
    for (label, scan) in [
        ("exhaustive", ScanBackend::Exhaustive),
        ("coarse_to_fine", ScanBackend::CoarseToFine),
    ] {
        let setup = ReferenceSetup {
            scan,
            ..ReferenceSetup::default()
        };
        let mut engine = AoaEngine::reference(&array, &AoaConfig::default(), setup);
        group.bench_function(label, |b| b.iter(|| engine.estimate_cov(&r, 512)));
    }
    group.finish();
}

/// Cost of the CRLB confidence model relative to the historical
/// peak-power path (the sigma is computed either way; `crlb` only adds
/// the `1/(1+σ)` map, so the two should be indistinguishable).
fn bench_confidence_models(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let mut group = c.benchmark_group("aoa_confidence");
    for (label, confidence) in [
        ("peak_power", ConfidenceModel::PeakPower),
        ("crlb", ConfidenceModel::Crlb),
    ] {
        let cfg = AoaConfig {
            confidence,
            ..Default::default()
        };
        let mut engine = AoaEngine::new(&array, &cfg);
        group.bench_function(label, |b| b.iter(|| engine.estimate_cov(&r, 512)));
    }
    group.finish();
}

fn bench_source_count(c: &mut Criterion) {
    let eigs: Vec<f64> = vec![0.9, 1.0, 1.1, 1.05, 0.95, 40.0, 80.0, 120.0];
    let mut group = c.benchmark_group("source_count");
    for (label, sc) in [("mdl", SourceCount::Mdl), ("aic", SourceCount::Aic)] {
        group.bench_function(label, |b| b.iter(|| sc.estimate(&eigs, 512)));
    }
    group.finish();
}

fn bench_peak_extraction(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    // The exhaustive scan keeps the spectrum on the full 360-bin grid
    // the row is named for (the production scan returns 60 coarse bins).
    let setup = ReferenceSetup {
        scan: ScanBackend::Exhaustive,
        ..ReferenceSetup::default()
    };
    let est = AoaEngine::reference(&array, &AoaConfig::default(), setup).estimate_cov(&r, 512);
    assert_eq!(est.spectrum.len(), 360);
    c.bench_function("find_peaks_360deg", |b| {
        b.iter(|| est.spectrum.find_peaks(1.0, 8))
    });
}

criterion_group!(
    benches,
    bench_methods,
    bench_smoothing_variants,
    bench_modespace_transform,
    bench_engine_reuse,
    bench_scan_backends,
    bench_confidence_models,
    bench_source_count,
    bench_peak_extraction
);
criterion_main!(benches);
