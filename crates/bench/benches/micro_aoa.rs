//! Microbenches for the AoA estimators: MUSIC vs the Bartlett/Capon
//! baselines, the mode-space transform, source counting and peak
//! extraction — the ablation dimensions of experiment E8 measured in
//! time rather than accuracy.

use criterion::{criterion_group, criterion_main, Criterion};
use sa_aoa::estimator::{
    estimate_from_covariance, AoaConfig, AoaEngine, Method, ScanBackend, Smoothing,
};
use sa_aoa::source_count::SourceCount;
use sa_aoa::ConfidenceModel;
use sa_array::geometry::Array;
use sa_array::modespace::ModeSpace;
use sa_linalg::complex::C64;
use sa_linalg::CMat;
use sa_sigproc::covariance::sample_covariance;

fn two_path_cov(array: &Array) -> CMat {
    let s1 = array.steering(0.8);
    let s2 = array.steering(2.4);
    let x = CMat::from_fn(array.len(), 512, |m, t| {
        let sym = C64::cis(1.1 * t as f64);
        s1[m] * sym + s2[m] * C64::from_polar(0.6, 1.0) * sym
    });
    sample_covariance(&x)
}

/// The three spectrum methods one-shot on the full 1° grid: MUSIC runs
/// the exhaustive oracle scan, as Bartlett and Capon always do, so the
/// rows compare methods, not scans.
fn bench_methods(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let mut group = c.benchmark_group("aoa_methods_octagon_1deg");
    for (label, method) in [
        ("music", Method::Music),
        ("bartlett", Method::Bartlett),
        ("capon", Method::Capon),
    ] {
        let cfg = AoaConfig {
            method,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                AoaEngine::with_scan(&array, &cfg, ScanBackend::Exhaustive).estimate_cov(&r, 512)
            })
        });
    }
    group.finish();
}

fn bench_smoothing_variants(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let mut group = c.benchmark_group("aoa_smoothing");
    for (label, smoothing) in [
        ("none", Smoothing::None),
        ("fb", Smoothing::ForwardBackward),
        ("fb_spatial_auto", Smoothing::FbSpatial { sub_len: 0 }),
    ] {
        let cfg = AoaConfig {
            smoothing,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| estimate_from_covariance(&r, 512, &array, &cfg))
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
}

/// The estimator-layer amortisation: one-shot `estimate_from_covariance`
/// (rebuilds manifold + steering table + eigen buffers per call) vs a
/// prebuilt, reused [`AoaEngine`].
fn bench_engine_reuse(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let cfg = AoaConfig::default();
    let mut group = c.benchmark_group("aoa_estimator");
    group.bench_function("one_shot", |b| {
        b.iter(|| estimate_from_covariance(&r, 512, &array, &cfg))
    });
    let mut engine = AoaEngine::new(&array, &cfg);
    group.bench_function("engine_reuse", |b| b.iter(|| engine.estimate_cov(&r, 512)));
    group.finish();
}

/// The spectrum-search backends head to head on the production octagon
/// path, each behind a reused engine built with `AoaEngine::with_scan`
/// so only the scan differs: the exhaustive 1° oracle vs decimated
/// coarse-to-fine refinement (the production scan).
fn bench_scan_backends(c: &mut Criterion) {
    let array = Array::paper_octagon();
    let r = two_path_cov(&array);
    let mut group = c.benchmark_group("aoa_backends");
    for (label, backend) in [
        ("exhaustive", ScanBackend::Exhaustive),
        ("coarse_to_fine", ScanBackend::CoarseToFine),
    ] {
        let mut engine = AoaEngine::with_scan(&array, &AoaConfig::default(), backend);
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
    let est = estimate_from_covariance(&r, 512, &array, &AoaConfig::default());
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
