//! Bench for experiment E3 (Figure 6): signature comparison and temporal
//! channel evolution — the operations an AP performs per uplink frame to
//! track `S_cl` over time.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_aoa::estimator::{AoaEngine, ReferenceSetup, ScanBackend};
use sa_bench::{capture_circular, capture_linear};
use secureangle::signature::{AoaSignature, SignatureTracker};

fn signatures() -> (AoaSignature, AoaSignature) {
    let cap0 = capture_linear(5, 8, 0xF166);
    let obs0 = cap0.testbed.nodes[0]
        .ap
        .observe(&cap0.buffer)
        .expect("observe");
    let cap1 = capture_linear(5, 8, 0xF167);
    let obs1 = cap1.testbed.nodes[0]
        .ap
        .observe(&cap1.buffer)
        .expect("observe");
    (obs0.signature, obs1.signature)
}

fn bench_signature_compare(c: &mut Criterion) {
    let (a, b) = signatures();
    c.bench_function("fig6_signature_compare", |bch| bch.iter(|| a.compare(&b)));
}

fn bench_signature_from_spectrum(c: &mut Criterion) {
    // The raw MUSIC pseudospectrum of a circular-array capture, which
    // the AP smooths into the per-packet signature: 60 wrapping bins on
    // the production coarse-to-fine scan, and the 360-bin 1° grid of the
    // exhaustive oracle as the reference row.
    let cap = capture_circular(5, 0xF166);
    let ap = &cap.testbed.nodes[0].ap;
    let production = ap.observe(&cap.buffer).expect("observe").estimate.spectrum;
    let setup = ReferenceSetup {
        scan: ScanBackend::Exhaustive,
        ..ReferenceSetup::default()
    };
    let mut oracle = ap.batch_with_engine(AoaEngine::reference(
        &ap.config().array,
        &ap.config().aoa,
        setup,
    ));
    let decoded = ap.decode_capture(&cap.buffer).expect("decode");
    oracle
        .push_predecoded(&cap.buffer, &decoded)
        .expect("stage");
    let reference = oracle.process().pop().expect("observe").estimate.spectrum;
    let mut group = c.benchmark_group("signature");
    for (label, spectrum, bins) in [
        ("from_spectrum_60", production, 60),
        ("from_spectrum_360", reference, 360),
    ] {
        assert_eq!(spectrum.len(), bins);
        assert!(spectrum.wraps);
        group.bench_function(label, |bch| {
            bch.iter(|| AoaSignature::from_spectrum(&spectrum))
        });
    }
    group.finish();
}

fn bench_tracker_update(c: &mut Criterion) {
    let (a, b) = signatures();
    c.bench_function("fig6_tracker_update", |bch| {
        let mut tracker = SignatureTracker::new(a.clone());
        bch.iter(|| tracker.update(&b))
    });
}

fn bench_temporal_evolution(c: &mut Criterion) {
    use sa_channel::temporal::TemporalModel;
    use sa_channel::trace::{trace_paths, TraceConfig};
    let office = sa_testbed::Office::paper_figure4();
    let paths = trace_paths(
        &office.plan,
        office.client(10).position,
        office.ap_position,
        &TraceConfig::default(),
    );
    let model = TemporalModel::default();
    let mut group = c.benchmark_group("fig6_channel_evolution");
    for dt in [1.0, 1000.0, 86_400.0] {
        group.bench_function(format!("dt_{dt}s"), |bch| {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            bch.iter(|| model.evolve(&paths, dt, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_signature_compare,
    bench_signature_from_spectrum,
    bench_tracker_update,
    bench_temporal_evolution
);
criterion_main!(benches);
