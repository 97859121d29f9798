//! The `deploy_fleet` group: fleet-scale serving — one campus-hall
//! window of N clients (N ∈ {20, 200, 2000}) pushed through a 4-AP
//! deployment.
//!
//! Each window carries 1024-byte data frames, the regime where the
//! coordinator's inline stage-1 decode is a large share of the window.
//! Dividing the per-window time into the `fixes/window` info line
//! printed per operating point gives aggregate fused-fix throughput.
//! Row ids keep their historical `_decode_1` suffix (one decode path)
//! so `compare_baseline.sh` still matches them. Under `BENCH_QUICK=1`
//! (CI) the 2000-client row is skipped: its setup alone (8 000
//! captures, ~8 GB) dwarfs the quick measurement budget.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{DeployConfig, Deployment, Transmission};
use sa_testbed::Testbed;

const N_APS: usize = 4;
const SEED: u64 = 7011;
const DEPTH: usize = 2;

/// One campus window: every client transmits once (1024-byte frames).
fn campus_window(n_clients: usize) -> Vec<Transmission> {
    let mut tb = Testbed::campus_with(n_clients, N_APS, SEED);
    tb.cfg.payload_len = 1024;
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xdeb10);
    let clients: Vec<usize> = (1..=n_clients).collect();
    tb.window_traffic(&clients, 1, 0.0, &mut rng)
        .into_iter()
        .map(Transmission::new)
        .collect()
}

/// Fresh APs for a config run (`AccessPoint` is not `Clone`; the build
/// is deterministic in `SEED`, so every run sees identical APs).
fn campus_aps(n_clients: usize) -> Vec<secureangle::AccessPoint> {
    Testbed::campus_with(n_clients, N_APS, SEED)
        .nodes
        .into_iter()
        .map(|n| n.ap)
        .collect()
}

fn bench_deploy_fleet(c: &mut Criterion) {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let mut group = c.benchmark_group("deploy_fleet");
    for n_clients in [20usize, 200, 2000] {
        if quick && n_clients > 200 {
            continue;
        }
        // Generate the traffic once per fleet size; iterations reuse it
        // via cheap `Arc` clones.
        let txs = campus_window(n_clients);
        // Small snapshot cap: the per-AP DSP term stays modest so the
        // coordinator's decode stays a visible share of the window.
        let cfg = DeployConfig {
            snapshot_cap: 64,
            windows_in_flight: DEPTH,
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(campus_aps(n_clients), cfg);
        // Warm up: first window auto-trains every signature (cold
        // stores, first-touch allocations are not representative).
        for _ in 0..2 {
            deployment.run_window(txs.clone()).expect("warmup window");
        }
        group.bench_function(format!("clients_{}_decode_1", n_clients), |b| {
            b.iter(|| {
                deployment.submit_window(txs.clone()).expect("bench submit");
                while deployment.pending_windows() >= DEPTH {
                    deployment.collect_window().expect("bench collect");
                }
            })
        });
        while deployment.pending_windows() > 0 {
            deployment.collect_window().expect("drain");
        }
        let (report, _aps) = deployment.finish();
        let windows = report.metrics.windows.max(1);
        eprintln!(
            "info: deploy_fleet/clients_{}_decode_1: {:.1} fixes/window, {} consensus flags, {} decode failures",
            n_clients,
            report.metrics.fixes as f64 / windows as f64,
            report.metrics.consensus_flags,
            report.metrics.decode_failures,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_deploy_fleet);
criterion_main!(benches);
