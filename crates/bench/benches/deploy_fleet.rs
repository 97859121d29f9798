//! The `deploy_fleet` group: fleet-scale serving — one campus-hall
//! window of N clients (N ∈ {20, 200, 2000}) pushed through a 4-AP
//! deployment at decode-shard counts 1 and 4.
//!
//! The headline comparison is `clients_2000_decode_1` vs
//! `clients_2000_decode_4`: the same 2000-transmission window (1024-byte
//! data frames — the realistic regime where stage-1 decode dominates the
//! coordinator) with the stage-1 decode run serially vs fanned across a
//! 4-thread decode pool. Fused output is byte-identical either way (see
//! `tests/proptest_fleet.rs`); only the wall-clock changes. Dividing the per-window time into the
//! `fixes/window` info line printed per operating point gives aggregate
//! fused-fix throughput.
//!
//! **Host caveat**: on a single-core host the decode pool cannot beat
//! serial decode — the 4-shard rows then price the pool's channel
//! overhead, and the multi-core speedup must be read from a multi-core
//! run (see docs/BENCHMARKS.md). Under `BENCH_QUICK=1` (CI) the
//! 2000-client rows are skipped: their setup alone (8 000 captures,
//! ~8 GB) dwarfs the quick measurement budget.

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
        // Generate the traffic once per fleet size; iterations and
        // shard configs reuse it via cheap `Arc` clones.
        let txs = campus_window(n_clients);
        for decode_shards in [1usize, 4] {
            // Small snapshot cap: the per-AP DSP term stays modest so
            // the decode stage — the thing being sharded — dominates.
            let cfg = DeployConfig {
                snapshot_cap: 64,
                windows_in_flight: DEPTH,
                decode_shards,
                ..DeployConfig::default()
            };
            let mut deployment = Deployment::new(campus_aps(n_clients), cfg);
            // Warm up: first window auto-trains every signature (cold
            // stores, first-touch allocations are not representative).
            for _ in 0..2 {
                deployment.run_window(txs.clone()).expect("warmup window");
            }
            group.bench_function(
                format!("clients_{}_decode_{}", n_clients, decode_shards),
                |b| {
                    b.iter(|| {
                        deployment.submit_window(txs.clone()).expect("bench submit");
                        while deployment.pending_windows() >= DEPTH {
                            deployment.collect_window().expect("bench collect");
                        }
                    })
                },
            );
            while deployment.pending_windows() > 0 {
                deployment.collect_window().expect("drain");
            }
            let (report, _aps) = deployment.finish();
            let windows = report.metrics.windows.max(1);
            eprintln!(
                "info: deploy_fleet/clients_{}_decode_{}: {:.1} fixes/window, {} consensus flags, {} decode failures",
                n_clients,
                decode_shards,
                report.metrics.fixes as f64 / windows as f64,
                report.metrics.consensus_flags,
                report.metrics.decode_failures,
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_deploy_fleet);
criterion_main!(benches);
