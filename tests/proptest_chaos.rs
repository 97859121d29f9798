//! Chaos determinism properties (root seam test): seeded fault plans
//! must degrade the fleet *byte-deterministically* — the same plan
//! produces the same fused windows and (masked) report on every rerun
//! — must never deadlock or panic, and a disabled fault layer must be
//! byte-transparent.
//!
//! Pipelining depth (`windows_in_flight`) joins the knob matrix for
//! every fault family that preserves membership (corruption, byzantine
//! bias, burst loss, stalls below the watchdog, drift onset, and the
//! quarantine machinery — quarantine decisions are made at collect
//! time, strictly in window order). Faults that *end* membership
//! (crashes, watchdog reaps) are pinned per-depth instead: the set of
//! windows already submitted when an AP dies is part of the depth's
//! semantics — a depth-1 operator stops sending a dead AP traffic one
//! window sooner than a depth-4 one — so cross-depth byte-equality is
//! not a meaningful contract there. Reruns still are.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::faults::{FaultEvent, FaultPlan};
use sa_deploy::{DeployConfig, Deployment, DeploymentReport, HealthConfig, Transmission};
use sa_testbed::Testbed;

const N_APS: usize = 4;

/// Scheduling-observability counters (queue depths, backpressure) are
/// interleaving-dependent and outside the determinism contract.
fn masked_report(r: &DeploymentReport) -> String {
    let mut r = r.clone();
    r.metrics.max_fusion_queue_depth = 0;
    r.metrics.report_backpressure_events = 0;
    r.metrics.ingest_backpressure_events = 0;
    for ap in &mut r.per_ap {
        ap.backpressure_events = 0;
    }
    format!("{:?}", r)
}

/// Pre-generate full-fleet traffic: `windows[w]` holds every
/// transmission of window `w` with one capture per AP id. Runs filter
/// the captures down to the APs still live at submit time.
fn gen_windows(
    tb: &Testbed,
    n_clients: usize,
    n_windows: u64,
    seed: u64,
) -> Vec<Vec<Transmission>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a05);
    let clients: Vec<usize> = (1..=n_clients).collect();
    (0..n_windows)
        .map(|w| {
            tb.window_traffic(&clients, w as u16, 0.0, &mut rng)
                .into_iter()
                .map(Transmission::new)
                .collect()
        })
        .collect()
}

/// One full chaos deployment over pre-generated traffic, submitting
/// each window's captures for the APs live at submit time (an operator
/// stops sending traffic to a dead AP — live-membership filtering is
/// itself deterministic because membership ends at collect time). The
/// testbed is rebuilt per run, which is exact: the build is
/// deterministic in `seed`.
fn run_chaos(
    n_clients: usize,
    seed: u64,
    windows: &[Vec<Transmission>],
    faults: Option<FaultPlan>,
    health: HealthConfig,
    windows_in_flight: usize,
) -> (String, String, DeploymentReport) {
    let tb = Testbed::campus_with(n_clients, N_APS, seed);
    let aps: Vec<_> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        windows_in_flight,
        faults,
        health,
        ..DeployConfig::default()
    };
    let depth = windows_in_flight.max(1);
    let mut deployment = Deployment::new(aps, cfg);
    let mut fused = Vec::new();
    for w in windows {
        while deployment.pending_windows() >= depth {
            fused.push(deployment.collect_window().expect("collect"));
        }
        let live = deployment.live_ap_ids();
        let txs: Vec<Transmission> = w
            .iter()
            .map(|t| Transmission {
                per_ap: live.iter().map(|&k| t.per_ap[k].clone()).collect(),
            })
            .collect();
        deployment.submit_window(txs).expect("submit");
    }
    while deployment.pending_windows() > 0 {
        fused.push(deployment.collect_window().expect("collect"));
    }
    let (report, _) = deployment.finish();
    (format!("{:?}", fused), masked_report(&report), report)
}

proptest! {
    // Debug-mode DSP is slow; every case runs several full chaos
    // deployments, so a couple of randomized plans per run is plenty.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The canonical scripted chaos schedule (byzantine bias, wire
    /// corruption, burst loss, sub-watchdog stalls, drift onset — plus
    /// the health layer's down-weighting and quarantine responses) is
    /// byte-deterministic: identical on rerun and across pipelining
    /// depths, and the run never deadlocks or panics whatever the seed.
    #[test]
    fn scripted_chaos_degrades_byte_deterministically_across_knobs(
        seed in 0u64..1_000,
        n_clients in 4usize..=6,
    ) {
        let tb = Testbed::campus_with(n_clients, N_APS, seed);
        let windows = gen_windows(&tb, n_clients, 8, seed);
        let plan = FaultPlan::scripted(N_APS, seed);
        let run = |w| {
            run_chaos(
                n_clients, seed, &windows,
                Some(plan.clone()), HealthConfig::enabled(),
                w,
            )
        };
        let (base_fused, base_report, _) = run(1);
        let (rerun_fused, rerun_report, _) = run(1);
        prop_assert_eq!(&base_fused, &rerun_fused, "chaos run diverged on rerun");
        prop_assert_eq!(&base_report, &rerun_report, "chaos report diverged on rerun");
        for depth in [2usize, 4] {
            let (fused, report, _) = run(depth);
            prop_assert_eq!(
                &base_fused, &fused,
                "fused windows diverged at depth={}",
                depth
            );
            prop_assert_eq!(
                &base_report, &report,
                "report diverged at depth={}",
                depth
            );
        }
    }

    /// Zero-cost-off: a deployment with `faults: None` is byte-identical
    /// to one carrying an empty [`FaultPlan`], and the (disabled-by-
    /// default) health layer is byte-transparent on a clean run — same
    /// fused windows, same report, whether it scores or not.
    #[test]
    fn disabled_faults_and_idle_health_are_byte_transparent(
        seed in 0u64..1_000,
        n_clients in 4usize..=6,
    ) {
        let tb = Testbed::campus_with(n_clients, N_APS, seed);
        let windows = gen_windows(&tb, n_clients, 3, seed);
        let (no_plan_fused, no_plan_report, _) = run_chaos(
            n_clients, seed, &windows, None, HealthConfig::default(), 1,
        );
        let (empty_fused, empty_report, _) = run_chaos(
            n_clients, seed, &windows,
            Some(FaultPlan::default()), HealthConfig::default(),
            1,
        );
        prop_assert_eq!(&no_plan_fused, &empty_fused, "empty plan changed fused bytes");
        prop_assert_eq!(&no_plan_report, &empty_report, "empty plan changed the report");
        let (health_fused, health_report, report) = run_chaos(
            n_clients, seed, &windows, None, HealthConfig::enabled(), 1,
        );
        prop_assert_eq!(
            &no_plan_fused, &health_fused,
            "idle health layer changed fused bytes on a clean run"
        );
        prop_assert_eq!(
            &no_plan_report, &health_report,
            "idle health layer changed the report on a clean run"
        );
        prop_assert_eq!(report.metrics.aps_quarantined, 0);
    }

    /// Mid-run worker crashes degrade deterministically: membership ends
    /// at the collect of the crash window (never at the racy moment the
    /// dead thread is *noticed*), so a crashing fleet is byte-identical
    /// on rerun, even pipelined.
    #[test]
    fn crashes_end_membership_byte_deterministically(
        seed in 0u64..1_000,
        n_clients in 4usize..=6,
    ) {
        let tb = Testbed::campus_with(n_clients, N_APS, seed);
        let windows = gen_windows(&tb, n_clients, 4, seed);
        let plan = FaultPlan {
            seed,
            events: vec![FaultEvent::Crash {
                ap: (seed % N_APS as u64) as usize,
                window: 1,
            }],
        };
        let run = || {
            run_chaos(
                n_clients, seed, &windows,
                Some(plan.clone()), HealthConfig::enabled(),
                2,
            )
        };
        let (base_fused, base_report, report) = run();
        prop_assert_eq!(report.metrics.worker_losses, 1, "crash must cost one worker");
        let (rerun_fused, rerun_report, _) = run();
        prop_assert_eq!(&base_fused, &rerun_fused, "crash run diverged on rerun");
        prop_assert_eq!(&base_report, &rerun_report, "crash report diverged on rerun");
    }
}
