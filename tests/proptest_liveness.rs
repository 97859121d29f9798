//! Liveness property (root seam test): no deployment call blocks
//! forever. Random scripted fault plans — every `FaultEvent` kind,
//! lost end-of-window markers drawn on their own so most cases carry
//! some — run under synchronous `run_window`, streamed `run_stream`
//! (1–4 windows in flight) and mid-run `remove_ap` call patterns, on at
//! most 3 APs and 8 windows. Each run happens on one helper thread that
//! the property fails after a generous bound, so a hang is a failure,
//! not a stalled suite; a case starts at most four threads at a time.
//!
//! Every case checks that every window closes, in order; that each
//! scripted lost marker is counted once, in its own window, whenever
//! its AP did that window's work; and, when the plan keeps membership
//! fixed, that the streamed output is byte-identical to the
//! synchronous one.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::faults::{CorruptionMode, FaultEvent, FaultPlan};
use sa_deploy::{
    ApSkew, DeployConfig, Deployment, DeploymentReport, FusedWindow, HealthConfig, Transmission,
};
use sa_testbed::Testbed;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Per-run bound: far above a debug-build run of 8 windows.
const BOUND_S: u64 = 300;

/// Run `f` on its own thread and fail if it has not returned within
/// [`BOUND_S`]; a panic inside `f` is passed on as is.
fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(BOUND_S)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("deployment call hung for {BOUND_S} s"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the thread sends before it ends"),
        },
    }
}

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

/// One raw event draw: `(kind, ap, window, length, variant)`.
type RawEvent = (u8, usize, u64, u64, u8);

/// Map a raw draw onto one of the seven `FaultEvent` kinds.
fn event((kind, ap, window, len, variant): RawEvent) -> FaultEvent {
    match kind {
        0 => FaultEvent::Stall {
            ap,
            from_window: window,
            for_windows: len,
        },
        1 => FaultEvent::Crash { ap, window },
        2 => FaultEvent::Corrupt {
            ap,
            from_window: window,
            mode: [
                CorruptionMode::BitFlipBearing,
                CorruptionMode::StaleSeq,
                CorruptionMode::GarbageConfidence,
            ][variant as usize % 3],
        },
        3 => FaultEvent::ByzantineBias {
            ap,
            from_window: window,
            bias_deg: 15.0,
        },
        4 => FaultEvent::BurstLoss {
            ap,
            from_window: window,
            for_windows: len,
        },
        5 => FaultEvent::MarkerLoss { ap, window },
        _ => FaultEvent::DriftOnset {
            ap,
            from_window: window,
            drift_ppw: [0.25, 0.5, 3.0][variant as usize % 3],
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pattern {
    /// `run_window` per window.
    Sync,
    /// `run_stream` (or its submit/collect loop once membership can
    /// change) at the drawn depth.
    Stream,
    /// The streamed loop with one `remove_ap` before a drawn window.
    Remove,
}

/// Everything one run needs; cloned into the run's thread.
#[derive(Clone)]
struct Case {
    n_aps: usize,
    seed: u64,
    skews: Vec<ApSkew>,
    plan: FaultPlan,
    health: bool,
    /// `(window, live index)`: before submitting `window`, remove the
    /// `live index`-th live AP (Remove pattern only).
    removal: (u64, usize),
    /// Full-fleet traffic, one capture per AP id.
    windows: Vec<Vec<Transmission>>,
}

struct Outcome {
    fused: Vec<FusedWindow>,
    report: DeploymentReport,
    /// The live AP ids at each submitted window's submit. Submission
    /// stops early only once every AP has died.
    members: Vec<Vec<usize>>,
}

/// A window's captures for the given live APs.
fn for_live(window: &[Transmission], live: &[usize]) -> Vec<Transmission> {
    window
        .iter()
        .map(|t| Transmission {
            per_ap: live.iter().map(|&k| t.per_ap[k].clone()).collect(),
        })
        .collect()
}

fn run(case: Case, pattern: Pattern, depth: usize, membership_fixed: bool) -> Outcome {
    let tb = Testbed::deployment(case.n_aps, case.seed);
    let aps = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        windows_in_flight: depth,
        faults: Some(case.plan.clone()),
        health: if case.health {
            HealthConfig::enabled()
        } else {
            HealthConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut dep = Deployment::with_skews(aps, cfg, case.skews.clone());
    let mut fused = Vec::new();
    let mut members = Vec::new();
    match pattern {
        Pattern::Sync => {
            for w in &case.windows {
                let live = dep.live_ap_ids();
                if live.is_empty() {
                    break;
                }
                fused.push(dep.run_window(for_live(w, &live)).expect("run_window"));
                members.push(live);
            }
        }
        Pattern::Stream if membership_fixed => {
            members = vec![dep.live_ap_ids(); case.windows.len()];
            fused = dep.run_stream(case.windows.clone()).expect("run_stream");
        }
        Pattern::Stream | Pattern::Remove => {
            for (w, window) in case.windows.iter().enumerate() {
                let (at, index) = case.removal;
                if pattern == Pattern::Remove && w as u64 == at && dep.live_aps() > 1 {
                    let live = dep.live_ap_ids();
                    // A worker that already crashed comes back as an error.
                    let _ = dep.remove_ap(live[index % live.len()]);
                }
                while dep.pending_windows() >= depth {
                    fused.push(dep.collect_window().expect("collect"));
                }
                let live = dep.live_ap_ids();
                if live.is_empty() {
                    break;
                }
                dep.submit_window(for_live(window, &live)).expect("submit");
                members.push(live);
            }
            while dep.pending_windows() > 0 {
                fused.push(dep.collect_window().expect("collect"));
            }
        }
    }
    let (report, _) = dep.finish();
    Outcome {
        fused,
        report,
        members,
    }
}

/// Liveness and exact marker accounting for one finished run.
fn check(case: &Case, out: &Outcome) -> Result<(), TestCaseError> {
    let n = out.members.len();
    prop_assert_eq!(out.fused.len(), n, "not every window closed");
    let lost: BTreeSet<(usize, u64)> = case
        .plan
        .events
        .iter()
        .filter_map(|e| match *e {
            FaultEvent::MarkerLoss { ap, window } => Some((ap, window)),
            _ => None,
        })
        .collect();
    let crashed = |ap: usize, w: u64| {
        case.plan
            .events
            .iter()
            .any(|e| matches!(*e, FaultEvent::Crash { ap: a, window } if a == ap && window <= w))
    };
    let mut total = 0;
    for (w, f) in out.fused.iter().enumerate() {
        let w = w as u64;
        prop_assert_eq!(f.window, w);
        // The AP did the window's work: a member at submit that had not
        // crashed by then.
        let expected = out.members[w as usize]
            .iter()
            .filter(|&&ap| lost.contains(&(ap, w)) && !crashed(ap, w))
            .count();
        prop_assert_eq!(f.markers_lost, expected, "window {} lost-marker count", w);
        total += expected as u64;
    }
    prop_assert_eq!(out.report.metrics.markers_lost, total);
    let per_ap: u64 = out.report.per_ap.iter().map(|s| s.markers_lost).sum();
    prop_assert_eq!(per_ap, total, "worker-side drops disagree");
    prop_assert_eq!(out.report.metrics.windows, n as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_call_returns_and_every_lost_marker_settles_in_its_window(
        n_aps in 2usize..=3,
        n_windows in 2u64..=8,
        seed in 0u64..1_000,
        offsets in proptest::collection::vec(-3i64..=3, 3),
        raw in proptest::collection::vec((0u8..7, 0usize..3, 0u64..8, 1u64..6, 0u8..3), 0..5),
        losses in proptest::collection::vec((0usize..3, 0u64..8), 0..5),
        health in any::<bool>(),
        pattern in 0u8..3,
        depth in 1usize..=4,
        removal in (0u64..8, 0usize..3),
    ) {
        let mut events: Vec<FaultEvent> = raw.into_iter().map(event).collect();
        events.extend(losses.into_iter().map(|(ap, window)| FaultEvent::MarkerLoss { ap, window }));
        let tb = Testbed::deployment(n_aps, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11fe);
        let windows = (0..n_windows)
            .map(|w| {
                tb.window_traffic(&[1 + (w as usize * 7) % 20], w as u16, 0.0, &mut rng)
                    .into_iter()
                    .map(Transmission::new)
                    .collect()
            })
            .collect();
        let case = Case {
            n_aps,
            seed,
            skews: offsets[..n_aps]
                .iter()
                .map(|&window_offset| ApSkew { window_offset, seq_offset: 7, drift_ppw: 0.0 })
                .collect(),
            plan: FaultPlan { seed, events },
            health,
            removal,
            windows,
        };
        let pattern = [Pattern::Sync, Pattern::Stream, Pattern::Remove][pattern as usize];
        // Crashes and watchdog reaps end membership, and the windows
        // already in flight when that happens depend on the depth.
        let membership_fixed = pattern != Pattern::Remove
            && !case.plan.events.iter().any(|e| match e {
                FaultEvent::Crash { .. } => true,
                FaultEvent::Stall { .. } => health,
                _ => false,
            });
        let go = |p: Pattern| {
            let c = case.clone();
            within(move || run(c, p, depth, membership_fixed))
        };
        let out = go(pattern);
        check(&case, &out)?;
        if membership_fixed {
            let other = go(if pattern == Pattern::Sync { Pattern::Stream } else { Pattern::Sync });
            check(&case, &other)?;
            prop_assert_eq!(
                format!("{:?}", out.fused),
                format!("{:?}", other.fused),
                "fused output differs between depth 1 and depth {}",
                depth
            );
            prop_assert_eq!(masked_report(&out.report), masked_report(&other.report));
        }
    }
}
