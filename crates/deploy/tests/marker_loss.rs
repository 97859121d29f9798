//! End-to-end tests for lost end-of-window markers: a dropped marker
//! must degrade the run deterministically — settled exactly by the next
//! message that shows its numbered dispatch finished (a later marker, a
//! flush reply or the worker's exit notice) — and never stall it.
//! Losses are scripted with [`FaultEvent::MarkerLoss`], so every test
//! knows exactly which `(AP, window)` markers vanish. The tests of
//! calls that must return fail after a generous bound instead of
//! stalling the suite.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{DeployConfig, Deployment, FaultEvent, FaultPlan, Transmission};
use sa_testbed::Testbed;
use secureangle::AccessPoint;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

fn split(tb: Testbed) -> Vec<AccessPoint> {
    tb.nodes.into_iter().map(|n| n.ap).collect()
}

fn window(tb: &Testbed, clients: &[usize], seq: u16, rng: &mut ChaCha8Rng) -> Vec<Transmission> {
    tb.window_traffic(clients, seq, 0.0, rng)
        .into_iter()
        .map(Transmission::new)
        .collect()
}

fn marker_loss(events: &[(usize, u64)]) -> Option<FaultPlan> {
    Some(FaultPlan {
        seed: 0,
        events: events
            .iter()
            .map(|&(ap, window)| FaultEvent::MarkerLoss { ap, window })
            .collect(),
    })
}

/// Scheduling-observability counters are interleaving-dependent and
/// outside the determinism contract; zero them before comparing.
fn masked_report(r: &sa_deploy::DeploymentReport) -> String {
    let mut r = r.clone();
    r.metrics.max_fusion_queue_depth = 0;
    r.metrics.report_backpressure_events = 0;
    r.metrics.ingest_backpressure_events = 0;
    for ap in &mut r.per_ap {
        ap.backpressure_events = 0;
    }
    format!("{:?}", r)
}

/// Run `f` on its own thread and fail if it has not returned within
/// `secs` seconds; a panic inside `f` is passed on as is.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("no return within {secs} s"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the thread sends before it ends"),
        },
    }
}

/// A marker lost before an AP's first report still settles its own
/// window: with AP 1's window-0 marker gone, window 0 counts one lost
/// marker, and every window fuses its own client only — AP 1's later
/// bearings are not shifted one window early.
#[test]
fn first_marker_lost_keeps_every_window_on_its_own_client() {
    const CLIENTS: [usize; 5] = [3, 6, 9, 12, 15];
    let fused = within(300, || {
        let tb = Testbed::deployment(3, 321);
        let mut rng = ChaCha8Rng::seed_from_u64(322);
        let windows: Vec<Vec<Transmission>> = CLIENTS
            .iter()
            .enumerate()
            .map(|(w, &c)| window(&tb, &[c], w as u16, &mut rng))
            .collect();
        let cfg = DeployConfig {
            faults: marker_loss(&[(1, 0)]),
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(split(tb), cfg);
        for w in windows {
            deployment.submit_window(w).expect("submit");
        }
        let fused: Vec<_> = (0..CLIENTS.len())
            .map(|_| deployment.collect_window().expect("window closes"))
            .collect();
        let _ = deployment.finish();
        fused
    });
    let lost: Vec<usize> = fused.iter().map(|f| f.markers_lost).collect();
    assert_eq!(lost, vec![1, 0, 0, 0, 0]);
    for (w, f) in fused.iter().enumerate() {
        let macs: Vec<_> = f.clients.iter().map(|c| c.mac).collect();
        assert_eq!(macs, vec![Testbed::client_mac(CLIENTS[w])], "window {w}");
    }
}

/// Two markers lost in a row, with every window submitted before the
/// first collect: the later marker settles both, and every collect
/// returns.
#[test]
fn consecutive_lost_markers_never_hang_a_collect() {
    let lost = within(300, || {
        let tb = Testbed::deployment(3, 321);
        let mut rng = ChaCha8Rng::seed_from_u64(322);
        let windows: Vec<Vec<Transmission>> = (0..5)
            .map(|w| window(&tb, &[5], w as u16, &mut rng))
            .collect();
        let cfg = DeployConfig {
            faults: marker_loss(&[(1, 1), (1, 2)]),
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(split(tb), cfg);
        for w in windows {
            deployment.submit_window(w).expect("submit");
        }
        let lost: Vec<usize> = (0..5)
            .map(|_| deployment.collect_window().expect("window").markers_lost)
            .collect();
        let _ = deployment.finish();
        lost
    });
    assert_eq!(lost, vec![0, 1, 1, 0, 0]);
}

/// An AP loses the markers of its last two windows, both submitted
/// before the first collect. When window 1 is collected, window 2 is
/// already queued at that AP, yet no marker of its will ever arrive:
/// the flush request must go to every AP still silent on the window,
/// not only to those whose newest dispatch is that window.
#[test]
fn lost_markers_at_the_tail_of_a_stream_never_hang() {
    let lost = within(300, || {
        let tb = Testbed::deployment(2, 327);
        let mut rng = ChaCha8Rng::seed_from_u64(328);
        let windows: Vec<Vec<Transmission>> = (0..3)
            .map(|w| window(&tb, &[5], w as u16, &mut rng))
            .collect();
        let cfg = DeployConfig {
            faults: marker_loss(&[(1, 1), (1, 2)]),
            windows_in_flight: 3,
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(split(tb), cfg);
        let fused = deployment.run_stream(windows).expect("stream");
        let _ = deployment.finish();
        fused.iter().map(|f| f.markers_lost).collect::<Vec<_>>()
    });
    assert_eq!(lost, vec![0, 1, 1]);
}

/// A synchronous `run_window` whose marker is lost has no later window
/// to reveal it: the flush request settles it, and the call returns.
#[test]
fn synchronous_run_window_returns_after_a_lost_marker() {
    let lost = within(300, || {
        let tb = Testbed::deployment(2, 319);
        let mut rng = ChaCha8Rng::seed_from_u64(320);
        let windows: Vec<Vec<Transmission>> = (0..2)
            .map(|w| window(&tb, &[5, 7], w as u16, &mut rng))
            .collect();
        let cfg = DeployConfig {
            faults: marker_loss(&[(1, 0)]),
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(split(tb), cfg);
        let lost: Vec<usize> = windows
            .into_iter()
            .map(|w| deployment.run_window(w).expect("window").markers_lost)
            .collect();
        let (report, _) = deployment.finish();
        (lost, report.metrics.markers_lost)
    });
    assert_eq!(lost, (vec![1, 0], 1));
}

/// Markers dropped mid-run are settled by the next surviving marker:
/// AP 1 loses two markers in a row (windows 1 and 2, both settled by
/// its window-3 marker) and AP 2 loses one (window 3, settled by its
/// window-4 marker). Each affected window closes without that AP's
/// bearings and with exactly one lost marker. AP 0's marker for the
/// last window has nothing after it, so its exit notice in `finish`
/// closes that window. The coordinator's detected-loss count agrees
/// with the workers' own, and the whole degraded run is
/// byte-deterministic across repeats.
#[test]
fn lost_markers_degrade_deterministically_without_stalling() {
    const WINDOWS: usize = 6;
    // Windows 0..=4 close on markers (or the losses they reveal);
    // window 5 closes in finish().
    const EXPLICIT: usize = 5;
    const LOST: [(usize, u64); 4] = [(1, 1), (1, 2), (2, 3), (0, 5)];
    let run = || {
        let tb = Testbed::deployment(3, 321);
        let mut rng = ChaCha8Rng::seed_from_u64(322);
        let windows: Vec<Vec<Transmission>> = (0..WINDOWS)
            .map(|w| window(&tb, &[5, 7], w as u16, &mut rng))
            .collect();
        let aps = split(tb);
        let cfg = DeployConfig {
            faults: marker_loss(&LOST),
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(aps, cfg);
        for w in windows {
            deployment.submit_window(w).expect("submit");
        }
        let mut fused = Vec::new();
        for expect in 0..EXPLICIT as u64 {
            let f = deployment.collect_window().expect("window closes");
            assert_eq!(f.window, expect);
            fused.push(f);
        }
        let (report, _) = deployment.finish();
        (fused, report)
    };

    let (fused, report) = run();
    let per_window: Vec<usize> = fused.iter().map(|f| f.markers_lost).collect();
    assert_eq!(per_window, vec![0, 1, 1, 1, 0], "mid-run gaps");
    // A marker-lost AP contributes no bearings to its window.
    for f in &fused {
        assert_eq!(f.expected_aps, 3);
        assert_eq!(f.lost_reports, 0, "the report link is reliable");
        for c in &f.clients {
            assert!(c.n_aps <= f.expected_aps - f.markers_lost, "{:?}", c);
        }
    }
    // Every window closed — the explicitly collected ones and the tail
    // closed in finish() — and every scripted loss was detected.
    assert_eq!(report.metrics.windows, WINDOWS as u64);
    assert_eq!(report.metrics.markers_lost, LOST.len() as u64);
    assert_eq!(report.metrics.degraded_windows, 4, "windows 1, 2, 3 and 5");
    let per_ap: Vec<u64> = report.per_ap.iter().map(|s| s.markers_lost).collect();
    assert_eq!(per_ap, vec![1, 2, 1], "worker-side drops per AP");
    assert_eq!(
        per_ap.iter().sum::<u64>(),
        report.metrics.markers_lost,
        "coordinator-detected losses must match worker-side drops"
    );

    // Determinism: the losses are a pure function of the plan, so
    // repeating the run reproduces the degradation byte-for-byte.
    let (fused2, report2) = run();
    assert_eq!(format!("{:?}", fused), format!("{:?}", fused2));
    assert_eq!(masked_report(&report), masked_report(&report2));
}

/// A worker that takes a window off a full input queue and loses its
/// marker must still wake the coordinator waiting for room in that
/// queue. One AP with capacity-1 channels, eight windows submitted
/// before any collect, and two of every three markers lost: the
/// coordinator is repeatedly blocked on the full queue exactly when
/// the worker's next windows send nothing it may count as a marker.
/// Every window still closes, and every loss is detected.
#[test]
fn lost_markers_on_a_full_input_queue_never_hang_dispatch() {
    const WINDOWS: u64 = 24;
    let tb = Testbed::deployment(1, 325);
    let mut rng = ChaCha8Rng::seed_from_u64(326);
    let windows: Vec<Vec<Transmission>> = (0..WINDOWS)
        .map(|w| window(&tb, &[5], w as u16, &mut rng))
        .collect();
    let aps = split(tb);
    let lost: Vec<(usize, u64)> = (0..WINDOWS - 1)
        .filter(|w| w % 3 != 0)
        .map(|w| (0, w))
        .collect();
    let cfg = DeployConfig {
        faults: marker_loss(&lost),
        channel_capacity: 1,
        windows_in_flight: 8,
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    let fused = deployment.run_stream(windows).expect("stream");
    assert_eq!(fused.len(), WINDOWS as usize);
    let closed_lost: usize = fused.iter().map(|f| f.markers_lost).sum();
    assert_eq!(closed_lost, lost.len());
    let (report, _) = deployment.finish();
    assert_eq!(report.metrics.markers_lost, lost.len() as u64);
}

/// The window gate bounds each worker's queue in windows, not packets.
/// Three APs with `channel_capacity: 1`, six 8-transmission windows
/// submitted before any collect, and lost markers scattered over them:
/// every submit after the first waits at the gate for the window before
/// it, at times on a lost-marker notice, and every window still closes,
/// in order, with its own losses. The gate never changes a byte: without
/// faults, the run fuses what a capacity-64 run fuses.
#[test]
fn the_window_gate_never_hangs_and_never_changes_a_byte() {
    const WINDOWS: u64 = 6;
    const CLIENTS: [usize; 8] = [2, 4, 5, 7, 9, 12, 14, 16];
    const LOST: [(usize, u64); 5] = [(0, 1), (1, 1), (2, 3), (1, 4), (0, 5)];
    let run = |channel_capacity: usize, faults: Option<FaultPlan>| {
        within(300, move || {
            let tb = Testbed::deployment(3, 329);
            let mut rng = ChaCha8Rng::seed_from_u64(330);
            let windows: Vec<Vec<Transmission>> = (0..WINDOWS)
                .map(|w| window(&tb, &CLIENTS, w as u16, &mut rng))
                .collect();
            let cfg = DeployConfig {
                faults,
                channel_capacity,
                ..DeployConfig::default()
            };
            let mut deployment = Deployment::new(split(tb), cfg);
            for w in windows {
                deployment.submit_window(w).expect("submit");
            }
            let fused: Vec<_> = (0..WINDOWS)
                .map(|_| deployment.collect_window().expect("window closes"))
                .collect();
            let (report, _) = deployment.finish();
            (fused, report)
        })
    };

    let (fused, report) = run(1, marker_loss(&LOST));
    let order: Vec<u64> = fused.iter().map(|f| f.window).collect();
    assert_eq!(order, (0..WINDOWS).collect::<Vec<_>>());
    let lost: Vec<usize> = fused.iter().map(|f| f.markers_lost).collect();
    assert_eq!(lost, vec![0, 2, 0, 1, 1, 1]);
    assert_eq!(report.metrics.markers_lost, LOST.len() as u64);
    assert!(report.metrics.ingest_backpressure_events > 0);

    let (gated, gated_report) = run(1, None);
    let (open, open_report) = run(64, None);
    assert!(gated_report.metrics.ingest_backpressure_events > 0);
    assert_eq!(open_report.metrics.ingest_backpressure_events, 0);
    assert_eq!(format!("{gated:?}"), format!("{open:?}"));
    assert_eq!(masked_report(&gated_report), masked_report(&open_report));
}
