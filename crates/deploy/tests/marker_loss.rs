//! End-to-end tests for lost end-of-window markers: a dropped marker
//! must degrade the run deterministically — revealed by a later
//! marker's gap (within [`DeployConfig::marker_timeout_windows`]) or by
//! the worker's final flush — never stall it. Losses are scripted with
//! [`FaultEvent::MarkerLoss`], so every test knows exactly which
//! `(AP, window)` markers vanish.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{DeployConfig, Deployment, FaultEvent, FaultPlan, Transmission};
use sa_testbed::Testbed;
use secureangle::AccessPoint;

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

/// Marker loss without gap detection would stall a window forever; the
/// deployment refuses the configuration at construction.
#[test]
#[should_panic(expected = "marker_timeout_windows")]
fn marker_loss_without_gap_detection_is_rejected() {
    let tb = Testbed::deployment(2, 319);
    let cfg = DeployConfig {
        faults: marker_loss(&[(1, 3)]),
        marker_timeout_windows: 0,
        ..DeployConfig::default()
    };
    let _ = Deployment::new(split(tb), cfg);
}

/// Markers dropped mid-run are revealed by the next surviving marker's
/// gap: AP 1 loses two markers in a row (windows 1 and 2, both closed
/// by its window-3 marker) and AP 2 loses one (window 3, closed by its
/// window-4 marker). Each affected window closes without that AP's
/// bearings and with exactly one lost marker. AP 0's marker for the
/// last window has nothing after it, so only the shutdown flush in
/// `finish` closes that window. The coordinator's detected-loss count
/// agrees with the workers' own, and the whole degraded run is
/// byte-deterministic across repeats.
#[test]
fn lost_markers_degrade_deterministically_without_stalling() {
    const WINDOWS: usize = 6;
    // Windows 0..=4 close on markers (or the gaps they reveal); window
    // 5 can only close in finish().
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
            marker_timeout_windows: 2,
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
    // Every window closed — the explicitly collected ones and the
    // flushed tail — and every scripted loss was detected.
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

/// With no marker lost, enabling the gap-detection tolerance is
/// byte-transparent: in-order markers never present a gap, so the
/// fused output and report are identical to the default configuration.
#[test]
fn gap_tolerance_is_transparent_without_loss() {
    let run = |cfg: DeployConfig| {
        let tb = Testbed::deployment(2, 323);
        let mut rng = ChaCha8Rng::seed_from_u64(324);
        let windows: Vec<Vec<Transmission>> = (0..3)
            .map(|w| window(&tb, &[5, 7], w as u16, &mut rng))
            .collect();
        let mut deployment = Deployment::new(split(tb), cfg);
        let fused: Vec<_> = windows
            .into_iter()
            .map(|w| deployment.run_window(w).expect("window"))
            .collect();
        let (report, _) = deployment.finish();
        (fused, report)
    };
    let (base_fused, base_report) = run(DeployConfig::default());
    let (tol_fused, tol_report) = run(DeployConfig {
        marker_timeout_windows: 2,
        ..DeployConfig::default()
    });
    assert_eq!(format!("{:?}", base_fused), format!("{:?}", tol_fused));
    assert_eq!(masked_report(&base_report), masked_report(&tol_report));
    assert_eq!(base_report.metrics.markers_lost, 0);
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
        marker_timeout_windows: 2,
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
