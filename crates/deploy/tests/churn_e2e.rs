//! End-to-end AP churn tests: APs joining, leaving, and dying mid-run
//! must never stall a window, and the cross-AP consensus must
//! re-baseline on every membership change.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{DeployConfig, DeployError, Deployment, FaultEvent, FaultPlan, Transmission};
use sa_testbed::Testbed;
use secureangle::AccessPoint;

fn window_for(
    tb: &Testbed,
    nodes: &[usize],
    clients: &[usize],
    seq: u16,
    rng: &mut ChaCha8Rng,
) -> Vec<Transmission> {
    tb.window_traffic_for(nodes, clients, seq, 0.0, rng)
        .into_iter()
        .map(Transmission::new)
        .collect()
}

/// Mid-run `remove_ap`: in-flight windows close (no deadlock), the
/// removed AP comes back with its trained state, later windows run on
/// the smaller membership, and consensus references re-baseline.
#[test]
fn mid_run_remove_ap_never_deadlocks_and_rebaselines() {
    let tb = Testbed::deployment(4, 401);
    let mut rng = ChaCha8Rng::seed_from_u64(402);
    let clients = [5usize, 7, 16];
    let all = [0usize, 1, 2, 3];
    let w0 = window_for(&tb, &all, &clients, 0, &mut rng);
    let w1 = window_for(&tb, &all, &clients, 1, &mut rng);
    let w2 = window_for(&tb, &[0, 1, 2], &clients, 2, &mut rng);
    let aps: Vec<AccessPoint> = tb.nodes.into_iter().map(|n| n.ap).collect();

    let mut deployment = Deployment::new(aps, DeployConfig::default());
    assert_eq!(deployment.live_aps(), 4);

    // Window 0 trains references; window 1 is still in flight when the
    // removal lands — it must close with its original 4-AP membership.
    let mac5 = Testbed::client_mac(5);
    deployment.run_window(w0).expect("training window");
    assert!(deployment.reference(&mac5).is_some(), "w0 trains");
    deployment.submit_window(w1).unwrap();

    let removed = deployment.remove_ap(3).expect("remove");
    assert_eq!(removed.config().position, deployment.ap_positions()[3]);
    // The removed AP drained its in-flight window first — its signature
    // store carries the auto-trained profiles from window 0.
    assert_eq!(removed.spoof.trained_count(), clients.len());
    assert_eq!(deployment.live_aps(), 3);
    assert_eq!(deployment.live_ap_ids(), vec![0, 1, 2]);
    assert_eq!(deployment.metrics().aps_removed, 1);
    // Re-baseline is immediate: the reference trained under the 4-AP
    // geometry is gone.
    assert!(
        deployment.reference(&mac5).is_none(),
        "reference survived the membership change"
    );

    let fused = deployment.collect_window().expect("in-flight window");
    assert_eq!(fused.expected_aps, 4);
    assert_eq!(fused.clients.len(), clients.len());
    for c in &fused.clients {
        assert_eq!(c.n_aps, 4, "pre-removal window lost bearings: {:?}", c);
        assert!(
            !c.consensus.is_spoof(),
            "post-rebaseline window must not false-flag: {:?}",
            c
        );
    }

    // The in-flight window's fusion re-trained from its clean fixes;
    // the next 3-AP window stays consistent with no spoof flags.
    let fused = deployment.run_window(w2).expect("post-removal window");
    assert_eq!(fused.expected_aps, 3);
    for c in &fused.clients {
        assert_eq!(c.n_aps, 3);
        assert!(c.fix.is_some(), "3-AP window must still fix: {:?}", c);
        assert!(!c.consensus.is_spoof(), "false flag after churn: {:?}", c);
    }
    assert!(deployment.reference(&mac5).is_some(), "retrain failed");

    let (report, aps) = deployment.finish();
    assert_eq!(aps.len(), 3, "three live APs come back");
    assert_eq!(report.n_aps, 4, "stable id space includes the removed AP");
    assert_eq!(report.metrics.windows, 3);
    assert_eq!(report.metrics.consensus_flags, 0);
    // The removed AP's slot holds the stats it accumulated: 2 windows.
    assert_eq!(report.per_ap[3].windows, 2);
    assert_eq!(report.per_ap[0].windows, 3);
}

/// `add_ap` mid-run: the joiner participates from the next submitted
/// window, gets a fresh id, and the consensus re-baselines.
#[test]
fn mid_run_add_ap_joins_the_next_window() {
    let tb = Testbed::deployment(4, 403);
    let mut rng = ChaCha8Rng::seed_from_u64(404);
    let clients = [5usize, 7, 9];
    let w0 = window_for(&tb, &[0, 1, 2], &clients, 0, &mut rng);
    let w1 = window_for(&tb, &[0, 1, 2, 3], &clients, 1, &mut rng);
    let mut aps: Vec<AccessPoint> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let joiner = aps.pop().expect("4 APs");

    // Start with 3 APs; the fourth joins after window 0.
    let mut deployment = Deployment::new(aps, DeployConfig::default());
    let fused = deployment.run_window(w0).expect("window 0");
    assert_eq!(fused.expected_aps, 3);
    let mac5 = Testbed::client_mac(5);
    assert!(deployment.reference(&mac5).is_some());

    let new_id = deployment.add_ap(joiner);
    assert_eq!(new_id, 3);
    assert_eq!(deployment.live_aps(), 4);
    assert_eq!(deployment.metrics().aps_added, 1);
    assert!(
        deployment.reference(&mac5).is_none(),
        "references must re-baseline when the fleet grows"
    );

    let fused = deployment.run_window(w1).expect("window 1");
    assert_eq!(fused.expected_aps, 4);
    for c in &fused.clients {
        assert_eq!(c.n_aps, 4, "joiner did not contribute: {:?}", c);
        assert!(!c.consensus.is_spoof());
    }
    let (report, aps) = deployment.finish();
    assert_eq!(aps.len(), 4);
    assert_eq!(report.per_ap[3].windows, 1, "joiner saw only window 1");
    assert_eq!(report.per_ap[0].windows, 2);
}

/// A worker that dies abruptly (a scripted crash in window 1) must
/// never stall a window: pending windows close without it, membership
/// shrinks, and the run continues on the survivors.
#[test]
fn crashed_worker_never_stalls_a_window() {
    let tb = Testbed::deployment(3, 405);
    let mut rng = ChaCha8Rng::seed_from_u64(406);
    let clients = [5usize, 7];
    let all = [0usize, 1, 2];
    let w0 = window_for(&tb, &all, &clients, 0, &mut rng);
    let w1 = window_for(&tb, &all, &clients, 1, &mut rng);
    let w2 = window_for(&tb, &[0, 1], &clients, 2, &mut rng);
    let aps: Vec<AccessPoint> = tb.nodes.into_iter().map(|n| n.ap).collect();

    let cfg = DeployConfig {
        faults: Some(FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Crash { ap: 2, window: 1 }],
        }),
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    deployment.run_window(w0).expect("clean window");
    // AP 2's worker dies on receiving window 1, before any DSP,
    // payload or marker.
    deployment.submit_window(w1).expect("submit");
    let fused = deployment.collect_window().expect("must not deadlock");
    // The window was submitted while AP 2 still counted as live, so it
    // closes short: only the survivors' bearings arrive.
    assert_eq!(fused.expected_aps, 3);
    for c in &fused.clients {
        assert_eq!(c.n_aps, 2, "crashed AP reported from the grave: {:?}", c);
        assert!(c.fix.is_some(), "survivors must still fix: {:?}", c);
    }
    assert_eq!(deployment.live_aps(), 2);
    assert_eq!(deployment.metrics().worker_losses, 1);

    // Life goes on at 2 APs.
    let fused = deployment.run_window(w2).expect("post-crash window");
    assert_eq!(fused.expected_aps, 2);
    for c in &fused.clients {
        assert!(c.fix.is_some());
    }
    let (report, aps) = deployment.finish();
    assert_eq!(aps.len(), 2, "the crashed AP's state is gone");
    assert_eq!(report.metrics.worker_losses, 1);
    assert_eq!(report.metrics.degraded_windows, 1);
    assert_eq!(report.n_aps, 3);
}

/// Churn guard rails: unknown ids, double removal, and removing the
/// last AP are refused.
#[test]
fn churn_guard_rails() {
    let tb = Testbed::deployment(2, 407);
    let aps: Vec<AccessPoint> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let mut deployment = Deployment::new(aps, DeployConfig::default());
    assert_eq!(
        deployment.remove_ap(9).unwrap_err(),
        DeployError::UnknownAp { ap_id: 9 }
    );
    deployment.remove_ap(0).expect("first removal");
    assert_eq!(
        deployment.remove_ap(0).unwrap_err(),
        DeployError::UnknownAp { ap_id: 0 }
    );
    assert_eq!(deployment.remove_ap(1).unwrap_err(), DeployError::LastAp);
    // A 2-capture transmission no longer matches the 1-AP membership.
    let got = deployment.submit_window(vec![Transmission {
        per_ap: vec![
            std::sync::Arc::new(sa_linalg::CMat::zeros(8, 16)),
            std::sync::Arc::new(sa_linalg::CMat::zeros(8, 16)),
        ],
    }]);
    assert_eq!(
        got.unwrap_err(),
        DeployError::ApCountMismatch {
            expected: 1,
            got: 2
        }
    );
    let (report, aps) = deployment.finish();
    assert_eq!(aps.len(), 1);
    assert_eq!(report.metrics.aps_removed, 1);
}
