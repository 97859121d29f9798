//! End-to-end tests for the deployment coordinator against the
//! simulated office testbed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{
    DeployConfig, DeployError, Deployment, FaultEvent, FaultPlan, LinkConfig, TelemetryConfig,
    Transmission,
};
use sa_mac::{AccessControlList, AclPolicy};
use sa_testbed::Testbed;
use secureangle::AccessPoint;

/// Pull the APs out of a testbed, keeping the office around.
fn split(tb: Testbed) -> (sa_testbed::Office, Vec<AccessPoint>) {
    let Testbed { office, nodes, .. } = tb;
    (office, nodes.into_iter().map(|n| n.ap).collect())
}

fn window(tb: &Testbed, clients: &[usize], seq: u16, rng: &mut ChaCha8Rng) -> Vec<Transmission> {
    tb.window_traffic(clients, seq, 0.0, rng)
        .into_iter()
        .map(Transmission::new)
        .collect()
}

#[test]
fn four_ap_deployment_localizes_clients() {
    let tb = Testbed::deployment(4, 301);
    let mut rng = ChaCha8Rng::seed_from_u64(302);
    let clients = [5usize, 7, 9, 16, 19, 20];
    let windows: Vec<Vec<Transmission>> = (0..2)
        .map(|w| window(&tb, &clients, w as u16, &mut rng))
        .collect();
    let (office, aps) = split(tb);

    let mut deployment = Deployment::new(aps, DeployConfig::default());
    for w in windows {
        let fused = deployment.run_window(w).expect("window");
        assert_eq!(fused.clients.len(), clients.len());
        for c in &fused.clients {
            assert_eq!(c.n_aps, 4, "client {:?} heard by {} APs", c.mac, c.n_aps);
        }
    }
    let (report, aps) = deployment.finish();
    assert_eq!(report.metrics.windows, 2);
    assert_eq!(report.metrics.transmissions, 12);
    assert_eq!(report.metrics.decode_failures, 0);
    assert_eq!(report.metrics.packets_dispatched, 48);
    assert_eq!(report.clients.len(), clients.len());

    // Every client's final fix lands near its true position.
    for (summary, &id) in report.clients.iter().zip(&clients) {
        assert_eq!(summary.mac, Testbed::client_mac(id));
        assert_eq!(summary.fixes, 2);
        let track = summary.last_track.expect("track");
        let truth = office.client(id).position;
        assert!(
            track.position.dist(truth) < 2.0,
            "client {} fused at {:?}, truth {:?}",
            id,
            track.position,
            truth
        );
    }

    // The APs come back with their auto-trained signature stores.
    for ap in &aps {
        assert_eq!(ap.spoof.trained_count(), clients.len());
    }
}

/// Fixes leave every fused window sorted by client MAC, whatever order
/// the clients transmitted in.
#[test]
fn fused_fixes_are_sorted_by_mac() {
    let tb = Testbed::deployment(3, 331);
    let mut rng = ChaCha8Rng::seed_from_u64(332);
    let clients = [19usize, 5, 7];
    let windows: Vec<Vec<Transmission>> = (0..2)
        .map(|w| window(&tb, &clients, w as u16, &mut rng))
        .collect();
    let (_, aps) = split(tb);
    let mut deployment = Deployment::new(aps, DeployConfig::default());
    for w in windows {
        let fused = deployment.run_window(w).expect("window");
        assert_eq!(fused.clients.len(), clients.len());
        assert!(
            fused.clients.windows(2).all(|w| w[0].mac < w[1].mac),
            "fixes out of MAC order in window {}",
            fused.window
        );
    }
    deployment.finish();
}

/// Eight AP worker threads, each admitting a disjoint set of clients
/// through its ACL: every AP comes back having trained exactly the
/// clients its own ACL lets in, and nothing else.
#[test]
fn workers_train_disjoint_acl_populations() {
    const N_APS: usize = 8;
    let tb = Testbed::deployment(N_APS, 401);
    let mut rng = ChaCha8Rng::seed_from_u64(402);
    let clients: Vec<usize> = (1..=20).collect();
    let txs = window(&tb, &clients, 0, &mut rng);

    let (_, mut aps) = split(tb);
    for (k, ap) in aps.iter_mut().enumerate() {
        let mut acl = AccessControlList::new(AclPolicy::AllowListed);
        for &id in clients.iter().filter(|&&id| id % N_APS == k) {
            acl.add(Testbed::client_mac(id));
        }
        ap.acl = acl;
    }

    let mut deployment = Deployment::new(aps, DeployConfig::default());
    let fused = deployment.run_window(txs).expect("window");
    assert_eq!(fused.clients.len(), clients.len());

    let (report, aps) = deployment.finish();
    for (k, ap) in aps.iter().enumerate() {
        let own: Vec<usize> = clients
            .iter()
            .copied()
            .filter(|&id| id % N_APS == k)
            .collect();
        assert_eq!(ap.spoof.trained_count(), own.len(), "AP {k}");
        assert_eq!(report.per_ap[k].trained, own.len() as u64, "AP {k}");
        for &id in &own {
            assert!(
                ap.spoof.is_trained(&Testbed::client_mac(id)),
                "AP {k} client {id}"
            );
        }
    }
    let total: usize = aps.iter().map(|ap| ap.spoof.trained_count()).sum();
    assert_eq!(total, clients.len());
}

#[test]
fn pipelined_windows_buffer_in_fusion() {
    let tb = Testbed::deployment(2, 303);
    let mut rng = ChaCha8Rng::seed_from_u64(304);
    let clients = [5usize, 7];
    let w0 = window(&tb, &clients, 0, &mut rng);
    let w1 = window(&tb, &clients, 1, &mut rng);
    let w2 = window(&tb, &clients, 2, &mut rng);
    let (_, aps) = split(tb);

    let mut deployment = Deployment::new(aps, DeployConfig::default());
    // Three windows in flight before the first collect: later windows'
    // reports buffer in the fusion stage while window 0 closes.
    deployment.submit_window(w0).unwrap();
    deployment.submit_window(w1).unwrap();
    deployment.submit_window(w2).unwrap();
    for expect in 0..3u64 {
        let fused = deployment.collect_window().expect("window");
        assert_eq!(fused.window, expect);
        assert_eq!(fused.clients.len(), clients.len());
    }
    assert!(deployment.collect_window().is_err());
    let (report, _) = deployment.finish();
    assert_eq!(report.metrics.windows, 3);
}

#[test]
fn deep_pipelining_on_tiny_channels_does_not_deadlock() {
    // Regression: with capacity-1 channels and many windows submitted
    // before any collect, the report channel fills while the worker
    // input queue is full — the coordinator must drain reports while
    // it waits instead of deadlocking on a blocking send.
    let tb = Testbed::deployment(2, 309);
    let mut rng = ChaCha8Rng::seed_from_u64(310);
    let windows: Vec<Vec<Transmission>> = (0..6)
        .map(|w| window(&tb, &[5], w as u16, &mut rng))
        .collect();
    let (_, aps) = split(tb);
    let cfg = DeployConfig {
        channel_capacity: 1,
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    for w in windows {
        deployment.submit_window(w).expect("submit");
    }
    for expect in 0..6u64 {
        let fused = deployment.collect_window().expect("collect");
        assert_eq!(fused.window, expect);
    }
    let (report, _) = deployment.finish();
    assert_eq!(report.metrics.windows, 6);
}

/// A harshly lossy report link with no retries: windows still close
/// (the end-of-window marker rides the reliable control path), fusion
/// degrades to the surviving bearings, and the loss accounting is
/// deterministic across runs.
#[test]
fn lossy_reports_degrade_windows_without_stalling() {
    let run = || {
        let tb = Testbed::deployment(3, 311);
        let mut rng = ChaCha8Rng::seed_from_u64(312);
        let windows: Vec<Vec<Transmission>> = (0..6)
            .map(|w| window(&tb, &[5, 7], w as u16, &mut rng))
            .collect();
        let (_, aps) = split(tb);
        let cfg = DeployConfig {
            link: LinkConfig {
                loss_rate: 0.5,
                retry_limit: 0,
                seed: 99,
            },
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(aps, cfg);
        let mut fused = Vec::new();
        for w in windows {
            fused.push(deployment.run_window(w).expect("window closes"));
        }
        let (report, _) = deployment.finish();
        (fused, report)
    };
    let (fused, report) = run();
    assert_eq!(report.metrics.windows, 6);
    // At 50% loss over 18 (ap, window) reports, losses are certain.
    assert!(report.metrics.reports_lost > 0, "{:?}", report.metrics);
    assert!(report.metrics.degraded_windows > 0);
    assert_eq!(
        report.per_ap.iter().map(|s| s.reports_lost).sum::<u64>(),
        report.metrics.reports_lost
    );
    // No retries configured: every drop is a lost report, none are
    // retransmits.
    for s in &report.per_ap {
        assert_eq!(s.report_retransmits, 0);
        assert_eq!(s.report_drops, s.reports_lost);
    }
    for f in &fused {
        assert!(f.lost_reports <= 3);
        assert_eq!(f.expected_aps, 3);
        // Degraded windows carry fewer bearings but never block: each
        // client appears with whatever APs survived.
        for c in &f.clients {
            assert!(c.n_aps + f.lost_reports >= 1);
        }
    }
    // Loss draws are seeded per AP: the whole degraded run is
    // byte-deterministic.
    let (fused2, report2) = run();
    assert_eq!(format!("{:?}", fused), format!("{:?}", fused2));
    assert_eq!(report.metrics.reports_lost, report2.metrics.reports_lost);
    assert_eq!(
        report.metrics.degraded_windows,
        report2.metrics.degraded_windows
    );
}

/// With a retry budget, retransmission recovers every drop at moderate
/// loss: the fused output is byte-identical to a reliable-link run,
/// and the drops show up only in the link-health counters.
#[test]
fn retransmits_recover_moderate_loss_exactly() {
    let run = |link: LinkConfig| {
        let tb = Testbed::deployment(2, 313);
        let mut rng = ChaCha8Rng::seed_from_u64(314);
        let windows: Vec<Vec<Transmission>> = (0..8)
            .map(|w| window(&tb, &[5, 7], w as u16, &mut rng))
            .collect();
        let (_, aps) = split(tb);
        let cfg = DeployConfig {
            link,
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(aps, cfg);
        let fused: Vec<_> = windows
            .into_iter()
            .map(|w| deployment.run_window(w).expect("window"))
            .collect();
        let (report, _) = deployment.finish();
        (fused, report)
    };
    let (clean_fused, clean_report) = run(LinkConfig::default());
    let lossy = LinkConfig {
        loss_rate: 0.3,
        retry_limit: 8,
        seed: 41,
    };
    let (lossy_fused, lossy_report) = run(lossy);
    // 16 reports at 30% loss: some first attempts drop…
    assert!(
        lossy_report.per_ap.iter().any(|s| s.report_retransmits > 0),
        "no retransmits at 30% loss: {:?}",
        lossy_report.per_ap
    );
    // …but an 8-retry budget recovers them all (p_lose ≈ 0.3⁹ ≈ 2e-5).
    assert_eq!(lossy_report.metrics.reports_lost, 0);
    assert_eq!(
        format!("{:?}", clean_fused),
        format!("{:?}", lossy_fused),
        "recovered loss must not change fused output"
    );
    assert_eq!(clean_report.metrics.fixes, lossy_report.metrics.fixes);
}

/// A clock drifting faster than the tolerance lets the aligner learn
/// its rate walks out: those reports are rejected (attributed per AP
/// so the operator can find the bad clock), windows still close, and
/// the other AP keeps fusing. A *gentle* drift — even a full window
/// gained per window — is learned as a rate and never rejected.
#[test]
fn runaway_drift_is_rejected_per_ap_while_gentle_drift_is_learned() {
    let run = |drift_ppw: f64| {
        let tb = Testbed::deployment(2, 315);
        let mut rng = ChaCha8Rng::seed_from_u64(316);
        let windows: Vec<Vec<Transmission>> = (0..4)
            .map(|w| window(&tb, &[5], w as u16, &mut rng))
            .collect();
        let (_, aps) = split(tb);
        let cfg = DeployConfig {
            max_skew_windows: 1,
            ..DeployConfig::default()
        };
        let skews = vec![
            sa_deploy::ApSkew::NONE,
            sa_deploy::ApSkew {
                window_offset: 0,
                seq_offset: 0,
                drift_ppw,
            },
        ];
        let mut deployment = Deployment::with_skews(aps, cfg, skews);
        let fused: Vec<_> = windows
            .into_iter()
            .map(|w| deployment.run_window(w).expect("window closes"))
            .collect();
        (fused, deployment.finish().0)
    };
    // AP 1 gains 2.5 windows of skew every window: the first drifted
    // label already exceeds the ±1 tolerance, so the rate is never
    // learned from an accepted report and windows 1-3 are rejected.
    let (fused, report) = run(2.5);
    assert_eq!(fused[0].skew_rejected, 0);
    for (w, f) in fused.iter().enumerate().skip(1) {
        assert_eq!(f.skew_rejected, 1, "window {}", w);
    }
    // The drifting AP's bearings vanish from the rejected windows; the
    // healthy AP's are still there.
    assert_eq!(fused[2].bearings, 1);
    assert_eq!(report.metrics.skew_rejections, 3);
    assert_eq!(report.metrics.degraded_windows, 3);
    // Attribution: the failure-mode table's "which AP is drifting".
    assert_eq!(report.per_ap[0].skew_rejections, 0);
    assert_eq!(report.per_ap[1].skew_rejections, 3);
    // A window-per-window drift stays inside the tolerance long enough
    // for the rate to be learned: nothing is ever rejected.
    let (fused, report) = run(1.0);
    assert!(fused.iter().all(|f| f.skew_rejected == 0));
    assert_eq!(report.metrics.skew_rejections, 0);
    assert_eq!(report.metrics.degraded_windows, 0);
}

/// An AP that is stalled *and* skew-rejected in the same window is one
/// missing AP, not two: each `(AP, window)` settles into one outcome,
/// and the consensus slack counts APs, not reasons. AP 1's clock
/// starts running away at window 1 (every later label is rejected) and
/// its worker wedges for window 2, so window 2 shows both flags for the
/// same AP. The fused output is the same at every pipelining depth.
#[test]
fn stalled_and_skew_rejected_ap_is_missing_once() {
    let run = |depth: usize| {
        let tb = Testbed::deployment(3, 317);
        let mut rng = ChaCha8Rng::seed_from_u64(318);
        let windows: Vec<Vec<Transmission>> = (0..4)
            .map(|w| window(&tb, &[5], w as u16, &mut rng))
            .collect();
        let (_, aps) = split(tb);
        let cfg = DeployConfig {
            windows_in_flight: depth,
            telemetry: TelemetryConfig::full(),
            faults: Some(FaultPlan {
                seed: 0,
                events: vec![
                    FaultEvent::DriftOnset {
                        ap: 1,
                        from_window: 1,
                        drift_ppw: 8.0,
                    },
                    FaultEvent::Stall {
                        ap: 1,
                        from_window: 2,
                        for_windows: 1,
                    },
                ],
            }),
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(aps, cfg);
        let fused = deployment.run_stream(windows).expect("stream");
        let explain = deployment
            .explain(&Testbed::client_mac(5))
            .expect("recorded client");
        (fused, explain)
    };
    let (fused, explain) = run(1);
    assert_eq!(fused[2].stalled_aps, 1);
    assert_eq!(fused[2].skew_rejected, 1);
    let line = explain
        .lines()
        .find(|l| l.starts_with("window    2:"))
        .unwrap_or_else(|| panic!("window 2 not recorded:\n{explain}"));
    assert!(
        line.contains("2/3 APs heard (1 known missing)"),
        "window 2 should show exactly one known-missing AP:\n{explain}"
    );
    let (fused_deep, explain_deep) = run(4);
    assert_eq!(format!("{fused:?}"), format!("{fused_deep:?}"));
    assert_eq!(explain, explain_deep);
}

#[test]
fn ap_count_mismatch_is_rejected() {
    let tb = Testbed::deployment(3, 305);
    let mut rng = ChaCha8Rng::seed_from_u64(306);
    let mut txs = window(&tb, &[5], 0, &mut rng);
    txs[0].per_ap.pop();
    let (_, aps) = split(tb);
    let mut deployment = Deployment::new(aps, DeployConfig::default());
    assert_eq!(
        deployment.submit_window(txs).unwrap_err(),
        DeployError::ApCountMismatch {
            expected: 3,
            got: 2
        }
    );
    assert_eq!(
        deployment.collect_window().unwrap_err(),
        DeployError::NothingSubmitted
    );
}

#[test]
fn undecodable_transmissions_are_counted_and_skipped() {
    let tb = Testbed::deployment(2, 307);
    let mut rng = ChaCha8Rng::seed_from_u64(308);
    let mut txs = window(&tb, &[5], 0, &mut rng);
    // A noise-only "transmission" no AP can decode.
    let noise: Vec<sa_linalg::CMat> = (0..2)
        .map(|_| {
            sa_linalg::CMat::from_fn(8, 600, |_, _| sa_sigproc::noise::cn_sample(&mut rng, 1.0))
        })
        .collect();
    txs.push(Transmission::new(noise));
    let (_, aps) = split(tb);
    let mut deployment = Deployment::new(aps, DeployConfig::default());
    let fused = deployment.run_window(txs).expect("window");
    assert_eq!(fused.clients.len(), 1);
    let (report, _) = deployment.finish();
    assert_eq!(report.metrics.transmissions, 2);
    assert_eq!(report.metrics.decode_failures, 1);
}

/// Streamed windows (`windows_in_flight ≥ 2`) overlap the coordinator's
/// stage-1 decode with the workers' DSP — and must not change a single
/// byte of the fused output, in clean *and* degraded (lossy + skewed)
/// deployments.
#[test]
fn streamed_windows_are_byte_identical_to_sequential() {
    let degraded = DeployConfig {
        link: LinkConfig {
            loss_rate: 0.2,
            retry_limit: 1,
            seed: 909,
        },
        max_skew_windows: 2,
        ..DeployConfig::default()
    };
    for base_cfg in [DeployConfig::default(), degraded] {
        // Same traffic for every depth: regenerate from the same seeds.
        let make = || {
            let tb = Testbed::deployment(3, 311);
            let mut rng = ChaCha8Rng::seed_from_u64(312);
            let clients = [5usize, 7, 19];
            let windows: Vec<Vec<Transmission>> = (0..6)
                .map(|w| window(&tb, &clients, w as u16, &mut rng))
                .collect();
            let (_, aps) = split(tb);
            (aps, windows)
        };

        let run = |depth: usize| {
            let (aps, windows) = make();
            let cfg = DeployConfig {
                windows_in_flight: depth,
                ..base_cfg.clone()
            };
            let mut deployment = Deployment::new(aps, cfg);
            let fused = deployment.run_stream(windows).expect("stream");
            // Streaming must actually be engaged: nothing pending at the
            // end, every window fused, in submission order.
            assert_eq!(deployment.pending_windows(), 0);
            let (report, _) = deployment.finish();
            (fused, report)
        };

        let (seq, seq_report) = run(1);
        assert_eq!(seq.len(), 6);
        for (w, fused) in seq.iter().enumerate() {
            assert_eq!(fused.window, w as u64);
        }
        for depth in [2usize, 4] {
            let (streamed, report) = run(depth);
            assert_eq!(
                streamed, seq,
                "depth {} changed fused output (loss {})",
                depth, base_cfg.link.loss_rate
            );
            // Scheduling counters aside, the reports agree too.
            assert_eq!(report.metrics.windows, seq_report.metrics.windows);
            assert_eq!(report.metrics.fixes, seq_report.metrics.fixes);
            assert_eq!(report.metrics.reports_lost, seq_report.metrics.reports_lost);
        }
    }
}

/// Telemetry keeps one `stage.worker_dsp` sample per AP-window the
/// worker processed, worth the window's summed per-packet DSP time; a
/// stalled window runs no DSP and records none. `stage.enforce` keeps
/// one sample per observation.
#[test]
fn worker_dsp_records_one_sample_per_processed_window() {
    const WINDOWS: u64 = 5;
    const STALLED: u64 = 2;
    let tb = Testbed::deployment(3, 331);
    let mut rng = ChaCha8Rng::seed_from_u64(332);
    let windows: Vec<Vec<Transmission>> = (0..WINDOWS)
        .map(|w| window(&tb, &[3, 5, 9], w as u16, &mut rng))
        .collect();
    let (_, aps) = split(tb);
    let cfg = DeployConfig {
        telemetry: TelemetryConfig::full(),
        faults: Some(FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Stall {
                ap: 2,
                from_window: 1,
                for_windows: STALLED,
            }],
        }),
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    deployment.run_stream(windows).expect("stream");
    let (report, _) = deployment.finish();
    let hist = |name: &str, ap: usize| {
        let labels = vec![("ap".to_string(), ap.to_string())];
        report
            .telemetry
            .histograms
            .iter()
            .find(|h| h.name == name && h.labels == labels)
            .unwrap_or_else(|| panic!("no {name} histogram for AP {ap}"))
            .clone()
    };
    for ap in 0..3 {
        let stats = &report.per_ap[ap];
        let stalled = if ap == 2 { STALLED } else { 0 };
        assert_eq!(stats.windows, WINDOWS, "AP {ap}");
        assert_eq!(stats.windows_stalled, stalled, "AP {ap}");
        let dsp = hist("stage.worker_dsp", ap);
        assert_eq!(dsp.count, WINDOWS - stalled, "AP {ap}");
        assert!(dsp.sum > 0, "AP {ap}: DSP time is recorded");
        assert_eq!(hist("stage.enforce", ap).count, stats.observed, "AP {ap}");
    }
    assert_eq!(report.per_ap[2].observed, 3 * (WINDOWS - STALLED));
}
