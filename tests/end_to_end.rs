//! Cross-crate integration tests: the full stack from client waveform to
//! application verdict, exercised through the public API of the facade
//! crate exactly as a downstream user would.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_testbed::{ApArray, Testbed};
use secureangle_suite::prelude::*;

/// Smoke guard for the whole e2e path: the full detection → calibration
/// → MUSIC → signature → enforcement `Pipeline` must run on the
/// `Office::paper_figure4()` scenario, deterministically in the seeded
/// `ChaCha8Rng`, and produce a meaningful admit decision. This test is
/// the canary that keeps the e2e suite from silently regressing to
/// `#[ignore]` or to a stubbed scenario: it asserts the scenario *is*
/// the paper's 20-client office and that train → receive round-trips.
#[test]
fn smoke_full_pipeline_on_paper_office_is_deterministic() {
    let run = || -> (f64, bool) {
        let mut tb = Testbed::single_ap(ApArray::Circular, 7);
        // The testbed must be the paper's Figure-4 office, not a stub:
        // same 20 clients at the same positions, not merely 20 of them.
        let paper = secureangle_suite::testbed::Office::paper_figure4();
        assert_eq!(tb.office.clients.len(), 20);
        for (got, want) in tb.office.clients.iter().zip(&paper.clients) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.position, want.position);
        }

        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let client = 5usize;
        let mac = Testbed::client_mac(client);

        // Train on one packet, then push a second through the full
        // receive path (observe + signature match + verdict).
        let buf = tb.client_capture(0, client, 0, 0.0, &mut rng);
        let obs = tb.nodes[0].ap.observe(&buf).expect("training observe");
        tb.nodes[0].ap.train_client(mac, &obs);
        let buf = tb.client_capture(0, client, 1, 15.0, &mut rng);
        let (obs, verdict) = tb.nodes[0].ap.receive(&buf).expect("receive");
        let frame = obs.frame.expect("frame decodes");
        assert_eq!(frame.src, mac);
        (obs.bearing_deg, verdict.admitted())
    };

    let (bearing_a, admitted_a) = run();
    let (bearing_b, admitted_b) = run();
    assert!(admitted_a, "trained client must be admitted");
    assert_eq!(
        bearing_a, bearing_b,
        "pipeline must be deterministic in the seed"
    );
    assert_eq!(admitted_a, admitted_b);
}

#[test]
fn every_testbed_client_is_heard_and_decoded() {
    let tb = Testbed::single_ap(ApArray::Circular, 101);
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    for spec in tb.office.clients.clone() {
        let buf = tb.client_capture(0, spec.id, 1, 0.0, &mut rng);
        let obs = tb.nodes[0]
            .ap
            .observe(&buf)
            .unwrap_or_else(|e| panic!("client {}: {}", spec.id, e));
        let frame = obs
            .frame
            .unwrap_or_else(|| panic!("client {}: frame did not decode", spec.id));
        assert_eq!(frame.src, Testbed::client_mac(spec.id));
    }
}

#[test]
fn bearings_are_accurate_for_unblocked_clients() {
    let tb = Testbed::single_ap(ApArray::Circular, 103);
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    // Clients with clear or near-clear geometry.
    for id in [1usize, 3, 5, 7, 8, 9, 16, 19, 20] {
        let truth = tb.office.ground_truth_azimuth_deg(id);
        let buf = tb.client_capture(0, id, 1, 0.0, &mut rng);
        let obs = tb.nodes[0].ap.observe(&buf).expect("observe");
        assert!(
            angle_diff_deg(obs.bearing_deg, truth, true) < 6.0,
            "client {}: bearing {:.1} truth {:.1}",
            id,
            obs.bearing_deg,
            truth
        );
    }
}

#[test]
fn full_spoofing_scenario_across_all_gear() {
    use secureangle::attacker::{Attacker, AttackerGear};
    let mut tb = Testbed::single_ap(ApArray::Circular, 105);
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    let victim = 5usize;
    let victim_mac = Testbed::client_mac(victim);

    let buf = tb.client_capture(0, victim, 0, 0.0, &mut rng);
    let obs = tb.nodes[0].ap.observe(&buf).expect("training");
    tb.nodes[0].ap.train_client(victim_mac, &obs);

    // Victim still passes.
    let buf = tb.client_capture(0, victim, 1, 30.0, &mut rng);
    let (_, verdict) = tb.nodes[0].ap.receive(&buf).expect("victim");
    assert!(verdict.admitted(), "victim dropped: {:?}", verdict);

    // All three attacker classes from another position are flagged.
    let apos = tb.office.client(16).position;
    let ap_pos = tb.nodes[0].ap.config().position;
    let frame = tb.client_frame(victim, 99);
    for gear in [
        AttackerGear::Omni,
        AttackerGear::Directional {
            gain_dbi: 14.0,
            order: 4.0,
        },
        AttackerGear::Array { n_elements: 8 },
    ] {
        let attacker = Attacker::new(apos, gear, victim_mac);
        let antenna = attacker.antenna_toward(ap_pos);
        let buf = tb.capture(0, apos, &antenna, 1.0, &frame, 0.0, &mut rng);
        let (_, verdict) = tb.nodes[0].ap.receive(&buf).expect("attack frame");
        assert!(
            !verdict.admitted(),
            "{:?} attacker admitted: {:?}",
            gear,
            verdict
        );
    }
}

#[test]
fn fence_admits_insiders_rejects_outsiders() {
    use secureangle::fence::{FenceConfig, VirtualFence};
    use secureangle::localize::BearingObservation;
    let tb = Testbed::multi_ap(107);
    let mut rng = ChaCha8Rng::seed_from_u64(108);
    let fence = VirtualFence::new(tb.office.fence_polygon(), FenceConfig::default());

    let bearings_for = |pos, power: f64, rng: &mut ChaCha8Rng| -> Vec<BearingObservation> {
        let frame = tb.client_frame(1, 1);
        (0..tb.nodes.len())
            .filter_map(|node| {
                let buf = tb.capture(node, pos, &TxAntenna::Omni, power, &frame, 0.0, rng);
                tb.nodes[node].ap.observe(&buf).ok().and_then(|o| {
                    o.global_azimuth.map(|az| BearingObservation {
                        ap_position: tb.nodes[node].ap.config().position,
                        azimuth: az,
                    })
                })
            })
            .collect()
    };

    // An in-room client is admitted.
    let inside = tb.office.client(5).position;
    let d = fence.decide(&bearings_for(inside, 1.0, &mut rng));
    assert!(d.admit(), "inside client rejected: {:?}", d);

    // A parking-lot transmitter at +20 dB is not.
    let outside = sa_channel::geom::pt(36.0, 2.0);
    let d = fence.decide(&bearings_for(outside, 100.0, &mut rng));
    assert!(!d.admit(), "outside transmitter admitted: {:?}", d);
}

#[test]
fn linear_and_circular_arrays_agree_on_folded_bearing() {
    let circ = Testbed::single_ap(ApArray::Circular, 109);
    let lin = Testbed::single_ap(ApArray::Linear(8), 109);
    let mut rng = ChaCha8Rng::seed_from_u64(110);
    let id = 5usize;

    let bc = circ.client_capture(0, id, 1, 0.0, &mut rng);
    let oc = circ.nodes[0].ap.observe(&bc).expect("circular");
    let bl = lin.client_capture(0, id, 1, 0.0, &mut rng);
    let ol = lin.nodes[0].ap.observe(&bl).expect("linear");

    // Fold the circular estimate into the ULA convention and compare.
    let folded = sa_testbed::experiments::fig7::fold_to_broadside_deg(oc.bearing_deg);
    assert!(
        (folded - ol.bearing_deg).abs() < 6.0,
        "circular {:.1} (folded {:.1}) vs linear {:.1}",
        oc.bearing_deg,
        folded,
        ol.bearing_deg
    );
}

#[test]
fn observation_is_deterministic_in_the_seed() {
    let tb1 = Testbed::single_ap(ApArray::Circular, 111);
    let tb2 = Testbed::single_ap(ApArray::Circular, 111);
    let mut r1 = ChaCha8Rng::seed_from_u64(112);
    let mut r2 = ChaCha8Rng::seed_from_u64(112);
    let b1 = tb1.client_capture(0, 7, 1, 0.0, &mut r1);
    let b2 = tb2.client_capture(0, 7, 1, 0.0, &mut r2);
    let o1 = tb1.nodes[0].ap.observe(&b1).expect("o1");
    let o2 = tb2.nodes[0].ap.observe(&b2).expect("o2");
    assert_eq!(o1.bearing_deg, o2.bearing_deg);
    assert_eq!(o1.rss_db, o2.rss_db);
    assert_eq!(
        o1.signature.spectrum().values,
        o2.signature.spectrum().values
    );
}

#[test]
fn facade_prelude_compiles_and_reaches_every_layer() {
    // Touch one item from each re-exported crate through the facade.
    let _ = secureangle_suite::linalg::c64(1.0, 2.0);
    let _ = secureangle_suite::sigproc::SchmidlCox::new(32);
    let _ = secureangle_suite::phy::Modulation::Qpsk;
    let _ = secureangle_suite::mac::MacAddr::BROADCAST;
    let _ = secureangle_suite::array::Array::paper_octagon();
    let _ = secureangle_suite::channel::FloorPlan::new();
    let _ = secureangle_suite::aoa::SourceCount::Mdl;
    let _ = secureangle_suite::core::SpoofDetector::new();
    let office = secureangle_suite::testbed::Office::paper_figure4();
    assert_eq!(office.clients.len(), 20);
}
