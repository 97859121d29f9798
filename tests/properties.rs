//! Property-based tests over the cross-crate invariants: whatever the
//! geometry, seed or parameters, these must hold. (Per-module property
//! tests live in their crates; these target the seams between crates.)

use proptest::prelude::*;
use sa_channel::geom::pt;
use sa_channel::plan::{FloorPlan, CONCRETE, DRYWALL};
use sa_channel::trace::{trace_paths, PathKind, TraceConfig};
use secureangle_suite::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Steering vectors are unit-modulus per element for any azimuth and
    /// both geometries.
    #[test]
    fn steering_unit_modulus(az in -10.0f64..10.0, n in 2usize..12) {
        for array in [Array::paper_octagon(), Array::paper_linear(n)] {
            for z in array.steering(az) {
                prop_assert!((z.abs() - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Ray tracing always returns a direct path; delays and lengths are
    /// consistent; the direct path is the shortest.
    #[test]
    fn trace_invariants(
        tx_x in -20.0f64..20.0, tx_y in -20.0f64..20.0,
        rx_x in -20.0f64..20.0, rx_y in -20.0f64..20.0,
        wall_y in -15.0f64..15.0,
    ) {
        let tx = pt(tx_x, tx_y);
        let rx = pt(rx_x, rx_y);
        prop_assume!(tx.dist(rx) > 0.5);
        let mut plan = FloorPlan::new();
        plan.add_wall(
            sa_channel::geom::seg(pt(-25.0, wall_y), pt(25.0, wall_y)),
            CONCRETE,
        );
        let paths = trace_paths(&plan, tx, rx, &TraceConfig::default());
        prop_assert!(!paths.is_empty());
        let direct: Vec<_> = paths.iter().filter(|p| p.kind == PathKind::Direct).collect();
        prop_assert_eq!(direct.len(), 1);
        for p in &paths {
            prop_assert!(p.gain.is_finite());
            prop_assert!((p.delay_s * 299_792_458.0 - p.length).abs() < 1e-6);
            prop_assert!(p.length + 1e-9 >= direct[0].length);
        }
    }

    /// Through-wall loss is monotone: adding a wall never increases the
    /// direct path's gain.
    #[test]
    fn walls_only_attenuate(x in 2.0f64..15.0) {
        let tx = pt(x, 0.0);
        let rx = pt(-1.0, 0.0);
        let free = trace_paths(&FloorPlan::new(), tx, rx, &TraceConfig::default());
        let mut plan = FloorPlan::new();
        plan.add_wall(sa_channel::geom::seg(pt(0.5, -30.0), pt(0.5, 30.0)), DRYWALL);
        let walled = trace_paths(&plan, tx, rx, &TraceConfig::default());
        let g_free = free.iter().find(|p| p.kind == PathKind::Direct).unwrap().gain.abs();
        let g_wall = walled.iter().find(|p| p.kind == PathKind::Direct).unwrap().gain.abs();
        prop_assert!(g_wall <= g_free + 1e-12);
    }

    /// Localization from exact bearings recovers any target position
    /// with non-degenerate AP geometry.
    #[test]
    fn localize_recovers_targets(tx in -20.0f64..50.0, ty in -20.0f64..40.0) {
        use secureangle::localize::{localize, BearingObservation};
        let target = pt(tx, ty);
        let aps = [pt(0.0, 0.0), pt(30.0, 0.0), pt(15.0, 25.0)];
        prop_assume!(aps.iter().all(|&a| a.dist(target) > 0.5));
        let bearings: Vec<_> = aps
            .iter()
            .map(|&p| BearingObservation { ap_position: p, azimuth: p.azimuth_to(target) })
            .collect();
        let fix = localize(&bearings).unwrap();
        prop_assert!(fix.position.dist(target) < 1e-6, "err {}", fix.position.dist(target));
        prop_assert_eq!(fix.behind_count, 0);
    }

    /// A signature always matches itself perfectly, and the match score
    /// is symmetric within tolerance, for random spectra.
    #[test]
    fn signature_metric_properties(seed in 0u64..1000) {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let make = |rng: &mut rand_chacha::ChaCha8Rng| {
            let angles: Vec<f64> = (0..360).map(|i| i as f64).collect();
            let c1 = rng.gen::<f64>() * 360.0;
            let c2 = rng.gen::<f64>() * 360.0;
            let values: Vec<f64> = angles
                .iter()
                .map(|&a| {
                    let d1 = angle_diff_deg(a, c1, true);
                    let d2 = angle_diff_deg(a, c2, true);
                    (-d1 * d1 / 50.0).exp() + 0.5 * (-d2 * d2 / 50.0).exp() + 1e-4
                })
                .collect();
            AoaSignature::from_spectrum(&Pseudospectrum::new(angles, values, true))
        };
        let a = make(&mut rng);
        let b = make(&mut rng);
        let self_match = a.compare(&a);
        prop_assert!((self_match.score - 1.0).abs() < 1e-6);
        let ab = a.compare(&b).score;
        let ba = b.compare(&a).score;
        prop_assert!((ab - ba).abs() < 1e-9, "asymmetry {} vs {}", ab, ba);
        prop_assert!((0.0..=1.0).contains(&ab));
    }

    /// OFDM loopback survives random payloads, offsets and CFO.
    #[test]
    fn ofdm_loopback_random(
        len in 0usize..300,
        offset in 0usize..200,
        cfo in -0.03f64..0.03,
        seed in 0u64..500,
    ) {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let tx = secureangle_suite::phy::Transmitter::new(Modulation::Qpsk);
        let rx = secureangle_suite::phy::Receiver::new(Modulation::Qpsk);
        let wave = tx.encode(&payload);
        let mut buf = vec![sa_linalg::complex::ZERO; offset + wave.len() + 120];
        buf[offset..offset + wave.len()].copy_from_slice(&wave);
        sa_sigproc::iq::apply_cfo(&mut buf, cfo);
        let pkt = rx.decode(&buf).expect("decode");
        prop_assert_eq!(pkt.payload, payload);
    }

    /// MAC frames roundtrip for arbitrary contents and reject any
    /// single-byte corruption.
    #[test]
    fn mac_frame_roundtrip_random(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        seq in any::<u16>(),
        flip in 0usize..100,
        bit in 0u8..8,
    ) {
        let f = Frame::data(
            MacAddr::local_from_index(3),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            seq,
            &payload,
        );
        let wire = f.encode();
        prop_assert_eq!(Frame::decode(&wire).unwrap(), f);
        let mut corrupted = wire.to_vec();
        let idx = flip % corrupted.len();
        corrupted[idx] ^= 1 << bit;
        prop_assert!(Frame::decode(&corrupted).is_err());
    }

    /// The MUSIC pipeline finds a single free-space path at any azimuth
    /// within grid resolution (circular array, full 360°).
    #[test]
    fn music_recovers_any_azimuth(az_deg in 0.0f64..360.0) {
        use sa_linalg::CMat;
        let array = Array::paper_octagon();
        let steer = array.steering(az_deg.to_radians());
        let x = CMat::from_fn(array.len(), 128, |m, t| {
            steer[m] * sa_linalg::C64::cis(1.3 * t as f64)
        });
        let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
        prop_assert!(
            angle_diff_deg(est.bearing_deg(), az_deg, true) <= 2.0,
            "az {:.1} -> {:.1}",
            az_deg,
            est.bearing_deg()
        );
    }
}
