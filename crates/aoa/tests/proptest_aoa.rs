//! Property-based tests for the AoA estimators.

use proptest::prelude::*;
use sa_aoa::beamform::{bartlett_spectrum, capon_spectrum};
use sa_aoa::estimator::{AoaConfig, AoaEngine, ReferenceSetup, Smoothing};
use sa_aoa::manifold::ScanSpace;
use sa_aoa::pseudospectrum::{angle_diff_deg, Pseudospectrum};
use sa_aoa::source_count::SourceCount;
use sa_array::geometry::{broadside_deg_to_azimuth, Array};
use sa_linalg::complex::C64;
use sa_linalg::CMat;

fn plane_wave_snapshots(array: &Array, az: f64, n: usize) -> CMat {
    let steer = array.steering(az);
    CMat::from_fn(array.len(), n, |m, t| {
        steer[m] * C64::cis(1.37 * t as f64 + 0.11 * ((t * t) % 13) as f64)
    })
}

/// The `log10`-on-every-bin `Pseudospectrum::db` that the floor cut
/// replaced, kept verbatim as the bitwise reference.
fn db_reference(s: &Pseudospectrum, floor_db: f64) -> Vec<f64> {
    let m = s.values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    s.values
        .iter()
        .map(|&v| {
            if v <= 0.0 {
                floor_db
            } else {
                (10.0 * (v / m).log10()).max(floor_db)
            }
        })
        .collect()
}

/// `x` moved by `k` ulps (`x` positive and finite).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn db_floor_cut_is_bitwise_the_log_everywhere_loop(
        floor_db in prop_oneof![Just(-30.0), Just(-60.0), Just(-300.0), Just(-3229.0)],
        peak in prop_oneof![
            Just(1.0),
            1e-6f64..1e6,
            (1.0f64..10.0).prop_map(|p| p * 1e-293),
            (1.0f64..10.0).prop_map(|p| p * 1e299),
        ],
        probes in proptest::collection::vec((0u8..6, -2i64..=2, -1.0f64..1.0, 0i32..15), 1..64),
    ) {
        // Bins at and around both thresholds of the floor: the cut the
        // fast path uses (0.999 of the floor level) and the floor level
        // itself, plus zeros, NaN and ordinary fractions of the peak. A
        // peak near 1e-292 puts the cut among the subnormals; a −3229 dB
        // floor makes the level factor itself subnormal, and a peak near
        // 1e300 brings its imprecise cut back among the normal bins.
        let level = peak * 10f64.powf(floor_db / 10.0);
        let cut = peak * (10f64.powf(floor_db / 10.0) * 0.999);
        let mut values = vec![peak];
        for &(kind, k, d, e) in &probes {
            values.push(match kind {
                0 => ulps(cut, k),
                1 => ulps(level, k),
                // Within ±10^-e (relative) of the floor level.
                2 => level * (1.0 + d * 10f64.powi(-e)),
                3 => if k < 0 { -0.0 } else { 0.0 },
                4 => f64::NAN,
                _ => peak * d.abs(),
            });
        }
        let angles = (0..values.len()).map(|i| i as f64).collect();
        let s = Pseudospectrum::new(angles, values, true);
        let got = s.db(floor_db);
        let want = db_reference(&s, floor_db);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "bin {} (value {:e}, floor {}): {} vs reference {}", i, s.values[i], floor_db, g, w
            );
        }
    }

    #[test]
    fn music_finds_single_source_ula(theta in -75.0f64..75.0, n_ant in 3usize..10) {
        let array = Array::paper_linear(n_ant);
        let x = plane_wave_snapshots(&array, broadside_deg_to_azimuth(theta), 96);
        let cfg = AoaConfig {
            source_count: SourceCount::Fixed(1),
            ..Default::default()
        };
        let setup = ReferenceSetup {
            smoothing: Smoothing::None,
            ..ReferenceSetup::default()
        };
        let est = AoaEngine::reference(&array, &cfg, setup).estimate(&x);
        prop_assert!(
            (est.bearing_deg() - theta).abs() <= 2.0,
            "theta {} -> {}",
            theta,
            est.bearing_deg()
        );
    }

    #[test]
    fn music_finds_single_source_uca(az_deg in 0.0f64..360.0) {
        let array = Array::paper_octagon();
        let x = plane_wave_snapshots(&array, az_deg.to_radians(), 96);
        let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
        prop_assert!(
            angle_diff_deg(est.bearing_deg(), az_deg, true) <= 3.0,
            "az {} -> {}",
            az_deg,
            est.bearing_deg()
        );
    }

    #[test]
    fn all_methods_agree_on_clean_single_source(az_deg in 5.0f64..355.0) {
        let array = Array::paper_octagon();
        let x = plane_wave_snapshots(&array, az_deg.to_radians(), 128);
        // MUSIC on the engine; the baselines as free functions on the
        // same analysis covariance (mode space, no smoothing).
        let setup = ReferenceSetup {
            smoothing: Smoothing::None,
            ..ReferenceSetup::default()
        };
        let music = AoaEngine::reference(&array, &AoaConfig::default(), setup).estimate(&x);
        let space = ScanSpace::virtual_ula(&array);
        let ra = space
            .modespace()
            .expect("virtual ULA carries the mode-space transform")
            .transform_cov(&sa_sigproc::covariance::sample_covariance(&x));
        let bearings = [
            music.bearing_deg(),
            bartlett_spectrum(&ra, &space, 1.0).peak().0,
            capon_spectrum(&ra, &space, 1.0, 1e-6).peak().0,
        ];
        for b in &bearings {
            prop_assert!(
                angle_diff_deg(*b, az_deg, true) <= 6.0,
                "bearings {:?} truth {}",
                bearings,
                az_deg
            );
        }
    }

    #[test]
    fn spectrum_values_nonnegative_finite(az_deg in 0.0f64..360.0, step in 0.5f64..5.0) {
        let array = Array::paper_octagon();
        let x = plane_wave_snapshots(&array, az_deg.to_radians(), 64);
        let setup = ReferenceSetup {
            grid_step_deg: step,
            ..ReferenceSetup::default()
        };
        let est = AoaEngine::reference(&array, &AoaConfig::default(), setup).estimate(&x);
        for &v in &est.spectrum.values {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
        prop_assert!(est.n_sources >= 1);
        prop_assert!(!est.ranked_peaks.is_empty());
    }

    #[test]
    fn source_count_estimators_within_bounds(
        eigs in proptest::collection::vec(1e-6f64..1e3, 3..12),
        n in 8usize..4096,
    ) {
        let mut sorted = eigs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for sc in [SourceCount::Mdl, SourceCount::Aic] {
            let k = sc.estimate(&sorted, n);
            prop_assert!(k >= 1 && k < sorted.len());
        }
    }

    #[test]
    fn peaks_are_sorted_and_within_domain(centers in proptest::collection::vec(0.0f64..360.0, 1..4)) {
        let angles: Vec<f64> = (0..360).map(|i| i as f64).collect();
        let values: Vec<f64> = angles
            .iter()
            .map(|&a| {
                centers
                    .iter()
                    .map(|&c| {
                        let d = angle_diff_deg(a, c, true);
                        (-d * d / 30.0).exp()
                    })
                    .sum::<f64>()
                    + 1e-5
            })
            .collect();
        let s = Pseudospectrum::new(angles, values, true);
        let peaks = s.find_peaks(0.5, 10);
        prop_assert!(!peaks.is_empty());
        for w in peaks.windows(2) {
            prop_assert!(w[0].value >= w[1].value);
        }
        for p in &peaks {
            prop_assert!((0.0..360.0).contains(&p.angle_deg));
            prop_assert!(p.prominence_db >= 0.5);
        }
    }

    #[test]
    fn value_at_is_within_spectrum_range(
        vals in proptest::collection::vec(0.0f64..10.0, 8..64),
        q in -720.0f64..720.0,
    ) {
        let n = vals.len();
        let angles: Vec<f64> = (0..n).map(|i| i as f64 * 360.0 / n as f64).collect();
        let s = Pseudospectrum::new(angles, vals.clone(), true);
        let v = s.value_at(q);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{} outside [{}, {}]", v, lo, hi);
    }

    #[test]
    fn two_antenna_matches_music_in_los(theta in -60.0f64..60.0) {
        let array = Array::paper_linear(2);
        let x = plane_wave_snapshots(&array, broadside_deg_to_azimuth(theta), 64);
        let eq1 = sa_aoa::two_antenna::two_antenna_bearing(&x.row(0), &x.row(1));
        prop_assert!(
            (eq1.theta.to_degrees() - theta).abs() < 1.0,
            "Eq.1 {} truth {}",
            eq1.theta.to_degrees(),
            theta
        );
    }

    #[test]
    fn scan_space_presentation_roundtrip(az in 0.01f64..6.27) {
        for space in [
            ScanSpace::physical(&Array::paper_octagon()),
            ScanSpace::virtual_ula(&Array::paper_octagon()),
        ] {
            let deg = space.present_deg(az);
            let back = space.azimuth_of_present(deg);
            let d = (back - az).rem_euclid(2.0 * std::f64::consts::PI);
            prop_assert!(d < 1e-9 || (2.0 * std::f64::consts::PI - d) < 1e-9);
        }
    }
}
