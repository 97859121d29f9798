//! Property-based tests for the signal-processing layer.

use proptest::prelude::*;
use sa_linalg::complex::{c64, C64};
use sa_linalg::CMat;
use sa_sigproc::covariance::{forward_backward, numerical_rank, sample_covariance, spatial_smooth};
use sa_sigproc::iq;
use sa_sigproc::schmidl_cox::SchmidlCox;

fn finite_c64() -> impl Strategy<Value = C64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| c64(re, im))
}

fn snapshots(m: usize, n: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(finite_c64(), m * n).prop_map(move |v| CMat::from_rows(m, n, &v))
}

/// One snapshot component: exact and signed zeros, small integers (whose
/// products cancel exactly, so sums land on zero), ordinary values, and
/// values whose products underflow to a signed zero.
fn edge_component() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        (-3i32..=3).prop_map(f64::from),
        -10.0f64..10.0,
        (-1.0f64..1.0).prop_map(|v| v * 1e-160),
    ]
}

/// Any `1..=8 × 1..=300` snapshot matrix of [`edge_component`]s. A
/// third of them are real (every imaginary part a signed zero) and a
/// third repeat each even row in the odd row below it; both give
/// off-diagonal entries whose imaginary part is exactly zero.
fn edge_snapshots() -> impl Strategy<Value = CMat> {
    (1usize..=8, 1usize..=300, 0u8..3).prop_flat_map(|(m, n, shape)| {
        proptest::collection::vec((edge_component(), edge_component()), m * n).prop_map(move |v| {
            let mut v: Vec<C64> = v
                .into_iter()
                .map(|(re, im)| c64(re, if shape == 1 { 0.0f64.copysign(im) } else { im }))
                .collect();
            if shape == 2 {
                for i in (1..m).step_by(2) {
                    v.copy_within((i - 1) * n..i * n, i * n);
                }
            }
            CMat::from_rows(m, n, &v)
        })
    })
}

/// The rank-1-update covariance loop `sample_covariance_into` replaced,
/// kept verbatim as the bitwise reference.
fn rank1_covariance_reference(x: &CMat) -> CMat {
    let m = x.rows();
    let n = x.cols();
    let mut out = CMat::zeros(m, m);
    for t in 0..n {
        for i in 0..m {
            let xi = x[(i, t)];
            for j in 0..m {
                out[(i, j)] += xi * x[(j, t)].conj();
            }
        }
    }
    out.scale_mut(1.0 / n as f64);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---------------- covariance ----------------

    #[test]
    fn sample_covariance_is_bitwise_the_rank1_loop(x in edge_snapshots()) {
        let got = sample_covariance(&x);
        let want = rank1_covariance_reference(&x);
        prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for i in 0..want.rows() {
            for j in 0..want.cols() {
                let (g, w) = (got[(i, j)], want[(i, j)]);
                prop_assert!(
                    g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                    "entry ({}, {}): {:?} vs reference {:?}", i, j, g, w
                );
            }
        }
    }

    #[test]
    fn sample_covariance_is_hermitian_psd(x in snapshots(5, 40)) {
        let r = sample_covariance(&x);
        prop_assert!(r.is_hermitian(1e-8));
        let eigs = sa_linalg::eigen::eigh(&r).values;
        let scale = r.fro_norm().max(1.0);
        for &l in &eigs {
            prop_assert!(l >= -1e-8 * scale, "negative eigenvalue {}", l);
        }
    }

    #[test]
    fn covariance_rank_at_most_snapshot_count(x in snapshots(6, 3)) {
        // 3 snapshots can span at most rank 3.
        let r = sample_covariance(&x);
        prop_assert!(numerical_rank(&r, 1e-9) <= 3);
    }

    #[test]
    fn forward_backward_preserves_trace_and_hermitian(x in snapshots(5, 30)) {
        let r = sample_covariance(&x);
        let fb = forward_backward(&r);
        prop_assert!(fb.is_hermitian(1e-8));
        prop_assert!((fb.trace().re - r.trace().re).abs() < 1e-8 * r.trace().re.abs().max(1.0));
    }

    #[test]
    fn spatial_smoothing_output_psd(x in snapshots(6, 30), sub in 2usize..6) {
        let r = sample_covariance(&x);
        let s = spatial_smooth(&r, sub);
        prop_assert_eq!(s.rows(), sub);
        prop_assert!(s.is_hermitian(1e-8));
        let eigs = sa_linalg::eigen::eigh(&s).values;
        let scale = s.fro_norm().max(1.0);
        for &l in &eigs {
            prop_assert!(l >= -1e-8 * scale);
        }
    }

    // ---------------- IQ utilities ----------------

    #[test]
    fn phase_rotation_preserves_power(v in proptest::collection::vec(finite_c64(), 1..64), ph in -7.0f64..7.0) {
        let p0 = iq::mean_power(&v);
        let mut w = v.clone();
        iq::apply_phase(&mut w, ph);
        prop_assert!((iq::mean_power(&w) - p0).abs() < 1e-9 * p0.max(1.0));
    }

    #[test]
    fn cfo_preserves_power(v in proptest::collection::vec(finite_c64(), 1..64), w_ in -0.5f64..0.5) {
        let p0 = iq::mean_power(&v);
        let mut w = v.clone();
        iq::apply_cfo(&mut w, w_);
        prop_assert!((iq::mean_power(&w) - p0).abs() < 1e-9 * p0.max(1.0));
    }

    #[test]
    fn delay_never_increases_energy(v in proptest::collection::vec(finite_c64(), 4..64), d in 0.0f64..8.0) {
        let e0 = iq::energy(&v);
        let delayed = iq::delay_signal(&v, d);
        prop_assert_eq!(delayed.len(), v.len());
        // Linear interpolation + head zero-padding cannot create energy.
        prop_assert!(iq::energy(&delayed) <= e0 * (1.0 + 1e-9) + 1e-12);
    }

    #[test]
    fn normalize_power_hits_target(v in proptest::collection::vec(finite_c64(), 2..64), t in 0.01f64..100.0) {
        prop_assume!(iq::mean_power(&v) > 1e-12);
        let mut w = v.clone();
        iq::normalize_power(&mut w, t);
        prop_assert!((iq::mean_power(&w) - t).abs() < 1e-6 * t);
    }

    #[test]
    fn db_roundtrip(p in 1e-9f64..1e9) {
        prop_assert!((iq::from_db(iq::to_db(p)) - p).abs() < 1e-6 * p);
    }

    // ---------------- Schmidl–Cox ----------------

    #[test]
    fn metric_is_bounded_for_any_signal(v in proptest::collection::vec(finite_c64(), 128..300)) {
        let sc = SchmidlCox::new(32);
        for m in sc.metric_trace(&v) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m), "metric {}", m);
        }
    }

    #[test]
    fn repeated_halves_are_always_detected(seed_vals in proptest::collection::vec(finite_c64(), 32)) {
        // Build a buffer whose middle contains [half|half] of any
        // non-degenerate content.
        prop_assume!(iq::mean_power(&seed_vals) > 0.05);
        // Exclude near-periodic halves (e.g. near-constant content),
        // which would widen the plateau beyond the timing tolerance.
        let mut half = seed_vals.clone();
        iq::normalize_power(&mut half, 1.0);
        let max_amp = half.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        prop_assume!(max_amp > 1.3); // some structure, not a flat tone

        let mut buf = vec![sa_linalg::complex::ZERO; 300];
        for (i, &z) in half.iter().enumerate() {
            buf[100 + i] = z;
            buf[132 + i] = z;
        }
        // Trailing noise-like content to suppress boundary plateaus.
        for i in 0..64 {
            let v = c64(((i * 37 % 11) as f64 - 5.0) / 5.0, ((i * 53 % 7) as f64 - 3.0) / 3.0);
            buf[164 + i] = v.scale(0.8);
        }
        let det = SchmidlCox::new(32).detect(&buf);
        prop_assert!(!det.is_empty(), "no detection");
        prop_assert!(
            (det[0].start as i64 - 100).unsigned_abs() <= 16,
            "start {}",
            det[0].start
        );
    }

    #[test]
    fn detect_first_is_the_first_detection(
        bursts in proptest::collection::vec(
            (0usize..600, proptest::collection::vec(finite_c64(), 32), 2usize..8),
            0..4,
        ),
        noise in proptest::collection::vec(finite_c64(), 700),
        noise_scale in prop_oneof![Just(0.0), 1e-3f64..1.0],
        half_len in prop_oneof![Just(8usize), Just(16), Just(32)],
        threshold in 0.3f64..0.95,
        len in 0usize..700,
        poison in (0usize..1400, prop_oneof![Just(f64::NAN), Just(f64::INFINITY)]),
    ) {
        // Noise floor, then bursts of 2–7 repeats of one `half_len`
        // period (short and long metric plateaus, possibly overlapping
        // or running off the end), then one NaN/Inf sample about half
        // the time (when `poison` lands inside the buffer).
        let mut buf: Vec<C64> = noise[..len].iter().map(|z| z.scale(noise_scale)).collect();
        for (at, period, reps) in &bursts {
            let burst = period[..half_len].iter().cycle().take(reps * half_len);
            for (i, &z) in burst.enumerate() {
                if let Some(b) = buf.get_mut(at + i) {
                    *b = z;
                }
            }
        }
        if let Some(b) = buf.get_mut(poison.0) {
            b.re = poison.1;
        }
        let mut sc = SchmidlCox::new(half_len);
        sc.threshold = threshold;
        prop_assert_eq!(sc.detect_first(&buf), sc.detect(&buf).first().copied());
    }

    #[test]
    fn noise_cn_power_scales(sigma2 in 0.01f64..100.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let v = sa_sigproc::noise::cn_vector(&mut rng, 4096, sigma2);
        let p = iq::mean_power(&v);
        prop_assert!((p / sigma2 - 1.0).abs() < 0.2, "power ratio {}", p / sigma2);
    }
}
