//! Property-based tests for the numerical kernels: whatever the inputs,
//! the algebraic invariants must hold.

use proptest::prelude::*;
use sa_linalg::complex::{c64, C64};
use sa_linalg::eigen::{eigh, eigh_jacobi, hermitian_inverse};
use sa_linalg::fft::{dft_naive, fft64, ifft64, FFT_LEN};
use sa_linalg::matrix::{vdot, vnorm};
use sa_linalg::stats;
use sa_linalg::CMat;

fn finite_c64() -> impl Strategy<Value = C64> {
    (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| c64(re, im))
}

fn signal64() -> impl Strategy<Value = [C64; FFT_LEN]> {
    proptest::collection::vec(finite_c64(), FFT_LEN)
        .prop_map(|v| v.try_into().expect("the strategy yields 64 samples"))
}

fn hermitian(n: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(finite_c64(), n * n).prop_map(move |v| {
        let g = CMat::from_rows(n, n, &v);
        &g + &g.hermitian()
    })
}

/// Random Hermitian PSD matrix (`G·G^H`, normalised) of size `n` —
/// the shape of every covariance the estimator hands the eigensolver.
fn hermitian_psd(n: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(finite_c64(), n * n).prop_map(move |v| {
        let g = CMat::from_rows(n, n, &v);
        g.matmul(&g.hermitian()).scale(1.0 / n as f64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- complex field axioms ----------------

    #[test]
    fn complex_mul_commutes_and_distributes(a in finite_c64(), b in finite_c64(), c in finite_c64()) {
        prop_assert!((a * b).approx_eq(b * a, 1e-6));
        prop_assert!((a * (b + c)).approx_eq(a * b + a * c, 1e-6));
    }

    #[test]
    fn complex_conj_is_multiplicative(a in finite_c64(), b in finite_c64()) {
        prop_assert!(((a * b).conj()).approx_eq(a.conj() * b.conj(), 1e-6));
    }

    #[test]
    fn complex_abs_is_multiplicative(a in finite_c64(), b in finite_c64()) {
        let lhs = (a * b).abs();
        let rhs = a.abs() * b.abs();
        prop_assert!((lhs - rhs).abs() <= 1e-6 * rhs.max(1.0));
    }

    #[test]
    fn polar_roundtrip(
        r in 0.001f64..1e3,
        th in (-std::f64::consts::PI + 1e-3)..(std::f64::consts::PI - 1e-3),
    ) {
        let z = C64::from_polar(r, th);
        prop_assert!((z.abs() - r).abs() < 1e-9 * r.max(1.0));
        prop_assert!((z.arg() - th).abs() < 1e-9);
    }

    // ---------------- eigendecomposition ----------------

    #[test]
    fn eigh_invariants(a in hermitian(6)) {
        let e = eigh(&a);
        // Real, sorted eigenvalues.
        prop_assert!(e.values.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        // Unitary eigenvectors.
        let vhv = e.vectors.hermitian().matmul(&e.vectors);
        prop_assert!(vhv.approx_eq(&CMat::identity(6), 1e-7));
        // A·v = λ·v.
        for k in 0..6 {
            let v = e.vector(k);
            let av = a.matvec(&v);
            let lv: Vec<C64> = v.iter().map(|z| z.scale(e.values[k])).collect();
            let resid: f64 = av.iter().zip(&lv).map(|(x, y)| (*x - *y).norm_sqr()).sum();
            prop_assert!(resid.sqrt() < 1e-6 * a.fro_norm().max(1.0), "residual {}", resid.sqrt());
        }
        // Trace = Σλ.
        let tr = a.trace().re;
        let s: f64 = e.values.iter().sum();
        prop_assert!((tr - s).abs() < 1e-7 * tr.abs().max(1.0));
    }

    #[test]
    fn eigh_of_psd_is_nonnegative(v in proptest::collection::vec(finite_c64(), 24)) {
        // G·G^H is PSD for any G (4×6).
        let g = CMat::from_rows(4, 6, &v);
        let a = g.matmul(&g.hermitian());
        let e = eigh(&a);
        let scale = a.fro_norm().max(1.0);
        for &l in &e.values {
            prop_assert!(l > -1e-7 * scale, "negative eigenvalue {}", l);
        }
    }

    #[test]
    fn hermitian_inverse_roundtrip(v in proptest::collection::vec(finite_c64(), 16)) {
        let g = CMat::from_rows(4, 4, &v);
        // Well-conditioned PSD: G·G^H + scale·I.
        let scale = g.fro_norm().max(1.0);
        let a = &g.matmul(&g.hermitian()) + &CMat::identity(4).scale(scale);
        let inv = hermitian_inverse(&a, 1e-12);
        prop_assert!(a.matmul(&inv).approx_eq(&CMat::identity(4), 1e-6));
    }

    // The PR-5 oracle pin: the tridiagonal production solver against
    // the cyclic Jacobi reference, on random Hermitian PSD input at
    // every size the antenna arrays produce (M ∈ 2..=16).
    #[test]
    fn tridiagonal_eigh_matches_jacobi_oracle(
        a in (2usize..=16).prop_flat_map(hermitian_psd)
    ) {
        let n = a.rows();
        let fast = eigh(&a);
        let oracle = eigh_jacobi(&a);
        let scale = oracle.values[n - 1].abs().max(1.0);

        // Eigenvalues agree to 1e-10 relative.
        for k in 0..n {
            prop_assert!(
                (fast.values[k] - oracle.values[k]).abs() <= 1e-10 * scale,
                "λ[{}]: {} vs {} (scale {})", k, fast.values[k], oracle.values[k], scale
            );
        }

        // Subspaces agree up to phase (and up to rotation inside
        // near-degenerate clusters): compare the projectors of each
        // eigenvalue cluster, which are phase- and basis-free.
        let mut start = 0usize;
        for k in 1..=n {
            let boundary = k == n || (oracle.values[k] - oracle.values[k - 1]).abs() > 1e-6 * scale;
            if !boundary {
                continue;
            }
            let mut p_fast = CMat::zeros(n, n);
            let mut p_oracle = CMat::zeros(n, n);
            for c in start..k {
                p_fast = &p_fast + &CMat::outer(&fast.vector(c), &fast.vector(c));
                p_oracle = &p_oracle + &CMat::outer(&oracle.vector(c), &oracle.vector(c));
            }
            prop_assert!(
                p_fast.approx_eq(&p_oracle, 1e-6),
                "cluster {}..{} projectors diverge (n = {})", start, k, n
            );
            start = k;
        }
    }

    // ---------------- FFT ----------------

    #[test]
    fn fft_roundtrip(v in signal64()) {
        let mut back = v;
        fft64(&mut back);
        ifft64(&mut back);
        for (x, y) in v.iter().zip(&back) {
            prop_assert!(x.approx_eq(*y, 1e-6 * vnorm(&v).max(1.0)));
        }
    }

    // Both directions against the naive DFT: the inverse of `x` is the
    // conjugate of the forward transform of `conj(x)`, over 64.
    #[test]
    fn fft_matches_naive(v in signal64()) {
        let tol = 1e-6 * vnorm(&v).max(1.0);
        let mut fast = v;
        fft64(&mut fast);
        for (x, y) in fast.iter().zip(&dft_naive(&v)) {
            prop_assert!(x.approx_eq(*y, tol), "forward {} vs {}", x, y);
        }
        let mut inv = v;
        ifft64(&mut inv);
        let conj: Vec<C64> = v.iter().map(|z| z.conj()).collect();
        for (x, y) in inv.iter().zip(&dft_naive(&conj)) {
            let slow = y.conj().scale(1.0 / FFT_LEN as f64);
            prop_assert!(x.approx_eq(slow, tol), "inverse {} vs {}", x, slow);
        }
    }

    #[test]
    fn parseval(v in signal64()) {
        let mut f = v;
        fft64(&mut f);
        let et: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = f.iter().map(|z| z.norm_sqr()).sum::<f64>() / FFT_LEN as f64;
        prop_assert!((et - ef).abs() <= 1e-6 * et.max(1.0));
    }

    // ---------------- matrix algebra ----------------

    #[test]
    fn matmul_associative(
        a in proptest::collection::vec(finite_c64(), 9),
        b in proptest::collection::vec(finite_c64(), 9),
        c in proptest::collection::vec(finite_c64(), 9),
    ) {
        let a = CMat::from_rows(3, 3, &a);
        let b = CMat::from_rows(3, 3, &b);
        let c = CMat::from_rows(3, 3, &c);
        let l = a.matmul(&b).matmul(&c);
        let r = a.matmul(&b.matmul(&c));
        let scale = a.fro_norm() * b.fro_norm() * c.fro_norm();
        prop_assert!(l.approx_eq(&r, 1e-7 * scale.max(1.0)));
    }

    #[test]
    fn hermitian_of_product(
        a in proptest::collection::vec(finite_c64(), 6),
        b in proptest::collection::vec(finite_c64(), 6),
    ) {
        // (AB)^H = B^H A^H
        let a = CMat::from_rows(2, 3, &a);
        let b = CMat::from_rows(3, 2, &b);
        let lhs = a.matmul(&b).hermitian();
        let rhs = b.hermitian().matmul(&a.hermitian());
        prop_assert!(lhs.approx_eq(&rhs, 1e-6 * (a.fro_norm() * b.fro_norm()).max(1.0)));
    }

    #[test]
    fn cauchy_schwarz(u in proptest::collection::vec(finite_c64(), 8), v in proptest::collection::vec(finite_c64(), 8)) {
        let d = vdot(&u, &v).abs();
        prop_assert!(d <= vnorm(&u) * vnorm(&v) * (1.0 + 1e-9) + 1e-9);
    }

    // ---------------- statistics ----------------

    #[test]
    fn percentile_is_bounded_and_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 2..50)) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs[0];
        let hi = xs[xs.len() - 1];
        let p25 = stats::percentile(&xs, 0.25);
        let p50 = stats::percentile(&xs, 0.50);
        let p75 = stats::percentile(&xs, 0.75);
        prop_assert!(lo <= p25 && p25 <= p50 && p50 <= p75 && p75 <= hi);
    }

    #[test]
    fn variance_is_translation_invariant(xs in proptest::collection::vec(-1e3f64..1e3, 3..30), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let v1 = stats::variance(&xs);
        let v2 = stats::variance(&shifted);
        prop_assert!((v1 - v2).abs() <= 1e-6 * v1.abs().max(1.0));
    }

    #[test]
    fn confidence_interval_contains_mean(xs in proptest::collection::vec(-1e3f64..1e3, 2..40)) {
        let ci = stats::t_confidence_interval(&xs, 0.95);
        prop_assert!(ci.contains(stats::mean(&xs)));
        // Higher confidence ⇒ wider interval.
        let ci99 = stats::t_confidence_interval(&xs, 0.99);
        prop_assert!(ci99.half_width >= ci.half_width - 1e-12);
    }

    #[test]
    fn t_cdf_is_monotone(nu in 1.0f64..50.0, a in -8.0f64..8.0, d in 0.01f64..4.0) {
        prop_assert!(stats::t_cdf(a + d, nu) >= stats::t_cdf(a, nu));
    }
}
