//! Antenna correlation matrices and decorrelation preprocessing.
//!
//! The paper (§2.1): "the best known AoA estimation algorithms are based on
//! eigenstructure analysis of a correlation matrix formed by
//! samplewise-multiplying the raw signal from the lth antenna with the raw
//! signal from the mth antenna, then computing the mean of the result" —
//! i.e. the sample covariance `R = X·X^H / N` over a packet's samples.
//!
//! Multipath copies of one transmission are *mutually coherent* (they carry
//! the same symbols), which collapses `R` to rank one and blinds subspace
//! methods to all but a phantom weighted-average direction. Two classical
//! decorrelation transforms restore the rank for Vandermonde (uniform
//! linear) manifolds, and both are used by the SecureAngle pipeline:
//!
//! * **forward–backward averaging** — average `R` with its
//!   exchange-conjugate `J·R*·J`;
//! * **spatial smoothing** — average the covariances of overlapping
//!   subarrays, trading aperture for rank.
//!
//! The circular array is first mapped to a virtual ULA by the phase-mode
//! transform in `sa-array::modespace`, after which the same transforms
//! apply.

use sa_linalg::complex::{C64, ZERO};
use sa_linalg::matrix::CMat;

/// Snapshot matrix: rows are antennas (or virtual elements), columns are
/// time samples. A thin wrapper would add nothing, so the convention is
/// documented here and `CMat` is used directly.
pub type Snapshots = CMat;

/// Sample covariance `R = X·X^H / N` of a snapshot matrix
/// (`M` antennas × `N` samples). Panics if `N == 0`.
pub fn sample_covariance(x: &Snapshots) -> CMat {
    let mut r = CMat::default();
    sample_covariance_into(x, &mut r);
    r
}

/// [`sample_covariance`] written into a caller-provided matrix, reusing
/// its allocation — the batched AP pipeline computes one covariance per
/// packet into the same buffer. Panics if `x` has no snapshots.
///
/// Each lower-triangle entry is one dot product over two contiguous
/// snapshot rows, summed from zero in ascending `t` — the order a
/// rank-1 update per snapshot would use, so the bits match it. The upper
/// triangle mirrors the lower as `0 − im`: the running sum starts at
/// `+0` and so never holds `−0`, and direct computation of `(j, i)`
/// negates every nonzero partial sum exactly and leaves a zero at `+0`
/// (`conj` would give `−0`).
pub fn sample_covariance_into(x: &Snapshots, out: &mut CMat) {
    let m = x.rows();
    let n = x.cols();
    assert!(n > 0, "sample_covariance: no snapshots");
    out.reset_zero(m, m);
    let inv = 1.0 / n as f64;
    for i in 0..m {
        let xi = x.row_view(i);
        for j in 0..=i {
            let xj = x.row_view(j);
            let mut acc = ZERO;
            for (&a, &b) in xi.iter().zip(xj) {
                acc += a * b.conj();
            }
            let acc = acc.scale(inv);
            out[(i, j)] = acc;
            if j < i {
                out[(j, i)] = C64::new(acc.re, 0.0 - acc.im);
            }
        }
    }
}

/// Forward–backward averaging: `R_fb = (R + J·R*·J) / 2`.
///
/// For a centro-symmetric manifold (ULA), the backward array sees the same
/// directions with conjugated phases, so averaging decorrelates a pair of
/// coherent paths (doubles the effective source rank, up to the manifold
/// limit).
pub fn forward_backward(r: &CMat) -> CMat {
    assert!(r.is_square(), "forward_backward: square matrix required");
    let n = r.rows();
    // (J·R*·J)[i, j] = conj(R[n−1−i, n−1−j])
    CMat::from_fn(n, n, |i, j| {
        (r[(i, j)] + r[(n - 1 - i, n - 1 - j)].conj()).scale(0.5)
    })
}

/// Spatial smoothing: average the `K = M − L + 1` covariances of
/// overlapping length-`L` subarrays along the diagonal.
///
/// Returns an `L × L` matrix able to resolve up to `min(L − 1, K)` coherent
/// sources. Panics unless `1 <= sub_len <= M`.
pub fn spatial_smooth(r: &CMat, sub_len: usize) -> CMat {
    assert!(r.is_square());
    let m = r.rows();
    assert!(
        sub_len >= 1 && sub_len <= m,
        "spatial_smooth: sub_len {} out of range for {} antennas",
        sub_len,
        m
    );
    let k = m - sub_len + 1;
    let mut out = CMat::zeros(sub_len, sub_len);
    for s in 0..k {
        for i in 0..sub_len {
            for j in 0..sub_len {
                out[(i, j)] += r[(s + i, s + j)];
            }
        }
    }
    out.scale(1.0 / k as f64)
}

/// Forward–backward averaging followed by spatial smoothing — the default
/// decorrelation pipeline for linear (and virtual-linear) arrays.
///
/// One traversal: the forward–backward average and the subarray sum are
/// combined per element, so neither the FB matrix nor any per-subarray
/// intermediate is materialised. Bit-identical to
/// `spatial_smooth(&forward_backward(r), sub_len)` — the `×0.5` scaling
/// is exact and the accumulation order is unchanged — which the
/// `smoothing_fused_matches_two_pass` test pins. Panics on the same
/// conditions as the two-pass pipeline.
pub fn smooth_fb(r: &CMat, sub_len: usize) -> CMat {
    assert!(r.is_square(), "forward_backward: square matrix required");
    let m = r.rows();
    assert!(
        sub_len >= 1 && sub_len <= m,
        "spatial_smooth: sub_len {} out of range for {} antennas",
        sub_len,
        m
    );
    let k = m - sub_len + 1;
    let mut out = CMat::zeros(sub_len, sub_len);
    for s in 0..k {
        for i in 0..sub_len {
            for j in 0..sub_len {
                // FB element (s+i, s+j), scaled at the end (×0.5 is
                // exact, so hoisting it out of the sum is bit-safe).
                out[(i, j)] += r[(s + i, s + j)] + r[(m - 1 - s - i, m - 1 - s - j)].conj();
            }
        }
    }
    let inv_k = 1.0 / k as f64;
    for i in 0..sub_len {
        for j in 0..sub_len {
            out[(i, j)] = out[(i, j)].scale(0.5).scale(inv_k);
        }
    }
    out
}

/// Effective numerical rank: number of eigenvalues above
/// `rel_tol × λ_max`. Diagnostic used by tests and the ablation
/// experiments to demonstrate rank collapse and restoration.
pub fn numerical_rank(r: &CMat, rel_tol: f64) -> usize {
    let eig = sa_linalg::eigen::eigh(r);
    let lmax = eig.values.last().copied().unwrap_or(0.0).max(0.0);
    if lmax <= 0.0 {
        return 0;
    }
    eig.values.iter().filter(|&&l| l > rel_tol * lmax).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_linalg::c64;
    use sa_linalg::complex::C64;
    use std::f64::consts::PI;

    /// ULA steering vector with half-wavelength spacing:
    /// `a_m(θ) = e^{jπ·m·sin θ}`.
    fn ula_steer(m: usize, theta: f64) -> Vec<C64> {
        (0..m)
            .map(|i| C64::cis(PI * i as f64 * theta.sin()))
            .collect()
    }

    /// Snapshots for sources with given steering vectors, complex gains
    /// and per-source symbol streams.
    fn snapshots(m: usize, n: usize, comps: &[(Vec<C64>, C64, Vec<C64>)]) -> Snapshots {
        CMat::from_fn(m, n, |i, t| {
            comps.iter().map(|(a, g, s)| a[i] * *g * s[t]).sum::<C64>()
        })
    }

    fn unit_symbols(n: usize, seed: u64) -> Vec<C64> {
        // Deterministic QPSK-ish symbol stream.
        (0..n)
            .map(|t| {
                let k = (t as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 60;
                C64::cis(PI / 4.0 + PI / 2.0 * (k % 4) as f64)
            })
            .collect()
    }

    #[test]
    fn covariance_of_single_plane_wave_is_rank_one() {
        let m = 6;
        let a = ula_steer(m, 0.4);
        let s = unit_symbols(128, 7);
        let x = snapshots(m, 128, &[(a.clone(), c64(1.0, 0.0), s)]);
        let r = sample_covariance(&x);
        assert!(r.is_hermitian(1e-10));
        assert_eq!(numerical_rank(&r, 1e-8), 1);
        // Diagonal = per-antenna power = 1 for unit symbols/steering.
        for i in 0..m {
            assert!((r[(i, i)].re - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn covariance_diagonal_is_real_nonnegative() {
        let m = 4;
        let x = CMat::from_fn(m, 64, |i, t| {
            c64(((i + t) as f64).sin(), ((i * t) as f64).cos())
        });
        let r = sample_covariance(&x);
        for i in 0..m {
            assert!(r[(i, i)].im.abs() < 1e-10);
            assert!(r[(i, i)].re >= 0.0);
        }
    }

    #[test]
    fn coherent_pair_rank_collapses_without_smoothing() {
        let m = 8;
        let s = unit_symbols(256, 3);
        // Two coherent paths: same symbols, different bearings and gains.
        let comps = vec![
            (ula_steer(m, 0.2), c64(1.0, 0.0), s.clone()),
            (ula_steer(m, -0.7), C64::from_polar(0.6, 1.0), s),
        ];
        let x = snapshots(m, 256, &comps);
        let r = sample_covariance(&x);
        assert_eq!(
            numerical_rank(&r, 1e-6),
            1,
            "coherent sources must collapse to rank 1"
        );
    }

    #[test]
    fn fb_plus_smoothing_restores_rank_two() {
        let m = 8;
        let s = unit_symbols(256, 3);
        let comps = vec![
            (ula_steer(m, 0.2), c64(1.0, 0.0), s.clone()),
            (ula_steer(m, -0.7), C64::from_polar(0.6, 1.0), s),
        ];
        let x = snapshots(m, 256, &comps);
        let r = sample_covariance(&x);
        let rs = smooth_fb(&r, 5);
        assert_eq!(rs.rows(), 5);
        assert!(
            numerical_rank(&rs, 1e-6) >= 2,
            "smoothing must restore rank ≥ 2, eigs: {:?}",
            sa_linalg::eigen::eigh(&rs).values
        );
    }

    #[test]
    fn forward_backward_preserves_hermitian_and_trace() {
        let m = 6;
        let x = CMat::from_fn(m, 100, |i, t| {
            c64(((3 * i + t) as f64).sin(), ((i + 2 * t) as f64).cos())
        });
        let r = sample_covariance(&x);
        let fb = forward_backward(&r);
        assert!(fb.is_hermitian(1e-10));
        assert!((fb.trace().re - r.trace().re).abs() < 1e-9);
    }

    #[test]
    fn forward_backward_idempotent_on_persymmetric() {
        // FB of an FB-averaged matrix is itself.
        let m = 5;
        let x = CMat::from_fn(m, 60, |i, t| {
            c64((i as f64 - t as f64).cos(), (t as f64).sin())
        });
        let r = forward_backward(&sample_covariance(&x));
        let r2 = forward_backward(&r);
        assert!(r.approx_eq(&r2, 1e-10));
    }

    #[test]
    fn smoothing_full_length_is_identity() {
        let m = 4;
        let x = CMat::from_fn(m, 32, |i, t| c64((i + t) as f64, (i * t) as f64 * 0.1));
        let r = sample_covariance(&x);
        let s = spatial_smooth(&r, m);
        assert!(s.approx_eq(&r, 1e-12));
    }

    #[test]
    fn smoothing_output_dimensions() {
        let r = CMat::identity(8);
        assert_eq!(spatial_smooth(&r, 5).rows(), 5);
        assert_eq!(spatial_smooth(&r, 1).rows(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn smoothing_rejects_oversized_subarray() {
        let r = CMat::identity(4);
        let _ = spatial_smooth(&r, 5);
    }

    #[test]
    fn smoothing_fused_matches_two_pass() {
        // The single-traversal smooth_fb must be bit-identical to the
        // textbook two-pass pipeline it replaced.
        let m = 8;
        let x = CMat::from_fn(m, 200, |i, t| {
            c64(((3 * i + 2 * t) as f64).sin(), ((i * t) as f64 * 0.7).cos())
        });
        let r = sample_covariance(&x);
        for sub in 1..=m {
            let two_pass = spatial_smooth(&forward_backward(&r), sub);
            let fused = smooth_fb(&r, sub);
            assert_eq!(fused, two_pass, "sub_len {}", sub);
        }
    }

    #[test]
    fn rank_of_identity_is_full() {
        assert_eq!(numerical_rank(&CMat::identity(6), 1e-8), 6);
        assert_eq!(numerical_rank(&CMat::zeros(3, 3), 1e-8), 0);
    }
}
