//! Davies phase-mode transform: circular array → virtual linear array.
//!
//! Spatial smoothing (needed because multipath components of one packet
//! are fully coherent) requires a Vandermonde array manifold, which a
//! circular array does not have. The classical fix — used by beamspace
//! UCA-MUSIC — is the Davies transformation: project the `N` physical
//! elements onto azimuthal *phase modes* `m = −h..h`. By the Jacobi–Anger
//! expansion, mode `m` of a unit plane wave from azimuth `φ` responds as
//! `jᵐ·J_m(kr)·e^{jmφ}` (plus aliased orders `m ± N`, negligible while
//! `2h + 1 ≤ N` and `J_{|m±N|}(kr)` is small). Dividing by the known
//! coefficient `jᵐ·J_m(kr)` leaves the Vandermonde response `e^{jmφ}` —
//! exactly a virtual ULA whose "spatial frequency" is the azimuth itself,
//! with no front/back ambiguity. Forward–backward averaging and spatial
//! smoothing then apply verbatim.
//!
//! For the paper's octagon, `kr ≈ 3.15`, so `h = 3` and the virtual array
//! has 7 elements.
//!
//! Noise note: the mode rows are mutually orthogonal (`F·F^H = I/N`), so
//! transformed noise stays uncorrelated across virtual elements; the
//! `1/J_m` scaling does make its variance mode-dependent (at most ~3×
//! spread for this geometry), a known, benign property of unweighted
//! beamspace MUSIC.

use crate::geometry::{Array, ArrayKind};
use sa_linalg::bessel::bessel_j_int;
use sa_linalg::complex::C64;
use sa_linalg::matrix::CMat;

/// Precomputed phase-mode transform for one circular array.
#[derive(Debug, Clone)]
pub struct ModeSpace {
    t: CMat,
    /// Cached `T^H` — [`ModeSpace::transform_cov`] runs once per packet
    /// per AP, so the conjugate transpose is built once here instead.
    th: CMat,
    h: i32,
}

impl ModeSpace {
    /// Build the transform for a circular array.
    ///
    /// Panics if the array is not circular, or if its electrical size is
    /// too small to support even one mode (`⌊kr⌋ = 0`).
    pub fn for_array(array: &Array) -> Self {
        assert_eq!(
            array.kind(),
            ArrayKind::Circular,
            "ModeSpace: phase modes require a circular array"
        );
        let n = array.len();
        let kr = 2.0 * std::f64::consts::PI / array.wavelength() * array.radius();
        let mut h = kr.floor() as i32;
        // Highest mode must still be excitable and unaliased.
        while 2 * h + 1 > n as i32 {
            h -= 1;
        }
        assert!(h >= 1, "ModeSpace: array too small (kr = {:.3})", kr);

        // T row for mode m: (1 / (N·jᵐ·J_m(kr))) · [e^{jm·γ_0}, …].
        let rows = (2 * h + 1) as usize;
        let t = CMat::from_fn(rows, n, |mi, k| {
            let m = mi as i32 - h;
            let gamma = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let jm = C64::cis(std::f64::consts::FRAC_PI_2 * m as f64); // jᵐ
            let coef = jm.scale(bessel_j_int(m, kr) * n as f64);
            C64::cis(m as f64 * gamma) / coef
        });
        let th = t.hermitian();
        Self { t, th, h }
    }

    /// Maximum mode order `h`.
    pub fn order(&self) -> i32 {
        self.h
    }

    /// Number of virtual elements, `2h + 1`.
    pub fn virtual_len(&self) -> usize {
        (2 * self.h + 1) as usize
    }

    /// The transform matrix (`virtual_len × physical_len`).
    pub fn matrix(&self) -> &CMat {
        &self.t
    }

    /// Transform physical snapshots (rows = physical antennas) into
    /// mode-space snapshots (rows = virtual elements).
    pub fn transform(&self, x: &CMat) -> CMat {
        self.t.matmul(x)
    }

    /// Transform a physical covariance: `R_v = T·R·T^H`.
    ///
    /// For Hermitian `R` the result is Hermitian, so only the upper
    /// triangle of the second product is computed and the lower is
    /// mirrored (making the output *exactly* Hermitian instead of
    /// Hermitian-to-round-off).
    pub fn transform_cov(&self, r: &CMat) -> CMat {
        let tmp = self.t.matmul(r);
        let v = self.virtual_len();
        let mut out = CMat::zeros(v, v);
        for i in 0..v {
            for k in 0..tmp.cols() {
                let a = tmp[(i, k)];
                for j in i..v {
                    out[(i, j)] += a * self.th[(k, j)];
                }
            }
            out[(i, i)] = sa_linalg::c64(out[(i, i)].re, 0.0);
            for j in i + 1..v {
                out[(j, i)] = out[(i, j)].conj();
            }
        }
        out
    }

    /// Virtual-array steering vector: `v_m(φ) = e^{jmφ}`, `m = −h..h`.
    pub fn steering(&self, az: f64) -> Vec<C64> {
        (-self.h..=self.h)
            .map(|m| C64::cis(m as f64 * az))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_linalg::matrix::{vdot, vnorm};
    use std::f64::consts::PI;

    fn octagon_modespace() -> (Array, ModeSpace) {
        let a = Array::paper_octagon();
        let ms = ModeSpace::for_array(&a);
        (a, ms)
    }

    #[test]
    fn paper_octagon_has_order_three() {
        let (_, ms) = octagon_modespace();
        assert_eq!(ms.order(), 3);
        assert_eq!(ms.virtual_len(), 7);
        assert_eq!(ms.matrix().rows(), 7);
        assert_eq!(ms.matrix().cols(), 8);
    }

    #[test]
    fn transformed_steering_matches_vandermonde() {
        // T·a(φ) should align with v(φ) = [e^{jmφ}] to high correlation;
        // the residual comes from aliased modes |m ± 8|.
        let (a, ms) = octagon_modespace();
        for i in 0..24 {
            let az = 2.0 * PI * i as f64 / 24.0;
            let ta = ms.transform(&CMat::col_vector(&a.steering(az)));
            let ta: Vec<_> = (0..ta.rows()).map(|r| ta[(r, 0)]).collect();
            let v = ms.steering(az);
            let corr = vdot(&v, &ta).abs() / (vnorm(&v) * vnorm(&ta));
            assert!(
                corr > 0.97,
                "azimuth {:.2}: mode-space correlation {:.4} too low",
                az,
                corr
            );
        }
    }

    #[test]
    fn virtual_manifold_is_vandermonde() {
        // Consecutive-element ratio of v(φ) is exactly e^{jφ}.
        let (_, ms) = octagon_modespace();
        let az = 1.234;
        let v = ms.steering(az);
        for w in v.windows(2) {
            let ratio = w[1] * w[0].conj();
            assert!((ratio.arg() - az).abs() < 1e-12);
            assert!((ratio.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mode_rows_are_orthogonal() {
        // F rows orthogonal ⇒ T·T^H diagonal (mode-dependent variances).
        let (_, ms) = octagon_modespace();
        let tt = ms.matrix().matmul(&ms.matrix().hermitian());
        for i in 0..tt.rows() {
            for j in 0..tt.cols() {
                if i != j {
                    assert!(
                        tt[(i, j)].abs() < 1e-12,
                        "off-diagonal ({}, {}) = {}",
                        i,
                        j,
                        tt[(i, j)].abs()
                    );
                }
            }
        }
    }

    #[test]
    fn noise_variance_spread_is_bounded() {
        let (_, ms) = octagon_modespace();
        let tt = ms.matrix().matmul(&ms.matrix().hermitian());
        let diag: Vec<f64> = (0..tt.rows()).map(|i| tt[(i, i)].re).collect();
        let max = diag.iter().cloned().fold(0.0, f64::max);
        let min = diag.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 5.0,
            "mode noise spread {}x too large (diag {:?})",
            max / min,
            diag
        );
    }

    #[test]
    fn transform_cov_dimensions_and_hermitian() {
        let (a, ms) = octagon_modespace();
        let s = a.steering(0.9);
        let r = CMat::outer(&s, &s);
        let rv = ms.transform_cov(&r);
        assert_eq!(rv.rows(), 7);
        assert!(rv.is_hermitian(1e-10));
    }

    #[test]
    #[should_panic(expected = "circular array")]
    fn rejects_linear_arrays() {
        let a = Array::paper_linear(8);
        let _ = ModeSpace::for_array(&a);
    }

    #[test]
    fn distinct_azimuths_have_distinct_virtual_steering() {
        let (_, ms) = octagon_modespace();
        let v1 = ms.steering(0.5);
        let v2 = ms.steering(2.5);
        let corr = vdot(&v1, &v2).abs() / (vnorm(&v1) * vnorm(&v2));
        assert!(corr < 0.7, "correlation {} too high", corr);
    }
}
