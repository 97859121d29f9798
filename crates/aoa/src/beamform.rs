//! Classical beamforming spectra: Bartlett and Capon (MVDR).
//!
//! Baselines against MUSIC for the ablation experiments. The Bartlett
//! (delay-and-sum) spectrum is what a naive multi-antenna AP would
//! compute; its resolution is limited by the array beamwidth. Capon
//! sharpens it by minimising output power subject to unity gain toward
//! the scan direction, at the cost of inverting the covariance (we
//! diagonal-load the inverse, standard practice for short sample
//! support).
//!
//! ```text
//! Bartlett: P(θ) = a^H R a / (a^H a)
//! Capon:    P(θ) = (a^H a) / (a^H R⁻¹ a)
//! ```

use crate::manifold::ScanSpace;
use crate::pseudospectrum::Pseudospectrum;
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::eigen::hermitian_inverse;
use sa_linalg::matrix::{vdot, vnorm};
use sa_linalg::CMat;

/// Bartlett (conventional delay-and-sum) spectrum,
/// `P(θ) = a^H R a / (a^H a)`.
pub fn bartlett_spectrum(r: &CMat, space: &ScanSpace, step_deg: f64) -> Pseudospectrum {
    assert_eq!(r.rows(), space.len(), "bartlett: dimension mismatch");
    let grid = space.grid(step_deg);
    let mut angles = Vec::with_capacity(grid.len());
    let mut values = Vec::with_capacity(grid.len());
    for &az in &grid {
        angles.push(space.present_deg(az));
        values.push(bartlett_power(r, &space.steering(az)));
    }
    Pseudospectrum::new(angles, values, space.wraps())
}

/// The Bartlett power `a^H R a / ‖a‖²` toward the direction `a` steers
/// at, without allocating — also how the estimator ranks MUSIC peaks.
/// Panics unless `R` is `a.len()` square.
pub(crate) fn bartlett_power(r: &CMat, a: &[C64]) -> f64 {
    assert_eq!(
        (r.rows(), r.cols()),
        (a.len(), a.len()),
        "bartlett_power: {}x{} covariance for a {}-element steering vector",
        r.rows(),
        r.cols(),
        a.len()
    );
    let mut quad = ZERO;
    for (i, &ai) in a.iter().enumerate() {
        let mut row = ZERO;
        for (j, &aj) in a.iter().enumerate() {
            row += r[(i, j)] * aj;
        }
        quad += ai.conj() * row;
    }
    (quad.re / vnorm(a).powi(2).max(1e-30)).max(0.0)
}

/// Capon / MVDR spectrum, `P(θ) = 1 / (a^H R⁻¹ a)`, with relative
/// diagonal loading `loading` (fraction of the mean eigenvalue; `1e-6`
/// is a good default for packet-length sample support).
pub fn capon_spectrum(r: &CMat, space: &ScanSpace, step_deg: f64, loading: f64) -> Pseudospectrum {
    assert_eq!(r.rows(), space.len(), "capon: dimension mismatch");
    let ridge = loading * r.trace().re.abs() / r.rows() as f64;
    let rinv = hermitian_inverse(r, ridge.max(f64::MIN_POSITIVE));
    let grid = space.grid(step_deg);
    let mut angles = Vec::with_capacity(grid.len());
    let mut values = Vec::with_capacity(grid.len());
    for &az in &grid {
        let a = space.steering(az);
        let ria = rinv.matvec(&a);
        let q = vdot(&a, &ria).re.max(1e-30);
        // Normalise by ‖a‖² so manifold norm doesn't bias the spectrum.
        let den = vnorm(&a).powi(2).max(1e-30);
        angles.push(space.present_deg(az));
        values.push(den / q);
    }
    Pseudospectrum::new(angles, values, space.wraps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_array::geometry::{broadside_deg_to_azimuth, Array};
    use sa_linalg::complex::C64;
    use sa_sigproc::covariance::sample_covariance;

    fn one_source_cov(array: &Array, theta_deg: f64, noise: f64) -> CMat {
        let az = broadside_deg_to_azimuth(theta_deg);
        let steer = array.steering(az);
        let n = 128;
        let x = CMat::from_fn(array.len(), n, |m, t| steer[m] * C64::cis(0.9 * t as f64));
        let r = sample_covariance(&x);
        // Add a noise floor on the diagonal deterministically.
        let eye = CMat::identity(array.len()).scale(noise);
        &r + &eye
    }

    #[test]
    fn bartlett_peaks_at_source() {
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array);
        let r = one_source_cov(&array, 22.0, 0.01);
        let spec = bartlett_spectrum(&r, &space, 0.5);
        let (peak, _) = spec.peak();
        assert!((peak - 22.0).abs() < 1.5, "peak {}", peak);
    }

    #[test]
    #[should_panic(expected = "bartlett_power")]
    fn bartlett_rejects_a_covariance_that_is_not_the_scan_space_square() {
        // The top five rows of an 8-element R: as many rows as the
        // truncated scan space has elements, but eight columns, which
        // must not be read as a 5x5 block.
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array).truncated(5);
        let r = one_source_cov(&array, 10.0, 0.01);
        let top = CMat::from_fn(5, 8, |i, j| r[(i, j)]);
        bartlett_spectrum(&top, &space, 1.0);
    }

    #[test]
    fn capon_peaks_at_source() {
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array);
        let r = one_source_cov(&array, -40.0, 0.01);
        let spec = capon_spectrum(&r, &space, 0.5, 1e-6);
        let (peak, _) = spec.peak();
        assert!((peak + 40.0).abs() < 1.5, "peak {}", peak);
    }

    #[test]
    fn capon_narrower_than_bartlett() {
        // Measure −3 dB main-lobe width around the peak: Capon < Bartlett.
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array);
        let r = one_source_cov(&array, 0.0, 0.01);
        let width = |spec: &Pseudospectrum| -> f64 {
            let db = spec.db(-60.0);
            let (pi, _) =
                db.iter()
                    .enumerate()
                    .fold((0, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    });
            let mut lo = pi;
            while lo > 0 && db[lo] > -3.0 {
                lo -= 1;
            }
            let mut hi = pi;
            while hi + 1 < db.len() && db[hi] > -3.0 {
                hi += 1;
            }
            spec.angles_deg[hi] - spec.angles_deg[lo]
        };
        let wb = width(&bartlett_spectrum(&r, &space, 0.25));
        let wc = width(&capon_spectrum(&r, &space, 0.25, 1e-6));
        assert!(wc < wb, "Capon width {} should beat Bartlett {}", wc, wb);
    }

    #[test]
    fn bartlett_values_nonnegative() {
        let array = Array::paper_octagon();
        let space = ScanSpace::physical(&array);
        let r = one_source_cov(&array, 100.0, 0.05);
        let spec = bartlett_spectrum(&r, &space, 1.0);
        assert!(spec.values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn capon_handles_rank_deficient_with_loading() {
        let array = Array::paper_linear(6);
        let space = ScanSpace::physical(&array);
        // Rank-1 covariance, no noise: needs the diagonal loading.
        let steer = array.steering(broadside_deg_to_azimuth(10.0));
        let r = CMat::outer(&steer, &steer);
        let spec = capon_spectrum(&r, &space, 1.0, 1e-4);
        assert!(spec.values.iter().all(|v| v.is_finite()));
        let (peak, _) = spec.peak();
        assert!((peak - 10.0).abs() < 2.0, "peak {}", peak);
    }
}
