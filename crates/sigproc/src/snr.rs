//! Per-packet SNR from the covariance eigenvalue split.
//!
//! MUSIC already pays for the full eigendecomposition of every packet's
//! sample covariance; its eigenvalue spectrum carries the packet's SNR
//! for free. Under the standard signal-plus-white-noise model the `M − K`
//! smallest eigenvalues all estimate the per-element noise power `σ²`,
//! while each of the `K` signal eigenvalues is `σ² + λ_signal` — so
//!
//! ```text
//! σ̂²  = mean of the M − K smallest eigenvalues
//! P̂_s = mean of the K largest eigenvalues − σ̂²
//! SNR = P̂_s / σ̂²
//! ```
//!
//! This is the estimate the CRLB-weighted confidence path feeds on (see
//! `sa-aoa`'s confidence module): it needs no pilot symbols, no second
//! pass over samples, and is deterministic given the eigenvalues.
//!
//! ```
//! use sa_sigproc::snr::eig_split_snr;
//!
//! // 4-element covariance, one source: noise floor ≈ 0.1, signal 3.9.
//! let eigs = [0.09, 0.10, 0.11, 4.0];
//! let snr = eig_split_snr(&eigs, 1);
//! assert!((snr - 39.0).abs() < 1.0);
//! ```

/// Linear SNR from an ascending eigenvalue spectrum and a signal-subspace
/// dimension `n_sources` (as produced by `sa-linalg`'s `eigh` and the
/// estimator's source counting).
///
/// Returns the ratio of mean signal power above the noise floor to the
/// noise floor, clamped to be non-negative; degenerate inputs (no noise
/// subspace, non-positive noise floor) return `0.0` rather than
/// poisoning downstream confidence with infinities.
pub fn eig_split_snr(eigenvalues_ascending: &[f64], n_sources: usize) -> f64 {
    let m = eigenvalues_ascending.len();
    if m < 2 || n_sources == 0 || n_sources >= m {
        return 0.0;
    }
    let n_noise = m - n_sources;
    let noise: f64 = eigenvalues_ascending[..n_noise].iter().sum::<f64>() / n_noise as f64;
    if noise.is_nan() || noise <= 0.0 || !noise.is_finite() {
        return 0.0;
    }
    let signal: f64 = eigenvalues_ascending[n_noise..].iter().sum::<f64>() / n_sources as f64;
    ((signal - noise) / noise).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::sample_covariance;
    use crate::noise::add_noise;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_linalg::complex::C64;
    use sa_linalg::CMat;

    #[test]
    fn ideal_split_recovers_ratio() {
        // σ² = 0.5, two sources at 10 and 6 above the floor.
        let eigs = [0.5, 0.5, 0.5, 6.5, 10.5];
        let snr = eig_split_snr(&eigs, 2);
        assert!((snr - 16.0).abs() < 1e-12, "snr {}", snr);
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(eig_split_snr(&[1.0], 1), 0.0);
        assert_eq!(eig_split_snr(&[1.0, 2.0], 0), 0.0);
        assert_eq!(eig_split_snr(&[1.0, 2.0], 2), 0.0);
        assert_eq!(eig_split_snr(&[0.0, 0.0, 5.0], 1), 0.0);
        // Signal below the noise floor clamps to zero, not negative.
        assert_eq!(eig_split_snr(&[1.0, 1.0, 0.5], 1), 0.0);
    }

    #[test]
    fn tracks_true_snr_on_simulated_snapshots() {
        // One plane wave + AWGN on an 8-element array: the eigensplit
        // estimate must land within ~1.5 dB of the configured SNR across
        // a 20 dB sweep.
        let m = 8;
        let n = 512;
        let phase = |t: usize| C64::cis(1.3 * t as f64);
        for &snr_db in &[0.0f64, 10.0, 20.0] {
            // Unit-power signal per element ⇒ noise variance 10^(−SNR/10).
            let sigma2 = 10f64.powf(-snr_db / 10.0);
            let mut rng = ChaCha8Rng::seed_from_u64(7 + snr_db as u64);
            let mut x = CMat::from_fn(m, n, |mi, t| C64::cis(0.4 * mi as f64) * phase(t));
            for mi in 0..m {
                let mut row = x.row(mi);
                add_noise(&mut rng, &mut row, sigma2);
                for t in 0..n {
                    x[(mi, t)] = row[t];
                }
            }
            let r = sample_covariance(&x);
            let eig = sa_linalg::eigen::eigh(&r);
            // A single rank-1 source across M elements concentrates M×
            // the per-element power in one eigenvalue: the split SNR is
            // the *subspace* SNR, M·snr_element.
            let est_db = 10.0 * eig_split_snr(&eig.values, 1).log10();
            let expect_db = snr_db + 10.0 * (m as f64).log10();
            assert!(
                (est_db - expect_db).abs() < 1.5,
                "snr {} dB: estimated {} expected {}",
                snr_db,
                est_db,
                expect_db
            );
        }
    }
}
