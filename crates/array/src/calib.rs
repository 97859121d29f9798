//! Array calibration from a shared reference tone (paper §2.2, Figure 2).
//!
//! "Our solution is to calibrate the array, measuring each phase offset
//! directly. The USRP2 … transmits a continuous 2.4 GHz carrier through a
//! 36 dB attenuator, which we split into eight signals and feed into the
//! radio front ends. Since each of the eight paths from the USRP2 to a
//! radio receiver is of equal length, the signals we measure … yield
//! seven relative phase offsets for antennas 2–8, relative to antenna one.
//! Subtracting these relative phase offsets from the incoming signals over
//! the air then cancels the unknown phase difference."
//!
//! [`Calibration::from_tone_capture`] is that measurement; the resulting
//! per-chain complex corrections are multiplied onto over-the-air samples
//! before any AoA processing. Gain imbalance is corrected at the same time
//! (it falls out of the same tone measurement for free and slightly
//! improves pseudospectrum floor depth).

use sa_linalg::complex::{C64, ZERO};
use sa_linalg::matrix::CMat;

/// Per-chain complex corrections that cancel the front end's unknown
/// phase offsets (and normalise gains) relative to chain 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    corrections: Vec<C64>,
}

impl Calibration {
    /// Identity calibration (all corrections = 1): what an uncalibrated
    /// AP effectively uses. The ablation experiment E8a runs the pipeline
    /// with this to reproduce the paper's claim that calibration is
    /// essential.
    pub fn identity(n: usize) -> Self {
        Self {
            corrections: vec![C64::new(1.0, 0.0); n],
        }
    }

    /// Estimate corrections from a tone capture (rows = chains, columns =
    /// samples of the shared calibration tone).
    ///
    /// For chain `m`, the relative response is measured as the averaged
    /// sample-wise ratio reference `⟨x_m[t]·x_0[t]*⟩`; the correction is
    /// its normalised inverse `|r̂|/r̂ · (optionally gain-normalised)`.
    /// Averaging over the capture suppresses chain noise; with the paper's
    /// continuous-carrier source a few hundred samples is ample.
    pub fn from_tone_capture(capture: &CMat) -> Self {
        let m = capture.rows();
        let n = capture.cols();
        assert!(n > 0, "from_tone_capture: empty capture");
        let mut corrections = Vec::with_capacity(m);
        // Reference chain power for gain normalisation.
        let p0: f64 = (0..n).map(|t| capture[(0, t)].norm_sqr()).sum::<f64>() / n as f64;
        for i in 0..m {
            let mut acc = ZERO;
            let mut pi = 0.0;
            for t in 0..n {
                acc += capture[(i, t)] * capture[(0, t)].conj();
                pi += capture[(i, t)].norm_sqr();
            }
            pi /= n as f64;
            // Phase of acc = chain i offset relative to chain 0;
            // gain ratio = sqrt(pi / p0).
            let phase = acc.arg();
            let gain = if p0 > 0.0 { (pi / p0).sqrt() } else { 1.0 };
            let gain = if gain > 0.0 { gain } else { 1.0 };
            corrections.push(C64::from_polar(1.0 / gain, -phase));
        }
        Self { corrections }
    }

    /// Number of chains this calibration covers.
    pub fn len(&self) -> usize {
        self.corrections.len()
    }

    /// True if the calibration covers zero chains.
    pub fn is_empty(&self) -> bool {
        self.corrections.is_empty()
    }

    /// The per-chain corrections.
    pub fn corrections(&self) -> &[C64] {
        &self.corrections
    }

    /// Apply the corrections to over-the-air samples in place
    /// (rows = chains).
    pub fn apply(&self, x: &mut CMat) {
        assert_eq!(
            x.rows(),
            self.corrections.len(),
            "Calibration::apply: {} rows for {} corrections",
            x.rows(),
            self.corrections.len()
        );
        for (i, &c) in self.corrections.iter().enumerate() {
            for t in 0..x.cols() {
                x[(i, t)] *= c;
            }
        }
    }

    /// Calibrate a covariance in place: `R ← D·R·Dᴴ` with
    /// `D = diag(corrections)`, the covariance of the window
    /// [`Calibration::apply`] would produce. Reads the upper triangle and
    /// the real diagonal of the Hermitian `R` and writes the result
    /// exactly Hermitian (lower triangle mirrored, diagonal real).
    pub fn apply_cov(&self, r: &mut CMat) {
        let c = &self.corrections;
        assert!(
            r.rows() == c.len() && r.cols() == c.len(),
            "Calibration::apply_cov: {}x{} covariance for {} corrections",
            r.rows(),
            r.cols(),
            c.len()
        );
        for i in 0..c.len() {
            r[(i, i)] = C64::new(c[i].norm_sqr() * r[(i, i)].re, 0.0);
            for j in i + 1..c.len() {
                let v = c[i] * r[(i, j)] * c[j].conj();
                r[(i, j)] = v;
                r[(j, i)] = v.conj();
            }
        }
    }

    /// Truncate to the first `k` chains (Fig-7 antenna-count experiment).
    pub fn truncated(&self, k: usize) -> Self {
        assert!(k >= 1 && k <= self.len());
        Self {
            corrections: self.corrections[..k].to_vec(),
        }
    }

    /// Residual phase error (radians) of each chain against a known front
    /// end — diagnostic for tests and the calibration-quality experiment.
    pub fn residual_phases(&self, fe: &crate::rf::FrontEnd) -> Vec<f64> {
        assert_eq!(self.len(), fe.len());
        // After correction, chain i's effective complex gain is
        // corrections[i] · g_i; residual relative phase vs chain 0:
        let eff: Vec<C64> = self
            .corrections
            .iter()
            .zip(fe.chains().iter())
            .map(|(&c, ch)| c * ch.complex_gain())
            .collect();
        eff.iter()
            .map(|&e| {
                let rel = e * eff[0].conj();
                rel.arg()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::{FrontEnd, RfChain};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_linalg::c64;

    fn skewed_front_end(noise_var: f64) -> FrontEnd {
        FrontEnd::from_chains(
            vec![
                RfChain {
                    phase_offset: 0.4,
                    gain: 1.00,
                },
                RfChain {
                    phase_offset: 2.9,
                    gain: 1.05,
                },
                RfChain {
                    phase_offset: 5.1,
                    gain: 0.97,
                },
                RfChain {
                    phase_offset: 1.3,
                    gain: 1.02,
                },
            ],
            noise_var,
        )
    }

    #[test]
    fn identity_calibration_is_noop() {
        let cal = Calibration::identity(3);
        let orig = CMat::from_fn(3, 4, |i, t| c64(i as f64, t as f64));
        let mut x = orig.clone();
        cal.apply(&mut x);
        assert!(x.approx_eq(&orig, 1e-14));
    }

    #[test]
    fn noiseless_tone_calibration_is_exact() {
        let fe = skewed_front_end(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let capture = fe.receive_calibration_tone(64, 1.0, &mut rng);
        let cal = Calibration::from_tone_capture(&capture);
        for (i, r) in cal.residual_phases(&fe).iter().enumerate() {
            assert!(r.abs() < 1e-10, "chain {} residual {}", i, r);
        }
    }

    #[test]
    fn noisy_tone_calibration_is_accurate() {
        // 36 dB attenuated tone at ~20 dB SNR into each chain.
        let fe = skewed_front_end(0.01);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let capture = fe.receive_calibration_tone(2048, 1.0, &mut rng);
        let cal = Calibration::from_tone_capture(&capture);
        for (i, r) in cal.residual_phases(&fe).iter().enumerate() {
            assert!(r.abs() < 0.02, "chain {} residual {} rad too large", i, r);
        }
    }

    #[test]
    fn applied_calibration_restores_steering_phases() {
        // A plane-wave snapshot through a skewed front end, then
        // calibrated, must match the ideal-front-end snapshot up to a
        // common rotation.
        use crate::geometry::Array;
        let array = Array::paper_linear(4);
        let steer = array.steering_broadside(0.5);
        let clean = CMat::from_fn(4, 8, |i, t| steer[i] * C64::cis(0.3 * t as f64));

        let fe = skewed_front_end(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let capture = fe.receive_calibration_tone(64, 1.0, &mut rng);
        let cal = Calibration::from_tone_capture(&capture);

        let mut rx = fe.receive(&clean, &mut rng);
        cal.apply(&mut rx);

        // Compare inter-antenna relative phases (common rotation cancels).
        for t in 0..8 {
            for i in 1..4 {
                let got = (rx[(i, t)] * rx[(0, t)].conj()).arg();
                let want = (clean[(i, t)] * clean[(0, t)].conj()).arg();
                let diff = (got - want + std::f64::consts::PI)
                    .rem_euclid(2.0 * std::f64::consts::PI)
                    - std::f64::consts::PI;
                assert!(diff.abs() < 1e-9, "t={} i={} diff={}", t, i, diff);
            }
        }
    }

    #[test]
    fn gain_normalisation() {
        let fe = skewed_front_end(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let capture = fe.receive_calibration_tone(64, 1.0, &mut rng);
        let cal = Calibration::from_tone_capture(&capture);
        // corrected gain = |correction| * chain gain == chain0 gain (1.0)
        for (c, ch) in cal.corrections().iter().zip(fe.chains()) {
            assert!((c.abs() * ch.gain - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn apply_cov_is_the_covariance_of_the_calibrated_window() {
        // D·R·Dᴴ against the covariance of the window `apply` corrects,
        // for a measured (phase and gain) calibration.
        use sa_sigproc::covariance::sample_covariance;
        let fe = skewed_front_end(0.01);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let cal = Calibration::from_tone_capture(&fe.receive_calibration_tone(256, 1.0, &mut rng));
        let x = CMat::from_fn(4, 96, |i, t| {
            C64::cis(0.37 * (i * t) as f64 + 0.2 * t as f64).scale(1.0 + i as f64)
        });
        let mut corrected = x.clone();
        cal.apply(&mut corrected);
        let want = sample_covariance(&corrected);
        let mut got = sample_covariance(&x);
        cal.apply_cov(&mut got);
        assert!(got.approx_eq(&want, 1e-12 * want.fro_norm()));
        for i in 0..4 {
            assert_eq!(got[(i, i)].im, 0.0);
            for j in 0..i {
                assert_eq!(got[(i, j)], got[(j, i)].conj());
            }
        }
    }

    #[test]
    fn truncated_calibration() {
        let cal = Calibration::identity(8);
        assert_eq!(cal.truncated(3).len(), 3);
    }

    #[test]
    #[should_panic(expected = "rows for")]
    fn apply_checks_dimensions() {
        let cal = Calibration::identity(2);
        let mut x = CMat::zeros(3, 1);
        cal.apply(&mut x);
    }
}
