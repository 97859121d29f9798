//! AoA signatures: the paper's client fingerprint.
//!
//! "We use the pseudospectrum as our client signature" (§2.1): the
//! direct-path peak *and* the multipath reflection peaks together. An
//! attacker elsewhere in the building produces a different peak
//! constellation, and forging it "would require the attacker to know the
//! locations of all obstacles in the vicinity of the AP and client" (§1).
//!
//! A signature is a peak-normalised pseudospectrum plus comparison
//! machinery. Because signatures drift as the environment changes
//! (§2.3.2), [`SignatureTracker`] maintains an exponentially-weighted
//! running signature, updated only by frames that already match — so an
//! attacker's frames cannot poison the trained profile.
//!
//! ```
//! use sa_aoa::pseudospectrum::{angle_diff_deg, Pseudospectrum};
//! use secureangle::signature::AoaSignature;
//!
//! // A synthetic spectrum: direct path at 120°, reflection at 250°.
//! let bump = |centers: &[(f64, f64)]| {
//!     let angles: Vec<f64> = (0..360).map(f64::from).collect();
//!     let values = angles
//!         .iter()
//!         .map(|&a| {
//!             centers
//!                 .iter()
//!                 .map(|&(c, amp)| {
//!                     let d = angle_diff_deg(a, c, true);
//!                     amp * (-d * d / 40.0).exp()
//!                 })
//!                 .sum::<f64>()
//!                 + 1e-4
//!         })
//!         .collect();
//!     AoaSignature::from_spectrum(&Pseudospectrum::new(angles, values, true))
//! };
//! let trained = bump(&[(120.0, 1.0), (250.0, 0.4)]);
//! assert_eq!(trained.bearing_deg(), 120.0);
//!
//! // The same client re-measured (slight drift) scores high…
//! let again = bump(&[(121.0, 0.95), (251.0, 0.45)]);
//! assert!(trained.compare(&again).score > 0.8);
//! // …an attacker across the room does not.
//! let attacker = bump(&[(310.0, 1.0), (40.0, 0.5)]);
//! assert!(trained.compare(&attacker).score < 0.45);
//! ```

use sa_aoa::pseudospectrum::{angle_diff_deg, Peak, Pseudospectrum};

/// A client's AoA signature.
#[derive(Debug, Clone, PartialEq)]
pub struct AoaSignature {
    spectrum: Pseudospectrum,
}

/// Angular smoothing applied when a signature is built from a raw
/// pseudospectrum, degrees (Gaussian σ).
///
/// MUSIC pseudospectra are needle-sharp, and the needle *positions*
/// jitter by a few degrees as the environment churns between packets;
/// comparing raw needles would score a 4° drift of the same client as
/// harshly as an attacker across the room. Smoothing to a few degrees of
/// angular tolerance makes self-comparisons stable while leaving
/// attacker spectra (peaks tens of degrees away) just as distinguishable.
pub const SIGNATURE_SMOOTHING_SIGMA_DEG: f64 = 3.0;

/// Similarity diagnostics between two signatures; all components are
/// oriented so *larger = more similar*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignatureMatch {
    /// Cosine similarity of the linear spectra, `[0, 1]`.
    pub cosine: f64,
    /// `exp(−RMS_dB / 6)` where RMS_dB is the root-mean-square dB
    /// difference over the grid (floored at −30 dB), `[0, 1]`.
    pub db_shape: f64,
    /// Peak-constellation agreement, `[0, 1]`: greedy angular matching
    /// of the top peaks with a wrap-aware distance.
    pub peaks: f64,
    /// Weighted overall score, `[0, 1]`.
    pub score: f64,
}

// Weights and scales of the combined match score.

/// Weight of the cosine component.
const W_COSINE: f64 = 0.45;
/// Weight of the dB-shape component.
const W_DB: f64 = 0.25;
/// Weight of the peak component.
const W_PEAKS: f64 = 0.30;
/// RMS-dB scale (dB) for the `db_shape` exponential.
const DB_SCALE: f64 = 6.0;
/// Angular scale (degrees) for peak matching.
const PEAK_SCALE_DEG: f64 = 10.0;
/// Number of strongest peaks compared.
const MAX_PEAKS: usize = 5;
/// Minimum peak prominence considered, dB.
const MIN_PROMINENCE_DB: f64 = 1.5;

impl AoaSignature {
    /// Build a signature from a pseudospectrum: Gaussian angular
    /// smoothing (σ = [`SIGNATURE_SMOOTHING_SIGMA_DEG`]) followed by
    /// peak normalisation.
    pub fn from_spectrum(spectrum: &Pseudospectrum) -> Self {
        let smoothed = smooth_spectrum(spectrum, SIGNATURE_SMOOTHING_SIGMA_DEG);
        Self {
            spectrum: smoothed.normalized(),
        }
    }

    /// Build without smoothing — for tests and diagnostics that need the
    /// raw spectrum preserved.
    pub fn from_spectrum_raw(spectrum: &Pseudospectrum) -> Self {
        Self {
            spectrum: spectrum.normalized(),
        }
    }

    /// The underlying normalised spectrum.
    pub fn spectrum(&self) -> &Pseudospectrum {
        &self.spectrum
    }

    /// The direct-path bearing estimate: the global spectrum maximum
    /// (paper §3.1).
    pub fn bearing_deg(&self) -> f64 {
        self.spectrum.peak().0
    }

    /// The signature's peak constellation.
    pub fn peaks(&self) -> Vec<Peak> {
        self.spectrum.find_peaks(MIN_PROMINENCE_DB, MAX_PEAKS)
    }

    /// Compare against another signature on the same grid.
    ///
    /// Panics if the spectra are on different angular domains (an AP
    /// always compares its own captures, so grids match by
    /// construction).
    pub fn compare(&self, other: &AoaSignature) -> SignatureMatch {
        let a = &self.spectrum;
        let b = &other.spectrum;
        assert_eq!(
            a.angles_deg.len(),
            b.angles_deg.len(),
            "signature grids differ in length"
        );
        assert_eq!(a.wraps, b.wraps, "signature domains differ");

        // Cosine similarity on linear values.
        let dot: f64 = a.values.iter().zip(&b.values).map(|(x, y)| x * y).sum();
        let na: f64 = a.values.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = b.values.iter().map(|x| x * x).sum::<f64>().sqrt();
        let cosine = if na > 0.0 && nb > 0.0 {
            (dot / (na * nb)).clamp(0.0, 1.0)
        } else {
            0.0
        };

        // RMS difference of the dB shapes.
        let da = a.db(-30.0);
        let db_ = b.db(-30.0);
        let rms = (da
            .iter()
            .zip(&db_)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            / da.len() as f64)
            .sqrt();
        let db_shape = (-rms / DB_SCALE).exp();

        // Peak-constellation agreement: greedy nearest matching,
        // symmetrised (greedy assignment is directional; averaging both
        // directions makes compare(a,b) == compare(b,a)).
        let pa = self.peaks();
        let pb = other.peaks();
        let peaks = 0.5
            * (peak_agreement(&pa, &pb, a.wraps, PEAK_SCALE_DEG)
                + peak_agreement(&pb, &pa, a.wraps, PEAK_SCALE_DEG));

        let wsum = W_COSINE + W_DB + W_PEAKS;
        let score = (W_COSINE * cosine + W_DB * db_shape + W_PEAKS * peaks) / wsum;
        SignatureMatch {
            cosine,
            db_shape,
            peaks,
            score,
        }
    }
}

/// Gaussian angular smoothing of a pseudospectrum, respecting the
/// domain's wrap-around. Kernel support is cut at 3σ.
fn smooth_spectrum(spectrum: &Pseudospectrum, sigma_deg: f64) -> Pseudospectrum {
    if sigma_deg <= 0.0 || spectrum.len() < 3 {
        return spectrum.clone();
    }
    let n = spectrum.len();
    // Assume (and exploit) a uniform grid; fall back to the raw spectrum
    // if the grid is irregular.
    let step = spectrum.angles_deg[1] - spectrum.angles_deg[0];
    let uniform = spectrum
        .angles_deg
        .windows(2)
        .all(|w| ((w[1] - w[0]) - step).abs() < 1e-9);
    if !uniform {
        return spectrum.clone();
    }
    let half = ((3.0 * sigma_deg / step).ceil() as usize).min(n / 2);
    let kernel: Vec<f64> = (0..=half)
        .map(|k| {
            let d = k as f64 * step;
            (-d * d / (2.0 * sigma_deg * sigma_deg)).exp()
        })
        .collect();
    let src = &spectrum.values;
    let mut values = vec![0.0f64; n];
    if spectrum.wraps {
        // Every tap lands in a wrap-padded copy (`half` bins each side,
        // `half <= n / 2`), so the inner loop has no `%` and no branch.
        // The sums keep the per-tap order of a `%`-indexed loop (centre,
        // then left before right for each k; `wsum` as centre plus `2w`
        // per k), so the bits match it.
        let mut ext = Vec::with_capacity(n + 2 * half);
        ext.extend_from_slice(&src[n - half..]);
        ext.extend_from_slice(src);
        ext.extend_from_slice(&src[..half]);
        let mut wsum = kernel[0];
        for &w in &kernel[1..] {
            wsum += 2.0 * w;
        }
        for (out, win) in values.iter_mut().zip(ext.windows(2 * half + 1)) {
            let mut acc = kernel[0] * win[half];
            for (k, &w) in kernel.iter().enumerate().skip(1) {
                acc += w * win[half - k];
                acc += w * win[half + k];
            }
            *out = acc / wsum;
        }
    } else {
        for (i, out) in values.iter_mut().enumerate() {
            let mut acc = kernel[0] * src[i];
            let mut wsum = kernel[0];
            for (k, &w) in kernel.iter().enumerate().skip(1) {
                if i >= k {
                    acc += w * src[i - k];
                    wsum += w;
                }
                if i + k < n {
                    acc += w * src[i + k];
                    wsum += w;
                }
            }
            *out = acc / wsum;
        }
    }
    Pseudospectrum::new(spectrum.angles_deg.clone(), values, spectrum.wraps)
}

/// Greedy one-to-one peak matching score in `[0, 1]`.
///
/// Each matched pair contributes `exp(−Δangle/scale)` weighted by the
/// pair's combined prominence; unmatched peaks contribute 0 of their
/// weight. Two empty constellations count as a (vacuous) match.
fn peak_agreement(a: &[Peak], b: &[Peak], wraps: bool, scale_deg: f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut used_b = vec![false; b.len()];
    let mut num = 0.0;
    let mut den = 0.0;
    // Strongest-first greedy assignment.
    for pa in a {
        let w = pa.prominence_db.max(0.5);
        den += w;
        let mut best: Option<(usize, f64)> = None;
        for (j, pb) in b.iter().enumerate() {
            if used_b[j] {
                continue;
            }
            let d = angle_diff_deg(pa.angle_deg, pb.angle_deg, wraps);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        if let Some((j, d)) = best {
            used_b[j] = true;
            num += w * (-d / scale_deg).exp();
        }
    }
    // Unmatched b-peaks dilute the score as well.
    for (j, pb) in b.iter().enumerate() {
        if !used_b[j] {
            den += pb.prominence_db.max(0.5);
        }
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// EWMA weight of a new matching observation in [`SignatureTracker::update`].
pub(crate) const TRACK_ALPHA: f64 = 0.15;

const _: () = assert!(0.0 <= TRACK_ALPHA && TRACK_ALPHA <= 1.0);

/// Exponentially-weighted running signature with match-gated updates.
///
/// "Since `S_cl` changes when the client or nearby obstacles move, the AP
/// needs to track and update `S_cl` … using uplink traffic that the
/// clients send to the AP" (§2.3.2). Updating *only on matching frames*
/// means injected traffic that fails the signature check is flagged
/// rather than absorbed.
#[derive(Debug, Clone)]
pub struct SignatureTracker {
    current: AoaSignature,
    /// Number of observations absorbed (including the initial one).
    pub updates: usize,
}

impl SignatureTracker {
    /// Start tracking from an initial (training) signature.
    pub fn new(initial: AoaSignature) -> Self {
        Self {
            current: initial,
            updates: 1,
        }
    }

    /// The tracked signature.
    pub fn signature(&self) -> &AoaSignature {
        &self.current
    }

    /// Absorb a new matching observation with the fixed EWMA weight
    /// `TRACK_ALPHA`.
    ///
    /// The blend uses [`AoaSignature::from_spectrum_raw`]: both operands
    /// were already angularly smoothed when constructed, and re-smoothing
    /// on every update would progressively blur the profile into a flat
    /// mush over a client's lifetime.
    pub fn update(&mut self, observed: &AoaSignature) {
        let cur = &self.current.spectrum;
        let new = observed.spectrum();
        assert_eq!(cur.angles_deg.len(), new.angles_deg.len());
        let values: Vec<f64> = cur
            .values
            .iter()
            .zip(&new.values)
            .map(|(o, n)| (1.0 - TRACK_ALPHA) * o + TRACK_ALPHA * n)
            .collect();
        let spec = Pseudospectrum::new(cur.angles_deg.clone(), values, cur.wraps);
        self.current = AoaSignature::from_spectrum_raw(&spec);
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `%`-indexed smoothing loop that `smooth_spectrum` replaced,
    /// kept verbatim as the bitwise reference.
    fn smooth_spectrum_reference(spectrum: &Pseudospectrum, sigma_deg: f64) -> Pseudospectrum {
        if sigma_deg <= 0.0 || spectrum.len() < 3 {
            return spectrum.clone();
        }
        let n = spectrum.len();
        let step = spectrum.angles_deg[1] - spectrum.angles_deg[0];
        let uniform = spectrum
            .angles_deg
            .windows(2)
            .all(|w| ((w[1] - w[0]) - step).abs() < 1e-9);
        if !uniform {
            return spectrum.clone();
        }
        let half = ((3.0 * sigma_deg / step).ceil() as usize).min(n / 2);
        let kernel: Vec<f64> = (0..=half)
            .map(|k| {
                let d = k as f64 * step;
                (-d * d / (2.0 * sigma_deg * sigma_deg)).exp()
            })
            .collect();
        let mut values = vec![0.0f64; n];
        for (i, out) in values.iter_mut().enumerate() {
            let mut acc = kernel[0] * spectrum.values[i];
            let mut wsum = kernel[0];
            for (k, &w) in kernel.iter().enumerate().skip(1) {
                // Left neighbour.
                if spectrum.wraps {
                    acc += w * spectrum.values[(i + n - k) % n];
                    acc += w * spectrum.values[(i + k) % n];
                    wsum += 2.0 * w;
                } else {
                    if i >= k {
                        acc += w * spectrum.values[i - k];
                        wsum += w;
                    }
                    if i + k < n {
                        acc += w * spectrum.values[i + k];
                        wsum += w;
                    }
                }
            }
            *out = acc / wsum;
        }
        Pseudospectrum::new(spectrum.angles_deg.clone(), values, spectrum.wraps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn smoothing_is_bitwise_the_modulo_loop(
            n in 3usize..=720,
            wraps in any::<bool>(),
            sigma in prop_oneof![Just(SIGNATURE_SMOOTHING_SIGMA_DEG), Just(0.5), Just(10.0), 0.05f64..40.0],
            irregular in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
            raw in proptest::collection::vec(
                prop_oneof![Just(0.0), 0.0f64..1.0, (0.0f64..1.0).prop_map(|v| v * 1e-9), 1.0f64..1e6],
                720,
            ),
        ) {
            // A uniform grid over the domain (full circle when wrapping,
            // a 180° sector otherwise); `irregular` nudges one angle so
            // the raw-spectrum fallback runs too.
            let step = if wraps { 360.0 / n as f64 } else { 180.0 / n as f64 };
            let mut angles: Vec<f64> = (0..n).map(|i| -90.0 + i as f64 * step).collect();
            if irregular {
                angles[n / 2] += step * 0.25;
            }
            let s = Pseudospectrum::new(angles, raw[..n].to_vec(), wraps);
            let got = smooth_spectrum(&s, sigma);
            let want = smooth_spectrum_reference(&s, sigma);
            prop_assert_eq!(&got.angles_deg, &want.angles_deg);
            prop_assert_eq!(got.wraps, want.wraps);
            for (i, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits(),
                    "bin {} of {} (wraps {}, sigma {}): {} vs reference {}", i, n, wraps, sigma, g, w
                );
            }
        }
    }

    fn bump(centers: &[(f64, f64)]) -> AoaSignature {
        let angles: Vec<f64> = (0..360).map(|i| i as f64).collect();
        let values: Vec<f64> = angles
            .iter()
            .map(|&a| {
                centers
                    .iter()
                    .map(|&(c, amp)| {
                        let d = angle_diff_deg(a, c, true);
                        amp * (-d * d / 40.0).exp()
                    })
                    .sum::<f64>()
                    + 1e-4
            })
            .collect();
        AoaSignature::from_spectrum(&Pseudospectrum::new(angles, values, true))
    }

    #[test]
    fn self_comparison_is_perfect() {
        let s = bump(&[(100.0, 1.0), (220.0, 0.4)]);
        let m = s.compare(&s);
        assert!((m.cosine - 1.0).abs() < 1e-12);
        assert!((m.db_shape - 1.0).abs() < 1e-12);
        assert!((m.peaks - 1.0).abs() < 1e-9);
        assert!((m.score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similar_signatures_score_high() {
        let a = bump(&[(100.0, 1.0), (220.0, 0.4)]);
        let b = bump(&[(101.5, 0.95), (221.0, 0.45)]); // slight drift
        let m = a.compare(&b);
        assert!(m.score > 0.8, "score {}", m.score);
    }

    #[test]
    fn different_locations_score_low() {
        let a = bump(&[(100.0, 1.0), (220.0, 0.4)]);
        let b = bump(&[(310.0, 1.0), (40.0, 0.5)]);
        let m = a.compare(&b);
        assert!(m.score < 0.45, "score {}", m.score);
    }

    #[test]
    fn same_direct_path_different_multipath_is_distinguishable() {
        // The attacker manages to match the direct bearing but not the
        // reflections — the paper's key hardness argument.
        let legit = bump(&[(100.0, 1.0), (220.0, 0.5), (320.0, 0.35)]);
        let forged = bump(&[(100.0, 1.0), (150.0, 0.5), (30.0, 0.35)]);
        let self_m = legit.compare(&legit);
        let forged_m = legit.compare(&forged);
        assert!(
            self_m.score - forged_m.score > 0.2,
            "forged {} vs self {}",
            forged_m.score,
            self_m.score
        );
    }

    #[test]
    fn bearing_is_strongest_peak() {
        let s = bump(&[(250.0, 1.0), (40.0, 0.6)]);
        assert_eq!(s.bearing_deg(), 250.0);
    }

    #[test]
    fn peak_agreement_wraps() {
        let a = bump(&[(1.0, 1.0)]);
        let b = bump(&[(359.0, 1.0)]);
        let m = a.compare(&b);
        assert!(m.peaks > 0.7, "wrap-aware peak agreement {}", m.peaks);
    }

    #[test]
    fn tracker_converges_towards_new_shape() {
        let start = bump(&[(100.0, 1.0)]);
        let target = bump(&[(120.0, 1.0)]);
        let mut tracker = SignatureTracker::new(start);
        // (1 − TRACK_ALPHA)^70 ≈ 1e-5 of the start shape remains.
        for _ in 0..70 {
            tracker.update(&target);
        }
        let m = tracker.signature().compare(&target);
        assert!(m.score > 0.95, "converged score {}", m.score);
        assert_eq!(tracker.updates, 71);
    }

    #[test]
    fn tracker_smooths_outliers() {
        let base = bump(&[(100.0, 1.0)]);
        let outlier = bump(&[(300.0, 1.0)]);
        let mut tracker = SignatureTracker::new(base.clone());
        tracker.update(&outlier);
        // One outlier at α = TRACK_ALPHA must not drag the signature
        // away: it must stay far closer to the base than to the outlier.
        let to_base = tracker.signature().compare(&base);
        let to_outlier = tracker.signature().compare(&outlier);
        assert!(to_base.score > 0.7, "score after outlier {}", to_base.score);
        assert!(
            to_base.score > to_outlier.score + 0.1,
            "outlier pulled too hard: base {} outlier {}",
            to_base.score,
            to_outlier.score
        );
    }

    #[test]
    #[should_panic(expected = "grids differ")]
    fn mismatched_grids_panic() {
        let a = bump(&[(10.0, 1.0)]);
        let angles: Vec<f64> = (0..180).map(|i| 2.0 * i as f64).collect();
        let vals = vec![1.0; 180];
        let b = AoaSignature::from_spectrum(&Pseudospectrum::new(angles, vals, true));
        let _ = a.compare(&b);
    }
}
