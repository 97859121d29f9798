//! Pseudospectra: likelihood-versus-angle curves and their peaks.
//!
//! "The output of such AoA estimation algorithms … is a pseudospectrum: a
//! continuous plot of likelihood versus angle. We use the pseudospectrum
//! as our client signature." (paper §2.1). This module owns that data
//! type: a sampled spectrum over presentation angles (degrees), peak
//! extraction with topographic prominence (so multipath reflection peaks
//! are ranked meaningfully), and dB normalisation matching the paper's
//! figures (peak at 0 dB).

/// A sampled pseudospectrum.
///
/// `angles_deg` is strictly ascending in the *presentation* convention of
/// the producing array: broadside `[−90°, 90°]` for linear arrays (Figs 6
/// and 7), `[0°, 360°)` for circular ones (Fig 5). `wraps` records
/// whether the angular domain is circular, which peak finding and
/// distance metrics must respect.
#[derive(Debug, Clone, PartialEq)]
pub struct Pseudospectrum {
    /// Sample angles, degrees, strictly ascending.
    pub angles_deg: Vec<f64>,
    /// Likelihood values, linear scale, non-negative.
    pub values: Vec<f64>,
    /// True if the angle domain wraps (circular arrays).
    pub wraps: bool,
}

/// One extracted spectrum peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Peak angle, degrees (presentation convention of the spectrum).
    pub angle_deg: f64,
    /// Linear value at the peak.
    pub value: f64,
    /// Topographic prominence in dB: height above the higher of the two
    /// saddle points separating this peak from higher terrain.
    pub prominence_db: f64,
}

impl Pseudospectrum {
    /// Build from parallel angle/value arrays. Panics if lengths differ,
    /// are empty, or angles are not strictly ascending.
    pub fn new(angles_deg: Vec<f64>, values: Vec<f64>, wraps: bool) -> Self {
        assert_eq!(
            angles_deg.len(),
            values.len(),
            "Pseudospectrum: length mismatch"
        );
        assert!(!angles_deg.is_empty(), "Pseudospectrum: empty");
        assert!(
            angles_deg.windows(2).all(|w| w[0] < w[1]),
            "Pseudospectrum: angles must be strictly ascending"
        );
        Self {
            angles_deg,
            values,
            wraps,
        }
    }

    /// Fast-path constructor for spectra whose grid comes from an
    /// already-validated `SteeringTable`: skips re-checking 360 angle
    /// orderings per packet (debug builds still assert).
    pub(crate) fn from_valid_grid(angles_deg: Vec<f64>, values: Vec<f64>, wraps: bool) -> Self {
        debug_assert_eq!(angles_deg.len(), values.len());
        debug_assert!(angles_deg.windows(2).all(|w| w[0] < w[1]));
        Self {
            angles_deg,
            values,
            wraps,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.angles_deg.len()
    }

    /// True if the spectrum has no samples (cannot happen through `new`).
    pub fn is_empty(&self) -> bool {
        self.angles_deg.is_empty()
    }

    /// The global maximum as `(angle_deg, value)` — the paper computes
    /// "the bearing of each client as the angle corresponding to the
    /// maximum point on its pseudospectrum" (§3.1).
    pub fn peak(&self) -> (f64, f64) {
        let (i, v) =
            self.values
                .iter()
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                });
        (self.angles_deg[i], v)
    }

    /// Values normalised so the maximum is 1 (returns a copy). Zero
    /// spectra are returned unchanged.
    pub fn normalized(&self) -> Self {
        let m = self.values.iter().cloned().fold(0.0, f64::max);
        if m <= 0.0 {
            return self.clone();
        }
        Self {
            angles_deg: self.angles_deg.clone(),
            values: self.values.iter().map(|v| v / m).collect(),
            wraps: self.wraps,
        }
    }

    /// Values in dB relative to the peak (peak = 0 dB), floored at
    /// `floor_db` — the presentation used by the paper's Figs 6 and 7.
    pub fn db(&self, floor_db: f64) -> Vec<f64> {
        let m = self
            .values
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        // Bins below `cut` floor without a `log10`: the 0.999 margin
        // (−0.0043 dB) dwarfs the rounding of `powf`, the product and
        // `log10`, so such a bin would floor anyway. (A cut among the
        // subnormals is still safe: a bin below it sits a whole grid step
        // lower.) A subnormal `scale` (floors under −3000 dB) has lost
        // the relative precision the margin relies on, so it cuts nothing.
        let scale = 10f64.powf(floor_db / 10.0) * 0.999;
        let cut = if scale.is_normal() { m * scale } else { 0.0 };
        self.values
            .iter()
            .map(|&v| {
                if v <= 0.0 || v < cut {
                    floor_db
                } else {
                    (10.0 * (v / m).log10()).max(floor_db)
                }
            })
            .collect()
    }

    /// Linear value at an arbitrary angle, by linear interpolation
    /// (with wrap-around when the domain is circular).
    pub fn value_at(&self, angle_deg: f64) -> f64 {
        let n = self.len();
        if n == 1 {
            return self.values[0];
        }
        let a = &self.angles_deg;
        if self.wraps {
            let span = 360.0;
            let first = a[0];
            let x = (angle_deg - first).rem_euclid(span) + first;
            // Find the segment [a[i], a[i+1]) containing x, with the
            // closing segment a[n−1] → a[0]+360.
            match a.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
                Ok(i) => self.values[i],
                Err(0) => self.values[0],
                Err(i) if i < n => {
                    let t = (x - a[i - 1]) / (a[i] - a[i - 1]);
                    self.values[i - 1] * (1.0 - t) + self.values[i] * t
                }
                Err(_) => {
                    // Between the last sample and the wrapped first one.
                    let t = (x - a[n - 1]) / (first + span - a[n - 1]);
                    self.values[n - 1] * (1.0 - t) + self.values[0] * t
                }
            }
        } else {
            let x = angle_deg.clamp(a[0], a[n - 1]);
            match a.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
                Ok(i) => self.values[i],
                Err(0) => self.values[0],
                Err(i) if i < n => {
                    let t = (x - a[i - 1]) / (a[i] - a[i - 1]);
                    self.values[i - 1] * (1.0 - t) + self.values[i] * t
                }
                Err(_) => self.values[n - 1],
            }
        }
    }

    /// Extract local maxima with at least `min_prominence_db` of
    /// topographic prominence, sorted by descending value, at most
    /// `max_peaks` of them.
    ///
    /// Prominence is measured on the dB scale: for each local maximum,
    /// walk outward in both directions until terrain higher than the peak
    /// is met (or the domain edge for non-wrapping spectra); the higher
    /// of the two lowest saddles passed defines the prominence. This
    /// matches how one reads "direct-path peak" versus "reflection peaks"
    /// off the paper's Fig 6.
    ///
    /// Hot-path note: the walks compare values on the *linear* scale
    /// (clamped at the same −300 dB floor the dB rendering uses — the
    /// log is strictly monotone, so the comparisons are equivalent) and
    /// only the handful of surviving local maxima pay for a `log10`.
    /// The previous implementation converted the whole spectrum to dB
    /// per call, which made peak extraction as expensive as the MUSIC
    /// scan itself.
    pub fn find_peaks(&self, min_prominence_db: f64, max_peaks: usize) -> Vec<Peak> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        // Prescans, as three branch-free folds the compiler can
        // vectorise: the raw maximum, the floor-clamped copy of the
        // spectrum (the linear equivalent of `db(-300.0)` — values
        // collapsing to the same floored dB compare equal here too,
        // and log10 is strictly monotone above the floor), and the
        // clamped global minimum the saddle shortcut below needs.
        let max_v = self
            .values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let m = max_v.max(f64::MIN_POSITIVE);
        let floor = m * 1e-30;
        let clv: Vec<f64> = self.values.iter().map(|v| v.max(floor)).collect();
        let gmin = clv.iter().cloned().fold(f64::INFINITY, f64::min);
        // The clamped global maximum — `clv` at the raw argmax.
        let gmax = max_v.max(floor);
        let cl = |i: usize| -> f64 { clv[i] };
        // The dB value the old full-spectrum conversion would have
        // produced — used only for the reported prominence figure.
        let db_of = |v: f64| -> f64 {
            if v <= 0.0 {
                -300.0
            } else {
                (10.0 * (v / m).log10()).max(-300.0)
            }
        };
        // 1- and 2-point spectra (a 2-antenna setup on a very coarse
        // grid): the windowed scan below needs 3 points, but the
        // local-max and prominence definitions still apply — the walks
        // just terminate immediately. Handle them directly so a
        // boundary peak is not silently dropped (this used to return an
        // empty list, inconsistently with `peak()` — pinned by
        // tests/find_peaks_reference.rs).
        if n < 3 {
            let mut peaks = Vec::new();
            for i in 0..n {
                let other = clv[n - 1 - i];
                let (is_peak, saddle) = if n == 1 {
                    // Under wrap the single point is its own neighbour
                    // and the strict left-side test fails.
                    (!self.wraps, clv[0])
                } else if self.wraps {
                    (clv[i] > other, other)
                } else {
                    // Non-wrapping edges: −∞ beyond the domain, strict
                    // vs the left neighbour, non-strict vs the right.
                    let is_peak = if i == 0 {
                        clv[0] >= clv[1]
                    } else {
                        clv[1] > clv[0]
                    };
                    (is_peak, other.min(clv[i]))
                };
                let prominence = db_of(clv[i]) - db_of(saddle);
                if is_peak && prominence >= min_prominence_db {
                    peaks.push(Peak {
                        angle_deg: self.angles_deg[i],
                        value: self.values[i],
                        prominence_db: prominence,
                    });
                }
            }
            peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
            peaks.truncate(max_peaks);
            return peaks;
        }
        // Local maxima (strict on one side to de-duplicate flat tops):
        // a rolling `windows(3)` scan for the interior — the bulk of
        // the grid, bounds-check-free — with the two edges handled
        // explicitly. A MUSIC spectrum has a handful of maxima, so the
        // expensive prominence walks below run rarely.
        let edge = |side: usize| -> f64 {
            if self.wraps {
                clv[side]
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut maxima: Vec<usize> = Vec::new();
        if clv[0] > edge(n - 1) && clv[0] >= clv[1] {
            maxima.push(0);
        }
        for (im1, w) in clv.windows(3).enumerate() {
            if w[1] > w[0] && w[1] >= w[2] {
                maxima.push(im1 + 1);
            }
        }
        if clv[n - 1] > clv[n - 2] && clv[n - 1] >= edge(0) {
            maxima.push(n - 1);
        }

        let mut peaks = Vec::new();
        for &i in &maxima {
            let h = cl(i);
            if h == gmax {
                // A local max at the global height: both walks would
                // traverse their whole side without finding higher
                // terrain ((false, false) below), whose saddle is the
                // scanned range's minimum — the global minimum, for
                // wrapping and non-wrapping domains alike.
                let prominence = db_of(h) - db_of(gmin);
                if prominence >= min_prominence_db {
                    peaks.push(Peak {
                        angle_deg: self.angles_deg[i],
                        value: self.values[i],
                        prominence_db: prominence,
                    });
                }
                continue;
            }
            // The walks visit each side as at most two contiguous
            // segments (the wrap-around continuation is just the other
            // side of the array), so run them as plain slice scans —
            // same visit order as stepping index-by-index, without a
            // wrap branch and step counter per element.
            let walk = |segments: [&[f64]; 2], rev: bool| -> (bool, f64) {
                let mut low = h;
                for seg in segments {
                    if rev {
                        for &v in seg.iter().rev() {
                            if v > h {
                                return (true, low);
                            }
                            low = low.min(v);
                        }
                    } else {
                        for &v in seg {
                            if v > h {
                                return (true, low);
                            }
                            low = low.min(v);
                        }
                    }
                }
                (false, low)
            };
            // Left: i−1 … 0, then (wrapping) n−1 … i+1.
            let wrap_l: &[f64] = if self.wraps { &clv[i + 1..] } else { &[] };
            let (found_higher_left, min_left) = walk([&clv[..i], wrap_l], true);
            // Right: i+1 … n−1, then (wrapping) 0 … i−1.
            let wrap_r: &[f64] = if self.wraps { &clv[..i] } else { &[] };
            let (found_higher_right, min_right) = walk([&clv[i + 1..], wrap_r], false);
            // Key saddle: the *higher* of the two side minima, but only
            // sides that actually reach higher terrain count as saddles;
            // for the global maximum both walks fail and prominence is
            // height above the global minimum.
            let saddle = match (found_higher_left, found_higher_right) {
                (true, true) => min_left.max(min_right),
                (true, false) => min_left,
                (false, true) => min_right,
                (false, false) => min_left.min(min_right),
            };
            let prominence = db_of(h) - db_of(saddle);
            if prominence >= min_prominence_db {
                peaks.push(Peak {
                    angle_deg: self.angles_deg[i],
                    value: self.values[i],
                    prominence_db: prominence,
                });
            }
        }
        peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
        peaks.truncate(max_peaks);
        peaks
    }

    /// A compact ASCII rendering (one row of height buckets per call),
    /// used by the examples for quick terminal visualisation. Each
    /// output column shows the *maximum* of its bucket (in dB, −30 dB
    /// floor), so narrow MUSIC needles stay visible at any width.
    pub fn ascii(&self, width: usize) -> String {
        const GLYPHS: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        let db = self.db(-30.0);
        let n = db.len();
        let width = width.max(1);
        let mut out = String::with_capacity(width);
        for c in 0..width {
            let lo = c * n / width;
            let hi = (((c + 1) * n / width).max(lo + 1)).min(n);
            let v = db[lo..hi].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let t = ((v + 30.0) / 30.0).clamp(0.0, 1.0);
            let g = (t * (GLYPHS.len() - 1) as f64).round() as usize;
            out.push(GLYPHS[g]);
        }
        out
    }
}

/// Smallest angular difference respecting the domain: wrap-around modular
/// distance for circular domains, plain absolute difference otherwise.
pub fn angle_diff_deg(a: f64, b: f64, wraps: bool) -> f64 {
    if wraps {
        let d = (a - b).rem_euclid(360.0);
        d.min(360.0 - d)
    } else {
        (a - b).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gaussian bump helper on a 1° grid.
    fn bump_spectrum(centers: &[(f64, f64)], wraps: bool) -> Pseudospectrum {
        let (lo, hi) = if wraps { (0.0, 360.0) } else { (-90.0, 91.0) };
        let angles: Vec<f64> = (0..)
            .map(|i| lo + i as f64)
            .take_while(|&a| a < hi)
            .collect();
        let values = angles
            .iter()
            .map(|&a| {
                centers
                    .iter()
                    .map(|&(c, amp)| {
                        let d = angle_diff_deg(a, c, wraps);
                        amp * (-d * d / 50.0).exp()
                    })
                    .sum::<f64>()
                    + 1e-6
            })
            .collect();
        Pseudospectrum::new(angles, values, wraps)
    }

    #[test]
    fn peak_finds_global_maximum() {
        let s = bump_spectrum(&[(30.0, 1.0), (-40.0, 0.5)], false);
        let (a, v) = s.peak();
        assert_eq!(a, 30.0);
        assert!((v - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normalized_peak_is_one() {
        let s = bump_spectrum(&[(10.0, 7.3)], false).normalized();
        let (_, v) = s.peak();
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn db_cut_is_off_when_the_floor_level_is_subnormal() {
        // 10^(−3229/10) ≈ 2.5 subnormal steps, so the level factor rounds
        // up by ~18%; a cut built on it would floor this bin, which sits
        // 0.41 dB above the floor.
        let m = 1e300;
        let v = 1.1 * 10f64.powf(300.0 - 322.9);
        let s = Pseudospectrum::new(vec![0.0, 1.0], vec![m, v], false);
        let db = s.db(-3229.0);
        assert!(db[1] > -3229.0 + 0.4, "{}", db[1]);
    }

    #[test]
    fn db_scale_peak_zero_floor_respected() {
        let s = bump_spectrum(&[(0.0, 1.0)], false);
        let db = s.db(-40.0);
        let max = db.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = db.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 0.0).abs() < 1e-9);
        assert!(min >= -40.0);
    }

    #[test]
    fn find_two_peaks_with_prominence() {
        let s = bump_spectrum(&[(20.0, 1.0), (-50.0, 0.4)], false);
        let peaks = s.find_peaks(3.0, 8);
        assert_eq!(peaks.len(), 2, "peaks: {:?}", peaks);
        assert_eq!(peaks[0].angle_deg, 20.0);
        assert_eq!(peaks[1].angle_deg, -50.0);
        assert!(peaks[0].value > peaks[1].value);
        assert!(peaks[1].prominence_db > 3.0);
    }

    #[test]
    fn min_prominence_filters_ripples() {
        // A ripple only 2 dB above its local floor should be rejected at
        // a 20 dB prominence threshold but kept at 0.5 dB. (Prominence is
        // measured in dB, so "small" means small *relative to the local
        // floor*, not in absolute linear units.)
        let mut s = bump_spectrum(&[(0.0, 1.0)], false);
        let idx = s.angles_deg.iter().position(|&a| a == 60.0).unwrap();
        s.values[idx] *= 1.6; // ≈ 2 dB over the floor
        let strict = s.find_peaks(20.0, 8);
        assert_eq!(strict.len(), 1);
        let lax = s.find_peaks(0.5, 8);
        assert!(lax.len() >= 2);
    }

    #[test]
    fn wrapped_peak_across_zero() {
        // Peak centred at 0° on a circular domain: samples near 359° and
        // 1° form one peak, not two.
        let s = bump_spectrum(&[(0.0, 1.0)], true);
        let peaks = s.find_peaks(3.0, 8);
        assert_eq!(peaks.len(), 1, "peaks: {:?}", peaks);
        assert_eq!(peaks[0].angle_deg, 0.0);
    }

    #[test]
    fn value_at_interpolates() {
        let s = Pseudospectrum::new(vec![0.0, 10.0, 20.0], vec![0.0, 1.0, 0.0], false);
        assert!((s.value_at(5.0) - 0.5).abs() < 1e-12);
        assert!((s.value_at(10.0) - 1.0).abs() < 1e-12);
        // Clamped outside.
        assert!((s.value_at(-5.0) - 0.0).abs() < 1e-12);
        assert!((s.value_at(25.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn value_at_wraps_circular() {
        let angles: Vec<f64> = (0..360).map(|i| i as f64).collect();
        let mut values = vec![0.0; 360];
        values[0] = 1.0;
        values[359] = 0.5;
        let s = Pseudospectrum::new(angles, values, true);
        // Halfway between 359° and 360°(=0°): interpolate 0.5 → 1.0.
        assert!((s.value_at(359.5) - 0.75).abs() < 1e-12);
        // Wrap-around query.
        assert!((s.value_at(720.0) - 1.0).abs() < 1e-12);
        assert!((s.value_at(-0.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn angle_diff_wrapping() {
        assert_eq!(angle_diff_deg(10.0, 350.0, true), 20.0);
        assert_eq!(angle_diff_deg(10.0, 350.0, false), 340.0);
        assert_eq!(angle_diff_deg(-80.0, 80.0, false), 160.0);
        assert_eq!(angle_diff_deg(0.0, 180.0, true), 180.0);
    }

    #[test]
    fn ascii_render_has_requested_width() {
        let s = bump_spectrum(&[(0.0, 1.0)], false);
        let a = s.ascii(64);
        assert_eq!(a.chars().count(), 64);
        assert!(a.contains('@') || a.contains('#'));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_angles() {
        let _ = Pseudospectrum::new(vec![0.0, -1.0], vec![1.0, 1.0], false);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = Pseudospectrum::new(vec![0.0, 1.0], vec![1.0], false);
    }
}
