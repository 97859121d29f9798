//! Schmidl–Cox OFDM packet detection and carrier-frequency-offset
//! estimation.
//!
//! The prototype "realize\[s\] the Schmidl-Cox OFDM packet detection
//! algorithm to locate packets in the raw samples" (paper §3). The
//! preamble's first training symbol consists of two identical halves of
//! length `L` in the time domain; the receiver slides the correlator
//!
//! ```text
//! P(d)  = Σ_{m=0}^{L−1} r*[d+m]·r[d+m+L]      (half-symbol correlation)
//! E1(d) = Σ_{m=0}^{L−1} |r[d+m]|²             (first-half energy)
//! E2(d) = Σ_{m=0}^{L−1} |r[d+m+L]|²           (second-half energy)
//! M(d)  = |P(d)|² / (E1(d)·E2(d))             (timing metric)
//! ```
//!
//! and declares a packet where `M` exceeds a threshold. The symmetric
//! normalisation is Minn's variant of Schmidl & Cox's original
//! `|P|²/E2²`: by Cauchy–Schwarz it is bounded in `[0, 1]` and it
//! suppresses the spurious plateaus the original metric exhibits at
//! signal/idle boundaries where one window's energy collapses. Because
//! the metric can still plateau over a cyclic prefix, the detector takes
//! the *centre* of the region above 90% of the local maximum, per
//! Schmidl & Cox's recommendation. The angle of `P` at the optimum gives
//! the fractional CFO: `φ̂ = ∠P/L` radians/sample.

use sa_linalg::complex::{C64, ZERO};

/// One detected packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Sample index of the estimated start of the preamble's first
    /// training symbol.
    pub start: usize,
    /// Peak value of the timing metric `M(d)` (close to 1 at high SNR).
    pub metric: f64,
    /// Estimated carrier frequency offset, radians per sample.
    pub cfo: f64,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchmidlCox {
    /// Half-symbol length `L` (number of samples in each identical half).
    pub half_len: usize,
    /// Detection threshold on `M(d)`; 0.5 is a robust default down to
    /// ~0 dB SNR.
    pub threshold: f64,
    /// Samples to skip after a detection before searching again (set to
    /// at least the packet length to avoid double-detecting one packet).
    pub holdoff: usize,
}

impl SchmidlCox {
    /// Detector for a preamble with the given half-symbol length.
    pub fn new(half_len: usize) -> Self {
        Self {
            half_len,
            threshold: 0.5,
            holdoff: 4 * half_len,
        }
    }

    /// Timing metric trace `M(d)` for `d` in
    /// `0 ..= r.len() − 2·half_len` (empty if the buffer is too short).
    ///
    /// Computed with O(1) sliding updates per offset, so scanning a 0.4 ms
    /// WARP buffer (8000 samples at 20 MHz) is cheap.
    pub fn metric_trace(&self, r: &[C64]) -> Vec<f64> {
        MetricStream::new(r, self.half_len).collect()
    }

    /// Detect all packets in a sample buffer.
    pub fn detect(&self, r: &[C64]) -> Vec<Detection> {
        let trace = self.metric_trace(r);
        let mut out = Vec::new();
        let mut d = 0usize;
        while d < trace.len() {
            if trace[d] < self.threshold {
                d += 1;
                continue;
            }
            let region_end = trace[d..]
                .iter()
                .position(|&m| m < self.threshold)
                .map(|off| d + off)
                .unwrap_or(trace.len());
            let det = self.region_detection(r, d, &trace[d..region_end]);
            out.push(det);
            d = det.start + self.holdoff.max(1);
        }
        out
    }

    /// The first detection [`SchmidlCox::detect`] reports, without
    /// scanning past it: the metric is streamed with the same arithmetic
    /// and the stream stops where the first above-threshold region ends,
    /// so `detect_first(r) == detect(r).first()` exactly, and a packet
    /// near the head of a long capture costs only the samples up to it
    /// (plus the whole-buffer power pass behind the energy floor).
    pub fn detect_first(&self, r: &[C64]) -> Option<Detection> {
        let below = |m: f64| m < self.threshold;
        let mut above = MetricStream::new(r, self.half_len)
            .enumerate()
            .skip_while(|&(_, m)| below(m));
        let (d0, m0) = above.next()?;
        let region: Vec<f64> = std::iter::once(m0)
            .chain(above.map(|(_, m)| m).take_while(|&m| !below(m)))
            .collect();
        Some(self.region_detection(r, d0, &region))
    }

    /// Turn one above-threshold region of the metric (`region[i]` is
    /// `M(d0 + i)`) into a detection: find its local maximum, then take
    /// the centre of the sub-region above 90% of that maximum (plateau
    /// handling), and read the CFO off the half-symbol correlation there.
    fn region_detection(&self, r: &[C64], d0: usize, region: &[f64]) -> Detection {
        let l = self.half_len;
        let (peak_idx, peak) =
            region.iter().enumerate().fold(
                (0, 0.0),
                |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                },
            );
        let level = 0.9 * peak;
        let mut lo = peak_idx;
        while lo > 0 && region[lo - 1] >= level {
            lo -= 1;
        }
        let mut hi = peak_idx;
        while hi + 1 < region.len() && region[hi + 1] >= level {
            hi += 1;
        }
        let start = d0 + (lo + hi) / 2;

        // CFO from the half-symbol correlation at the chosen offset.
        let mut p = ZERO;
        for m in 0..l {
            p += r[start + m].conj() * r[start + m + l];
        }
        Detection {
            start,
            metric: peak,
            cfo: p.arg() / l as f64,
        }
    }
}

/// `M(d)` streamed offset by offset: the one implementation of the
/// sliding `P`/`E1`/`E2` updates and the energy floor behind
/// [`SchmidlCox::metric_trace`], [`SchmidlCox::detect`] and
/// [`SchmidlCox::detect_first`].
struct MetricStream<'a> {
    r: &'a [C64],
    l: usize,
    /// Next offset to emit; `None` once the stream is exhausted.
    d: Option<usize>,
    last: usize,
    p: C64,
    e1: f64,
    e2: f64,
    floor: f64,
}

impl<'a> MetricStream<'a> {
    fn new(r: &'a [C64], l: usize) -> Self {
        let mut s = MetricStream {
            r,
            l,
            d: None,
            last: 0,
            p: ZERO,
            e1: 0.0,
            e2: 0.0,
            floor: 0.0,
        };
        if r.len() < 2 * l {
            return s;
        }
        s.d = Some(0);
        s.last = r.len() - 2 * l;
        // Initialise P(0), E1(0), E2(0).
        for m in 0..l {
            s.p += r[m].conj() * r[m + l];
            s.e1 += r[m].norm_sqr();
            s.e2 += r[m + l].norm_sqr();
        }
        // Energy floor: windows whose product-energy is negligible relative
        // to the buffer as a whole cannot contain a packet; report 0 there
        // instead of amplifying numerical dust.
        let power = crate::iq::mean_power(r);
        s.floor = 1e-12 * power * (l as f64) * power * (l as f64) + 1e-300;
        s
    }
}

impl Iterator for MetricStream<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let d = self.d?;
        let denom = self.e1 * self.e2;
        let metric = if denom > self.floor {
            (self.p.norm_sqr() / denom).min(1.0)
        } else {
            0.0
        };
        if d < self.last {
            // Slide both windows one sample to the right.
            let (r, l) = (self.r, self.l);
            self.p -= r[d].conj() * r[d + l];
            self.p += r[d + l].conj() * r[d + 2 * l];
            self.e1 -= r[d].norm_sqr();
            self.e1 += r[d + l].norm_sqr();
            self.e2 -= r[d + l].norm_sqr();
            self.e2 += r[d + 2 * l].norm_sqr();
            self.d = Some(d + 1);
        } else {
            self.d = None;
        }
        Some(metric)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.d.map_or(0, |d| self.last - d + 1);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iq::{apply_cfo, mean_power};
    use crate::noise::add_noise;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_linalg::complex::C64;

    const L: usize = 32;

    /// A Schmidl–Cox-style training symbol: two identical pseudo-random
    /// halves, preceded and followed by noise-only regions.
    fn preamble(seed: u64) -> Vec<C64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut half = crate::noise::cn_vector(&mut rng, L, 1.0);
        crate::iq::normalize_power(&mut half, 1.0);
        let mut sym = half.clone();
        sym.extend_from_slice(&half);
        sym
    }

    /// Preamble followed by 4L of payload-like samples at the same power —
    /// as in a real packet. (With nothing after the training symbol, the
    /// S&C metric has a long trailing plateau because `P` and `R` shrink
    /// together; payload suppresses it, which is the realistic case.)
    fn buffer_with_preamble_at(offset: usize, total: usize, seed: u64) -> Vec<C64> {
        let mut buf = vec![ZERO; total];
        let pre = preamble(seed);
        buf[offset..offset + pre.len()].copy_from_slice(&pre);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let payload = crate::noise::cn_vector(&mut rng, 4 * L, 1.0);
        let p0 = offset + pre.len();
        let pend = (p0 + payload.len()).min(total);
        buf[p0..pend].copy_from_slice(&payload[..pend - p0]);
        buf
    }

    #[test]
    fn detects_clean_preamble_near_true_offset() {
        let buf = buffer_with_preamble_at(100, 400, 1);
        let det = SchmidlCox::new(L).detect(&buf);
        assert_eq!(det.len(), 1, "detections: {:?}", det);
        assert!(
            (det[0].start as i64 - 100).unsigned_abs() <= 2,
            "start {} (expected ≈100)",
            det[0].start
        );
        assert!(det[0].metric > 0.9);
    }

    #[test]
    fn detects_at_moderate_snr() {
        let mut buf = buffer_with_preamble_at(150, 600, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        add_noise(&mut rng, &mut buf, 0.1); // 10 dB SNR inside the preamble
        let det = SchmidlCox::new(L).detect(&buf);
        assert_eq!(det.len(), 1);
        assert!(
            (det[0].start as i64 - 150).unsigned_abs() <= 4,
            "start {}",
            det[0].start
        );
    }

    #[test]
    fn no_detection_in_pure_noise() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let buf = crate::noise::cn_vector(&mut rng, 2000, 1.0);
        let det = SchmidlCox::new(L).detect(&buf);
        assert!(det.is_empty(), "false positives in pure noise: {:?}", det);
    }

    #[test]
    fn cfo_estimate_accurate() {
        for &cfo in &[0.0, 0.01, -0.02, 0.05] {
            let mut buf = buffer_with_preamble_at(80, 400, 3);
            apply_cfo(&mut buf, cfo);
            let det = SchmidlCox::new(L).detect(&buf);
            assert_eq!(det.len(), 1);
            assert!(
                (det[0].cfo - cfo).abs() < 2e-3,
                "cfo {} (expected {})",
                det[0].cfo,
                cfo
            );
        }
    }

    #[test]
    fn detects_two_separated_packets() {
        let mut buf = buffer_with_preamble_at(50, 1000, 7);
        let pre2 = preamble(8);
        buf[600..600 + pre2.len()].copy_from_slice(&pre2);
        let det = SchmidlCox::new(L).detect(&buf);
        assert_eq!(det.len(), 2, "detections: {:?}", det);
        assert!((det[0].start as i64 - 50).unsigned_abs() <= 4);
        assert!((det[1].start as i64 - 600).unsigned_abs() <= 4);
    }

    #[test]
    fn metric_trace_bounded() {
        let mut buf = buffer_with_preamble_at(64, 512, 11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        add_noise(&mut rng, &mut buf, 0.05);
        let trace = SchmidlCox::new(L).metric_trace(&buf);
        assert_eq!(trace.len(), 512 - 2 * L + 1);
        for &m in &trace {
            assert!((0.0..=1.2).contains(&m), "metric out of range: {}", m);
        }
    }

    #[test]
    fn short_buffer_yields_nothing() {
        let sc = SchmidlCox::new(L);
        assert!(sc.metric_trace(&[ZERO; 10]).is_empty());
        assert!(sc.detect(&[ZERO; 10]).is_empty());
    }

    #[test]
    fn preamble_power_sanity() {
        let p = preamble(1);
        assert!((mean_power(&p) - 1.0).abs() < 1e-9);
        assert_eq!(p.len(), 2 * L);
    }

    use sa_linalg::complex::ZERO;
}
