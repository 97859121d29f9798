//! Fixed-bucket log2 latency histograms (HDR-lite) and the
//! [`StageTimer`] span guard that feeds them.
//!
//! The record path is allocation-free and lock-free: one `leading_zeros`
//! to pick a bucket, three relaxed atomic adds (bucket, count, sum) and
//! one `fetch_max`. Buckets are powers of two, so a histogram covers
//! 1 ns … ~9.2 s of latency in 64 buckets at ≤ 2× relative error —
//! plenty for percentile dashboards, and small enough that per-AP
//! instances (one per worker thread, labeled `ap`, avoiding
//! cross-thread cache-line traffic) cost nothing to keep and are simply
//! summed into one [`HistogramSnapshot`] at snapshot time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 buckets. Bucket 0 holds zero-valued samples; bucket
/// `i ≥ 1` holds samples in `[2^(i−1), 2^i)`; the last bucket absorbs
/// everything `≥ 2^62`.
pub const BUCKETS: usize = 64;

/// The bucket index a value lands in: `0` for `0`, otherwise
/// `bit_length(v)` capped at `BUCKETS − 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The smallest value bucket `i` can hold — the value quantiles report,
/// so quantile estimates are conservative (never above the true value's
/// bucket floor).
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A fixed-bucket log2 histogram with an atomic, allocation-free record
/// path. Shareable across threads behind an `Arc`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (nanoseconds by convention, but any u64 works).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and summary stats.
    pub fn snapshot(&self, name: &str, labels: &[(String, String)]) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            name: name.to_string(),
            labels: labels.to_vec(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one (possibly merged) histogram: the named
/// form that appears in a [`crate::TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Hierarchical stage name (e.g. `stage.decode`).
    pub name: String,
    /// Label set (may be empty).
    pub labels: Vec<(String, String)>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (for means).
    pub sum: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: u64,
    /// Log2 bucket counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot with a name.
    pub fn empty(name: &str) -> Self {
        Self {
            name: name.to_string(),
            labels: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Fold another snapshot into this one (bucket-wise sum; `max` is
    /// the max). Merging is associative and commutative, so per-AP
    /// instances can be folded in any order — pinned by the unit tests.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the floor of the bucket
    /// containing the `⌈q·count⌉`-th sample (conservative — at most one
    /// power of two below the true value), with the exact `max` returned
    /// for the top of the distribution. `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_floor(i));
            }
        }
        Some(self.max)
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean sample value, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A span guard timing one pipeline stage into a [`Histogram`]: reads
/// the monotonic clock at construction and again on drop, recording the
/// elapsed nanoseconds. Built with `None` (telemetry disabled) it reads
/// no clock at all — the disabled path is a single branch.
///
/// ```
/// use sa_telemetry::{Histogram, StageTimer};
/// let hist = Histogram::new();
/// {
///     let _span = StageTimer::start(Some(&hist));
///     // ... the timed stage ...
/// }
/// assert_eq!(hist.count(), 1);
/// assert_eq!(StageTimer::start(None).is_live(), false);
/// ```
#[must_use = "the span is timed until the guard drops"]
pub struct StageTimer<'a> {
    target: Option<(&'a Histogram, Instant)>,
}

impl<'a> StageTimer<'a> {
    /// Start timing into `hist`; `None` disables the span entirely.
    #[inline]
    pub fn start(hist: Option<&'a Histogram>) -> Self {
        Self {
            target: hist.map(|h| (h, Instant::now())),
        }
    }

    /// Whether this span is actually recording.
    pub fn is_live(&self) -> bool {
        self.target.is_some()
    }
}

impl Drop for StageTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.target.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log2 bucket boundaries, pinned: 0 → bucket 0; 1 → 1;
    /// [2^(i−1), 2^i) → i; the top bucket absorbs the tail.
    #[test]
    fn bucket_boundaries_are_pinned() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        for i in 1..63 {
            // Each power of two opens a new bucket; the value just
            // below it still belongs to the previous one.
            let v = 1u64 << i;
            assert_eq!(bucket_index(v), (i + 1).min(BUCKETS - 1));
            assert_eq!(bucket_index(v - 1), i.min(BUCKETS - 1));
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Floors invert the mapping.
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(11), 1024);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_floor(i)), i);
        }
    }

    #[test]
    fn quantiles_come_from_bucket_floors() {
        let h = Histogram::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let s = h.snapshot("t", &[]);
        assert_eq!(s.count, 5);
        // p50 = 3rd of 5 samples = 400 → bucket floor 256.
        assert_eq!(s.p50(), Some(256));
        // p99 lands on the max sample, reported exactly.
        assert_eq!(s.p99(), Some(100_000));
        assert_eq!(s.max, 100_000);
        assert_eq!(s.mean(), Some(101_500.0 / 5.0));
        assert_eq!(HistogramSnapshot::empty("e").p50(), None);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let parts: Vec<HistogramSnapshot> = (0..3)
            .map(|k| {
                let h = Histogram::new();
                for i in 0..50u64 {
                    h.record(i * (k + 1) * 37 % 10_000);
                }
                h.snapshot("part", &[])
            })
            .collect();
        // (a ⊕ b) ⊕ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // c ⊕ b ⊕ a
        let mut rev = parts[2].clone();
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(left, rev);
        assert_eq!(left.count, 150);
    }

    #[test]
    fn stage_timer_records_once_and_disabled_is_free() {
        let h = Histogram::new();
        {
            let span = StageTimer::start(Some(&h));
            assert!(span.is_live());
        }
        assert_eq!(h.count(), 1);
        {
            let span = StageTimer::start(None);
            assert!(!span.is_live());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        let snap = h.snapshot("c", &[]);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
    }
}
