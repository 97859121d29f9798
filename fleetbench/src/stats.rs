//! Order statistics for the benchmark's reports.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least ten samples beyond it, together with the sample
//! count: a p99 over 300 samples rests on three observations and reads
//! as noise, so [`tail`] steps down to the highest percentile the sample
//! count can support.

/// Percentiles [`tail`] considers, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples. The product
/// is nudged down before rounding up, so a percentile with no exact
/// binary form (99.9 / 100) does not land one rank high.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of percentile `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct / 100.0)
}

/// Does a sample of `n` support percentile `pct` — at least
/// [`MIN_BEYOND`] samples beyond it?
pub fn supports(n: usize, pct: f64) -> bool {
    n > 0 && beyond(n, pct) >= MIN_BEYOND
}

/// The highest supported percentile of a sample, with its value and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest of p99.9, p99, p95, p90 and p50 that has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the median
/// does (fewer than 20 samples). `sorted` must be ascending.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_PERCENTILES
        .iter()
        .find(|&&pct| supports(n, pct))
        .map(|&pct| Tail {
            pct,
            value: quantile(sorted, pct / 100.0),
            n,
        })
}

/// Sort a sample ascending (NaN-free by construction: every sample is a
/// measured duration or distance).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.95), 10.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn too_few_samples_support_no_percentile() {
        assert_eq!(tail(&[]), None);
        // 19 samples: the median's rank is 10, leaving 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn tail_steps_down_to_what_the_count_supports() {
        // Exactly ten beyond: 20 → p50, 200 → p95, 1000 → p99,
        // 10000 → p99.9.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (50.0, 10.0, 20));
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (95.0, 190.0, 200));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
    }

    #[test]
    fn one_short_of_ten_beyond_falls_to_the_next_percentile() {
        // 199 samples: p95's rank is 190 (9 beyond), p90's is 180.
        assert!(!supports(199, 95.0));
        let t = tail(&ramp(199)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90.0, 180.0, 199));
        // 999: p99 rank 990 leaves 9; p95 holds.
        assert_eq!(tail(&ramp(999)).unwrap().pct, 95.0);
    }

    #[test]
    fn tail_reads_the_sorted_order_not_the_input_order() {
        let v = sorted((1..=200).rev().map(|i| i as f64).collect());
        assert_eq!(tail(&v).unwrap().value, 190.0);
    }

    #[test]
    fn ratio_and_mean_handle_empty_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
