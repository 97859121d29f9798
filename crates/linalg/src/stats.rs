//! Descriptive statistics and Student-t confidence intervals.
//!
//! The paper reports bearing estimates as "the mean obtained bearing as
//! well as 99% confidence interval" over 10 packets per client (Fig 5) and
//! accuracy claims "with 95% confidence" (§2.3.1). Those intervals are
//! classical Student-t intervals on small samples, so we need t quantiles;
//! they are computed exactly (regularised incomplete beta + bisection)
//! rather than from a hard-coded table so any confidence level works.

/// Arithmetic mean. Returns NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (divides by `n − 1`). NaN for `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation percentile, `p` in `[0, 1]`. Sorts a copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile: p must be in [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = p * (v.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = idx - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval (`mean ± half_width`).
    pub half_width: f64,
    /// Confidence level used, e.g. `0.99`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }
    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
    /// True if `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

/// Student-t confidence interval for the mean of `xs` at the given
/// two-sided `level` (e.g. `0.99` for the paper's Fig-5 error bars).
///
/// For `n == 1` the half-width is infinite (no variance information).
pub fn t_confidence_interval(xs: &[f64], level: f64) -> ConfidenceInterval {
    assert!((0.0..1.0).contains(&level) && level > 0.0);
    let n = xs.len();
    let m = mean(xs);
    if n < 2 {
        return ConfidenceInterval {
            mean: m,
            half_width: f64::INFINITY,
            level,
        };
    }
    let s = std_dev(xs);
    let t = t_quantile(1.0 - (1.0 - level) / 2.0, (n - 1) as f64);
    ConfidenceInterval {
        mean: m,
        half_width: t * s / (n as f64).sqrt(),
        level,
    }
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for the Lanczos approximation.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularised incomplete beta function `I_x(a, b)` via the continued
/// fraction expansion (Numerical Recipes `betacf` scheme).
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "inc_beta: x must be in [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry that makes the continued fraction converge fast.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * betacf(b, a, 1.0 - x) / b
    }
}

fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the Student-t distribution with `nu` degrees of freedom.
pub fn t_cdf(t: f64, nu: f64) -> f64 {
    assert!(nu > 0.0);
    if t == 0.0 {
        return 0.5;
    }
    let x = nu / (nu + t * t);
    let p = 0.5 * inc_beta(nu / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Quantile (inverse CDF) of the Student-t distribution, by bisection on
/// [`t_cdf`]. `p` in `(0, 1)`.
pub fn t_quantile(p: f64, nu: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "t_quantile: p in (0,1)");
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Bracket: |t| quantiles are modest for p <= 0.9999 and nu >= 1.
    let (mut lo, mut hi) = (-1e4, 1e4);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, nu) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.abs().max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance with n−1 = 7: Σ(x−5)² = 32 → 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        // Order must not matter.
        let sh = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&sh) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_boundaries_and_symmetry() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        let v = inc_beta(2.5, 1.5, 0.3);
        let w = 1.0 - inc_beta(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-12);
        // I_x(1,1) = x (uniform distribution).
        assert!((inc_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn t_cdf_symmetry_and_midpoint() {
        assert!((t_cdf(0.0, 5.0) - 0.5).abs() < 1e-14);
        let p = t_cdf(1.3, 7.0);
        let q = t_cdf(-1.3, 7.0);
        assert!((p + q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn t_quantile_reference_values() {
        // Classical table values.
        assert!((t_quantile(0.975, 9.0) - 2.2621571628).abs() < 1e-6);
        assert!((t_quantile(0.995, 9.0) - 3.2498355416).abs() < 1e-6);
        assert!((t_quantile(0.975, 1.0) - 12.7062047364).abs() < 1e-4);
        // Large nu approaches the normal quantile 1.95996.
        assert!((t_quantile(0.975, 1e6) - 1.959964).abs() < 1e-3);
    }

    #[test]
    fn t_quantile_inverts_cdf() {
        for &nu in &[1.0, 4.0, 9.0, 30.0] {
            for &p in &[0.05, 0.25, 0.5, 0.9, 0.995] {
                let t = t_quantile(p, nu);
                assert!(
                    (t_cdf(t, nu) - p).abs() < 1e-9,
                    "roundtrip failed nu={} p={}",
                    nu,
                    p
                );
            }
        }
    }

    #[test]
    fn confidence_interval_matches_hand_computation() {
        // n=10, s known ⇒ half-width = t(0.995, 9)·s/√10.
        let xs: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let ci = t_confidence_interval(&xs, 0.99);
        let s = std_dev(&xs);
        let expect = 3.2498355416 * s / 10f64.sqrt();
        assert!((ci.mean - 5.5).abs() < 1e-12);
        assert!((ci.half_width - expect).abs() < 1e-6);
        assert!(ci.contains(5.5));
        assert!(!ci.contains(100.0));
    }

    #[test]
    fn single_sample_interval_is_infinite() {
        let ci = t_confidence_interval(&[3.0], 0.95);
        assert_eq!(ci.mean, 3.0);
        assert!(ci.half_width.is_infinite());
    }
}
