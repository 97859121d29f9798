//! Radix-2 fast Fourier transform with precomputed plans.
//!
//! The OFDM modem in `sa-phy` builds 64-subcarrier symbols (the 802.11
//! 20 MHz grid), so only power-of-two sizes are required. We implement the
//! standard iterative in-place Cooley–Tukey algorithm with bit-reversal
//! permutation. An [`FftPlan`] precomputes the per-size setup — the
//! bit-reversal table and every butterfly's twiddle factor — so the hot
//! loop is pure multiply-add with no trigonometry; the free [`fft`]/
//! [`ifft`] functions run on a process-wide plan cache keyed by size, so
//! every call site gets the planned path without API churn. The naive
//! `O(n²)` DFT is kept (non-`cfg(test)`, it is also useful for odd-sized
//! diagnostics) as the reference implementation the tests and the
//! property suite compare against.
//!
//! Convention: `fft` computes `X[k] = Σ_n x[n]·e^{−j2πkn/N}` (no scaling);
//! `ifft` applies the `1/N` factor so `ifft(fft(x)) == x`.

use crate::complex::{C64, ZERO};
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, OnceLock};

/// A precomputed radix-2 FFT of one size: bit-reversal permutation table
/// plus per-stage twiddle factors for both directions. Building a plan
/// costs one pass of trigonometry; running it is pure arithmetic. Plans
/// are immutable and shareable (`Arc`) across threads; get a cached one
/// from [`plan_for`], or build an owned one with [`FftPlan::new`].
///
/// ```
/// use sa_linalg::complex::c64;
/// use sa_linalg::fft::{plan_for, dft_naive};
///
/// let plan = plan_for(8);
/// let x: Vec<_> = (0..8).map(|i| c64(i as f64, 0.0)).collect();
/// let mut y = x.clone();
/// plan.fft(&mut y);
/// let slow = dft_naive(&x);
/// assert!(y.iter().zip(&slow).all(|(a, b)| a.approx_eq(*b, 1e-9)));
/// ```
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// `bitrev[i]` = bit-reversed index of `i` (swap targets).
    bitrev: Vec<u32>,
    /// Forward twiddles, packed per stage: for `len = 2, 4, …, n` the
    /// stage's `len/2` roots `e^{−j2πk/len}` — `n − 1` entries total.
    tw_fwd: Vec<C64>,
    /// Inverse twiddles (the conjugates), same layout.
    tw_inv: Vec<C64>,
}

impl FftPlan {
    /// Build a plan for transforms of length `n`. Panics unless `n` is a
    /// power of two (`n == 1` is the trivial identity plan).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "fft: length {} is not a power of two",
            n
        );
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| ((i.reverse_bits() >> (usize::BITS - bits.max(1))) & (n - 1)) as u32)
            .collect();
        let mut tw_fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            for k in 0..len / 2 {
                tw_fwd.push(C64::cis(ang * k as f64));
            }
            len <<= 1;
        }
        let tw_inv = tw_fwd.iter().map(|w| w.conj()).collect();
        Self {
            n,
            bitrev,
            tw_fwd,
            tw_inv,
        }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — a plan's length is at least 1 (this exists only to
    /// pair with [`FftPlan::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT. Panics if `x.len()` differs from the plan's.
    pub fn fft(&self, x: &mut [C64]) {
        self.run(x, false);
    }

    /// In-place inverse FFT (includes the `1/N` normalisation). Panics
    /// if `x.len()` differs from the plan's.
    pub fn ifft(&self, x: &mut [C64]) {
        self.run(x, true);
        let inv = 1.0 / self.n as f64;
        for z in x.iter_mut() {
            *z = z.scale(inv);
        }
    }

    /// Out-of-place convenience wrapper over [`FftPlan::fft`].
    pub fn fft_owned(&self, x: &[C64]) -> Vec<C64> {
        let mut y = x.to_vec();
        self.fft(&mut y);
        y
    }

    /// Out-of-place convenience wrapper over [`FftPlan::ifft`].
    pub fn ifft_owned(&self, x: &[C64]) -> Vec<C64> {
        let mut y = x.to_vec();
        self.ifft(&mut y);
        y
    }

    fn run(&self, x: &mut [C64], inverse: bool) {
        let n = self.n;
        assert_eq!(
            x.len(),
            n,
            "fft: buffer length {} for plan of {}",
            x.len(),
            n
        );
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation from the table.
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                x.swap(i, j);
            }
        }
        // Butterflies with precomputed twiddles.
        let tw = if inverse { &self.tw_inv } else { &self.tw_fwd };
        // Each stage walks its `len`-blocks as (low, high) half pairs
        // zipped with the stage's twiddles, so the inner loop carries no
        // index arithmetic or bounds checks.
        let mut len = 2;
        let mut base = 0;
        while len <= n {
            let half = len / 2;
            let stage = &tw[base..base + half];
            for block in x.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let u = *a;
                    let v = *b * *w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            base += half;
            len <<= 1;
        }
    }
}

/// The process-wide plan cache behind the free [`fft`]/[`ifft`]
/// functions: one immutable [`FftPlan`] per size, built on first use and
/// shared from then on (the modem asks for the 64-point plan once per
/// packet instead of re-deriving twiddles per symbol).
pub fn plan_for(n: usize) -> Arc<FftPlan> {
    assert!(
        n.is_power_of_two(),
        "fft: length {} is not a power of two",
        n
    );
    static PLANS: OnceLock<Mutex<Vec<Option<Arc<FftPlan>>>>> = OnceLock::new();
    let cache = PLANS.get_or_init(|| Mutex::new(Vec::new()));
    let slot = n.trailing_zeros() as usize;
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    if cache.len() <= slot {
        cache.resize(slot + 1, None);
    }
    cache[slot]
        .get_or_insert_with(|| Arc::new(FftPlan::new(n)))
        .clone()
}

/// In-place forward FFT on the cached plan for `x.len()`. Panics unless
/// `x.len()` is a power of two.
pub fn fft(x: &mut [C64]) {
    if x.len() <= 1 {
        return;
    }
    plan_for(x.len()).fft(x);
}

/// In-place inverse FFT (includes the `1/N` normalisation), on the
/// cached plan for `x.len()`. Panics unless `x.len()` is a power of two.
pub fn ifft(x: &mut [C64]) {
    if x.len() <= 1 {
        return;
    }
    plan_for(x.len()).ifft(x);
}

/// Out-of-place convenience wrapper over [`fft`].
pub fn fft_owned(x: &[C64]) -> Vec<C64> {
    let mut y = x.to_vec();
    fft(&mut y);
    y
}

/// Out-of-place convenience wrapper over [`ifft`].
pub fn ifft_owned(x: &[C64]) -> Vec<C64> {
    let mut y = x.to_vec();
    ifft(&mut y);
    y
}

/// Naive `O(n²)` DFT, any length. Reference implementation for tests and
/// odd-length diagnostics.
pub fn dft_naive(x: &[C64]) -> Vec<C64> {
    let n = x.len();
    let mut out = vec![ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (i, &xi) in x.iter().enumerate() {
            let ang = -2.0 * PI * (k * i) as f64 / n as f64;
            *o += xi * C64::cis(ang);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                x.approx_eq(*y, tol),
                "mismatch: {} vs {} (tol {})",
                x,
                y,
                tol
            );
        }
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![ZERO; 8];
        x[0] = c64(1.0, 0.0);
        fft(&mut x);
        for z in &x {
            assert!(z.approx_eq(c64(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn dc_transforms_to_impulse() {
        let mut x = vec![c64(1.0, 0.0); 16];
        fft(&mut x);
        assert!(x[0].approx_eq(c64(16.0, 0.0), 1e-12));
        for z in &x[1..] {
            assert!(z.approx_eq(ZERO, 1e-12));
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<C64> = (0..n)
            .map(|i| C64::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        let y = fft_owned(&x);
        for (k, z) in y.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<C64> = (0..32)
            .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let fast = fft_owned(&x);
        let slow = dft_naive(&x);
        assert_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<C64> = (0..128)
            .map(|i| c64((i as f64 * 1.1).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let y = ifft_owned(&fft_owned(&x));
        assert_close(&x, &y, 1e-10);
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<C64> = (0..64)
            .map(|i| c64((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let y = fft_owned(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn linearity() {
        let a: Vec<C64> = (0..16).map(|i| c64(i as f64, -(i as f64))).collect();
        let b: Vec<C64> = (0..16).map(|i| c64((i as f64).cos(), 0.5)).collect();
        let sum: Vec<C64> = a.iter().zip(b.iter()).map(|(x, y)| *x + *y).collect();
        let fa = fft_owned(&a);
        let fb = fft_owned(&b);
        let fsum = fft_owned(&sum);
        let fa_fb: Vec<C64> = fa.iter().zip(fb.iter()).map(|(x, y)| *x + *y).collect();
        assert_close(&fsum, &fa_fb, 1e-9);
    }

    #[test]
    fn tiny_sizes() {
        let mut x1 = vec![c64(2.5, -1.0)];
        fft(&mut x1);
        assert!(x1[0].approx_eq(c64(2.5, -1.0), 0.0));

        let mut x2 = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        fft(&mut x2);
        assert!(x2[0].approx_eq(c64(1.0, 1.0), 1e-14));
        assert!(x2[1].approx_eq(c64(1.0, -1.0), 1e-14));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn plan_matches_free_functions_bitwise() {
        // The free functions run on the cached plan; an owned plan of
        // the same size must agree exactly.
        for n in [1usize, 2, 8, 64, 256] {
            let x: Vec<C64> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin(), (i as f64 * 0.2).cos()))
                .collect();
            let plan = FftPlan::new(n);
            assert_eq!(plan.len(), n);
            assert!(!plan.is_empty());
            assert_eq!(plan.fft_owned(&x), fft_owned(&x), "fft n={}", n);
            assert_eq!(plan.ifft_owned(&x), ifft_owned(&x), "ifft n={}", n);
        }
    }

    /// The butterfly loop as it was before it moved to
    /// `chunks_exact_mut`/`split_at_mut`: explicit indices, same
    /// operations in the same order.
    fn indexed_butterflies(plan: &FftPlan, x: &mut [C64]) {
        let n = plan.n;
        for i in 0..n {
            let j = plan.bitrev[i] as usize;
            if j > i {
                x.swap(i, j);
            }
        }
        let tw = &plan.tw_fwd;
        let mut len = 2;
        let mut base = 0;
        while len <= n {
            let half = len / 2;
            let stage = &tw[base..base + half];
            let mut i = 0;
            while i < n {
                for (k, w) in stage.iter().enumerate() {
                    let u = x[i + k];
                    let v = x[i + k + half] * *w;
                    x[i + k] = u + v;
                    x[i + k + half] = u - v;
                }
                i += len;
            }
            base += half;
            len <<= 1;
        }
    }

    #[test]
    fn butterflies_match_the_indexed_loop_bitwise() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for bits in 1..=10 {
            let n = 1usize << bits;
            let plan = FftPlan::new(n);
            for _ in 0..8 {
                let x: Vec<C64> = (0..n).map(|_| c64(next(), next())).collect();
                let mut old = x.clone();
                indexed_butterflies(&plan, &mut old);
                let new = plan.fft_owned(&x);
                let same = old.iter().zip(&new).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(same, "n={} differs from the indexed loop", n);
            }
        }
    }

    #[test]
    fn plan_cache_returns_shared_plans() {
        let a = plan_for(64);
        let b = plan_for(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(plan_for(128).len(), 128);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut x = vec![ZERO; 16];
        plan.fft(&mut x);
    }

    #[test]
    fn plan_matches_naive_dft() {
        for n in [4usize, 32, 128] {
            let x: Vec<C64> = (0..n)
                .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            let fast = FftPlan::new(n).fft_owned(&x);
            let slow = dft_naive(&x);
            assert_close(&fast, &slow, 1e-9);
        }
    }

    #[test]
    fn naive_dft_handles_odd_lengths() {
        let x: Vec<C64> = (0..7).map(|i| c64(i as f64, 0.0)).collect();
        let y = dft_naive(&x);
        // DC bin is the plain sum.
        assert!((y[0].re - 21.0).abs() < 1e-9);
        assert!(y[0].im.abs() < 1e-9);
    }
}
