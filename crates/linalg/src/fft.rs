//! The 64-point radix-2 FFT of the OFDM modem.
//!
//! `sa-phy` builds 64-subcarrier symbols (the 802.11 20 MHz grid), so the
//! one transform the workspace needs is 64 points long: [`fft64`] and
//! [`ifft64`] run the standard iterative in-place Cooley–Tukey algorithm
//! on a `[C64; 64]`. The bit-reversal permutation is a `const` table and
//! every butterfly's twiddle factor sits in one static, stage-packed
//! table built on first use, so the hot loop is pure multiply-add with no
//! trigonometry. Each of the six stages is its own const-generic
//! function, so the compiler unrolls it with every index known. The
//! naive `O(n²)` DFT is kept (non-`cfg(test)`, it also takes any length)
//! as the reference the tests and the property suite compare against.
//!
//! Convention: `fft64` computes `X[k] = Σ_n x[n]·e^{−j2πkn/64}` (no
//! scaling); `ifft64` applies the `1/64` factor so `ifft64(fft64(x)) == x`.

use crate::complex::{C64, ZERO};
use std::f64::consts::PI;
use std::sync::LazyLock;

/// Transform length of [`fft64`] and [`ifft64`].
pub const FFT_LEN: usize = 64;

/// `BITREV[i]` = the 6-bit reversal of `i` (the permutation's swap
/// targets).
const BITREV: [u8; FFT_LEN] = {
    let mut t = [0u8; FFT_LEN];
    let mut i = 0;
    while i < FFT_LEN {
        t[i] = (i.reverse_bits() >> (usize::BITS - FFT_LEN.trailing_zeros())) as u8;
        i += 1;
    }
    t
};

/// Twiddles packed per stage: for `len = 2, 4, …, 64` the stage's `len/2`
/// roots `e^{−j2πk/len}`, 63 entries in all. `[0]` is the forward table,
/// `[1]` its conjugate for the inverse.
static TWIDDLES: LazyLock<[[C64; FFT_LEN - 1]; 2]> = LazyLock::new(|| {
    let mut fwd = [ZERO; FFT_LEN - 1];
    let mut base = 0;
    let mut len = 2;
    while len <= FFT_LEN {
        let ang = -2.0 * PI / len as f64;
        for k in 0..len / 2 {
            fwd[base + k] = C64::cis(ang * k as f64);
        }
        base += len / 2;
        len <<= 1;
    }
    [fwd, fwd.map(|w| w.conj())]
});

/// In-place forward 64-point FFT.
///
/// ```
/// use sa_linalg::complex::c64;
/// use sa_linalg::fft::{dft_naive, fft64};
///
/// let x: [_; 64] = std::array::from_fn(|i| c64(i as f64, 0.0));
/// let mut y = x;
/// fft64(&mut y);
/// let slow = dft_naive(&x);
/// assert!(y.iter().zip(&slow).all(|(a, b)| a.approx_eq(*b, 1e-9)));
/// ```
pub fn fft64(x: &mut [C64; FFT_LEN]) {
    butterflies(x, &TWIDDLES[0]);
}

/// In-place inverse 64-point FFT (includes the `1/64` normalisation).
pub fn ifft64(x: &mut [C64; FFT_LEN]) {
    butterflies(x, &TWIDDLES[1]);
    let inv = 1.0 / FFT_LEN as f64;
    for z in x.iter_mut() {
        *z = z.scale(inv);
    }
}

fn butterflies(x: &mut [C64; FFT_LEN], tw: &[C64; FFT_LEN - 1]) {
    for (i, &j) in BITREV.iter().enumerate() {
        let j = j as usize;
        if j > i {
            x.swap(i, j);
        }
    }
    stage::<1>(x, tw);
    stage::<2>(x, tw);
    stage::<4>(x, tw);
    stage::<8>(x, tw);
    stage::<16>(x, tw);
    stage::<32>(x, tw);
}

/// One radix-2 stage of span `2·HALF`: every `2·HALF`-block's (low,
/// high) half pairs zipped with the stage's `HALF` twiddles, which sit at
/// `HALF − 1` in the packed table (the earlier stages hold `1 + 2 + … +
/// HALF/2` entries). With the span a constant the compiler unrolls the
/// stage completely; the butterflies and their order are the same as a
/// loop over the spans.
#[inline(always)]
fn stage<const HALF: usize>(x: &mut [C64; FFT_LEN], tw: &[C64; FFT_LEN - 1]) {
    let w = &tw[HALF - 1..2 * HALF - 1];
    for block in x.chunks_exact_mut(2 * HALF) {
        let (lo, hi) = block.split_at_mut(HALF);
        for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
            let u = *a;
            let v = *b * *w;
            *a = u + v;
            *b = u - v;
        }
    }
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

    fn fft_of(x: &[C64; FFT_LEN]) -> [C64; FFT_LEN] {
        let mut y = *x;
        fft64(&mut y);
        y
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = [ZERO; FFT_LEN];
        x[0] = c64(1.0, 0.0);
        fft64(&mut x);
        for z in &x {
            assert!(z.approx_eq(c64(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn dc_transforms_to_impulse() {
        let mut x = [c64(1.0, 0.0); FFT_LEN];
        fft64(&mut x);
        assert!(x[0].approx_eq(c64(64.0, 0.0), 1e-12));
        for z in &x[1..] {
            assert!(z.approx_eq(ZERO, 1e-12));
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = FFT_LEN;
        let k0 = 5;
        let x: [C64; FFT_LEN] =
            std::array::from_fn(|i| C64::cis(2.0 * PI * (k0 * i) as f64 / n as f64));
        let y = fft_of(&x);
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
        let x: [C64; FFT_LEN] =
            std::array::from_fn(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()));
        assert_close(&fft_of(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: [C64; FFT_LEN] =
            std::array::from_fn(|i| c64((i as f64 * 1.1).sin(), (i as f64 * 0.3).cos()));
        let mut y = fft_of(&x);
        ifft64(&mut y);
        assert_close(&x, &y, 1e-10);
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: [C64; FFT_LEN] =
            std::array::from_fn(|i| c64((i as f64).sin(), (i as f64 * 2.0).cos()));
        let y = fft_of(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn linearity() {
        let a: [C64; FFT_LEN] = std::array::from_fn(|i| c64(i as f64, -(i as f64)));
        let b: [C64; FFT_LEN] = std::array::from_fn(|i| c64((i as f64).cos(), 0.5));
        let sum: [C64; FFT_LEN] = std::array::from_fn(|i| a[i] + b[i]);
        let (fa, fb) = (fft_of(&a), fft_of(&b));
        let fa_fb: Vec<C64> = fa.iter().zip(fb.iter()).map(|(x, y)| *x + *y).collect();
        assert_close(&fft_of(&sum), &fa_fb, 1e-9);
    }

    /// The 64-point transform as the runtime-size plan ran it: bit
    /// reversal and twiddles derived at run time, butterflies with
    /// explicit indices, the same operations in the same order, and the
    /// inverse as the conjugate twiddles plus a `1/n` scale.
    fn indexed_butterflies(x: &mut [C64], inverse: bool) {
        let n = x.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits.max(1))) & (n - 1);
            if j > i {
                x.swap(i, j);
            }
        }
        let mut tw = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            for k in 0..len / 2 {
                tw.push(C64::cis(ang * k as f64));
            }
            len <<= 1;
        }
        if inverse {
            tw = tw.iter().map(|w| w.conj()).collect();
        }
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
        if inverse {
            let inv = 1.0 / n as f64;
            for z in x.iter_mut() {
                *z = z.scale(inv);
            }
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
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for _ in 0..64 {
            let x: [C64; FFT_LEN] = std::array::from_fn(|_| c64(next(), next()));
            for inverse in [false, true] {
                let mut old = x;
                indexed_butterflies(&mut old, inverse);
                let mut new = x;
                if inverse {
                    ifft64(&mut new);
                } else {
                    fft64(&mut new);
                }
                assert_eq!(bits(&old), bits(&new), "inverse={}", inverse);
            }
        }
    }

    /// The butterflies as one loop over the spans, before each stage
    /// became its own unrolled function: the same table, the same
    /// butterflies, the same order.
    fn stage_loop_butterflies(x: &mut [C64; FFT_LEN], tw: &[C64; FFT_LEN - 1]) {
        for (i, &j) in BITREV.iter().enumerate() {
            let j = j as usize;
            if j > i {
                x.swap(i, j);
            }
        }
        let mut len = 2;
        let mut base = 0;
        while len <= FFT_LEN {
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

    #[test]
    fn unrolled_stages_match_the_stage_loop_bitwise() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Uniform values, signed zeros, subnormals and values near 1e300.
        let special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300];
        let mut value = || {
            let r = next();
            let u = (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            match r % 4 {
                0 => special[(r >> 2) as usize % special.len()],
                1 => u * 1e300,
                2 => u * 1e-310,
                _ => u,
            }
        };
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for _ in 0..256 {
            let x: [C64; FFT_LEN] = std::array::from_fn(|_| c64(value(), value()));
            let mut old = x;
            stage_loop_butterflies(&mut old, &TWIDDLES[0]);
            let mut new = x;
            fft64(&mut new);
            assert_eq!(bits(&old), bits(&new), "forward");

            let mut old = x;
            stage_loop_butterflies(&mut old, &TWIDDLES[1]);
            for z in old.iter_mut() {
                *z = z.scale(1.0 / FFT_LEN as f64);
            }
            let mut new = x;
            ifft64(&mut new);
            assert_eq!(bits(&old), bits(&new), "inverse");
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
