//! Packet preamble: Schmidl–Cox training symbol plus a channel-estimation
//! training symbol.
//!
//! Symbol 1 (detection/CFO): a 64-sample OFDM symbol with a fixed PN
//! sequence on the *even* subcarriers only. Loading only even bins makes
//! the time-domain waveform consist of two identical 32-sample halves —
//! the structure the Schmidl–Cox metric detects — while still occupying
//! the whole band. A cyclic prefix protects it against multipath.
//!
//! Symbol 2 (channel estimation): a fixed PN sequence on *all* occupied
//! subcarriers, used by the receiver for one-shot least-squares channel
//! estimation, like 802.11's LTF.

use crate::params::{carrier_to_bin, MAX_CARRIER, N_CP, N_FFT};
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::fft::ifft64;
use std::sync::OnceLock;

/// Deterministic ±1 PN value for subcarrier `k` (any `k != 0`);
/// a tiny xorshift keeps this self-contained and stable across runs.
fn pn(k: i32, salt: u64) -> f64 {
    let mut v = (k as i64 as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ salt;
    v ^= v >> 33;
    v = v.wrapping_mul(0xFF51AFD7ED558CCD);
    v ^= v >> 33;
    if v & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Scale applied to IFFT output so a fully-loaded symbol has O(1) mean
/// time-domain power (the IFFT's 1/N convention would otherwise leave
/// ~52/N² ≈ 0.013, making SNR bookkeeping unreadable).
pub fn time_scale() -> f64 {
    (N_FFT as f64).sqrt()
}

/// The preamble's constants, built once: both training symbols'
/// frequency-domain contents and the time-domain waveform. The receiver
/// reads the waveform (matched filter) and the LTF (channel estimate)
/// for every packet, so neither is rebuilt per packet.
struct Preamble {
    sc_freq: [C64; N_FFT],
    ltf_freq: [C64; N_FFT],
    time: [C64; PREAMBLE_LEN],
}

fn preamble() -> &'static Preamble {
    static CACHE: OnceLock<Preamble> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut sc_freq = [ZERO; N_FFT];
        for k in (-MAX_CARRIER..=MAX_CARRIER).filter(|k| *k != 0 && k % 2 == 0) {
            sc_freq[carrier_to_bin(k)] = C64::new(pn(k, 0xA) * std::f64::consts::SQRT_2, 0.0);
        }
        let mut ltf_freq = [ZERO; N_FFT];
        for k in (-MAX_CARRIER..=MAX_CARRIER).filter(|k| *k != 0) {
            ltf_freq[carrier_to_bin(k)] = C64::new(pn(k, 0xB), 0.0);
        }
        let scale = time_scale();
        let mut time = [ZERO; PREAMBLE_LEN];
        for (freq, out) in [&sc_freq, &ltf_freq]
            .into_iter()
            .zip(time.chunks_exact_mut(N_CP + N_FFT))
        {
            let mut t = *freq;
            ifft64(&mut t);
            for z in t.iter_mut() {
                *z = z.scale(scale);
            }
            out[..N_CP].copy_from_slice(&t[N_FFT - N_CP..]);
            out[N_CP..].copy_from_slice(&t);
        }
        Preamble {
            sc_freq,
            ltf_freq,
            time,
        }
    })
}

/// Frequency-domain contents of the Schmidl–Cox symbol: PN on even
/// non-zero occupied carriers, boosted √2 to keep symbol energy nominal.
pub fn sc_symbol_freq() -> &'static [C64; N_FFT] {
    &preamble().sc_freq
}

/// Frequency-domain contents of the channel-estimation symbol: PN on all
/// occupied carriers.
pub fn ltf_symbol_freq() -> &'static [C64; N_FFT] {
    &preamble().ltf_freq
}

/// Time-domain preamble: CP + S&C symbol, then CP + LTF symbol.
/// Length = 2 × (16 + 64) = 160 samples.
pub fn preamble_time_ref() -> &'static [C64; PREAMBLE_LEN] {
    &preamble().time
}

/// Offset of the start of the S&C symbol's two identical halves within
/// [`preamble_time_ref`] (after its CP).
pub const SC_SYMBOL_OFFSET: usize = N_CP;

/// Half-length of the S&C symbol — feed this to
/// [`sa_sigproc::schmidl_cox::SchmidlCox::new`].
pub const SC_HALF_LEN: usize = N_FFT / 2;

/// Offset of the LTF symbol (post-CP) within [`preamble_time_ref`].
pub const LTF_SYMBOL_OFFSET: usize = 2 * N_CP + N_FFT;

/// Total preamble length in samples.
pub const PREAMBLE_LEN: usize = 2 * (N_CP + N_FFT);

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sigproc::schmidl_cox::SchmidlCox;

    fn time_symbol(freq: &[C64; N_FFT]) -> [C64; N_FFT] {
        let mut t = *freq;
        ifft64(&mut t);
        t
    }

    #[test]
    fn sc_symbol_halves_are_identical() {
        let t = time_symbol(sc_symbol_freq());
        for i in 0..N_FFT / 2 {
            assert!(
                t[i].approx_eq(t[i + N_FFT / 2], 1e-12),
                "sample {} differs",
                i
            );
        }
    }

    #[test]
    fn ltf_halves_differ() {
        let t = time_symbol(ltf_symbol_freq());
        let diff: f64 = (0..N_FFT / 2)
            .map(|i| (t[i] - t[i + N_FFT / 2]).norm_sqr())
            .sum();
        assert!(diff > 1e-3, "LTF halves should not repeat");
    }

    #[test]
    fn preamble_layout() {
        let p = preamble_time_ref();
        assert_eq!(p.len(), PREAMBLE_LEN);
        // CP is a copy of the symbol tail.
        let sc = time_symbol(sc_symbol_freq()).map(|z| z.scale(time_scale()));
        for i in 0..N_CP {
            assert!(p[i].approx_eq(sc[N_FFT - N_CP + i], 1e-12));
        }
        // Symbol follows its CP.
        for i in 0..N_FFT {
            assert!(p[SC_SYMBOL_OFFSET + i].approx_eq(sc[i], 1e-12));
        }
    }

    #[test]
    fn schmidl_cox_detects_own_preamble() {
        let mut buf = vec![ZERO; 512];
        let p = preamble_time_ref();
        buf[100..100 + p.len()].copy_from_slice(p);
        // Realistic trailing payload to suppress boundary plateaus.
        // (Pseudo-random, NOT a tone — a pure complex exponential is
        // periodic and would itself light up the S&C metric.)
        let mut state = 0x1234_5678_9abc_def0u64;
        for z in buf[100 + p.len()..100 + p.len() + 128].iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (state >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
            *z = C64::new(a, b);
        }
        let det = SchmidlCox::new(SC_HALF_LEN).detect(&buf);
        assert_eq!(det.len(), 1, "detections: {:?}", det);
        // Expected metric start: the two identical halves begin after the
        // CP, i.e. at 100 + SC_SYMBOL_OFFSET; allow the CP plateau slack.
        let expect = 100 + SC_SYMBOL_OFFSET;
        assert!(
            (det[0].start as i64 - expect as i64).unsigned_abs() <= N_CP as u64,
            "start {} expected ≈{}",
            det[0].start,
            expect
        );
    }

    #[test]
    fn pn_is_deterministic_and_mixed_sign() {
        let a: Vec<f64> = (1..=26).map(|k| pn(k, 0xA)).collect();
        let b: Vec<f64> = (1..=26).map(|k| pn(k, 0xA)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v > 0.0) && a.iter().any(|&v| v < 0.0));
    }

    #[test]
    fn preamble_energy_is_reasonable() {
        let p = preamble_time_ref();
        let pw = sa_sigproc::iq::mean_power(p);
        // 52 occupied carriers of unit/√2-boosted power in a 64-FFT:
        // mean time power is comfortably O(1).
        assert!(pw > 0.3 && pw < 3.0, "preamble power {}", pw);
    }
}
