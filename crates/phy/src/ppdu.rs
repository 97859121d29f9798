//! PPDU framing: payload bytes ↔ a complete baseband packet waveform.
//!
//! Transmit chain: length header + payload → bits → constellation
//! symbols → 48-carrier OFDM symbols with BPSK pilots → IFFT + cyclic
//! prefix → preamble prepended. Receive chain: Schmidl–Cox coarse
//! detection + CFO estimate → matched-filter fine timing on the known
//! preamble → LTF least-squares channel estimate → per-symbol
//! equalisation with pilot common-phase tracking → hard demap. This is
//! the same structure the paper's Matlab/WARPLab receiver implements
//! before handing samples to the AoA machinery.
//!
//! [`Receiver::decode`] runs that chain in one pass over the capture,
//! touching only the samples it uses:
//!
//! - **Detection** stops at the first Schmidl–Cox region
//!   ([`SchmidlCox::detect_first`]) instead of scanning the whole buffer.
//! - **CFO correction** `e^{−jφn}` is applied where samples are read,
//!   never to a copy of the whole capture. The matched filter's ≤192
//!   samples get the exact per-sample phasor (so `start` is the same as
//!   rotating everything). Each 64-sample FFT window (the LTF and every
//!   data symbol) gets a per-window anchor `e^{−jφn₀}` times a
//!   per-packet table `e^{−jφk}`, one `cis` per window instead of 64.
//! - **Fine timing** computes each span sample's `|r|²` once and scores
//!   the lags four at a time on independent sums, each lag in the same
//!   sample order as a one-lag loop, so `start` is bit-for-bit the same.
//! - **Equalisation** multiplies by a per-packet `1/h` table (the same
//!   arithmetic as dividing by `h`) over static pilot and data bin
//!   tables ([`PILOT_BINS`], [`DATA_BINS`]).
//! - **Demap** is [`Modulation::slice`]: each carrier's bits go MSB-first
//!   straight into the payload bytes, and EVM is measured against the
//!   same ideal point, with no per-carrier allocation.
//!
//! The decoder this replaced (whole-row `apply_cfo`, full detection
//! trace, per-carrier `demap` + `map`) is kept verbatim as the oracle in
//! `crates/phy/tests/decode_oracle.rs`, which pins identical payloads,
//! `start` and `cfo`, and EVM to 1e-6 dB.

use crate::modulation::{bytes_to_bits, Modulation};
use crate::params::{DATA_BINS, N_CP, N_FFT, PILOT_BINS, SYMBOL_LEN};
use crate::preamble::{
    ltf_symbol_freq, preamble_time_ref, LTF_SYMBOL_OFFSET, PREAMBLE_LEN, SC_HALF_LEN,
};
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::fft::{fft64, ifft64};
use sa_sigproc::schmidl_cox::SchmidlCox;

/// Errors the receiver can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyError {
    /// No Schmidl–Cox detection in the buffer.
    NoPacket,
    /// A packet started but the buffer ends before its payload does.
    TooShort,
    /// The decoded length field is implausible (corrupt header).
    BadLength,
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::NoPacket => write!(f, "no packet detected"),
            PhyError::TooShort => write!(f, "buffer truncates the packet"),
            PhyError::BadLength => write!(f, "implausible length header"),
        }
    }
}

impl std::error::Error for PhyError {}

/// Maximum payload the 16-bit length header may carry (bytes); generous
/// for an 0.4 ms capture.
pub const MAX_PAYLOAD: usize = 4095;

/// Pilot BPSK value for pilot index `p` in symbol `s` (sign-alternating
/// PN so pilots don't form a CW tone).
fn pilot_value(p: usize, s: usize) -> C64 {
    let v = (s.wrapping_mul(31) ^ p.wrapping_mul(17)) & 1;
    if v == 0 {
        C64::new(1.0, 0.0)
    } else {
        C64::new(-1.0, 0.0)
    }
}

/// OFDM transmitter for a fixed modulation.
#[derive(Debug, Clone, Copy)]
pub struct Transmitter {
    /// Constellation used on the data carriers.
    pub modulation: Modulation,
}

impl Transmitter {
    /// New transmitter.
    pub fn new(modulation: Modulation) -> Self {
        Self { modulation }
    }

    /// Number of OFDM data symbols a payload needs.
    pub fn n_symbols(&self, payload_len: usize) -> usize {
        let total_bits = (2 + payload_len) * 8;
        let bits_per_ofdm = 48 * self.modulation.bits_per_symbol();
        total_bits.div_ceil(bits_per_ofdm)
    }

    /// Total packet length in samples.
    pub fn packet_len(&self, payload_len: usize) -> usize {
        PREAMBLE_LEN + self.n_symbols(payload_len) * SYMBOL_LEN
    }

    /// Encode a payload into a baseband waveform (preamble + data
    /// symbols). Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn encode(&self, payload: &[u8]) -> Vec<C64> {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload {} exceeds {}",
            payload.len(),
            MAX_PAYLOAD
        );
        // Header: 16-bit big-endian length, then payload.
        let mut bytes = Vec::with_capacity(2 + payload.len());
        bytes.push((payload.len() >> 8) as u8);
        bytes.push((payload.len() & 0xff) as u8);
        bytes.extend_from_slice(payload);
        let bits = bytes_to_bits(&bytes);
        let symbols = self.modulation.map_stream(&bits);

        let n_sym = self.n_symbols(payload.len());
        let mut out = Vec::with_capacity(PREAMBLE_LEN + n_sym * SYMBOL_LEN);
        out.extend_from_slice(preamble_time_ref());
        let mut it = symbols.into_iter();
        // Unused tail slots carry a valid constellation point (all-zero
        // bits), not spectral nulls: zeros are not constellation points
        // and would read as errors in the receiver's EVM accounting.
        let pad = self
            .modulation
            .map(&vec![0u8; self.modulation.bits_per_symbol()]);
        let scale = crate::preamble::time_scale();
        // One symbol buffer for the whole packet: the per-symbol loop is
        // IFFT + copies, no allocation.
        let mut sym = [ZERO; N_FFT];
        for s in 0..n_sym {
            sym.fill(ZERO);
            for (p, &bin) in PILOT_BINS.iter().enumerate() {
                sym[bin] = pilot_value(p, s);
            }
            for &bin in &DATA_BINS {
                sym[bin] = it.next().unwrap_or(pad);
            }
            ifft64(&mut sym);
            for z in sym.iter_mut() {
                *z = z.scale(scale);
            }
            out.extend_from_slice(&sym[N_FFT - N_CP..]); // CP
            out.extend_from_slice(&sym);
        }
        out
    }
}

/// A successfully decoded packet.
#[derive(Debug, Clone)]
pub struct DecodedPacket {
    /// Recovered payload bytes.
    pub payload: Vec<u8>,
    /// Sample index where the preamble was found.
    pub start: usize,
    /// Estimated CFO, radians/sample.
    pub cfo: f64,
    /// Error-vector magnitude over all data symbols, dB (lower = better;
    /// −20 dB ≈ comfortable hard-decision margin for 16-QAM).
    pub evm_db: f64,
}

/// OFDM receiver for a fixed modulation.
#[derive(Debug, Clone, Copy)]
pub struct Receiver {
    /// Constellation expected on the data carriers.
    pub modulation: Modulation,
}

impl Receiver {
    /// New receiver; detection runs at the Schmidl–Cox default
    /// threshold (0.5).
    pub fn new(modulation: Modulation) -> Self {
        Self { modulation }
    }

    /// Decode the first packet in `buffer`.
    pub fn decode(&self, buffer: &[C64]) -> Result<DecodedPacket, PhyError> {
        let det = SchmidlCox::new(SC_HALF_LEN)
            .detect_first(buffer)
            .ok_or(PhyError::NoPacket)?;
        // Undoing the CFO multiplies sample `n` by cis(phi·n).
        let phi = -det.cfo;

        // Fine timing: matched filter against the known preamble around
        // the coarse estimate (S&C points at the start of the two
        // identical halves, i.e. one CP after the true preamble start).
        let pre = preamble_time_ref();
        let coarse = det.start.saturating_sub(N_CP);
        let lo = coarse.saturating_sub(N_CP);
        let hi = (coarse + N_CP).min(buffer.len().saturating_sub(pre.len()));
        // The second test catches a buffer shorter than the preamble.
        if lo > hi || hi + pre.len() > buffer.len() {
            return Err(PhyError::TooShort);
        }
        // The filter's span, rotated by the exact per-sample phasor.
        let mut span = [ZERO; 2 * N_CP + PREAMBLE_LEN];
        let span = &mut span[..hi - lo + pre.len()];
        for (i, (o, &z)) in span.iter_mut().zip(&buffer[lo..]).enumerate() {
            *o = z * C64::cis(phi * (lo + i) as f64);
        }
        let start = lo + fine_timing(span, pre);

        // An FFT window starting at n₀ is rotated by cis(phi·n₀)·cis(phi·k):
        // one anchor phasor per window times this per-packet table.
        let table: [C64; N_FFT] = std::array::from_fn(|k| C64::cis(phi * k as f64));
        let load = |n0: usize, out: &mut [C64; N_FFT]| {
            let anchor = C64::cis(phi * n0 as f64);
            for ((o, &z), &t) in out.iter_mut().zip(&buffer[n0..n0 + N_FFT]).zip(&table) {
                *o = z * (anchor * t);
            }
        };

        // Channel estimate from the LTF symbol, kept as `1/h` plus a
        // live-bin mask.
        let ltf_start = start + LTF_SYMBOL_OFFSET;
        if ltf_start + N_FFT > buffer.len() {
            return Err(PhyError::TooShort);
        }
        let mut yf = [ZERO; N_FFT];
        load(ltf_start, &mut yf);
        fft64(&mut yf);
        let x = ltf_symbol_freq();
        let mut h_inv = [ZERO; N_FFT];
        let mut live = [false; N_FFT];
        for bin in 0..N_FFT {
            let h = if x[bin].norm_sqr() > 0.0 {
                yf[bin] / x[bin]
            } else {
                ZERO
            };
            live[bin] = h.norm_sqr() > 1e-12;
            h_inv[bin] = h.recip();
        }

        // Decode data symbols until the length header tells us to stop.
        // Bits go MSB-first into `bytes` through a small accumulator.
        let bps = self.modulation.bits_per_symbol();
        let mut bytes: Vec<u8> = Vec::with_capacity(N_DATA_BYTES_MAX);
        let mut acc = 0u32;
        let mut n_acc = 0usize;
        let mut needed_bytes: Option<usize> = None;
        let mut evm_num = 0.0f64;
        let mut evm_den = 0.0f64;
        let mut s = 0usize;
        loop {
            if let Some(nb) = needed_bytes {
                if bytes.len() >= nb {
                    break;
                }
            }
            let sym_start = start + PREAMBLE_LEN + s * SYMBOL_LEN + N_CP;
            if sym_start + N_FFT > buffer.len() {
                return Err(PhyError::TooShort);
            }
            load(sym_start, &mut yf);
            fft64(&mut yf);
            // Equalise, then pilot common-phase correction (residual CFO
            // accumulates a per-symbol rotation).
            let mut rot_acc = ZERO;
            for (p, &bin) in PILOT_BINS.iter().enumerate() {
                if live[bin] {
                    let z = yf[bin] * h_inv[bin];
                    rot_acc += z * pilot_value(p, s).conj();
                }
            }
            let rot = if rot_acc.abs() > 1e-12 {
                C64::cis(-rot_acc.arg())
            } else {
                C64::new(1.0, 0.0)
            };
            for &bin in &DATA_BINS {
                let bits = if live[bin] {
                    let z = (yf[bin] * h_inv[bin]) * rot;
                    let (bits, ideal) = self.modulation.slice(z);
                    evm_num += (z - ideal).norm_sqr();
                    evm_den += 1.0;
                    bits
                } else {
                    0
                };
                acc = (acc << bps) | u32::from(bits);
                n_acc += bps;
                if n_acc >= 8 {
                    n_acc -= 8;
                    bytes.push((acc >> n_acc) as u8);
                }
            }
            if needed_bytes.is_none() && bytes.len() >= 2 {
                let len = ((bytes[0] as usize) << 8) | bytes[1] as usize;
                if len > MAX_PAYLOAD {
                    return Err(PhyError::BadLength);
                }
                needed_bytes = Some(2 + len);
                bytes.reserve(2 + len + N_DATA_BYTES_MAX);
            }
            s += 1;
            if s > 4096 {
                return Err(PhyError::BadLength);
            }
        }

        let nb = needed_bytes.expect("loop exits only with a length");
        bytes.truncate(nb);
        bytes.drain(..2);
        let evm_db = if evm_den > 0.0 {
            10.0 * (evm_num / evm_den).log10()
        } else {
            f64::NEG_INFINITY
        };
        Ok(DecodedPacket {
            payload: bytes,
            start,
            cfo: det.cfo,
            evm_db,
        })
    }
}

/// Lags the matched filter scores at once, each on its own accumulators.
const LAG_BLOCK: usize = 4;

/// Matched-filter fine timing: the lag (offset into the CFO-rotated
/// `span`) whose window best matches the preamble `pre`, scored as
/// `|Σ pre*·r|² / (1e-30 + Σ |r|²)`; the first maximum wins.
///
/// `|r|²` is computed once per sample, and lags run in blocks of
/// [`LAG_BLOCK`] whose independent sums overlap in the pipeline. Each
/// lag still sums its own window in sample order from the same start,
/// so every score has the bits a one-lag-at-a-time loop gives it; the
/// lags after the last full block take that loop.
fn fine_timing(span: &[C64], pre: &[C64]) -> usize {
    let mut pow = [0.0; 2 * N_CP + PREAMBLE_LEN];
    let pow = &mut pow[..span.len()];
    for (e, r) in pow.iter_mut().zip(span) {
        *e = r.norm_sqr();
    }
    let n_lags = span.len() + 1 - pre.len();
    let mut best = (0, f64::NEG_INFINITY);
    let mut offer = |lag: usize, acc: C64, energy: f64| {
        let score = acc.norm_sqr() / energy;
        if score > best.1 {
            best = (lag, score);
        }
    };
    let full = n_lags - n_lags % LAG_BLOCK;
    for lag in (0..full).step_by(LAG_BLOCK) {
        let win = &span[lag..lag + pre.len() + LAG_BLOCK - 1];
        let pw = &pow[lag..lag + pre.len() + LAG_BLOCK - 1];
        let mut acc = [ZERO; LAG_BLOCK];
        let mut energy = [1e-30; LAG_BLOCK];
        for ((&pi, r), e) in pre
            .iter()
            .zip(win.windows(LAG_BLOCK))
            .zip(pw.windows(LAG_BLOCK))
        {
            let c = pi.conj();
            for j in 0..LAG_BLOCK {
                acc[j] += c * r[j];
                energy[j] += e[j];
            }
        }
        for j in 0..LAG_BLOCK {
            offer(lag + j, acc[j], energy[j]);
        }
    }
    for lag in full..n_lags {
        let mut acc = ZERO;
        let mut energy = 1e-30;
        for ((&pi, &r), &e) in pre.iter().zip(&span[lag..]).zip(&pow[lag..]) {
            acc += pi.conj() * r;
            energy += e;
        }
        offer(lag, acc, energy);
    }
    best.0
}

/// Most payload bytes one OFDM symbol can carry (48 carriers × 4 bits).
const N_DATA_BYTES_MAX: usize = DATA_BINS.len() * 4 / 8;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_sigproc::iq::apply_cfo;
    use sa_sigproc::noise::{add_noise, cn_vector};

    fn tx_rx(m: Modulation) -> (Transmitter, Receiver) {
        (Transmitter::new(m), Receiver::new(m))
    }

    fn in_buffer(wave: &[C64], offset: usize, total: usize) -> Vec<C64> {
        let mut buf = vec![ZERO; total];
        buf[offset..offset + wave.len()].copy_from_slice(wave);
        buf
    }

    #[test]
    fn clean_loopback_all_modulations() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let (tx, rx) = tx_rx(m);
            let payload: Vec<u8> = (0..100u8).collect();
            let wave = tx.encode(&payload);
            let buf = in_buffer(&wave, 50, wave.len() + 200);
            let pkt = rx.decode(&buf).expect("decode");
            assert_eq!(pkt.payload, payload, "{:?}", m);
            assert!(
                (pkt.start as i64 - 50).unsigned_abs() <= 2,
                "start {}",
                pkt.start
            );
            assert!(pkt.evm_db < -30.0, "{:?} EVM {}", m, pkt.evm_db);
        }
    }

    #[test]
    fn loopback_with_cfo() {
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let payload = b"carrier offset resilience".to_vec();
        let wave = tx.encode(&payload);
        let mut buf = in_buffer(&wave, 80, wave.len() + 200);
        apply_cfo(&mut buf, 0.02);
        let pkt = rx.decode(&buf).expect("decode under CFO");
        assert_eq!(pkt.payload, payload);
        assert!((pkt.cfo - 0.02).abs() < 2e-3, "cfo {}", pkt.cfo);
    }

    #[test]
    fn loopback_with_noise_20db() {
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let payload: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        let wave = tx.encode(&payload);
        let sig_pow = sa_sigproc::iq::mean_power(&wave);
        let mut buf = in_buffer(&wave, 64, wave.len() + 256);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        add_noise(&mut rng, &mut buf, sig_pow / 100.0); // 20 dB
        let pkt = rx.decode(&buf).expect("decode at 20 dB");
        assert_eq!(pkt.payload, payload);
        assert!(pkt.evm_db < -10.0);
    }

    #[test]
    fn noise_only_reports_no_packet() {
        let rx = Receiver::new(Modulation::Qpsk);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let buf = cn_vector(&mut rng, 4000, 1.0);
        assert_eq!(rx.decode(&buf).unwrap_err(), PhyError::NoPacket);
    }

    #[test]
    fn truncated_packet_reports_too_short() {
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let wave = tx.encode(&[0xAB; 300]);
        // Cut the buffer in the middle of the data symbols.
        let cut = PREAMBLE_LEN + SYMBOL_LEN; // keep preamble + 1 symbol
        let buf = in_buffer(&wave[..cut + PREAMBLE_LEN], 0, cut + PREAMBLE_LEN);
        assert_eq!(rx.decode(&buf).unwrap_err(), PhyError::TooShort);
    }

    #[test]
    fn buffer_shorter_than_the_preamble_is_too_short() {
        // Every cut of a packet's head that the detector still fires on
        // must come back as a typed error; none may index past the end.
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let wave = tx.encode(&[0x5A; 40]);
        let mut too_short = 0;
        for cut in 0..PREAMBLE_LEN {
            match rx.decode(&wave[..cut]) {
                Err(PhyError::TooShort) => too_short += 1,
                other => assert_eq!(other.map(|p| p.start).unwrap_err(), PhyError::NoPacket),
            }
        }
        assert!(too_short > 0, "no cut reached the matched filter");
    }

    #[test]
    fn empty_payload_roundtrip() {
        let (tx, rx) = tx_rx(Modulation::Bpsk);
        let wave = tx.encode(&[]);
        let buf = in_buffer(&wave, 10, wave.len() + 100);
        let pkt = rx.decode(&buf).expect("decode empty");
        assert!(pkt.payload.is_empty());
    }

    #[test]
    fn packet_length_accounting() {
        let tx = Transmitter::new(Modulation::Qpsk);
        // 2 + 10 bytes = 96 bits; QPSK carries 96/symbol ⇒ 1 symbol.
        assert_eq!(tx.n_symbols(10), 1);
        assert_eq!(tx.packet_len(10), PREAMBLE_LEN + SYMBOL_LEN);
        assert_eq!(tx.encode(&[0u8; 10]).len(), tx.packet_len(10));
        // 16-QAM: 192 bits/symbol.
        let tx16 = Transmitter::new(Modulation::Qam16);
        assert_eq!(tx16.n_symbols(22), 1); // 192 bits exactly
        assert_eq!(tx16.n_symbols(23), 2);
    }

    #[test]
    fn multipath_two_tap_channel_still_decodes() {
        // A second tap inside the CP: the equaliser must absorb it.
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let payload = b"cyclic prefix does its job".to_vec();
        let wave = tx.encode(&payload);
        let mut buf = in_buffer(&wave, 40, wave.len() + 200);
        let echo: Vec<C64> = {
            let delayed = sa_sigproc::iq::delay_signal(&buf, 5.0);
            delayed
                .iter()
                .map(|z| *z * C64::from_polar(0.4, 1.0))
                .collect()
        };
        for (b, e) in buf.iter_mut().zip(echo.iter()) {
            *b += *e;
        }
        let pkt = rx.decode(&buf).expect("decode through 2-tap channel");
        assert_eq!(pkt.payload, payload);
    }

    /// Fine timing one lag at a time, as the receiver ran it before the
    /// lag blocks.
    fn one_lag_fine_timing(span: &[C64], pre: &[C64]) -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        for (p, win) in span.windows(pre.len()).enumerate() {
            let mut acc = ZERO;
            let mut energy = 1e-30;
            for (&pi, &r) in pre.iter().zip(win) {
                acc += pi.conj() * r;
                energy += r.norm_sqr();
            }
            let score = acc.norm_sqr() / energy;
            if score > best.1 {
                best = (p, score);
            }
        }
        best.0
    }

    #[test]
    fn lag_blocks_pick_the_lag_one_lag_at_a_time_picks() {
        // Every span length the receiver can cut (1 to 33 lags), over
        // noise, a buried preamble, a periodic span whose lags tie, and
        // spans holding zeros or a NaN.
        let pre = preamble_time_ref();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for len in pre.len()..=2 * N_CP + PREAMBLE_LEN {
            for kind in 0..5 {
                let mut span = cn_vector(&mut rng, len, 1.0);
                match kind {
                    1 => {
                        let at = len - pre.len();
                        for (s, &p) in span[at / 2..].iter_mut().zip(pre.iter()) {
                            *s += p * C64::new(4.0, -1.0);
                        }
                    }
                    2 => {
                        for i in 0..len {
                            span[i] = span[i % 16];
                        }
                    }
                    3 => span.fill(ZERO),
                    4 => span[len / 3] = C64::new(f64::NAN, 0.0),
                    _ => {}
                }
                assert_eq!(
                    fine_timing(&span, pre),
                    one_lag_fine_timing(&span, pre),
                    "span {len}, kind {kind}"
                );
            }
        }
    }

    #[test]
    fn max_payload_enforced() {
        let tx = Transmitter::new(Modulation::Qam16);
        let wave = tx.encode(&vec![0u8; MAX_PAYLOAD]);
        assert!(!wave.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversize_payload_panics() {
        let tx = Transmitter::new(Modulation::Qam16);
        let _ = tx.encode(&vec![0u8; MAX_PAYLOAD + 1]);
    }
}
