//! Oracle property suite for [`Receiver::decode`].
//!
//! `reference_decode` below is the receiver as it was before the
//! single-pass rebuild, kept verbatim: full Schmidl–Cox trace, `apply_cfo`
//! over a copy of the whole buffer, complex division per bin, a `Vec` of
//! bits per carrier and a re-`map` for EVM. The rebuilt decoder must
//! reach the same verdict on any capture: the same `Ok`/`Err` kind, and
//! on `Ok` the same payload and `start`, a bit-identical `cfo`, and EVM
//! within 1e-6 dB.
//!
//! Two places where the comparison is, and has to be, looser:
//!
//! - **EVM at the f64 rounding floor.** A noiseless capture decodes with
//!   an error vector of pure rounding (EVM near −300 dB). The rebuilt
//!   decoder rotates FFT windows by an anchor times a table instead of
//!   one phasor per sample, which moves each sample by an ulp or so, and
//!   at that floor an ulp is decibels. Where the reference EVM is above
//!   [`EVM_FLOOR_DB`] (any capture with noise or an echo) the 1e-6 dB
//!   bound holds; below it both decoders must stay below it.
//! - **Buffers shorter than the preamble.** The reference indexed past
//!   the end of such a buffer when the detector fired on it (a panic);
//!   the rebuilt decoder reports `TooShort`.
//!
//! Pure tones are generated inside the detector's unambiguous CFO range
//! (|ω| < π/32), where CFO correction turns the tone into DC and every
//! carrier is dead. A tone outside it is corrected onto an even data bin
//! with unit gain, so its one live carrier sits exactly on the QPSK and
//! 16-QAM decision boundary and both decoders read bits out of rounding
//! noise; that false detection is a known gap (see ROADMAP), not
//! something two correct decoders can agree on. Tones under noise are
//! generated at any frequency.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::fft::fft64;
use sa_phy::modulation::{bits_to_bytes, Modulation};
use sa_phy::params::{carrier_to_bin, data_carriers, N_CP, N_FFT, PILOT_CARRIERS, SYMBOL_LEN};
use sa_phy::ppdu::{DecodedPacket, PhyError, Receiver, Transmitter, MAX_PAYLOAD};
use sa_phy::preamble::{ltf_symbol_freq, preamble_time_ref, PREAMBLE_LEN, SC_HALF_LEN};
use sa_sigproc::schmidl_cox::SchmidlCox;

/// Below this EVM the error vector is f64 rounding, not the channel.
const EVM_FLOOR_DB: f64 = -200.0;

/// Pilot BPSK value for pilot index `p` in symbol `s` (copy of the
/// receiver's private table).
fn pilot_value(p: usize, s: usize) -> C64 {
    let v = (s.wrapping_mul(31) ^ p.wrapping_mul(17)) & 1;
    if v == 0 {
        C64::new(1.0, 0.0)
    } else {
        C64::new(-1.0, 0.0)
    }
}

/// `Modulation::demap` before it was rebuilt on `Modulation::slice`,
/// verbatim, so the oracle keeps its own copy of the decision rule.
fn reference_demap(m: Modulation, z: C64) -> Vec<u8> {
    match m {
        Modulation::Bpsk => vec![u8::from(z.re >= 0.0)],
        Modulation::Qpsk => vec![u8::from(z.re >= 0.0), u8::from(z.im >= 0.0)],
        Modulation::Qam16 => {
            let axis = |v: f64| -> (u8, u8) {
                let lvl = v * 10f64.sqrt();
                if lvl < -2.0 {
                    (0, 0)
                } else if lvl < 0.0 {
                    (0, 1)
                } else if lvl < 2.0 {
                    (1, 1)
                } else {
                    (1, 0)
                }
            };
            let (i1, i0) = axis(z.re);
            let (q1, q0) = axis(z.im);
            vec![i1, i0, q1, q0]
        }
    }
}

/// The decoder before the single-pass rebuild, verbatim (its `demap`
/// is [`reference_demap`]).
fn reference_decode(rx: &Receiver, buffer: &[C64]) -> Result<DecodedPacket, PhyError> {
    let sc = SchmidlCox::new(SC_HALF_LEN);
    let det = sc
        .detect(buffer)
        .into_iter()
        .next()
        .ok_or(PhyError::NoPacket)?;

    // CFO-correct a working copy from the coarse start onward.
    let mut rx_buf = buffer.to_vec();
    sa_sigproc::iq::apply_cfo(&mut rx_buf, -det.cfo);
    let rx_ = &rx_buf;

    // Fine timing: matched filter against the known preamble around
    // the coarse estimate (S&C points at the start of the two
    // identical halves, i.e. one CP after the true preamble start).
    let pre = preamble_time_ref();
    let coarse = det.start.saturating_sub(N_CP);
    let lo = coarse.saturating_sub(N_CP);
    let hi = (coarse + N_CP).min(rx_.len().saturating_sub(pre.len()));
    if lo > hi {
        return Err(PhyError::TooShort);
    }
    let mut best = (lo, f64::NEG_INFINITY);
    for p in lo..=hi {
        let mut acc = ZERO;
        let mut energy = 1e-30;
        for (i, &pi) in pre.iter().enumerate() {
            acc += pi.conj() * rx_[p + i];
            energy += rx_[p + i].norm_sqr();
        }
        let score = acc.norm_sqr() / energy;
        if score > best.1 {
            best = (p, score);
        }
    }
    let start = best.0;

    // Channel estimate from the LTF symbol.
    let ltf_start = start + sa_phy::preamble::LTF_SYMBOL_OFFSET;
    if ltf_start + N_FFT > rx_.len() {
        return Err(PhyError::TooShort);
    }
    let mut y = [ZERO; N_FFT];
    y.copy_from_slice(&rx_[ltf_start..ltf_start + N_FFT]);
    fft64(&mut y);
    let x = ltf_symbol_freq();
    let mut h = vec![ZERO; N_FFT];
    for bin in 0..N_FFT {
        if x[bin].norm_sqr() > 0.0 {
            h[bin] = y[bin] / x[bin];
        }
    }

    // Decode data symbols until the length header tells us to stop.
    let carriers = data_carriers();
    let bps = rx.modulation.bits_per_symbol();
    let mut bits: Vec<u8> = Vec::new();
    let mut needed_bytes: Option<usize> = None;
    let mut evm_num = 0.0f64;
    let mut evm_den = 0.0f64;
    let mut s = 0usize;
    let mut yf = [ZERO; N_FFT];
    loop {
        if let Some(nb) = needed_bytes {
            if bits.len() >= nb * 8 {
                break;
            }
        }
        let sym_start = start + PREAMBLE_LEN + s * SYMBOL_LEN + N_CP;
        if sym_start + N_FFT > rx_.len() {
            return Err(PhyError::TooShort);
        }
        yf.copy_from_slice(&rx_[sym_start..sym_start + N_FFT]);
        fft64(&mut yf);
        // Equalise, then pilot common-phase correction (residual CFO
        // accumulates a per-symbol rotation).
        let mut rot_acc = ZERO;
        for (p, &k) in PILOT_CARRIERS.iter().enumerate() {
            let bin = carrier_to_bin(k);
            if h[bin].norm_sqr() > 1e-12 {
                let z = yf[bin] / h[bin];
                rot_acc += z * pilot_value(p, s).conj();
            }
        }
        let rot = if rot_acc.abs() > 1e-12 {
            C64::cis(-rot_acc.arg())
        } else {
            C64::new(1.0, 0.0)
        };
        for &k in &carriers {
            let bin = carrier_to_bin(k);
            if h[bin].norm_sqr() <= 1e-12 {
                bits.extend(std::iter::repeat_n(0, bps));
                continue;
            }
            let z = (yf[bin] / h[bin]) * rot;
            let b = reference_demap(rx.modulation, z);
            let ideal = rx.modulation.map(&b);
            evm_num += (z - ideal).norm_sqr();
            evm_den += 1.0;
            bits.extend(b);
        }
        if needed_bytes.is_none() && bits.len() >= 16 {
            let hdr = bits_to_bytes(&bits[..16]);
            let len = ((hdr[0] as usize) << 8) | hdr[1] as usize;
            if len > MAX_PAYLOAD {
                return Err(PhyError::BadLength);
            }
            needed_bytes = Some(2 + len);
        }
        s += 1;
        if s > 4096 {
            return Err(PhyError::BadLength);
        }
    }

    let nb = needed_bytes.expect("loop exits only with a length");
    let bytes = bits_to_bytes(&bits[..nb * 8]);
    let payload = bytes[2..].to_vec();
    let evm_db = if evm_den > 0.0 {
        10.0 * (evm_num / evm_den).log10()
    } else {
        f64::NEG_INFINITY
    };
    Ok(DecodedPacket {
        payload,
        start,
        cfo: det.cfo,
        evm_db,
    })
}

/// Decode `buf` both ways and require the same verdict.
fn assert_matches_reference(m: Modulation, buf: &[C64]) -> Result<(), TestCaseError> {
    let rx = Receiver::new(m);
    let new = rx.decode(buf);
    let old = match std::panic::catch_unwind(|| reference_decode(&rx, buf)) {
        Ok(old) => old,
        Err(_) => {
            // The reference indexed past a buffer shorter than the
            // preamble; the rebuilt decoder must reject it instead.
            prop_assert!(
                buf.len() < PREAMBLE_LEN,
                "reference panicked on {} samples",
                buf.len()
            );
            prop_assert_eq!(new.map(|p| p.start), Err(PhyError::TooShort));
            return Ok(());
        }
    };
    match (new, old) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(
                a.cfo.to_bits(),
                b.cfo.to_bits(),
                "cfo {} vs {}",
                a.cfo,
                b.cfo
            );
            prop_assert!(
                a.payload == b.payload,
                "payloads differ ({} vs {} B)",
                a.payload.len(),
                b.payload.len()
            );
            if b.evm_db > EVM_FLOOR_DB {
                prop_assert!(
                    (a.evm_db - b.evm_db).abs() <= 1e-6,
                    "EVM {} vs {} dB",
                    a.evm_db,
                    b.evm_db
                );
            } else {
                prop_assert!(
                    a.evm_db <= EVM_FLOOR_DB,
                    "EVM {} vs {} dB",
                    a.evm_db,
                    b.evm_db
                );
            }
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(
            false,
            "verdicts differ: new {:?}, reference {:?}",
            a.map(|p| p.start),
            b.map(|p| p.start)
        ),
    }
    Ok(())
}

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
    ]
}

/// One capture: `lead_in` zeros, the packet, `tail` zeros; then an
/// optional in-CP echo (delay in samples, gain, phase), the CFO, and
/// noise at `snr_db` (none when `None`).
#[allow(clippy::too_many_arguments)]
fn capture(
    m: Modulation,
    payload_len: usize,
    seed: u64,
    lead_in: usize,
    tail: usize,
    echo: Option<(f64, f64, f64)>,
    cfo: f64,
    snr_db: Option<f64>,
) -> Vec<C64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..payload_len).map(|_| rand::Rng::gen(&mut rng)).collect();
    let wave = Transmitter::new(m).encode(&payload);
    let mut buf = vec![ZERO; lead_in + wave.len() + tail];
    buf[lead_in..lead_in + wave.len()].copy_from_slice(&wave);
    if let Some((delay, gain, phase)) = echo {
        let tap = C64::from_polar(gain, phase);
        let delayed = sa_sigproc::iq::delay_signal(&buf, delay);
        for (b, e) in buf.iter_mut().zip(&delayed) {
            *b += *e * tap;
        }
    }
    sa_sigproc::iq::apply_cfo(&mut buf, cfo);
    if let Some(snr) = snr_db {
        let sig_pow = sa_sigproc::iq::mean_power(&wave);
        sa_sigproc::noise::add_noise(&mut rng, &mut buf, sig_pow / 10f64.powf(snr / 10.0));
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_matches_the_reference_decoder(
        m in any_modulation(),
        payload_len in prop_oneof![Just(1024usize), 0usize..=1500],
        seed in any::<u64>(),
        lead_in in 0usize..=400,
        tail in 0usize..200,
        echo in prop_oneof![
            Just(None),
            (1.0f64..12.0, 0.05f64..0.6, -3.2f64..3.2).prop_map(Some),
        ],
        cfo in -0.05f64..0.05,
        snr_db in prop_oneof![Just(None), Just(Some(30.0)), Just(Some(20.0)), Just(Some(10.0))],
        cut in prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
    ) {
        let mut buf = capture(m, payload_len, seed, lead_in, tail, echo, cfo, snr_db);
        if let Some(frac) = cut {
            buf.truncate((frac * buf.len() as f64) as usize);
        }
        assert_matches_reference(m, &buf)?;
    }

    /// The preamble starts within `N_CP` samples of the buffer, so the
    /// matched filter's first lag clamps to sample 0: it scores fewer
    /// than its usual 33 lags, mostly not a whole number of lag blocks.
    #[test]
    fn decode_matches_the_reference_when_the_preamble_opens_the_buffer(
        m in any_modulation(),
        payload_len in prop_oneof![Just(1024usize), 0usize..=300],
        seed in any::<u64>(),
        lead_in in 0usize..N_CP,
        tail in 0usize..200,
        cfo in -0.05f64..0.05,
        snr_db in prop_oneof![Just(None), Just(Some(30.0)), Just(Some(10.0))],
    ) {
        let buf = capture(m, payload_len, seed, lead_in, tail, None, cfo, snr_db);
        assert_matches_reference(m, &buf)?;
    }

    /// The buffer ends within `N_CP` samples of the preamble's end, so
    /// the matched filter's last lag mostly clamps to the buffer's end
    /// (not where the detector fires up to a CP early). No data symbol
    /// fits, so both decoders must stop at the same error.
    #[test]
    fn decode_matches_the_reference_when_the_buffer_ends_at_the_preamble(
        m in any_modulation(),
        payload_len in 0usize..=300,
        seed in any::<u64>(),
        lead_in in 0usize..=400,
        end in PREAMBLE_LEN - N_CP..PREAMBLE_LEN + N_CP,
        cfo in -0.05f64..0.05,
        snr_db in prop_oneof![Just(None), Just(Some(30.0)), Just(Some(10.0))],
    ) {
        let mut buf = capture(m, payload_len, seed, lead_in, 0, None, cfo, snr_db);
        buf.truncate(lead_in + end);
        assert_matches_reference(m, &buf)?;
    }

    #[test]
    fn decode_matches_the_reference_on_adversarial_buffers(
        m in any_modulation(),
        kind in 0u8..6,
        seed in any::<u64>(),
        len in 0usize..8000,
        amp in 0.1f64..10.0,
        omega in -0.95f64..0.95,
        phase in -3.2f64..3.2,
        poison in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tone = |len: usize, w: f64| -> Vec<C64> {
            (0..len).map(|n| C64::from_polar(amp, w * n as f64 + phase)).collect()
        };
        let buf = match kind {
            // Pure tone inside the detector's CFO range.
            0 => tone(len, omega * std::f64::consts::PI / SC_HALF_LEN as f64),
            // Tone at any frequency under 20 dB of noise.
            1 => {
                let mut b = tone(len, omega * std::f64::consts::PI);
                sa_sigproc::noise::add_noise(&mut rng, &mut b, amp * amp / 100.0);
                b
            }
            2 => vec![ZERO; len],
            3 => sa_sigproc::noise::cn_vector(&mut rng, len, amp),
            // A real packet with NaN/Inf samples sprinkled in.
            _ => {
                let mut b = capture(m, len % 600, seed, len % 97, 50, None, 0.01, Some(20.0));
                let hits = if kind == 4 { 1 } else { 1 + len % 7 };
                for i in 0..hits {
                    let at = (seed as usize).wrapping_add(i * 7919) % b.len();
                    b[at] = C64::new(poison, 0.0);
                }
                b
            }
        };
        assert_matches_reference(m, &buf)?;
    }
}
