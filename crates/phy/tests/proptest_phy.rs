//! Property-based tests for the OFDM physical layer.

use proptest::prelude::*;
use sa_linalg::complex::ZERO;
use sa_phy::modulation::{bits_to_bytes, bytes_to_bits, Modulation};
use sa_phy::ppdu::{Receiver, Transmitter};

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bits_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let bits = bytes_to_bits(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        prop_assert_eq!(bits_to_bytes(&bits), bytes);
    }

    #[test]
    fn constellation_roundtrip_any_bits(m in any_modulation(), raw in proptest::collection::vec(0u8..2, 1..200)) {
        let syms = m.map_stream(&raw);
        let back = m.demap_stream(&syms);
        // Compare up to the original length (map_stream zero-pads).
        prop_assert_eq!(&back[..raw.len()], &raw[..]);
        // Padding, if any, is zeros.
        prop_assert!(back[raw.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn map_points_have_unit_average_energy_over_stream(m in any_modulation(), raw in proptest::collection::vec(0u8..2, 64..512)) {
        let syms = m.map_stream(&raw);
        let e: f64 = syms.iter().map(|z| z.norm_sqr()).sum::<f64>() / syms.len() as f64;
        // Random-ish bit streams stay near unit average energy.
        prop_assert!((0.3..3.0).contains(&e), "energy {}", e);
    }

    #[test]
    fn packet_length_formula_matches_waveform(m in any_modulation(), len in 0usize..400) {
        let tx = Transmitter::new(m);
        let payload = vec![0x5Au8; len];
        prop_assert_eq!(tx.encode(&payload).len(), tx.packet_len(len));
    }

    #[test]
    fn loopback_with_arbitrary_payload_and_offset(
        m in any_modulation(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        offset in 0usize..150,
    ) {
        let tx = Transmitter::new(m);
        let rx = Receiver::new(m);
        let wave = tx.encode(&payload);
        let mut buf = vec![ZERO; offset + wave.len() + 100];
        buf[offset..offset + wave.len()].copy_from_slice(&wave);
        let pkt = rx.decode(&buf).expect("clean decode");
        prop_assert_eq!(pkt.payload, payload);
        prop_assert!(pkt.evm_db < -20.0, "EVM {}", pkt.evm_db);
    }

    #[test]
    fn decode_never_panics_on_noise(seed in 0u64..500, n in 300usize..2000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let buf = sa_sigproc::noise::cn_vector(&mut rng, n, 1.0);
        // Any outcome is fine; it must just not panic.
        let _ = Receiver::new(Modulation::Qpsk).decode(&buf);
    }

    #[test]
    fn preamble_is_waveform_prefix(m in any_modulation(), len in 0usize..64) {
        let tx = Transmitter::new(m);
        let wave = tx.encode(&vec![1u8; len]);
        let pre = sa_phy::preamble::preamble_time_ref();
        for (a, b) in pre.iter().zip(wave.iter()) {
            prop_assert!(a.approx_eq(*b, 1e-12));
        }
    }
}
