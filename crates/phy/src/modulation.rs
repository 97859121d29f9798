//! Subcarrier modulation: bit ↔ constellation-point mapping.
//!
//! BPSK, QPSK and 16-QAM with Gray labelling, all normalised to unit
//! average symbol energy so SNR bookkeeping is modulation-independent.

use sa_linalg::complex::{c64, C64};

/// Supported constellations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modulation {
    /// 1 bit/symbol.
    Bpsk,
    /// 2 bits/symbol (Gray).
    Qpsk,
    /// 4 bits/symbol (Gray per axis).
    Qam16,
}

impl Modulation {
    /// Bits carried per constellation symbol.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
        }
    }

    /// Map bits (each `0`/`1`, MSB first per symbol) to one constellation
    /// point. Panics unless exactly `bits_per_symbol` bits are given.
    pub fn map(&self, bits: &[u8]) -> C64 {
        assert_eq!(bits.len(), self.bits_per_symbol(), "map: wrong bit count");
        match self {
            Modulation::Bpsk => {
                if bits[0] == 0 {
                    c64(-1.0, 0.0)
                } else {
                    c64(1.0, 0.0)
                }
            }
            Modulation::Qpsk => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                let i = if bits[0] == 0 { -s } else { s };
                let q = if bits[1] == 0 { -s } else { s };
                c64(i, q)
            }
            Modulation::Qam16 => {
                // Gray per axis: 00→−3, 01→−1, 11→+1, 10→+3; scale 1/√10.
                let level = |b1: u8, b0: u8| -> f64 {
                    match (b1, b0) {
                        (0, 0) => -3.0,
                        (0, 1) => -1.0,
                        (1, 1) => 1.0,
                        (1, 0) => 3.0,
                        _ => unreachable!("bits are 0/1"),
                    }
                };
                let s = 1.0 / 10f64.sqrt();
                c64(level(bits[0], bits[1]) * s, level(bits[2], bits[3]) * s)
            }
        }
    }

    /// Hard-decision demap of one received point back to bits (unpacked
    /// from [`Modulation::slice`]).
    pub fn demap(&self, z: C64) -> Vec<u8> {
        let (bits, _) = self.slice(z);
        (0..self.bits_per_symbol())
            .rev()
            .map(|i| (bits >> i) & 1)
            .collect()
    }

    /// Hard decision on one received point: the decided bits packed MSB
    /// first into the low [`Modulation::bits_per_symbol`] bits of a byte,
    /// and the ideal constellation point they [`Modulation::map`] to.
    /// This is the one decision rule: [`Modulation::demap`] unpacks it,
    /// and the receiver writes the bits straight into its payload bytes
    /// and measures EVM against the point without re-mapping.
    #[inline]
    pub fn slice(&self, z: C64) -> (u8, C64) {
        match self {
            Modulation::Bpsk => {
                if z.re >= 0.0 {
                    (1, c64(1.0, 0.0))
                } else {
                    (0, c64(-1.0, 0.0))
                }
            }
            Modulation::Qpsk => {
                // Each axis's bit indexes its level: a select, no branch.
                const LEVEL: [f64; 2] = [
                    -std::f64::consts::FRAC_1_SQRT_2,
                    std::f64::consts::FRAC_1_SQRT_2,
                ];
                let bi = u8::from(z.re >= 0.0);
                let bq = u8::from(z.im >= 0.0);
                (
                    (bi << 1) | bq,
                    c64(LEVEL[usize::from(bi)], LEVEL[usize::from(bq)]),
                )
            }
            Modulation::Qam16 => {
                // Gray per axis: 00→−3, 01→−1, 11→+1, 10→+3; scale 1/√10.
                let axis = |v: f64| -> (u8, f64) {
                    let lvl = v * 10f64.sqrt();
                    if lvl < -2.0 {
                        (0b00, -3.0)
                    } else if lvl < 0.0 {
                        (0b01, -1.0)
                    } else if lvl < 2.0 {
                        (0b11, 1.0)
                    } else {
                        (0b10, 3.0)
                    }
                };
                let s = 1.0 / 10f64.sqrt();
                let (bi, li) = axis(z.re);
                let (bq, lq) = axis(z.im);
                ((bi << 2) | bq, c64(li * s, lq * s))
            }
        }
    }

    /// Map a full bit stream to symbols. The stream is zero-padded to a
    /// whole number of symbols.
    pub fn map_stream(&self, bits: &[u8]) -> Vec<C64> {
        let bps = self.bits_per_symbol();
        let mut out = Vec::with_capacity(bits.len().div_ceil(bps));
        let mut chunk = Vec::with_capacity(bps);
        for &b in bits {
            chunk.push(b);
            if chunk.len() == bps {
                out.push(self.map(&chunk));
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            while chunk.len() < bps {
                chunk.push(0);
            }
            out.push(self.map(&chunk));
        }
        out
    }

    /// Demap a symbol stream back to bits.
    pub fn demap_stream(&self, symbols: &[C64]) -> Vec<u8> {
        symbols.iter().flat_map(|&z| self.demap(z)).collect()
    }
}

/// Bytes → bits (MSB first).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
        .collect()
}

/// Bits → bytes (MSB first); the tail is zero-padded to a whole byte.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    bits.chunks(8)
        .map(|c| {
            let mut b = 0u8;
            for (i, &bit) in c.iter().enumerate() {
                b |= (bit & 1) << (7 - i);
            }
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bit_patterns(n: usize) -> Vec<Vec<u8>> {
        (0..1usize << n)
            .map(|v| (0..n).rev().map(|i| ((v >> i) & 1) as u8).collect())
            .collect()
    }

    #[test]
    fn roundtrip_all_constellation_points() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            for bits in all_bit_patterns(m.bits_per_symbol()) {
                let z = m.map(&bits);
                assert_eq!(m.demap(z), bits, "{:?} bits {:?}", m, bits);
            }
        }
    }

    #[test]
    fn unit_average_energy() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let pats = all_bit_patterns(m.bits_per_symbol());
            let e: f64 = pats.iter().map(|b| m.map(b).norm_sqr()).sum::<f64>() / pats.len() as f64;
            assert!((e - 1.0).abs() < 1e-12, "{:?} energy {}", m, e);
        }
    }

    #[test]
    fn gray_labelling_neighbours_differ_by_one_bit() {
        // 16-QAM I-axis levels in ascending order: 00, 01, 11, 10.
        let m = Modulation::Qam16;
        let lvls = [(0u8, 0u8), (0, 1), (1, 1), (1, 0)];
        for w in lvls.windows(2) {
            let d = (w[0].0 ^ w[1].0).count_ones() + (w[0].1 ^ w[1].1).count_ones();
            assert_eq!(d, 1);
        }
        let _ = m;
    }

    #[test]
    fn stream_roundtrip_with_padding() {
        let m = Modulation::Qam16;
        let bits: Vec<u8> = vec![1, 0, 1, 1, 0, 1, 1]; // 7 bits → pads to 8
        let syms = m.map_stream(&bits);
        assert_eq!(syms.len(), 2);
        let back = m.demap_stream(&syms);
        assert_eq!(&back[..7], &bits[..]);
        assert_eq!(back[7], 0);
    }

    #[test]
    fn bytes_bits_roundtrip() {
        let bytes = vec![0x00, 0xff, 0xa5, 0x3c, 0x01];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 40);
        assert_eq!(bits_to_bytes(&bits), bytes);
    }

    #[test]
    fn bits_msb_first() {
        assert_eq!(bytes_to_bits(&[0x80])[0], 1);
        assert_eq!(bytes_to_bits(&[0x01])[7], 1);
        assert_eq!(bits_to_bytes(&[1, 0, 0, 0, 0, 0, 0, 0]), vec![0x80]);
    }

    #[test]
    fn slice_point_is_the_map_of_the_demapped_bits() {
        // Points on, between and beyond the decision boundaries, plus
        // non-finite input: the sliced point must be exactly what the
        // transmitter maps the decided bits to.
        let coords = [
            -2.0,
            -0.95,
            -0.6325,
            -0.4,
            -0.0,
            0.0,
            1e-300,
            0.3,
            0.6325,
            0.7,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            for &re in &coords {
                for &im in &coords {
                    let z = c64(re, im);
                    let (packed, ideal) = m.slice(z);
                    let bits = m.demap(z);
                    let repacked = bits.iter().fold(0u8, |acc, &b| (acc << 1) | b);
                    assert_eq!(packed, repacked, "{:?} {}", m, z);
                    let mapped = m.map(&bits);
                    assert_eq!(ideal.re.to_bits(), mapped.re.to_bits(), "{:?} {}", m, z);
                    assert_eq!(ideal.im.to_bits(), mapped.im.to_bits(), "{:?} {}", m, z);
                }
            }
        }
    }

    #[test]
    fn demap_noisy_points_snap_to_nearest() {
        let m = Modulation::Qpsk;
        let z = m.map(&[1, 0]) + c64(0.1, -0.05);
        assert_eq!(m.demap(z), vec![1, 0]);
    }
}
