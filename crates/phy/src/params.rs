//! OFDM numerology: the 802.11a/g-style 20 MHz grid the Soekris clients
//! transmit on in the paper's testbed.
//!
//! 64 subcarriers at 312.5 kHz spacing: 48 data + 4 pilots, DC null and
//! guard bands; 16-sample cyclic prefix. The preamble's first training
//! symbol loads only even subcarriers so its time-domain form has two
//! identical 32-sample halves — exactly what the Schmidl–Cox detector in
//! `sa-sigproc` looks for.

/// FFT size (subcarrier count).
pub const N_FFT: usize = 64;

// The modem runs every symbol through the fixed-size kernel.
const _: () = assert!(N_FFT == sa_linalg::fft::FFT_LEN);

/// Cyclic-prefix length in samples.
pub const N_CP: usize = 16;

/// Samples per OFDM symbol including CP.
pub const SYMBOL_LEN: usize = N_FFT + N_CP;

/// Number of data subcarriers per symbol.
pub const N_DATA: usize = 48;

/// Number of pilot subcarriers per symbol.
pub const N_PILOTS: usize = 4;

/// Pilot subcarrier indices (signed, like 802.11: ±7, ±21).
pub const PILOT_CARRIERS: [i32; 4] = [-21, -7, 7, 21];

/// Data+pilot occupied band: ±1 ..= ±26 (DC unused).
pub const MAX_CARRIER: i32 = 26;

/// Map a signed subcarrier index (−32..32, excluding 0 for data) to its
/// FFT bin in `0..N_FFT`.
pub fn carrier_to_bin(k: i32) -> usize {
    debug_assert!((-(N_FFT as i32) / 2..N_FFT as i32 / 2).contains(&k));
    k.rem_euclid(N_FFT as i32) as usize
}

/// The 48 data subcarrier indices in ascending signed order.
pub fn data_carriers() -> Vec<i32> {
    let mut v = Vec::with_capacity(N_DATA);
    for k in -MAX_CARRIER..=MAX_CARRIER {
        if k == 0 || PILOT_CARRIERS.contains(&k) {
            continue;
        }
        v.push(k);
    }
    v
}

/// FFT bins of [`PILOT_CARRIERS`], in the same order.
pub const PILOT_BINS: [usize; N_PILOTS] = {
    let mut bins = [0; N_PILOTS];
    let mut p = 0;
    while p < N_PILOTS {
        bins[p] = PILOT_CARRIERS[p].rem_euclid(N_FFT as i32) as usize;
        p += 1;
    }
    bins
};

/// FFT bins of the 48 data subcarriers, in [`data_carriers`] order: the
/// static carrier table the modem walks per symbol instead of building
/// the carrier list per packet.
pub const DATA_BINS: [usize; N_DATA] = {
    let mut bins = [0; N_DATA];
    let mut n = 0;
    let mut k = -MAX_CARRIER;
    while k <= MAX_CARRIER {
        let pilot = k == PILOT_CARRIERS[0]
            || k == PILOT_CARRIERS[1]
            || k == PILOT_CARRIERS[2]
            || k == PILOT_CARRIERS[3];
        if k != 0 && !pilot {
            bins[n] = k.rem_euclid(N_FFT as i32) as usize;
            n += 1;
        }
        k += 1;
    }
    assert!(n == N_DATA);
    bins
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_bin_tables_match_the_carrier_lists() {
        let data: Vec<usize> = data_carriers().into_iter().map(carrier_to_bin).collect();
        assert_eq!(DATA_BINS.to_vec(), data);
        let pilots: Vec<usize> = PILOT_CARRIERS.into_iter().map(carrier_to_bin).collect();
        assert_eq!(PILOT_BINS.to_vec(), pilots);
    }

    #[test]
    fn forty_eight_data_carriers() {
        let d = data_carriers();
        assert_eq!(d.len(), N_DATA);
        assert!(!d.contains(&0));
        for p in PILOT_CARRIERS {
            assert!(!d.contains(&p));
        }
        assert!(d.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bin_mapping_wraps_negative() {
        assert_eq!(carrier_to_bin(1), 1);
        assert_eq!(carrier_to_bin(26), 26);
        assert_eq!(carrier_to_bin(-1), 63);
        assert_eq!(carrier_to_bin(-26), 38);
        assert_eq!(carrier_to_bin(0), 0);
    }

    #[test]
    fn symbol_length() {
        assert_eq!(SYMBOL_LEN, 80);
    }
}
