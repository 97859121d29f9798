//! Link-layer (MAC) addresses.
//!
//! Address spoofing prevention — one of SecureAngle's two applications —
//! is about the binding between these addresses and physical-layer
//! signatures, so the address type is a plain EUI-48 value with
//! formatting and parsing.

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A deterministic locally-administered unicast address derived from
    /// an index — handy for simulated clients ("client 7 of the testbed").
    pub fn local_from_index(idx: u32) -> Self {
        let b = idx.to_be_bytes();
        MacAddr([0x02, 0x5a, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error from parsing a MAC address string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split([':', '-']).collect();
        if parts.len() != 6 {
            return Err(ParseMacError);
        }
        let mut out = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            if p.len() != 2 {
                return Err(ParseMacError);
            }
            out[i] = u8::from_str_radix(p, 16).map_err(|_| ParseMacError)?;
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let a = MacAddr([0x02, 0x5a, 0x00, 0x01, 0x02, 0x03]);
        let s = a.to_string();
        assert_eq!(s, "02:5a:00:01:02:03");
        assert_eq!(s.parse::<MacAddr>().unwrap(), a);
        assert_eq!("02-5A-00-01-02-03".parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("02:5a:00:01:02".parse::<MacAddr>().is_err());
        assert!("02:5a:00:01:02:zz".parse::<MacAddr>().is_err());
        assert!("025a:00:01:02:03:04".parse::<MacAddr>().is_err());
    }

    #[test]
    fn bit_semantics() {
        // Indexed addresses are locally administered (bit 1 set) unicast
        // (group bit 0 clear) addresses, never the broadcast address.
        let local = MacAddr::local_from_index(7);
        assert_eq!(local.0[0] & 0x03, 0x02);
        assert_ne!(local, MacAddr::BROADCAST);
        assert_eq!(MacAddr::BROADCAST.0, [0xff; 6]);
    }

    #[test]
    fn indexed_addresses_are_distinct() {
        let set: std::collections::HashSet<_> = (0..100).map(MacAddr::local_from_index).collect();
        assert_eq!(set.len(), 100);
    }
}
