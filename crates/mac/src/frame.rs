//! 802.11-like data/management frames.
//!
//! A compact three-address frame format carrying what the SecureAngle
//! applications need: source/destination/BSSID addresses, a type, a
//! sequence number, a payload, and a CRC-32 FCS. Encoding uses `bytes`
//! for explicit, bounds-checked buffer handling.
//!
//! ```text
//!  0      1      2        8       14      20      22        n      n+4
//!  +------+------+--------+--------+-------+-------+---------+------+
//!  | ver  | type |  dst   |  src   | bssid |  seq  | payload | FCS  |
//!  +------+------+--------+--------+-------+-------+---------+------+
//! ```

use crate::addr::MacAddr;
use crate::crc::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Protocol version byte for this frame format.
pub const FRAME_VERSION: u8 = 1;

/// Frame header length (before payload), bytes.
pub const HEADER_LEN: usize = 1 + 1 + 6 + 6 + 6 + 2;

/// FCS trailer length, bytes.
pub const FCS_LEN: usize = 4;

/// Frame types the simulated network uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Access-point beacon.
    Beacon,
    /// Authentication request (the stage at which SecureAngle trains a
    /// client's signature).
    Auth,
    /// Data frame.
    Data,
    /// Deauthentication / containment action.
    Deauth,
}

impl FrameType {
    fn to_byte(self) -> u8 {
        match self {
            FrameType::Beacon => 0x80,
            FrameType::Auth => 0xB0,
            FrameType::Data => 0x08,
            FrameType::Deauth => 0xC0,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0x80 => Some(FrameType::Beacon),
            0xB0 => Some(FrameType::Auth),
            0x08 => Some(FrameType::Data),
            0xC0 => Some(FrameType::Deauth),
            _ => None,
        }
    }
}

/// A MAC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type.
    pub frame_type: FrameType,
    /// Destination address.
    pub dst: MacAddr,
    /// Source address — the field a spoofer forges.
    pub src: MacAddr,
    /// BSSID of the serving AP.
    pub bssid: MacAddr,
    /// Sequence number.
    pub seq: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Frame decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than header + FCS.
    Truncated,
    /// Unknown version byte.
    BadVersion,
    /// Unknown frame-type byte.
    BadType,
    /// FCS mismatch (corrupted in flight).
    BadFcs,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadVersion => write!(f, "unsupported frame version"),
            FrameError::BadType => write!(f, "unknown frame type"),
            FrameError::BadFcs => write!(f, "FCS check failed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Convenience constructor for a data frame.
    pub fn data(src: MacAddr, dst: MacAddr, bssid: MacAddr, seq: u16, payload: &[u8]) -> Self {
        Self {
            frame_type: FrameType::Data,
            dst,
            src,
            bssid,
            seq,
            payload: payload.to_vec(),
        }
    }

    /// Serialise to wire format (header + payload + FCS).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.payload.len() + FCS_LEN);
        buf.put_u8(FRAME_VERSION);
        buf.put_u8(self.frame_type.to_byte());
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_slice(&self.bssid.0);
        buf.put_u16(self.seq);
        buf.put_slice(&self.payload);
        let fcs = crc32(&buf);
        buf.put_u32(fcs);
        buf.freeze()
    }

    /// Parse from wire format, verifying the FCS.
    pub fn decode(mut wire: &[u8]) -> Result<Self, FrameError> {
        if wire.len() < HEADER_LEN + FCS_LEN {
            return Err(FrameError::Truncated);
        }
        let body_len = wire.len() - FCS_LEN;
        let expected = crc32(&wire[..body_len]);
        let got = u32::from_be_bytes(wire[body_len..].try_into().expect("4 bytes"));
        if expected != got {
            return Err(FrameError::BadFcs);
        }

        let version = wire.get_u8();
        if version != FRAME_VERSION {
            return Err(FrameError::BadVersion);
        }
        let ftype = FrameType::from_byte(wire.get_u8()).ok_or(FrameError::BadType)?;
        let mut dst = [0u8; 6];
        wire.copy_to_slice(&mut dst);
        let mut src = [0u8; 6];
        wire.copy_to_slice(&mut src);
        let mut bssid = [0u8; 6];
        wire.copy_to_slice(&mut bssid);
        let seq = wire.get_u16();
        let payload = wire[..wire.len() - FCS_LEN].to_vec();
        Ok(Self {
            frame_type: ftype,
            dst: MacAddr(dst),
            src: MacAddr(src),
            bssid: MacAddr(bssid),
            seq,
            payload,
        })
    }

    /// Total wire length.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + FCS_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            frame_type: FrameType::Data,
            dst: MacAddr::local_from_index(1),
            src: MacAddr::local_from_index(2),
            bssid: MacAddr::local_from_index(0),
            seq: 0x1234,
            payload: b"hello secureangle".to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = sample();
        let wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        let back = Frame::decode(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn all_frame_types_roundtrip() {
        for t in [
            FrameType::Beacon,
            FrameType::Auth,
            FrameType::Data,
            FrameType::Deauth,
        ] {
            let mut f = sample();
            f.frame_type = t;
            assert_eq!(Frame::decode(&f.encode()).unwrap().frame_type, t);
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut f = sample();
        f.payload.clear();
        let back = Frame::decode(&f.encode()).unwrap();
        assert!(back.payload.is_empty());
    }

    #[test]
    fn corrupted_byte_fails_fcs() {
        let f = sample();
        let mut wire = f.encode().to_vec();
        wire[10] ^= 0x40;
        assert_eq!(Frame::decode(&wire).unwrap_err(), FrameError::BadFcs);
    }

    #[test]
    fn truncated_rejected() {
        let f = sample();
        let wire = f.encode();
        assert_eq!(
            Frame::decode(&wire[..HEADER_LEN + 2]).unwrap_err(),
            FrameError::Truncated
        );
        assert_eq!(Frame::decode(&[]).unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn bad_version_and_type_detected() {
        let f = sample();
        let mut wire = f.encode().to_vec();
        // Change version, re-stamp FCS so only the version is wrong.
        wire[0] = 99;
        let body = wire.len() - FCS_LEN;
        let fcs = crate::crc::crc32(&wire[..body]);
        wire[body..].copy_from_slice(&fcs.to_be_bytes());
        assert_eq!(Frame::decode(&wire).unwrap_err(), FrameError::BadVersion);

        let mut wire = f.encode().to_vec();
        wire[1] = 0x77;
        let fcs = crate::crc::crc32(&wire[..body]);
        wire[body..].copy_from_slice(&fcs.to_be_bytes());
        assert_eq!(Frame::decode(&wire).unwrap_err(), FrameError::BadType);
    }

    #[test]
    fn spoofed_source_is_undetectable_at_mac_layer() {
        // The motivating weakness: a frame with a forged src address is
        // indistinguishable from the real thing at this layer — only the
        // physical-layer signature (secureangle crate) can tell.
        let legit = sample();
        let mut spoof = sample();
        spoof.payload = b"malicious".to_vec();
        // Same src as legit:
        assert_eq!(spoof.src, legit.src);
        let decoded = Frame::decode(&spoof.encode()).unwrap();
        assert_eq!(decoded.src, legit.src);
    }
}
