//! # secureangle — AoA signatures for wireless security
//!
//! A faithful reproduction of *SecureAngle: Improving Wireless Security
//! Using Angle-of-Arrival Information* (Xiong & Jamieson, HotNets 2010):
//! a multi-antenna access point profiles the directions each client's
//! signal arrives from and uses the resulting pseudospectrum as a
//! physical-layer signature that operates *alongside* (not instead of)
//! protocol security.
//!
//! * [`signature`] — AoA signatures, comparison metrics and the
//!   drift-tracking EWMA profile;
//! * [`spoof`] — the §2.3.2 address-spoofing detector;
//! * [`mod@localize`] — multi-AP bearing intersection (§2.3.1);
//! * [`fence`] — polygonal virtual fences with fail-closed policy;
//! * [`pipeline`] — the full AP: detection → calibration → correlation →
//!   MUSIC → signature → enforcement, as a synchronous single-packet
//!   path and a batched ingest path ([`pipeline::PacketBatch`]);
//! * [`attacker`] — the §1 threat model (omni / directional / array);
//! * [`rss`] — the RSS signalprint baseline the paper compares against;
//! * [`tracking`] — mobility-trace tracking over multi-AP fixes (§5
//!   future work, implemented);
//! * [`downlink`] — downlink beamforming gain from uplink AoA (§5
//!   future work, implemented as a gain model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod downlink;
pub mod fence;
pub mod localize;
pub mod pipeline;
pub mod rss;
pub mod signature;
pub mod spoof;
pub mod tracking;

pub use attacker::{Attacker, AttackerGear};
pub use fence::{FenceConfig, FenceDecision, VirtualFence};
pub use localize::{localize, localize_robust, BearingObservation, Fix, LocalizeError};
pub use pipeline::{
    decode_reference, AccessPoint, ApConfig, BearingReport, DecodedPacket, DropReason,
    FrameVerdict, Observation, ObserveError, PacketBatch,
};
pub use rss::{RssDetector, RssPrint, RssVerdict};
pub use signature::{AoaSignature, SignatureMatch, SignatureTracker};
pub use spoof::{ConsensusVerdict, SpoofDetector, SpoofVerdict};
pub use tracking::MobilityTracker;
