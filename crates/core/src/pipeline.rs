//! The SecureAngle access-point pipeline (paper §2.3, Figure 2).
//!
//! From a raw multi-antenna sample buffer to an application verdict:
//!
//! 1. **Packet detection + decode** on the reference chain (Schmidl–Cox
//!    → CFO → OFDM receive), recovering the MAC frame and the packet's
//!    sample extent;
//! 2. **Correlation** — "compute the correlation matrix to obtain mean
//!    phase differences with each entire packet" (§3);
//! 3. **Calibration** — apply the stored per-chain corrections (§2.2)
//!    to that matrix as `D·R·Dᴴ`, the correlation of the corrected
//!    samples;
//! 4. **AoA estimation** — the configured MUSIC pipeline from `sa-aoa`;
//! 5. **Signature** + per-frame RSS;
//! 6. **Enforcement** — ACL, then signature check against the trained
//!    profile of the claimed source MAC.
//!
//! A common carrier offset is deliberately *not* corrected before the
//! correlation step: a CFO multiplies every antenna's sample `x[n]` by
//! the same unit phasor, which cancels in `x·x^H` — one of the quiet
//! reasons the correlation-matrix approach is robust on real hardware.
//!
//! One path runs the stages above: stage 1 yields a [`DecodedPacket`]
//! ([`decode_reference`]), [`PacketBatch::push_predecoded`] stages its
//! window, and [`PacketBatch::process`] runs stages 2–5 over every
//! staged packet with the AoA setup built once. [`AccessPoint::observe`]
//! and `observe_batch` are thin loops over those steps.
//!
//! ```
//! use sa_channel::geom::pt;
//! use sa_linalg::CMat;
//! use sa_mac::{AccessControlList, AclPolicy};
//! use secureangle::pipeline::{AccessPoint, ApConfig, DecodedPacket, ObserveError};
//!
//! // The paper's prototype: 8-antenna octagon at the origin.
//! let acl = AccessControlList::new(AclPolicy::DenyListed);
//! let ap = AccessPoint::new(ApConfig::paper_prototype(pt(0.0, 0.0)), acl);
//!
//! // A capture whose shape does not match the array is rejected up front…
//! assert_eq!(
//!     ap.observe(&CMat::zeros(3, 64)).unwrap_err(),
//!     ObserveError::BadBuffer
//! );
//!
//! // …at the staging step too. Real captures come from an RF front end
//! // (or `sa_testbed`); see `examples/spoof_detection.rs` end to end.
//! let decoded = DecodedPacket { frame: None, start: 0, cfo: 0.0, pkt_len: 64 };
//! let mut batch = ap.batch();
//! assert_eq!(
//!     batch.push_predecoded(&CMat::zeros(8, 0), &decoded).unwrap_err(),
//!     ObserveError::BadBuffer
//! );
//! assert!(batch.is_empty() && batch.process().is_empty());
//! ```

use crate::signature::AoaSignature;
use crate::spoof::{SpoofDetector, SpoofVerdict};
use sa_aoa::estimator::{AoaConfig, AoaEngine, AoaEstimate};
use sa_array::calib::Calibration;
use sa_array::geometry::{Array, ArrayKind};
use sa_array::rf::FrontEnd;
use sa_channel::geom::Point;
use sa_linalg::CMat;
use sa_mac::{AccessControlList, Frame, MacAddr};
use sa_phy::ppdu::{PhyError, Receiver, Transmitter};
use sa_phy::Modulation;
use sa_sigproc::covariance::sample_covariance_into;
use sa_sigproc::iq::to_db;

/// Static AP configuration.
#[derive(Debug, Clone)]
pub struct ApConfig {
    /// The AP's antenna array.
    pub array: Array,
    /// AP position in the floor-plan frame (meters).
    pub position: Point,
    /// Rotation of the array's local frame in the global frame, radians.
    pub orientation: f64,
    /// AoA estimator configuration.
    pub aoa: AoaConfig,
    /// Modulation the clients use.
    pub modulation: Modulation,
}

/// Containment: once a MAC accumulates this many spoof flags, the
/// identity is quarantined — all frames claiming it are dropped until an
/// administrator retrains it. (Like 802.11 deauth containment, this
/// takes the *claimed identity* offline: the legitimate owner must
/// re-authenticate too. That is the intended fail-closed tradeoff under
/// an active injection attack.)
pub(crate) const QUARANTINE_AFTER_FLAGS: usize = 10;

impl ApConfig {
    /// The paper's prototype at a position: 8-antenna octagon, MUSIC with
    /// mode-space smoothing, QPSK clients.
    ///
    /// The source count is *fixed* at the maximum the smoothed aperture
    /// supports rather than estimated per packet: two captures of the
    /// same client whose MDL estimates differ (K=2 vs K=3) produce
    /// structurally different pseudospectra, which would make signature
    /// self-comparison jumpy. A constant K keeps signatures comparable
    /// across frames; the estimator still clamps it to leave a ≥2-dim
    /// noise subspace.
    pub fn paper_prototype(position: Point) -> Self {
        let aoa = AoaConfig {
            source_count: sa_aoa::SourceCount::Fixed(3),
            ..AoaConfig::default()
        };
        Self {
            array: Array::paper_octagon(),
            position,
            orientation: 0.0,
            aoa,
            modulation: Modulation::Qpsk,
        }
    }
}

/// Stage-1 output for one packet: everything detection + decode learned
/// from the reference chain, decoupled from the signal-processing
/// stages so a multi-AP deployment can run stage 1 **once** per client
/// transmission and fan the result out to every AP's DSP worker (the
/// frame content is the same at every AP; only the channel differs).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPacket {
    /// The decoded MAC frame, if the payload parsed.
    pub frame: Option<Frame>,
    /// Sample index of the packet start in the capture.
    pub start: usize,
    /// Estimated CFO on the decoding chain, radians/sample.
    pub cfo: f64,
    /// Number of samples the packet occupies from `start`.
    pub pkt_len: usize,
}

/// Run stage 1 (detect + decode) on the reference chain (row 0) of a
/// capture, without an [`AccessPoint`]: Schmidl–Cox detection → CFO →
/// OFDM receive → MAC frame, falling back to the raw detector when the
/// payload is corrupt but the packet is still usable for AoA.
///
/// This is the shareable half of [`AccessPoint::observe`]: a deployment
/// coordinator decodes each transmission once with the fleet's common
/// modulation and hands the [`DecodedPacket`] to every AP worker via
/// [`PacketBatch::push_predecoded`].
pub fn decode_reference(
    buffer: &CMat,
    modulation: Modulation,
) -> Result<DecodedPacket, ObserveError> {
    if buffer.rows() == 0 || buffer.cols() == 0 {
        return Err(ObserveError::BadBuffer);
    }
    let ref_chain = buffer.row_view(0);
    let rx = Receiver::new(modulation);
    match rx.decode(ref_chain) {
        Ok(pkt) => {
            let tx = Transmitter::new(modulation);
            let pkt_len = tx.packet_len(pkt.payload.len());
            let frame = Frame::decode(&pkt.payload).ok();
            Ok(DecodedPacket {
                frame,
                start: pkt.start,
                cfo: pkt.cfo,
                pkt_len,
            })
        }
        Err(PhyError::NoPacket) => Err(ObserveError::NoPacket),
        Err(_) => {
            // Header or tail corrupted: still usable for AoA. Fall back
            // to the raw detector for the extent.
            let sc = sa_sigproc::schmidl_cox::SchmidlCox::new(sa_phy::preamble::SC_HALF_LEN);
            let det = sc.detect_first(ref_chain).ok_or(ObserveError::NoPacket)?;
            let start = det.start.saturating_sub(sa_phy::params::N_CP);
            Ok(DecodedPacket {
                frame: None,
                start,
                cfo: det.cfo,
                pkt_len: 512,
            })
        }
    }
}

/// A fusion-friendly per-packet bearing record: the distilled
/// `(mac, azimuth, confidence, seq)` tuple a multi-AP fusion stage
/// consumes from each AP (see [`Observation::bearing_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BearingReport {
    /// Claimed source MAC of the decoded frame.
    pub mac: MacAddr,
    /// Direct-path azimuth in the global frame, radians.
    pub azimuth: f64,
    /// Fraction of ranked-peak power in the direct-path peak, `[0, 1]` —
    /// how unambiguous this bearing is.
    pub confidence: f64,
    /// Received signal strength over the packet, dB.
    pub rss_db: f64,
    /// Caller-assigned sequence number (e.g. position in the
    /// observation window).
    pub seq: u64,
}

/// One processed packet: everything the applications consume.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The AoA signature (normalised pseudospectrum).
    pub signature: AoaSignature,
    /// Bearing in the array's presentation convention, degrees.
    pub bearing_deg: f64,
    /// Direct-path azimuth in the *global* frame, radians — available
    /// only for circular arrays (linear arrays have the ±ambiguity of
    /// paper footnote 1). This feeds multi-AP localization.
    pub global_azimuth: Option<f64>,
    /// Received signal strength over the packet, dB.
    pub rss_db: f64,
    /// The decoded MAC frame, if the payload parsed.
    pub frame: Option<Frame>,
    /// Sample index of the packet start in the buffer.
    pub start: usize,
    /// Number of snapshots the correlation window held: the samples
    /// from `start` the packet occupies, clamped to the capture — or,
    /// under a [`PacketBatch::set_snapshot_cap`], the staged
    /// (decimated) snapshot count.
    pub extent: usize,
    /// Estimated CFO, radians/sample.
    pub cfo: f64,
    /// Full estimator output (spectrum, source count, eigenvalues).
    pub estimate: AoaEstimate,
}

impl Observation {
    /// How unambiguous the direct-path bearing is, `[0, 1]`.
    ///
    /// When the AP's estimator is configured with the CRLB confidence
    /// model (`sa_aoa::ConfidenceModel::Crlb`), this is the
    /// CRLB-weighted confidence the estimate already carries — the
    /// per-packet SNR mapped through the stochastic-MUSIC bound. With
    /// the default model it is the historical peak-power split: the
    /// fraction of ranked-peak Bartlett power carried by the top-ranked
    /// peak. A clean line-of-sight packet concentrates power in one
    /// peak (→ 1.0); heavy multipath spreads it (→ small).
    pub fn confidence(&self) -> f64 {
        if let Some(c) = self.estimate.crlb_confidence {
            return c;
        }
        let total: f64 = self.estimate.ranked_peaks.iter().map(|p| p.power).sum();
        match self.estimate.ranked_peaks.first() {
            Some(top) if total > 0.0 => top.power / total,
            _ => 0.0,
        }
    }

    /// Distill this observation into the `(mac, azimuth, confidence,
    /// seq)` record a multi-AP fusion stage consumes. `None` when the
    /// frame did not decode (no MAC to attribute the bearing to) or the
    /// array has no unambiguous global azimuth (linear arrays).
    pub fn bearing_report(&self, seq: u64) -> Option<BearingReport> {
        let frame = self.frame.as_ref()?;
        let azimuth = self.global_azimuth?;
        Some(BearingReport {
            mac: frame.src,
            azimuth,
            confidence: self.confidence(),
            rss_db: self.rss_db,
            seq,
        })
    }
}

/// Why an observation could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveError {
    /// Nothing detected in the buffer.
    NoPacket,
    /// Buffer shape does not match the array, or a staged sample is
    /// NaN or infinite.
    BadBuffer,
}

impl std::fmt::Display for ObserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObserveError::NoPacket => write!(f, "no packet in capture"),
            ObserveError::BadBuffer => write!(f, "bad capture: wrong shape or non-finite sample"),
        }
    }
}

impl std::error::Error for ObserveError {}

/// Enforcement outcome for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameVerdict {
    /// Frame admitted (spoof check result attached).
    Admit {
        /// The signature check outcome.
        spoof: SpoofVerdict,
    },
    /// Frame dropped.
    Drop(DropReason),
}

impl FrameVerdict {
    /// True if the frame was admitted.
    pub fn admitted(&self) -> bool {
        matches!(self, FrameVerdict::Admit { .. })
    }
}

/// Why a frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DropReason {
    /// Payload did not parse as a MAC frame.
    DecodeFailed,
    /// Source MAC not admitted by the ACL.
    AclDenied,
    /// Signature check flagged a probable spoof.
    SpoofSuspected {
        /// The failing match score.
        score: f64,
    },
    /// The claimed identity is quarantined after repeated spoof flags.
    Quarantined,
}

/// A SecureAngle access point.
#[derive(Debug)]
pub struct AccessPoint {
    cfg: ApConfig,
    calibration: Calibration,
    /// Address ACL ("the only method of wireless security is an
    /// address-based access control list", §2.3.2) — SecureAngle wraps
    /// it with the signature check.
    pub acl: AccessControlList,
    /// The signature-based spoofing detector.
    pub spoof: SpoofDetector,
    quarantined: std::collections::HashSet<MacAddr>,
}

impl AccessPoint {
    /// New AP with identity calibration (run
    /// [`AccessPoint::calibrate`] before first use on a real front end).
    pub fn new(cfg: ApConfig, acl: AccessControlList) -> Self {
        let n = cfg.array.len();
        Self {
            cfg,
            calibration: Calibration::identity(n),
            acl,
            spoof: SpoofDetector::new(),
            quarantined: std::collections::HashSet::new(),
        }
    }

    /// Is a MAC currently quarantined?
    pub fn is_quarantined(&self, mac: &MacAddr) -> bool {
        self.quarantined.contains(mac)
    }

    /// Administrative release: lift the quarantine and retrain the
    /// profile from a fresh, authenticated observation.
    ///
    /// Part of the library-only containment API, with
    /// [`AccessPoint::deauth_frame`]: nothing in the multi-AP deployment
    /// calls it, so a quarantine there lasts for the AP's lifetime. It is
    /// the only way to lift one, for an operator tool built on this crate.
    pub fn release_and_retrain(&mut self, mac: MacAddr, obs: &Observation) {
        self.quarantined.remove(&mac);
        self.spoof.train(mac, obs.signature.clone());
    }

    /// The deauthentication/containment frame an AP would transmit for a
    /// quarantined identity.
    ///
    /// Part of the library-only containment API, with
    /// [`AccessPoint::release_and_retrain`]: the simulated APs have no
    /// transmit path, so the multi-AP deployment never builds or sends
    /// this frame; an integration that owns a radio would.
    pub fn deauth_frame(&self, mac: MacAddr, bssid: MacAddr, seq: u16) -> Frame {
        Frame {
            frame_type: sa_mac::FrameType::Deauth,
            dst: mac,
            src: bssid,
            bssid,
            seq,
            payload: b"secureangle: signature mismatch containment".to_vec(),
        }
    }

    /// Configuration access.
    pub fn config(&self) -> &ApConfig {
        &self.cfg
    }

    /// The current calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Replace the calibration (e.g. with
    /// [`Calibration::identity`] for the no-calibration ablation).
    pub fn set_calibration(&mut self, cal: Calibration) {
        assert_eq!(cal.len(), self.cfg.array.len());
        self.calibration = cal;
    }

    /// Run the §2.2 calibration procedure against a front end: capture
    /// the shared reference tone and store the measured corrections.
    pub fn calibrate<R: rand::Rng + ?Sized>(&mut self, front_end: &FrontEnd, rng: &mut R) {
        assert_eq!(front_end.len(), self.cfg.array.len());
        let capture = front_end.receive_calibration_tone(1024, 1.0, rng);
        self.calibration = Calibration::from_tone_capture(&capture);
    }

    /// Run stage 1 only: detect + decode the first packet of a capture
    /// into a shareable [`DecodedPacket`] (see [`decode_reference`]).
    pub fn decode_capture(&self, buffer: &CMat) -> Result<DecodedPacket, ObserveError> {
        if buffer.rows() != self.cfg.array.len() || buffer.cols() == 0 {
            return Err(ObserveError::BadBuffer);
        }
        decode_reference(buffer, self.cfg.modulation)
    }

    /// Process one multi-antenna capture (rows = antennas) into an
    /// [`Observation`].
    ///
    /// A one-capture [`AccessPoint::observe_batch`], so it builds the
    /// AoA estimation setup per call; for more captures, batch them.
    pub fn observe(&self, buffer: &CMat) -> Result<Observation, ObserveError> {
        self.observe_batch(std::slice::from_ref(buffer))
            .pop()
            .expect("one result per capture")
    }

    /// Start a [`PacketBatch`]: the batched ingest path. Builds the AoA
    /// engine (manifold, steering table, eigensolver workspace) once;
    /// every packet staged into the batch then shares it.
    pub fn batch(&self) -> PacketBatch<'_> {
        self.batch_with_engine(AoaEngine::new(&self.cfg.array, &self.cfg.aoa))
    }

    /// Start a [`PacketBatch`] around an existing [`AoaEngine`] — the
    /// long-lived ingest path for workers that process window after
    /// window: recover the engine with [`PacketBatch::into_engine`] when
    /// a window closes and hand it back here for the next one, so the
    /// manifold and eigensolver buffers are built once per worker, not
    /// once per window. The engine must have been built for this AP's
    /// `(array, aoa)` configuration (e.g. by a previous
    /// [`AccessPoint::batch`] on the same AP).
    pub fn batch_with_engine(&self, engine: AoaEngine) -> PacketBatch<'_> {
        PacketBatch {
            ap: self,
            engine,
            cov: CMat::default(),
            snapshot_cap: 0,
            staged: Vec::new(),
        }
    }

    /// Observe a sequence of single-packet captures through one
    /// [`PacketBatch`], preserving per-capture errors. Results line up
    /// index-for-index with `buffers`. To enforce as well, pass each
    /// observation to [`AccessPoint::enforce`] in order.
    pub fn observe_batch(&self, buffers: &[CMat]) -> Vec<Result<Observation, ObserveError>> {
        let mut batch = self.batch();
        let pushes: Vec<Result<(), ObserveError>> = buffers
            .iter()
            .map(|b| batch.push_predecoded(b, &self.decode_capture(b)?))
            .collect();
        let mut produced = batch.process().into_iter();
        pushes
            .into_iter()
            .map(|r| r.map(|()| produced.next().expect("one observation per staged packet")))
            .collect()
    }

    /// Train the spoof profile for a client from an authenticated
    /// observation (the paper's "initial training stage").
    pub fn train_client(&mut self, mac: MacAddr, obs: &Observation) {
        self.spoof.train(mac, obs.signature.clone());
    }

    /// Enforce ACL + quarantine + signature policy on an observation.
    pub fn enforce(&mut self, obs: &Observation) -> FrameVerdict {
        let Some(frame) = &obs.frame else {
            return FrameVerdict::Drop(DropReason::DecodeFailed);
        };
        if !self.acl.permits(&frame.src) {
            return FrameVerdict::Drop(DropReason::AclDenied);
        }
        if self.quarantined.contains(&frame.src) {
            return FrameVerdict::Drop(DropReason::Quarantined);
        }
        match self.spoof.check(frame.src, &obs.signature) {
            SpoofVerdict::Spoof { score } => {
                if self.spoof.flag_count(&frame.src) >= QUARANTINE_AFTER_FLAGS {
                    self.quarantined.insert(frame.src);
                }
                FrameVerdict::Drop(DropReason::SpoofSuspected { score })
            }
            v => FrameVerdict::Admit { spoof: v },
        }
    }

    /// Convenience: observe then enforce.
    pub fn receive(&mut self, buffer: &CMat) -> Result<(Observation, FrameVerdict), ObserveError> {
        let obs = self.observe(buffer)?;
        let verdict = self.enforce(&obs);
        Ok((obs, verdict))
    }
}

/// A packet staged into a [`PacketBatch`]: decoded, windowed, waiting
/// for the signal-processing pass.
#[derive(Debug)]
struct StagedPacket {
    /// Uncalibrated sample window (decimated under a snapshot cap).
    window: CMat,
    /// Decoded MAC frame, if the payload parsed.
    frame: Option<Frame>,
    /// Packet start, in the coordinates of the buffer it came from.
    start: usize,
    /// Estimated CFO, radians/sample.
    cfo: f64,
}

/// The batched ingest path: accumulate decoded packets, then run
/// covariance → calibration → MUSIC over all of them in one pass.
///
/// The AoA estimation setup — the resolved analysis step, the scan manifold
/// with its full grid of steering vectors, and the eigensolver
/// buffers — is built once per batch (via
/// [`sa_aoa::estimator::AoaEngine`]) and reused, along with a recycled
/// covariance buffer, for every staged packet. Observations do not
/// depend on how packets are grouped into batches.
///
/// Flow: stage 1 ([`decode_reference`] or
/// [`AccessPoint::decode_capture`]) → [`PacketBatch::push_predecoded`]
/// → [`PacketBatch::process`]. The batch may then be refilled; the
/// engine carries over.
#[derive(Debug)]
pub struct PacketBatch<'ap> {
    ap: &'ap AccessPoint,
    /// The shared, precomputed AoA pipeline.
    engine: AoaEngine,
    /// Recycled covariance buffer (one per packet, same allocation).
    cov: CMat,
    /// Snapshot budget per staged window; 0 = use every sample (the
    /// default).
    snapshot_cap: usize,
    staged: Vec<StagedPacket>,
}

impl PacketBatch<'_> {
    /// Stage a packet whose stage-1 result is known — the one staging
    /// entry. A deployment coordinator decodes each transmission once
    /// ([`decode_reference`]) and every AP worker stages its *own*
    /// capture with the shared [`DecodedPacket`]; a lone AP stages the
    /// result of [`AccessPoint::decode_capture`]. The window is copied
    /// out at the decoded extent, clamped to the buffer (small per-AP
    /// arrival offsets are tolerated), and decimated by the snapshot cap.
    ///
    /// Errors: `BadBuffer` if `buffer` does not match the array, is
    /// empty, or holds a NaN or infinite sample among those gathered;
    /// `NoPacket` if the clamped extent is empty.
    pub fn push_predecoded(
        &mut self,
        buffer: &CMat,
        decoded: &DecodedPacket,
    ) -> Result<(), ObserveError> {
        if buffer.rows() != self.ap.cfg.array.len() || buffer.cols() == 0 {
            return Err(ObserveError::BadBuffer);
        }
        let start = decoded.start;
        let end = start.saturating_add(decoded.pkt_len).min(buffer.cols());
        if start >= end {
            return Err(ObserveError::NoPacket);
        }
        // The one gather: stride 1 unless the cap is set and exceeded,
        // then the uniform stride that leaves at most `cap` snapshots.
        let len = end - start;
        let stride = if self.snapshot_cap > 0 {
            len.div_ceil(self.snapshot_cap)
        } else {
            1
        };
        // Snapshot-major: all rows of snapshot `t`, then `t + 1`. The
        // capture is usually cold, and the rows' interleaved loads miss
        // in parallel where one strided row at a time would miss in turn.
        // `x · 0` is ±0 for a finite `x` and NaN for NaN or ±∞, so
        // `poison` stays 0 only if every gathered sample is finite, in
        // any order: a branch-free `is_finite` that keeps pace with the
        // strided loads.
        let rows = buffer.rows();
        let mut window = CMat::zeros(rows, len.div_ceil(stride));
        let mut poison = 0.0;
        for t in 0..window.cols() {
            for m in 0..rows {
                let z = buffer[(m, start + t * stride)];
                poison += z.re * 0.0 + z.im * 0.0;
                window[(m, t)] = z;
            }
        }
        if poison != 0.0 {
            return Err(ObserveError::BadBuffer);
        }
        self.staged.push(StagedPacket {
            window,
            frame: decoded.frame.clone(),
            start,
            cfo: decoded.cfo,
        });
        Ok(())
    }

    /// Cap the number of covariance snapshots per packet: windows
    /// longer than `cap` samples are decimated by a uniform stride when
    /// [`PacketBatch::push_predecoded`] extracts them. A few hundred
    /// snapshots already saturate an 8×8 sample covariance, so
    /// deployments trade an invisible accuracy loss for a DSP cost that
    /// stops scaling with payload length. `0` (the default) disables
    /// the cap.
    ///
    /// Calibration commutes with subsampling and a CFO cancels in `x·xᴴ`
    /// at any stride, so a capped packet's observation — bearing,
    /// signature, `rss_db` (a subsample estimate) and `extent` (the
    /// staged snapshot count) — is that of an uncapped packet whose
    /// capture held only the strided samples.
    pub fn set_snapshot_cap(&mut self, cap: usize) {
        self.snapshot_cap = cap;
    }

    /// Tear the batch down to its [`AoaEngine`] so the engine (manifold,
    /// steering table, eigensolver buffers) can outlive this borrow of
    /// the AP — see [`AccessPoint::batch_with_engine`]. Any staged,
    /// unprocessed packets are dropped.
    pub fn into_engine(self) -> AoaEngine {
        self.engine
    }

    /// Number of packets currently staged.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Run covariance, calibration and AoA estimation over every staged
    /// packet in one pass, draining the batch. Observations come back in
    /// staging order. The engine (and its buffers) survive, so the batch
    /// can be refilled and processed again.
    pub fn process(&mut self) -> Vec<Observation> {
        let cfg = &self.ap.cfg;
        let mut out = Vec::with_capacity(self.staged.len());
        for staged in std::mem::take(&mut self.staged) {
            // 2–3. Covariance of the raw staged window into the recycled
            // buffer — the one pass over its samples — calibrated as
            // D·R·Dᴴ (per-chain corrections, §2.2).
            let extent = staged.window.cols();
            sample_covariance_into(&staged.window, &mut self.cov);
            self.ap.calibration.apply_cov(&mut self.cov);
            // 4. AoA through the shared engine.
            let estimate = self.engine.estimate_cov(&self.cov, extent);
            // 5. Signature: the pseudospectrum (§2.1) on the scan's fixed
            // coarse grid. Bearing: the power-ranked peak, which keeps the
            // direct path on top "most of the time" (§3.1). RSS: the mean
            // per-chain power, trace(R)/M.
            let bearing_deg = estimate.bearing_deg();
            let global_azimuth = match cfg.array.kind() {
                ArrayKind::Circular => Some(
                    (bearing_deg.to_radians() + cfg.orientation)
                        .rem_euclid(2.0 * std::f64::consts::PI),
                ),
                ArrayKind::Linear => None,
            };
            let mean_pow = self.cov.trace().re / self.cov.rows() as f64;
            out.push(Observation {
                signature: AoaSignature::from_spectrum(&estimate.spectrum),
                bearing_deg,
                global_azimuth,
                rss_db: to_db(mean_pow.max(1e-300)),
                frame: staged.frame,
                start: staged.start,
                extent,
                cfo: staged.cfo,
                estimate,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_aoa::pseudospectrum::angle_diff_deg;
    use sa_channel::apply::{apply_channel, ApplyConfig};
    use sa_channel::geom::{pt, Rect};
    use sa_channel::pattern::TxAntenna;
    use sa_channel::plan::{FloorPlan, CONCRETE};
    use sa_channel::trace::{trace_paths, TraceConfig};
    use sa_linalg::complex::ZERO;
    use sa_mac::{AclPolicy, FrameType};

    /// A small room with the AP in a corner area.
    fn room() -> FloorPlan {
        let mut plan = FloorPlan::new();
        plan.add_rect(Rect::new(-8.0, -8.0, 8.0, 8.0), CONCRETE);
        plan
    }

    fn make_ap() -> AccessPoint {
        let mut acl = AccessControlList::new(AclPolicy::AllowListed);
        acl.add(MacAddr::local_from_index(1));
        acl.add(MacAddr::local_from_index(2));
        AccessPoint::new(ApConfig::paper_prototype(pt(0.0, 0.0)), acl)
    }

    /// Build the capture an AP sees for a frame sent from `from`.
    fn capture(
        ap: &AccessPoint,
        plan: &FloorPlan,
        from: sa_channel::geom::Point,
        frame: &Frame,
        fe: &FrontEnd,
        seed: u64,
    ) -> CMat {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tx = Transmitter::new(ap.config().modulation);
        let wave = tx.encode(&frame.encode());
        // Lead-in idle samples so detection has a noise floor to start on.
        let mut padded = vec![ZERO; 100];
        padded.extend_from_slice(&wave);
        padded.extend_from_slice(&vec![ZERO; 60]);
        let paths = trace_paths(plan, from, ap.config().position, &TraceConfig::default());
        let out = apply_channel(
            &paths,
            &TxAntenna::Omni,
            &ap.config().array,
            &padded,
            &ApplyConfig {
                tx_power: 1.0,
                ..Default::default()
            },
        );
        // Front end: SNR set via noise_var relative to rx power.
        fe.receive(&out.snapshots, &mut rng)
    }

    fn quiet_front_end(ap: &AccessPoint, rx_power_hint: f64, snr_db: f64, seed: u64) -> FrontEnd {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FrontEnd::random(
            ap.config().array.len(),
            rx_power_hint / sa_sigproc::iq::from_db(snr_db),
            &mut rng,
        )
    }

    fn rx_power_at(ap: &AccessPoint, plan: &FloorPlan, from: sa_channel::geom::Point) -> f64 {
        let paths = trace_paths(plan, from, ap.config().position, &TraceConfig::default());
        paths.iter().map(|p| p.gain.norm_sqr()).sum()
    }

    #[test]
    fn end_to_end_bearing_and_frame() {
        let plan = room();
        let mut ap = make_ap();
        let client_pos = pt(4.0, 3.0);
        let rx_pow = rx_power_at(&ap, &plan, client_pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        ap.calibrate(&fe, &mut rng);

        let frame = Frame::data(
            MacAddr::local_from_index(1),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"hello",
        );
        let buf = capture(&ap, &plan, client_pos, &frame, &fe, 3);
        let obs = ap.observe(&buf).expect("observation");

        // Ground-truth azimuth from AP to client.
        let truth = ap.config().position.azimuth_to(client_pos).to_degrees();
        assert!(
            angle_diff_deg(obs.bearing_deg, truth, true) < 5.0,
            "bearing {} truth {}",
            obs.bearing_deg,
            truth
        );
        assert!(obs.global_azimuth.is_some());
        let f = obs.frame.as_ref().expect("frame decodes");
        assert_eq!(f.src, MacAddr::local_from_index(1));
        assert_eq!(f.frame_type, FrameType::Data);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn uncalibrated_ap_gets_wrong_bearing() {
        // Ablation E8a in miniature: random per-chain phases, identity
        // calibration ⇒ the bearing is garbage.
        let plan = room();
        let mut ap = make_ap();
        let client_pos = pt(4.0, 3.0);
        let rx_pow = rx_power_at(&ap, &plan, client_pos);
        let fe = quiet_front_end(&ap, rx_pow, 30.0, 4);
        // NO ap.calibrate(...) here.
        let frame = Frame::data(
            MacAddr::local_from_index(1),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"x",
        );
        let buf = capture(&ap, &plan, client_pos, &frame, &fe, 5);
        let obs = ap.observe(&buf).expect("observation");
        let truth = ap.config().position.azimuth_to(client_pos).to_degrees();
        assert!(
            angle_diff_deg(obs.bearing_deg, truth, true) > 10.0,
            "uncalibrated bearing {} suspiciously close to truth {}",
            obs.bearing_deg,
            truth
        );
        // Now calibrate and confirm recovery.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        ap.calibrate(&fe, &mut rng);
        let obs2 = ap.observe(&buf).expect("observation");
        assert!(
            angle_diff_deg(obs2.bearing_deg, truth, true) < 5.0,
            "calibrated bearing {} truth {}",
            obs2.bearing_deg,
            truth
        );
    }

    #[test]
    fn spoofer_at_other_position_is_dropped() {
        let plan = room();
        let mut ap = make_ap();
        let victim_pos = pt(4.0, 3.0);
        let attacker_pos = pt(-5.0, -2.0);
        let rx_pow = rx_power_at(&ap, &plan, victim_pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        ap.calibrate(&fe, &mut rng);

        let victim_mac = MacAddr::local_from_index(1);
        let frame = Frame::data(
            victim_mac,
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"legit",
        );

        // Train from the victim's position.
        let buf = capture(&ap, &plan, victim_pos, &frame, &fe, 9);
        let obs = ap.observe(&buf).expect("training observation");
        ap.train_client(victim_mac, &obs);

        // Victim keeps talking: admitted.
        let buf2 = capture(&ap, &plan, victim_pos, &frame, &fe, 10);
        let (_, verdict) = ap.receive(&buf2).expect("victim frame");
        assert!(verdict.admitted(), "victim dropped: {:?}", verdict);

        // Attacker with the same MAC from elsewhere: dropped.
        let buf3 = capture(&ap, &plan, attacker_pos, &frame, &fe, 11);
        let (_, verdict) = ap.receive(&buf3).expect("attacker frame");
        assert!(
            matches!(
                verdict,
                FrameVerdict::Drop(DropReason::SpoofSuspected { .. })
            ),
            "attacker admitted: {:?}",
            verdict
        );
    }

    #[test]
    fn acl_denies_unlisted_mac() {
        let plan = room();
        let mut ap = make_ap();
        let pos = pt(3.0, 1.0);
        let rx_pow = rx_power_at(&ap, &plan, pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 12);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        ap.calibrate(&fe, &mut rng);
        let frame = Frame::data(
            MacAddr::local_from_index(99), // not on the ACL
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"?",
        );
        let buf = capture(&ap, &plan, pos, &frame, &fe, 14);
        let (_, verdict) = ap.receive(&buf).expect("frame");
        assert_eq!(verdict, FrameVerdict::Drop(DropReason::AclDenied));
    }

    #[test]
    fn untrained_listed_mac_is_admitted_as_untrained() {
        let plan = room();
        let mut ap = make_ap();
        let pos = pt(3.0, 1.0);
        let rx_pow = rx_power_at(&ap, &plan, pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 15);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        ap.calibrate(&fe, &mut rng);
        let frame = Frame::data(
            MacAddr::local_from_index(2),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"new",
        );
        let buf = capture(&ap, &plan, pos, &frame, &fe, 17);
        let (_, verdict) = ap.receive(&buf).expect("frame");
        assert_eq!(
            verdict,
            FrameVerdict::Admit {
                spoof: SpoofVerdict::Untrained
            }
        );
    }

    #[test]
    fn repeated_spoofing_triggers_quarantine() {
        let plan = room();
        let mut ap = make_ap();
        let victim_pos = pt(4.0, 3.0);
        let attacker_pos = pt(-5.0, -2.0);
        let rx_pow = rx_power_at(&ap, &plan, victim_pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 30);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        ap.calibrate(&fe, &mut rng);

        let victim_mac = MacAddr::local_from_index(1);
        let frame = Frame::data(
            victim_mac,
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"x",
        );
        let buf = capture(&ap, &plan, victim_pos, &frame, &fe, 32);
        let obs = ap.observe(&buf).expect("training");
        ap.train_client(victim_mac, &obs);

        // Hammer with spoofed frames until quarantine engages.
        let mut saw_quarantine = false;
        for i in 0..QUARANTINE_AFTER_FLAGS + 3 {
            let buf = capture(&ap, &plan, attacker_pos, &frame, &fe, 40 + i as u64);
            let (_, verdict) = ap.receive(&buf).expect("attack frame");
            match verdict {
                FrameVerdict::Drop(DropReason::SpoofSuspected { .. }) => {}
                FrameVerdict::Drop(DropReason::Quarantined) => {
                    saw_quarantine = true;
                    break;
                }
                other => panic!("unexpected verdict {:?}", other),
            }
        }
        assert!(saw_quarantine, "quarantine never engaged");
        assert!(ap.is_quarantined(&victim_mac));

        // Even the *real* victim is now contained (deauth-containment
        // semantics) until an admin retrains.
        let buf = capture(&ap, &plan, victim_pos, &frame, &fe, 60);
        let (obs, verdict) = ap.receive(&buf).expect("victim frame");
        assert_eq!(verdict, FrameVerdict::Drop(DropReason::Quarantined));

        // Release + retrain restores service.
        ap.release_and_retrain(victim_mac, &obs);
        assert!(!ap.is_quarantined(&victim_mac));
        let buf = capture(&ap, &plan, victim_pos, &frame, &fe, 61);
        let (_, verdict) = ap.receive(&buf).expect("victim frame after release");
        assert!(verdict.admitted(), "victim still blocked: {:?}", verdict);

        // And the containment frame is a well-formed deauth.
        let d = ap.deauth_frame(victim_mac, MacAddr::local_from_index(0), 1);
        assert_eq!(d.frame_type, sa_mac::FrameType::Deauth);
        assert_eq!(d.dst, victim_mac);
        assert!(sa_mac::Frame::decode(&d.encode()).is_ok());
    }

    #[test]
    fn empty_buffer_is_bad() {
        let ap = make_ap();
        assert_eq!(
            ap.observe(&CMat::zeros(8, 0)).unwrap_err(),
            ObserveError::BadBuffer
        );
        assert_eq!(
            ap.observe(&CMat::zeros(3, 100)).unwrap_err(),
            ObserveError::BadBuffer
        );
    }

    #[test]
    fn batched_observations_match_single_packet_path_exactly() {
        // The batch amortises setup; it must never change the numbers.
        let plan = room();
        let mut ap = make_ap();
        let positions = [pt(4.0, 3.0), pt(-3.0, 5.0), pt(2.0, -6.0)];
        let rx_pow = rx_power_at(&ap, &plan, positions[0]);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 80);
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        ap.calibrate(&fe, &mut rng);

        let captures: Vec<CMat> = positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| {
                let frame = Frame::data(
                    MacAddr::local_from_index(i as u32 + 1),
                    MacAddr::BROADCAST,
                    MacAddr::local_from_index(0),
                    1,
                    b"pkt",
                );
                capture(&ap, &plan, pos, &frame, &fe, 90 + i as u64)
            })
            .collect();

        let batched = ap.observe_batch(&captures);
        assert_eq!(batched.len(), 3);
        for (buf, batched_obs) in captures.iter().zip(&batched) {
            let single = ap.observe(buf).expect("single-packet path");
            let b = batched_obs.as_ref().expect("batched path");
            assert_eq!(b.signature, single.signature);
            assert_eq!(b.bearing_deg, single.bearing_deg);
            assert_eq!(b.rss_db, single.rss_db);
            assert_eq!(b.frame, single.frame);
            assert_eq!(b.start, single.start);
            assert_eq!(b.extent, single.extent);
            assert_eq!(b.estimate.spectrum, single.estimate.spectrum);
            assert_eq!(b.estimate.eigenvalues, single.estimate.eigenvalues);
        }
    }

    #[test]
    fn rss_from_the_trace_is_the_mean_row_power_of_the_calibrated_window() {
        // `rss_db` comes from trace(R)/M of the calibrated covariance;
        // it must be the per-chain mean power of the calibrated window.
        let plan = room();
        let mut ap = make_ap();
        let pos = pt(4.0, 3.0);
        let fe = quiet_front_end(&ap, rx_power_at(&ap, &plan, pos), 25.0, 60);
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        ap.calibrate(&fe, &mut rng);
        let frame = Frame::data(
            MacAddr::local_from_index(1),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"rss",
        );
        let buf = capture(&ap, &plan, pos, &frame, &fe, 62);
        let obs = ap.observe(&buf).expect("packet");
        let mut window = CMat::from_fn(buf.rows(), obs.extent, |m, t| buf[(m, obs.start + t)]);
        ap.calibration().apply(&mut window);
        let mean_pow = (0..window.rows())
            .map(|m| sa_sigproc::iq::mean_power(window.row_view(m)))
            .sum::<f64>()
            / window.rows() as f64;
        assert!(
            (obs.rss_db - to_db(mean_pow)).abs() < 1e-9,
            "{} dB vs {} dB",
            obs.rss_db,
            to_db(mean_pow)
        );
    }

    #[test]
    fn batch_preserves_per_capture_errors_and_positions() {
        let plan = room();
        let mut ap = make_ap();
        let pos = pt(4.0, 3.0);
        let rx_pow = rx_power_at(&ap, &plan, pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 82);
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        ap.calibrate(&fe, &mut rng);
        let frame = Frame::data(
            MacAddr::local_from_index(1),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"ok",
        );
        let good = capture(&ap, &plan, pos, &frame, &fe, 84);
        let noise = CMat::from_fn(8, 2000, |_, _| sa_sigproc::noise::cn_sample(&mut rng, 1.0));
        let bad_shape = CMat::zeros(3, 100);

        let results = ap.observe_batch(&[noise, good.clone(), bad_shape]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap_err(), &ObserveError::NoPacket);
        assert!(results[1].is_ok(), "good capture failed in batch");
        assert_eq!(results[2].as_ref().unwrap_err(), &ObserveError::BadBuffer);

        // Enforcing the batched observation admits the listed client.
        let obs = ap.observe_batch(&[good]).remove(0).expect("good capture");
        assert!(ap.enforce(&obs).admitted());
    }

    #[test]
    fn staging_rejects_an_empty_extent_and_clamps_an_overlong_one() {
        let ap = make_ap();
        let buf = CMat::from_fn(8, 300, |m, t| sa_linalg::C64::new((m + t) as f64, 1.0));
        let decoded = |start, pkt_len| DecodedPacket {
            frame: None,
            start,
            cfo: 0.0,
            pkt_len,
        };
        let mut batch = ap.batch();
        for (start, pkt_len) in [(10, 0), (300, 64), (usize::MAX, 1)] {
            assert_eq!(
                batch.push_predecoded(&buf, &decoded(start, pkt_len)),
                Err(ObserveError::NoPacket),
                "start {start}, pkt_len {pkt_len}"
            );
        }
        assert!(batch.is_empty());
        batch
            .push_predecoded(&buf, &decoded(100, usize::MAX))
            .expect("overlong extent is clamped to the buffer");
        let obs = batch.process();
        assert_eq!(obs.len(), 1);
        assert_eq!((obs[0].start, obs[0].extent), (100, 200));
    }

    #[test]
    fn staging_rejects_a_non_finite_sample_in_the_window() {
        let plan = room();
        let mut ap = make_ap();
        let pos = pt(4.0, 3.0);
        let rx_pow = rx_power_at(&ap, &plan, pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 88);
        let mut rng = ChaCha8Rng::seed_from_u64(89);
        ap.calibrate(&fe, &mut rng);
        let frame = Frame::data(
            MacAddr::local_from_index(1),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            b"poisoned",
        );
        let buf = capture(&ap, &plan, pos, &frame, &fe, 90);
        let d = ap.decode_capture(&buf).expect("decodes");
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (row, part) in [(3, 0), (7, 1)] {
                // The reference row stays clean, so the capture still
                // decodes; one sample of another chain's window is bad.
                let mut bad = buf.clone();
                let z = &mut bad[(row, d.start + 5)];
                if part == 0 {
                    z.re = poison;
                } else {
                    z.im = poison;
                }
                assert!(ap.decode_capture(&bad).is_ok());
                let mut batch = ap.batch();
                assert_eq!(
                    batch.push_predecoded(&bad, &d),
                    Err(ObserveError::BadBuffer),
                    "{poison} in row {row}"
                );
                assert!(batch.is_empty());
                assert!(batch.process().is_empty());
            }
        }
    }

    #[test]
    fn snapshot_cap_equals_staging_the_decimated_capture() {
        let plan = room();
        let mut ap = make_ap();
        let pos = pt(4.0, 3.0);
        let rx_pow = rx_power_at(&ap, &plan, pos);
        let fe = quiet_front_end(&ap, rx_pow, 25.0, 85);
        let mut rng = ChaCha8Rng::seed_from_u64(86);
        ap.calibrate(&fe, &mut rng);
        let frame = Frame::data(
            MacAddr::local_from_index(1),
            MacAddr::BROADCAST,
            MacAddr::local_from_index(0),
            1,
            &[0x5a; 200],
        );
        let buf = capture(&ap, &plan, pos, &frame, &fe, 87);
        let d = ap.decode_capture(&buf).expect("decodes");
        let len = d.pkt_len.min(buf.cols() - d.start);
        for cap in [1usize, 97, 300, len - 1, len, len + 5] {
            let mut capped = ap.batch();
            capped.set_snapshot_cap(cap);
            capped.push_predecoded(&buf, &d).expect("staged");
            let capped = capped.process().pop().expect("one observation");

            // The same decimation, done by hand on the capture.
            let stride = len.div_ceil(cap);
            let n = len.div_ceil(stride);
            let decimated = CMat::from_fn(8, n, |m, t| buf[(m, d.start + t * stride)]);
            let whole = DecodedPacket {
                start: 0,
                pkt_len: n,
                ..d.clone()
            };
            let mut plain = ap.batch();
            plain.push_predecoded(&decimated, &whole).expect("staged");
            let plain = plain.process().pop().expect("one observation");

            assert!(capped.extent <= cap, "cap {cap}: extent {}", capped.extent);
            assert_eq!(capped.extent, n, "cap {cap}");
            assert_eq!(capped.extent, plain.extent, "cap {cap}");
            assert_eq!(capped.bearing_deg, plain.bearing_deg, "cap {cap}");
            assert_eq!(capped.signature, plain.signature, "cap {cap}");
            assert_eq!(capped.rss_db, plain.rss_db, "cap {cap}");
            assert_eq!(capped.start, d.start);
        }
    }

    /// The gather before it went snapshot-major: `CMat::from_fn`, row
    /// by row.
    fn row_major_gather(buffer: &CMat, start: usize, len: usize, stride: usize) -> CMat {
        CMat::from_fn(buffer.rows(), len.div_ceil(stride), |m, t| {
            buffer[(m, start + t * stride)]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn snapshot_major_gather_stages_the_row_major_window(
            rows in 2usize..=16,
            cols in 1usize..=600,
            start_frac in 0.0f64..1.0,
            pkt_len in 1usize..=700,
            seed in any::<u64>(),
            pick in any::<u64>(),
            poison in prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
        ) {
            let cfg = ApConfig {
                array: Array::paper_linear(rows),
                ..ApConfig::paper_prototype(pt(0.0, 0.0))
            };
            let ap = AccessPoint::new(cfg, AccessControlList::new(AclPolicy::AllowListed));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let buf = CMat::from_fn(rows, cols, |_, _| sa_sigproc::noise::cn_sample(&mut rng, 1.0));
            let start = ((cols as f64 * start_frac) as usize).min(cols - 1);
            let d = DecodedPacket { frame: None, start, cfo: 0.0, pkt_len };
            let len = pkt_len.min(cols - start);
            let plant = |col: usize| {
                let mut bad = buf.clone();
                let z = &mut bad[((pick >> 32) as usize % rows, col)];
                if pick & 1 == 0 {
                    z.re = poison;
                } else {
                    z.im = poison;
                }
                bad
            };
            let mut batch = ap.batch();
            for cap in [0, 1, 97, 128, len, len + 5] {
                batch.set_snapshot_cap(cap);
                prop_assert_eq!(batch.push_predecoded(&buf, &d), Ok(()));
                let stride = if cap > 0 { len.div_ceil(cap) } else { 1 };
                let want = row_major_gather(&buf, start, len, stride);
                let got = &batch.staged.last().expect("staged").window;
                prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                let bits = |w: &CMat| -> Vec<(u64, u64)> {
                    w.data().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                };
                prop_assert_eq!(bits(got), bits(&want), "cap {}", cap);

                // A bad sample the gather reads is caught; one it skips
                // (between strided snapshots or outside the extent) is not.
                let gathered = start + (pick as usize >> 1) % want.cols() * stride;
                prop_assert_eq!(
                    batch.push_predecoded(&plant(gathered), &d),
                    Err(ObserveError::BadBuffer),
                    "cap {}, column {}", cap, gathered
                );
                let skipped: Vec<usize> = (0..cols)
                    .filter(|&c| c < start || c >= start + len || !(c - start).is_multiple_of(stride))
                    .collect();
                if !skipped.is_empty() {
                    let col = skipped[(pick as usize >> 1) % skipped.len()];
                    prop_assert_eq!(
                        batch.push_predecoded(&plant(col), &d),
                        Ok(()),
                        "cap {}, column {}", cap, col
                    );
                }
            }
        }
    }

    /// The bit patterns of everything an observation reports.
    fn observation_bits(o: &Observation) -> Vec<u64> {
        let mut bits = vec![
            o.bearing_deg.to_bits(),
            o.rss_db.to_bits(),
            o.global_azimuth.map_or(u64::MAX, f64::to_bits),
            o.extent as u64,
        ];
        bits.extend(o.signature.spectrum().values.iter().map(|v| v.to_bits()));
        bits.extend(o.estimate.spectrum.values.iter().map(|v| v.to_bits()));
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One `process` over N staged packets equals N rounds of push →
        /// process through the engine the whole batch used, handed on
        /// with `into_engine`/`batch_with_engine`: observations do not
        /// depend on how packets are grouped into batches, nor on what
        /// the engine processed before.
        #[test]
        fn one_batch_equals_one_packet_at_a_time(
            circular in any::<bool>(),
            lens in proptest::collection::vec(8usize..=300, 1..=6),
            cap in prop_oneof![Just(0usize), Just(64)],
            seed in any::<u64>(),
        ) {
            let prototype = ApConfig::paper_prototype(pt(0.0, 0.0));
            let cfg = if circular {
                prototype
            } else {
                ApConfig {
                    array: Array::paper_linear(8),
                    ..prototype
                }
            };
            let ap = AccessPoint::new(cfg, AccessControlList::new(AclPolicy::AllowListed));
            let rows = ap.config().array.len();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // One dominant source (a random per-chain gain on a random
            // waveform) over a noise floor, per capture.
            let captures: Vec<(CMat, DecodedPacket)> = lens
                .iter()
                .map(|&len| {
                    let gain: Vec<sa_linalg::C64> = (0..rows)
                        .map(|_| sa_sigproc::noise::cn_sample(&mut rng, 1.0))
                        .collect();
                    let wave: Vec<sa_linalg::C64> = (0..len + 20)
                        .map(|_| sa_sigproc::noise::cn_sample(&mut rng, 4.0))
                        .collect();
                    let buf = CMat::from_fn(rows, len + 20, |m, t| {
                        gain[m] * wave[t] + sa_sigproc::noise::cn_sample(&mut rng, 0.1)
                    });
                    let d = DecodedPacket { frame: None, start: 10, cfo: 0.0, pkt_len: len };
                    (buf, d)
                })
                .collect();

            let mut batch = ap.batch();
            batch.set_snapshot_cap(cap);
            for (buf, d) in &captures {
                prop_assert_eq!(batch.push_predecoded(buf, d), Ok(()));
            }
            let whole = batch.process();
            let mut engine = batch.into_engine();
            let mut streamed = Vec::new();
            for (buf, d) in &captures {
                let mut one = ap.batch_with_engine(engine);
                one.set_snapshot_cap(cap);
                prop_assert_eq!(one.push_predecoded(buf, d), Ok(()));
                streamed.extend(one.process());
                engine = one.into_engine();
            }

            prop_assert_eq!(whole.len(), captures.len());
            prop_assert_eq!(streamed.len(), captures.len());
            for (k, (a, b)) in whole.iter().zip(&streamed).enumerate() {
                prop_assert_eq!(observation_bits(a), observation_bits(b), "packet {}", k);
            }
        }
    }

    #[test]
    fn noise_only_buffer_has_no_packet() {
        let ap = make_ap();
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let buf = CMat::from_fn(8, 2000, |_, _| sa_sigproc::noise::cn_sample(&mut rng, 1.0));
        assert_eq!(ap.observe(&buf).unwrap_err(), ObserveError::NoPacket);
    }
}
