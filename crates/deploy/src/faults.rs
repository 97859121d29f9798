//! Deterministic fault injection: a seeded, scripted schedule of the
//! failures a fleet actually meets — wedged workers, mid-window
//! crashes, corrupted report payloads, byzantine bearing bias, burst
//! link loss, lost end-of-window markers, and clocks that start
//! *drifting* mid-run.
//!
//! A [`FaultPlan`] is attached via [`crate::DeployConfig::faults`]
//! (default: `None` — the fault layer is zero-cost-off and the
//! deployment behaves byte-identically to a plan-free run, pinned by
//! `tests/proptest_chaos.rs`). It is the only way a simulated worker
//! fault enters a deployment (random per-attempt report loss is the
//! link model, [`crate::LinkConfig`]). Every fault is a pure function
//! of the plan and the window number, never of wall clocks or thread
//! interleavings, so a seeded chaos run is byte-reproducible: the same
//! plan degrades the same windows the same way on every rerun, at any
//! pipelining depth.
//!
//! The defensive counterpart lives in [`crate::health`]: corrupted
//! payloads are caught by the report-wire checksum, byzantine bearings
//! by the per-AP bearing-residual score, and persistent stalls by the
//! window-count watchdog. Lost markers are settled exactly by the
//! coordinator's numbered dispatches (see [`crate::align`]) and crashed
//! workers by its dead-worker sweep.

/// How a corrupted report payload is mangled on the wire. All three are
/// applied *after* the worker computes the payload checksum — they
/// model on-path corruption, so the coordinator's checksum verification
/// catches them and rejects the payload
/// ([`crate::ApStats::reports_corrupt`]). A *lying AP* (valid checksum,
/// wrong bearings) is the byzantine case instead — see
/// [`FaultEvent::ByzantineBias`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Flip a high mantissa bit of the first report's azimuth — the
    /// classic silent bit-flip that used to be fused as a real bearing.
    BitFlipBearing,
    /// Rewind every packet's sequence label — a stale-seq replay.
    StaleSeq,
    /// Replace the first report's confidence with garbage (±1e300).
    GarbageConfidence,
}

/// One scripted fault. Windows are *global* window numbers; AP ids are
/// the deployment's stable ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// AP `ap`'s worker wedges for `for_windows` windows starting at
    /// `from_window`: its DSP produces nothing for those windows (the
    /// end-of-window marker still rides the live control path, flagged
    /// as stalled, so windows close). A wedge longer than the health
    /// layer's stall watchdog gets the worker reaped.
    Stall {
        /// The wedged AP.
        ap: usize,
        /// First stalled window.
        from_window: u64,
        /// Stall length, windows.
        for_windows: u64,
    },
    /// AP `ap`'s worker dies mid-window at `window`: neither payload
    /// nor marker is ever sent — the thread is simply gone, exactly
    /// like a panic or power loss.
    Crash {
        /// The crashing AP.
        ap: usize,
        /// The window it dies in.
        window: u64,
    },
    /// AP `ap`'s report payloads are corrupted on the wire from
    /// `from_window` on (every window, until the run ends).
    Corrupt {
        /// The AP whose uplink corrupts.
        ap: usize,
        /// First corrupted window.
        from_window: u64,
        /// How the payload is mangled.
        mode: CorruptionMode,
    },
    /// AP `ap` turns byzantine at `from_window`: every bearing it
    /// reports is biased by `bias_deg` degrees. The checksum is valid —
    /// the AP itself is lying — so only the cross-AP health score
    /// ([`crate::health`]) can catch it.
    ByzantineBias {
        /// The lying AP.
        ap: usize,
        /// First biased window.
        from_window: u64,
        /// Bearing bias, degrees.
        bias_deg: f64,
    },
    /// Burst link loss: every report payload from AP `ap` is dropped
    /// (retries and all) for `for_windows` windows starting at
    /// `from_window`. Markers survive — windows close degraded.
    BurstLoss {
        /// The AP whose uplink bursts.
        ap: usize,
        /// First lost window.
        from_window: u64,
        /// Burst length, windows.
        for_windows: u64,
    },
    /// AP `ap`'s end-of-window marker for `window` is lost on the
    /// control path: the worker does the window's work but the
    /// coordinator never hears that it finished. The next message from
    /// the worker that shows the window's dispatch number finished — a
    /// later marker, the reply to the flush request
    /// [`crate::Deployment::collect_window`] sends when it would
    /// otherwise wait, or the exit notice — reveals the loss, and the
    /// window closes without the AP, counted once in
    /// [`crate::FusedWindow::markers_lost`].
    MarkerLoss {
        /// The AP whose marker is lost.
        ap: usize,
        /// The window whose marker is lost.
        window: u64,
    },
    /// AP `ap`'s clock starts *drifting* at `from_window`, gaining
    /// `drift_ppw` windows of label skew per elapsed window on top of
    /// its configured [`crate::ApSkew`]. Drift never moves a report to
    /// another window (reports are matched by dispatch number); the
    /// aligner learns a gentle drift rate (see
    /// [`crate::align::SkewAligner`]), and drift beyond
    /// [`crate::DeployConfig::max_skew_windows`] is rejected and scored
    /// by the health layer.
    DriftOnset {
        /// The drifting AP.
        ap: usize,
        /// Window the drift starts.
        from_window: u64,
        /// Additional drift, windows per window.
        drift_ppw: f64,
    },
}

impl FaultEvent {
    /// The AP this event targets.
    pub fn ap(&self) -> usize {
        match *self {
            FaultEvent::Stall { ap, .. }
            | FaultEvent::Crash { ap, .. }
            | FaultEvent::Corrupt { ap, .. }
            | FaultEvent::ByzantineBias { ap, .. }
            | FaultEvent::BurstLoss { ap, .. }
            | FaultEvent::MarkerLoss { ap, .. }
            | FaultEvent::DriftOnset { ap, .. } => ap,
        }
    }
}

/// A seeded, scripted fault schedule for one deployment run. Attach via
/// [`crate::DeployConfig::faults`]; `None` (the default) injects
/// nothing and is byte-transparent.
///
/// ```
/// use sa_deploy::faults::{FaultEvent, FaultPlan};
/// let plan = FaultPlan {
///     seed: 7,
///     events: vec![FaultEvent::ByzantineBias {
///         ap: 1,
///         from_window: 4,
///         bias_deg: 15.0,
///     }],
/// };
/// assert_eq!(plan.for_ap(1).len(), 1);
/// assert!(plan.for_ap(0).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Plan seed: the seed [`FaultPlan::scripted`] derived the
    /// schedule from. Every event is scripted, so the deployment never
    /// draws from it.
    pub seed: u64,
    /// The scripted events, in any order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The events targeting one AP (the per-worker view the deployment
    /// hands each worker thread).
    pub fn for_ap(&self, ap: usize) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.ap() == ap)
            .collect()
    }

    /// A canonical scripted chaos schedule over `n_aps` APs, derived
    /// from `seed` — the plan behind `multi_ap_fence --chaos <seed>`
    /// and the CI chaos smoke. Rotates one fault family per AP
    /// (byzantine bias, wire corruption, burst loss, stall, drift
    /// onset), with onset windows and magnitudes varied by the seed so
    /// different seeds exercise different timelines. AP `seed % n_aps`
    /// always turns byzantine (+15°) — the quarantine the smoke
    /// asserts.
    pub fn scripted(n_aps: usize, seed: u64) -> Self {
        let mut events = Vec::new();
        let byz = (seed % n_aps.max(1) as u64) as usize;
        let onset = 4 + (seed % 3);
        events.push(FaultEvent::ByzantineBias {
            ap: byz,
            from_window: onset,
            bias_deg: 15.0,
        });
        for k in 0..n_aps {
            if k == byz {
                continue;
            }
            // Deterministic family rotation over the remaining APs.
            let roll = (seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 4;
            let from = onset + 1 + (k as u64 % 3);
            events.push(match roll {
                0 => FaultEvent::Corrupt {
                    ap: k,
                    from_window: from,
                    mode: match seed % 3 {
                        0 => CorruptionMode::BitFlipBearing,
                        1 => CorruptionMode::StaleSeq,
                        _ => CorruptionMode::GarbageConfidence,
                    },
                },
                1 => FaultEvent::BurstLoss {
                    ap: k,
                    from_window: from,
                    for_windows: 2 + seed % 2,
                },
                2 => FaultEvent::Stall {
                    ap: k,
                    from_window: from,
                    for_windows: 2,
                },
                _ => FaultEvent::DriftOnset {
                    ap: k,
                    from_window: from,
                    drift_ppw: 0.25,
                },
            });
        }
        Self { seed, events }
    }
}

/// The compiled per-worker fault view: what one AP's worker thread
/// needs to answer "what happens to window `w`" in O(events) with no
/// allocation on the hot path.
#[derive(Debug, Clone, Default)]
pub(crate) struct ApFaults {
    events: Vec<FaultEvent>,
}

/// What the fault layer does to one window at one AP.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct WindowFaults {
    /// Wedge: skip DSP, withhold payload, flag the marker stalled.
    pub stall: bool,
    /// Die mid-window: no payload, no marker, thread exits.
    pub crash: bool,
    /// Mangle the payload after checksumming.
    pub corrupt: Option<CorruptionMode>,
    /// Bias every bearing, radians.
    pub bias_rad: f64,
    /// Force the payload lost on the link (marker survives).
    pub burst_loss: bool,
    /// Drop the end-of-window marker (and with it the payload).
    pub marker_lost: bool,
    /// Extra window-label skew from drift onset, windows.
    pub extra_label: i64,
}

impl ApFaults {
    pub fn new(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Evaluate the plan for global window `w`.
    pub fn at(&self, w: u64) -> WindowFaults {
        let mut out = WindowFaults::default();
        for e in &self.events {
            match *e {
                FaultEvent::Stall {
                    from_window,
                    for_windows,
                    ..
                } => {
                    if w >= from_window && w < from_window.saturating_add(for_windows) {
                        out.stall = true;
                    }
                }
                FaultEvent::Crash { window, .. } => {
                    if w == window {
                        out.crash = true;
                    }
                }
                FaultEvent::Corrupt {
                    from_window, mode, ..
                } => {
                    if w >= from_window {
                        out.corrupt = Some(mode);
                    }
                }
                FaultEvent::ByzantineBias {
                    from_window,
                    bias_deg,
                    ..
                } => {
                    if w >= from_window {
                        out.bias_rad += bias_deg.to_radians();
                    }
                }
                FaultEvent::BurstLoss {
                    from_window,
                    for_windows,
                    ..
                } => {
                    if w >= from_window && w < from_window.saturating_add(for_windows) {
                        out.burst_loss = true;
                    }
                }
                FaultEvent::MarkerLoss { window, .. } => {
                    if w == window {
                        out.marker_lost = true;
                    }
                }
                FaultEvent::DriftOnset {
                    from_window,
                    drift_ppw,
                    ..
                } => {
                    if w > from_window {
                        out.extra_label += (drift_ppw * (w - from_window) as f64).trunc() as i64;
                    }
                }
            }
        }
        out
    }
}

/// FNV-1a over the semantic bytes of a report payload — the report-wire
/// checksum. Computed by the worker before the payload leaves (and
/// before any wire corruption is injected), verified by the
/// coordinator on receipt: a mismatch rejects the whole payload and
/// counts [`crate::ApStats::reports_corrupt`] instead of silently
/// fusing a bit-flipped bearing.
pub(crate) fn payload_checksum(
    label: i64,
    seq_base: Option<u64>,
    packets: &[crate::ApPacket],
) -> u64 {
    let mut h = Fnv::new();
    h.word(label as u64);
    h.word(seq_base.map_or(u64::MAX, |s| s));
    for p in packets {
        h.word(p.ap_id as u64);
        h.word(p.seq);
        h.word(p.mac.map_or(0, |m| mac_word(&m) | 1 << 63));
        h.word(p.bearing_deg.to_bits());
        h.word(p.rss_db.to_bits());
        match &p.report {
            Some(r) => {
                h.word(r.azimuth.to_bits());
                h.word(r.confidence.to_bits());
                h.word(r.rss_db.to_bits());
                h.word(r.seq);
            }
            None => h.word(u64::MAX - 1),
        }
    }
    h.finish()
}

fn mac_word(m: &sa_mac::MacAddr) -> u64 {
    m.0.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64)
}

/// Minimal FNV-1a, word-at-a-time (the deploy crate keeps its runtime
/// dependency set free of hashing crates).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Apply wire corruption to a payload (after checksumming).
pub(crate) fn corrupt_payload(packets: &mut [crate::ApPacket], mode: CorruptionMode) {
    match mode {
        CorruptionMode::BitFlipBearing => {
            if let Some(r) = packets.iter_mut().find_map(|p| p.report.as_mut()) {
                r.azimuth = f64::from_bits(r.azimuth.to_bits() ^ (1 << 51));
            }
        }
        CorruptionMode::StaleSeq => {
            for p in packets.iter_mut() {
                p.seq = p.seq.wrapping_sub(1000);
                if let Some(r) = &mut p.report {
                    r.seq = p.seq;
                }
            }
        }
        CorruptionMode::GarbageConfidence => {
            if let Some(r) = packets.iter_mut().find_map(|p| p.report.as_mut()) {
                r.confidence = 1e300;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ApPacket;
    use sa_mac::MacAddr;
    use secureangle::pipeline::{BearingReport, FrameVerdict};
    use secureangle::spoof::SpoofVerdict;

    fn sample_packet() -> ApPacket {
        ApPacket {
            ap_id: 2,
            window: 5,
            seq: 3,
            mac: Some(MacAddr::local_from_index(9)),
            report: Some(BearingReport {
                mac: MacAddr::local_from_index(9),
                azimuth: 1.25,
                confidence: 0.8,
                rss_db: -42.0,
                seq: 3,
            }),
            bearing_deg: 71.6,
            rss_db: -42.0,
            verdict: FrameVerdict::Admit {
                spoof: SpoofVerdict::Match { score: 0.9 },
            },
        }
    }

    #[test]
    fn window_faults_follow_the_script() {
        let f = ApFaults::new(vec![
            FaultEvent::Stall {
                ap: 0,
                from_window: 3,
                for_windows: 2,
            },
            FaultEvent::BurstLoss {
                ap: 0,
                from_window: 6,
                for_windows: 1,
            },
            FaultEvent::ByzantineBias {
                ap: 0,
                from_window: 8,
                bias_deg: 15.0,
            },
            FaultEvent::DriftOnset {
                ap: 0,
                from_window: 0,
                drift_ppw: 0.5,
            },
            FaultEvent::MarkerLoss { ap: 0, window: 5 },
        ]);
        assert!(!f.at(2).stall);
        assert!(f.at(3).stall && f.at(4).stall && !f.at(5).stall);
        assert!(f.at(6).burst_loss && !f.at(7).burst_loss);
        assert!(f.at(5).marker_lost && !f.at(4).marker_lost && !f.at(6).marker_lost);
        assert_eq!(f.at(7).bias_rad, 0.0);
        assert!((f.at(8).bias_rad - 15f64.to_radians()).abs() < 1e-12);
        assert_eq!(f.at(4).extra_label, 2);
        assert_eq!(f.at(9).extra_label, 4);
    }

    #[test]
    fn checksum_catches_every_corruption_mode() {
        let label = 5i64;
        let base = Some(3u64);
        for mode in [
            CorruptionMode::BitFlipBearing,
            CorruptionMode::StaleSeq,
            CorruptionMode::GarbageConfidence,
        ] {
            let mut pkts = vec![sample_packet()];
            let sum = payload_checksum(label, base, &pkts);
            corrupt_payload(&mut pkts, mode);
            assert_ne!(
                sum,
                payload_checksum(label, base, &pkts),
                "{mode:?} must break the checksum"
            );
        }
        // And an uncorrupted payload verifies.
        let pkts = vec![sample_packet()];
        assert_eq!(
            payload_checksum(label, base, &pkts),
            payload_checksum(label, base, &pkts)
        );
    }

    #[test]
    fn scripted_plan_targets_every_ap_and_is_seed_deterministic() {
        let a = FaultPlan::scripted(4, 42);
        let b = FaultPlan::scripted(4, 42);
        assert_eq!(a, b);
        let mut aps: Vec<usize> = a.events.iter().map(|e| e.ap()).collect();
        aps.sort_unstable();
        aps.dedup();
        assert_eq!(aps, vec![0, 1, 2, 3]);
        // Exactly one byzantine AP, at seed % n_aps.
        let byz: Vec<_> = a
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::ByzantineBias { .. }))
            .collect();
        assert_eq!(byz.len(), 1);
        assert_eq!(byz[0].ap(), 2);
        assert_ne!(FaultPlan::scripted(4, 43).events, a.events);
    }
}
