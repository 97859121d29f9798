//! The bearing-fusion stage: group per-AP packet reports by client and
//! window, intersect the bearings, smooth per-client tracks, and run
//! the cross-AP spoof consensus.
//!
//! Fusion is deterministic by construction: reports are sorted by
//! `(ap, seq)` before fusing and clients are visited in MAC order, so
//! the output is independent of how the worker threads interleaved on
//! the report channel.
//!
//! The stage is the plain, single owner of all per-client fusion state:
//! one MAC-ordered map holding each client's α–β tracker, fix
//! statistics, consensus reference and consensus flags, plus the
//! flight recorder, all drained on the coordinator's thread. The
//! consensus rule itself is the pure [`ConsensusVerdict::judge`].
//! Fusion is well under 1% of a deployment window, so there is nothing
//! to gain from spreading it over threads.

use crate::config::DeployConfig;
use crate::health::BEARING_ERR_WARN_DEG;
use crate::report::{ApBearingError, ApPacket, ClientFix, ClientSummary, FusedWindow};
use crate::telemetry::{BearingEvidence, ClientWindowEvent, FusionTaps};
use sa_channel::geom::Point;
use sa_mac::MacAddr;
use sa_telemetry::{FlightRecorder, StageTimer};
use secureangle::localize::{localize_robust, localize_robust_weighted, BearingObservation};
use secureangle::spoof::{ConsensusVerdict, MAX_RESIDUAL_M, MIN_FIX_APS};
use secureangle::tracking::MobilityTracker;
use std::collections::BTreeMap;

/// Nominal duration of one observation window, seconds — the `dt` fed
/// to each client's α–β tracker between fused fixes. Purely logical
/// time: the scheduler never reads a wall clock.
const WINDOW_DT_S: f64 = 0.5;

/// Residual gate for auto-trained consensus reference positions,
/// meters: a client's first clean fused fix (no behind-AP bearings,
/// residual at most this) becomes its reference for the cross-AP spoof
/// consensus.
const REFERENCE_TRAIN_MAX_RESIDUAL_M: f64 = 1.0;

// A reference the consensus residual gate would flag must never train.
const _: () = assert!(REFERENCE_TRAIN_MAX_RESIDUAL_M <= MAX_RESIDUAL_M);

/// Per-client fusion state, created at the client's first fix.
struct ClientState {
    tracker: MobilityTracker,
    last_window: u64,
    fixes: u64,
    residual_sum: f64,
    /// The consensus reference position: trained from the first clean
    /// fix, forgotten on [`Fusion::rebaseline`].
    reference: Option<Point>,
    /// Consensus `Spoof` verdicts since the reference last trained.
    consensus_flags: usize,
}

/// The fusion stage. [`crate::Deployment`] owns one, but it is usable
/// standalone (and benchmarked standalone): feed it one window's
/// [`ApPacket`]s and it returns the fused result.
///
/// ```
/// use sa_channel::geom::pt;
/// use sa_deploy::{DeployConfig, Fusion};
///
/// let aps = vec![pt(0.0, 0.0), pt(10.0, 0.0), pt(10.0, 10.0)];
/// let mut fusion = Fusion::new(aps, DeployConfig::default());
/// assert_eq!(fusion.live_aps(), 3);
/// // Feed one closed window's ApPackets (normally from the workers):
/// let fused = fusion.fuse_window(0, Vec::new());
/// assert_eq!(fused.expected_aps, 3);
/// // Membership can change mid-run; consensus references re-baseline.
/// fusion.retire_ap(2);
/// assert_eq!(fusion.live_aps(), 2);
/// ```
pub struct Fusion {
    /// [`DeployConfig::weight_bearings_by_confidence`], the one setting
    /// fusion reads.
    weight_bearings_by_confidence: bool,
    ap_positions: Vec<Point>,
    /// Live-membership flags, indexed by stable AP id. Retired APs keep
    /// their position slot (historical packets may still reference it)
    /// but stop counting toward the expected quorum.
    live: Vec<bool>,
    /// Per-client state in MAC order, which is the order fixes leave in.
    clients: BTreeMap<MacAddr, ClientState>,
    /// How many times [`Fusion::rebaseline`] has run.
    rebaselines: u64,
    /// Telemetry taps (drain/consensus histograms and the flight
    /// recorder) — `None` until a deployment attaches them. Strictly
    /// out-of-band: every fused byte is identical with taps attached or
    /// not.
    taps: Option<FusionTaps>,
}

impl Fusion {
    /// New fusion stage for APs at the given positions (all live).
    /// Of `cfg` it keeps only
    /// [`DeployConfig::weight_bearings_by_confidence`].
    pub fn new(ap_positions: Vec<Point>, cfg: DeployConfig) -> Self {
        Self {
            clients: BTreeMap::new(),
            rebaselines: 0,
            weight_bearings_by_confidence: cfg.weight_bearings_by_confidence,
            live: vec![true; ap_positions.len()],
            ap_positions,
            taps: None,
        }
    }

    /// AP positions by stable id (retired APs keep theirs).
    pub(crate) fn ap_positions(&self) -> &[Point] {
        &self.ap_positions
    }

    /// Attach a deployment's telemetry taps: the `stage.fusion_drain`
    /// and `stage.consensus` histograms and the flight recorder that
    /// per-client window events go into.
    pub(crate) fn attach_telemetry(&mut self, taps: FusionTaps) {
        self.taps = Some(taps);
    }

    /// The flight recorder, when telemetry taps are attached.
    pub(crate) fn recorder(&self) -> Option<&FlightRecorder<MacAddr, ClientWindowEvent>> {
        self.taps.as_ref().map(|t| &t.recorder)
    }

    /// Number of clients with fusion state (tracker, fix statistics,
    /// consensus reference and flags) — the `fusion.tracked_clients`
    /// gauge.
    pub fn tracked_clients(&self) -> usize {
        self.clients.len()
    }

    /// Register a new AP at `position`; returns its stable id. Does
    /// **not** re-baseline — callers decide (a [`crate::Deployment`]
    /// re-baselines on every membership change).
    pub fn add_ap(&mut self, position: Point) -> usize {
        self.ap_positions.push(position);
        self.live.push(true);
        self.ap_positions.len() - 1
    }

    /// Mark an AP as no longer a member: it stops counting toward the
    /// expected quorum. Idempotent; unknown ids are ignored.
    pub fn retire_ap(&mut self, ap_id: usize) {
        if let Some(flag) = self.live.get_mut(ap_id) {
            *flag = false;
        }
    }

    /// How many consensus re-baselines this stage has performed
    /// (membership churn plus health quarantine/readmit events).
    pub fn rebaseline_count(&self) -> u64 {
        self.rebaselines
    }

    /// Number of live APs.
    pub fn live_aps(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Forget every trained consensus reference (flag history is kept)
    /// so clients re-baseline from their next clean fix. Deployments
    /// call this on AP membership change: the fused-fix geometry shifts
    /// with the contributing AP set, and references trained under the
    /// old membership would read as displacement — i.e. as spoofs.
    /// Mobility trackers are *not* reset (a client's position estimate
    /// stays valid; only the spoof baseline is geometry-dependent), and
    /// neither are flags: flags already raised remain evidence.
    pub fn rebaseline(&mut self) {
        for state in self.clients.values_mut() {
            state.reference = None;
        }
        self.rebaselines += 1;
    }

    /// A client's trained consensus reference position.
    pub fn reference(&self, mac: &MacAddr) -> Option<Point> {
        self.clients.get(mac).and_then(|s| s.reference)
    }

    /// Consensus flags accumulated for a client since its reference
    /// last trained.
    pub fn consensus_flags(&self, mac: &MacAddr) -> usize {
        self.clients.get(mac).map_or(0, |s| s.consensus_flags)
    }

    /// Fuse one closed window. `packets` is everything every AP
    /// reported for the window, in any order; ordering is normalised
    /// internally. Tracker `dt` is derived from the gap in window
    /// numbers (late windows fall back to the tracker's zero-`dt`
    /// position-only update). The expected quorum is the current live
    /// membership, with no missing-report slack and no quarantine; a
    /// coordinator that tracks per-window degradation uses
    /// [`Fusion::fuse_window_degraded`] instead.
    pub fn fuse_window(&mut self, window: u64, packets: Vec<ApPacket>) -> FusedWindow {
        let expected = self.live_aps();
        self.fuse_window_degraded(window, packets, expected, 0, 0)
    }

    /// [`Fusion::fuse_window`] with the coordinator's per-window
    /// degradation knowledge: `expected_aps` is the live membership
    /// *when the window was submitted* (it may differ from the current
    /// membership under churn); `missing_aps` is how many of those APs'
    /// reports are *known* not to have arrived (lost on the link,
    /// rejected for skew, marker lost, or the worker died). Only
    /// `missing_aps` earns the consensus displacement slack
    /// ([`ConsensusVerdict::judge`]) — a
    /// client that some delivered AP simply could not hear is a
    /// coverage fact, not link degradation, and gets no slack.
    ///
    /// `quarantined_aps` is how many APs the coordinator *withheld*
    /// from this window because their evidence is distrusted
    /// ([`crate::health::FleetHealth`]). Quarantine is not link
    /// degradation — a distrusted AP earns no consensus slack and is
    /// already excluded from `expected_aps` — but it is recorded on the
    /// fused window and in flight-recorder events so a post-mortem can
    /// see *why* the window fused thin.
    pub fn fuse_window_degraded(
        &mut self,
        window: u64,
        mut packets: Vec<ApPacket>,
        expected_aps: usize,
        missing_aps: usize,
        quarantined_aps: usize,
    ) -> FusedWindow {
        // Groups are pre-sized from the live membership — the expected
        // report count per client — instead of growing through
        // reallocation.
        let group_capacity = self.live_aps().max(1);
        // A detached fusion stage — or one whose deployment left
        // telemetry disabled — has no taps, so every span and recorder
        // call below is a single branch.
        let (drain_hist, consensus_hist, mut recorder) = match &mut self.taps {
            Some(t) => (Some(&*t.drain), Some(&*t.consensus), Some(&mut t.recorder)),
            None => (None, None, None),
        };
        // Times the whole drain (sort + group + fuse + consensus).
        let _drain_span = StageTimer::start(drain_hist);

        let n_packets = packets.len();
        // One (ap, seq) sort; every per-client group below then comes
        // out pre-ordered for free.
        packets.sort_by_key(|p| (p.ap_id, p.seq));

        // Group by claimed MAC, preserving the (ap, seq) order. Packets
        // without a decoded MAC carry no client state — they count
        // toward the window's packet total and nothing else.
        let mut by_mac: BTreeMap<MacAddr, Vec<&ApPacket>> = BTreeMap::new();
        for p in &packets {
            if let Some(mac) = p.mac {
                by_mac
                    .entry(mac)
                    .or_insert_with(|| Vec::with_capacity(group_capacity))
                    .push(p);
            }
        }

        let mut clients = Vec::with_capacity(by_mac.len());
        let mut bearings_total = 0usize;
        let mut localize_failures = 0usize;
        let mut ap_errors: BTreeMap<usize, ApBearingError> = BTreeMap::new();
        for (mac, reports) in by_mac {
            // Read the consensus reference *before* this client's check (a
            // clean fix below may auto-train it) so the flight-recorder
            // event shows what the verdict was actually compared against.
            let reference_at_check = recorder
                .as_ref()
                .and_then(|_| self.clients.get(&mac)?.reference)
                .map(|p| (p.x, p.y));
            let mut evidence = Vec::new();
            let mut bearings = Vec::new();
            let mut bearing_aps = Vec::new();
            let mut confidences = Vec::new();
            let mut confidence_sum = 0.0;
            let mut admitted_aps = 0usize;
            let mut flagged_aps = 0usize;
            for r in &reports {
                if let Some(b) = &r.report {
                    bearings.push(BearingObservation {
                        ap_position: self.ap_positions[r.ap_id],
                        azimuth: b.azimuth,
                    });
                    bearing_aps.push(r.ap_id);
                    confidences.push(b.confidence);
                    confidence_sum += b.confidence;
                    if recorder.is_some() {
                        evidence.push(BearingEvidence {
                            ap_id: r.ap_id,
                            azimuth_rad: b.azimuth,
                            confidence: b.confidence,
                        });
                    }
                }
                match r.verdict {
                    secureangle::pipeline::FrameVerdict::Admit { .. } => admitted_aps += 1,
                    secureangle::pipeline::FrameVerdict::Drop(
                        secureangle::pipeline::DropReason::SpoofSuspected { .. },
                    )
                    | secureangle::pipeline::FrameVerdict::Drop(
                        secureangle::pipeline::DropReason::Quarantined,
                    ) => flagged_aps += 1,
                    _ => {}
                }
            }
            bearings_total += bearings.len();
            let distinct_aps = |aps: &[usize]| {
                let mut seen: Vec<usize> = aps.to_vec();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            };
            let n_aps = distinct_aps(&bearing_aps);
            let mean_confidence = if bearings.is_empty() {
                0.0
            } else {
                confidence_sum / bearings.len() as f64
            };

            let (fix, track, consensus) = if n_aps >= MIN_FIX_APS {
                // Robust fit: a single AP's multipath ghost (a bearing
                // the fix lands behind) is dropped and the fix refit.
                // Optionally confidence-weighted, so marginal bearings
                // pull degraded windows less.
                let solved = if self.weight_bearings_by_confidence {
                    localize_robust_weighted(&bearings, &confidences, MIN_FIX_APS)
                } else {
                    localize_robust(&bearings, MIN_FIX_APS)
                };
                match solved {
                    Ok((fix, dropped)) => {
                        // Smooth the trace.
                        let state = self.clients.entry(mac).or_insert_with(|| ClientState {
                            tracker: MobilityTracker::new(),
                            last_window: window,
                            fixes: 0,
                            residual_sum: 0.0,
                            reference: None,
                            consensus_flags: 0,
                        });
                        let dt = window.saturating_sub(state.last_window) as f64 * WINDOW_DT_S;
                        let track = state.tracker.update(fix.position, dt);
                        state.last_window = window;
                        state.fixes += 1;
                        state.residual_sum += fix.residual_m;
                        // Consensus: check against the reference using
                        // the APs that actually *support* the robust
                        // fix (dropped ghost bearings no longer count
                        // toward the min-APs quorum), or auto-train
                        // the reference from the first clean fix.
                        let supporting_aps: Vec<usize> = bearing_aps
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| !dropped.contains(i))
                            .map(|(_, &ap)| ap)
                            .collect();
                        // Slack only for reports the coordinator knows
                        // went missing: the supporting count plus the
                        // missing count is "what this fix would have
                        // had on a healthy link", so range-limited
                        // clients and robust-dropped ghosts earn none.
                        let supporting = distinct_aps(&supporting_aps);
                        let verdict = {
                            let _span = StageTimer::start(consensus_hist);
                            ConsensusVerdict::judge(
                                state.reference,
                                &fix,
                                supporting,
                                supporting + missing_aps,
                            )
                        };
                        if verdict.is_spoof() {
                            state.consensus_flags += 1;
                        } else if verdict == ConsensusVerdict::Untrained
                            && fix.behind_count == 0
                            && fix.residual_m <= REFERENCE_TRAIN_MAX_RESIDUAL_M
                        {
                            // Training moves the reference and clears the
                            // client's flags.
                            state.reference = Some(fix.position);
                            state.consensus_flags = 0;
                        }
                        (Some(fix), Some(track), verdict)
                    }
                    Err(_) => {
                        localize_failures += 1;
                        (None, None, ConsensusVerdict::Insufficient)
                    }
                }
            } else {
                (None, None, ConsensusVerdict::Insufficient)
            };

            // Health evidence: how far every bearing — including any the
            // robust fit dropped as a ghost — sits from the azimuth the
            // fused fix implies for its AP. A persistently biased AP shows
            // up here window after window while honest APs hug zero.
            if let Some(f) = fix {
                for (i, b) in bearings.iter().enumerate() {
                    let err = bearing_err_deg(b.ap_position, f.position, b.azimuth);
                    let agg = ap_errors.entry(bearing_aps[i]).or_insert(ApBearingError {
                        ap_id: bearing_aps[i],
                        ..ApBearingError::default()
                    });
                    agg.bearings += 1;
                    if err > BEARING_ERR_WARN_DEG {
                        agg.over_warn += 1;
                    }
                    agg.max_err_deg = agg.max_err_deg.max(err);
                }
            }

            if let Some(recorder) = recorder.as_deref_mut() {
                recorder.record(
                    mac,
                    ClientWindowEvent {
                        window,
                        expected_aps,
                        missing_aps,
                        quarantined_aps,
                        n_aps,
                        bearings: evidence,
                        fix: fix.map(|f| (f.position.x, f.position.y)),
                        residual_m: fix.map_or(0.0, |f| f.residual_m),
                        reference: reference_at_check,
                        admitted_aps,
                        flagged_aps,
                        verdict: consensus,
                    },
                );
            }

            clients.push(ClientFix {
                mac,
                n_aps,
                n_bearings: bearings.len(),
                fix,
                track,
                consensus,
                admitted_aps,
                flagged_aps,
                mean_confidence,
                expected_aps,
            });
        }

        FusedWindow {
            window,
            clients,
            packets: n_packets,
            bearings: bearings_total,
            localize_failures,
            expected_aps,
            // Link-health fields are filled by the coordinator, which
            // owns the per-window loss/skew/marker accounting; a
            // standalone fusion stage reports zeros.
            lost_reports: 0,
            skew_rejected: 0,
            markers_lost: 0,
            corrupt_reports: 0,
            stalled_aps: 0,
            quarantined_aps,
            ap_bearing_errors: ap_errors.into_values().collect(),
        }
    }

    /// Per-client whole-run summaries, ordered by MAC.
    pub fn client_summaries(&self) -> Vec<ClientSummary> {
        self.clients
            .iter()
            .map(|(mac, s)| ClientSummary {
                mac: *mac,
                fixes: s.fixes,
                mean_residual_m: if s.fixes > 0 {
                    s.residual_sum / s.fixes as f64
                } else {
                    0.0
                },
                consensus_flags: s.consensus_flags,
                reference: s.reference,
                last_track: s.tracker.state().copied(),
            })
            .collect()
    }
}

/// Absolute angular disagreement, degrees, between a reported azimuth
/// and the azimuth from `ap_pos` to the fused `fix_pos` — the health
/// layer's per-window bearing-residual evidence
/// ([`crate::health::ApWindowEvidence`]).
pub(crate) fn bearing_err_deg(ap_pos: Point, fix_pos: Point, azimuth: f64) -> f64 {
    use std::f64::consts::PI;
    let mut d = azimuth - ap_pos.azimuth_to(fix_pos);
    while d > PI {
        d -= 2.0 * PI;
    }
    while d < -PI {
        d += 2.0 * PI;
    }
    d.abs().to_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_channel::geom::pt;
    use secureangle::pipeline::FrameVerdict;
    use secureangle::spoof::SpoofVerdict;

    fn pkt(ap_id: usize, seq: u64, mac: u32, az: f64) -> ApPacket {
        pkt_conf(ap_id, seq, mac, az, 0.9)
    }

    fn pkt_conf(ap_id: usize, seq: u64, mac: u32, az: f64, confidence: f64) -> ApPacket {
        ApPacket {
            ap_id,
            window: 0,
            seq,
            mac: Some(MacAddr::local_from_index(mac)),
            report: Some(secureangle::pipeline::BearingReport {
                mac: MacAddr::local_from_index(mac),
                azimuth: az,
                confidence,
                rss_db: -40.0,
                seq,
            }),
            bearing_deg: az.to_degrees(),
            rss_db: -40.0,
            verdict: FrameVerdict::Admit {
                spoof: SpoofVerdict::Match { score: 0.9 },
            },
        }
    }

    fn square_aps() -> Vec<Point> {
        vec![pt(0.0, 0.0), pt(10.0, 0.0), pt(10.0, 10.0), pt(0.0, 10.0)]
    }

    fn bearings_to(aps: &[Point], target: Point, mac: u32) -> Vec<ApPacket> {
        aps.iter()
            .enumerate()
            .map(|(i, &p)| pkt(i, 0, mac, p.azimuth_to(target)))
            .collect()
    }

    #[test]
    fn fuses_consistent_bearings_into_a_fix() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let target = pt(4.0, 6.0);
        let out = fusion.fuse_window(0, bearings_to(&aps, target, 1));
        assert_eq!(out.clients.len(), 1);
        let c = &out.clients[0];
        assert_eq!(c.n_aps, 4);
        let fix = c.fix.expect("fix");
        assert!(fix.position.dist(target) < 1e-6, "fix {:?}", fix.position);
        // First clean fix auto-trains the consensus reference.
        assert_eq!(c.consensus, ConsensusVerdict::Untrained);
        assert!(fusion.reference(&MacAddr::local_from_index(1)).is_some());
        // Second window at the same spot is consistent.
        let out = fusion.fuse_window(1, bearings_to(&aps, target, 1));
        assert!(matches!(
            out.clients[0].consensus,
            ConsensusVerdict::Consistent { .. }
        ));
    }

    #[test]
    fn displaced_client_is_flagged_by_consensus() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let home = pt(4.0, 6.0);
        fusion.fuse_window(0, bearings_to(&aps, home, 1));
        // The same MAC suddenly transmits from 7 m away.
        let out = fusion.fuse_window(1, bearings_to(&aps, pt(9.0, 1.0), 1));
        assert!(
            out.clients[0].consensus.is_spoof(),
            "verdict {:?}",
            out.clients[0].consensus
        );
        assert_eq!(fusion.consensus_flags(&MacAddr::local_from_index(1)), 1);
    }

    #[test]
    fn single_ap_bearing_is_insufficient() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let out = fusion.fuse_window(0, vec![pkt(0, 0, 1, 0.5)]);
        assert_eq!(out.clients[0].consensus, ConsensusVerdict::Insufficient);
        assert!(out.clients[0].fix.is_none());
    }

    #[test]
    fn fusion_is_order_independent() {
        let aps = square_aps();
        let target = pt(3.0, 3.0);
        let mut forward = Fusion::new(aps.clone(), DeployConfig::default());
        let mut reversed = Fusion::new(aps.clone(), DeployConfig::default());
        let pkts = bearings_to(&aps, target, 1);
        let mut rev = pkts.clone();
        rev.reverse();
        let a = forward.fuse_window(0, pkts);
        let b = reversed.fuse_window(0, rev);
        assert_eq!(a, b, "fusion must not depend on arrival order");
    }

    #[test]
    fn parallel_bearings_count_as_localize_failure() {
        let aps = vec![pt(0.0, 0.0), pt(0.0, 5.0)];
        let mut fusion = Fusion::new(aps, DeployConfig::default());
        // Both APs report the exact same azimuth from a vertical
        // baseline pointing... at the same angle: parallel lines.
        let out = fusion.fuse_window(0, vec![pkt(0, 0, 1, 0.3), pkt(1, 0, 1, 0.3)]);
        assert_eq!(out.localize_failures, 1);
        assert!(out.clients[0].fix.is_none());
    }

    #[test]
    fn two_bearings_fix_at_any_membership() {
        let aps = square_aps();
        let target = pt(4.0, 6.0);
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        // Full membership: two of four bearings meet the fixed quorum.
        let two = vec![
            pkt(0, 0, 1, aps[0].azimuth_to(target)),
            pkt(1, 0, 1, aps[1].azimuth_to(target)),
        ];
        let out = fusion.fuse_window(0, two.clone());
        assert_eq!(out.expected_aps, 4);
        let fix = out.clients[0].fix.expect("2-of-4 fix");
        assert!(fix.position.dist(target) < 1e-6);
        // Two APs retire: the same two bearings fix the same spot.
        fusion.retire_ap(2);
        fusion.retire_ap(3);
        let out = fusion.fuse_window(1, two.clone());
        assert_eq!(out.expected_aps, 2);
        let fix = out.clients[0].fix.expect("2-of-2 fix");
        assert!(fix.position.dist(target) < 1e-6);
        assert_eq!(out.clients[0].expected_aps, 2);
        // One bearing is below the quorum at any membership.
        let out = fusion.fuse_window(2, two[..1].to_vec());
        assert!(out.clients[0].fix.is_none());
    }

    #[test]
    fn rebaseline_forgets_references_until_the_next_clean_fix() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let mac = MacAddr::local_from_index(1);
        fusion.fuse_window(0, bearings_to(&aps, pt(4.0, 6.0), 1));
        assert!(fusion.reference(&mac).is_some());
        fusion.rebaseline();
        assert!(fusion.reference(&mac).is_none());
        // The next clean fix retrains — even at a different position,
        // without raising a (false) spoof flag.
        let out = fusion.fuse_window(1, bearings_to(&aps, pt(8.0, 2.0), 1));
        assert_eq!(out.clients[0].consensus, ConsensusVerdict::Untrained);
        let newref = fusion.reference(&mac).expect("retrained");
        assert!(newref.dist(pt(8.0, 2.0)) < 1e-6);
        assert_eq!(fusion.consensus_flags(&mac), 0);
    }

    #[test]
    fn rebaseline_clears_references_but_keeps_flags() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let mac = MacAddr::local_from_index(1);
        let (home, away) = (pt(4.0, 6.0), pt(9.0, 9.0));
        fusion.fuse_window(0, bearings_to(&aps, home, 1));
        for w in 1..3 {
            let out = fusion.fuse_window(w, bearings_to(&aps, away, 1));
            assert!(out.clients[0].consensus.is_spoof());
        }
        assert_eq!(fusion.consensus_flags(&mac), 2);
        fusion.rebaseline();
        assert_eq!(fusion.rebaseline_count(), 1);
        assert!(fusion.reference(&mac).is_none());
        // Flag history survives as evidence…
        assert_eq!(fusion.consensus_flags(&mac), 2);
        // …and an unclean fix (AP 3's bearing 40° off pushes the residual
        // over the training gate) reads Untrained without training.
        let mut unclean = bearings_to(&aps, away, 1);
        if let Some(r) = unclean[3].report.as_mut() {
            r.azimuth += 40f64.to_radians();
        }
        let out = fusion.fuse_window(3, unclean);
        let fix = out.clients[0].fix.expect("fix");
        assert!(fix.residual_m > REFERENCE_TRAIN_MAX_RESIDUAL_M, "{fix:?}");
        assert_eq!(out.clients[0].consensus, ConsensusVerdict::Untrained);
        assert!(fusion.reference(&mac).is_none());
        assert_eq!(fusion.consensus_flags(&mac), 2);
        // The next clean fix retrains the reference and resets the flags,
        // which is what the run summary reports.
        let out = fusion.fuse_window(4, bearings_to(&aps, away, 1));
        assert_eq!(out.clients[0].consensus, ConsensusVerdict::Untrained);
        let reference = fusion.reference(&mac).expect("retrained");
        assert!(reference.dist(away) < 1e-6);
        assert_eq!(fusion.consensus_flags(&mac), 0);
        let summary = &fusion.client_summaries()[0];
        assert_eq!(summary.consensus_flags, 0);
        assert_eq!(summary.reference, Some(reference));
        let out = fusion.fuse_window(5, bearings_to(&aps, away, 1));
        assert!(matches!(
            out.clients[0].consensus,
            ConsensusVerdict::Consistent { .. }
        ));
    }

    #[test]
    fn clients_never_share_references_or_flags() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let (a, b) = (MacAddr::local_from_index(1), MacAddr::local_from_index(2));
        let (home_a, home_b) = (pt(4.0, 6.0), pt(8.0, 2.0));
        let both = |pos_a: Point, pos_b: Point| {
            let mut pkts = bearings_to(&aps, pos_a, 1);
            pkts.extend(bearings_to(&aps, pos_b, 2));
            pkts
        };
        fusion.fuse_window(0, both(home_a, home_b));
        assert!(fusion.reference(&a).expect("a trained").dist(home_a) < 1e-6);
        assert!(fusion.reference(&b).expect("b trained").dist(home_b) < 1e-6);
        // Client b moves onto a's reference: b is flagged, a is not.
        let out = fusion.fuse_window(1, both(home_a, home_a));
        assert!(matches!(
            out.clients[0].consensus,
            ConsensusVerdict::Consistent { .. }
        ));
        assert!(out.clients[1].consensus.is_spoof());
        assert_eq!(fusion.consensus_flags(&a), 0);
        assert_eq!(fusion.consensus_flags(&b), 1);
        // A rebaseline keeps b's flag alone, and each client retrains at
        // its own next clean fix.
        fusion.rebaseline();
        assert_eq!(fusion.consensus_flags(&a), 0);
        assert_eq!(fusion.consensus_flags(&b), 1);
        fusion.fuse_window(2, both(home_b, home_a));
        assert!(fusion.reference(&a).expect("a").dist(home_b) < 1e-6);
        assert!(fusion.reference(&b).expect("b").dist(home_a) < 1e-6);
        let flags: Vec<usize> = fusion
            .client_summaries()
            .iter()
            .map(|s| s.consensus_flags)
            .collect();
        assert_eq!(flags, [0, 0]);
        assert_eq!(fusion.tracked_clients(), 2);
    }

    #[test]
    fn partial_windows_get_consensus_slack_but_attacks_still_flag() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let home = pt(4.0, 6.0);
        fusion.fuse_window(0, bearings_to(&aps, home, 1));
        // A 2-of-4 window 2.4 m off because two AP reports were LOST:
        // over the 2 m full-quorum gate, inside the degraded-window
        // slack (2 + 2×0.5 = 3 m).
        let nearby = pt(6.4, 6.0);
        let partial: Vec<ApPacket> = aps[..2]
            .iter()
            .enumerate()
            .map(|(i, &p)| pkt(i, 0, 1, p.azimuth_to(nearby)))
            .collect();
        let out = fusion.fuse_window_degraded(1, partial.clone(), 4, 2, 0);
        assert!(
            matches!(
                out.clients[0].consensus,
                ConsensusVerdict::Consistent { .. }
            ),
            "lost-report window should get slack: {:?}",
            out.clients[0].consensus
        );
        // The same 2-AP view with every report DELIVERED (the client is
        // merely out of the other APs' range) earns no slack: coverage
        // is not degradation, and the displacement is flagged.
        let out = fusion.fuse_window_degraded(2, partial, 4, 0, 0);
        assert!(
            out.clients[0].consensus.is_spoof(),
            "range-limited client must not get loss slack: {:?}",
            out.clients[0].consensus
        );
        // A real displacement is caught even with lost-report slack.
        let far = pt(9.0, 1.0);
        let attack: Vec<ApPacket> = aps[..2]
            .iter()
            .enumerate()
            .map(|(i, &p)| pkt(i, 0, 1, p.azimuth_to(far)))
            .collect();
        let out = fusion.fuse_window_degraded(3, attack, 4, 2, 0);
        assert!(out.clients[0].consensus.is_spoof());
    }

    #[test]
    fn confidence_weighting_pulls_fix_toward_confident_bearings() {
        let aps = square_aps();
        let target = pt(4.0, 6.0);
        let biased = |fusion: &mut Fusion| {
            // Three confident bearings on the target plus one marginal,
            // badly biased bearing from AP 3.
            let mut pkts: Vec<ApPacket> = aps[..3]
                .iter()
                .enumerate()
                .map(|(i, &p)| pkt_conf(i, 0, 1, p.azimuth_to(target), 0.95))
                .collect();
            pkts.push(pkt_conf(3, 0, 1, aps[3].azimuth_to(target) + 0.35, 0.05));
            fusion.fuse_window(0, pkts)
        };
        let mut unweighted = Fusion::new(aps.clone(), DeployConfig::default());
        let cfg = DeployConfig {
            weight_bearings_by_confidence: true,
            ..DeployConfig::default()
        };
        let mut weighted = Fusion::new(aps.clone(), cfg);
        let u = biased(&mut unweighted).clients[0].fix.expect("fix");
        let w = biased(&mut weighted).clients[0].fix.expect("fix");
        assert!(
            w.position.dist(target) < u.position.dist(target),
            "weighted {:?} vs unweighted {:?}",
            w.position,
            u.position
        );
    }

    #[test]
    fn bearing_errors_expose_a_biased_ap() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        let target = pt(4.0, 6.0);
        let mut pkts = bearings_to(&aps, target, 1);
        // AP 3's bearing is 15 degrees off — a byzantine bias.
        if let Some(r) = pkts[3].report.as_mut() {
            r.azimuth += 15f64.to_radians();
        }
        let out = fusion.fuse_window_degraded(0, pkts, 4, 0, 1);
        assert_eq!(out.quarantined_aps, 1);
        assert_eq!(out.ap_bearing_errors.len(), 4);
        // The fix absorbs part of the bias, so the biased AP's residual
        // is below 15° — but it clears the 6° warn line while the
        // honest APs (pulled at most ~5°) stay under it.
        let biased = out
            .ap_bearing_errors
            .iter()
            .find(|e| e.ap_id == 3)
            .expect("evidence for the biased AP");
        assert!(biased.max_err_deg > 6.0, "{:?}", biased);
        assert_eq!(biased.over_warn, 1);
        for e in out.ap_bearing_errors.iter().filter(|e| e.ap_id != 3) {
            assert!(e.max_err_deg < 6.0, "honest AP flagged: {:?}", e);
            assert_eq!(e.over_warn, 0);
        }
    }

    #[test]
    fn revive_ap_restores_quorum_membership() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        fusion.retire_ap(2);
        assert_eq!(fusion.live_aps(), 3);
        assert_eq!(fusion.rebaseline_count(), 0);
        fusion.rebaseline();
        assert_eq!(fusion.rebaseline_count(), 1);
    }

    #[test]
    fn summaries_track_fix_counts() {
        let aps = square_aps();
        let mut fusion = Fusion::new(aps.clone(), DeployConfig::default());
        for w in 0..3 {
            fusion.fuse_window(w, bearings_to(&aps, pt(4.0, 6.0), 7));
        }
        let s = fusion.client_summaries();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].fixes, 3);
        assert!(s[0].mean_residual_m < 0.1);
        assert!(s[0].last_track.is_some());
    }
}
