//! Address-spoofing detection (paper §2.3.2).
//!
//! "SecureAngle records a legitimate client's signature `S_cl` during the
//! initial training stage and associates this signature with the MAC
//! address. For all the incoming packets associated with this MAC
//! address, signatures will be compared with `S_cl` … If a malicious
//! client injects traffic into the network, the AP can detect the
//! consequent change of signature and flag the injection event."
//!
//! The detector keeps one [`SignatureTracker`] per MAC address. A frame
//! whose signature matches above the threshold is admitted *and* folded
//! into the tracker (so benign drift is followed); a frame below the
//! threshold is flagged and NOT folded in (so an attacker cannot walk
//! the profile toward their own position).

use crate::localize::Fix;
use crate::signature::{AoaSignature, SignatureTracker};
use sa_channel::geom::Point;
use sa_mac::MacAddr;
use std::collections::HashMap;

/// Verdict for one observed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpoofVerdict {
    /// Signature matches the trained profile (score attached).
    Match {
        /// Combined match score, `[0, 1]`.
        score: f64,
    },
    /// Signature differs beyond the threshold — probable spoof/injection.
    Spoof {
        /// Combined match score, `[0, 1]`.
        score: f64,
    },
    /// No profile exists for this MAC yet.
    Untrained,
}

impl SpoofVerdict {
    /// True for the `Spoof` variant.
    pub fn is_spoof(&self) -> bool {
        matches!(self, SpoofVerdict::Spoof { .. })
    }
}

/// Scores at or above this admit the frame; below flags it.
///
/// Calibrated by experiment E5 (`sa_testbed::experiments::spoofing`,
/// regenerated by `experiments spoofing` in `sa-bench`) on the 60-bin
/// coarse-scan signature under realistic session churn: legitimate
/// re-measurements score median ≈ 0.77 (5th percentile ≈ 0.29),
/// attackers median ≈ 0.07 (95th percentile ≈ 0.35). At 0.40 the
/// detector raises false alarms on 10.5% of legitimate frames and
/// catches 95.0–97.1% of attack frames per attacker gear; the pooled
/// equal-error rate is 6.1% at 0.306. The threshold sits above the EER
/// point, so single flags are evidence rather than verdicts: alert on
/// k-of-n flags ([`SpoofDetector::flag_count`]). The full E5 table is in
/// `docs/BENCHMARKS.md`.
pub const SPOOF_THRESHOLD: f64 = 0.40;

/// Per-AP spoofing detector: MAC → tracked signature.
///
/// Each AP owns its detector outright (a deployment runs one AP per
/// worker thread), so client state is two plain maps with one writer.
#[derive(Debug, Default)]
pub struct SpoofDetector {
    profiles: HashMap<MacAddr, SignatureTracker>,
    flags: HashMap<MacAddr, usize>,
}

impl SpoofDetector {
    /// New detector with no trained clients.
    pub fn new() -> Self {
        Self::default()
    }

    /// Train (or retrain) the profile for a MAC from a signature captured
    /// during authentication — the paper's "initial training stage".
    /// Clears the MAC's flags.
    pub fn train(&mut self, mac: MacAddr, signature: AoaSignature) {
        self.profiles.insert(mac, SignatureTracker::new(signature));
        self.flags.remove(&mac);
    }

    /// True if a profile exists for the MAC.
    pub fn is_trained(&self, mac: &MacAddr) -> bool {
        self.profiles.contains_key(mac)
    }

    /// The tracked signature for a MAC, if trained.
    pub fn profile(&self, mac: &MacAddr) -> Option<&AoaSignature> {
        self.profiles.get(mac).map(SignatureTracker::signature)
    }

    /// Number of trained clients.
    pub fn trained_count(&self) -> usize {
        self.profiles.len()
    }

    /// Number of frames flagged for a MAC so far.
    pub fn flag_count(&self, mac: &MacAddr) -> usize {
        self.flags.get(mac).copied().unwrap_or(0)
    }

    /// Check one observed frame's signature against the profile for its
    /// claimed source MAC. A score at or above the threshold folds the
    /// observation into the tracker; below it flags the MAC and leaves
    /// the profile untouched.
    pub fn check(&mut self, mac: MacAddr, observed: &AoaSignature) -> SpoofVerdict {
        let Some(tracker) = self.profiles.get_mut(&mac) else {
            return SpoofVerdict::Untrained;
        };
        let score = tracker.signature().compare(observed).score;
        if score >= SPOOF_THRESHOLD {
            tracker.update(observed);
            SpoofVerdict::Match { score }
        } else {
            *self.flags.entry(mac).or_insert(0) += 1;
            SpoofVerdict::Spoof { score }
        }
    }
}

// Cross-AP consensus thresholds.

/// Distinct AP bearings a fused fix needs: consensus has no opinion on
/// a fix from fewer, and deployment fusion does not attempt one. Two
/// bearings are the geometric minimum of an intersection.
pub const MIN_FIX_APS: usize = 2;

/// A fused fix farther than this from the client's reference position
/// is flagged, meters.
///
/// Fused fixes scatter by well under a meter for legitimate
/// line-of-sight clients (multi-AP LS intersection); 2 m keeps headroom
/// for through-wall bearing bias while still catching any attacker more
/// than a desk away. Heavily shadowed clients (e.g. the office's
/// pillar-blocked client 11) can exceed it on occasional windows, so —
/// exactly like the per-AP signature threshold — treat single flags as
/// evidence and alert on k-of-n (the deployment's fusion stage counts
/// them per client).
pub(crate) const MAX_DISPLACEMENT_M: f64 = 2.0;

/// A fused fix whose bearing lines disagree by more than this RMS
/// perpendicular distance is flagged, meters ("those false positive
/// AoAs obtained from different APs may not intersect with each other",
/// §3.1).
pub const MAX_RESIDUAL_M: f64 = 2.5;

/// Extra displacement allowance per *missing* AP when a window is
/// partial (fewer bearings than the deployment expects — lost reports,
/// skew rejections, churn), meters. A fix fused from fewer bearings is
/// geometrically noisier, so [`ConsensusVerdict::judge`] relaxes the
/// displacement gate by `PARTIAL_SLACK_M × (expected − contributed)`
/// instead of spraying false spoof flags through every degraded window. The full-quorum threshold is unchanged.
///
/// Half a meter per missing AP: a 4-AP deployment down to the 2-bearing
/// minimum gets 3 m of displacement headroom — still well inside the
/// multi-meter displacement a same-MAC attacker produces.
pub(crate) const PARTIAL_SLACK_M: f64 = 0.5;

/// Consensus verdict for one fused fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConsensusVerdict {
    /// The fix agrees with the client's reference position.
    Consistent {
        /// Distance from the reference position, meters.
        displacement_m: f64,
    },
    /// The fix is geometrically inconsistent with the reference —
    /// probable spoof, even if some AP's signature check passed.
    Spoof {
        /// Distance from the reference position, meters.
        displacement_m: f64,
        /// RMS bearing-line disagreement of the fix, meters.
        residual_m: f64,
    },
    /// No reference position is trained for this MAC.
    Untrained,
    /// Fewer than [`MIN_FIX_APS`] bearings contributed.
    Insufficient,
}

impl ConsensusVerdict {
    /// True for the `Spoof` variant.
    pub fn is_spoof(&self) -> bool {
        matches!(self, ConsensusVerdict::Spoof { .. })
    }

    /// A one-line operator-facing rendering of the verdict and its
    /// evidence, used by post-mortem dumps (the deployment layer's
    /// flight recorder) and log lines.
    pub fn describe(&self) -> String {
        match self {
            ConsensusVerdict::Consistent { displacement_m } => {
                format!("consistent (displacement {displacement_m:.2} m)")
            }
            ConsensusVerdict::Spoof {
                displacement_m,
                residual_m,
            } => format!("SPOOF (displacement {displacement_m:.2} m, residual {residual_m:.2} m)"),
            ConsensusVerdict::Untrained => "untrained (no reference position)".to_string(),
            ConsensusVerdict::Insufficient => "insufficient (below the AP quorum)".to_string(),
        }
    }

    /// The cross-AP spoof consensus rule (deployment-level, §2.3.1
    /// turned into a defense): judge a localization fix fused from
    /// *several* APs' bearings against the client's trained
    /// `reference` position. A single AP can only compare
    /// pseudospectra — an attacker sitting on the ray from that AP
    /// through the victim presents the same direct-path angle and can
    /// slip through the per-AP signature check. But geometry is
    /// unforgiving across APs: the other bearings drag the fused fix to
    /// the attacker's true position, and the displacement (or the
    /// residual, when the spoofed bearing refuses to intersect) gives it
    /// away — a check no single-AP [`SpoofDetector`] can express.
    ///
    /// `supporting` distinct APs contributed to the fix out of the
    /// `expected` a healthy window would have had. Below [`MIN_FIX_APS`]
    /// the verdict is `Insufficient`; with no reference it is
    /// `Untrained`. Each missing AP relaxes the displacement gate by
    /// `PARTIAL_SLACK_M`; the residual and behind-AP gates are unchanged
    /// (fewer bearings make the residual easier to satisfy, not harder).
    /// The rule is pure: the caller owns the reference and counts the
    /// `Spoof` verdicts as the client's consensus flags.
    pub fn judge(
        reference: Option<Point>,
        fix: &Fix,
        supporting: usize,
        expected: usize,
    ) -> ConsensusVerdict {
        if supporting < MIN_FIX_APS {
            return ConsensusVerdict::Insufficient;
        }
        let Some(reference) = reference else {
            return ConsensusVerdict::Untrained;
        };
        let missing = expected.saturating_sub(supporting) as f64;
        let allowed_displacement = MAX_DISPLACEMENT_M + PARTIAL_SLACK_M * missing;
        let displacement_m = reference.dist(fix.position);
        if displacement_m > allowed_displacement
            || fix.residual_m > MAX_RESIDUAL_M
            || fix.behind_count > 0
        {
            ConsensusVerdict::Spoof {
                displacement_m,
                residual_m: fix.residual_m,
            }
        } else {
            ConsensusVerdict::Consistent { displacement_m }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_aoa::pseudospectrum::{angle_diff_deg, Pseudospectrum};
    use sa_channel::geom::pt;

    fn bump(centers: &[(f64, f64)]) -> AoaSignature {
        let angles: Vec<f64> = (0..360).map(|i| i as f64).collect();
        let values: Vec<f64> = angles
            .iter()
            .map(|&a| {
                centers
                    .iter()
                    .map(|&(c, amp)| {
                        let d = angle_diff_deg(a, c, true);
                        amp * (-d * d / 40.0).exp()
                    })
                    .sum::<f64>()
                    + 1e-4
            })
            .collect();
        AoaSignature::from_spectrum(&Pseudospectrum::new(angles, values, true))
    }

    fn mac(i: u32) -> MacAddr {
        MacAddr::local_from_index(i)
    }

    #[test]
    fn verdict_describe_carries_the_evidence() {
        let spoof = ConsensusVerdict::Spoof {
            displacement_m: 6.98,
            residual_m: 1.25,
        };
        let line = spoof.describe();
        assert!(line.contains("SPOOF") && line.contains("6.98") && line.contains("1.25"));
        let ok = ConsensusVerdict::Consistent {
            displacement_m: 0.12,
        };
        assert!(ok.describe().contains("0.12"));
        assert!(ConsensusVerdict::Untrained.describe().contains("reference"));
        assert!(ConsensusVerdict::Insufficient.describe().contains("quorum"));
    }

    #[test]
    fn untrained_mac_reports_untrained() {
        let mut det = SpoofDetector::new();
        let v = det.check(mac(1), &bump(&[(10.0, 1.0)]));
        assert_eq!(v, SpoofVerdict::Untrained);
        assert!(!det.is_trained(&mac(1)));
        // An untrained check leaves no state behind.
        assert!(det.profile(&mac(1)).is_none());
        assert_eq!(det.flag_count(&mac(1)), 0);
        assert_eq!(det.trained_count(), 0);
    }

    #[test]
    fn train_then_profile_roundtrip() {
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0)]));
        assert!(det.is_trained(&mac(1)));
        assert_eq!(det.trained_count(), 1);
        let bearing = det.profile(&mac(1)).expect("trained").bearing_deg();
        assert!(
            angle_diff_deg(bearing, 100.0, true) < 1.0,
            "bearing {bearing}"
        );
        assert!(det.profile(&mac(2)).is_none());
        // Retraining replaces the profile rather than adding a client.
        det.train(mac(1), bump(&[(200.0, 1.0)]));
        assert_eq!(det.trained_count(), 1);
        let bearing = det.profile(&mac(1)).expect("trained").bearing_deg();
        assert!(
            angle_diff_deg(bearing, 200.0, true) < 1.0,
            "bearing {bearing}"
        );
    }

    #[test]
    fn check_folds_matches_and_flags_misses() {
        let mut det = SpoofDetector::new();
        det.train(mac(3), bump(&[(90.0, 1.0)]));
        let spectrum = |det: &SpoofDetector| {
            det.profile(&mac(3))
                .expect("trained")
                .spectrum()
                .values
                .clone()
        };
        let trained = spectrum(&det);
        // A match folds the observation into the tracker…
        match det.check(mac(3), &bump(&[(94.0, 1.0)])) {
            SpoofVerdict::Match { .. } => {}
            other => panic!("expected match, got {other:?}"),
        }
        assert_eq!(det.flag_count(&mac(3)), 0);
        let folded = spectrum(&det);
        assert_ne!(folded, trained, "match not folded in");
        // …while a miss flags and leaves the profile where it was.
        match det.check(mac(3), &bump(&[(270.0, 1.0)])) {
            SpoofVerdict::Spoof { score } => assert!(score < 0.4, "score {score}"),
            other => panic!("expected spoof, got {other:?}"),
        }
        assert_eq!(det.flag_count(&mac(3)), 1);
        assert_eq!(spectrum(&det), folded);
    }

    #[test]
    fn flags_follow_their_mac() {
        let mut det = SpoofDetector::new();
        det.train(mac(7), bump(&[(100.0, 1.0)]));
        det.train(mac(8), bump(&[(300.0, 1.0)]));
        assert!(det.check(mac(7), &bump(&[(300.0, 1.0)])).is_spoof());
        assert!(det.check(mac(7), &bump(&[(300.0, 1.0)])).is_spoof());
        assert_eq!(det.flag_count(&mac(7)), 2);
        assert_eq!(det.flag_count(&mac(8)), 0);
    }

    #[test]
    fn legitimate_remeasurement_matches() {
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0), (220.0, 0.4)]));
        let v = det.check(mac(1), &bump(&[(101.0, 0.97), (221.0, 0.42)]));
        match v {
            SpoofVerdict::Match { score } => assert!(score > 0.8, "score {}", score),
            other => panic!("expected match, got {:?}", other),
        }
        assert_eq!(det.flag_count(&mac(1)), 0);
    }

    #[test]
    fn attacker_elsewhere_is_flagged() {
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0), (220.0, 0.4)]));
        let v = det.check(mac(1), &bump(&[(290.0, 1.0), (30.0, 0.5)]));
        assert!(v.is_spoof(), "verdict {:?}", v);
        assert_eq!(det.flag_count(&mac(1)), 1);
    }

    #[test]
    fn matching_frames_update_profile_but_spoofs_do_not() {
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0)]));
        // Attacker hammers from 300°: profile must not drift there.
        for _ in 0..50 {
            let v = det.check(mac(1), &bump(&[(300.0, 1.0)]));
            assert!(v.is_spoof());
        }
        assert_eq!(det.flag_count(&mac(1)), 50);
        let bearing = det.profile(&mac(1)).unwrap().bearing_deg();
        assert!(
            angle_diff_deg(bearing, 100.0, true) < 2.0,
            "profile poisoned: bearing {}",
            bearing
        );
    }

    #[test]
    fn profile_follows_slow_drift() {
        // Client's environment drifts slowly; each step still matches,
        // and the tracker follows.
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0)]));
        for step in 1..=10 {
            let c = 100.0 + step as f64; // 1°/frame drift
            let v = det.check(mac(1), &bump(&[(c, 1.0)]));
            assert!(
                matches!(v, SpoofVerdict::Match { .. }),
                "step {} verdict {:?}",
                step,
                v
            );
        }
        let bearing = det.profile(&mac(1)).unwrap().bearing_deg();
        assert!(bearing > 101.0, "tracker did not follow drift: {}", bearing);
    }

    #[test]
    fn retrain_clears_flags() {
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0)]));
        let _ = det.check(mac(1), &bump(&[(300.0, 1.0)]));
        assert_eq!(det.flag_count(&mac(1)), 1);
        det.train(mac(1), bump(&[(120.0, 1.0)]));
        assert_eq!(det.flag_count(&mac(1)), 0);
    }

    fn fix_at(x: f64, y: f64, residual_m: f64, behind: usize) -> Fix {
        Fix {
            position: pt(x, y),
            residual_m,
            behind_count: behind,
        }
    }

    const HOME: Option<Point> = Some(pt(5.0, 5.0));

    #[test]
    fn consensus_untrained_and_insufficient() {
        let fix = fix_at(0.0, 0.0, 0.1, 0);
        assert_eq!(
            ConsensusVerdict::judge(None, &fix, 1, 1),
            ConsensusVerdict::Insufficient
        );
        // The quorum is checked before the reference.
        assert_eq!(
            ConsensusVerdict::judge(HOME, &fix, 1, 1),
            ConsensusVerdict::Insufficient
        );
        assert_eq!(
            ConsensusVerdict::judge(None, &fix, 3, 3),
            ConsensusVerdict::Untrained
        );
    }

    #[test]
    fn consensus_consistent_fix_passes() {
        let v = ConsensusVerdict::judge(HOME, &fix_at(5.4, 4.8, 0.3, 0), 3, 3);
        match v {
            ConsensusVerdict::Consistent { displacement_m } => {
                assert!(displacement_m < 0.5, "displacement {}", displacement_m)
            }
            other => panic!("expected consistent, got {:?}", other),
        }
    }

    #[test]
    fn consensus_flags_displaced_fix() {
        let displaced = fix_at(12.0, 5.0, 0.2, 0);
        let v = ConsensusVerdict::judge(HOME, &displaced, 3, 3);
        assert!(v.is_spoof(), "verdict {:?}", v);
        // A reference moved to the new spot accepts the same fix.
        let moved = Some(pt(12.0, 5.0));
        assert!(!ConsensusVerdict::judge(moved, &displaced, 3, 3).is_spoof());
    }

    #[test]
    fn consensus_flags_high_residual_and_behind_fixes() {
        // Near the reference, but the bearing lines barely intersect:
        // the §3.1 false-positive signature.
        assert!(ConsensusVerdict::judge(HOME, &fix_at(5.0, 5.5, 9.0, 0), 2, 2).is_spoof());
        // Or a bearing points away from the fix entirely.
        assert!(ConsensusVerdict::judge(HOME, &fix_at(5.0, 5.0, 0.1, 1), 2, 2).is_spoof());
    }

    #[test]
    fn degraded_check_relaxes_displacement_per_missing_ap() {
        let judge = |fix: &Fix, supporting, expected| {
            ConsensusVerdict::judge(HOME, fix, supporting, expected)
        };
        // 2.8 m displacement: over the 2.0 m full-quorum gate, inside
        // the 2 + 2×0.5 = 3.0 m gate of a 2-of-4 partial window.
        let fix = fix_at(7.8, 5.0, 0.2, 0);
        assert!(judge(&fix, 4, 4).is_spoof());
        assert!(matches!(
            judge(&fix, 2, 4),
            ConsensusVerdict::Consistent { .. }
        ));
        // A genuinely displaced attacker is flagged even with the slack.
        assert!(judge(&fix_at(12.0, 5.0, 0.2, 0), 2, 4).is_spoof());
        // More expected than supporting is the only source of slack.
        assert!(judge(&fix, 2, 2).is_spoof());
        // The residual and behind gates get no slack.
        assert!(judge(&fix_at(5.0, 5.2, 9.0, 0), 2, 4).is_spoof());
        assert!(judge(&fix_at(5.0, 5.0, 0.1, 2), 2, 4).is_spoof());
    }

    #[test]
    fn per_mac_isolation() {
        let mut det = SpoofDetector::new();
        det.train(mac(1), bump(&[(100.0, 1.0)]));
        det.train(mac(2), bump(&[(250.0, 1.0)]));
        assert!(matches!(
            det.check(mac(1), &bump(&[(100.0, 1.0)])),
            SpoofVerdict::Match { .. }
        ));
        assert!(det.check(mac(2), &bump(&[(100.0, 1.0)])).is_spoof());
    }
}
