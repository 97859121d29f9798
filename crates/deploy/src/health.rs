//! AP health scoring, quarantine, and deterministic stall watchdog —
//! the fleet's immune system.
//!
//! Every closed window already produces per-AP evidence on the
//! coordinator: bearing residuals against the fused fix, whether the
//! AP's data was unavailable (lost, rejected, or its marker lost), and
//! whether it was stalled. [`FleetHealth`] folds that evidence into a
//! per-AP score in `[0, 1]`; persistent outliers are first *down-weighted*
//! (their report confidence scaled by the score before fusion, which
//! moves a fix only under
//! [`crate::DeployConfig::weight_bearings_by_confidence`]) and then
//! *quarantined* — excluded from fusion and consensus entirely,
//! with a consensus re-baseline — until a configurable clean streak
//! earns re-admission. A wedged worker (consecutive stalled markers)
//! is reaped by a window-count watchdog, never a wall clock, so the
//! whole defensive layer stays byte-deterministic. A reaped, removed or
//! lost AP is marked dead and never scored again: AP ids are not
//! reused, and an AP that comes back joins under a fresh id
//! ([`crate::Deployment::add_ap`]).
//!
//! Disabled by default ([`HealthConfig::enabled`] = `false`): the
//! deployment is then byte-identical to a health-free build, pinned by
//! `tests/proptest_chaos.rs`.

/// The AP health layer's settings. Attached via
/// [`crate::DeployConfig::health`]; the fixed tuning below is in window
/// counts or degrees, never wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Master switch. `false` (default) makes the layer byte-transparent:
    /// no scoring, no down-weighting, no quarantine, no watchdog. On,
    /// quarantine is what keeps a liar out of fixes: down-weighting
    /// scales report confidence, which reaches a fix only under
    /// [`crate::DeployConfig::weight_bearings_by_confidence`] (off by
    /// default).
    pub enabled: bool,
    /// Clean windows required (while quarantined) to be re-admitted.
    pub readmit_after_clean: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            readmit_after_clean: 8,
        }
    }
}

impl HealthConfig {
    /// An enabled config with the default re-admission streak.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// A window casts suspicion on an AP when more than half its bearings
/// miss the fused fix by over this many degrees; of the suspects, only
/// the worst over-warn fraction each window is penalized (a liar drags
/// the fix, and the honest APs it drags past this bar are not punished
/// for its crime). The value sits between what honest APs absorb when a
/// biased peer pulls the fix (≈5° worst case on a 4-AP cell) and the
/// residual the biased AP itself shows (≈8° for a 15° bias).
pub(crate) const BEARING_ERR_WARN_DEG: f64 = 6.0;
/// Score penalty per bad window.
const PENALTY: f64 = 0.25;
/// Score recovery per clean window, up to 1.0.
const RECOVERY: f64 = 0.05;
/// Quarantine an AP when its score falls below this.
const QUARANTINE_BELOW: f64 = 0.35;
/// Reap a worker after this many *consecutive* stalled windows (its
/// marker arrives flagged stalled with no payload). Window counts, not
/// wall clock — the watchdog is deterministic.
pub(crate) const STALL_WATCHDOG_WINDOWS: u32 = 4;

/// One window's worth of evidence about one AP, assembled by the
/// coordinator at window close.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApWindowEvidence {
    /// Bearings this AP contributed to fused fixes this window.
    pub bearings: u32,
    /// Of those, how many missed the fused fix by over
    /// `BEARING_ERR_WARN_DEG`.
    pub over_warn: u32,
    /// Worst bearing residual this window, degrees.
    pub max_err_deg: f64,
    /// The AP's data never usably arrived: its payload was lost on the
    /// link, rejected for clock skew, failed the wire checksum, or its
    /// end-of-window marker was lost.
    pub unavailable: bool,
    /// The AP's marker arrived flagged stalled (wedged DSP).
    pub stalled: bool,
}

impl ApWindowEvidence {
    /// Bearing-integrity suspicion: a *majority* of this AP's bearings
    /// missed the fused fix, never the worst single residual —
    /// multipath hands even an honest AP the odd wildly-wrong bearing
    /// (fusion is robust to those), while a byzantine bias shifts most
    /// of an AP's bearings past the warn threshold at once.
    /// `max_err_deg` stays exported as evidence, but one bad bearing
    /// must not doom an AP.
    ///
    /// Suspicion alone is not guilt: while a liar drags the fused fix,
    /// honest APs can cross the majority bar too, so
    /// [`FleetHealth::observe_window`] only penalizes the *worst*
    /// suspect each window (relative attribution).
    fn bearing_suspect(&self) -> bool {
        self.bearings > 0 && self.over_warn * 2 > self.bearings
    }

    /// Exact over-warn-fraction comparison (`self ≥ other`), by
    /// cross-multiplication — no float division, so attribution is
    /// byte-deterministic.
    fn frac_ge(&self, other: &ApWindowEvidence) -> bool {
        u64::from(self.over_warn) * u64::from(other.bearings)
            >= u64::from(other.over_warn) * u64::from(self.bearings)
    }
}

/// A state transition the deployment must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Quarantine this AP: exclude from fusion/consensus, re-baseline.
    Quarantine(usize),
    /// Re-admit this AP: include again, re-baseline.
    Readmit(usize),
    /// Reap this AP's worker: its stall run hit the watchdog.
    Reap(usize),
}

#[derive(Debug, Clone)]
struct ApHealth {
    score: f64,
    quarantined: bool,
    clean_streak: u32,
    stall_run: u32,
    alive: bool,
}

impl ApHealth {
    fn fresh() -> Self {
        Self {
            score: 1.0,
            quarantined: false,
            clean_streak: 0,
            stall_run: 0,
            alive: true,
        }
    }
}

/// Per-AP health state for a deployment. All updates happen in AP-id
/// order with fixed-point-free but order-independent evidence, so the
/// scores (and every action) are byte-deterministic given the input
/// window stream.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    cfg: HealthConfig,
    aps: Vec<ApHealth>,
}

impl FleetHealth {
    /// A health tracker with no APs yet.
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            aps: Vec::new(),
        }
    }

    /// Whether the layer is active.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Register the next AP (ids are assigned densely, in join order).
    pub fn add_ap(&mut self) {
        self.aps.push(ApHealth::fresh());
    }

    /// Current score for `ap`, `[0, 1]`.
    pub fn score(&self, ap: usize) -> f64 {
        self.aps[ap].score
    }

    /// Is `ap` currently quarantined (excluded from fusion/consensus)?
    pub fn is_quarantined(&self, ap: usize) -> bool {
        self.cfg.enabled && self.aps.get(ap).is_some_and(|a| a.quarantined)
    }

    /// Indices of all currently quarantined APs, ascending.
    pub fn quarantined_aps(&self) -> Vec<usize> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        (0..self.aps.len())
            .filter(|&i| self.aps[i].quarantined && self.aps[i].alive)
            .collect()
    }

    /// Confidence weight for `ap`'s reports this window: 1.0 when
    /// healthy, the score when degraded (down-weighting), irrelevant
    /// when quarantined (reports are excluded outright). The coordinator
    /// multiplies each report's confidence by it. Without
    /// [`crate::DeployConfig::weight_bearings_by_confidence`] (off by
    /// default) fixes ignore confidence, so the weight then changes only
    /// [`crate::ClientFix::mean_confidence`] and the flight-recorder
    /// evidence.
    pub fn weight(&self, ap: usize) -> f64 {
        if !self.cfg.enabled {
            return 1.0;
        }
        self.aps[ap].score.clamp(0.05, 1.0)
    }

    /// Mark an AP dead (worker lost, reaped or removed) — it stops
    /// being scored and stops appearing in
    /// [`FleetHealth::quarantined_aps`]. AP ids are never reused, so a
    /// dead AP stays dead.
    pub fn mark_dead(&mut self, ap: usize) {
        if let Some(a) = self.aps.get_mut(ap) {
            a.alive = false;
            a.stall_run = 0;
        }
    }

    /// Fold one closed window's evidence in. `evidence[ap]` must cover
    /// every tracked AP (dead APs' entries are ignored). Returns the
    /// actions the deployment must apply, in AP-id order.
    pub fn observe_window(&mut self, evidence: &[ApWindowEvidence]) -> Vec<HealthAction> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        let mut actions = Vec::new();
        let readmit_after_clean = self.cfg.readmit_after_clean;
        // Relative attribution for bearing evidence: of the APs whose
        // bearing majority missed the fix this window, only the one(s)
        // with the worst over-warn fraction are guilty — a liar drags
        // the fused fix, and the honest APs it drags past the warn bar
        // must not be punished for its crime. Infrastructure faults
        // (stalls, losses, corruption, skew) always count: they are
        // attributable to their AP alone.
        let suspects: Vec<usize> = (0..self.aps.len())
            .filter(|&i| {
                self.aps[i].alive
                    && evidence
                        .get(i)
                        .is_some_and(ApWindowEvidence::bearing_suspect)
            })
            .collect();
        let guilty = |i: usize| {
            suspects.contains(&i) && suspects.iter().all(|&j| evidence[i].frac_ge(&evidence[j]))
        };
        for (i, a) in self.aps.iter_mut().enumerate() {
            if !a.alive {
                continue;
            }
            let ev = evidence.get(i).copied().unwrap_or_default();
            // Stall watchdog first: it acts on marker flags alone and
            // fires even while quarantined.
            if ev.stalled {
                a.stall_run += 1;
                if a.stall_run >= STALL_WATCHDOG_WINDOWS {
                    a.alive = false;
                    a.stall_run = 0;
                    actions.push(HealthAction::Reap(i));
                    continue;
                }
            } else {
                a.stall_run = 0;
            }
            if ev.unavailable || ev.stalled || guilty(i) {
                a.score = (a.score - PENALTY).max(0.0);
                a.clean_streak = 0;
                if !a.quarantined && a.score < QUARANTINE_BELOW {
                    a.quarantined = true;
                    actions.push(HealthAction::Quarantine(i));
                }
            } else {
                a.score = (a.score + RECOVERY).min(1.0);
                if a.quarantined {
                    a.clean_streak += 1;
                    if a.clean_streak >= readmit_after_clean {
                        a.quarantined = false;
                        a.clean_streak = 0;
                        a.score = a.score.max(QUARANTINE_BELOW + RECOVERY);
                        actions.push(HealthAction::Readmit(i));
                    }
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bad() -> ApWindowEvidence {
        ApWindowEvidence {
            bearings: 4,
            over_warn: 4,
            max_err_deg: 15.0,
            ..Default::default()
        }
    }

    fn clean() -> ApWindowEvidence {
        ApWindowEvidence {
            bearings: 4,
            over_warn: 0,
            max_err_deg: 1.0,
            ..Default::default()
        }
    }

    fn fleet(cfg: HealthConfig, n: usize) -> FleetHealth {
        let mut h = FleetHealth::new(cfg);
        for _ in 0..n {
            h.add_ap();
        }
        h
    }

    #[test]
    fn disabled_layer_is_inert() {
        let mut h = fleet(HealthConfig::default(), 2);
        for _ in 0..50 {
            assert!(h.observe_window(&[bad(), bad()]).is_empty());
        }
        assert!(!h.is_quarantined(0));
        assert_eq!(h.weight(0), 1.0);
        assert!(h.quarantined_aps().is_empty());
    }

    #[test]
    fn persistent_outlier_is_quarantined_then_readmitted() {
        let mut h = fleet(HealthConfig::enabled(), 2);
        let mut quarantined_at = None;
        for w in 0..10 {
            let acts = h.observe_window(&[bad(), clean()]);
            if acts.contains(&HealthAction::Quarantine(0)) {
                quarantined_at = Some(w);
                break;
            }
        }
        // score: 1.0 - 0.25/window, crosses 0.35 after 3 bad windows.
        assert_eq!(quarantined_at, Some(2));
        assert!(h.is_quarantined(0));
        assert!(!h.is_quarantined(1));
        assert_eq!(h.quarantined_aps(), vec![0]);
        // Scores stay exported while quarantined, and a clean streak
        // earns re-admission.
        let mut readmitted_at = None;
        for w in 0..20 {
            let acts = h.observe_window(&[clean(), clean()]);
            if acts.contains(&HealthAction::Readmit(0)) {
                readmitted_at = Some(w);
                break;
            }
        }
        assert_eq!(readmitted_at, Some(7)); // readmit_after_clean = 8
        assert!(!h.is_quarantined(0));
    }

    #[test]
    fn degraded_ap_is_downweighted_before_quarantine() {
        let mut h = fleet(HealthConfig::enabled(), 1);
        assert_eq!(h.weight(0), 1.0);
        h.observe_window(&[bad()]);
        assert!(h.weight(0) < 1.0 && h.weight(0) > 0.0);
    }

    #[test]
    fn stall_watchdog_reaps_after_window_count() {
        let mut h = fleet(HealthConfig::enabled(), 1);
        let stalled = ApWindowEvidence {
            stalled: true,
            ..Default::default()
        };
        let mut acts = Vec::new();
        for _ in 0..4 {
            acts = h.observe_window(&[stalled]);
        }
        assert_eq!(acts, vec![HealthAction::Reap(0)]);
        // A reaped AP produces no further actions.
        assert!(h.observe_window(&[stalled]).is_empty());
    }

    #[test]
    fn interrupted_stall_run_resets_the_watchdog() {
        let mut h = fleet(HealthConfig::enabled(), 1);
        let stalled = ApWindowEvidence {
            stalled: true,
            ..Default::default()
        };
        // Stalled windows also count as bad (they cost score and can
        // quarantine) — the watchdog must not fire before 4 in a row.
        for _ in 0..3 {
            let acts = h.observe_window(&[stalled]);
            assert!(!acts.contains(&HealthAction::Reap(0)), "{:?}", acts);
        }
        h.observe_window(&[clean()]);
        for _ in 0..3 {
            let acts = h.observe_window(&[stalled]);
            assert!(!acts.contains(&HealthAction::Reap(0)), "{:?}", acts);
        }
    }

    #[test]
    fn only_the_worst_bearing_suspect_is_penalized() {
        let mut h = fleet(HealthConfig::enabled(), 3);
        // AP0 lies (every bearing off); its drag pushes AP1 past the
        // majority bar too; AP2 stays clean. Only AP0 pays — honest
        // APs are not punished for the liar's crime.
        let liar = ApWindowEvidence {
            bearings: 8,
            over_warn: 8,
            max_err_deg: 8.0,
            ..Default::default()
        };
        let dragged = ApWindowEvidence {
            bearings: 8,
            over_warn: 5,
            max_err_deg: 7.0,
            ..Default::default()
        };
        for _ in 0..3 {
            h.observe_window(&[liar, dragged, clean()]);
        }
        assert!(h.is_quarantined(0));
        assert!(!h.is_quarantined(1));
        assert_eq!(h.score(1), 1.0);
        assert_eq!(h.score(2), 1.0);
        // With the liar quarantined and honest, evidence-clean windows,
        // nobody else is ever blamed — even the worst remaining
        // fraction is only penalized if it crosses the majority bar.
        let mild = ApWindowEvidence {
            bearings: 8,
            over_warn: 2,
            max_err_deg: 9.0,
            ..Default::default()
        };
        h.observe_window(&[clean(), mild, clean()]);
        assert_eq!(h.score(1), 1.0);
    }
}
