//! Output checks and verdict accounting for every fused window.
//!
//! The accuracy metrics are taken over the first
//! [`Kind::accuracy_windows`] measured windows only, so they repeat
//! exactly for a seed however many windows a timed run fits; the
//! pass/fail checks cover every window of the run.

use crate::stats;
use crate::workload::{self, Episode, Inputs, Kind, Window};
use sa_deploy::{ClientFix, Deployment, FusedWindow};
use sa_mac::MacAddr;

/// Office fix-accuracy floors, from `tests/multi_ap.rs`: the median fix
/// error is under 1.5 m, and at least 17 of every 20 fixes land within
/// 3 m. The 17/20 share is that file's floor under loss and skew; its
/// steady-window 90% tolerates two bad clients of twenty, but one bad
/// client of the office workload's eight is 12.5%, which happens on
/// about one seed in twenty.
const FLOOR_WITHIN_M: f64 = 3.0;
const FLOOR_WITHIN_SHARE: f64 = 0.85;
const FLOOR_MEDIAN_M: f64 = 1.5;
/// The byzantine AP must be out by the time the third biased window
/// closes.
const QUARANTINE_WITHIN: u64 = 3;

/// Per-episode observations on the degraded fleet.
#[derive(Debug, Clone, Copy)]
struct EpisodeSeen {
    ep: Episode,
    quarantined_in_time: bool,
    readmitted: bool,
}

/// Everything one deployment's run fused, folded into verdict counts.
pub struct Ledger<'a> {
    inputs: &'a Inputs,
    /// Fused windows seen so far.
    seen: usize,
    /// The accuracy windows, kept whole for their digests.
    pub accuracy: Vec<FusedWindow>,
    fix_errs: Vec<f64>,
    legit: u64,
    legit_fixed: u64,
    legit_flagged: u64,
    attacks: u64,
    attacks_missed: u64,
    captures: u64,
    captures_failed: u64,
    episodes: Vec<EpisodeSeen>,
    last_window: Option<u64>,
    /// Every check that failed, as a one-line reason.
    pub failures: Vec<String>,
}

/// The accuracy end-to-end metrics of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    pub fix_err_p50_m: f64,
    pub fix_err_p90_m: f64,
    pub fix_frac: f64,
    pub spoof_catch_frac: f64,
    pub legit_unflagged_frac: f64,
    pub captures_ok_frac: f64,
    /// Fixes the error percentiles rest on.
    pub fixes: usize,
}

impl<'a> Ledger<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        let episodes = match inputs.kind {
            Kind::Degraded => workload::episodes()
                .into_iter()
                .map(|ep| EpisodeSeen {
                    ep,
                    quarantined_in_time: false,
                    readmitted: false,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ledger {
            inputs,
            seen: 0,
            accuracy: Vec::new(),
            fix_errs: Vec::new(),
            legit: 0,
            legit_fixed: 0,
            legit_flagged: 0,
            attacks: 0,
            attacks_missed: 0,
            captures: 0,
            captures_failed: 0,
            episodes,
            last_window: None,
            failures: Vec::new(),
        }
    }

    /// Account one fused window. `decode_failed` transmissions of it
    /// failed stage 1 and `observe_failed` captures failed the workers'
    /// staging; `dep` is read for its quarantine state.
    pub fn on_fused(
        &mut self,
        dep: &Deployment,
        input: &Window,
        fused: FusedWindow,
        decode_failed: u64,
        observe_failed: u64,
    ) {
        let in_accuracy = self.seen < self.inputs.kind.accuracy_windows();
        self.seen += 1;
        self.last_window = Some(fused.window);
        let flagged = |c: &ClientFix| c.consensus.is_spoof() || c.flagged_aps > 0;
        let find = |mac: &MacAddr| -> Option<&ClientFix> {
            fused
                .clients
                .binary_search_by(|c| c.mac.cmp(mac))
                .ok()
                .map(|i| &fused.clients[i])
        };

        if input.attack {
            let victim = self.inputs.victim.expect("attack windows name a victim");
            let caught = find(&victim).is_some_and(flagged);
            if !caught {
                self.failures.push(format!(
                    "window {}: the spoofer was not flagged",
                    fused.window
                ));
            }
            if in_accuracy {
                self.attacks += 1;
                self.attacks_missed += u64::from(!caught);
            }
            let outsider = self
                .inputs
                .outsider
                .expect("attack windows carry the intruder");
            let fence = self.inputs.fence.as_ref().expect("office has a fence");
            let outside = find(&outsider)
                .and_then(|c| c.fix)
                .is_some_and(|f| !fence.contains(f.position));
            if !outside {
                self.failures.push(format!(
                    "window {}: the parking-lot intruder did not fuse outside the fence",
                    fused.window
                ));
            }
        }

        if in_accuracy {
            for mac in &input.legit {
                self.legit += 1;
                let Some(c) = find(mac) else { continue };
                if let Some(fix) = c.fix {
                    self.legit_fixed += 1;
                    self.fix_errs
                        .push(fix.position.dist(self.inputs.truth[mac]));
                }
                self.legit_flagged += u64::from(flagged(c));
            }
            // Every capture a report failure kept from fusion: decode
            // failures cost every AP its capture; a lost, corrupt,
            // skew-rejected, stalled or marker-lost report costs one AP
            // every capture it was dispatched.
            let captures = input.captures();
            let n_aps = input.txs.first().map_or(0, |t| t.per_ap.len() as u64);
            let dispatched = input.txs.len() as u64 - decode_failed;
            let failed_reports = (fused.lost_reports
                + fused.skew_rejected
                + fused.corrupt_reports
                + fused.stalled_aps
                + fused.markers_lost) as u64;
            let failed = decode_failed * n_aps + observe_failed + failed_reports * dispatched;
            self.captures += captures;
            self.captures_failed += failed.min(captures);
            self.accuracy.push(fused);
        }

        self.observe_episodes(dep);
    }

    /// Byzantine episodes: the liar is quarantined within
    /// [`QUARANTINE_WITHIN`] windows of onset and re-admitted after the
    /// bias ends, before the next episode.
    fn observe_episodes(&mut self, dep: &Deployment) {
        let Some(g) = self.last_window else { return };
        let Some(seen) = self
            .episodes
            .iter_mut()
            .find(|s| (s.ep.onset..s.ep.next_onset()).contains(&g))
        else {
            return;
        };
        let quarantined = dep.quarantined_aps().contains(&seen.ep.ap);
        if g == seen.ep.onset + QUARANTINE_WITHIN - 1 {
            seen.quarantined_in_time = quarantined;
        }
        if g >= seen.ep.end() && seen.quarantined_in_time && !quarantined {
            seen.readmitted = true;
        }
    }

    /// Close the books: check every episode the run saw end, and the
    /// accuracy floors. `need_episode` demands at least one complete
    /// episode (a full measured run always has several).
    pub fn finish(&mut self, need_episode: bool) -> Accuracy {
        let last = self.last_window.unwrap_or(0);
        let mut complete = 0;
        for s in &self.episodes {
            if s.ep.next_onset() > last + 1 {
                continue;
            }
            complete += 1;
            if !s.quarantined_in_time {
                self.failures.push(format!(
                    "episode at window {}: AP {} not quarantined within {} windows",
                    s.ep.onset, s.ep.ap, QUARANTINE_WITHIN
                ));
            } else if !s.readmitted {
                self.failures.push(format!(
                    "episode at window {}: AP {} not re-admitted before window {}",
                    s.ep.onset,
                    s.ep.ap,
                    s.ep.next_onset()
                ));
            }
        }
        if need_episode && self.inputs.kind == Kind::Degraded && complete == 0 {
            self.failures
                .push("the run ended before a byzantine episode completed".to_string());
        }

        let errs = stats::sorted(self.fix_errs.clone());
        if errs.is_empty() {
            self.failures.push("no fused fixes".to_string());
            return Accuracy {
                fix_err_p50_m: 0.0,
                fix_err_p90_m: 0.0,
                fix_frac: 0.0,
                spoof_catch_frac: 0.0,
                legit_unflagged_frac: 0.0,
                captures_ok_frac: 0.0,
                fixes: 0,
            };
        }
        let acc = Accuracy {
            fix_err_p50_m: stats::quantile(&errs, 0.5),
            fix_err_p90_m: stats::quantile(&errs, 0.9),
            fix_frac: stats::ratio(self.legit_fixed as f64, self.legit as f64),
            // No attack seen means none went uncaught.
            spoof_catch_frac: 1.0 - stats::ratio(self.attacks_missed as f64, self.attacks as f64),
            legit_unflagged_frac: 1.0 - stats::ratio(self.legit_flagged as f64, self.legit as f64),
            captures_ok_frac: 1.0 - stats::ratio(self.captures_failed as f64, self.captures as f64),
            fixes: errs.len(),
        };
        if self.inputs.kind == Kind::Office {
            let within = errs.iter().filter(|&&e| e <= FLOOR_WITHIN_M).count();
            if (within as f64) < FLOOR_WITHIN_SHARE * errs.len() as f64 {
                self.failures.push(format!(
                    "only {within}/{} office fixes within {FLOOR_WITHIN_M} m",
                    errs.len()
                ));
            }
            if acc.fix_err_p50_m >= FLOOR_MEDIAN_M {
                self.failures.push(format!(
                    "median office fix error {:.2} m is not under {FLOOR_MEDIAN_M} m",
                    acc.fix_err_p50_m
                ));
            }
        }
        acc
    }

    /// Legitimate client-windows and flags behind the fractions, for
    /// the report's detail lines.
    pub fn counts(&self) -> String {
        format!(
            "{} legit client-windows ({} fixed, {} flagged), {} attack client-windows ({} missed), {} captures ({} failed)",
            self.legit,
            self.legit_fixed,
            self.legit_flagged,
            self.attacks,
            self.attacks_missed,
            self.captures,
            self.captures_failed
        )
    }

    /// FNV-1a digests of the accuracy windows' `Debug` rendering (exact
    /// for every float), one per window plus the chain over all of them.
    pub fn digests(&self) -> (Vec<(u64, u64)>, u64) {
        let mut chain = Fnv::new();
        let per_window = self
            .accuracy
            .iter()
            .map(|f| {
                let text = format!("{f:?}");
                chain.write(text.as_bytes());
                let mut h = Fnv::new();
                h.write(text.as_bytes());
                (f.window, h.0)
            })
            .collect();
        (per_window, chain.0)
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
