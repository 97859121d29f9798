//! Deployment-side telemetry glue: the stage-histogram handles the
//! workers and the fusion stage record into, the flight recorder the
//! fusion stage owns, and the rich per-client window event that
//! recorder keeps. The coordinator owns the [`Registry`]; the only
//! thing threads share is the `Arc` histogram atomics.
//!
//! Everything here is **strictly out-of-band**: stage timers record
//! wall-clock latencies but nothing ever reads them back into control
//! flow, snapshot counters are built *from* the deterministic
//! [`crate::ApStats`]/[`crate::DeployMetrics`] sources when a snapshot
//! is taken (never the other way around), and the flight recorder only
//! copies evidence fusion already computed. Disabling telemetry
//! ([`sa_telemetry::TelemetryConfig::disabled`], the default) reduces
//! every tap to a `None` branch — fused output is byte-identical either
//! way, pinned by `tests/proptest_telemetry.rs`.

use sa_mac::MacAddr;
use sa_telemetry::{FlightRecorder, Histogram, Registry, TelemetryConfig};
use secureangle::spoof::ConsensusVerdict;
use std::sync::Arc;

/// One AP's bearing contribution to a recorded window — the consensus
/// inputs an operator wants to see in a post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub struct BearingEvidence {
    /// The contributing AP's stable id.
    pub ap_id: usize,
    /// Global azimuth, radians.
    pub azimuth_rad: f64,
    /// The bearing's confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Everything the fusion stage knew about one client in one window —
/// the flight recorder's event type, kept per client so a later spoof
/// verdict can be explained from recorded evidence
/// ([`crate::Deployment::explain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientWindowEvent {
    /// The fused (global) window number.
    pub window: u64,
    /// Live APs expected when the window was submitted.
    pub expected_aps: usize,
    /// Of those, how many were *known* missing (lost reports, skew
    /// rejections, lost markers, dead workers) — the degraded-close
    /// reason, and what earned the consensus slack.
    pub missing_aps: usize,
    /// APs excluded from this window's fusion by the health layer's
    /// quarantine ([`crate::HealthConfig`]) — withheld evidence, not
    /// link loss, so it earns no consensus slack.
    pub quarantined_aps: usize,
    /// Distinct APs that contributed a bearing.
    pub n_aps: usize,
    /// Per-bearing evidence, in `(ap, seq)` order.
    pub bearings: Vec<BearingEvidence>,
    /// The fused fix position `(x, y)`, meters, if geometry allowed one.
    pub fix: Option<(f64, f64)>,
    /// RMS bearing-line disagreement of the fix, meters (`0` when no
    /// fix).
    pub residual_m: f64,
    /// The trained reference position the consensus compared against,
    /// *at check time* (before any auto-training this window did).
    pub reference: Option<(f64, f64)>,
    /// APs whose own enforcement admitted the client's frame(s).
    pub admitted_aps: usize,
    /// APs whose own enforcement flagged a spoof.
    pub flagged_aps: usize,
    /// The cross-AP consensus verdict.
    pub verdict: ConsensusVerdict,
}

impl ClientWindowEvent {
    /// Render the event as operator-facing post-mortem lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "window {:>4}: {}/{} APs heard",
            self.window, self.n_aps, self.expected_aps
        );
        if self.missing_aps > 0 {
            let _ = write!(out, " ({} known missing)", self.missing_aps);
        }
        if self.quarantined_aps > 0 {
            let _ = write!(out, " ({} quarantined)", self.quarantined_aps);
        }
        let _ = writeln!(
            out,
            ", enforcement {} admit / {} flag",
            self.admitted_aps, self.flagged_aps
        );
        for b in &self.bearings {
            let _ = writeln!(
                out,
                "  ap{:<3} azimuth {:>7.2} deg  confidence {:.2}",
                b.ap_id,
                b.azimuth_rad.to_degrees(),
                b.confidence
            );
        }
        match self.fix {
            Some((x, y)) => {
                let _ = writeln!(
                    out,
                    "  fix ({x:.2}, {y:.2}) m, residual {:.2} m",
                    self.residual_m
                );
            }
            None => {
                let _ = writeln!(out, "  no fix");
            }
        }
        match self.reference {
            Some((x, y)) => {
                let _ = writeln!(out, "  reference ({x:.2}, {y:.2}) m");
            }
            None => {
                let _ = writeln!(out, "  reference untrained");
            }
        }
        let _ = writeln!(out, "  verdict: {}", self.verdict.describe());
        out
    }
}

/// Events the flight recorder keeps per client.
const RECORDER_DEPTH: usize = 8;

/// Clients the flight recorder tracks; beyond it the
/// least-recently-updated client's ring is evicted.
const RECORDER_CLIENTS: usize = 4096;

/// Build a deployment's telemetry: the registry the coordinator owns
/// and the fusion stage's taps, registered in it. `None` when telemetry
/// is disabled, which is what reduces every downstream tap to a single
/// branch.
pub(crate) fn build(cfg: TelemetryConfig) -> Option<(Registry, FusionTaps)> {
    cfg.enabled.then(|| {
        let mut registry = Registry::new();
        let taps = FusionTaps {
            drain: registry.histogram("stage.fusion_drain", &[]),
            consensus: registry.histogram("stage.consensus", &[]),
            recorder: FlightRecorder::new(RECORDER_DEPTH, RECORDER_CLIENTS),
        };
        (registry, taps)
    })
}

/// The two stage-histogram handles one AP worker thread records into.
pub(crate) struct WorkerTap {
    /// `stage.worker_dsp`: one sample per window the worker processed
    /// (none for a stalled window), worth the window's summed per-packet
    /// DSP time — each capture's covariance → calibrate → MUSIC pass.
    pub dsp: Arc<Histogram>,
    /// `stage.enforce`: one per-observation signature/ACL enforcement.
    pub enforce: Arc<Histogram>,
}

/// The fusion stage's taps, which it owns once attached.
pub(crate) struct FusionTaps {
    /// `stage.fusion_drain`.
    pub drain: Arc<Histogram>,
    /// `stage.consensus`.
    pub consensus: Arc<Histogram>,
    /// The per-client flight recorder: only fusion records into it.
    pub recorder: FlightRecorder<MacAddr, ClientWindowEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_bundle() {
        assert!(build(TelemetryConfig::disabled()).is_none());
        let (mut registry, taps) = build(TelemetryConfig::full()).expect("enabled");
        taps.drain.record(5);
        registry.histogram("stage.decode", &[]).record(7);
        let names: Vec<(String, u64)> = registry
            .snapshot()
            .histograms
            .into_iter()
            .map(|h| (h.name, h.count))
            .collect();
        assert_eq!(
            names,
            [
                ("stage.consensus".to_string(), 0),
                ("stage.decode".to_string(), 1),
                ("stage.fusion_drain".to_string(), 1),
            ]
        );
        assert_eq!(taps.recorder.depth(), RECORDER_DEPTH);
    }

    #[test]
    fn event_render_reads_like_a_post_mortem() {
        let e = ClientWindowEvent {
            window: 7,
            expected_aps: 4,
            missing_aps: 1,
            quarantined_aps: 1,
            n_aps: 3,
            bearings: vec![BearingEvidence {
                ap_id: 2,
                azimuth_rad: 1.0,
                confidence: 0.91,
            }],
            fix: Some((4.0, 6.0)),
            residual_m: 0.08,
            reference: Some((4.0, 6.1)),
            admitted_aps: 3,
            flagged_aps: 0,
            verdict: ConsensusVerdict::Consistent {
                displacement_m: 0.1,
            },
        };
        let text = e.render();
        assert!(text.contains("window    7"));
        assert!(text.contains("3/4 APs"));
        assert!(text.contains("1 known missing"));
        assert!(text.contains("1 quarantined"));
        assert!(text.contains("ap2"));
        assert!(text.contains("fix (4.00, 6.00)"));
        assert!(text.contains("reference (4.00, 6.10)"));
        assert!(text.contains("consistent"));
    }
}
