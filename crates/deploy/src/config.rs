//! Deployment configuration and errors.

use crate::faults::FaultPlan;
use crate::health::HealthConfig;
use sa_telemetry::TelemetryConfig;

/// Per-AP clock skew model: how an AP's *local* window and sequence
/// labels relate to the coordinator's global ones. Real APs free-run on
/// their own oscillators — their window counters start at arbitrary
/// epochs (`window_offset`), their packet counters at arbitrary values
/// (`seq_offset`), and cheap clocks drift (`drift_ppw`). Workers stamp
/// their reports with these *local* labels; the coordinator's
/// [`crate::align::SkewAligner`] maps them back, rejecting labels that
/// wander beyond [`DeployConfig::max_skew_windows`].
///
/// ```
/// use sa_deploy::ApSkew;
/// let skew = ApSkew { window_offset: -2, seq_offset: 7, drift_ppw: 0.0 };
/// assert_eq!(skew.window_label(5), 3);
/// assert_eq!(skew.seq_label(0), 7);
/// assert_eq!(ApSkew::NONE.window_label(5), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApSkew {
    /// Constant window-epoch offset, windows (may be negative: the AP's
    /// clock runs behind the coordinator's).
    pub window_offset: i64,
    /// Constant sequence-counter offset (an AP's packet counter since
    /// boot — non-negative by construction).
    pub seq_offset: u64,
    /// Drift, in windows of additional skew accumulated per elapsed
    /// window (e.g. `0.01` gains one extra window of skew every 100
    /// windows). Drift is what eventually walks a worker outside the
    /// alignment tolerance.
    pub drift_ppw: f64,
}

impl ApSkew {
    /// A perfectly synchronized AP.
    pub const NONE: ApSkew = ApSkew {
        window_offset: 0,
        seq_offset: 0,
        drift_ppw: 0.0,
    };

    /// The local window label this AP stamps on global window `w`.
    pub fn window_label(&self, w: u64) -> i64 {
        w as i64 + self.window_offset + (self.drift_ppw * w as f64).trunc() as i64
    }

    /// The local sequence label this AP stamps on global sequence `s`.
    pub fn seq_label(&self, s: u64) -> u64 {
        s + self.seq_offset
    }
}

impl Default for ApSkew {
    fn default() -> Self {
        Self::NONE
    }
}

/// Report-channel link model: the worker → fusion path as a lossy
/// datagram link with bounded retransmission, instead of the perfectly
/// reliable in-process channel.
///
/// Every delivery *attempt* of a window report is dropped independently
/// with probability `loss_rate`; the worker retries up to `retry_limit`
/// more times. If every attempt is lost the report's *data* is gone for
/// good ([`crate::ApStats::reports_lost`]) — only the AP's tiny
/// end-of-window marker (modeled as riding the reliable control path,
/// like a TCP heartbeat next to a UDP bulk channel) reaches the
/// coordinator, so the window still closes deterministically and fusion
/// degrades to the bearings that survived. Loss draws come from a
/// per-AP deterministic generator seeded by `seed ^ ap_id`, so seeded
/// runs stay byte-reproducible regardless of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Per-attempt drop probability in `[0, 1]`. `0.0` (the default)
    /// short-circuits the whole lossy path: no draws, no retries —
    /// byte-identical behavior to a reliable channel.
    pub loss_rate: f64,
    /// Retransmit attempts after the first send (so `retry_limit = 3`
    /// means up to 4 attempts per report).
    pub retry_limit: u32,
    /// Base seed for the per-AP loss streams.
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            loss_rate: 0.0,
            retry_limit: 3,
            seed: 0x11_4b5e,
        }
    }
}

/// Configuration for a [`crate::Deployment`].
///
/// The default is a clean, synchronized deployment (reliable report
/// link, ±2-window skew tolerance, unit-weight fusion) — byte-
/// compatible with earlier releases. Degraded modes are opted into per
/// field; see `docs/DEPLOYMENT.md` for tuning guidance and for the
/// fusion policy that is fixed in code (2-bearing fix quorum, consensus
/// gates, tracker gains).
///
/// ```
/// use sa_deploy::{DeployConfig, LinkConfig};
///
/// // A deployment expecting rough infrastructure: 10% report loss
/// // with 3 retransmits, confidence-weighted fusion.
/// let cfg = DeployConfig {
///     link: LinkConfig { loss_rate: 0.10, retry_limit: 3, seed: 7 },
///     weight_bearings_by_confidence: true,
///     ..DeployConfig::default()
/// };
/// assert_eq!(cfg.max_skew_windows, 2); // default skew tolerance
/// // Per-report residual loss after retransmits: loss^(retries+1).
/// let residual = cfg.link.loss_rate.powi(cfg.link.retry_limit as i32 + 1);
/// assert!(residual < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Queue bounds, counted in windows: how many windows each worker
    /// may have in flight (sent, not yet reported) before
    /// [`crate::Deployment::submit_window`] waits for one to complete,
    /// and the capacity of the worker → coordinator report channel. A
    /// worker's input is one message per decoded packet, so the window
    /// count — not a packet count — is what bounds it. A full queue
    /// makes the sender wait after bumping a backpressure counter;
    /// nothing is ever silently dropped, so runs stay deterministic
    /// under load.
    pub channel_capacity: usize,
    /// Covariance snapshot budget per packet, forwarded to
    /// [`secureangle::PacketBatch::set_snapshot_cap`]. A few hundred
    /// snapshots saturate an 8×8 covariance; capping keeps per-AP DSP
    /// cost flat in payload length. `0` uses every sample.
    pub snapshot_cap: usize,
    /// Auto-train per-AP signature profiles: when an ACL-admitted MAC
    /// is seen untrained, the worker trains its AP's spoof profile from
    /// that observation (the paper's "initial training stage", run at
    /// deployment scale).
    pub auto_train_signatures: bool,
    /// Clock-skew alignment tolerance, windows: a worker report whose
    /// local window label deviates from the learned per-AP offset by
    /// more than this is rejected (its bearings are excluded from
    /// fusion, counted in [`crate::DeployMetrics::skew_rejections`])
    /// rather than fused into the wrong window. This also bounds the
    /// coordinator's reorder buffer: aligned reports can only target
    /// windows within `max_skew_windows` of each AP's expected position.
    pub max_skew_windows: u64,
    /// Report-channel loss model (defaults to a reliable channel).
    pub link: LinkConfig,
    /// Pipelining depth for [`crate::Deployment::run_stream`]: how many
    /// windows may be submitted before the oldest is collected. At the
    /// default of `1` streaming degenerates to the synchronous
    /// submit-then-collect loop; at `≥ 2` the coordinator's stage-1
    /// decode of the next window overlaps with the workers' per-AP DSP
    /// on the previous one, which is where single-window runs leave the
    /// coordinator core idle. Fused results are byte-identical at any
    /// depth (window close/align/fusion semantics are unchanged —
    /// pinned by the deploy e2e suites); only the overlap differs.
    /// `0` is treated as `1`.
    pub windows_in_flight: usize,
    /// Weight each bearing by its report confidence in the fused
    /// least-squares fix ([`secureangle::localize::localize_weighted`])
    /// instead of weighting all bearings equally. Off by default:
    /// unit-weight fusion is bit-compatible with earlier releases; turn
    /// it on for degraded deployments where marginal through-wall
    /// bearings should pull fixes less.
    pub weight_bearings_by_confidence: bool,
    /// Scripted fault injection ([`crate::faults::FaultPlan`]). `None`
    /// (the default) injects nothing and is byte-transparent: the fault
    /// layer is zero-cost-off, pinned by `tests/proptest_chaos.rs`.
    /// Every injected fault is a pure function of the plan and the
    /// window number, so seeded chaos runs are byte-reproducible at any
    /// pipelining depth.
    pub faults: Option<FaultPlan>,
    /// AP health scoring, quarantine and the stall watchdog
    /// ([`crate::health::FleetHealth`]). Disabled by default — the
    /// defensive layer is byte-transparent when off.
    pub health: HealthConfig,
    /// Observability: stage-latency histograms, counter/gauge
    /// snapshots and the per-client flight recorder
    /// ([`sa_telemetry::TelemetryConfig`]). Disabled by default —
    /// telemetry is strictly out-of-band and fused output is
    /// byte-identical with it on or off (pinned by
    /// `tests/proptest_telemetry.rs`), so enabling it is purely a
    /// visibility/overhead trade.
    pub telemetry: TelemetryConfig,
}

impl Default for DeployConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 64,
            snapshot_cap: 256,
            auto_train_signatures: true,
            max_skew_windows: 2,
            link: LinkConfig::default(),
            weight_bearings_by_confidence: false,
            windows_in_flight: 1,
            faults: None,
            health: HealthConfig::default(),
            telemetry: TelemetryConfig::disabled(),
        }
    }
}

/// Why a deployment operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployError {
    /// A transmission did not carry exactly one capture per AP.
    ApCountMismatch {
        /// Number of APs in the deployment.
        expected: usize,
        /// Number of captures in the offending transmission.
        got: usize,
    },
    /// `collect_window` was called with no window in flight.
    NothingSubmitted,
    /// A worker thread disconnected mid-run (it panicked or was lost).
    WorkerLost {
        /// Window being collected when the loss was noticed.
        window: u64,
    },
    /// An AP id that is not (or no longer) a live member of the
    /// deployment was named in a churn operation.
    UnknownAp {
        /// The offending AP id.
        ap_id: usize,
    },
    /// Removing the AP would leave the deployment empty.
    LastAp,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::ApCountMismatch { expected, got } => {
                write!(f, "transmission has {} captures for {} APs", got, expected)
            }
            DeployError::NothingSubmitted => write!(f, "no submitted window to collect"),
            DeployError::WorkerLost { window } => {
                write!(f, "worker disconnected while collecting window {}", window)
            }
            DeployError::UnknownAp { ap_id } => {
                write!(f, "AP {} is not a live member of the deployment", ap_id)
            }
            DeployError::LastAp => write!(f, "cannot remove the deployment's last live AP"),
        }
    }
}

impl std::error::Error for DeployError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = DeployConfig::default();
        assert!(cfg.channel_capacity > 0);
        // Degraded-mode defaults: reliable link, ±2 window tolerance,
        // unit-weight fusion — the PR-3 behavior exactly.
        assert_eq!(cfg.link.loss_rate, 0.0);
        assert!(cfg.link.retry_limit >= 1);
        assert_eq!(cfg.max_skew_windows, 2);
        assert!(!cfg.weight_bearings_by_confidence);
        // Streaming off by default: depth-1 pipelining is the
        // synchronous submit-then-collect behavior exactly.
        assert_eq!(cfg.windows_in_flight, 1);
        // Telemetry off by default: the report's snapshot stays empty
        // and Debug-rendered reports are byte-stable across releases.
        assert!(!cfg.telemetry.enabled);
        assert_eq!(cfg.telemetry, TelemetryConfig::disabled());
        // Chaos/immune layers off by default: no fault plan, health
        // scoring disabled — both byte-transparent.
        assert!(cfg.faults.is_none());
        assert!(!cfg.health.enabled);
    }

    #[test]
    fn skew_labels_offset_and_drift() {
        let skew = ApSkew {
            window_offset: -2,
            seq_offset: 40,
            drift_ppw: 0.1,
        };
        assert_eq!(skew.window_label(0), -2);
        assert_eq!(skew.window_label(9), 7); // 9 − 2 + trunc(0.9)
        assert_eq!(skew.window_label(10), 9); // 10 − 2 + trunc(1.0)
        assert_eq!(skew.window_label(25), 25); // 25 − 2 + 2
        assert_eq!(skew.seq_label(3), 43);
        assert_eq!(ApSkew::NONE.window_label(7), 7);
        assert_eq!(ApSkew::default(), ApSkew::NONE);
    }

    #[test]
    fn errors_display() {
        let e = DeployError::ApCountMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("4 APs"));
        assert!(DeployError::NothingSubmitted
            .to_string()
            .contains("collect"));
        assert!(DeployError::WorkerLost { window: 3 }
            .to_string()
            .contains('3'));
        assert!(DeployError::UnknownAp { ap_id: 7 }
            .to_string()
            .contains('7'));
        assert!(DeployError::LastAp.to_string().contains("last"));
    }
}
