//! # sa-telemetry — out-of-band observability for the serving path
//!
//! SecureAngle's pitch is an AP that *explains* its security decisions:
//! an operator must be able to ask "why was this client flagged, and
//! where is my pipeline spending its time?" at campus scale. This crate
//! is the observability layer those questions run on:
//!
//! * [`Histogram`] — fixed-bucket log2 latency histograms (HDR-lite):
//!   an allocation-free, lock-free record path, per-AP instances
//!   (an `ap` label) merged at snapshot time, p50/p90/p99/max read out of the buckets.
//!   [`StageTimer`] is the span guard that feeds them, and [`Registry`]
//!   hands them out by hierarchical `stage.decode`-style name and
//!   optional labels.
//! * [`FlightRecorder`] — a bounded per-key ring buffer of recent
//!   pipeline events, so a spoof verdict can be dumped as a
//!   human-readable post-mortem instead of a bare boolean.
//! * [`TelemetrySnapshot`] — one point-in-time view: the registry's
//!   histograms plus counters and gauges built from the owning
//!   subsystem's own statistics, exportable as Prometheus text
//!   exposition ([`TelemetrySnapshot::to_prometheus`]) or a JSON
//!   document ([`TelemetrySnapshot::to_json`]).
//!   [`expo::parse_exposition`] and [`json::parse`] are small in-repo
//!   validators used by tests and the CI smoke.
//!
//! **Telemetry is strictly out-of-band.** Nothing in this crate feeds
//! back into control flow: wall-clock timings are recorded, never
//! consulted, so enabling or disabling telemetry cannot change a byte
//! of the pipeline's output (the deployment layer pins exactly that
//! property). The [`TelemetryConfig::disabled`] path reduces every
//! record site to a branch on an `Option`, keeping hot-path overhead
//! within measurement noise (see the `deploy_telemetry` bench group).
//!
//! ```
//! use sa_telemetry::{Registry, StageTimer};
//!
//! let mut registry = Registry::new();
//! let hist = registry.histogram("stage.worker_dsp", &[("ap", "0")]);
//! {
//!     let _span = StageTimer::start(Some(&hist));
//!     // ... the timed stage ...
//! }
//!
//! let mut snapshot = registry.snapshot();
//! snapshot.push_counter("decode.packets".into(), &[("ap", "3")], 17);
//! snapshot.sort();
//! let text = snapshot.to_prometheus();
//! assert!(text.contains("sa_decode_packets{ap=\"3\"} 17"));
//! assert!(text.contains("sa_stage_worker_dsp_count{ap=\"0\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod snapshot;

pub use histogram::{Histogram, HistogramSnapshot, StageTimer, BUCKETS};
pub use recorder::FlightRecorder;
pub use registry::Registry;
pub use snapshot::{CounterSample, GaugeSample, TelemetrySnapshot};

/// The telemetry switch, carried by the subsystem configs that embed
/// telemetry (e.g. `sa_deploy::DeployConfig::telemetry`). `Copy` on
/// purpose so embedding configs keep their own `Copy`.
///
/// The default is [`TelemetryConfig::disabled`]: observability is
/// opt-in, and the disabled path costs one branch per record site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// On: build populated [`TelemetrySnapshot`]s, record wall-clock
    /// stage latencies (recorded, never consulted) and keep the
    /// per-client flight recorder. Off: snapshots are empty, no clocks
    /// are read and no events are kept.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Everything off: empty snapshots, no clock reads, no rings. The
    /// hot-path cost of a disabled-telemetry deployment is one branch
    /// per record site (benched within noise by `deploy_telemetry`).
    pub const fn disabled() -> Self {
        Self { enabled: false }
    }

    /// The full observability surface: counters, gauges, per-stage
    /// latency histograms and the flight recorder.
    pub const fn full() -> Self {
        Self { enabled: true }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg, TelemetryConfig::disabled());
        assert!(!cfg.enabled);
    }

    #[test]
    fn full_enables_everything() {
        assert!(TelemetryConfig::full().enabled);
    }
}
