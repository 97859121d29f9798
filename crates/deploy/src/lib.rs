//! # sa-deploy — the concurrent multi-AP deployment layer
//!
//! SecureAngle's strongest guarantees need *several* APs watching the
//! same client: "the intersection point of the direct path AoA is
//! identified as the location of client" (§2.3.1). This crate is the
//! missing subsystem between the per-AP batched pipeline
//! (`secureangle::pipeline::PacketBatch`) and that multi-AP story:
//!
//! * [`Deployment`] owns N [`secureangle::AccessPoint`]s and drives
//!   each on its own worker thread. The coordinator runs stage 1
//!   (detect + decode, [`secureangle::pipeline::decode_reference`])
//!   **once** per client transmission — the frame is the same at every
//!   AP — and streams each transmission's per-AP captures plus the
//!   shared [`secureangle::DecodedPacket`] to the workers the moment it
//!   decodes, one message per packet, bounded in windows per worker
//!   ([`DeployConfig::channel_capacity`]). Workers run only the per-AP
//!   DSP (covariance → calibrate → MUSIC → signature → enforcement),
//!   one capture at a time while it is still in cache and overlapped
//!   with the decode of the rest of the window, so aggregate packet
//!   throughput scales with AP count instead of re-paying the decode N
//!   times.
//! * Per-AP `(mac, azimuth, confidence, seq)` bearing reports flow back
//!   through a bounded report channel into the [`fusion`] stage, which
//!   groups them by client and observation window, least-squares
//!   intersects them (`secureangle::localize`), smooths each client's
//!   trace with a per-client α–β tracker (`secureangle::tracking`), and
//!   runs the **cross-AP spoof consensus**
//!   ([`secureangle::ConsensusVerdict::judge`]) — a detector no single AP can
//!   express, because it checks position-level geometry rather than one
//!   pseudospectrum.
//! * Scheduling is deterministic by construction: windows close when
//!   every *live* AP has reported end-of-window (no wall clock
//!   anywhere), and fused results are ordered by `(ap, seq)` and MAC,
//!   so a seeded run is byte-for-byte reproducible regardless of
//!   thread interleaving.
//! * The deployment survives imperfect infrastructure, deterministically:
//!   per-AP **clock skew** ([`ApSkew`]) is aligned away by the
//!   coordinator's reorder buffer ([`align::SkewAligner`], bounded by
//!   [`DeployConfig::max_skew_windows`]); the report path can be a
//!   **lossy link** ([`LinkConfig`]) with bounded retransmit, where an
//!   exhausted retry budget costs that AP's bearings for the window but
//!   never stalls the window close; and APs can **join or leave
//!   mid-run** ([`Deployment::add_ap`] / [`Deployment::remove_ap`]),
//!   with the cross-AP consensus re-baselining on every membership
//!   change and a panicked worker reaped instead of deadlocking the
//!   fleet. See `docs/DEPLOYMENT.md` for the operator's view.
//! * Backpressure, queue-depth, loss, skew and churn counters plus a
//!   final [`DeploymentReport`] make the behavior measurable (see the
//!   `deploy` and `deploy_degraded` criterion groups in `sa-bench`).
//! * Observability is **strictly out-of-band**
//!   ([`DeployConfig::telemetry`], default off): snapshot counters
//!   built from the deterministic stats, per-stage latency
//!   histograms (stage-1 decode, per-AP DSP, enforcement, fusion drain,
//!   consensus), store/fusion occupancy gauges, and a per-client
//!   flight recorder whose [`Deployment::explain`] renders the evidence
//!   trail behind any spoof verdict. Fused output is byte-identical
//!   with telemetry on or off (`tests/proptest_telemetry.rs`); see
//!   `docs/OBSERVABILITY.md` for the metric reference.
//! * The fleet is **self-healing under scripted chaos**: a seeded
//!   [`faults::FaultPlan`] injects worker stalls, mid-window crashes,
//!   wire-corrupted reports (caught by the report checksum), byzantine
//!   bearing bias, burst link loss, lost end-of-window markers and
//!   drifting clocks — all pure
//!   functions of the plan and window number — while
//!   [`health::FleetHealth`] scores each AP from per-window fusion
//!   evidence, down-weights then **quarantines** persistent outliers
//!   (with consensus re-baseline), re-admits them after a clean streak,
//!   and reaps wedged workers via a window-count stall watchdog.
//!   Both layers default off and are byte-transparent when disabled
//!   (`tests/proptest_chaos.rs`). Every way an AP leaves — removal,
//!   a crashed worker, a watchdog reap — ends its membership the same
//!   way, with one consensus re-baseline; AP ids are never reused.
//!   The coordinator never polls for dead workers: each worker thread
//!   ends by sending an `Exited` message — after a hung-up input, a
//!   crash or a panic alike — which arrives after its last report, and
//!   each `(AP, window)` settles into one ledger outcome that closes
//!   the window and feeds fusion and health. Every dispatch is
//!   numbered per AP, so a lost end-of-window marker settles exactly,
//!   in its own window, and no call waits forever.
//!
//! ```no_run
//! use sa_deploy::{DeployConfig, Deployment, Transmission};
//! # fn captures_for_window() -> Vec<Transmission> { Vec::new() }
//! # fn aps() -> Vec<secureangle::AccessPoint> { Vec::new() }
//!
//! let mut deployment = Deployment::new(aps(), DeployConfig::default());
//! deployment.submit_window(captures_for_window()).unwrap();
//! let fused = deployment.collect_window().unwrap();
//! for client in &fused.clients {
//!     println!("{:?}", client);
//! }
//! let (report, _aps) = deployment.finish();
//! println!("{} fixes over {} windows", report.metrics.fixes, report.metrics.windows);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod config;
pub mod deployment;
pub mod faults;
pub mod fusion;
pub mod health;
pub mod report;
pub mod telemetry;
mod worker;

pub use config::{ApSkew, DeployConfig, DeployError, LinkConfig};
pub use deployment::{Deployment, Transmission};
pub use faults::{CorruptionMode, FaultEvent, FaultPlan};
pub use fusion::Fusion;
pub use health::{HealthAction, HealthConfig};
pub use report::{
    ApBearingError, ApPacket, ApStats, ClientFix, ClientSummary, DeployMetrics, DeploymentReport,
    FusedWindow,
};
pub use sa_telemetry::{TelemetryConfig, TelemetrySnapshot};
pub use telemetry::{BearingEvidence, ClientWindowEvent};
