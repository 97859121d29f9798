//! # secureangle-suite — the facade crate
//!
//! Re-exports every crate of the SecureAngle reproduction so examples,
//! integration tests and downstream users can depend on one crate:
//!
//! ```
//! use secureangle_suite::prelude::*;
//! let office = Office::paper_figure4();
//! assert_eq!(office.clients.len(), 20);
//! ```
//!
//! See the workspace `README.md` for the project tour,
//! `docs/ARCHITECTURE.md` for the crate DAG and data flows, and
//! `docs/BENCHMARKS.md` for the measured numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sa_aoa as aoa;
pub use sa_array as array;
pub use sa_channel as channel;
pub use sa_deploy as deploy;
pub use sa_linalg as linalg;
pub use sa_mac as mac;
pub use sa_phy as phy;
pub use sa_sigproc as sigproc;
pub use sa_telemetry as telemetry;
pub use sa_testbed as testbed;
pub use secureangle as core;

/// The most commonly-used items across the workspace, in one import.
pub mod prelude {
    pub use sa_aoa::estimator::{AoaConfig, AoaEngine, AoaEstimate};
    pub use sa_aoa::pseudospectrum::{angle_diff_deg, Pseudospectrum};
    pub use sa_array::geometry::Array;
    pub use sa_channel::geom::pt;
    pub use sa_channel::pattern::TxAntenna;
    pub use sa_channel::plan::FloorPlan;
    pub use sa_channel::trace::{trace_paths, TraceConfig};
    pub use sa_deploy::{
        ApSkew, DeployConfig, Deployment, DeploymentReport, LinkConfig, Transmission,
    };
    pub use sa_mac::{Frame, MacAddr};
    pub use sa_phy::Modulation;
    pub use sa_telemetry::{TelemetryConfig, TelemetrySnapshot};
    pub use sa_testbed::{ApArray, Office, Testbed};
    pub use secureangle::pipeline::{AccessPoint, ApConfig, FrameVerdict};
    pub use secureangle::signature::AoaSignature;
    pub use secureangle::spoof::SpoofVerdict;
}
