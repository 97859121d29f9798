//! # sa-aoa — angle-of-arrival estimation
//!
//! The paper's signal-processing contribution: from a per-packet antenna
//! correlation matrix to a pseudospectrum whose peaks are the arrival
//! directions.
//!
//! * [`pseudospectrum`] — the spectrum type, peak extraction with
//!   topographic prominence, dB presentation;
//! * [`manifold`] — scan spaces (physical ULA / physical circle / Davies
//!   virtual ULA) with the paper's presentation conventions;
//! * [`music`] — MUSIC (Schmidt), the estimator the paper uses;
//! * [`beamform`] — the Bartlett and Capon baselines, free functions
//!   on a covariance (no engine configuration reaches them);
//! * [`two_antenna`] — the paper's Equation 1 (and its multipath
//!   breakdown);
//! * [`source_count`] — AIC/MDL signal-subspace dimension estimation;
//! * [`backends`] — the coarse-to-fine production scan and the
//!   exhaustive reference oracle (via [`AoaEngine::reference`]);
//! * [`confidence`] — CRLB-weighted per-bearing confidence from the
//!   eigenvalue-split SNR;
//! * [`estimator`] — the end-to-end pipeline shared by the AP
//!   implementation and all experiments: [`AoaEngine::new`] builds the
//!   production engine from an [`AoaConfig`] (source count and
//!   confidence model), and [`AoaEngine::reference`] the scan,
//!   decorrelation and grid variants tests and ablations compare
//!   against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod beamform;
pub mod confidence;
pub mod estimator;
pub mod manifold;
pub mod music;
pub mod pseudospectrum;
pub mod source_count;
pub mod two_antenna;

pub use confidence::{crlb_confidence, crlb_sigma_deg, ula_bearing_sigma_deg, ConfidenceModel};
pub use estimator::{AoaConfig, AoaEngine, AoaEstimate, ReferenceSetup, ScanBackend, Smoothing};
pub use manifold::{ScanSpace, SteeringTable};
pub use music::music_spectrum;
pub use pseudospectrum::{angle_diff_deg, Peak, Pseudospectrum};
pub use source_count::SourceCount;
pub use two_antenna::two_antenna_bearing;
