//! The AoA estimation pipeline: snapshots → pseudospectrum.
//!
//! Bundles the covariance estimation, domain transform (mode space for
//! circular arrays), decorrelation (forward–backward / spatial
//! smoothing), source counting and the MUSIC scan into one engine, so
//! the SecureAngle AP pipeline and every experiment share a single code
//! path. [`AoaEngine`] precomputes the manifold and reuses its
//! eigensolver buffers across packets.
//!
//! Production sets only an [`AoaConfig`]; [`AoaEngine::new`] builds the
//! paper's pipeline from it. The reference variants (the exhaustive
//! scan oracle, other decorrelation, the physical circular manifold,
//! other grid steps) are not configuration: tests, benches and the E8
//! ablations reach them through [`AoaEngine::reference`] and a
//! [`ReferenceSetup`]. The Bartlett and Capon baselines are the free
//! functions in [`crate::beamform`].
//!
//! ```
//! use sa_aoa::estimator::{AoaConfig, AoaEngine};
//! use sa_aoa::pseudospectrum::angle_diff_deg;
//! use sa_array::geometry::Array;
//! use sa_linalg::{C64, CMat};
//!
//! // One plane wave from 50° azimuth onto the paper's 8-antenna octagon.
//! let array = Array::paper_octagon();
//! let steer = array.steering(50f64.to_radians());
//! let x = CMat::from_fn(array.len(), 128, |m, t| {
//!     steer[m] * C64::cis(0.9 * t as f64)
//! });
//! let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
//! assert!(angle_diff_deg(est.bearing_deg(), 50.0, true) < 3.0);
//! ```

use crate::backends::{coarse_to_fine_scan, exhaustive_scan};
use crate::confidence::ConfidenceModel;
use crate::manifold::{ScanSpace, SteeringTable};
use crate::pseudospectrum::{Peak, Pseudospectrum};
use crate::source_count::SourceCount;
use sa_array::geometry::{Array, ArrayKind};
use sa_linalg::complex::C64;
use sa_linalg::eigen::{EigH, EighWorkspace};
use sa_linalg::CMat;
use sa_sigproc::covariance::{forward_backward, sample_covariance, smooth_fb};
use sa_sigproc::snr::eig_split_snr;

/// Decorrelation preprocessing applied to the covariance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Smoothing {
    /// No preprocessing: raw sample covariance. Fails on coherent
    /// multipath (ablation E8b shows this).
    None,
    /// Forward–backward averaging only.
    ForwardBackward,
    /// Forward–backward averaging then spatial smoothing to subarrays of
    /// 3/4 of the aperture (at least 3 elements) — the production
    /// pipeline; decorrelates coherent paths.
    #[default]
    FbSpatial,
}

/// How the MUSIC spectrum search is executed.
///
/// Production engines ([`AoaEngine::new`]) always run
/// [`ScanBackend::CoarseToFine`]. The exhaustive grid scan is the
/// reference oracle, not configuration: tests, benches and ablations
/// reach it through [`AoaEngine::reference`], and the production scan is
/// property-tested against it (`tests/proptest_backends.rs`).
///
/// ```
/// use sa_aoa::estimator::{AoaConfig, AoaEngine, ReferenceSetup, ScanBackend};
/// use sa_aoa::pseudospectrum::angle_diff_deg;
/// use sa_array::geometry::Array;
/// use sa_linalg::{C64, CMat};
///
/// let array = Array::paper_octagon();
/// let steer = array.steering(50f64.to_radians());
/// let x = CMat::from_fn(array.len(), 128, |m, t| steer[m] * C64::cis(0.9 * t as f64));
/// for scan in [ScanBackend::Exhaustive, ScanBackend::CoarseToFine] {
///     let setup = ReferenceSetup { scan, ..ReferenceSetup::default() };
///     let mut engine = AoaEngine::reference(&array, &AoaConfig::default(), setup);
///     let est = engine.estimate(&x);
///     assert!(angle_diff_deg(est.bearing_deg(), 50.0, true) < 3.0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanBackend {
    /// Evaluate the pseudospectrum at every grid point and take the
    /// spectrum's own peaks (the reference oracle).
    Exhaustive,
    /// The production scan: evaluate a decimated grid (every 6th point
    /// on the paper's octagon; the stride shrinks as the scan aperture
    /// grows), rescan the full-rate grid only around coarse maxima,
    /// then polish each peak on the continuous steering response to
    /// 0.05°. Same peak set as the exhaustive scan (to within the
    /// refinement tolerance) at a fraction of the per-packet work; peak
    /// bearings are not quantised to the grid, and the spectrum lives
    /// on the decimated grid (60 bins on the octagon's 1° grid).
    #[default]
    CoarseToFine,
}

/// How circular arrays are scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CircularHandling {
    /// Davies phase-mode transform to a virtual ULA (default): enables
    /// smoothing, hence robust under coherent multipath.
    #[default]
    ModeSpace,
    /// Scan the physical circular manifold directly. No smoothing is
    /// possible; kept for ablation E8b.
    Physical,
}

/// Estimator configuration: what a deployment sets. `Default` is the
/// paper's pipeline with MDL source counting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AoaConfig {
    /// Signal-subspace dimension policy.
    pub source_count: SourceCount,
    /// Which confidence the estimate carries (see
    /// [`ConfidenceModel`]); the default leaves confidence computation
    /// to the downstream peak-power split, unchanged from the
    /// historical pipeline.
    pub confidence: ConfidenceModel,
}

/// The reference-only settings of an engine: how the scan, the
/// decorrelation and the grid deviate from the production pipeline.
/// Tests, benches and the E8 ablations pass one to
/// [`AoaEngine::reference`]; `Default` is exactly the production
/// pipeline that [`AoaEngine::new`] builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceSetup {
    /// The MUSIC scan.
    pub scan: ScanBackend,
    /// Decorrelation preprocessing.
    pub smoothing: Smoothing,
    /// Circular-array handling.
    pub circular: CircularHandling,
    /// Scan-grid resolution, degrees. The coarse-to-fine scan rescans
    /// and refines peaks on this grid; its spectrum samples a decimated
    /// subset of it.
    pub grid_step_deg: f64,
}

impl Default for ReferenceSetup {
    fn default() -> Self {
        Self {
            scan: ScanBackend::CoarseToFine,
            smoothing: Smoothing::FbSpatial,
            circular: CircularHandling::ModeSpace,
            grid_step_deg: 1.0,
        }
    }
}

/// One candidate arrival direction: a MUSIC peak annotated with the
/// actual received power toward it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPeak {
    /// Presentation angle, degrees.
    pub angle_deg: f64,
    /// MUSIC pseudospectrum value (orthogonality sharpness).
    pub music_value: f64,
    /// Bartlett power toward this direction (physical path strength).
    pub power: f64,
}

/// Result of one AoA estimation.
#[derive(Debug, Clone)]
pub struct AoaEstimate {
    /// The pseudospectrum over the presentation domain.
    pub spectrum: Pseudospectrum,
    /// Signal-subspace dimension used.
    pub n_sources: usize,
    /// Eigenvalues (ascending) of the analysed covariance — useful for
    /// diagnostics and the source-count ablation.
    pub eigenvalues: Vec<f64>,
    /// MUSIC peaks ranked by descending Bartlett power.
    pub ranked_peaks: Vec<RankedPeak>,
    /// Linear *subspace* SNR from the eigenvalue split (`0.0` when the
    /// split is degenerate). Divide by the analysis dimension
    /// (`eigenvalues.len()`) for the per-element SNR.
    pub snr: f64,
    /// Single-source CRLB bearing standard deviation (degrees) at this
    /// packet's SNR — `f64::INFINITY` when the SNR estimate is
    /// degenerate. Always computed (it is a handful of flops on numbers
    /// MUSIC already produced).
    pub crlb_sigma_deg: f64,
    /// CRLB-weighted confidence in `[0, 1]`, present iff the engine was
    /// configured with [`ConfidenceModel::Crlb`]. `None` keeps the
    /// downstream peak-power confidence path byte-identical to the
    /// historical pipeline.
    pub crlb_confidence: Option<f64>,
}

impl AoaEstimate {
    /// The direct-path bearing in presentation degrees.
    ///
    /// MUSIC peak *heights* measure steering-vector orthogonality to the
    /// noise subspace, not path power, so when the model order is
    /// under-fit (heavy multipath) the tallest needle can be a
    /// reflection. The robust reading — and what makes the paper's
    /// "highest peak is the direct path most of the time" hold — is to
    /// take MUSIC's peaks as *candidate directions* and rank them by the
    /// received power toward each (Bartlett on the same covariance).
    /// Falls back to the raw spectrum maximum when no peaks were
    /// extracted.
    pub fn bearing_deg(&self) -> f64 {
        self.ranked_peaks
            .first()
            .map(|p| p.angle_deg)
            .unwrap_or_else(|| self.spectrum.peak().0)
    }
}

/// A reusable AoA estimation pipeline for one array.
///
/// Per-packet setup would dominate once traffic scales past a handful of
/// clients, so the engine hoists all of it to construction time:
///
/// * the analysis step — the mode-space transform (circular arrays)
///   and the decorrelation — resolved to one function of the physical
///   covariance;
/// * the post-smoothing [`ScanSpace`] and its [`SteeringTable`]
///   (the full grid of steering vectors and their norms);
/// * an [`EighWorkspace`] so repeated eigendecompositions reuse their
///   matrix buffers.
///
/// The SecureAngle AP's batched ingest path
/// (`secureangle::pipeline::PacketBatch`) holds one engine per batch.
///
/// [`AoaEngine::new`] builds the production engine: mode space for
/// circular arrays, forward–backward plus spatial smoothing, the
/// coarse-to-fine MUSIC scan on a 1° grid. [`AoaEngine::reference`]
/// builds the variants tests, benches and ablations compare against.
///
/// ```
/// use sa_aoa::estimator::{AoaConfig, AoaEngine};
/// use sa_array::geometry::Array;
/// use sa_linalg::CMat;
///
/// let array = Array::paper_octagon();
/// let mut engine = AoaEngine::new(&array, &AoaConfig::default());
/// // Identity covariance: a flat, sourceless spectrum — but it runs the
/// // whole pipeline. Real callers feed per-packet sample covariances.
/// let r = CMat::identity(array.len());
/// let est = engine.estimate_cov(&r, 64);
/// // The production signature grid: the 1° grid decimated 6×.
/// assert_eq!(est.spectrum.len(), 60);
/// ```
#[derive(Debug)]
pub struct AoaEngine {
    cfg: AoaConfig,
    array_len: usize,
    /// Scan space after smoothing truncation — what the spectrum scans.
    /// For circular arrays under [`CircularHandling::ModeSpace`] it also
    /// carries the Davies transform ([`ScanSpace::modespace`]).
    space: ScanSpace,
    /// Precomputed steering vectors over `space`'s grid.
    table: SteeringTable,
    /// The analysis step: physical covariance → the matrix MUSIC
    /// decomposes.
    analyse: Analysis,
    /// The MUSIC scan.
    backend: ScanBackend,
    /// Steering-vector scratch for off-grid evaluations (refinement and
    /// ranking).
    steer_buf: Vec<C64>,
    /// Reusable eigensolver buffers.
    eig_ws: EighWorkspace,
    /// Test hook: run the cyclic Jacobi reference eigensolver instead of
    /// the tridiagonal one, so the oracle test can pin bearings.
    #[cfg(test)]
    jacobi_oracle: bool,
    /// Reusable eigendecomposition output.
    eig: EigH,
}

impl AoaEngine {
    /// Build the production engine for an array and configuration:
    /// exactly [`AoaEngine::reference`] with [`ReferenceSetup::default`].
    pub fn new(array: &Array, cfg: &AoaConfig) -> Self {
        Self::reference(array, cfg, ReferenceSetup::default())
    }

    /// Build an engine that deviates from the production pipeline as
    /// `setup` says — how tests, benches and ablations reach the
    /// exhaustive oracle and the decorrelation and grid variants.
    /// Resolves the analysis domain and smoothing into one analysis
    /// step, then precomputes the manifold.
    pub fn reference(array: &Array, cfg: &AoaConfig, setup: ReferenceSetup) -> Self {
        // 1. Analysis domain (where the covariance will live). A
        //    virtual-ULA space carries the Davies transform itself.
        let base_space = match (array.kind(), setup.circular) {
            (ArrayKind::Linear, _) | (ArrayKind::Circular, CircularHandling::Physical) => {
                ScanSpace::physical(array)
            }
            (ArrayKind::Circular, CircularHandling::ModeSpace) => ScanSpace::virtual_ula(array),
        };

        // 2. Decorrelation (skipped for the physical circular
        //    manifold, which has no shift structure). The subarray size
        //    is 3/4 of the aperture, at least 3, at most m — leaving
        //    K = m − L + 1 subarrays for decorrelation.
        let m = base_space.len();
        let smoothing = match base_space {
            ScanSpace::Circular { .. } => Smoothing::None,
            _ => setup.smoothing,
        };
        let sub_len = ((3 * m) / 4).clamp(3.min(m), m);
        let space = match smoothing {
            Smoothing::FbSpatial if sub_len < m => base_space.truncated(sub_len),
            _ => base_space,
        };

        // 3. Both steps as one function of the physical covariance, so
        //    a packet runs no match on the setup.
        let analyse: Analysis = match (space.modespace().is_some(), smoothing) {
            (false, Smoothing::None) => |r, _| r.clone(),
            (false, Smoothing::ForwardBackward) => |r, _| forward_backward(r),
            (false, Smoothing::FbSpatial) => |r, s| smooth_fb(r, s.len()),
            (true, Smoothing::None) => mode_space,
            (true, Smoothing::ForwardBackward) => |r, s| forward_backward(&mode_space(r, s)),
            (true, Smoothing::FbSpatial) => |r, s| smooth_fb(&mode_space(r, s), s.len()),
        };

        // 4. The manifold, evaluated once (MUSIC's hot path).
        let table = space.steering_table(setup.grid_step_deg);

        Self {
            cfg: *cfg,
            array_len: array.len(),
            space,
            table,
            analyse,
            backend: setup.scan,
            steer_buf: Vec::new(),
            eig_ws: EighWorkspace::new(),
            #[cfg(test)]
            jacobi_oracle: false,
            eig: EigH {
                values: Vec::new(),
                vectors: CMat::default(),
            },
        }
    }

    /// The scan space the spectrum is evaluated on (post-smoothing).
    pub fn scan_space(&self) -> &ScanSpace {
        &self.space
    }

    /// Estimate from raw per-antenna snapshots (rows = antennas,
    /// columns = samples).
    pub fn estimate(&mut self, snapshots: &CMat) -> AoaEstimate {
        let n = snapshots.cols();
        let r = sample_covariance(snapshots);
        self.estimate_cov(&r, n)
    }

    /// Estimate from a physical-domain covariance and the number of
    /// snapshots that formed it. Panics if the covariance dimension does
    /// not match the engine's array.
    pub fn estimate_cov(&mut self, r: &CMat, n_snapshots: usize) -> AoaEstimate {
        assert_eq!(
            r.rows(),
            self.array_len,
            "estimate: covariance is {}x{} for a {}-element array",
            r.rows(),
            r.cols(),
            self.array_len
        );

        // 1. The analysis step (mode space and decorrelation).
        let ra = (self.analyse)(r, &self.space);

        // 2. Eigenstructure and source count. The count is additionally
        //    capped to keep a ≥2-dimensional noise subspace whenever the
        //    aperture allows (m ≥ 4): a 1-dimensional noise subspace makes
        //    MUSIC peaks fragile under the residual inter-path correlation
        //    that smoothing cannot fully remove.
        #[cfg(test)]
        let jacobi_oracle = self.jacobi_oracle;
        #[cfg(not(test))]
        let jacobi_oracle = false;
        if jacobi_oracle {
            self.eig_ws.eigh_into(&ra, &mut self.eig);
        } else {
            self.eig_ws.eigh(&ra, &mut self.eig);
        }
        let m = self.eig.values.len();
        let n_sources = if m >= 2 {
            let k = self
                .cfg
                .source_count
                .estimate(&self.eig.values, n_snapshots);
            if m >= 4 {
                k.min(m - 2)
            } else {
                k
            }
        } else {
            1
        };

        // 3. Spectrum and candidate peaks. The coarse-to-fine scan
        //    knows its peaks already (off-grid, refined); the exhaustive
        //    oracle extracts them from its full-grid spectrum. Either
        //    way they are ranked by Bartlett power on `ra`.
        let k_music = n_sources.min(m.saturating_sub(1)).max(1);
        let (spectrum, candidates) = match self.backend {
            ScanBackend::Exhaustive => exhaustive_scan(&self.eig, &self.table, k_music),
            ScanBackend::CoarseToFine => coarse_to_fine_scan(
                &self.eig,
                &self.table,
                &self.space,
                k_music,
                &mut self.steer_buf,
            ),
        };
        let ranked_peaks = rank_candidates(&candidates, &ra, &self.space, &mut self.steer_buf);

        // 4. Per-packet SNR and the CRLB it implies. The eigenvalue
        //    split reports the *subspace* SNR over the m-dimensional
        //    analysis domain; dividing by m recovers the per-element
        //    SNR the CRLB is stated in. The bound uses the full
        //    physical aperture (never above the subarray's bound, so
        //    RMSE/CRLB stays ≥ 1 — pinned by `tests/crlb_accuracy.rs`).
        //    The bound lives in the electrical-angle domain; a physical
        //    ULA additionally needs the kd·cosθ Jacobian, linearised at
        //    the bearing estimate.
        let snr = eig_split_snr(&self.eig.values, k_music.min(m.saturating_sub(1)));
        let sigma_omega =
            crate::confidence::crlb_sigma_deg(snr / (m.max(1) as f64), n_snapshots, self.array_len);
        let sigma = match &self.space {
            ScanSpace::Ula { array, used } if *used >= 2 => {
                let e = array.elements();
                let kd = std::f64::consts::TAU * (e[1].0 - e[0].0) / array.wavelength();
                let bearing = ranked_peaks
                    .first()
                    .map(|p| p.angle_deg)
                    .unwrap_or_else(|| spectrum.peak().0);
                crate::confidence::ula_bearing_sigma_deg(sigma_omega, kd, bearing)
            }
            _ => sigma_omega,
        };
        let crlb_confidence = match self.cfg.confidence {
            ConfidenceModel::PeakPower => None,
            ConfidenceModel::Crlb => Some(crate::confidence::crlb_confidence(sigma)),
        };

        AoaEstimate {
            spectrum,
            n_sources,
            eigenvalues: self.eig.values.clone(),
            ranked_peaks,
            snr,
            crlb_sigma_deg: sigma,
            crlb_confidence,
        }
    }
}

/// The analysis step resolved from a [`ReferenceSetup`]: the physical
/// covariance and the post-smoothing scan space → the matrix MUSIC
/// decomposes.
type Analysis = fn(&CMat, &ScanSpace) -> CMat;

/// The Davies transform into a virtual-ULA space's mode space.
fn mode_space(r: &CMat, space: &ScanSpace) -> CMat {
    space
        .modespace()
        .expect("a mode-space analysis step scans a virtual ULA")
        .transform_cov(r)
}

/// Rank candidate peaks (possibly off-grid) by Bartlett power on the
/// analysed covariance, descending. Each candidate's steering vector is
/// built into the caller's buffer, so ranking allocates only its output.
fn rank_candidates(
    cands: &[Peak],
    ra: &CMat,
    space: &ScanSpace,
    steer_buf: &mut Vec<C64>,
) -> Vec<RankedPeak> {
    let mut ranked: Vec<RankedPeak> = cands
        .iter()
        .map(|c| {
            space.steering_into(space.azimuth_of_present(c.angle_deg), steer_buf);
            RankedPeak {
                angle_deg: c.angle_deg,
                music_value: c.value,
                power: crate::beamform::bartlett_power(ra, steer_buf),
            }
        })
        .collect();
    ranked.sort_by(|a, b| b.power.total_cmp(&a.power));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamform::{bartlett_spectrum, capon_spectrum};
    use crate::pseudospectrum::angle_diff_deg;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_array::geometry::broadside_deg_to_azimuth;
    use sa_linalg::complex::C64;
    use sa_sigproc::noise::add_noise;

    fn coherent_snapshots(
        array: &Array,
        paths: &[(f64, C64)], // (azimuth rad, gain)
        n: usize,
        noise_var: f64,
        seed: u64,
    ) -> CMat {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let steers: Vec<Vec<C64>> = paths.iter().map(|&(az, _)| array.steering(az)).collect();
        let mut x = CMat::from_fn(array.len(), n, |m, t| {
            let s = C64::cis(1.3 * t as f64 + 0.2 * ((t * t) % 17) as f64);
            paths
                .iter()
                .enumerate()
                .map(|(p, &(_, g))| steers[p][m] * g * s)
                .sum()
        });
        if noise_var > 0.0 {
            for m in 0..x.rows() {
                let mut row = x.row(m);
                add_noise(&mut rng, &mut row, noise_var);
                for t in 0..x.cols() {
                    x[(m, t)] = row[t];
                }
            }
        }
        x
    }

    /// The oracle side of a comparison really is the exhaustive scan:
    /// its spectrum samples every cell of the configured grid.
    fn assert_on_full_grid(spectrum: &Pseudospectrum, step_deg: f64) {
        let a = &spectrum.angles_deg;
        assert!(a.len() >= 2, "spectrum has {} bins", a.len());
        assert!(
            (a[1] - a[0] - step_deg).abs() < 1e-9,
            "oracle spectrum step {}° is not the {}° grid",
            a[1] - a[0],
            step_deg
        );
    }

    #[test]
    fn default_config_single_path_linear() {
        let array = Array::paper_linear(8);
        let az = broadside_deg_to_azimuth(33.0);
        let x = coherent_snapshots(&array, &[(az, C64::new(1.0, 0.0))], 160, 0.01, 1);
        let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
        assert!(
            (est.bearing_deg() - 33.0).abs() < 2.0,
            "bearing {}",
            est.bearing_deg()
        );
        assert!(est.n_sources >= 1);
    }

    #[test]
    fn default_config_single_path_circular() {
        let array = Array::paper_octagon();
        let x = coherent_snapshots(
            &array,
            &[(200f64.to_radians(), C64::new(1.0, 0.0))],
            160,
            0.01,
            2,
        );
        let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
        assert!(
            angle_diff_deg(est.bearing_deg(), 200.0, true) < 4.0,
            "bearing {}",
            est.bearing_deg()
        );
    }

    #[test]
    fn coherent_two_path_resolved_by_default_pipeline_linear() {
        let array = Array::paper_linear(8);
        let x = coherent_snapshots(
            &array,
            &[
                (broadside_deg_to_azimuth(-25.0), C64::new(1.0, 0.0)),
                (broadside_deg_to_azimuth(35.0), C64::from_polar(0.7, 2.1)),
            ],
            256,
            1e-3,
            3,
        );
        let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
        let peaks = est.spectrum.find_peaks(1.0, 4);
        assert!(
            peaks.iter().any(|p| (p.angle_deg + 25.0).abs() < 4.0),
            "missing −25°: {:?}",
            peaks
        );
        assert!(
            peaks.iter().any(|p| (p.angle_deg - 35.0).abs() < 4.0),
            "missing +35°: {:?}",
            peaks
        );
    }

    #[test]
    fn no_smoothing_fails_on_coherent_pair() {
        let array = Array::paper_linear(8);
        let x = coherent_snapshots(
            &array,
            &[
                (broadside_deg_to_azimuth(-25.0), C64::new(1.0, 0.0)),
                (broadside_deg_to_azimuth(35.0), C64::from_polar(0.7, 2.1)),
            ],
            256,
            1e-3,
            3,
        );
        // Ablation E8b: raw MUSIC on the full 1° grid (the exhaustive
        // oracle), so the verdict is about smoothing, not the scan.
        let cfg = AoaConfig {
            source_count: SourceCount::Fixed(2),
            ..Default::default()
        };
        let setup = ReferenceSetup {
            scan: ScanBackend::Exhaustive,
            smoothing: Smoothing::None,
            ..ReferenceSetup::default()
        };
        let est = AoaEngine::reference(&array, &cfg, setup).estimate(&x);
        assert_on_full_grid(&est.spectrum, setup.grid_step_deg);
        let peaks = est.spectrum.find_peaks(1.0, 4);
        let both = peaks.iter().any(|p| (p.angle_deg + 25.0).abs() < 3.0)
            && peaks.iter().any(|p| (p.angle_deg - 35.0).abs() < 3.0);
        assert!(
            !both,
            "raw MUSIC should not resolve coherent pair: {:?}",
            peaks
        );
    }

    #[test]
    fn bartlett_and_capon_methods_run() {
        let array = Array::paper_linear(8);
        let az = broadside_deg_to_azimuth(-10.0);
        let x = coherent_snapshots(&array, &[(az, C64::new(1.0, 0.0))], 128, 0.01, 4);
        // The baselines are free functions on the raw covariance.
        let r = sample_covariance(&x);
        let space = ScanSpace::physical(&array);
        for (method, spectrum) in [
            ("bartlett", bartlett_spectrum(&r, &space, 1.0)),
            ("capon", capon_spectrum(&r, &space, 1.0, 1e-6)),
        ] {
            let (bearing, _) = spectrum.peak();
            assert!(
                (bearing + 10.0).abs() < 3.0,
                "{} bearing {}",
                method,
                bearing
            );
        }
    }

    #[test]
    fn physical_circular_handling_single_path() {
        let array = Array::paper_octagon();
        let x = coherent_snapshots(
            &array,
            &[(80f64.to_radians(), C64::new(1.0, 0.0))],
            128,
            0.01,
            5,
        );
        let setup = ReferenceSetup {
            circular: CircularHandling::Physical,
            smoothing: Smoothing::None,
            ..ReferenceSetup::default()
        };
        let est = AoaEngine::reference(&array, &AoaConfig::default(), setup).estimate(&x);
        assert!(
            angle_diff_deg(est.bearing_deg(), 80.0, true) < 3.0,
            "bearing {}",
            est.bearing_deg()
        );
    }

    #[test]
    fn two_antenna_array_works_end_to_end() {
        // Fig-7's 2-antenna case: still produces a (broad) spectrum.
        let array = Array::paper_linear(2);
        let az = broadside_deg_to_azimuth(20.0);
        let x = coherent_snapshots(&array, &[(az, C64::new(1.0, 0.0))], 64, 0.01, 7);
        let cfg = AoaConfig {
            source_count: SourceCount::Fixed(1),
            ..Default::default()
        };
        let setup = ReferenceSetup {
            smoothing: Smoothing::None,
            ..ReferenceSetup::default()
        };
        let est = AoaEngine::reference(&array, &cfg, setup).estimate(&x);
        assert!(
            (est.bearing_deg() - 20.0).abs() < 6.0,
            "bearing {}",
            est.bearing_deg()
        );
    }

    #[test]
    fn new_is_the_default_reference_setup_bit_for_bit() {
        // `AoaEngine::new` must be exactly the reference constructor at
        // its default setup, and one engine reused across many packets
        // must reproduce a fresh engine per packet — reuse changes the
        // amortisation, never the numbers. Both array kinds.
        // `Debug` prints every f64 in shortest round-trip form, so equal
        // renderings are equal bits (spectrum, ranked peaks,
        // eigenvalues, SNR, CRLB sigma and confidence alike).
        let bits = |e: &AoaEstimate| format!("{:?}", e);
        for (array, cfg) in [
            (Array::paper_octagon(), AoaConfig::default()),
            (
                Array::paper_linear(8),
                AoaConfig {
                    source_count: SourceCount::Fixed(2),
                    ..AoaConfig::default()
                },
            ),
        ] {
            let mut production = AoaEngine::new(&array, &cfg);
            let mut reference = AoaEngine::reference(&array, &cfg, ReferenceSetup::default());
            for seed in 0..4u64 {
                let az1 = (30.0 + 40.0 * seed as f64).to_radians();
                let az2 = (150.0 + 25.0 * seed as f64).to_radians();
                let x = coherent_snapshots(
                    &array,
                    &[(az1, C64::new(1.0, 0.0)), (az2, C64::from_polar(0.5, 0.7))],
                    96,
                    0.02,
                    seed,
                );
                let r = sample_covariance(&x);
                let p = bits(&production.estimate_cov(&r, x.cols()));
                assert_eq!(
                    p,
                    bits(&reference.estimate_cov(&r, x.cols())),
                    "seed {}",
                    seed
                );
                let fresh = AoaEngine::new(&array, &cfg).estimate_cov(&r, x.cols());
                assert_eq!(p, bits(&fresh), "seed {}: reuse vs fresh engine", seed);
            }
        }
    }

    #[test]
    fn analysis_step_is_the_reference_pipeline() {
        // The resolved analysis step against the step-by-step reference
        // pipeline — mode space (`transform_cov`) for a virtual ULA, then
        // the decorrelation (`forward_backward`, `smooth_fb` or none) —
        // bit for bit, for every smoothing × circular variant on both
        // array kinds, on a full-rank and a rank-one covariance.
        use sa_sigproc::covariance::{forward_backward, smooth_fb};
        use sa_sigproc::noise::cn_sample;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for array in [Array::paper_octagon(), Array::paper_linear(8)] {
            let m = array.len();
            let cases = [2 * m, 1].map(|n| {
                let x = CMat::from_fn(m, n, |_, _| cn_sample(&mut rng, 1.0));
                x.matmul(&x.hermitian())
            });
            for smoothing in [
                Smoothing::None,
                Smoothing::ForwardBackward,
                Smoothing::FbSpatial,
            ] {
                for circular in [CircularHandling::ModeSpace, CircularHandling::Physical] {
                    let setup = ReferenceSetup {
                        smoothing,
                        circular,
                        ..ReferenceSetup::default()
                    };
                    let engine = AoaEngine::reference(&array, &AoaConfig::default(), setup);
                    let space = &engine.space;
                    for r in &cases {
                        let domain = match space.modespace() {
                            Some(ms) => ms.transform_cov(r),
                            None => r.clone(),
                        };
                        let want = match (space, smoothing) {
                            (ScanSpace::Circular { .. }, _) | (_, Smoothing::None) => domain,
                            (_, Smoothing::ForwardBackward) => forward_backward(&domain),
                            (_, Smoothing::FbSpatial) => smooth_fb(&domain, space.len()),
                        };
                        assert_eq!(
                            (engine.analyse)(r, space),
                            want,
                            "{:?} {:?} {:?}",
                            array.kind(),
                            smoothing,
                            circular
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tridiagonal_backend_bearings_match_jacobi_oracle() {
        // The estimator-level oracle pin: the fast eigensolver must not
        // move a single MUSIC bearing. Peaks live on the scan grid, so
        // agreement to 1e-9° means "the same grid cells won", across
        // both array kinds, single- and multi-path, batched reuse
        // included.
        for (array, base) in [
            (Array::paper_octagon(), AoaConfig::default()),
            (
                Array::paper_linear(8),
                AoaConfig {
                    source_count: SourceCount::Fixed(2),
                    ..AoaConfig::default()
                },
            ),
        ] {
            let mut fast = AoaEngine::new(&array, &base);
            let mut oracle = AoaEngine::new(&array, &base);
            oracle.jacobi_oracle = true;
            for seed in 0..6u64 {
                let az1 = (20.0 + 50.0 * seed as f64).to_radians();
                let az2 = (140.0 + 30.0 * seed as f64).to_radians();
                let x = coherent_snapshots(
                    &array,
                    &[(az1, C64::new(1.0, 0.0)), (az2, C64::from_polar(0.6, 1.3))],
                    128,
                    0.01,
                    seed,
                );
                let r = sample_covariance(&x);
                let f = fast.estimate_cov(&r, x.cols());
                let o = oracle.estimate_cov(&r, x.cols());
                assert!(
                    (f.bearing_deg() - o.bearing_deg()).abs() < 1e-9,
                    "seed {}: {} vs {}",
                    seed,
                    f.bearing_deg(),
                    o.bearing_deg()
                );
                assert_eq!(f.n_sources, o.n_sources, "seed {}", seed);
                assert_eq!(f.ranked_peaks.len(), o.ranked_peaks.len(), "seed {}", seed);
                for (pf, po) in f.ranked_peaks.iter().zip(&o.ranked_peaks) {
                    assert!((pf.angle_deg - po.angle_deg).abs() < 1e-9, "seed {}", seed);
                }
                for (a, b) in f.eigenvalues.iter().zip(&o.eigenvalues) {
                    let scale = b.abs().max(1.0);
                    assert!((a - b).abs() < 1e-10 * scale, "seed {}", seed);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "covariance is")]
    fn dimension_mismatch_panics() {
        let array = Array::paper_linear(4);
        let r = CMat::identity(6);
        let _ = AoaEngine::new(&array, &AoaConfig::default()).estimate_cov(&r, 10);
    }

    #[test]
    fn ranked_peaks_are_power_ordered_and_include_direct() {
        // Strong path at 40°, weak at 200°: the ranked list must put the
        // strong one first even though MUSIC needle heights could go
        // either way.
        let array = Array::paper_octagon();
        let x = coherent_snapshots(
            &array,
            &[
                (40f64.to_radians(), C64::new(1.0, 0.0)),
                (200f64.to_radians(), C64::from_polar(0.4, 1.0)),
            ],
            256,
            1e-4,
            42,
        );
        let est = AoaEngine::new(&array, &AoaConfig::default()).estimate(&x);
        assert!(!est.ranked_peaks.is_empty());
        for w in est.ranked_peaks.windows(2) {
            assert!(
                w[0].power >= w[1].power,
                "not power-sorted: {:?}",
                est.ranked_peaks
            );
        }
        assert!(
            angle_diff_deg(est.ranked_peaks[0].angle_deg, 40.0, true) < 4.0,
            "strongest ranked peak at {}",
            est.ranked_peaks[0].angle_deg
        );
        assert!(
            est.ranked_peaks
                .iter()
                .any(|p| angle_diff_deg(p.angle_deg, 200.0, true) < 8.0),
            "weak path missing from candidates: {:?}",
            est.ranked_peaks
        );
    }

    #[test]
    fn bearing_falls_back_to_spectrum_max_without_peaks() {
        // A flat spectrum has no prominent peaks; bearing_deg must not
        // panic and should return the spectrum max.
        let spec = crate::pseudospectrum::Pseudospectrum::new(
            (0..360).map(|i| i as f64).collect(),
            vec![1.0; 360],
            true,
        );
        let est = AoaEstimate {
            spectrum: spec,
            n_sources: 1,
            eigenvalues: vec![1.0; 5],
            ranked_peaks: Vec::new(),
            snr: 0.0,
            crlb_sigma_deg: f64::INFINITY,
            crlb_confidence: None,
        };
        let b = est.bearing_deg();
        assert!((0.0..360.0).contains(&b));
    }

    #[test]
    fn coarse_to_fine_backend_matches_exhaustive_oracle() {
        // The coarse-to-fine backend must find the same peak set as the
        // exhaustive oracle (within one grid cell — its refined bearings
        // are continuous) and never change the rest of the estimate.
        for (array, base) in [
            (Array::paper_octagon(), AoaConfig::default()),
            (
                Array::paper_linear(8),
                AoaConfig {
                    source_count: SourceCount::Fixed(2),
                    ..AoaConfig::default()
                },
            ),
        ] {
            let setup = ReferenceSetup {
                scan: ScanBackend::Exhaustive,
                ..ReferenceSetup::default()
            };
            let mut oracle = AoaEngine::reference(&array, &base, setup);
            let mut fast = AoaEngine::new(&array, &base);
            for seed in 0..6u64 {
                let az1 = (20.0 + 50.0 * seed as f64).to_radians();
                let az2 = (140.0 + 30.0 * seed as f64).to_radians();
                let x = coherent_snapshots(
                    &array,
                    &[(az1, C64::new(1.0, 0.0)), (az2, C64::from_polar(0.6, 1.3))],
                    128,
                    0.01,
                    seed,
                );
                let r = sample_covariance(&x);
                let o = oracle.estimate_cov(&r, x.cols());
                let f = fast.estimate_cov(&r, x.cols());
                assert_on_full_grid(&o.spectrum, setup.grid_step_deg);
                assert_eq!(f.n_sources, o.n_sources, "seed {}", seed);
                assert_eq!(f.eigenvalues, o.eigenvalues, "seed {}", seed);
                assert!(
                    angle_diff_deg(f.bearing_deg(), o.bearing_deg(), o.spectrum.wraps) <= 1.0,
                    "seed {}: c2f {} vs oracle {}",
                    seed,
                    f.bearing_deg(),
                    o.bearing_deg()
                );
                // Every oracle peak has a refined counterpart nearby.
                for po in &o.ranked_peaks {
                    assert!(
                        f.ranked_peaks.iter().any(|pf| angle_diff_deg(
                            pf.angle_deg,
                            po.angle_deg,
                            o.spectrum.wraps
                        ) <= 1.0),
                        "seed {}: oracle peak {}° missing from c2f {:?}",
                        seed,
                        po.angle_deg,
                        f.ranked_peaks
                    );
                }
            }
        }
    }

    #[test]
    fn crlb_confidence_threads_only_when_configured() {
        let array = Array::paper_octagon();
        let x = coherent_snapshots(&array, &[(0.9, C64::new(1.0, 0.0))], 128, 0.01, 13);
        let r = sample_covariance(&x);
        let default_est = AoaEngine::new(&array, &AoaConfig::default()).estimate_cov(&r, x.cols());
        assert_eq!(default_est.crlb_confidence, None);
        assert!(default_est.snr > 0.0);
        assert!(default_est.crlb_sigma_deg.is_finite() && default_est.crlb_sigma_deg > 0.0);

        let crlb_cfg = AoaConfig {
            confidence: ConfidenceModel::Crlb,
            ..AoaConfig::default()
        };
        let est = AoaEngine::new(&array, &crlb_cfg).estimate_cov(&r, x.cols());
        let c = est.crlb_confidence.expect("Crlb model sets confidence");
        assert!((0.0..=1.0).contains(&c) && c > 0.0);
        // Everything except the confidence annotation is unchanged.
        assert_eq!(est.spectrum, default_est.spectrum);
        assert_eq!(est.ranked_peaks, default_est.ranked_peaks);
        assert_eq!(est.snr, default_est.snr);

        // A noisier packet earns a lower confidence.
        let xn = coherent_snapshots(&array, &[(0.9, C64::new(1.0, 0.0))], 128, 2.0, 13);
        let rn = sample_covariance(&xn);
        let noisy = AoaEngine::new(&array, &crlb_cfg).estimate_cov(&rn, xn.cols());
        assert!(noisy.crlb_confidence.unwrap() < c);
    }
}
