//! Scan spaces: the manifold an estimator scans over.
//!
//! Subspace estimators evaluate steering vectors on a grid of candidate
//! angles. Which vectors, which grid, and how angles are *presented*
//! depends on where the covariance lives:
//!
//! * a physical **linear** array scans broadside `[−90°, 90°]`
//!   (paper footnote 1: the two sides of the antenna line are not
//!   differentiable);
//! * a physical **circular** array scans `[0°, 360°)` directly on its
//!   own manifold (no spatial smoothing possible — kept mainly for the
//!   ablation experiments);
//! * a **virtual ULA** from the Davies transform scans `[0°, 360°)` with
//!   Vandermonde steering `e^{jmφ}` (the production path for the paper's
//!   octagon).
//!
//! Spatial smoothing shrinks the covariance to a leading subblock; the
//! matching manifold is the same steering truncated to its first `used`
//! entries (exactly correct for Vandermonde manifolds, where a subarray's
//! response is the full response times an angle-independent scalar).

use sa_array::geometry::{azimuth_to_broadside_deg, Array, ArrayKind};
use sa_array::modespace::ModeSpace;
use sa_linalg::complex::C64;

/// A scannable manifold plus presentation conventions.
#[derive(Debug, Clone)]
pub enum ScanSpace {
    /// Physical uniform linear array (optionally truncated).
    Ula {
        /// The physical array (must be linear).
        array: Array,
        /// Number of leading elements in use (after smoothing).
        used: usize,
    },
    /// Physical circular array, scanned on its own manifold.
    Circular {
        /// The physical array (must be circular).
        array: Array,
    },
    /// Virtual ULA in Davies mode space (optionally truncated).
    Virtual {
        /// The phase-mode transform.
        modespace: ModeSpace,
        /// Number of leading virtual elements in use (after smoothing).
        used: usize,
    },
}

impl ScanSpace {
    /// Full (untruncated) scan space for a physical array on its native
    /// manifold.
    pub fn physical(array: &Array) -> Self {
        match array.kind() {
            ArrayKind::Linear => Self::Ula {
                array: array.clone(),
                used: array.len(),
            },
            ArrayKind::Circular => Self::Circular {
                array: array.clone(),
            },
        }
    }

    /// Virtual-ULA scan space for a circular array (Davies transform).
    pub fn virtual_ula(array: &Array) -> Self {
        let ms = ModeSpace::for_array(array);
        let used = ms.virtual_len();
        Self::Virtual {
            modespace: ms,
            used,
        }
    }

    /// Number of manifold entries a steering vector will have.
    pub fn len(&self) -> usize {
        match self {
            Self::Ula { used, .. } | Self::Virtual { used, .. } => *used,
            Self::Circular { array } => array.len(),
        }
    }

    /// True if the manifold is empty (cannot be constructed that way).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restrict to the first `used` elements — must follow the spatial
    /// smoothing that shrank the covariance. Panics for physical circular
    /// manifolds (no shift invariance to exploit) or out-of-range sizes.
    pub fn truncated(&self, used: usize) -> Self {
        match self {
            Self::Ula { array, .. } => {
                assert!(used >= 1 && used <= array.len());
                Self::Ula {
                    array: array.clone(),
                    used,
                }
            }
            Self::Virtual { modespace, .. } => {
                assert!(used >= 1 && used <= modespace.virtual_len());
                Self::Virtual {
                    modespace: modespace.clone(),
                    used,
                }
            }
            Self::Circular { .. } => {
                panic!("ScanSpace::truncated: circular physical manifolds cannot be truncated")
            }
        }
    }

    /// Steering vector at azimuth `az` (radians, global frame).
    pub fn steering(&self, az: f64) -> Vec<C64> {
        let mut s = Vec::with_capacity(self.len());
        self.steering_into(az, &mut s);
        s
    }

    /// Evaluate the steering vector at azimuth `az` into a caller-owned
    /// buffer — the allocation-free form of [`ScanSpace::steering`].
    ///
    /// The refinement loop and the peak ranking evaluate the manifold
    /// off-grid on every packet through one reused buffer. Produces
    /// exactly the array's (or the mode space's) own steering vector,
    /// truncated to the space's length.
    pub fn steering_into(&self, az: f64, out: &mut Vec<C64>) {
        out.clear();
        match self {
            Self::Ula { array, .. } | Self::Circular { array } => {
                let k = 2.0 * std::f64::consts::PI / array.wavelength();
                let (ux, uy) = (az.cos(), az.sin());
                out.extend(
                    array.elements()[..self.len()]
                        .iter()
                        .map(|&(x, y)| C64::cis(k * (x * ux + y * uy))),
                );
            }
            Self::Virtual { modespace, used } => {
                let h = modespace.order();
                out.extend((-h..=h).take(*used).map(|m| C64::cis(m as f64 * az)));
            }
        }
    }

    /// Scan grid of azimuths (radians) in presentation order.
    pub fn grid(&self, step_deg: f64) -> Vec<f64> {
        match self {
            Self::Ula { array, .. } | Self::Circular { array } => array.scan_grid(step_deg),
            Self::Virtual { .. } => {
                assert!(step_deg > 0.0);
                let step = step_deg.to_radians();
                let n = (2.0 * std::f64::consts::PI / step).round() as usize;
                (0..n).map(|i| i as f64 * step).collect()
            }
        }
    }

    /// Convert an azimuth to the presentation angle in degrees.
    pub fn present_deg(&self, az: f64) -> f64 {
        match self {
            Self::Ula { .. } => azimuth_to_broadside_deg(az),
            Self::Circular { .. } | Self::Virtual { .. } => az.to_degrees().rem_euclid(360.0),
        }
    }

    /// Convert a presentation angle (degrees) back to a scan azimuth
    /// (radians) — the inverse of [`ScanSpace::present_deg`] on the scan
    /// domain.
    pub fn azimuth_of_present(&self, deg: f64) -> f64 {
        match self {
            Self::Ula { .. } => sa_array::geometry::broadside_deg_to_azimuth(deg),
            Self::Circular { .. } | Self::Virtual { .. } => deg.to_radians(),
        }
    }

    /// True if the presentation domain wraps (circular coverage).
    pub fn wraps(&self) -> bool {
        !matches!(self, Self::Ula { .. })
    }

    /// The Davies phase-mode transform backing a virtual-ULA scan space
    /// (`None` for physical manifolds). Always the *full* transform:
    /// truncation affects only the steering length, not the transform.
    pub fn modespace(&self) -> Option<&ModeSpace> {
        match self {
            Self::Virtual { modespace, .. } => Some(modespace),
            _ => None,
        }
    }

    /// Precompute the scan grid and every steering vector on it.
    ///
    /// Evaluating the manifold is the per-call setup cost of every
    /// spectrum scan: a 1° grid on the paper's octagon is 360 steering
    /// vectors of 7 complex exponentials each, rebuilt from trigonometry
    /// on every packet. A [`SteeringTable`] hoists that out of the hot
    /// path so a batch of packets shares one evaluation (see
    /// `sa_aoa::estimator::AoaEngine`).
    pub fn steering_table(&self, step_deg: f64) -> SteeringTable {
        let azimuths = self.grid(step_deg);
        let angles_deg: Vec<f64> = azimuths.iter().map(|&az| self.present_deg(az)).collect();
        let dim = self.len();
        let mut steering = Vec::with_capacity(azimuths.len() * dim);
        let mut norm_sqr = Vec::with_capacity(azimuths.len());
        let mut a = Vec::with_capacity(dim);
        for &az in &azimuths {
            self.steering_into(az, &mut a);
            norm_sqr.push(sa_linalg::matrix::vnorm(&a).powi(2));
            steering.extend_from_slice(&a);
        }
        SteeringTable {
            angles_deg,
            dim,
            steering,
            norm_sqr,
            wraps: self.wraps(),
        }
    }
}

/// A precomputed scan grid: presentation angles, steering
/// vectors and their squared norms for one [`ScanSpace`] at one
/// resolution. Built by [`ScanSpace::steering_table`] and shared across
/// every packet of a batch. Steering vectors live in one contiguous
/// `grid × dim` block, so the MUSIC scan streams through them linearly
/// instead of chasing a pointer per grid point.
#[derive(Debug, Clone)]
pub struct SteeringTable {
    angles_deg: Vec<f64>,
    /// Steering-vector length (scan-space dimension).
    dim: usize,
    /// All steering vectors, row-major: grid point `i` occupies
    /// `steering[i*dim .. (i+1)*dim]`.
    steering: Vec<C64>,
    norm_sqr: Vec<f64>,
    wraps: bool,
}

impl SteeringTable {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.angles_deg.len()
    }

    /// True if the grid is empty (a degenerate `step_deg`).
    pub fn is_empty(&self) -> bool {
        self.angles_deg.is_empty()
    }

    /// Manifold dimension (length of each steering vector).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Presentation angles, degrees, ascending.
    pub fn angles_deg(&self) -> &[f64] {
        &self.angles_deg
    }

    /// Steering vector at grid index `i`.
    pub fn steering(&self, i: usize) -> &[C64] {
        &self.steering[i * self.dim..(i + 1) * self.dim]
    }

    /// Squared norm of the steering vector at grid index `i`.
    pub fn norm_sqr(&self, i: usize) -> f64 {
        self.norm_sqr[i]
    }

    /// True if the presentation domain wraps (circular coverage).
    pub fn wraps(&self) -> bool {
        self.wraps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_dispatch() {
        let lin = ScanSpace::physical(&Array::paper_linear(8));
        assert_eq!(lin.len(), 8);
        assert!(!lin.wraps());
        let circ = ScanSpace::physical(&Array::paper_octagon());
        assert_eq!(circ.len(), 8);
        assert!(circ.wraps());
    }

    #[test]
    fn virtual_space_has_seven_elements() {
        let v = ScanSpace::virtual_ula(&Array::paper_octagon());
        assert_eq!(v.len(), 7);
        assert!(v.wraps());
    }

    #[test]
    fn truncation_shrinks_steering() {
        let ula = ScanSpace::physical(&Array::paper_linear(8)).truncated(5);
        assert_eq!(ula.len(), 5);
        assert_eq!(ula.steering(1.0).len(), 5);
        let v = ScanSpace::virtual_ula(&Array::paper_octagon()).truncated(4);
        assert_eq!(v.steering(0.3).len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot be truncated")]
    fn circular_truncation_panics() {
        let _ = ScanSpace::physical(&Array::paper_octagon()).truncated(4);
    }

    #[test]
    fn presentation_conventions() {
        let ula = ScanSpace::physical(&Array::paper_linear(4));
        // Azimuth 90° (broadside) presents as 0°.
        assert!((ula.present_deg(std::f64::consts::FRAC_PI_2)).abs() < 1e-12);
        let v = ScanSpace::virtual_ula(&Array::paper_octagon());
        assert!((v.present_deg(std::f64::consts::PI) - 180.0).abs() < 1e-12);
        assert!((v.present_deg(-0.1) - 354.27).abs() < 0.01);
    }

    #[test]
    fn grids_cover_domains() {
        let ula = ScanSpace::physical(&Array::paper_linear(4));
        let g = ula.grid(1.0);
        assert_eq!(g.len(), 181);
        let v = ScanSpace::virtual_ula(&Array::paper_octagon());
        let g = v.grid(1.0);
        assert_eq!(g.len(), 360);
        // Presentation order ascending.
        let pres: Vec<f64> = g.iter().map(|&az| v.present_deg(az)).collect();
        assert!(pres.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn steering_into_matches_steering_all_variants() {
        // Each scan manifold against its reference definition, bit for
        // bit: the array's own steering vector for physical spaces,
        // `ModeSpace::steering` for the virtual ULA — truncated to
        // `used` either way. `steering` is `steering_into` allocated.
        let spaces = [
            ScanSpace::physical(&Array::paper_linear(8)),
            ScanSpace::physical(&Array::paper_linear(8)).truncated(5),
            ScanSpace::physical(&Array::paper_octagon()),
            ScanSpace::virtual_ula(&Array::paper_octagon()),
            ScanSpace::virtual_ula(&Array::paper_octagon()).truncated(4),
        ];
        let mut buf = Vec::new();
        for space in &spaces {
            for i in 0..12 {
                let az = -1.0 + 0.55 * i as f64;
                let mut want = match space {
                    ScanSpace::Ula { array, .. } | ScanSpace::Circular { array } => {
                        array.steering(az)
                    }
                    ScanSpace::Virtual { modespace, .. } => modespace.steering(az),
                };
                want.truncate(space.len());
                space.steering_into(az, &mut buf);
                assert_eq!(buf, want, "{:?} az {}", space, az);
            }
        }
    }

    #[test]
    fn virtual_steering_truncation_consistency() {
        // Truncated virtual steering equals prefix of full steering.
        let full = ScanSpace::virtual_ula(&Array::paper_octagon());
        let sub = full.truncated(5);
        let a = full.steering(0.77);
        let b = sub.steering(0.77);
        for i in 0..5 {
            assert!(a[i].approx_eq(b[i], 1e-14));
        }
    }
}
