//! The MUSIC pseudospectrum (Schmidt 1986) — the paper's AoA estimator.
//!
//! Given an `M × M` covariance `R`, its eigendecomposition splits into a
//! `K`-dimensional signal subspace (largest eigenvalues) and an
//! `(M − K)`-dimensional noise subspace `E_n`. Steering vectors of true
//! arrival directions are orthogonal to `E_n`, so the scan function
//!
//! ```text
//! P(θ) = (a^H a) / (a^H E_n E_n^H a)
//! ```
//!
//! peaks sharply at the arrival angles. The numerator makes the spectrum
//! invariant to steering-vector norm, which matters for truncated and
//! mode-space manifolds.

use crate::manifold::{ScanSpace, SteeringTable};
use crate::pseudospectrum::Pseudospectrum;
use sa_linalg::complex::ZERO;
use sa_linalg::eigen::EigH;
use sa_linalg::matrix::vdot_col;
use sa_linalg::CMat;

/// Compute the MUSIC pseudospectrum from a covariance already in the
/// scan space's domain (physical or mode space, possibly smoothed).
///
/// * `n_sources` — signal-subspace dimension `K`, `1 ..= M − 1`;
/// * `step_deg` — scan-grid resolution in degrees.
///
/// Panics if dimensions disagree or `n_sources` leaves no noise subspace.
pub fn music_spectrum(
    r: &CMat,
    space: &ScanSpace,
    n_sources: usize,
    step_deg: f64,
) -> Pseudospectrum {
    let eig = sa_linalg::eigen::eigh(r);
    music_spectrum_from_table(&eig, &space.steering_table(step_deg), n_sources)
}

/// [`music_spectrum`] from an eigendecomposition against a precomputed
/// [`SteeringTable`] —
/// the batched hot path. The table amortises the manifold evaluation
/// (grid, steering vectors, norms) across every packet that shares an
/// array and scan configuration; only the noise-subspace projections
/// remain per-packet work.
pub fn music_spectrum_from_table(
    eig: &EigH,
    table: &SteeringTable,
    n_sources: usize,
) -> Pseudospectrum {
    let m = eig.values.len();
    assert_eq!(
        m,
        table.dim(),
        "music: covariance dimension {} vs manifold {}",
        m,
        table.dim()
    );
    assert!(
        n_sources >= 1 && n_sources < m,
        "music: n_sources {} must be in 1..{}",
        n_sources,
        m
    );
    let proj = NoiseProjector::new(eig, n_sources);
    let mut values = Vec::with_capacity(table.len());
    for i in 0..table.len() {
        values.push(proj.value(table.steering(i), table.norm_sqr(i)));
    }
    Pseudospectrum::from_valid_grid(table.angles_deg().to_vec(), values, table.wraps())
}

/// The per-grid-point kernel of [`music_spectrum_from_table`], staged
/// once per packet: maps a steering vector (plus its squared norm) to
/// the MUSIC pseudospectrum value.
///
/// Factored out so the coarse-to-fine backend can evaluate the *same*
/// spectrum — bit for bit, at shared grid points — on a decimated grid
/// and at arbitrary off-grid refinement angles, without duplicating the
/// staging logic. The operations per value are exactly the previous
/// inline loop's (Rust floating point is strictly ordered, so the
/// factoring cannot change results).
pub(crate) struct NoiseProjector<'a> {
    eig: &'a EigH,
    m: usize,
    /// Projecting onto the *signal* subspace and taking the complement
    /// (smaller of the two subspaces wins — see `new`).
    complement: bool,
    first_col: usize,
    n_proj: usize,
    /// Contiguous staging of the projection subspace columns.
    buf: [sa_linalg::C64; 16 * 16],
    staged: bool,
}

impl<'a> NoiseProjector<'a> {
    /// Stage the projection subspace for an eigendecomposition and a
    /// signal-subspace dimension `n_sources ∈ 1..m`.
    ///
    /// The denominator is the projection of a(θ) onto the noise subspace
    /// (eigenvectors of the M − K smallest eigenvalues; ascending order ⇒
    /// the first M − K columns). Two equivalent forms:
    ///
    ///   ‖E_n^H a‖²              — project onto the M − K noise vectors;
    ///   ‖a‖² − ‖E_s^H a‖²       — complement of the K signal vectors
    ///                             (E is unitary, so the norms split).
    ///
    /// Pick whichever subspace is *smaller*: the scan loop is the only
    /// O(grid) work left per packet and its cost is proportional to the
    /// vector count. The complement's subtraction is safe at the dynamic
    /// ranges the floor already imposes (round-off is ~1e−16 of ‖a‖²,
    /// twelve orders below the 1e−30 relative floor's ceiling on needle
    /// heights at simulation SNRs).
    ///
    /// Either way the subspace columns are strided in the row-major
    /// eigenvector matrix; stage them once into a contiguous stack
    /// buffer (M ≤ 16 ⇒ at most 16×15 entries) so the scan runs on
    /// linear memory with no per-column clones.
    pub(crate) fn new(eig: &'a EigH, n_sources: usize) -> Self {
        let m = eig.values.len();
        let n_noise = m - n_sources;
        let complement = n_sources < n_noise;
        let (first_col, n_proj) = if complement {
            (n_noise, n_sources)
        } else {
            (0, n_noise)
        };
        let mut buf = [ZERO; 16 * 16];
        let staged = n_proj * m <= buf.len();
        if staged {
            for k in 0..n_proj {
                for (i, z) in eig.vectors.col_view(first_col + k).iter().enumerate() {
                    buf[k * m + i] = z;
                }
            }
        }
        Self {
            eig,
            m,
            complement,
            first_col,
            n_proj,
            buf,
            staged,
        }
    }

    /// MUSIC pseudospectrum value for steering vector `a` with squared
    /// norm `num` (`‖a‖²`, usually precomputed in a [`SteeringTable`]).
    pub(crate) fn value(&self, a: &[sa_linalg::C64], num: f64) -> f64 {
        let m = self.m;
        let mut proj = 0.0;
        if self.staged && self.n_proj == 2 {
            // The common case (2-dimensional projection subspace, e.g.
            // MDL's K=2 against a 5-element smoothed aperture): one
            // fused pass over the steering vector computes both
            // projections — this is the innermost per-packet loop in
            // the whole pipeline. `0.0 + x == x` exactly, so the fused
            // accumulation matches the generic loop bit for bit.
            let (e0, e1) = self.buf[..2 * m].split_at(m);
            let a = &a[..m];
            let mut acc0 = ZERO;
            let mut acc1 = ZERO;
            for j in 0..m {
                let aj = a[j];
                acc0 += e0[j].conj() * aj;
                acc1 += e1[j].conj() * aj;
            }
            proj = acc0.norm_sqr() + acc1.norm_sqr();
        } else if self.staged {
            let a = &a[..m];
            for e in self.buf[..self.n_proj * m].chunks_exact(m) {
                // Manual vdot: the explicit index form lets the bounds
                // checks hoist out of the loop.
                let mut acc = ZERO;
                for j in 0..m {
                    acc += e[j].conj() * a[j];
                }
                proj += acc.norm_sqr();
            }
        } else {
            // Covariances beyond 16×16 cannot occur through the
            // estimator (the antenna count caps M); fall back to
            // strided reads if a caller hands one in anyway.
            for k in 0..self.n_proj {
                proj += vdot_col(self.eig.vectors.col_view(self.first_col + k), a).norm_sqr();
            }
        }
        let denom = if self.complement { num - proj } else { proj };
        // A perfectly orthogonal steering vector would give 0 (and the
        // complement's subtraction can round below it); floor to keep
        // the spectrum finite (the cap is ~300 dB, far above any
        // physical dynamic range).
        let denom = denom.max(num * 1e-30);
        num / denom
    }

    /// [`NoiseProjector::value`] computing `‖a‖²` on the fly — for
    /// off-grid refinement angles with no table entry.
    pub(crate) fn value_auto(&self, a: &[sa_linalg::C64]) -> f64 {
        let num: f64 = a.iter().map(|z| z.norm_sqr()).sum();
        self.value(a, num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudospectrum::angle_diff_deg;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_array::geometry::Array;
    use sa_linalg::complex::C64;
    use sa_sigproc::covariance::{sample_covariance, smooth_fb};
    use sa_sigproc::noise::add_noise;

    /// Snapshot matrix for paths (azimuth, complex gain) sharing one
    /// symbol stream (coherent) or using independent streams.
    fn snapshots(
        array: &Array,
        paths: &[(f64, C64)],
        n: usize,
        coherent: bool,
        noise_var: f64,
        seed: u64,
    ) -> CMat {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let streams: Vec<Vec<C64>> = if coherent {
            let s = symbol_stream(n, 1);
            vec![s; paths.len()]
        } else {
            (0..paths.len())
                .map(|i| symbol_stream(n, 100 + i as u64))
                .collect()
        };
        let steers: Vec<Vec<C64>> = paths.iter().map(|&(az, _)| array.steering(az)).collect();
        let mut x = CMat::zeros(array.len(), n);
        for t in 0..n {
            for m in 0..array.len() {
                let mut acc = C64::new(0.0, 0.0);
                for (p, &(_, g)) in paths.iter().enumerate() {
                    acc += steers[p][m] * g * streams[p][t];
                }
                x[(m, t)] = acc;
            }
        }
        if noise_var > 0.0 {
            for t in 0..n {
                for m in 0..array.len() {
                    let mut v = [x[(m, t)]];
                    add_noise(&mut rng, &mut v, noise_var);
                    x[(m, t)] = v[0];
                }
            }
        }
        x
    }

    fn symbol_stream(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|t| {
                let k = (t as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed.wrapping_mul(1442695040888963407))
                    >> 61;
                C64::cis(std::f64::consts::FRAC_PI_4 + std::f64::consts::FRAC_PI_2 * (k % 4) as f64)
            })
            .collect()
    }

    #[test]
    fn single_source_ula_exact_recovery() {
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array);
        for &theta_deg in &[-60.0, -20.0, 0.0, 35.0, 70.0f64] {
            let az = sa_array::geometry::broadside_deg_to_azimuth(theta_deg);
            let x = snapshots(&array, &[(az, C64::new(1.0, 0.0))], 128, true, 0.01, 1);
            let r = sample_covariance(&x);
            let spec = music_spectrum(&r, &space, 1, 0.5);
            let (peak, _) = spec.peak();
            assert!(
                (peak - theta_deg).abs() <= 1.0,
                "θ={}: peak at {}",
                theta_deg,
                peak
            );
        }
    }

    #[test]
    fn two_incoherent_sources_resolved() {
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array);
        let az1 = sa_array::geometry::broadside_deg_to_azimuth(-30.0);
        let az2 = sa_array::geometry::broadside_deg_to_azimuth(25.0);
        let x = snapshots(
            &array,
            &[(az1, C64::new(1.0, 0.0)), (az2, C64::new(0.8, 0.2))],
            256,
            false,
            0.01,
            2,
        );
        let r = sample_covariance(&x);
        let spec = music_spectrum(&r, &space, 2, 0.5);
        let peaks = spec.find_peaks(3.0, 4);
        assert!(peaks.len() >= 2, "peaks: {:?}", peaks);
        let found: Vec<f64> = peaks.iter().take(2).map(|p| p.angle_deg).collect();
        for target in [-30.0, 25.0] {
            assert!(
                found.iter().any(|&f| (f - target).abs() < 2.0),
                "no peak near {} in {:?}",
                target,
                found
            );
        }
    }

    #[test]
    fn coherent_pair_unresolved_without_smoothing() {
        // The phantom-peak failure mode that motivates smoothing: one
        // merged peak between the arrivals (or biased towards the
        // stronger), not two.
        let array = Array::paper_linear(8);
        let space = ScanSpace::physical(&array);
        let az1 = sa_array::geometry::broadside_deg_to_azimuth(-20.0);
        let az2 = sa_array::geometry::broadside_deg_to_azimuth(30.0);
        let x = snapshots(
            &array,
            &[(az1, C64::new(1.0, 0.0)), (az2, C64::from_polar(0.9, 2.0))],
            256,
            true,
            1e-4,
            3,
        );
        let r = sample_covariance(&x);
        // MUSIC told the truth (rank 1) would put everything in one peak.
        let spec = music_spectrum(&r, &space, 2, 0.5);
        let peaks = spec.find_peaks(3.0, 4);
        let hit_both = peaks.iter().any(|p| (p.angle_deg + 20.0).abs() < 2.0)
            && peaks.iter().any(|p| (p.angle_deg - 30.0).abs() < 2.0);
        assert!(
            !hit_both,
            "coherent sources should not be cleanly resolved without smoothing; peaks {:?}",
            peaks
        );
    }

    #[test]
    fn coherent_pair_resolved_with_fb_smoothing() {
        let array = Array::paper_linear(8);
        let az1 = sa_array::geometry::broadside_deg_to_azimuth(-20.0);
        let az2 = sa_array::geometry::broadside_deg_to_azimuth(30.0);
        let x = snapshots(
            &array,
            &[(az1, C64::new(1.0, 0.0)), (az2, C64::from_polar(0.9, 2.0))],
            256,
            true,
            1e-4,
            4,
        );
        let r = sample_covariance(&x);
        let sub = 6;
        let rs = smooth_fb(&r, sub);
        let space = ScanSpace::physical(&array).truncated(sub);
        let spec = music_spectrum(&rs, &space, 2, 0.5);
        let peaks = spec.find_peaks(1.0, 4);
        assert!(
            peaks.iter().any(|p| (p.angle_deg + 20.0).abs() < 3.0),
            "missing −20° peak: {:?}",
            peaks
        );
        assert!(
            peaks.iter().any(|p| (p.angle_deg - 30.0).abs() < 3.0),
            "missing +30° peak: {:?}",
            peaks
        );
    }

    #[test]
    fn circular_array_full_azimuth_recovery() {
        let array = Array::paper_octagon();
        let space = ScanSpace::physical(&array);
        for &az_deg in &[0.0, 95.0, 181.0, 275.0f64] {
            let az = az_deg.to_radians();
            let x = snapshots(&array, &[(az, C64::new(1.0, 0.0))], 128, true, 0.01, 5);
            let r = sample_covariance(&x);
            let spec = music_spectrum(&r, &space, 1, 0.5);
            let (peak, _) = spec.peak();
            assert!(
                angle_diff_deg(peak, az_deg, true) <= 1.5,
                "az={}: peak at {}",
                az_deg,
                peak
            );
        }
    }

    #[test]
    fn virtual_ula_recovers_azimuth_and_resolves_coherent() {
        let array = Array::paper_octagon();
        let ms = sa_array::modespace::ModeSpace::for_array(&array);
        // Coherent two-path scenario in mode space with FB smoothing.
        let az1 = 60f64.to_radians();
        let az2 = 170f64.to_radians();
        let x = snapshots(
            &array,
            &[(az1, C64::new(1.0, 0.0)), (az2, C64::from_polar(0.8, 1.2))],
            256,
            true,
            1e-4,
            6,
        );
        let r = sample_covariance(&x);
        let rv = ms.transform_cov(&r);
        let sub = 5;
        let rs = smooth_fb(&rv, sub);
        let space = ScanSpace::virtual_ula(&array).truncated(sub);
        let spec = music_spectrum(&rs, &space, 2, 1.0);
        let peaks = spec.find_peaks(0.5, 4);
        assert!(
            peaks
                .iter()
                .any(|p| angle_diff_deg(p.angle_deg, 60.0, true) < 8.0),
            "missing 60° peak: {:?}",
            peaks
        );
        assert!(
            peaks
                .iter()
                .any(|p| angle_diff_deg(p.angle_deg, 170.0, true) < 8.0),
            "missing 170° peak: {:?}",
            peaks
        );
    }

    #[test]
    #[should_panic(expected = "n_sources")]
    fn rejects_full_rank_source_count() {
        let array = Array::paper_linear(4);
        let space = ScanSpace::physical(&array);
        let r = CMat::identity(4);
        let _ = music_spectrum(&r, &space, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "covariance dimension")]
    fn rejects_dimension_mismatch() {
        let array = Array::paper_linear(4);
        let space = ScanSpace::physical(&array);
        let r = CMat::identity(6);
        let _ = music_spectrum(&r, &space, 1, 1.0);
    }
}
