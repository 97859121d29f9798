//! Scan backends: how the MUSIC pseudospectrum search is executed.
//!
//! Both return a spectrum and candidate peaks. The exhaustive oracle
//! evaluates the noise projection at every grid point — simple,
//! oracle-grade, and O(grid × subspace). The production scan behind
//! [`crate::estimator::ScanBackend::CoarseToFine`]: scan a decimated
//! grid, rescan the full-rate grid only inside windows around coarse
//! local maxima, then polish each surviving peak on the *continuous*
//! steering response by successive parabolic interpolation to sub-grid
//! accuracy.
//!
//! It returns a deterministic fixed-grid spectrum (for `AoaSignature`
//! construction, whose comparisons require identical angular grids
//! packet to packet) plus an explicit candidate-peak list whose angles
//! are *not* quantised to that grid.

use crate::manifold::{ScanSpace, SteeringTable};
use crate::music::{music_spectrum_from_table, NoiseProjector};
use crate::pseudospectrum::{Peak, Pseudospectrum};
use sa_linalg::complex::C64;
use sa_linalg::eigen::EigH;

/// Peak-extraction parameters shared by both backends: minimum
/// prominence in dB and maximum peak count.
const PEAK_MIN_PROMINENCE_DB: f64 = 1.0;
const PEAK_MAX_COUNT: usize = 8;

/// Refinement evaluation budget per peak: successive parabolic
/// interpolation on the reciprocal spectrum converges superlinearly
/// from a one-grid-step bracket, so a handful of continuous-manifold
/// evaluations reaches well under [`REFINE_TOL_DEG`].
const MAX_REFINE_EVALS: usize = 2;

/// Coarse stride × scan-space aperture. MUSIC peaks narrow as the
/// aperture grows, so the coarse pass samples every `30 / used`-th grid
/// point, never coarser than every [`MAX_STRIDE`]-th: every 6th on the
/// paper's octagon (virtual ULA smoothed to 5 elements, a 60-bin
/// signature on the 1° grid), every 2nd on an 11-element ULA aperture,
/// where a stride of 6 let a peak fall between coarse samples.
const STRIDE_TIMES_APERTURE: usize = 30;

/// The coarsest stride. Apertures under 5 elements keep it: at stride 7
/// the Fig 7 six-antenna ULA's nearest peak moved 2° off the truth.
const MAX_STRIDE: usize = 6;

/// The coarse-pass stride, in grid points, for a scan space of `used`
/// elements.
fn coarse_stride(used: usize) -> usize {
    (STRIDE_TIMES_APERTURE / used.max(1)).clamp(1, MAX_STRIDE)
}

/// Stop refining a peak once a parabolic step moves it less than this
/// (degrees).
const REFINE_TOL_DEG: f64 = 0.05;

/// The exhaustive oracle: MUSIC at every grid point, with the
/// spectrum's own peaks (on the grid) as the candidates.
pub(crate) fn exhaustive_scan(
    eig: &EigH,
    table: &SteeringTable,
    n_sources: usize,
) -> (Pseudospectrum, Vec<Peak>) {
    let spectrum = music_spectrum_from_table(eig, table, n_sources);
    let peaks = spectrum.find_peaks(PEAK_MIN_PROMINENCE_DB, PEAK_MAX_COUNT);
    (spectrum, peaks)
}

/// MUSIC via decimated scan + local refinement.
///
/// Returns the spectrum on the **fixed** decimated grid (same grid every
/// packet — signatures depend on it) and refined candidate peaks.
pub(crate) fn coarse_to_fine_scan(
    eig: &EigH,
    table: &SteeringTable,
    space: &ScanSpace,
    n_sources: usize,
    steer_buf: &mut Vec<C64>,
) -> (Pseudospectrum, Vec<Peak>) {
    let n = table.len();
    let proj = NoiseProjector::new(eig, n_sources);
    let wraps = table.wraps();
    let stride = coarse_stride(table.dim());

    // 1. Coarse pass: every `stride`-th grid point, plus the final
    //    grid point on non-wrapping domains so a boundary peak at +90°
    //    cannot fall between coarse samples.
    let mut coarse_idx: Vec<usize> = (0..n).step_by(stride).collect();
    if !wraps && *coarse_idx.last().unwrap() != n - 1 {
        coarse_idx.push(n - 1);
    }
    let coarse_vals: Vec<f64> = coarse_idx
        .iter()
        .map(|&i| proj.value(table.steering(i), table.norm_sqr(i)))
        .collect();

    // 2. Candidate windows: every coarse local maximum (plain
    //    neighbour comparison — prominence filtering happens later on
    //    the union grid, where valley depths are known).
    let nc = coarse_idx.len();
    let coarse_at = |i: isize| -> f64 {
        if wraps {
            coarse_vals[i.rem_euclid(nc as isize) as usize]
        } else if i < 0 || i >= nc as isize {
            f64::NEG_INFINITY
        } else {
            coarse_vals[i as usize]
        }
    };
    // Window extents as merged, sorted, disjoint index intervals. On a
    // wrapping grid a window near the seam splits into its two in-range
    // parts.
    let half = stride as isize - 1;
    let mut intervals: Vec<(usize, usize)> = Vec::new();
    let mut push_interval = |s: isize, e: isize| {
        if wraps {
            if s < 0 {
                intervals.push(((s + n as isize) as usize, n - 1));
                intervals.push((0, e as usize));
            } else if e >= n as isize {
                intervals.push((s as usize, n - 1));
                intervals.push((0, (e - n as isize) as usize));
            } else {
                intervals.push((s as usize, e as usize));
            }
        } else {
            intervals.push((s.max(0) as usize, e.min(n as isize - 1) as usize));
        }
    };
    for ci in 0..nc {
        let v = coarse_vals[ci];
        if v > coarse_at(ci as isize - 1) && v >= coarse_at(ci as isize + 1) {
            let g = coarse_idx[ci] as isize;
            push_interval(g - half, g + half);
        }
    }
    intervals.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 + 1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }

    // 3. Union sweep: one ordered pass over the grid emits every coarse
    //    sample (value already computed) and every windowed full-rate
    //    point (evaluated here) — sorted and duplicate-free by
    //    construction, no map needed.
    let mut union_angles: Vec<f64> = Vec::with_capacity(coarse_idx.len() + 2 * n / stride);
    let mut union_vals: Vec<f64> = Vec::with_capacity(union_angles.capacity());
    let (mut ci, mut iv) = (0usize, 0usize);
    for j in 0..n {
        while iv < merged.len() && merged[iv].1 < j {
            iv += 1;
        }
        let is_coarse = ci < coarse_idx.len() && coarse_idx[ci] == j;
        let in_window = iv < merged.len() && merged[iv].0 <= j;
        if is_coarse {
            union_angles.push(table.angles_deg()[j]);
            union_vals.push(coarse_vals[ci]);
            ci += 1;
        } else if in_window {
            union_angles.push(table.angles_deg()[j]);
            union_vals.push(proj.value(table.steering(j), table.norm_sqr(j)));
        }
    }
    let union_spec = Pseudospectrum::from_valid_grid(union_angles, union_vals, wraps);
    let peaks = union_spec.find_peaks(PEAK_MIN_PROMINENCE_DB, PEAK_MAX_COUNT);

    // 4. Sub-grid refinement on the *reciprocal* spectrum (a smooth
    //    quadratic near its minimum, unlike the needle-shaped spectrum
    //    itself), bracketed by the peak's union-grid neighbours. Every
    //    peak gets the free 3-point parabolic vertex — pure arithmetic
    //    on values already computed. Only the strongest peak then
    //    iterates with *continuous-manifold* evaluations (successive
    //    parabolic interpolation): a steering-vector construction costs
    //    ~10 grid lookups, and the ranked tail exists so ranking can
    //    see (and reject) the multipath tail, for which the vertex
    //    position is plenty. This budget split is what makes the
    //    backend actually cheaper than the exhaustive scan.
    let eval_recip = |deg: f64, buf: &mut Vec<C64>| -> f64 {
        let az = space.azimuth_of_present(deg);
        space.steering_into(az, buf);
        1.0 / proj.value_auto(buf)
    };
    let nu = union_spec.len();
    let candidates: Vec<Peak> = peaks
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            let ui = union_spec
                .angles_deg
                .binary_search_by(|a| a.total_cmp(&p.angle_deg))
                .expect("peak angle comes from the union grid");
            // Bracket in an unclamped presentation coordinate so a
            // wrapped peak at the 0°/360° seam refines across it; a
            // boundary peak on a linear domain has no bracket and
            // stays on-grid.
            let (il, ir) = if wraps {
                ((ui + nu - 1) % nu, (ui + 1) % nu)
            } else if ui == 0 || ui == nu - 1 {
                return *p;
            } else {
                (ui - 1, ui + 1)
            };
            let mut tl = union_spec.angles_deg[il];
            let mut tr = union_spec.angles_deg[ir];
            let mut t0 = p.angle_deg;
            if il > ui {
                tl -= 360.0;
            }
            if ir < ui {
                tr += 360.0;
            }
            let (mut yl, mut y0, mut yr) = (
                1.0 / union_spec.values[il],
                1.0 / p.value,
                1.0 / union_spec.values[ir],
            );
            if rank > 0 {
                // Ranked tail: vertex of the parabola through the three
                // grid samples, no manifold evaluation. The bracket
                // guard keeps a degenerate fit on-grid.
                let d1 = (t0 - tl) * (y0 - yr);
                let d2 = (t0 - tr) * (y0 - yl);
                let denom = d1 - d2;
                let mut t = t0;
                if denom.abs() >= f64::MIN_POSITIVE {
                    let v = t0 - 0.5 * ((t0 - tl) * d1 - (t0 - tr) * d2) / denom;
                    if v > tl && v < tr && v.is_finite() {
                        t = v;
                    }
                }
                return Peak {
                    angle_deg: if wraps { t.rem_euclid(360.0) } else { t },
                    ..*p
                };
            }
            let (mut best_t, mut best_y) = (t0, y0);
            for _ in 0..MAX_REFINE_EVALS {
                let d1 = (t0 - tl) * (y0 - yr);
                let d2 = (t0 - tr) * (y0 - yl);
                let denom = d1 - d2;
                if denom.abs() < f64::MIN_POSITIVE {
                    break;
                }
                let v = t0 - 0.5 * ((t0 - tl) * d1 - (t0 - tr) * d2) / denom;
                if !(v > tl && v < tr && v.is_finite()) {
                    break;
                }
                let step = (v - t0).abs();
                let yv = eval_recip(v, steer_buf);
                if yv < best_y {
                    best_y = yv;
                    best_t = v;
                }
                // Re-bracket around the best point seen.
                if yv < y0 {
                    if v < t0 {
                        tr = t0;
                        yr = y0;
                    } else {
                        tl = t0;
                        yl = y0;
                    }
                    t0 = v;
                    y0 = yv;
                } else if v < t0 {
                    tl = v;
                    yl = yv;
                } else {
                    tr = v;
                    yr = yv;
                }
                if step < REFINE_TOL_DEG {
                    break;
                }
            }
            // The grid peak seeds `best`, so refinement can only ever
            // improve the reported value.
            let angle = if wraps {
                best_t.rem_euclid(360.0)
            } else {
                best_t
            };
            Peak {
                angle_deg: angle,
                value: 1.0 / best_y,
                ..*p
            }
        })
        .collect();

    // 5. The signature spectrum: the fixed coarse grid only (dropping
    //    the per-packet fine windows keeps the grid identical across
    //    packets, which `AoaSignature::compare` requires).
    let spectrum = Pseudospectrum::from_valid_grid(
        coarse_idx.iter().map(|&i| table.angles_deg()[i]).collect(),
        coarse_vals,
        wraps,
    );
    (spectrum, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_array::geometry::Array;
    use sa_linalg::CMat;
    use sa_sigproc::covariance::{sample_covariance, smooth_fb};

    fn one_source_eig(array: &Array, az: f64, noise: f64) -> (EigH, ScanSpace) {
        let steer = array.steering(az);
        let x = CMat::from_fn(array.len(), 256, |m, t| steer[m] * C64::cis(1.1 * t as f64));
        // Noise enters deterministically on the diagonal.
        let mut r = sample_covariance(&x);
        for i in 0..array.len() {
            r[(i, i)] += C64::new(noise, 0.0);
        }
        let space = ScanSpace::physical(array);
        (sa_linalg::eigen::eigh(&r), space)
    }

    #[test]
    fn coarse_to_fine_matches_exhaustive_single_source() {
        let array = Array::paper_linear(8);
        let az = sa_array::geometry::broadside_deg_to_azimuth(33.0);
        let (eig, space) = one_source_eig(&array, az, 0.01);
        let table = space.steering_table(1.0);
        let exhaustive = crate::music::music_spectrum_from_table(&eig, &table, 1);
        let mut buf = Vec::new();
        let (spec, cands) = coarse_to_fine_scan(&eig, &table, &space, 1, &mut buf);
        // Fixed coarse grid: an 8-element aperture scans with stride 3
        // over 181 points (the +90° endpoint is on-stride).
        assert_eq!(spec.len(), 61);
        let best = cands
            .iter()
            .max_by(|a, b| a.value.total_cmp(&b.value))
            .unwrap();
        let (ex_peak, _) = exhaustive.peak();
        assert!(
            (best.angle_deg - ex_peak).abs() <= 1.0,
            "refined {} vs exhaustive grid {}",
            best.angle_deg,
            ex_peak
        );
        // Refined angle beats the grid quantisation against the truth.
        assert!((best.angle_deg - 33.0).abs() < 0.5, "{}", best.angle_deg);
    }

    #[test]
    fn coarse_grid_values_match_exhaustive_bitwise() {
        let array = Array::paper_octagon();
        // Virtual-ULA smoothed setup, as the production path runs it.
        let ms = sa_array::modespace::ModeSpace::for_array(&array);
        let steer = array.steering(2.2);
        let x = CMat::from_fn(array.len(), 128, |m, t| steer[m] * C64::cis(0.7 * t as f64));
        let r = sample_covariance(&x);
        let rv = ms.transform_cov(&r);
        let rs = smooth_fb(&rv, 5);
        let eig = sa_linalg::eigen::eigh(&rs);
        let space = ScanSpace::virtual_ula(&array).truncated(5);
        let table = space.steering_table(1.0);
        let exhaustive = crate::music::music_spectrum_from_table(&eig, &table, 1);
        let mut buf = Vec::new();
        let (spec, _) = coarse_to_fine_scan(&eig, &table, &space, 1, &mut buf);
        for (i, (&ang, &val)) in spec.angles_deg.iter().zip(spec.values.iter()).enumerate() {
            let full = i * coarse_stride(space.len());
            assert_eq!(ang, exhaustive.angles_deg[full]);
            assert_eq!(
                val.to_bits(),
                exhaustive.values[full].to_bits(),
                "angle {}",
                ang
            );
        }
    }
}
