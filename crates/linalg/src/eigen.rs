//! Hermitian eigendecomposition: dense tridiagonal solver with a cyclic
//! Jacobi reference path.
//!
//! MUSIC ("the best known AoA estimation algorithms are based on
//! eigenstructure analysis of a correlation matrix", paper §2.1) needs the
//! full eigendecomposition of an `M × M` Hermitian sample-covariance matrix,
//! where `M` is the antenna count (2–16 here) — once per received frame per
//! AP, which makes this the hottest kernel in the whole pipeline.
//!
//! Two solvers share one workspace:
//!
//! * [`EighWorkspace::eigh`] (and the free [`eigh`]) — the classic dense
//!   path: Householder reduction to Hermitian tridiagonal form, diagonal
//!   phase scaling to a *real* symmetric tridiagonal, then implicit-shift
//!   QL iteration (Golub & Van Loan §8.3, EISPACK `htridi`/`tql2`
//!   lineage). `O(M³)` with a small constant — each off-diagonal is
//!   eliminated once, instead of Jacobi's repeated sweeps over the full
//!   matrix. This is what every production caller runs.
//! * [`EighWorkspace::eigh_into`] (and the free [`eigh_jacobi`]) — the
//!   original cyclic complex Jacobi method, kept verbatim as the
//!   bit-for-bit reference oracle (it is backward stable, computes small
//!   eigenvalues to high relative accuracy, and has no convergence
//!   pathologies). The property suite pins the tridiagonal solver
//!   against it.
//!
//! The Jacobi rotation for a Hermitian 2×2 block `[[α, b], [b̄, γ]]` with
//! `b = |b|·e^{jφ}` is the unitary
//! `U = [[c, −s·e^{jφ}], [s·e^{−jφ}, c]]` where `t = s/c` solves
//! `t² − 2τt − 1 = 0`, `τ = (γ−α)/(2|b|)`; we take the root of smaller
//! magnitude for stability (Golub & Van Loan §8.5 adapted to the complex
//! case).

use crate::complex::{c64, C64, ONE, ZERO};
use crate::matrix::{CMat, ColView};

/// Result of a Hermitian eigendecomposition.
///
/// Invariants (verified by the tests in this module):
/// * `values` is sorted ascending and purely real;
/// * column `k` of `vectors` is a unit-norm eigenvector for `values[k]`;
/// * `vectors` is unitary: `V^H V = I`;
/// * `A = V · diag(values) · V^H` to within the solver tolerance.
#[derive(Debug, Clone)]
pub struct EigH {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns, same order as `values`.
    pub vectors: CMat,
}

impl EigH {
    /// Eigenvalues in descending order together with the column indices
    /// into [`EigH::vectors`] — the natural order for MUSIC, which splits
    /// the top-`K` signal subspace from the rest. Allocates; hot paths
    /// should prefer [`EigH::descending_into`].
    pub fn descending(&self) -> Vec<(f64, usize)> {
        let mut idx = Vec::new();
        self.descending_into(&mut idx);
        idx
    }

    /// [`EigH::descending`] into a caller-owned buffer, reusing its
    /// allocation. Uses [`f64::total_cmp`], so a NaN eigenvalue (a
    /// poisoned covariance) sorts deterministically instead of
    /// panicking mid-pipeline.
    pub fn descending_into(&self, idx: &mut Vec<(f64, usize)>) {
        idx.clear();
        idx.extend(self.values.iter().cloned().zip(0..));
        idx.sort_by(|a, b| b.0.total_cmp(&a.0));
    }

    /// The eigenvector for sorted-ascending index `k`, as a fresh `Vec`.
    /// Allocates; hot paths should prefer [`EigH::vector_view`].
    pub fn vector(&self, k: usize) -> Vec<C64> {
        self.vectors.col(k)
    }

    /// Borrowed view of the eigenvector for sorted-ascending index `k` —
    /// no allocation (see [`CMat::col_view`]).
    pub fn vector_view(&self, k: usize) -> ColView<'_> {
        self.vectors.col_view(k)
    }
}

/// Relative off-diagonal tolerance of the Jacobi oracle: iteration stops
/// when every off-diagonal magnitude falls below `JACOBI_REL_TOL · ‖A‖_F`,
/// or after [`JACOBI_MAX_SWEEPS`] full cyclic sweeps, whichever comes first.
const JACOBI_REL_TOL: f64 = 1e-14;

/// Most cyclic sweeps the Jacobi oracle runs. Jacobi converges
/// quadratically, so well-conditioned 16×16 inputs need ~6 sweeps.
const JACOBI_MAX_SWEEPS: usize = 64;

/// Eigendecomposition of a Hermitian matrix on the tridiagonal path.
///
/// Panics if `a` is not square. The Hermitian property is *assumed*: only
/// the upper triangle and the real parts of the diagonal are read, matching
/// LAPACK's `zheev` convention, so slightly-asymmetric sample covariance
/// matrices (floating-point accumulation error) are handled gracefully.
pub fn eigh(a: &CMat) -> EigH {
    let mut ws = EighWorkspace::new();
    let mut out = EigH {
        values: Vec::new(),
        vectors: CMat::zeros(0, 0),
    };
    ws.eigh(a, &mut out);
    out
}

/// Eigendecomposition by the cyclic Jacobi reference path — the oracle
/// the tridiagonal solver is pinned against.
pub fn eigh_jacobi(a: &CMat) -> EigH {
    let mut ws = EighWorkspace::new();
    let mut out = EigH {
        values: Vec::new(),
        vectors: CMat::zeros(0, 0),
    };
    ws.eigh_into(a, &mut out);
    out
}

/// Reusable scratch buffers for [`EighWorkspace::eigh`].
///
/// Both solvers need a working copy of the (symmetrised) input, an
/// accumulator for the transformations, and a permutation pass to sort
/// the spectrum; the tridiagonal path additionally keeps its Householder
/// and QL scratch vectors here. Calling [`eigh`] in a loop re-allocates
/// all of it per call; a workspace held across calls turns the whole
/// decomposition into a zero-allocation operation once the buffers have
/// grown to the problem size — which is what the batched AP pipeline
/// does per packet.
#[derive(Debug, Default)]
pub struct EighWorkspace {
    /// Working copy of the symmetrised input (destroyed by the solver);
    /// doubles as the column-permutation scratch after convergence.
    w: CMat,
    /// Sort-order scratch.
    order: Vec<usize>,
    /// Diagonal (eigenvalue) scratch.
    diag: Vec<f64>,
    /// Tridiagonal path: real off-diagonal scratch.
    sub: Vec<f64>,
    /// Tridiagonal path: Householder vector scratch.
    hv: Vec<C64>,
    /// Tridiagonal path: Householder update scratch (`p`, then `q`).
    hp: Vec<C64>,
}

impl EighWorkspace {
    /// A new, empty workspace. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cyclic Jacobi reference path (it is what [`eigh_jacobi`] and
    /// the oracle tests run).
    ///
    /// Identical results to the free function [`eigh_jacobi`]; the only
    /// difference is allocation reuse. Panics if `a` is not square.
    pub fn eigh_into(&mut self, a: &CMat, out: &mut EigH) {
        assert!(a.is_square(), "eigh: matrix must be square");
        let n = a.rows();

        // Work on a Hermitian-symmetrised copy: W = (A + A^H)/2.
        let w = &mut self.w;
        w.reset_from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5));
        let v = &mut out.vectors;
        v.reset_identity(n);

        if n <= 1 {
            out.values.clear();
            if n == 1 {
                out.values.push(w[(0, 0)].re);
            }
            return;
        }

        let scale = w.fro_norm().max(f64::MIN_POSITIVE);
        let tol = JACOBI_REL_TOL * scale;

        for _sweep in 0..JACOBI_MAX_SWEEPS {
            if w.max_offdiag() <= tol {
                break;
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let b = w[(p, q)];
                    let babs = b.abs();
                    if babs <= tol {
                        continue;
                    }
                    let alpha = w[(p, p)].re;
                    let gamma = w[(q, q)].re;

                    let tau = (gamma - alpha) / (2.0 * babs);
                    // Small-magnitude root of t² − 2τt − 1 = 0 (the two roots
                    // multiply to −1; picking |t| ≤ 1 keeps rotations small and
                    // the iteration stable).
                    let sign = if tau >= 0.0 { 1.0 } else { -1.0 };
                    let t = -sign / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // U acts on columns/rows p and q:
                    //   col_p' =  c*col_p + s e^{-jφ} col_q
                    //   col_q' = -s e^{jφ} col_p + c*col_q
                    let se_m = C64::from_polar(s, -b.arg()); // s·e^{−jφ}
                    let se_p = C64::from_polar(s, b.arg()); // s·e^{+jφ}

                    // Update W = U^H W U.
                    // Rows (left multiply by U^H):
                    for k in 0..n {
                        let wp = w[(p, k)];
                        let wq = w[(q, k)];
                        w[(p, k)] = wp.scale(c) + se_p * wq;
                        w[(q, k)] = wq.scale(c) - se_m * wp;
                    }
                    // Columns (right multiply by U):
                    for k in 0..n {
                        let wp = w[(k, p)];
                        let wq = w[(k, q)];
                        w[(k, p)] = wp.scale(c) + se_m * wq;
                        w[(k, q)] = wq.scale(c) - se_p * wp;
                    }
                    // Clean the eliminated pair and enforce realness of the
                    // rotated diagonal (both are exact in infinite precision).
                    w[(p, q)] = c64(0.0, 0.0);
                    w[(q, p)] = c64(0.0, 0.0);
                    w[(p, p)] = c64(w[(p, p)].re, 0.0);
                    w[(q, q)] = c64(w[(q, q)].re, 0.0);

                    // Accumulate V = V·U.
                    for k in 0..n {
                        let vp = v[(k, p)];
                        let vq = v[(k, q)];
                        v[(k, p)] = vp.scale(c) + se_m * vq;
                        v[(k, q)] = vq.scale(c) - se_p * vp;
                    }
                }
            }
        }

        // Extract and sort ascending.
        let diag = &mut self.diag;
        diag.clear();
        diag.extend((0..n).map(|i| w[(i, i)].re));
        self.sort_and_emit(out);
    }

    /// Eigendecomposition on the dense tridiagonal path (Householder
    /// reduction + phase normalisation + implicit-shift QL), reusing the
    /// workspace's buffers and writing the result into `out` (whose own
    /// allocations are also recycled). Panics if `a` is not square.
    ///
    /// Same output contract as the Jacobi path (ascending real
    /// eigenvalues, unitary eigenvector columns); the eigenvector
    /// *phases* may differ — both are valid decompositions, and every
    /// consumer (MUSIC projects onto the subspace) is phase-invariant.
    pub fn eigh(&mut self, a: &CMat, out: &mut EigH) {
        assert!(a.is_square(), "eigh: matrix must be square");
        let n = a.rows();

        // Work on a Hermitian-symmetrised copy: W = (A + A^H)/2.
        let w = &mut self.w;
        w.reset_from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5));
        let v = &mut out.vectors;
        v.reset_identity(n);

        if n <= 1 {
            out.values.clear();
            if n == 1 {
                out.values.push(w[(0, 0)].re);
            }
            return;
        }

        // ---- 1. Householder reduction to Hermitian tridiagonal form.
        //
        // For each column k, a reflector H = I − c·v·v^H (c = 2/v^H v)
        // zeroes W[k+2.., k]; W := H W H keeps the similarity and V := V·H
        // accumulates the basis. Only the trailing block changes, via the
        // standard Hermitian rank-2 update B −= v·q^H + q·v^H with
        // q = p − s·v, p = c·B·v, s = (c/2)·v^H·p.
        let hv = &mut self.hv;
        let hp = &mut self.hp;
        for k in 0..n.saturating_sub(2) {
            let m = n - k - 1; // trailing dimension below the diagonal
            let mut tail2 = 0.0;
            for i in k + 2..n {
                tail2 += w[(i, k)].norm_sqr();
            }
            // Column already tridiagonal (nothing below the subdiagonal)?
            if tail2 <= 0.0 {
                continue;
            }
            let alpha = w[(k + 1, k)];
            let sigma = (tail2 + alpha.norm_sqr()).sqrt();
            let aabs = alpha.abs();
            // Reflect x onto −phase(α)·σ·e1; v = x − β·e1 with
            // β = −phase(α)·σ makes v[0] = phase(α)·(|α| + σ) — the
            // cancellation-free sign choice.
            let phase = if aabs > 0.0 {
                alpha.scale(1.0 / aabs)
            } else {
                ONE
            };
            let beta = -phase.scale(sigma);
            let c = 1.0 / (sigma * (sigma + aabs)); // 2 / v^H v
            hv.clear();
            hv.push(alpha - beta);
            hv.extend((k + 2..n).map(|i| w[(i, k)]));

            // p = c·B·v over the trailing block B = W[k+1.., k+1..]
            // (rows are contiguous in the row-major storage — walk them
            // as slices; this loop is the eigensolver's O(M³) core).
            hp.clear();
            {
                let wd = w.data();
                for i in 0..m {
                    let row = &wd[(k + 1 + i) * n + k + 1..(k + 1 + i) * n + n];
                    let mut acc = ZERO;
                    for j in 0..m {
                        acc += row[j] * hv[j];
                    }
                    hp.push(acc.scale(c));
                }
            }
            // s = (c/2)·v^H·p (real because B is Hermitian).
            let mut s = 0.0;
            for i in 0..m {
                s += (hv[i].conj() * hp[i]).re;
            }
            s *= 0.5 * c;
            // q = p − s·v, then B −= v·q^H + q·v^H.
            for i in 0..m {
                hp[i] -= hv[i].scale(s);
            }
            {
                let wd = w.data_mut();
                for i in 0..m {
                    let row = &mut wd[(k + 1 + i) * n + k + 1..(k + 1 + i) * n + n];
                    let hvi = hv[i];
                    let hpi = hp[i];
                    for j in 0..m {
                        row[j] -= hvi * hp[j].conj() + hpi * hv[j].conj();
                    }
                }
            }
            // The eliminated column/row.
            w[(k + 1, k)] = beta;
            w[(k, k + 1)] = beta.conj();
            for i in k + 2..n {
                w[(i, k)] = ZERO;
                w[(k, i)] = ZERO;
            }
            // V := V·H on columns k+1.. (row-wise: t = Σ V[r,·]·v, then
            // subtract c·t·v^H — again on contiguous row slices).
            {
                let vd = v.data_mut();
                for r in 0..n {
                    let row = &mut vd[r * n + k + 1..r * n + n];
                    let mut t = ZERO;
                    for j in 0..m {
                        t += row[j] * hv[j];
                    }
                    let t = t.scale(c);
                    for j in 0..m {
                        row[j] -= t * hv[j].conj();
                    }
                }
            }
        }

        // ---- 2. Phase-normalise the (complex) subdiagonal to real,
        // folding the diagonal phase matrix D into V: with
        // p[i+1] = p[i]·e_i/|e_i|, D^H·T·D has off-diagonals |e_i|.
        let diag = &mut self.diag;
        diag.clear();
        diag.extend((0..n).map(|i| w[(i, i)].re));
        let sub = &mut self.sub;
        sub.clear();
        let mut p = ONE;
        for i in 0..n - 1 {
            let e = w[(i + 1, i)];
            let eabs = e.abs();
            sub.push(eabs);
            let pnext = if eabs > 0.0 {
                p * e.scale(1.0 / eabs)
            } else {
                p
            };
            if pnext != ONE {
                for r in 0..n {
                    v[(r, i + 1)] *= pnext;
                }
            }
            p = pnext;
        }
        sub.push(0.0);

        // ---- 3. Implicit-shift QL on the real tridiagonal, rotating
        // V's complex columns along. The rotation count is bounded for
        // Hermitian input; if the iteration ever stalls (it should not),
        // fall back to the Jacobi oracle rather than return garbage.
        if !ql_implicit_shift(diag, sub, v) {
            self.eigh_into(a, out);
            return;
        }

        self.sort_and_emit(out);
    }

    /// Shared tail: sort `self.diag` ascending (deterministically, NaN
    /// included) and emit values + permuted eigenvector columns into
    /// `out`, recycling `self.w` as the permutation destination.
    fn sort_and_emit(&mut self, out: &mut EigH) {
        let n = self.diag.len();
        let order = &mut self.order;
        order.clear();
        order.extend(0..n);
        let diag = &self.diag;
        order.sort_by(|&i, &j| diag[i].total_cmp(&diag[j]));

        out.values.clear();
        out.values.extend(order.iter().map(|&i| diag[i]));
        // Already ascending (common for QL output on near-sorted
        // spectra): the vectors are in place, skip the permutation.
        if order.iter().enumerate().all(|(k, &i)| k == i) {
            return;
        }
        // Permute eigenvector columns into sorted order, reusing `w` (its
        // contents are spent) as the destination, then swap it into the
        // output so no fresh matrix is allocated.
        let order = &self.order;
        let v = &out.vectors;
        self.w.reset_from_fn(n, n, |i, k| v[(i, order[k])]);
        std::mem::swap(&mut self.w, &mut out.vectors);
    }
}

/// Implicit-shift QL iteration on a real symmetric tridiagonal matrix
/// (`d` diagonal, `e` off-diagonal with `e[i]` linking `i` and `i+1`,
/// `e[n-1]` unused), accumulating the real Givens rotations into the
/// complex column basis `v`. Classic `tql2`; returns `false` if any
/// eigenvalue fails to converge within the iteration budget.
fn ql_implicit_shift(d: &mut [f64], e: &mut [f64], v: &mut CMat) -> bool {
    let n = d.len();
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Split point: smallest m ≥ l with a negligible off-diagonal.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return false;
            }
            // Wilkinson-style shift from the leading 2×2.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Rotation annihilated early: deflate and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector columns i and i+1 (real plane
                // rotation on complex columns; the two entries are
                // adjacent in each row-major row, so walk rows as
                // slices instead of computing indices per element).
                let cols = v.cols();
                for row in v.data_mut().chunks_exact_mut(cols) {
                    let zi = row[i];
                    let zi1 = row[i + 1];
                    row[i + 1] = c64(s * zi.re + c * zi1.re, s * zi.im + c * zi1.im);
                    row[i] = c64(c * zi.re - s * zi1.re, c * zi.im - s * zi1.im);
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    true
}

/// Inverse of a Hermitian positive-(semi)definite matrix via its
/// eigendecomposition, with Tikhonov regularisation: eigenvalues below
/// `ridge` are clamped to `ridge` before inversion.
///
/// Used by the Capon/MVDR beamformer, where the sample covariance from a
/// short packet can be numerically singular.
pub fn hermitian_inverse(a: &CMat, ridge: f64) -> CMat {
    let eig = eigh(a);
    let n = a.rows();
    let v = &eig.vectors;
    // V · diag(1/λ) · V^H
    let mut out = CMat::zeros(n, n);
    for k in 0..n {
        let lam = eig.values[k].max(ridge);
        let col = v.col(k);
        let rank1 = CMat::outer(&col, &col).scale(1.0 / lam);
        out = &out + &rank1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, C64, ZERO};
    use crate::matrix::{vdot, vnorm};

    fn residual(a: &CMat, eig: &EigH) -> f64 {
        // ‖A·v_k − λ_k·v_k‖ summed over k.
        let n = a.rows();
        let mut r = 0.0;
        for k in 0..n {
            let v = eig.vector(k);
            let av = a.matvec(&v);
            let lv: Vec<C64> = v.iter().map(|z| z.scale(eig.values[k])).collect();
            let diff: Vec<C64> = av.iter().zip(lv.iter()).map(|(x, y)| *x - *y).collect();
            r += vnorm(&diff);
        }
        r
    }

    #[test]
    fn empty_and_singleton() {
        let e0 = eigh(&CMat::zeros(0, 0));
        assert!(e0.values.is_empty());
        let e1 = eigh(&CMat::from_rows(1, 1, &[c64(4.2, 0.0)]));
        assert_eq!(e1.values, vec![4.2]);
        assert!(e1.vectors[(0, 0)].approx_eq(c64(1.0, 0.0), 1e-14));
    }

    #[test]
    fn diagonal_matrix_sorted() {
        let a = CMat::from_rows(
            3,
            3,
            &[
                c64(3.0, 0.0),
                ZERO,
                ZERO,
                ZERO,
                c64(1.0, 0.0),
                ZERO,
                ZERO,
                ZERO,
                c64(2.0, 0.0),
            ],
        );
        let e = eigh(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_real() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = CMat::from_rows(
            2,
            2,
            &[c64(2.0, 0.0), c64(1.0, 0.0), c64(1.0, 0.0), c64(2.0, 0.0)],
        );
        let e = eigh(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn known_2x2_complex() {
        // [[1, j], [-j, 1]] has eigenvalues 0 and 2.
        let a = CMat::from_rows(
            2,
            2,
            &[c64(1.0, 0.0), c64(0.0, 1.0), c64(0.0, -1.0), c64(1.0, 0.0)],
        );
        let e = eigh(&a);
        assert!(e.values[0].abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn rank_one_outer_product() {
        // u·u^H has eigenvalues {‖u‖², 0, …, 0}.
        let u = vec![c64(1.0, 2.0), c64(-0.5, 0.3), c64(0.0, -1.5)];
        let a = CMat::outer(&u, &u);
        let e = eigh(&a);
        let nrm2 = vnorm(&u).powi(2);
        assert!(e.values[0].abs() < 1e-10);
        assert!(e.values[1].abs() < 1e-10);
        assert!((e.values[2] - nrm2).abs() < 1e-10 * nrm2.max(1.0));
        // Top eigenvector is parallel to u.
        let v = e.vector(2);
        let overlap = vdot(&v, &u).abs() / vnorm(&u);
        assert!((overlap - 1.0).abs() < 1e-10);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = hermitian_from_seed(6, 7);
        let e = eigh(&a);
        let tr = a.trace().re;
        let s: f64 = e.values.iter().sum();
        assert!((tr - s).abs() < 1e-9 * tr.abs().max(1.0));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = hermitian_from_seed(8, 3);
        let e = eigh(&a);
        let vh_v = e.vectors.hermitian().matmul(&e.vectors);
        assert!(vh_v.approx_eq(&CMat::identity(8), 1e-10));
    }

    #[test]
    fn reconstruction() {
        let a = hermitian_from_seed(5, 11);
        let e = eigh(&a);
        let mut rec = CMat::zeros(5, 5);
        for k in 0..5 {
            let v = e.vector(k);
            rec = &rec + &CMat::outer(&v, &v).scale(e.values[k]);
        }
        assert!(rec.approx_eq(&a, 1e-9));
    }

    #[test]
    fn descending_order_helper() {
        let a = hermitian_from_seed(4, 1);
        let e = eigh(&a);
        let d = e.descending();
        for w in d.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
        assert!((d[0].0 - e.values[3]).abs() < 1e-14);
    }

    #[test]
    fn handles_slightly_asymmetric_input() {
        // A sample covariance accumulated in floating point is Hermitian
        // only to round-off; eigh must symmetrise rather than blow up.
        let mut a = hermitian_from_seed(4, 9);
        a[(0, 1)] += c64(1e-13, -1e-13);
        let e = eigh(&a);
        assert!(residual(&a, &e) < 1e-8);
    }

    #[test]
    fn workspace_reuse_matches_free_function_across_sizes() {
        // One workspace driven through shrinking and growing problem
        // sizes must reproduce the free function bit-for-bit.
        let mut ws = EighWorkspace::new();
        let mut out = EigH {
            values: Vec::new(),
            vectors: CMat::zeros(0, 0),
        };
        for (n, seed) in [(8usize, 3u64), (4, 9), (6, 7), (1, 2), (8, 11)] {
            let a = hermitian_from_seed(n, seed);
            ws.eigh(&a, &mut out);
            let free = eigh(&a);
            assert_eq!(out.values, free.values, "values differ at n={}", n);
            assert_eq!(out.vectors, free.vectors, "vectors differ at n={}", n);
        }
    }

    #[test]
    fn hermitian_inverse_is_inverse() {
        // Build a well-conditioned PSD matrix: B = A·A^H + I.
        let a = hermitian_from_seed(4, 5);
        let b = &a.matmul(&a.hermitian()) + &CMat::identity(4);
        let binv = hermitian_inverse(&b, 1e-12);
        let prod = b.matmul(&binv);
        assert!(prod.approx_eq(&CMat::identity(4), 1e-8));
    }

    #[test]
    fn hermitian_inverse_ridge_clamps() {
        // Singular matrix: rank-1. With ridge, inverse stays finite.
        let u = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let a = CMat::outer(&u, &u);
        let inv = hermitian_inverse(&a, 1e-3);
        assert!(inv.data().iter().all(|z| z.is_finite()));
    }

    #[test]
    fn tridiagonal_matches_jacobi_oracle() {
        // Eigenvalues to 1e-10 relative, and both must decompose the
        // same matrix (residual check covers the subspaces without
        // fixing the per-vector phase, which legitimately differs).
        for (n, seed) in [(2usize, 1u64), (3, 5), (4, 9), (6, 7), (8, 3), (16, 11)] {
            let a = hermitian_from_seed(n, seed);
            let t = eigh(&a);
            let j = eigh_jacobi(&a);
            let scale = a.fro_norm().max(1.0);
            for k in 0..n {
                assert!(
                    (t.values[k] - j.values[k]).abs() <= 1e-10 * scale,
                    "n={} k={}: {} vs {}",
                    n,
                    k,
                    t.values[k],
                    j.values[k]
                );
            }
            assert!(residual(&a, &t) < 1e-9 * scale, "n={} residual", n);
            let vh_v = t.vectors.hermitian().matmul(&t.vectors);
            assert!(vh_v.approx_eq(&CMat::identity(n), 1e-10), "n={} unitary", n);
        }
    }

    #[test]
    fn jacobi_backend_workspace_matches_oracle_bitwise() {
        let mut ws = EighWorkspace::new();
        let mut out = EigH {
            values: Vec::new(),
            vectors: CMat::zeros(0, 0),
        };
        for (n, seed) in [(4usize, 2u64), (8, 6)] {
            let a = hermitian_from_seed(n, seed);
            ws.eigh_into(&a, &mut out);
            let oracle = eigh_jacobi(&a);
            assert_eq!(out.values, oracle.values);
            assert_eq!(out.vectors, oracle.vectors);
        }
    }

    #[test]
    fn descending_tolerates_nan() {
        // A poisoned spectrum must sort deterministically, not panic.
        let e = EigH {
            values: vec![1.0, f64::NAN, 3.0],
            vectors: CMat::identity(3),
        };
        let d = e.descending();
        assert_eq!(d.len(), 3);
        let mut buf = Vec::new();
        e.descending_into(&mut buf);
        // NaN != NaN, so compare the index permutations.
        let perm: Vec<usize> = d.iter().map(|&(_, i)| i).collect();
        let perm2: Vec<usize> = buf.iter().map(|&(_, i)| i).collect();
        assert_eq!(perm, perm2);
        // total_cmp sorts NaN above every finite value in descending
        // order — deterministic, whatever the ordering convention.
        assert!(perm.contains(&1));
    }

    #[test]
    fn vector_view_matches_vector() {
        let a = hermitian_from_seed(5, 4);
        let e = eigh(&a);
        for k in 0..5 {
            assert_eq!(e.vector(k), e.vector_view(k).to_vec());
        }
    }

    #[test]
    fn tridiagonal_handles_degenerate_spectra() {
        // Repeated eigenvalues (identity-like) and zero matrices.
        let e = eigh(&CMat::identity(6));
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let z = eigh(&CMat::zeros(5, 5));
        for v in &z.values {
            assert!(v.abs() < 1e-15);
        }
        // Block-diagonal input (zero subdiagonal mid-matrix).
        let mut b = CMat::zeros(4, 4);
        b[(0, 0)] = c64(2.0, 0.0);
        b[(0, 1)] = c64(0.0, 1.0);
        b[(1, 0)] = c64(0.0, -1.0);
        b[(1, 1)] = c64(2.0, 0.0);
        b[(2, 2)] = c64(-1.0, 0.0);
        b[(3, 3)] = c64(5.0, 0.0);
        let e = eigh(&b);
        assert!(residual(&b, &e) < 1e-10);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[3] - 5.0).abs() < 1e-12);
    }

    /// Deterministic pseudo-random Hermitian matrix (no RNG dependency in
    /// unit tests; a simple LCG keeps this crate's dev-deps minimal).
    fn hermitian_from_seed(n: usize, seed: u64) -> CMat {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // map to (-1, 1)
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let g = CMat::from_fn(n, n, |_, _| c64(next(), next()));
        // G + G^H is Hermitian.
        &g + &g.hermitian()
    }
}
