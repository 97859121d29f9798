//! Dense complex matrices and vectors.
//!
//! Sizes in this codebase are tiny by linear-algebra standards — antenna
//! counts are 2–16, so correlation matrices are at most 16×16 — which lets
//! us favour clarity and robustness over blocking/SIMD tricks, per the
//! "simplicity and robustness" design goal this project borrows from
//! smoltcp. Storage is row-major `Vec<C64>`.

use crate::complex::{c64, C64, ZERO};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// `Default` is the empty `0 × 0` matrix — the natural seed for workspace
/// buffers that grow on first use (see [`CMat::reset_zero`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![ZERO; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64(1.0, 0.0);
        }
        m
    }

    /// Build from a row-major slice. Panics if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMat::from_rows: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Build from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// A column vector (`n × 1`) from a slice.
    pub fn col_vector(v: &[C64]) -> Self {
        Self::from_rows(v.len(), 1, v)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[C64] {
        &self.data
    }

    /// Raw mutable row-major data — crate-internal so hot kernels (the
    /// QL eigenvector rotations) can walk rows as slices without
    /// per-element index arithmetic.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Extract row `i` as a `Vec`. Allocates; hot paths should prefer
    /// the borrowed [`CMat::row_view`].
    pub fn row(&self, i: usize) -> Vec<C64> {
        self.row_view(i).to_vec()
    }

    /// Borrowed view of row `i` — a contiguous slice of the row-major
    /// storage, no allocation (stage-1 decode reads the reference
    /// chain's whole capture row this way).
    pub fn row_view(&self, i: usize) -> &[C64] {
        assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Extract column `j` as a `Vec`. Allocates; hot paths should
    /// prefer the borrowed [`CMat::col_view`].
    pub fn col(&self, j: usize) -> Vec<C64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrowed view of column `j` — a strided window into the row-major
    /// storage, no allocation. This is the hot-path way to walk a matrix
    /// column (MUSIC's noise projector reads eigenvector columns per
    /// scan-grid point; cloning them per packet dominated that loop).
    pub fn col_view(&self, j: usize) -> ColView<'_> {
        assert!(j < self.cols);
        ColView {
            data: &self.data[j..],
            stride: self.cols.max(1),
            len: self.rows,
        }
    }

    /// Conjugate (Hermitian) transpose, `A^H`.
    pub fn hermitian(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose without conjugation, `A^T`.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Reshape in place to `rows × cols` with every element set to zero,
    /// reusing the existing allocation when it is large enough. This is
    /// the buffer-recycling primitive behind the batched pipeline: a
    /// workspace matrix is `reset_zero` once per packet instead of
    /// allocated fresh.
    pub fn reset_zero(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, ZERO);
    }

    /// Reshape in place to the `n × n` identity, reusing the allocation
    /// (see [`CMat::reset_zero`]).
    pub fn reset_identity(&mut self, n: usize) {
        self.reset_zero(n, n);
        for i in 0..n {
            self[(i, i)] = c64(1.0, 0.0);
        }
    }

    /// Reshape in place and fill from a function of the index pair,
    /// reusing the allocation (see [`CMat::reset_zero`]). Each element is
    /// written exactly once — no intermediate zero fill.
    pub fn reset_from_fn(
        &mut self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> C64,
    ) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                self.data.push(f(i, j));
            }
        }
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Multiply every element by a real scalar.
    pub fn scale(&self, s: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(s)).collect(),
        }
    }

    /// Multiply every element by a real scalar, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for z in &mut self.data {
            *z = z.scale(s);
        }
    }

    /// Matrix product `self * rhs`. Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.rows,
            "CMat::matmul: inner dimensions {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(self.cols, v.len(), "CMat::matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = ZERO;
                for j in 0..self.cols {
                    acc += self[(i, j)] * v[j];
                }
                acc
            })
            .collect()
    }

    /// Outer product `u * v^H`, an `len(u) × len(v)` rank-one matrix.
    /// This is the building block of sample covariance estimation.
    pub fn outer(u: &[C64], v: &[C64]) -> Self {
        Self::from_fn(u.len(), v.len(), |i, j| u[i] * v[j].conj())
    }

    /// Sum of diagonal elements.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "CMat::trace: matrix must be square");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm, `sqrt(sum |a_ij|^2)`.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute value of any off-diagonal element — the convergence
    /// measure of the Jacobi eigensolver.
    pub fn max_offdiag(&self) -> f64 {
        assert!(self.is_square());
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// True if `‖A − A^H‖_max <= tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            if self[(i, i)].im.abs() > tol {
                return false;
            }
            for j in (i + 1)..self.cols {
                if !self[(i, j)].approx_eq(self[(j, i)].conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.matmul(rhs)
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Borrowed view of one matrix column: a strided window into the
/// row-major storage of a [`CMat`]. Created by [`CMat::col_view`];
/// element `i` is the column's row-`i` entry.
#[derive(Debug, Clone, Copy)]
pub struct ColView<'a> {
    data: &'a [C64],
    stride: usize,
    len: usize,
}

impl ColView<'_> {
    /// Number of elements (the matrix's row count).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a column of a zero-row matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the column's elements top to bottom.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = C64> + '_ {
        self.data
            .iter()
            .step_by(self.stride)
            .take(self.len)
            .copied()
    }

    /// Materialise the column as a `Vec` (same result as [`CMat::col`]).
    pub fn to_vec(&self) -> Vec<C64> {
        self.iter().collect()
    }
}

impl Index<usize> for ColView<'_> {
    type Output = C64;
    #[inline]
    fn index(&self, i: usize) -> &C64 {
        debug_assert!(i < self.len);
        &self.data[i * self.stride]
    }
}

/// Inner product with conjugation on the first argument: `u^H v`.
pub fn vdot(u: &[C64], v: &[C64]) -> C64 {
    assert_eq!(u.len(), v.len(), "vdot: length mismatch");
    u.iter().zip(v.iter()).map(|(a, b)| a.conj() * *b).sum()
}

/// [`vdot`] with a borrowed matrix column as the (conjugated) first
/// argument: `col^H v`, allocation-free. The MUSIC noise-projector
/// inner loop (`|e_k^H a(θ)|²` per grid point) runs on this.
pub fn vdot_col(u: ColView<'_>, v: &[C64]) -> C64 {
    assert_eq!(u.len(), v.len(), "vdot_col: length mismatch");
    let mut acc = ZERO;
    for (i, b) in v.iter().enumerate() {
        acc += u[i].conj() * *b;
    }
    acc
}

/// Euclidean norm of a complex vector.
pub fn vnorm(v: &[C64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{J, ZERO};

    fn sample() -> CMat {
        CMat::from_rows(
            2,
            2,
            &[c64(1.0, 0.0), c64(0.0, 1.0), c64(0.0, -1.0), c64(2.0, 0.0)],
        )
    }

    #[test]
    fn identity_is_neutral() {
        let a = sample();
        let i = CMat::identity(2);
        assert!(a.matmul(&i).approx_eq(&a, 1e-14));
        assert!(i.matmul(&a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn hermitian_detection() {
        assert!(sample().is_hermitian(1e-14));
        let mut bad = sample();
        bad[(0, 1)] = c64(0.5, 0.5);
        assert!(!bad.is_hermitian(1e-14));
    }

    #[test]
    fn hermitian_transpose_involution() {
        let a = CMat::from_fn(3, 2, |i, j| c64(i as f64, j as f64 + 0.5));
        assert!(a.hermitian().hermitian().approx_eq(&a, 1e-14));
    }

    #[test]
    fn matmul_known_product() {
        // [[1, j], [0, 2]] * [[1, 0], [1, 1]] = [[1+j, j], [2, 2]]
        let a = CMat::from_rows(2, 2, &[c64(1.0, 0.0), J, ZERO, c64(2.0, 0.0)]);
        let b = CMat::from_rows(2, 2, &[c64(1.0, 0.0), ZERO, c64(1.0, 0.0), c64(1.0, 0.0)]);
        let p = a.matmul(&b);
        assert!(p[(0, 0)].approx_eq(c64(1.0, 1.0), 1e-14));
        assert!(p[(0, 1)].approx_eq(J, 1e-14));
        assert!(p[(1, 0)].approx_eq(c64(2.0, 0.0), 1e-14));
        assert!(p[(1, 1)].approx_eq(c64(2.0, 0.0), 1e-14));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = CMat::from_fn(3, 3, |i, j| c64((i + j) as f64, (i as f64) - (j as f64)));
        let v = vec![c64(1.0, 1.0), c64(0.0, -1.0), c64(2.0, 0.5)];
        let mv = a.matvec(&v);
        let col = a.matmul(&CMat::col_vector(&v));
        for i in 0..3 {
            assert!(mv[i].approx_eq(col[(i, 0)], 1e-14));
        }
    }

    #[test]
    fn outer_product_rank_one() {
        let u = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let v = vec![c64(1.0, 1.0), c64(2.0, 0.0)];
        let o = CMat::outer(&u, &v);
        // o[i][j] = u[i] * conj(v[j])
        assert!(o[(0, 0)].approx_eq(c64(1.0, -1.0), 1e-14));
        assert!(o[(1, 1)].approx_eq(c64(0.0, 2.0), 1e-14));
    }

    #[test]
    fn trace_and_fro() {
        let a = sample();
        assert!(a.trace().approx_eq(c64(3.0, 0.0), 1e-14));
        assert!((a.fro_norm() - (1.0f64 + 1.0 + 1.0 + 4.0).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn vdot_conjugates_first_argument() {
        let u = vec![J];
        let v = vec![c64(1.0, 0.0)];
        // conj(j) * 1 = -j
        assert!(vdot(&u, &v).approx_eq(c64(0.0, -1.0), 1e-14));
    }

    #[test]
    fn vdot_self_is_norm_sqr() {
        let v = vec![c64(3.0, 4.0), c64(0.0, 2.0)];
        let d = vdot(&v, &v);
        assert!((d.re - 29.0).abs() < 1e-14);
        assert!(d.im.abs() < 1e-14);
        assert!((vnorm(&v) - 29f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn row_col_extraction() {
        let a = CMat::from_fn(3, 4, |i, j| c64(i as f64, j as f64));
        assert_eq!(a.row(1).len(), 4);
        assert_eq!(a.col(2).len(), 3);
        assert!(a.row(1)[3].approx_eq(c64(1.0, 3.0), 0.0));
        assert!(a.col(2)[2].approx_eq(c64(2.0, 2.0), 0.0));
        assert_eq!(a.row_view(2), &a.row(2)[..]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CMat::from_fn(2, 3, |i, j| c64(i as f64 + 1.0, j as f64 - 1.0));
        let b = CMat::from_fn(2, 3, |i, j| c64(j as f64, i as f64));
        let s = &(&a + &b) - &b;
        assert!(s.approx_eq(&a, 1e-14));
    }
}
