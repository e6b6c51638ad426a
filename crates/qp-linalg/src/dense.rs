//! Row-major dense matrices.
//!
//! The locality-enhancing task mapping of the paper (§3.1.2) turns each MPI
//! process's Hamiltonian block into a *small dense* matrix; this type is that
//! block. It deliberately stays simple — contiguous `Vec<f64>`, row-major —
//! so the per-element access cost is one load, which is exactly the property
//! Figure 3(b) of the paper credits for the 7.5–26.4 % speedups of the
//! `n¹(r)` / `H¹` phases.

use crate::{LinalgError, Result};

/// A dense, row-major, `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Create a zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "DMatrix::from_vec",
                dims: vec![rows, cols, data.len()],
            });
        }
        Ok(DMatrix { rows, cols, data })
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DMatrix { rows, cols, data }
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

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Exact heap footprint in bytes (the quantity plotted in Fig. 9a).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Transpose.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `self * other` via the cache-blocked, register-tiled GEMM
    /// ([`crate::gemm`]), executed serially. Branch-free on values — dense
    /// inputs and sparse-ish inputs run the same flops (sparsity belongs to
    /// the CSR path). Bit-identical to [`Self::par_matmul`].
    pub fn matmul(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                dims: vec![self.rows, self.cols, other.rows, other.cols],
            });
        }
        let mut out = DMatrix::zeros(self.rows, other.cols);
        crate::gemm::gemm(
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            false,
        );
        Ok(out)
    }

    /// `self * other` via the same blocked GEMM, with MC row blocks fanned
    /// out over the qp-par pool. Every C element accumulates in the same
    /// fixed k-order as the serial path, so the result is bit-identical to
    /// [`Self::matmul`] for any thread count.
    pub fn par_matmul(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "par_matmul",
                dims: vec![self.rows, self.cols, other.rows, other.cols],
            });
        }
        let mut out = DMatrix::zeros(self.rows, other.cols);
        crate::gemm::gemm(
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            true,
        );
        Ok(out)
    }

    /// Matrix-vector product `self * x`, rows fanned out over the pool.
    /// Each row's dot product runs in fixed k-order on one thread, so the
    /// result is bit-identical for any thread count.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                dims: vec![self.rows, self.cols, x.len()],
            });
        }
        // A matvec is a degenerate GEMM (n = 1); same roofline books.
        crate::gemm::record_roofline(self.rows, 1, self.cols);
        // One mul-add per column ≈ `cols` ns per row: small matvecs run
        // inline via the grain-size heuristic instead of paying region
        // setup for sub-setup-cost work.
        let mut out = vec![0.0f64; self.rows];
        qp_par::fill_slice_hinted(&mut out, self.cols as u64, |i| {
            self.row(i)
                .iter()
                .zip(x.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
        });
        Ok(out)
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &DMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                dims: vec![self.rows, self.cols, other.rows, other.cols],
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scale every element in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute difference to `other` (`inf`-norm of the difference).
    /// NaN if any difference is NaN (`f64::max` would skip it), so a
    /// residual taken from a non-finite matrix never passes a `< tol` test.
    pub fn max_abs_diff(&self, other: &DMatrix) -> f64 {
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, |m, d| if d > m || d.is_nan() { d } else { m })
    }

    /// Symmetrize in place: `A <- (A + A^T)/2`. Grid-integrated operator
    /// matrices pick up tiny asymmetries from floating-point reduction order;
    /// the physics requires exact symmetry before the eigensolver runs.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Trace of the product `self * other` without forming it:
    /// `sum_ij A_ij B_ji`. Used for energy-like contractions
    /// (e.g. `Tr[P¹ H¹]`).
    pub fn trace_product(&self, other: &DMatrix) -> Result<f64> {
        if self.cols != other.rows || self.rows != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "trace_product",
                dims: vec![self.rows, self.cols, other.rows, other.cols],
            });
        }
        let mut t = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                t += self[(i, j)] * other[(j, i)];
            }
        }
        Ok(t)
    }

    /// Trace.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Extract the square sub-matrix with the given (sorted or unsorted)
    /// index set, `out[(a, b)] = self[(idx[a], idx[b])]`.
    ///
    /// This is exactly the "small dense Hamiltonian" extraction of Fig. 3(b):
    /// the per-process basis-function subset gathers into a dense block.
    pub fn gather_square(&self, idx: &[usize]) -> DMatrix {
        assert!(self.is_square());
        let k = idx.len();
        let mut out = DMatrix::zeros(k, k);
        for (a, &ia) in idx.iter().enumerate() {
            for (b, &ib) in idx.iter().enumerate() {
                out[(a, b)] = self[(ia, ib)];
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (DMatrix, DMatrix) {
        let a = DMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = DMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        (a, b)
    }

    #[test]
    fn matmul_known_product() {
        let (a, b) = abc();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn par_matmul_matches_serial() {
        let (a, b) = abc();
        assert_eq!(a.matmul(&b).unwrap(), a.par_matmul(&b).unwrap());
    }

    #[test]
    fn par_matmul_bit_identical_at_scale() {
        let _g = qp_par::ThreadLease::at_least(4);
        let a = DMatrix::from_fn(150, 170, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let b = DMatrix::from_fn(170, 140, |i, j| ((i * 5 + j * 11) % 17) as f64 - 8.0);
        assert_eq!(a.matmul(&b).unwrap(), a.par_matmul(&b).unwrap());
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let a = DMatrix::from_vec(1, 3, vec![1.0, f64::NAN, 0.0]).unwrap();
        let b = DMatrix::from_vec(1, 3, vec![0.0, 0.0, 5.0]).unwrap();
        assert!(a.max_abs_diff(&b).is_nan());
        assert_eq!(b.max_abs_diff(&DMatrix::zeros(1, 3)), 5.0);
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let (a, _) = abc();
        let bad = DMatrix::zeros(2, 2);
        assert!(matches!(
            a.matmul(&bad),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_round_trip() {
        let (a, _) = abc();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn identity_is_neutral() {
        let (a, _) = abc();
        let i3 = DMatrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let (a, _) = abc();
        let x = vec![1.0, -1.0, 2.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![1.0 - 2.0 + 6.0, 4.0 - 5.0 + 12.0]);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 4.0, 3.0]).unwrap();
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let m = DMatrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let idx = [1usize, 3, 4];
        let blk = m.gather_square(&idx);
        assert_eq!(blk[(0, 0)], m[(1, 1)]);
        assert_eq!(blk[(2, 1)], m[(4, 3)]);
    }

    #[test]
    fn trace_product_matches_explicit() {
        let (a, b) = abc();
        let tp = a.trace_product(&b).unwrap();
        let explicit = a.matmul(&b).unwrap().trace();
        assert!((tp - explicit).abs() < 1e-12);
    }

    #[test]
    fn memory_bytes_counts_payload() {
        let m = DMatrix::zeros(10, 20);
        assert_eq!(m.memory_bytes(), 10 * 20 * 8);
    }

    #[test]
    fn axpy_and_scale() {
        let (a, _) = abc();
        let mut b = a.clone();
        b.axpy(2.0, &a).unwrap();
        b.scale(1.0 / 3.0);
        assert!(b.max_abs_diff(&a) < 1e-12);
    }
}

/// Solve the general square system `A x = b` by Gaussian elimination with
/// partial pivoting. `A` need not be symmetric or definite (used for the
/// DIIS/Pulay KKT systems, which are symmetric indefinite).
pub fn lu_solve(a: &DMatrix, b: &[f64]) -> crate::Result<Vec<f64>> {
    if !a.is_square() || a.rows() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "lu_solve",
            dims: vec![a.rows(), a.cols(), b.len()],
        });
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        // Partial pivot. `total_cmp` ranks NaN and ∞ above every finite
        // magnitude, so a non-finite column yields a non-finite pivot.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m[(r, col)].abs()))
            .max_by(|p, q| p.1.total_cmp(&q.1))
            .expect("non-empty");
        if !pivot_val.is_finite() {
            return Err(LinalgError::NonFinite { pivot: col });
        }
        if pivot_val < 1e-14 {
            return Err(LinalgError::NotPositiveDefinite { pivot: col });
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        for r in (col + 1)..n {
            let factor = m[(r, col)] / m[(col, col)];
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(r, j)] -= factor * v;
            }
            x[r] -= factor * x[col];
        }
    }
    for col in (0..n).rev() {
        x[col] /= m[(col, col)];
        for r in 0..col {
            let f = m[(r, col)];
            x[r] -= f * x[col];
        }
    }
    Ok(x)
}

#[cfg(test)]
mod lu_tests {
    use super::*;

    #[test]
    fn non_finite_pivot_column_is_an_error() {
        for bad in [f64::NAN, f64::INFINITY] {
            let a =
                DMatrix::from_vec(3, 3, vec![1.0, 2.0, 0.0, bad, 1.0, 1.0, 0.5, 0.0, 3.0]).unwrap();
            match lu_solve(&a, &[1.0, 0.0, 0.0]) {
                Err(e) => assert_eq!(e, LinalgError::NonFinite { pivot: 0 }, "{bad}"),
                Ok(x) => panic!("{bad}: solved to {x:?}"),
            }
        }
    }

    #[test]
    fn solves_general_system() {
        let a =
            DMatrix::from_vec(3, 3, vec![0.0, 2.0, 1.0, 1.0, -1.0, 0.5, 3.0, 0.0, -2.0]).unwrap();
        let x_true = vec![1.5, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = lu_solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_symmetric_indefinite_kkt() {
        // The DIIS shape: [[B, 1], [1, 0]].
        let a = DMatrix::from_vec(3, 3, vec![2.0, 0.5, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0]).unwrap();
        let b = vec![0.0, 0.0, 1.0];
        let x = lu_solve(&a, &b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (p, q) in back.iter().zip(b.iter()) {
            assert!((p - q).abs() < 1e-10);
        }
        assert!((x[0] + x[1] - 1.0).abs() < 1e-10, "constraint row");
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(lu_solve(&a, &[1.0, 2.0]).is_err());
    }
}
