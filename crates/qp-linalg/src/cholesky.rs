//! Cholesky factorization and triangular solves.
//!
//! Used to reduce the generalized eigenproblem `H C = ε S C` (Eq. 5 of the
//! paper) to standard form: with `S = L Lᵀ`, solve
//! `(L⁻¹ H L⁻ᵀ) y = ε y`, then back-transform `C = L⁻ᵀ y`.
//!
//! The matrix solves run by rows over all right-hand sides at once: row `i`
//! of the solution is row `i` of the input minus `L[i,k]` times each solved
//! row `k`, in ascending `k`, then divided by `L[i,i]`. That is the order of
//! operations of a column-by-column substitution, so every element comes
//! out with the same bits, while each update is a contiguous row sweep.
//! The columns split into fixed-width blocks that fan out across qp-par;
//! blocks share nothing, so the bits do not depend on the thread count.

use crate::dense::DMatrix;
use crate::{LinalgError, Result};

/// Right-hand-side columns per block of a matrix solve.
const SOLVE_BLOCK: usize = 64;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    pub fn new(a: &DMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                dims: vec![a.rows(), a.cols()],
            });
        }
        let n = a.rows();
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Order of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Compute `L⁻¹ M` (forward substitution over every column of `M`).
    pub fn solve_lower_matrix(&self, m: &DMatrix) -> DMatrix {
        self.solve_by_blocks(m, |l, x, w| {
            for i in 0..l.rows() {
                let (solved, rest) = x.split_at_mut(i * w);
                let xi = &mut rest[..w];
                let li = l.row(i);
                for (&lik, xk) in li.iter().zip(solved.chunks_exact(w)) {
                    for (a, &b) in xi.iter_mut().zip(xk) {
                        *a -= lik * b;
                    }
                }
                let lii = li[i];
                for a in xi.iter_mut() {
                    *a /= lii;
                }
            }
        })
    }

    /// Compute `L⁻ᵀ M` (backward substitution over every column of `M`).
    pub fn solve_lower_transpose_matrix(&self, m: &DMatrix) -> DMatrix {
        self.solve_by_blocks(m, |l, x, w| {
            let n = l.rows();
            for i in (0..n).rev() {
                let (head, solved) = x.split_at_mut((i + 1) * w);
                let xi = &mut head[i * w..];
                for (k, xk) in ((i + 1)..n).zip(solved.chunks_exact(w)) {
                    let lki = l[(k, i)];
                    for (a, &b) in xi.iter_mut().zip(xk) {
                        *a -= lki * b;
                    }
                }
                let lii = l[(i, i)];
                for a in xi.iter_mut() {
                    *a /= lii;
                }
            }
        })
    }

    /// Run `solve(L, x, w)` on every [`SOLVE_BLOCK`]-column block of `m`,
    /// each copied into a contiguous `n × w` buffer `x`, and gather the
    /// solved blocks into the result.
    fn solve_by_blocks(
        &self,
        m: &DMatrix,
        solve: impl Fn(&DMatrix, &mut [f64], usize) + Sync,
    ) -> DMatrix {
        let n = self.l.rows();
        assert_eq!(m.rows(), n);
        let cols = m.cols();
        let blocks: Vec<(usize, usize)> = (0..cols)
            .step_by(SOLVE_BLOCK)
            .map(|j0| (j0, (j0 + SOLVE_BLOCK).min(cols)))
            .collect();
        // n²/2 multiply-subtracts per column, a few per ns once vectorized.
        let est_block_ns = (n * n * SOLVE_BLOCK / 8) as u64;
        let solved = qp_par::map_vec_hinted(blocks.clone(), est_block_ns, |(j0, j1)| {
            let w = j1 - j0;
            let mut x = Vec::with_capacity(n * w);
            for i in 0..n {
                x.extend_from_slice(&m.row(i)[j0..j1]);
            }
            solve(&self.l, &mut x, w);
            x
        });
        let mut out = DMatrix::zeros(n, cols);
        for ((j0, j1), x) in blocks.into_iter().zip(solved) {
            for (i, xi) in x.chunks_exact(j1 - j0).enumerate() {
                out.row_mut(i)[j0..j1].copy_from_slice(xi);
            }
        }
        out
    }
}

/// The per-column substitutions the matrix solves reproduce, kept as their
/// oracle.
#[cfg(test)]
impl Cholesky {
    /// The lower-triangular factor.
    pub(crate) fn l(&self) -> &DMatrix {
        &self.l
    }

    /// Solve `L x = b` (forward substitution).
    pub(crate) fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                let lik = self.l[(i, k)];
                x[i] -= lik * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    pub(crate) fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                x[i] -= lki * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solve `A x = b` via the two triangular solves.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        self.solve_lower_transpose(&y)
    }

    /// `L⁻¹ M` one column at a time: the oracle of
    /// [`Cholesky::solve_lower_matrix`].
    pub(crate) fn solve_lower_matrix_by_columns(&self, m: &DMatrix) -> DMatrix {
        by_columns(m, |b| self.solve_lower(b))
    }

    /// `L⁻ᵀ M` one column at a time: the oracle of
    /// [`Cholesky::solve_lower_transpose_matrix`].
    pub(crate) fn solve_lower_transpose_matrix_by_columns(&self, m: &DMatrix) -> DMatrix {
        by_columns(m, |b| self.solve_lower_transpose(b))
    }
}

/// Apply a vector solve to each column of `m`.
#[cfg(test)]
fn by_columns(m: &DMatrix, solve: impl Fn(&[f64]) -> Vec<f64>) -> DMatrix {
    let n = m.rows();
    let mut out = DMatrix::zeros(n, m.cols());
    for j in 0..m.cols() {
        let x = solve(&m.col(j));
        for i in 0..n {
            out[(i, j)] = x[i];
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn spd3() -> DMatrix {
        DMatrix::from_vec(
            3,
            3,
            vec![4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0],
        )
        .unwrap()
    }

    /// A dense, well-conditioned SPD matrix of order `n`.
    pub(crate) fn spd(n: usize) -> DMatrix {
        let g = DMatrix::from_fn(n, n, |i, j| (((i * 37 + j * 11) % 23) as f64) / 23.0 - 0.5);
        let mut a = g.matmul(&g.transpose()).unwrap();
        for d in 0..n {
            a[(d, d)] += n as f64;
        }
        a
    }

    pub(crate) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: lengths differ");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k} differs");
        }
    }

    #[test]
    fn factor_known_matrix() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let c = Cholesky::new(&spd3()).unwrap();
        let l = c.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let llt = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(llt.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::new(&m),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    /// The row-oriented block solves give the per-column substitutions'
    /// bits: one block, several blocks with a partial last one, and a
    /// right-hand side wider than it is tall, each at 1 and 8 threads.
    #[test]
    fn matrix_solves_match_vector_solves() {
        let cases = [(spd3(), 2), (spd(70), 70), (spd(150), 150), (spd(40), 130)];
        for (a, cols) in cases {
            let n = a.rows();
            let c = Cholesky::new(&a).unwrap();
            let m = DMatrix::from_fn(n, cols, |i, j| ((i * 5 + j * 3) % 17) as f64 - 8.0);
            let lower = c.solve_lower_matrix_by_columns(&m);
            let upper = c.solve_lower_transpose_matrix_by_columns(&m);
            for threads in [1, 8] {
                let _lease = qp_par::ThreadLease::exactly(threads);
                let what = format!("n = {n}, {cols} columns, {threads} threads");
                let got = c.solve_lower_matrix(&m);
                assert_same_bits(got.as_slice(), lower.as_slice(), &format!("L⁻¹M, {what}"));
                let got = c.solve_lower_transpose_matrix(&m);
                assert_same_bits(got.as_slice(), upper.as_slice(), &format!("L⁻ᵀM, {what}"));
            }
        }
    }
}
