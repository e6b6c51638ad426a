//! Dense symmetric eigensolvers.
//!
//! The Kohn-Sham equations in a finite basis (Eq. 5 of the paper) are a
//! generalized symmetric eigenproblem `H C = ε S C`, solved in the original
//! code by ScaLAPACK. Here we implement the classic dense path:
//! Householder tridiagonalization followed by implicit-shift QL iteration,
//! with the generalized problem reduced to standard form via Cholesky.
//! Every stage reads and writes along rows of the row-major matrices while
//! keeping the textbook order of operations per element, so the results do
//! not depend on the thread count.

use crate::cholesky::Cholesky;
use crate::dense::DMatrix;
use crate::{LinalgError, Result};

/// Raw-pointer wrapper so a parallel row sweep can write its disjoint rows
/// without aliasing checks the borrow checker cannot express (each row is
/// touched by exactly one chunk executor).
struct RowsPtr(*mut f64);
unsafe impl Send for RowsPtr {}
unsafe impl Sync for RowsPtr {}

impl RowsPtr {
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Eigenvalues (ascending) and eigenvectors (columns) of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// `eigenvectors.col(k)` is the eigenvector of `eigenvalues[k]`.
    pub eigenvectors: DMatrix,
}

/// Householder reduction of a symmetric matrix to tridiagonal form.
///
/// Returns `(d, e, q)` where `d` is the diagonal, `e` the sub-diagonal
/// (`e[0]` unused) and `q` the accumulated orthogonal transform such that
/// `qᵀ a q = tridiag(d, e)`.
///
/// This is numerical-recipes `tred2` with every element computed by the
/// same sequence of floating-point operations as the classic serial loop,
/// laid out for a row-major matrix. Its two reductions `g_j` (the
/// Householder map and the Q accumulation) sum over a column of `v`; they
/// run k-outer on the calling thread, so each row `k` adds its term to
/// every `g_j` in one contiguous sweep while every `g_j` still adds its
/// terms in ascending `k`.
///
/// The symmetric rank-2 update and the rank-1 Q update go row by row and
/// fan out over rows, each owned by one thread, so the result is
/// bit-identical between 1 and N threads. Each sweep carries a flop-count
/// cost hint: at a typical basis size (n ≈ 150) a sweep is a few tens of
/// µs of O(n²) work, below the scheduling break-even, so it runs inline,
/// and only the sweeps of large matrices (above about 220 columns) fan
/// out.
fn tridiagonalize(mut v: DMatrix) -> (Vec<f64>, Vec<f64>, DMatrix) {
    let n = v.rows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| v[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = v[(i, l)];
            } else {
                for k in 0..=l {
                    v[(i, k)] /= scale;
                    h += v[(i, k)] * v[(i, k)];
                }
                let f = v[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                v[(i, l)] = f - g;
                // g_j = Σ_{k≤j} v[j][k]·v[i][k] + Σ_{j<k≤l} v[k][j]·v[i][k]:
                // the row dot product first, then row k adds its term to
                // every g_j with j < k in one contiguous sweep.
                let vrow_i = &v.row(i)[..=l];
                let mut g_vals: Vec<f64> = (0..=l)
                    .map(|j| {
                        let mut g = 0.0;
                        for (&vjk, &vik) in v.row(j)[..=j].iter().zip(vrow_i) {
                            g += vjk * vik;
                        }
                        g
                    })
                    .collect();
                for (k, &vik) in vrow_i.iter().enumerate().skip(1) {
                    for (gj, &vkj) in g_vals[..k].iter_mut().zip(&v.row(k)[..k]) {
                        *gj += vkj * vik;
                    }
                }
                let mut tau = 0.0;
                for (j, &g) in g_vals.iter().enumerate() {
                    v[(j, i)] = v[(i, j)] / h;
                    e[j] = g / h;
                    tau += e[j] * v[(i, j)];
                }
                let hh = tau / (h + h);
                // Finalize e first (serial, j-ascending as before), then the
                // symmetric rank-2 update touches disjoint rows j ≤ l — one
                // parallel sweep with row i snapshotted to avoid aliasing.
                for j in 0..=l {
                    e[j] -= hh * v[(i, j)];
                }
                let vi: Vec<f64> = (0..=l).map(|j| v[(i, j)]).collect();
                let cols = v.cols();
                let base = RowsPtr(v.as_mut_slice().as_mut_ptr());
                qp_par::for_each_index_hinted(l + 1, l.div_ceil(2).max(1) as u64, |j| {
                    // SAFETY: row `j` of the leading (l+1)×cols block is
                    // written by exactly this index; `e` and `vi` are only
                    // read.
                    let row =
                        unsafe { std::slice::from_raw_parts_mut(base.get().add(j * cols), cols) };
                    let f = vi[j];
                    let g = e[j];
                    for k in 0..=j {
                        row[k] -= f * e[k] + g * vi[k];
                    }
                });
            }
        } else {
            e[i] = v[(i, l)];
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            // Accumulate Q: g_j = Σ_{k<i} v[i][k]·v[k][j] for every j < i,
            // row k adding its term to every g_j in one contiguous sweep,
            // all from pristine data (the serial loop also read column j
            // strictly before writing it), then the rank-1 update row-wise
            // so each row is owned by one thread.
            let mut g_vals = vec![0.0; i];
            for (k, &vik) in v.row(i)[..i].iter().enumerate() {
                for (gj, &vkj) in g_vals.iter_mut().zip(&v.row(k)[..i]) {
                    *gj += vik * vkj;
                }
            }
            let cols = v.cols();
            let base = RowsPtr(v.as_mut_slice().as_mut_ptr());
            qp_par::for_each_index_hinted(i, i as u64, |r| {
                // SAFETY: row `r` of the leading i×cols block is written by
                // exactly this index; `g_vals` is only read.
                let row = unsafe { std::slice::from_raw_parts_mut(base.get().add(r * cols), cols) };
                let vki = row[i];
                for (j, &g) in g_vals.iter().enumerate() {
                    row[j] -= g * vki;
                }
            });
        }
        d[i] = v[(i, i)];
        v[(i, i)] = 1.0;
        for j in 0..i {
            v[(j, i)] = 0.0;
            v[(i, j)] = 0.0;
        }
    }
    (d, e, v)
}

/// Implicit-shift QL iteration on a tridiagonal matrix (numerical-recipes
/// style `tqli`). Each plane rotation `(s, c)` of coordinates `i` and
/// `i + 1` is handed to `rotate(i, s, c)`, which accumulates it into the
/// eigenvectors ([`rotate_rows`] in production).
fn tql_implicit(
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    const MAX_ITER: usize = 64;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the matrix.
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
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    what: "tridiagonal QL",
                    iterations: MAX_ITER,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut i = m - 1;
            loop {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
                if i == l {
                    break;
                }
                i -= 1;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Apply the QL rotation `(s, c)` of coordinates `i` and `i + 1` to `zt`,
/// the eigenvector matrix held transposed: it mixes two contiguous rows
/// where the textbook loop mixes two columns at stride n, with the same
/// arithmetic per element.
fn rotate_rows(zt: &mut DMatrix, i: usize, s: f64, c: f64) {
    let n = zt.cols();
    let (upper, lower) = zt.as_mut_slice().split_at_mut((i + 1) * n);
    for (zi, zi1) in upper[i * n..].iter_mut().zip(&mut lower[..n]) {
        let f = *zi1;
        *zi1 = s * *zi + c * f;
        *zi = c * *zi - s * f;
    }
}

/// Eigenpairs sorted by ascending eigenvalue; `component(k, i)` is
/// component `i` of the eigenvector of `d[k]`. The sort is stable, so
/// equal eigenvalues keep their QL order.
fn sorted_eigenpairs(d: &[f64], component: impl Fn(usize, usize) -> f64) -> EigenDecomposition {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("finite eigenvalues"));
    EigenDecomposition {
        eigenvalues: order.iter().map(|&k| d[k]).collect(),
        eigenvectors: DMatrix::from_fn(n, n, |i, j| component(order[j], i)),
    }
}

/// Eigendecomposition of a matrix that is already exactly symmetric.
fn eigen_of_symmetric(sym: DMatrix) -> Result<EigenDecomposition> {
    let (mut d, mut e, z) = tridiagonalize(sym);
    let mut zt = z.transpose();
    tql_implicit(&mut d, &mut e, |i, s, c| rotate_rows(&mut zt, i, s, c))?;
    Ok(sorted_eigenpairs(&d, |k, i| zt[(k, i)]))
}

/// Full eigendecomposition of a symmetric matrix.
///
/// The input is symmetrized defensively (`(A + Aᵀ)/2` is implied by reading
/// only the lower triangle) — grid-integrated operators are symmetric only to
/// integration tolerance.
pub fn symmetric_eigen(a: &DMatrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigen",
            dims: vec![a.rows(), a.cols()],
        });
    }
    let mut sym = a.clone();
    sym.symmetrize();
    eigen_of_symmetric(sym)
}

/// The standard-form matrix `L⁻¹ A L⁻ᵀ` of `A x = λ L Lᵀ x`, symmetrized.
/// `L⁻¹` is applied on the left of `A` and then on the left of the
/// transpose, which is legal because `A` is symmetric.
fn reduce(b: &Cholesky, a: &DMatrix) -> DMatrix {
    let linv_a = b.solve_lower_matrix(a);
    let mut c = b.solve_lower_matrix(&linv_a.transpose());
    c.symmetrize();
    c
}

/// Generalized symmetric eigenproblem `A x = λ B x` with `B` positive
/// definite (for us: `H C = ε S C`, Eq. 5).
///
/// Reduction: `B = L Lᵀ`, solve `(L⁻¹ A L⁻ᵀ) y = λ y`, back-transform
/// `x = L⁻ᵀ y`.  Returned eigenvectors are `B`-orthonormal
/// (`xᵢᵀ B xⱼ = δᵢⱼ`), exactly the normalization the density matrix (Eq. 6)
/// assumes. Factors `B` and calls [`generalized_symmetric_eigen_with`];
/// a caller that solves with the same `B` again should factor it once.
pub fn generalized_symmetric_eigen(a: &DMatrix, b: &DMatrix) -> Result<EigenDecomposition> {
    if a.rows() != b.rows() || a.cols() != b.cols() || !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: "generalized_symmetric_eigen",
            dims: vec![a.rows(), a.cols(), b.rows(), b.cols()],
        });
    }
    generalized_symmetric_eigen_with(&Cholesky::new(b)?, a)
}

/// [`generalized_symmetric_eigen`] with `B` already factored: the SCF
/// factors its fixed overlap `S` once and solves every iteration with it.
/// Bit-identical to factoring `B` on every call.
pub fn generalized_symmetric_eigen_with(b: &Cholesky, a: &DMatrix) -> Result<EigenDecomposition> {
    if !a.is_square() || a.rows() != b.dim() {
        return Err(LinalgError::DimensionMismatch {
            op: "generalized_symmetric_eigen_with",
            dims: vec![a.rows(), a.cols(), b.dim()],
        });
    }
    let std = eigen_of_symmetric(reduce(b, a))?;
    Ok(EigenDecomposition {
        eigenvalues: std.eigenvalues,
        eigenvectors: b.solve_lower_transpose_matrix(&std.eigenvectors),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::tests::{assert_same_bits, spd};

    fn check_eigen(a: &DMatrix, dec: &EigenDecomposition, tol: f64) {
        let n = a.rows();
        for k in 0..n {
            let x = dec.eigenvectors.col(k);
            let ax = a.matvec(&x).unwrap();
            for i in 0..n {
                assert!(
                    (ax[i] - dec.eigenvalues[k] * x[i]).abs() < tol,
                    "residual too large for eigenpair {k}"
                );
            }
        }
    }

    /// Deterministic pseudo-random symmetric matrix with entries in [-1, 1).
    fn random_symmetric(n: usize, mut seed: u64) -> DMatrix {
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rand();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// The classic serial `tred2`, its two `g` reductions j-outer down the
    /// columns of `v`: the oracle of [`tridiagonalize`].
    fn tridiagonalize_oracle(a: &DMatrix) -> (Vec<f64>, Vec<f64>, DMatrix) {
        let n = a.rows();
        let mut v = a.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0;
            if l > 0 {
                let scale: f64 = (0..=l).map(|k| v[(i, k)].abs()).sum();
                if scale == 0.0 {
                    e[i] = v[(i, l)];
                } else {
                    for k in 0..=l {
                        v[(i, k)] /= scale;
                        h += v[(i, k)] * v[(i, k)];
                    }
                    let f = v[(i, l)];
                    let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                    e[i] = scale * g;
                    h -= f * g;
                    v[(i, l)] = f - g;
                    let g_vals: Vec<f64> = (0..=l)
                        .map(|j| {
                            let mut g = 0.0;
                            for k in 0..=j {
                                g += v[(j, k)] * v[(i, k)];
                            }
                            for k in (j + 1)..=l {
                                g += v[(k, j)] * v[(i, k)];
                            }
                            g
                        })
                        .collect();
                    let mut tau = 0.0;
                    for (j, &g) in g_vals.iter().enumerate() {
                        v[(j, i)] = v[(i, j)] / h;
                        e[j] = g / h;
                        tau += e[j] * v[(i, j)];
                    }
                    let hh = tau / (h + h);
                    for j in 0..=l {
                        e[j] -= hh * v[(i, j)];
                    }
                    for j in 0..=l {
                        let (f, g) = (v[(i, j)], e[j]);
                        for k in 0..=j {
                            v[(j, k)] -= f * e[k] + g * v[(i, k)];
                        }
                    }
                }
            } else {
                e[i] = v[(i, l)];
            }
            d[i] = h;
        }
        d[0] = 0.0;
        e[0] = 0.0;
        for i in 0..n {
            if d[i] != 0.0 {
                let g_vals: Vec<f64> = (0..i)
                    .map(|j| {
                        let mut g = 0.0;
                        for k in 0..i {
                            g += v[(i, k)] * v[(k, j)];
                        }
                        g
                    })
                    .collect();
                for r in 0..i {
                    let vri = v[(r, i)];
                    for (j, &g) in g_vals.iter().enumerate() {
                        v[(r, j)] -= g * vri;
                    }
                }
            }
            d[i] = v[(i, i)];
            v[(i, i)] = 1.0;
            for j in 0..i {
                v[(j, i)] = 0.0;
                v[(i, j)] = 0.0;
            }
        }
        (d, e, v)
    }

    /// The classic `symmetric_eigen`: the oracle tridiagonalization, then
    /// QL rotating two columns of `z` at stride n.
    fn symmetric_eigen_oracle(a: &DMatrix) -> EigenDecomposition {
        let mut sym = a.clone();
        sym.symmetrize();
        let (mut d, mut e, mut z) = tridiagonalize_oracle(&sym);
        let n = d.len();
        tql_implicit(&mut d, &mut e, |i, s, c| {
            for k in 0..n {
                let f = z[(k, i + 1)];
                z[(k, i + 1)] = s * z[(k, i)] + c * f;
                z[(k, i)] = c * z[(k, i)] - s * f;
            }
        })
        .unwrap();
        sorted_eigenpairs(&d, |k, i| z[(i, k)])
    }

    /// The reduction to standard form, one column at a time.
    fn reduce_oracle(b: &Cholesky, a: &DMatrix) -> DMatrix {
        let linv_a = b.solve_lower_matrix_by_columns(a);
        let mut c = b.solve_lower_matrix_by_columns(&linv_a.transpose());
        c.symmetrize();
        c
    }

    fn assert_same_eigen(got: &EigenDecomposition, want: &EigenDecomposition, what: &str) {
        assert_same_bits(
            &got.eigenvalues,
            &want.eigenvalues,
            &format!("{what}: eigenvalues"),
        );
        assert_same_bits(
            got.eigenvectors.as_slice(),
            want.eigenvectors.as_slice(),
            &format!("{what}: eigenvectors"),
        );
    }

    #[test]
    fn two_by_two_known() {
        let a = DMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let dec = symmetric_eigen(&a).unwrap();
        assert!((dec.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((dec.eigenvalues[1] - 3.0).abs() < 1e-12);
        check_eigen(&a, &dec, 1e-10);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a =
            DMatrix::from_vec(3, 3, vec![5.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        let dec = symmetric_eigen(&a).unwrap();
        assert_eq!(dec.eigenvalues.len(), 3);
        assert!((dec.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((dec.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((dec.eigenvalues[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_symmetric_residuals_small() {
        let n = 12;
        let a = random_symmetric(n, 42);
        let dec = symmetric_eigen(&a).unwrap();
        check_eigen(&a, &dec, 1e-8);
        // Eigenvectors orthonormal.
        let vt_v = dec
            .eigenvectors
            .transpose()
            .matmul(&dec.eigenvectors)
            .unwrap();
        assert!(vt_v.max_abs_diff(&DMatrix::identity(n)) < 1e-8);
        // Trace preserved.
        let tr: f64 = dec.eigenvalues.iter().sum();
        assert!((tr - a.trace()).abs() < 1e-8);
    }

    #[test]
    fn generalized_reduces_to_standard_for_identity_b() {
        let a = DMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let b = DMatrix::identity(2);
        let dec = generalized_symmetric_eigen(&a, &b).unwrap();
        assert!((dec.eigenvalues[0] - 1.0).abs() < 1e-10);
        assert!((dec.eigenvalues[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn generalized_b_orthonormality() {
        let n = 6;
        let mut a = DMatrix::zeros(n, n);
        let mut b = DMatrix::identity(n);
        for i in 0..n {
            a[(i, i)] = (i as f64) - 2.0;
            if i + 1 < n {
                a[(i, i + 1)] = 0.5;
                a[(i + 1, i)] = 0.5;
                b[(i, i + 1)] = 0.2;
                b[(i + 1, i)] = 0.2;
            }
        }
        let dec = generalized_symmetric_eigen(&a, &b).unwrap();
        // Check A x = lambda B x.
        for k in 0..n {
            let x = dec.eigenvectors.col(k);
            let ax = a.matvec(&x).unwrap();
            let bx = b.matvec(&x).unwrap();
            for i in 0..n {
                assert!((ax[i] - dec.eigenvalues[k] * bx[i]).abs() < 1e-9);
            }
        }
        // Check x_i^T B x_j = delta_ij.
        for i in 0..n {
            for j in 0..n {
                let xi = dec.eigenvectors.col(i);
                let bxj = b.matvec(&dec.eigenvectors.col(j)).unwrap();
                let dot: f64 = xi.iter().zip(bxj.iter()).map(|(p, q)| p * q).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "B-orthonormality ({i},{j})");
            }
        }
    }

    /// The row-oriented eigensolver gives the oracles' bits at 1 and 8
    /// threads: the standard path, and the generalized path with a
    /// non-identity SPD `B` stage by stage (reduced matrix, its eigenpairs,
    /// back-transform). At n = 145 the solves split into several column
    /// blocks; at n = 350 the Householder row sweeps fan out too. The
    /// degenerate inputs make the sort meet ties: a diagonal matrix with
    /// repeated entries (exact ties) and `A = B` (every generalized
    /// eigenvalue 1).
    #[test]
    fn eigen_bit_identical_across_thread_counts() {
        for n in [1, 2, 3, 40, 145, 350] {
            let b = spd(n);
            let chol = Cholesky::new(&b).unwrap();
            let degenerate =
                DMatrix::from_fn(n, n, |i, j| if i == j { (i % 3) as f64 } else { 0.0 });
            let inputs = [
                ("random", random_symmetric(n, 7)),
                ("degenerate", degenerate),
                ("A = B", b.clone()),
            ];
            for (name, a) in &inputs {
                let want_std = symmetric_eigen_oracle(a);
                let want_reduced = reduce_oracle(&chol, a);
                let want_reduced_eigen = symmetric_eigen_oracle(&want_reduced);
                let want_back =
                    chol.solve_lower_transpose_matrix_by_columns(&want_reduced_eigen.eigenvectors);
                for threads in [1, 8] {
                    let _lease = qp_par::ThreadLease::exactly(threads);
                    let what = format!("{name}, n = {n}, {threads} threads");
                    assert_same_eigen(
                        &symmetric_eigen(a).unwrap(),
                        &want_std,
                        &format!("standard {what}"),
                    );
                    let reduced = reduce(&chol, a);
                    assert_same_bits(
                        reduced.as_slice(),
                        want_reduced.as_slice(),
                        &format!("reduced {what}"),
                    );
                    let gen = generalized_symmetric_eigen_with(&chol, a).unwrap();
                    assert_same_bits(
                        &gen.eigenvalues,
                        &want_reduced_eigen.eigenvalues,
                        &format!("generalized {what}: eigenvalues"),
                    );
                    assert_same_bits(
                        gen.eigenvectors.as_slice(),
                        want_back.as_slice(),
                        &format!("back-transform {what}"),
                    );
                    assert_same_eigen(
                        &generalized_symmetric_eigen(a, &b).unwrap(),
                        &gen,
                        &format!("factor per call {what}"),
                    );
                }
            }
        }
    }

    #[test]
    fn one_by_one() {
        let a = DMatrix::from_vec(1, 1, vec![7.0]).unwrap();
        let dec = symmetric_eigen(&a).unwrap();
        assert_eq!(dec.eigenvalues, vec![7.0]);
    }

    #[test]
    fn non_square_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(symmetric_eigen(&a).is_err());
        let b = Cholesky::new(&DMatrix::identity(2)).unwrap();
        assert!(generalized_symmetric_eigen_with(&b, &a).is_err());
        assert!(generalized_symmetric_eigen_with(&b, &DMatrix::identity(3)).is_err());
    }
}
