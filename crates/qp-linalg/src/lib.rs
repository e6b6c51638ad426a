//! # qp-linalg
//!
//! Linear-algebra substrate for the `qperturb` workspace: the Rust
//! reproduction of *"Portable and Scalable All-Electron Quantum Perturbation
//! Simulations on Exascale Supercomputers"* (SC '23).
//!
//! The paper's DFPT code relies on ScaLAPACK-style dense linear algebra for
//! the per-process Hamiltonian/overlap blocks and on compressed sparse row
//! (CSR) storage for the *global* sparse Hamiltonian kept by the baseline
//! (non-locality-enhanced) task mapping.  This crate provides both storage
//! schemes plus the solvers the ground-state and response cycles need:
//!
//! * [`DMatrix`] — row-major dense matrix with the BLAS-level operations used
//!   by the SCF and DFPT phases (`gemm`, `symm` products, transposes, …).
//!   Every assembled operator is one: as in the paper's §3.1, a rank's
//!   Hamiltonian is small and dense, so screened assembly in `qp-core`
//!   merges its batch blocks straight into a `DMatrix`.
//! * [`CsrMatrix`] — CSR sparse matrix with exact byte-footprint accounting,
//!   used to quantify the memory-explosion obstacle of §3.1.1.
//! * [`eigen`] — a dense symmetric eigensolver (Householder tridiagonal
//!   reduction + implicit QL) and the generalized solver
//!   `H C = ε S C` via Cholesky reduction, replacing ScaLAPACK.
//! * [`cholesky`] — Cholesky factorization and triangular solves.
//!
//! Everything is `f64`; quantum-chemistry response properties are far too
//! ill-conditioned for `f32`.

pub mod cholesky;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod gemm;
pub mod vecops;

pub use cholesky::Cholesky;
pub use csr::CsrMatrix;
pub use dense::DMatrix;
pub use eigen::{
    generalized_symmetric_eigen, generalized_symmetric_eigen_with, symmetric_eigen,
    EigenDecomposition,
};

/// Errors produced by the linear-algebra layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions do not match the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions observed, in operation-specific order.
        dims: Vec<usize>,
    },
    /// A matrix expected to be positive definite was not.
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
    },
    /// A pivot column held a NaN or an infinity.
    NonFinite {
        /// Index of the pivot column.
        pivot: usize,
    },
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Description of the algorithm.
        what: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, dims } => {
                write!(f, "dimension mismatch in {op}: {dims:?}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
            LinalgError::NonFinite { pivot } => {
                write!(f, "non-finite value in pivot column {pivot}")
            }
            LinalgError::NoConvergence { what, iterations } => {
                write!(f, "{what} failed to converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, LinalgError>;
