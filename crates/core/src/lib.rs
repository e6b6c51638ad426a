//! # qp-core
//!
//! The paper's primary contribution: all-electron density-functional
//! perturbation theory (DFPT) for homogeneous electric fields, in the
//! numeric-atomic-orbital full-potential framework, restructured for
//! heterogeneous machines.
//!
//! The crate implements the full Fig. 1 pipeline:
//!
//! 1. Ground-state DFT ([`scf`]): assemble `S`, `H` on the integration grid,
//!    solve `H C = ε S C` (Eq. 5), iterate to self-consistency (Eqs. 1–6).
//! 2. The DFPT self-consistency cycle ([`dfpt`]), per field direction:
//!    response density `n¹(r)` (Eq. 8, phase **Sumup**), response
//!    electrostatic potential via multipole Poisson (Eq. 9, phase **Rho**),
//!    response Hamiltonian `H¹` (Eqs. 10–12, phase **H**), Sternheimer
//!    update of `P¹` (Eq. 7), repeat until `‖ΔP¹‖` is below threshold.
//! 3. Polarizability `α_IJ = ∂μ_I/∂ξ_J` (Eq. 13).
//!
//! Steps 1 and 2 are cycles of one self-consistency loop over a
//! `qp_mpi::Comm` (the private `cycle` module), with the same phase spans.
//! [`job`] runs the three as one calculation: the pipeline `qperturb`,
//! qp-serve, the profiler and the benches share. [`parallel`] runs the DFPT
//! loop over `qp-mpi` ranks with either §3.1 task mapping, [`resil`]
//! supervises it with checkpoint/restart, and [`kernels`] launches the four
//! accelerated phases through the `qp-cl` runtime as counting wrappers over
//! the production kernels (counters feed the paper's figure harnesses).

// `for d in 0..3` indexing several parallel arrays at once is the clearest
// form for Cartesian components; the iterator rewrite obscures it.
#![allow(clippy::needless_range_loop)]

pub mod basis_cache;
mod cycle;
pub mod dfpt;
pub mod farfield;
pub mod job;
pub mod kernels;
pub mod mixing;
pub mod operators;
pub mod parallel;
pub mod profile;
pub mod properties;
pub mod resil;
pub mod scf;
pub mod screening;
pub mod system;

pub use dfpt::{DfptDirState, DfptOptions, DfptShared};
pub use farfield::{FarFieldMode, FARFIELD_AUTO_MIN_ATOMS};
pub use job::{Event, Job, JobError, JobOutput, JobState};
pub use mixing::DfptMixer;
pub use profile::{profile_case, validate_profile_json, ProfileReport};
pub use resil::{parallel_dfpt_direction_resilient, ResilienceConfig, ResilientDirectionResult};
pub use scf::{check_solver_options, scf, InvalidOption, ScfOptions, ScfResult, ScfState};
pub use screening::{ScreenPlan, ScreeningMode};
pub use system::System;

/// Open a host-track span for one of the pipeline phases on the calling
/// rank's timeline (no-op unless tracing is enabled), and label the thread
/// so qp-par region records and qp-linalg roofline counters emitted while
/// the guard lives are attributed to the same phase.
pub(crate) fn phase_span(phase: qp_trace::Phase, name: &str) -> PhaseSpan {
    PhaseSpan {
        _span: qp_trace::SpanGuard::begin(qp_trace::thread_rank(), phase, name),
        _label: qp_par::LabelGuard::set(phase.as_str()),
    }
}

/// RAII pair tying a trace span to a qp-par phase label (see [`phase_span`]).
pub(crate) struct PhaseSpan {
    _span: qp_trace::SpanGuard,
    _label: qp_par::LabelGuard,
}

/// Errors from the physics engine.
#[derive(Debug)]
pub enum CoreError {
    /// The SCF or DFPT cycle failed to converge.
    NoConvergence {
        /// Which cycle.
        what: &'static str,
        /// Iterations performed.
        iterations: usize,
        /// Last residual.
        residual: f64,
    },
    /// A self-consistency residual or mixed iterate became NaN or
    /// infinite; the cycle stops at the first such iteration, before the
    /// next one reads it.
    NonFinite {
        /// Which cycle.
        what: &'static str,
        /// The iteration that produced it.
        iteration: usize,
        /// The residual.
        residual: f64,
    },
    /// Integer occupations were asked of an odd electron count: they fill
    /// doubly occupied orbitals, so they describe closed shells only.
    OpenShell {
        /// The structure's electron count.
        electrons: u32,
    },
    /// Linear algebra failed underneath.
    Linalg(qp_linalg::LinalgError),
    /// Checkpoint save/load failed (I/O, corruption, version mismatch).
    Checkpoint(String),
    /// A distributed run lost a rank, timed out or disagreed on a
    /// collective, and the supervisor's restart budget could not recover
    /// it.
    Comm(qp_mpi::CommError),
}

impl From<qp_mpi::CommError> for CoreError {
    fn from(e: qp_mpi::CommError) -> Self {
        CoreError::Comm(e)
    }
}

impl From<qp_linalg::LinalgError> for CoreError {
    fn from(e: qp_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NoConvergence {
                what,
                iterations,
                residual,
            } => write!(
                f,
                "{what} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            CoreError::NonFinite {
                what,
                iteration,
                residual,
            } => write!(
                f,
                "{what} stopped at iteration {iteration}: a non-finite iterate \
                 (residual {residual})"
            ),
            CoreError::OpenShell { electrons } => write!(
                f,
                "{electrons} electrons cannot fill doubly occupied orbitals: an open-shell \
                 ground state needs Fermi-Dirac smearing"
            ),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CoreError::Comm(e) => write!(f, "distributed run failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
