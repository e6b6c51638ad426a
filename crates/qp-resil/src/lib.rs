//! # qp-resil
//!
//! Resilience machinery for the exascale DFPT stack: at the scale of the
//! paper's runs (tens of thousands of nodes, hours of wall-clock), node
//! failure is an expected event, not an exception. This crate supplies the
//! three pieces the supervised drivers in `qp-core` are built from:
//!
//! * [`fault`] — a deterministic, seeded [`FaultPlan`] parsed from a single
//!   `QP_FAULT` spec string and installed into the `qp-mpi` runtime through
//!   its [`FaultHook`] point: a rank crash or a slow-rank stall at driver
//!   iteration *k*. The same spec reproduces the same failure (and
//!   therefore the same recovery trace) run after run.
//! * [`checkpoint`] — a versioned, checksummed, hand-rolled binary format
//!   (`QPCK`) for a job's one resume record, [`JobCheckpoint`]: the SCF
//!   seed (density matrix + Pulay history), the finished directions and the
//!   in-flight direction's loop state (`P¹`, Pulay history, residual),
//!   written atomically (temp file + rename) and restored round-trip
//!   bit-exact.
//! * [`recovery`] — the [`Supervisor`]: retries a failed SPMD region from
//!   its last in-memory commit, charges the modeled recovery cost
//!   (checkpoint write, respawn, restore broadcast) to the `qp-machine`
//!   simulated clock, and emits `qp-trace` spans on the `resil` phase.
//!
//! [`FaultHook`]: qp_mpi::FaultHook

pub mod checkpoint;
pub mod fault;
pub mod recovery;

pub use checkpoint::{
    DfptCheckpoint, JobCheckpoint, JobDirCheckpoint, JobDoneDirection, ScfCheckpoint,
};
pub use fault::FaultPlan;
pub use qp_mpi::{FaultDecision, FaultHook};
pub use recovery::{RecoveryPolicy, RecoveryStats, Supervisor};

/// Errors produced by the resilience layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilError {
    /// Filesystem error while writing or reading a checkpoint.
    Io(String),
    /// Structurally invalid checkpoint (bad magic, version, kind, or
    /// truncated payload).
    Format(&'static str),
    /// Payload bytes do not match the stored checksum (corruption).
    Checksum { expected: u64, got: u64 },
    /// Invalid `QP_FAULT` specification.
    Parse(String),
}

impl std::fmt::Display for ResilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            ResilError::Format(what) => write!(f, "invalid checkpoint: {what}"),
            ResilError::Checksum { expected, got } => write!(
                f,
                "checkpoint corrupted: checksum {got:#018x} != stored {expected:#018x}"
            ),
            ResilError::Parse(e) => write!(f, "invalid QP_FAULT spec: {e}"),
        }
    }
}

impl std::error::Error for ResilError {}

impl From<std::io::Error> for ResilError {
    fn from(e: std::io::Error) -> Self {
        ResilError::Io(e.to_string())
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ResilError>;
