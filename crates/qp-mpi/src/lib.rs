//! # qp-mpi
//!
//! An in-process message-passing runtime reproducing the MPI machinery the
//! paper's DFPT code depends on — ranks, communicators, collectives, MPI-3
//! shared-memory (SHM) windows — plus the paper's two §3.2 innovations
//! implemented as real algorithms over real buffers:
//!
//! * [`packed::PackedAllReduce`] — fuse many same-op AllReduce invocations
//!   into one packed call, bounded by a 30 MB budget (§3.2.1).
//! * [`hierarchical`] — break one N-rank collective into chunked intra-node
//!   synthesis over an SHM copy (local barriers, conflict-free chunk
//!   rotation) followed by an inter-node collective among `N/m` node leaders
//!   (§3.2.2, Fig. 6).
//!
//! Ranks are OS threads; collectives rendezvous through shared state with a
//! **fixed, rank-ordered reduction order**, so results are bit-reproducible
//! and provably identical between the baseline, packed, and hierarchical
//! paths. Every collective is metered by [`traffic`] (bytes, calls, ranks),
//! which is what the `qp-machine` cost model converts into simulated seconds
//! for the Fig. 10 experiments.
//!
//! The runtime is **failure-aware** (the substrate of `qp-resil`): a rank
//! that panics or errors poisons the world so peers unblock with
//! [`CommError::RankFailed`]; collectives carry a deadline and surface a
//! silently-dead or stalled peer as [`CommError::Timeout`]; and [`fault`]
//! exposes the hook point (driver iteration boundaries) where a
//! deterministic fault plan can crash or stall a rank.

pub mod collectives;
pub mod comm;
pub mod fault;
pub mod hierarchical;
pub mod packed;
pub mod shm;
pub mod traffic;

pub use comm::{run_spmd, run_spmd_with, Comm, CommError};
pub use fault::{FaultDecision, FaultHook, SpmdOptions};
pub use traffic::{CollectiveKind, TrafficLog, TrafficRecord};

/// Reduction operators supported by the collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum (rank-ordered, deterministic).
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Apply to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}
