//! Fault-injection hook points and SPMD runtime options.
//!
//! The runtime itself stays policy-free: it exposes *where* faults can act
//! (the driver iteration boundaries marked by [`Comm::fault_point`])
//! through the [`FaultHook`] trait, and `qp-resil` supplies the
//! deterministic plan that decides *whether* one fires. A hooked crash behaves exactly like a real
//! rank death: the world is poisoned, every peer's pending or future
//! communication call returns [`CommError::RankFailed`], and the supervised
//! driver above can restart the region from its last checkpoint.
//!
//! [`CommError::RankFailed`]: crate::CommError::RankFailed
//! [`Comm::fault_point`]: crate::Comm::fault_point

use std::sync::Arc;
use std::time::Duration;

/// What a [`FaultHook`] tells the runtime to do at a hook point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    Continue,
    /// Simulate this rank crashing: the runtime poisons the world and the
    /// hooked call returns `CommError::RankFailed` on this rank (and, once
    /// the poison propagates, on every peer).
    Crash,
    /// Stall this rank for the given duration before proceeding (slow-rank
    /// injection; long stalls surface as `CommError::Timeout` on peers).
    Stall(Duration),
}

/// Observer consulted by the runtime at its hook points.
///
/// Implementations must be deterministic functions of their construction
/// input plus the call sequence (the reproducibility contract: the same
/// plan applied to the same program yields the same fault trace).
pub trait FaultHook: Send + Sync {
    /// A driver-level point, e.g. `("dfpt.iter", k)` at the top of DFPT
    /// iteration `k`. Drivers opt in by calling [`Comm::fault_point`].
    ///
    /// [`Comm::fault_point`]: crate::Comm::fault_point
    fn at_point(&self, _rank: usize, _point: &str, _index: u64) -> FaultDecision {
        FaultDecision::Continue
    }

    /// Told the world size once, when the hook is installed (lets plans
    /// resolve `rank=any` clauses deterministically).
    fn bind_world(&self, _size: usize) {}
}

/// Options for [`run_spmd_with`]: fault hook and failure-detection deadline.
///
/// [`run_spmd_with`]: crate::comm::run_spmd_with
#[derive(Clone)]
pub struct SpmdOptions {
    /// Fault hook consulted at every hook point (`None` = no injection).
    pub fault: Option<Arc<dyn FaultHook>>,
    /// Deadline for a collective rendezvous missing participants; expiry
    /// poisons the world and returns `CommError::Timeout`.
    pub collective_timeout: Duration,
}

impl Default for SpmdOptions {
    fn default() -> Self {
        SpmdOptions {
            fault: None,
            // Generous default: legitimate workloads never come close, a
            // wedged world unblocks in bounded time.
            collective_timeout: Duration::from_secs(30),
        }
    }
}

impl SpmdOptions {
    /// Options with a fault hook installed.
    pub fn with_fault(hook: Arc<dyn FaultHook>) -> Self {
        SpmdOptions {
            fault: Some(hook),
            ..SpmdOptions::default()
        }
    }

    /// Override the failure-detection deadline.
    pub fn with_timeout(mut self, deadline: Duration) -> Self {
        self.collective_timeout = deadline;
        self
    }
}

impl std::fmt::Debug for SpmdOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmdOptions")
            .field("fault", &self.fault.as_ref().map(|_| "FaultHook"))
            .field("collective_timeout", &self.collective_timeout)
            .finish()
    }
}
