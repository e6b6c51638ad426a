//! # qp-grid
//!
//! Grid batching and task mapping — the scalability core of the paper (§3.1).
//!
//! * [`batch`] — grid points are divided into disjoint *batches* of bounded
//!   size with a grid-adapted cut-plane method (paper ref [23], Fig. 2).
//! * [`mapping`] — two strategies assign batches to MPI processes: the
//!   baseline load-balancing strategy (least-loaded process, §3.1.1) and the
//!   paper's locality-enhancing recursive bisection (Algorithm 1, §3.1.3).
//! * [`footprint`] — per-rank analysis of what each strategy costs: which
//!   atoms a rank touches, the Hamiltonian storage it therefore needs (global
//!   sparse CSR vs. small dense block — Fig. 3), and how many cubic-spline
//!   tables the response-potential phase must construct on that rank
//!   (Fig. 4 / Fig. 9c).

// `for d in 0..3` indexing several parallel arrays at once is the clearest
// form for Cartesian components; the iterator rewrite obscures it.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod farfield;
pub mod footprint;
pub mod mapping;
pub mod screening;

pub use batch::{make_batches, Batch, BatchPoint};
pub use farfield::{farfield_tol, ClusterNode, ClusterTree, FarField};
pub use footprint::{FootprintReport, RankFootprint};
pub use mapping::{LoadBalancingMapping, LocalityEnhancingMapping, MortonMapping, TaskMapping};
pub use screening::BatchScreen;
