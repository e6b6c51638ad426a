//! # qp-cl
//!
//! A portable kernel runtime modelled on the paper's OpenCL layer (§4).
//!
//! The original code expresses the four accelerated DFPT phases as OpenCL
//! kernels: each work-item handles a grid point, each work-group a batch,
//! the NDRange all batches of the launching MPI process (§4.1). This crate
//! reproduces that execution model on CPU threads, with the properties the
//! paper's optimizations manipulate made explicit and measurable:
//!
//! * [`device`] — device profiles for the two evaluation accelerators
//!   (SW39010 with its 64 KB RMA on-chip exchange; a GCN-class GPU with
//!   persistent device memory and 64-lane wavefronts) plus a host-CPU
//!   profile.
//! * [`queue`] — counter-instrumented kernel launches: off-chip/on-chip
//!   words moved, flops, launches, lane occupancy. The `qp-machine` cost
//!   model turns these counters into simulated seconds. `qp-core::kernels`
//!   launches the four DFPT phases here as counting wrappers: each
//!   work-group runs the production kernel for its batch, and a count-only
//!   pass over the same tables records the traffic.
//! * [`fusion`] — fusing kernels with *wide dependence* (§4.2): vertical
//!   fusion keeps the producer's output on-chip when it fits the RMA window
//!   (legal for the 28 KB `rho_multipole_spl`, illegal for the 498 KB
//!   `delta_v_hart_part_spl` — Fig. 12a), horizontal fusion deduplicates the
//!   redundant producer across the MPI processes sharing a GPU (Fig. 7b).
//! * [`indirect`] — eliminating indirect memory accesses `A[B[i]] → C[i]`
//!   by building the rearrangement map once and reusing it (§4.3).
//! * [`collapse`] — collapsing the dependent `(p, m)` triangular loop of the
//!   Adams–Moulton Hartree integrator into a flat `idx` loop that fills all
//!   lanes (§4.4).

pub mod collapse;
pub mod counters;
pub mod device;
pub mod fusion;
pub mod indirect;
pub mod queue;

pub use counters::{KernelCounters, LaunchReport};
pub use device::{DeviceKind, DeviceProfile};
pub use queue::CommandQueue;
