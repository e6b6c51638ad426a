//! # qp-bench
//!
//! The figure-regeneration harness: one binary per table/figure of the
//! paper's evaluation (§5), plus ablation studies, `bench_perf` (real
//! jobs through the profiler, into `BENCH_perf.json`) and criterion
//! microbenches.
//!
//! Method (documented in DESIGN.md §6): every harness (i) builds the real
//! geometry/grids/batches at a truth-preserving scale, (ii) runs the real
//! mapping / communication / kernel algorithms collecting exact counters,
//! and (iii) charges the counters to the calibrated `qp-machine` cost model
//! of HPC #1 / HPC #2. Counter collection is exact; only the
//! counters→seconds map is calibrated — once, globally.

pub mod phase_model;
pub mod table;
pub mod trace_hook;
pub mod workloads;
