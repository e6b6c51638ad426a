//! # qp-serve
//!
//! A multi-tenant DFPT simulation service over a local TCP socket: the
//! serving layer the paper's per-job pipeline was missing. Molecule +
//! perturbation requests arrive as newline-delimited JSON; the server
//! admits them through typed validation, schedules them fair-share across
//! tenants onto a worker pool, preempts long jobs at checkpoint boundaries
//! through `QPCK` kind-3 state (`qp-resil`), and serves repeated requests
//! O(1) from a content-addressed result cache.
//!
//! The whole design leans on one property of the engine: **bit-exact
//! determinism**. The same request produces the same bits serially, at any
//! `QP_THREADS`, after preempt/resume, and across server restarts — so the
//! cache can be shared across tenants, preemption is safe anywhere the
//! loop-carried state is complete, and the CI can compare a served result
//! against a direct CLI run with a byte-for-byte `cmp`.
//!
//! * [`json`] — hardened hand-rolled JSON (depth-capped parser, shortest
//!   round-trip `f64` writer: the wire format *is* the bit format).
//! * [`request`] — typed admission: untrusted JSON → validated
//!   [`request::JobRequest`] + canonical content address
//!   ([`request::canonical`], which `qperturb` keys its resume record on
//!   too).
//! * [`cache`] — 128-bit-keyed, exact-string-verified result cache.
//! * [`sched`] — fair-share queue (min cumulative cpu-seconds per tenant)
//!   with cooperative checkpoint-boundary preemption decisions.
//! * [`engine`] — one job through `qp_core::Job`, the pipeline the CLI
//!   runs too: a hook that streams progress and preempts, and the job
//!   writes its own `QPCK` record.
//! * [`server`] — listener + connection handlers + worker pool + state-dir
//!   durability (`job_<id>.meta.json` + `job_<id>.qpck`).
//! * [`client`] — the blocking client the CLI subcommands and
//!   `bench_serve` drive.

pub mod cache;
pub mod client;
pub mod engine;
pub mod json;
pub mod request;
pub mod result;
pub mod sched;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use client::{Client, SubmitOutcome};
pub use engine::{run_job, EngineOutcome};
pub use json::Json;
pub use request::{JobRequest, MoleculeSpec};
pub use result::JobResultData;
pub use sched::Scheduler;
pub use server::{start, ServerConfig, ServerHandle};

/// Errors across the serving stack.
#[derive(Debug)]
pub enum ServeError {
    /// The request failed validation — the client's fault, reported with a
    /// typed message and (at the CLI) a nonzero exit.
    BadRequest(String),
    /// The engine failed on an admitted job (non-convergence, linalg).
    Engine(String),
    /// Server-side invariant violation or I/O failure.
    Internal(String),
    /// The server is not accepting work (shutdown in progress).
    Unavailable(String),
    /// The remote side reported an error (client view).
    Remote(String),
    /// Transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Engine(m) => write!(f, "engine error: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
            ServeError::Unavailable(m) => write!(f, "unavailable: {m}"),
            ServeError::Remote(m) => write!(f, "server error: {m}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
