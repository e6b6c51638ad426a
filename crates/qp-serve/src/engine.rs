//! The job engine: runs one admitted request through the job pipeline of
//! `qp-core` ([`qp_core::Job`]), the one `qperturb` runs too, with a hook
//! that writes the progress lines and checks the preempt flag. The job
//! itself writes its `QPCK` record every [`CHECKPOINT_INTERVAL`] iterations
//! and where it is preempted.
//!
//! Two invariants rest on that:
//!
//! * **Bit-identity with the CLI.** The request's system is built by
//!   `System::for_job` and run by the same job, so a request served here,
//!   served from cache, or run via the CLI produces the same bits.
//! * **Bit-exact preempt/resume.** Preemption only happens at iteration
//!   boundaries, where the job's resume state (the SCF seed, the finished
//!   directions and the in-flight direction's loop state) fully determines
//!   the remainder of the run. The `QPCK` kind-3 checkpoint captures
//!   exactly that state; resuming replays the identical floating-point
//!   sequence.

use crate::request::JobRequest;
use crate::result::JobResultData;
use crate::ServeError;
use qp_core::{Event, Job, System};
use qp_resil::JobCheckpoint;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Outcome of one engine pass over a job.
pub enum EngineOutcome {
    /// The job ran to completion.
    Done(JobResultData),
    /// The job was preempted; its state is in the returned checkpoint
    /// (already written if a checkpoint path was given).
    Preempted(Box<JobCheckpoint>),
}

/// Progress callback: receives one human-readable line per SCF/DFPT
/// iteration boundary.
pub type ProgressFn<'a> = dyn FnMut(&str) + 'a;

/// How often (in iterations) the job writes its `QPCK` record while
/// running. Preemption and shutdown always write it regardless.
pub const CHECKPOINT_INTERVAL: usize = 2;

/// Run (or resume) one job. `preempt` is polled at every iteration
/// boundary; when set, the job writes its record and the engine returns
/// [`EngineOutcome::Preempted`]. `ckpt_path` additionally gets the record
/// every [`CHECKPOINT_INTERVAL`] iterations so a hard kill (process death,
/// no preempt handshake) loses at most that much work.
pub fn run_job(
    req: &JobRequest,
    resume: Option<JobCheckpoint>,
    ckpt_path: Option<&Path>,
    preempt: &AtomicBool,
    progress: &mut ProgressFn<'_>,
) -> Result<EngineOutcome, ServeError> {
    let key = req.key();
    let mut state = resume.unwrap_or(JobCheckpoint {
        key,
        ..JobCheckpoint::default()
    });
    if state.key != key {
        return Err(ServeError::Internal(
            "checkpoint does not belong to this request".into(),
        ));
    }
    let system = System::for_job(
        req.structure.clone(),
        req.basis,
        &req.grid,
        req.screening,
        req.farfield,
    );
    progress(&format!(
        "system: {} basis functions, {} grid points",
        system.n_basis(),
        system.n_points()
    ));

    let mut hook = |event: &Event<'_>| -> bool {
        let (line, preemptible) = match *event {
            Event::ScfIter(st) => (
                format!("scf iter={} energy={:.10}", st.iteration, st.energy),
                true,
            ),
            Event::ScfConverged(g) => (
                format!(
                    "scf converged: {} iterations, E={:.10} Ha",
                    g.iterations, g.energy
                ),
                false,
            ),
            Event::DfptIter(st) => (
                format!(
                    "dfpt dir={} iter={} residual={:.3e}",
                    st.dir, st.iteration, st.residual
                ),
                true,
            ),
            Event::DfptConverged(j, d) => (
                format!("dfpt dir={j} converged in {} iterations", d.iterations),
                false,
            ),
        };
        progress(&line);
        // A job is preempted only where an iteration ends short of
        // convergence.
        !(preemptible && preempt.load(Ordering::Relaxed))
    };
    let job = Job {
        checkpoint: ckpt_path.map(|p| (p.to_path_buf(), CHECKPOINT_INTERVAL)),
        ..Job::new(req.scf, req.dfpt)
    };
    let out = job
        .run_with(&system, &mut state, &mut hook)
        .map_err(|e| ServeError::Engine(e.to_string()))?;
    if let Some(out) = out {
        // The job is done; its checkpoint is stale state, not history.
        if let Some(p) = ckpt_path {
            let _ = std::fs::remove_file(p);
        }
        return Ok(EngineOutcome::Done(JobResultData::from(&out)));
    }
    progress(&match (&state.cur_dir, &state.scf) {
        (Some(st), _) => format!(
            "preempted during dfpt dir={} at iter={}",
            st.dir, st.iteration
        ),
        (None, scf) => format!(
            "preempted during scf at iter={}",
            scf.as_ref().map_or(0, |s| s.iteration)
        ),
    });
    Ok(EngineOutcome::Preempted(Box::new(state)))
}
