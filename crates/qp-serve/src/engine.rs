//! The job engine: runs one admitted request through the job pipeline of
//! `qp-core` ([`qp_core::Job`]), the one `qperturb` runs too, with a hook
//! that writes the progress lines, checks the preempt flag, and persists
//! the `QPCK` job checkpoint every [`CHECKPOINT_INTERVAL`] iterations.
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
use qp_core::{Event, Job, Step, System};
use qp_resil::JobCheckpoint;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Outcome of one engine pass over a job.
pub enum EngineOutcome {
    /// The job ran to completion.
    Done(JobResultData),
    /// The job was preempted; its state is in the returned checkpoint
    /// (already persisted if a checkpoint path was given).
    Preempted(Box<JobCheckpoint>),
}

/// Progress callback: receives one human-readable line per SCF/DFPT
/// iteration boundary.
pub type ProgressFn<'a> = dyn FnMut(&str) + 'a;

/// How often (in iterations) the engine persists a `QPCK` checkpoint while
/// running. Preemption and shutdown always persist regardless.
pub const CHECKPOINT_INTERVAL: usize = 2;

fn persist(ckpt: &JobCheckpoint, path: Option<&Path>) -> Result<(), ServeError> {
    if let Some(p) = path {
        ckpt.save(p)
            .map_err(|e| ServeError::Internal(format!("checkpoint write: {e}")))?;
    }
    Ok(())
}

/// Run (or resume) one job. `preempt` is polled at every iteration
/// boundary; when set, the engine persists a checkpoint and returns
/// [`EngineOutcome::Preempted`]. `ckpt_path` additionally gets a periodic
/// checkpoint every [`CHECKPOINT_INTERVAL`] iterations so a hard kill
/// (process death, no preempt handshake) loses at most that much work.
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

    let mut hook = |step: &Step<'_>| -> bool {
        let (line, iteration) = match step.event {
            Event::ScfIter(st) => (
                format!("scf iter={} energy={:.10}", st.iteration, st.energy),
                Some(st.iteration),
            ),
            Event::ScfConverged(g) => (
                format!(
                    "scf converged: {} iterations, E={:.10} Ha",
                    g.iterations, g.energy
                ),
                None,
            ),
            Event::DfptIter(st) => (
                format!(
                    "dfpt dir={} iter={} residual={:.3e}",
                    st.dir, st.iteration, st.residual
                ),
                Some(st.iteration),
            ),
            Event::DfptConverged(j, d) => (
                format!("dfpt dir={j} converged in {} iterations", d.iterations),
                None,
            ),
        };
        progress(&line);
        let Some(iteration) = iteration else {
            return true;
        };
        let stop = preempt.load(Ordering::Relaxed);
        if stop || iteration % CHECKPOINT_INTERVAL == 0 {
            // Persist failures surface on the preempt path below; a
            // periodic write that fails only costs resume granularity.
            let _ = persist(&step.resume_state(), ckpt_path);
        }
        !stop
    };
    let out = Job::new(req.scf, req.dfpt)
        .run_with(&system, &mut state, &mut hook)
        .map_err(|e| ServeError::Engine(e.to_string()))?;
    if let Some(out) = out {
        // The job is done; its checkpoint is stale state, not history.
        if let Some(p) = ckpt_path {
            let _ = std::fs::remove_file(p);
        }
        return Ok(EngineOutcome::Done(JobResultData::from(&out)));
    }
    persist(&state, ckpt_path)?;
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
