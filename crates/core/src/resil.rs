//! The self-recovering distributed DFPT driver: each DFPT direction's cycle
//! of the crate's one self-consistency loop on `run_spmd` ranks under
//! checkpoint/restart supervision. The plain
//! [`crate::parallel::parallel_dfpt_direction`] is this driver with
//! checkpoints and restarts off; the job pipeline ([`crate::job`]) runs it
//! per direction under `ranks`, resumes it from the job's record and writes
//! every commit into that record. (The SCF stays on one rank.)
//!
//! The recovery argument rests on determinism: the rank-ordered collectives
//! make every rank hold a bit-identical [`DfptDirState`] (`P¹` and the
//! mixer history) at each iteration boundary, so rank 0's checkpoint is a
//! consistent global cut, and an attempt restarted from it replays the
//! remaining iterations **bit-exactly**.
//!
//! Checkpoints are committed only after every collective of the covered
//! iteration has completed on all ranks (a crashed rank kills the
//! iteration's collectives first, so no torn state is ever captured), kept
//! in memory across restarts, and handed from rank 0 to the caller's commit
//! callback. Faults injected through [`FaultPlan`](qp_resil::FaultPlan)
//! fire once per process, so the restarted attempt sails past the crash
//! site. A failure the restart budget cannot absorb ends the direction
//! with [`CoreError::Comm`].

use crate::cycle::Outcome;
use crate::dfpt::{fxc_on_grid, DfptDirState, DfptOptions, Direction};
use crate::operators;
use crate::parallel::{assign_batches, ParallelConfig, ParallelDirectionResult};
use crate::scf::ScfResult;
use crate::system::System;
use crate::{CoreError, Result};
use parking_lot::Mutex;
use qp_machine::machine::MachineModel;
use qp_mpi::{run_spmd_with, CommError, FaultHook, SpmdOptions};
use qp_resil::recovery::{RecoveryPolicy, RecoveryStats, Supervisor};
use qp_resil::ResilError;
use std::sync::Arc;

/// Configuration of the resilience layer around a driver.
#[derive(Clone, Default)]
pub struct ResilienceConfig {
    /// Commit the loop state every this many iterations (0 disables
    /// checkpointing).
    pub checkpoint_interval: usize,
    /// Restart budget for the supervised region.
    pub max_restarts: usize,
    /// Fault hook installed into the SPMD runtime (usually a
    /// [`qp_resil::FaultPlan`] parsed from `QP_FAULT`).
    pub fault: Option<Arc<dyn FaultHook>>,
    /// Machine whose simulated clock is charged for checkpoint writes and
    /// restarts.
    pub machine: Option<MachineModel>,
}

impl ResilienceConfig {
    /// A sensible supervised default: checkpoint every `interval`
    /// iterations, allow 3 restarts.
    pub fn with_interval(interval: usize) -> Self {
        ResilienceConfig {
            checkpoint_interval: interval,
            max_restarts: 3,
            ..ResilienceConfig::default()
        }
    }
}

impl std::fmt::Debug for ResilienceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilienceConfig")
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("max_restarts", &self.max_restarts)
            .field("fault", &self.fault.as_ref().map(|_| "FaultHook"))
            .field("machine", &self.machine.map(|m| m.name))
            .finish()
    }
}

/// A resilient direction run: the physics result plus the recovery story.
#[derive(Debug)]
pub struct ResilientDirectionResult {
    /// The converged direction (identical to a fault-free run's).
    pub direction: ParallelDirectionResult,
    /// Restarts, checkpoints, modeled overhead, event log.
    pub stats: RecoveryStats,
}

pub(crate) fn ck_err(e: ResilError) -> CoreError {
    CoreError::Checkpoint(e.to_string())
}

/// Run one DFPT direction under supervision: checkpoint every
/// `rcfg.checkpoint_interval` iterations, and on a rank failure or
/// communication timeout restart the SPMD region from the last committed
/// checkpoint, up to `rcfg.max_restarts` times.
pub fn parallel_dfpt_direction_resilient(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
    rcfg: &ResilienceConfig,
) -> Result<ResilientDirectionResult> {
    let dip = operators::dipole_matrix(system, dir);
    let fxc = fxc_on_grid(ground);
    let c_t = ground.orbitals.transpose();
    let direction = Direction {
        system,
        ground,
        opts,
        dir,
        dip: &dip,
        fxc: &fxc,
        c_t: &c_t,
    };
    supervise(&direction, cfg, rcfg, None, &|_| Ok(()))
}

/// The supervised run of `direction` from `resume` (afresh on `None`).
/// Rank 0 hands every commit to `on_commit` before it becomes the restart
/// point; an error from it ends the direction with that error.
pub(crate) fn supervise(
    direction: &Direction<'_>,
    cfg: &ParallelConfig,
    rcfg: &ResilienceConfig,
    resume: Option<DfptDirState>,
    on_commit: &(dyn Fn(&DfptDirState) -> Result<()> + Sync),
) -> Result<ResilientDirectionResult> {
    let system = direction.system;
    let assignment = assign_batches(system, cfg);
    let interval = rcfg.checkpoint_interval;

    // The last *committed* state: captured by rank 0 only after every
    // collective of the covered iteration completed on all ranks, read by
    // every rank at the top of each attempt.
    let store: Mutex<Option<DfptDirState>> = Mutex::new(resume);
    // Checkpoint sizes committed during the current attempt, drained into
    // the supervisor between attempts (the SPMD closure cannot borrow it).
    let written: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    // The commit callback's error, if any (surfaced after the region exits).
    let commit_error: Mutex<Option<CoreError>> = Mutex::new(None);

    let mut spmd_opts = SpmdOptions::default();
    spmd_opts.fault.clone_from(&rcfg.fault);

    let mut supervisor = Supervisor::new(RecoveryPolicy {
        max_restarts: rcfg.max_restarts,
        ranks: cfg.n_ranks,
        machine: rcfg.machine,
    });

    let run = supervisor.run(|sup, _attempt| {
        let out = run_spmd_with(cfg.n_ranks, cfg.ranks_per_node, spmd_opts.clone(), |comm| {
            let resume = store.lock().clone();
            let batches: Vec<usize> = (0..assignment.len())
                .filter(|&b| assignment[b] == comm.rank())
                .collect();
            let out = direction.run(comm, &batches, cfg.collectives, resume, &mut |st| {
                if comm.rank() != 0 || interval == 0 || st.iteration % interval != 0 {
                    return Ok(true);
                }
                if let Err(e) = on_commit(st) {
                    *commit_error.lock() = Some(e);
                    return Err(CommError::Mismatch("checkpoint commit failed"));
                }
                let matrices = std::iter::once(&st.p1)
                    .chain(&st.diis_in)
                    .chain(&st.diis_res);
                written
                    .lock()
                    .push(matrices.map(|m| 8 * m.as_slice().len()).sum());
                *store.lock() = Some(st.clone());
                Ok(true)
            })?;
            // Rank 0 records every collective, so its log is complete once
            // its loop has ended.
            let traffic = if comm.rank() == 0 {
                comm.traffic().snapshot()
            } else {
                Vec::new()
            };
            Ok((out, traffic))
        });
        for bytes in written.lock().drain(..) {
            sup.note_checkpoint(bytes);
        }
        out
    });

    if let Some(e) = commit_error.into_inner() {
        return Err(e);
    }
    let (out, traffic) = run?.swap_remove(0);
    let mut points_per_rank = vec![0; cfg.n_ranks];
    for (batch, &rank) in system.batches.iter().zip(&assignment) {
        points_per_rank[rank] += batch.len();
    }
    let resp = match out? {
        Outcome::Converged(resp) => resp,
        Outcome::Preempted(_) => unreachable!("the checkpoint callback never preempts"),
    };
    Ok(ResilientDirectionResult {
        direction: ParallelDirectionResult {
            p1: resp.p1,
            iterations: resp.iterations,
            traffic,
            points_per_rank,
        },
        stats: supervisor.into_stats(),
    })
}
