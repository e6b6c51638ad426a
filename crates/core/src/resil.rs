//! The self-recovering distributed DFPT driver: the crate's one DFPT loop
//! ([`crate::dfpt`]) on `run_spmd` ranks under checkpoint/restart
//! supervision, writing its loop state as a `QPCK` DFPT record. The plain
//! [`crate::parallel::parallel_dfpt_direction`] is this driver with
//! checkpoints and restarts off; the job pipeline ([`crate::job`]) runs it
//! per direction under `--ranks` and checkpoints the SCF itself.
//!
//! The recovery argument rests on determinism: the rank-ordered collectives
//! make every rank hold a bit-identical [`DfptDirState`] (`P¹` and the
//! mixer history) at each iteration boundary, so rank 0's checkpoint is a
//! consistent global cut, and an attempt restarted from it replays the
//! remaining iterations **bit-exactly** — a run that loses a rank mid-DFPT
//! lands on the same polarizability as the fault-free run (the integration
//! tests pin this to 1e-8, and it holds to the last bit).
//!
//! Checkpoints are committed only after every collective of the covered
//! iteration has completed on all ranks (a crashed rank kills the
//! iteration's collectives first, so no torn state is ever captured), kept
//! in memory across restarts, and mirrored to disk in the `QPCK` format
//! when a checkpoint directory is configured. Faults injected through
//! [`FaultPlan`](qp_resil::FaultPlan) fire once per process, so the
//! restarted attempt sails past the crash site — exactly like a respawned
//! MPI job on fresh hardware.

use crate::dfpt::{fxc_on_grid, DfptDirState, DfptOptions, DirOutcome, Direction};
use crate::operators;
use crate::parallel::{assign_batches, comm_failure, ParallelConfig, ParallelDirectionResult};
use crate::scf::ScfResult;
use crate::system::System;
use crate::{CoreError, Result};
use parking_lot::Mutex;
use qp_linalg::DMatrix;
use qp_machine::machine::MachineModel;
use qp_mpi::{run_spmd_with, CommError, FaultHook, SpmdOptions};
use qp_resil::recovery::{RecoveryPolicy, RecoveryStats, Supervisor};
use qp_resil::{DfptCheckpoint, ResilError};
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of the resilience layer around a driver.
#[derive(Clone, Default)]
pub struct ResilienceConfig {
    /// Where `QPCK` checkpoints are mirrored (`None` = in-memory only; a
    /// restarted *process* then cannot resume, but in-run recovery works).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every this many iterations (0 disables checkpointing).
    pub checkpoint_interval: usize,
    /// Restart budget for the supervised region.
    pub max_restarts: usize,
    /// Resume from an existing on-disk checkpoint before the first attempt.
    pub restart: bool,
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
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("max_restarts", &self.max_restarts)
            .field("restart", &self.restart)
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

/// The loop state a `QPCK` DFPT checkpoint resumes for direction `dir` of
/// a system with `nb` basis functions. A checkpoint with a non-empty `c1`
/// was written by a driver that mixed `C¹` rather than `P¹`; its history
/// cannot seed the `P¹` mixer, so it is refused.
fn resume_state(ck: DfptCheckpoint, dir: usize, nb: usize) -> Result<DfptDirState> {
    if ck.c1.rows() * ck.c1.cols() != 0 {
        return Err(CoreError::Checkpoint(
            "the DFPT checkpoint holds response coefficients C1 from a driver that mixed \
             C1, which cannot resume the P1 mixer; remove it to start the direction afresh"
                .into(),
        ));
    }
    let fits = |m: &DMatrix| m.rows() == nb && m.cols() == nb;
    let mut history = ck.diis_in.iter().chain(&ck.diis_res);
    if ck.dir != dir || !fits(&ck.p1) || ck.diis_in.len() != ck.diis_res.len() || !history.all(fits)
    {
        return Err(CoreError::Checkpoint(format!(
            "the DFPT checkpoint does not fit direction {dir} of a {nb}-function basis"
        )));
    }
    Ok(DfptDirState {
        dir,
        iteration: ck.iteration,
        p1: ck.p1,
        residual: ck.residual,
        diis_in: ck.diis_in,
        diis_res: ck.diis_res,
    })
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
    let assignment = assign_batches(system, cfg);
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
    let interval = rcfg.checkpoint_interval;

    let ck_path = rcfg
        .checkpoint_dir
        .as_ref()
        .map(|d| d.join(format!("dfpt_dir{dir}.qpck")));
    let initial = match (&ck_path, rcfg.restart) {
        (Some(p), true) if p.exists() => {
            let ck = DfptCheckpoint::load(p).map_err(ck_err)?;
            Some(resume_state(ck, dir, system.n_basis())?)
        }
        _ => None,
    };
    // The last *committed* state: captured by rank 0 only after every
    // collective of the covered iteration completed on all ranks, read by
    // every rank at the top of each attempt.
    let store: Mutex<Option<DfptDirState>> = Mutex::new(initial);
    // Checkpoint sizes written during the current attempt, drained into the
    // supervisor between attempts (the SPMD closure cannot borrow it).
    let written: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    // First disk-write error, if any (surfaced after the region exits).
    let io_error: Mutex<Option<ResilError>> = Mutex::new(None);

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
                let ck = DfptCheckpoint {
                    dir,
                    iteration: st.iteration,
                    c1: DMatrix::zeros(0, 0),
                    p1: st.p1.clone(),
                    residual: st.residual,
                    diis_in: st.diis_in.clone(),
                    diis_res: st.diis_res.clone(),
                };
                written.lock().push(ck.to_bytes().len());
                if let Some(p) = &ck_path {
                    if let Err(e) = ck.save(p) {
                        *io_error.lock() = Some(e);
                        return Err(CommError::Mismatch("checkpoint write failed"));
                    }
                }
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

    if let Some(e) = io_error.into_inner() {
        return Err(ck_err(e));
    }
    let (out, traffic) = run.map_err(comm_failure)?.swap_remove(0);
    let mut points_per_rank = vec![0; cfg.n_ranks];
    for (batch, &rank) in system.batches.iter().zip(&assignment) {
        points_per_rank[rank] += batch.len();
    }
    let resp = match out? {
        DirOutcome::Converged(resp) => resp,
        DirOutcome::Preempted(_) => unreachable!("the checkpoint callback never preempts"),
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
