//! One calculation end to end — the pipeline of Fig. 1, run the way
//! FHI-aims runs one `control.in`: the ground-state SCF, the DFPT cycle of
//! each field direction, then the polarizability and the dipole. `qperturb`,
//! qp-serve's engine, the profiler and `bench_perf` all run a [`Job`], so a
//! check or a fix written here reaches every front end.
//!
//! Without `ranks`, each direction runs inline on the caller's thread over a
//! one-rank world. With `ranks`, each runs under the supervised SPMD driver
//! ([`parallel_dfpt_direction_resilient`]), and when its resilience layer has
//! a checkpoint directory the ground state is checkpointed to
//! `<dir>/scf.qpck` every `checkpoint_interval` iterations and resumed from
//! there on `restart`. A hook sees every iteration boundary; it can
//! checkpoint the job there ([`Step::resume_state`]) or preempt it, and a job
//! resumed from that [`JobState`] replays the rest bit-exactly.

use crate::dfpt::{DfptDirState, DfptOptions, DfptShared, DirOutcome};
use crate::parallel::ParallelConfig;
use crate::resil::{ck_err, parallel_dfpt_direction_resilient, ResilienceConfig};
use crate::scf::{scf_preemptible, ScfOptions, ScfResult, ScfState};
use crate::system::System;
use crate::{properties, CoreError};
use qp_linalg::DMatrix;
use qp_resil::recovery::RecoveryStats;
use qp_resil::JobDoneDirection;
use std::time::Instant;

/// What one calculation runs on its [`System`] (built by
/// [`System::for_job`]).
#[derive(Debug, Clone)]
pub struct Job {
    /// Ground-state solver settings.
    pub scf: ScfOptions,
    /// Response solver settings.
    pub dfpt: DfptOptions,
    /// Field directions (each `< 3`) to converge, in order; empty runs the
    /// ground state only.
    pub dirs: Vec<usize>,
    /// DFPT over SPMD ranks under the supervisor and its resilience layer;
    /// `None` runs each direction inline.
    pub ranks: Option<(ParallelConfig, ResilienceConfig)>,
}

/// Where a job stands between two iterations: everything a resumed job
/// needs. It is the `QPCK` job record itself — the latest non-converged SCF
/// state (a resumed job replays the short tail of the ground state from
/// it), the converged directions in the job's order, and the loop state of
/// the direction in flight — so a checkpoint holds exactly the job's state.
/// The job never reads `key`; qp-serve keeps the request's content key
/// there.
pub type JobState = qp_resil::JobCheckpoint;

/// What just happened at an iteration boundary.
pub enum Event<'a> {
    /// An SCF iteration ended short of convergence.
    ScfIter(&'a ScfState),
    /// The ground state converged.
    ScfConverged(&'a ScfResult),
    /// An iteration of a field direction ended short of convergence.
    DfptIter(&'a DfptDirState),
    /// Field direction `dir` converged.
    DfptConverged(usize, &'a JobDoneDirection),
}

/// A job at an iteration boundary, as its hook sees it.
pub struct Step<'a> {
    /// What just happened.
    pub event: Event<'a>,
    /// The job's state, less the in-flight direction's loop state, which
    /// `event` carries.
    state: &'a JobState,
}

impl Step<'_> {
    /// The state a job resumed from this boundary starts from.
    pub fn resume_state(&self) -> JobState {
        let mut state = self.state.clone();
        if let Event::DfptIter(st) = self.event {
            state.cur_dir = Some(st.clone());
        }
        state
    }
}

/// A finished job.
#[derive(Debug)]
pub struct JobOutput {
    /// The converged ground state.
    pub ground: ScfResult,
    /// Dipole moment (a.u.).
    pub dipole: [f64; 3],
    /// Polarizability tensor `α` (Bohr³), zero in the columns not run.
    pub alpha: DMatrix,
    /// DFPT iterations per Cartesian direction (0 where not run).
    pub dfpt_iterations: [usize; 3],
    /// `Tr(α)/3` (Bohr³).
    pub isotropic: f64,
    /// Polarizability anisotropy (Bohr³).
    pub anisotropy: f64,
    /// Wall seconds of this run's ground state.
    pub scf_s: f64,
    /// Wall seconds of this run's directions and α contraction.
    pub dfpt_s: f64,
    /// The ground state's checkpoints in the checkpoint directory.
    pub scf_checkpoints: RecoveryStats,
    /// The supervisor's account of each direction run under `ranks`.
    pub dfpt_recovery: Vec<RecoveryStats>,
}

/// A job stage that failed: the ground state (`dir: None`) or a direction.
#[derive(Debug)]
pub struct JobError {
    /// The field direction that failed, if it was not the ground state.
    pub dir: Option<usize>,
    /// Why.
    pub error: CoreError,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.dir {
            None => write!(f, "SCF failed: {}", self.error),
            Some(dir) => write!(f, "DFPT direction {dir} failed: {}", self.error),
        }
    }
}

impl std::error::Error for JobError {}

impl Job {
    /// The full tensor: all three directions, each inline.
    pub fn new(scf: ScfOptions, dfpt: DfptOptions) -> Job {
        Job {
            scf,
            dfpt,
            dirs: vec![0, 1, 2],
            ranks: None,
        }
    }

    /// Run the job from the start, without a hook.
    pub fn run(&self, system: &System) -> Result<JobOutput, JobError> {
        let out = self.run_with(system, &mut JobState::default(), &mut |_| true)?;
        Ok(out.expect("a hook that never stops never preempts"))
    }

    /// Run the job from `state` (the default state starts it afresh),
    /// calling `hook` at every iteration boundary (under `ranks`, not inside
    /// a supervised direction). A hook that returns `false` preempts the job
    /// there: `Ok(None)`, and `state` is where it resumes.
    pub fn run_with(
        &self,
        system: &System,
        state: &mut JobState,
        hook: &mut dyn FnMut(&Step<'_>) -> bool,
    ) -> Result<Option<JobOutput>, JobError> {
        let scf_err = |error| JobError { dir: None, error };
        let scf_file = self
            .ranks
            .as_ref()
            .and_then(|(_, rcfg)| Some((rcfg.checkpoint_dir.as_ref()?.join("scf.qpck"), rcfg)));
        if let Some((path, rcfg)) = &scf_file {
            if rcfg.restart && path.exists() {
                state.scf = Some(ScfState::load(path).map_err(|e| scf_err(ck_err(e)))?);
            }
        }
        let mut scf_checkpoints = RecoveryStats::default();
        let mut io_error = None;
        let t0 = Instant::now();
        let ground = scf_preemptible(system, &self.scf, state.scf.clone(), &mut |st| {
            if let Some((path, rcfg)) = &scf_file {
                let k = rcfg.checkpoint_interval;
                if k != 0 && st.iteration % k == 0 && io_error.is_none() {
                    scf_checkpoints.checkpoints_written += 1;
                    scf_checkpoints.checkpoint_bytes = st.to_bytes().len();
                    io_error = st.save(path).err();
                }
            }
            state.scf = Some(st);
            let st = state.scf.as_ref().expect("just stored");
            hook(&Step {
                event: Event::ScfIter(st),
                state,
            })
        })
        .map_err(scf_err)?;
        let scf_s = t0.elapsed().as_secs_f64();
        if let Some(e) = io_error {
            return Err(scf_err(ck_err(e)));
        }
        let Some(ground) = ground else {
            return Ok(None);
        };
        if !hook(&Step {
            event: Event::ScfConverged(&ground),
            state,
        }) {
            return Ok(None);
        }

        let dipole = properties::dipole_moment(system, &ground);
        let t1 = Instant::now();
        let shared = DfptShared::new(system, &ground);
        let mut dfpt_recovery = Vec::new();
        for &dir in self.dirs.iter().skip(state.dirs_done.len()) {
            let fail = |error| JobError {
                dir: Some(dir),
                error,
            };
            let (iterations, p1) = match &self.ranks {
                None => {
                    // The state of another direction (from another job's
                    // resume state) restarts this one afresh.
                    let resume = state.cur_dir.take().filter(|st| st.dir == dir);
                    let outcome = shared
                        .run_solo(system, &ground, dir, &self.dfpt, resume, &mut |st| {
                            hook(&Step {
                                event: Event::DfptIter(st),
                                state,
                            })
                        })
                        .map_err(fail)?;
                    match outcome {
                        DirOutcome::Converged(resp) => (resp.iterations, resp.p1),
                        DirOutcome::Preempted(st) => {
                            state.cur_dir = Some(st);
                            return Ok(None);
                        }
                    }
                }
                Some((cfg, rcfg)) => {
                    let out = parallel_dfpt_direction_resilient(
                        system, &ground, dir, &self.dfpt, cfg, rcfg,
                    )
                    .map_err(fail)?;
                    dfpt_recovery.push(out.stats);
                    (out.direction.iterations, out.direction.p1)
                }
            };
            // α_IJ = ∫ r_I n¹_J = Tr[P¹_J D_I] (Eq. 13).
            let alpha_col = [0, 1, 2].map(|i| p1.trace_product(&shared.dips[i]).expect("nb x nb"));
            state.dirs_done.push(JobDoneDirection {
                iterations,
                alpha_col,
            });
            let done = state.dirs_done.last().expect("just pushed");
            if !hook(&Step {
                event: Event::DfptConverged(dir, done),
                state,
            }) {
                return Ok(None);
            }
        }
        let mut alpha = DMatrix::zeros(3, 3);
        let mut dfpt_iterations = [0usize; 3];
        for (&dir, d) in self.dirs.iter().zip(&state.dirs_done) {
            for i in 0..3 {
                alpha[(i, dir)] = d.alpha_col[i];
            }
            dfpt_iterations[dir] = d.iterations;
        }
        Ok(Some(JobOutput {
            isotropic: properties::isotropic_polarizability(&alpha),
            anisotropy: properties::polarizability_anisotropy(&alpha),
            ground,
            dipole,
            alpha,
            dfpt_iterations,
            scf_s,
            dfpt_s: t1.elapsed().as_secs_f64(),
            scf_checkpoints,
            dfpt_recovery,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{CollectiveScheme, MappingKind};
    use crate::scf::scf;
    use qp_chem::basis::BasisSettings;
    use qp_chem::elements::Element;
    use qp_chem::geometry::{Atom, Structure};
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;

    fn tiny_system(structure: Structure) -> System {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        System::build(structure, BasisSettings::Light, &gs, 120, 2)
    }

    fn one_rank() -> ParallelConfig {
        ParallelConfig {
            n_ranks: 1,
            ranks_per_node: 1,
            mapping: MappingKind::LocalityEnhancing,
            collectives: CollectiveScheme::Packed,
        }
    }

    #[test]
    fn scf_checkpoint_resume_is_bit_exact() {
        let sys = tiny_system(water());
        let linear = ScfOptions {
            pulay: None,
            ..ScfOptions::default()
        };
        for (name, opts) in [("pulay", ScfOptions::default()), ("linear", linear)] {
            let reference = scf(&sys, &opts).unwrap();

            let dir = std::env::temp_dir().join(format!("qp_job_scf_resume_{name}"));
            std::fs::create_dir_all(&dir).unwrap();
            let rcfg = ResilienceConfig {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_interval: 3,
                ..ResilienceConfig::default()
            };
            let job = |rcfg: &ResilienceConfig| Job {
                dirs: Vec::new(),
                ranks: Some((one_rank(), rcfg.clone())),
                ..Job::new(opts, DfptOptions::default())
            };
            let first = job(&rcfg).run(&sys).unwrap();
            assert_eq!(first.ground.energy.to_bits(), reference.energy.to_bits());
            assert!(first.scf_checkpoints.checkpoints_written > 0);
            // Linear mixing keeps no history to capture.
            let ck = ScfState::load(&dir.join("scf.qpck")).unwrap();
            if opts.pulay.is_none() {
                assert!(ck.diis_in.is_empty() && ck.diis_res.is_empty(), "{name}");
            }

            // "Process death": rerun from the on-disk checkpoint. The resumed
            // run replays the tail of the cycle and lands on the identical
            // ground state.
            let restart = ResilienceConfig {
                restart: true,
                ..rcfg
            };
            let second = job(&restart).run(&sys).unwrap().ground;
            assert_eq!(
                second.energy.to_bits(),
                reference.energy.to_bits(),
                "{name}"
            );
            assert_eq!(second.iterations, reference.iterations, "{name}");
            assert!(
                second
                    .density_matrix
                    .max_abs_diff(&reference.density_matrix)
                    == 0.0
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// One rank under the supervisor is the inline job to the bit, and a job
    /// over a subset of the directions computes the same columns.
    #[test]
    fn job_bits_do_not_depend_on_ranks_or_direction_subset() {
        let sys = tiny_system(water());
        let solo = Job::new(ScfOptions::default(), DfptOptions::default());
        let full = solo.run(&sys).unwrap();
        let bits = |m: &DMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let ranked = Job {
            ranks: Some((one_rank(), ResilienceConfig::with_interval(2))),
            ..solo.clone()
        }
        .run(&sys)
        .unwrap();
        assert_eq!(bits(&ranked.alpha), bits(&full.alpha));
        assert_eq!(ranked.dfpt_iterations, full.dfpt_iterations);
        assert_eq!(ranked.ground.energy.to_bits(), full.ground.energy.to_bits());
        assert_eq!(ranked.dfpt_recovery.len(), 3);

        let y = Job {
            dirs: vec![1],
            ..solo.clone()
        }
        .run(&sys)
        .unwrap();
        for i in 0..3 {
            assert_eq!(y.alpha[(i, 1)].to_bits(), full.alpha[(i, 1)].to_bits());
            assert_eq!(y.alpha[(i, 0)], 0.0);
            assert_eq!(y.alpha[(i, 2)], 0.0);
        }
        assert_eq!(y.dfpt_iterations, [0, full.dfpt_iterations[1], 0]);
    }

    /// The OH radical has 9 electrons: integer occupations would run it as
    /// OH⁻, so the job stops before the first SCF iteration.
    #[test]
    fn odd_electron_count_without_smearing_is_refused() {
        let oh = Structure::new(vec![
            Atom::new(Element::O, [0.0, 0.0, 0.0]),
            Atom::new(Element::H, [0.0, 0.0, 1.83]),
        ]);
        let sys = tiny_system(oh);
        let mut steps = 0;
        let out = Job::new(ScfOptions::default(), DfptOptions::default()).run_with(
            &sys,
            &mut JobState::default(),
            &mut |_| {
                steps += 1;
                true
            },
        );
        let err = out.expect_err("refused");
        assert!(err.dir.is_none(), "{err}");
        assert!(
            matches!(err.error, CoreError::OpenShell { electrons: 9 }),
            "{err}"
        );
        assert_eq!(steps, 0, "refused before the first iteration");
    }
}
