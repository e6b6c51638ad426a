//! One calculation end to end — the pipeline of Fig. 1, run the way
//! FHI-aims runs one `control.in`: the ground-state SCF, the DFPT cycle of
//! each field direction, then the polarizability and the dipole. `qperturb`,
//! qp-serve's engine, the profiler and `bench_perf` all run a [`Job`], so a
//! check or a fix written here reaches every front end.
//!
//! The SCF and, without `ranks`, each direction run inline on the caller's
//! thread over a one-rank world; with `ranks`, each direction runs under
//! the supervised SPMD driver of [`crate::resil`]. A hook borrows the loop
//! state at every iteration boundary (under `ranks`, not inside a
//! supervised direction) and can preempt the job there; a job resumed from
//! that [`JobState`] replays the rest bit-exactly. With `checkpoint`, the
//! job is the one writer of that state to disk, as its `QPCK` job record:
//! at every `k`-th iteration, at every commit of a supervised direction,
//! and wherever the hook preempts it. It copies the loop state only into
//! the record it writes.

use crate::cycle::Outcome;
use crate::dfpt::{DfptDirState, DfptOptions, DfptShared};
use crate::parallel::ParallelConfig;
use crate::resil::{ck_err, supervise, ResilienceConfig};
use crate::scf::{self, ScfOptions, ScfResult, ScfState};
use crate::system::System;
use crate::{properties, CoreError};
use qp_linalg::DMatrix;
use qp_resil::recovery::RecoveryStats;
use qp_resil::JobDoneDirection;
use std::cell::Cell;
use std::path::PathBuf;
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
    /// The file the job writes its [`JobState`] to, and every how many SCF
    /// or DFPT iterations (0: only where the hook preempts). A record that
    /// cannot be written ends the job with [`CoreError::Checkpoint`].
    pub checkpoint: Option<(PathBuf, usize)>,
}

/// Where the job stands between two iterations: everything a resumed job
/// needs. It is the `QPCK` job record itself — the latest non-converged SCF
/// state (a resumed job replays the short tail of the ground state from
/// it), the converged directions in the job's order, and the loop state of
/// the direction in flight — so a checkpoint holds exactly the job's state.
/// The job never reads `key`; the front ends keep the job's content key
/// there and refuse to resume from another job's state.
pub type JobState = qp_resil::JobCheckpoint;

/// What just happened at an iteration boundary, as the job's hook sees it.
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
            checkpoint: None,
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
    /// there: `Ok(None)`, and `state` is where it resumes. A `state` whose
    /// matrices do not fit `system` ends the job with
    /// [`CoreError::Checkpoint`] before it starts.
    pub fn run_with(
        &self,
        system: &System,
        state: &mut JobState,
        hook: &mut dyn FnMut(&Event<'_>) -> bool,
    ) -> Result<Option<JobOutput>, JobError> {
        check_fits(state, system.n_basis())?;
        let scf_err = |error| JobError { dir: None, error };
        let every = self.checkpoint.as_ref().map_or(0, |(_, k)| *k);
        let due = |iteration: usize| every != 0 && iteration.is_multiple_of(every);
        // Write `state` with the SCF seed and in-flight direction borrowed
        // from the loop that holds them.
        let record = |st: &JobState, scf: Option<&ScfState>, cur: Option<&DfptDirState>| {
            let path = self.checkpoint.as_ref().map(|(path, _)| path);
            path.map_or(Ok(()), |p| st.save_with(p, scf, cur).map_err(ck_err))
        };
        // The hook at every boundary. Where it stops the job or a record is
        // due, the record is written; one that cannot be written stops the
        // job too, and its error ends it.
        let write_error = Cell::new(None);
        let mut boundary = |event: &Event<'_>,
                            st: &JobState,
                            scf: Option<&ScfState>,
                            cur: Option<&DfptDirState>| {
            let due = match event {
                Event::ScfIter(s) => due(s.iteration),
                Event::DfptIter(s) => due(s.iteration),
                _ => false,
            };
            let go = hook(event);
            let write = !go || due;
            let failed = |e| write_error.set(Some(e));
            let written = !write || record(st, scf, cur).map_err(failed).is_ok();
            written && go
        };
        let stop = || write_error.take().map_or(Ok(None), Err);

        let t0 = Instant::now();
        let resume = state.scf.take();
        let outcome = scf::ground_state(system, &self.scf, resume, &mut |st| {
            boundary(&Event::ScfIter(st), state, Some(st), state.cur_dir.as_ref())
        })
        .map_err(scf_err)?;
        let scf_s = t0.elapsed().as_secs_f64();
        let ground = match outcome {
            Outcome::Converged((ground, seed)) => {
                // A cycle that converged at its first iteration saw no
                // boundary, and a fresh one leaves no seed.
                state.scf = (seed.iteration > 0).then_some(seed);
                ground
            }
            Outcome::Preempted(seed) => {
                state.scf = Some(seed);
                return stop().map_err(scf_err);
            }
        };
        let event = Event::ScfConverged(&ground);
        if !boundary(&event, state, state.scf.as_ref(), state.cur_dir.as_ref()) {
            return stop().map_err(scf_err);
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
            let direction = shared.direction(system, &ground, dir, &self.dfpt);
            // The state of another direction (from another job's resume
            // state) restarts this one afresh.
            let resume = state.cur_dir.take().filter(|st| st.dir == dir);
            let (iterations, p1) = match &self.ranks {
                None => {
                    let outcome = direction
                        .run_solo(resume, &mut |st| {
                            boundary(&Event::DfptIter(st), state, state.scf.as_ref(), Some(st))
                        })
                        .map_err(fail)?;
                    match outcome {
                        Outcome::Converged(resp) => (resp.iterations, resp.p1),
                        Outcome::Preempted(st) => {
                            state.cur_dir = Some(st);
                            return stop().map_err(fail);
                        }
                    }
                }
                Some((cfg, rcfg)) => {
                    let base = &*state;
                    let out = supervise(&direction, cfg, rcfg, resume, &|st| {
                        record(base, base.scf.as_ref(), Some(st))
                    })
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
            let event = Event::DfptConverged(dir, state.dirs_done.last().expect("just pushed"));
            if !boundary(&event, state, state.scf.as_ref(), None) {
                return stop().map_err(fail);
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
            dfpt_recovery,
        }))
    }
}

/// Refuse a resume state whose SCF seed or in-flight direction does not fit
/// a system of `nb` basis functions: every matrix `nb × nb`, and as many
/// mixer inputs as residuals. The content key hashes a job's inputs, not
/// the code, so a record written by a build with other basis tables passes
/// the key check and lands here.
fn check_fits(state: &JobState, nb: usize) -> Result<(), JobError> {
    let fits = |p: &DMatrix, ins: &[DMatrix], res: &[DMatrix]| {
        if ins.len() != res.len() {
            return Err(format!(
                "{} mixer inputs but {} residuals",
                ins.len(),
                res.len()
            ));
        }
        let odd = std::iter::once(p)
            .chain(ins)
            .chain(res)
            .find(|m| (m.rows(), m.cols()) != (nb, nb));
        odd.map_or(Ok(()), |m| {
            Err(format!(
                "a {} x {} matrix, but the system has {nb} basis functions",
                m.rows(),
                m.cols()
            ))
        })
    };
    let refuse = |dir, what: &str, why| JobError {
        dir,
        error: CoreError::Checkpoint(format!("the record's {what} holds {why}")),
    };
    if let Some(s) = &state.scf {
        fits(&s.p_mat, &s.diis_in, &s.diis_res).map_err(|why| refuse(None, "SCF seed", why))?;
    }
    if let Some(d) = &state.cur_dir {
        let what = format!("direction {} in flight", d.dir);
        fits(&d.p1, &d.diis_in, &d.diis_res).map_err(|why| refuse(Some(d.dir), &what, why))?;
    }
    Ok(())
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

    /// A scratch file for a test's job record.
    fn record_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qp_job_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("job.qpck")
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

            let path = record_path(&format!("scf_resume_{name}"));
            let job = Job {
                dirs: Vec::new(),
                checkpoint: Some((path.clone(), 3)),
                ..Job::new(opts, DfptOptions::default())
            };
            let first = job.run(&sys).unwrap();
            assert_eq!(first.ground.energy.to_bits(), reference.energy.to_bits());
            let record = JobState::load(&path).unwrap();
            let seed = record.scf.as_ref().expect("an SCF seed");
            assert!(seed.iteration.is_multiple_of(3), "{name}");
            // Linear mixing keeps no history to capture.
            if opts.pulay.is_none() {
                assert!(
                    seed.diis_in.is_empty() && seed.diis_res.is_empty(),
                    "{name}"
                );
            }

            // "Process death": rerun from the on-disk record. The resumed
            // run replays the tail of the cycle and lands on the identical
            // ground state.
            let second = job
                .run_with(&sys, &mut JobState::load(&path).unwrap(), &mut |_| true)
                .unwrap()
                .expect("not preempted")
                .ground;
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
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }

    /// A job preempted mid-direction leaves its resume state on disk, and a
    /// job resumed from that file lands on the uninterrupted α bits.
    #[test]
    fn preempted_job_writes_its_state_and_resumes_bit_exactly() {
        let sys = tiny_system(water());
        let path = record_path("preempt");
        let job = Job {
            checkpoint: Some((path.clone(), 5)),
            ..Job::new(ScfOptions::default(), DfptOptions::default())
        };
        let mut state = JobState::default();
        let mut preempted = false;
        let out = job
            .run_with(&sys, &mut state, &mut |ev| {
                let stop = !preempted && matches!(ev, Event::DfptIter(st) if st.iteration == 3);
                preempted |= stop;
                !stop
            })
            .unwrap();
        assert!(out.is_none() && preempted);
        let cur = state.cur_dir.as_ref().expect("an in-flight direction");
        assert_eq!((cur.dir, cur.iteration), (0, 3));
        assert_eq!(JobState::load(&path).unwrap(), state);

        let bits = |m: &DMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let plain = Job::new(ScfOptions::default(), DfptOptions::default())
            .run(&sys)
            .unwrap();
        // The record's SCF seed is the last non-converged SCF iteration.
        let seed = state.scf.as_ref().expect("an SCF seed");
        assert_eq!(seed.iteration, plain.ground.iterations - 1);
        let resumed = job
            .run_with(&sys, &mut JobState::load(&path).unwrap(), &mut |_| true)
            .unwrap()
            .expect("not preempted");
        assert_eq!(bits(&resumed.alpha), bits(&plain.alpha));
        assert_eq!(resumed.dfpt_iterations, plain.dfpt_iterations);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
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

    /// A record written by a build with other basis tables passes the
    /// content-key check; an SCF seed or in-flight direction of another
    /// basis size, or a mixer history with more inputs than residuals, is
    /// refused before the first iteration.
    #[test]
    fn resume_state_that_does_not_fit_the_system_is_refused() {
        let sys = tiny_system(water());
        let m = DMatrix::identity;
        let seed = |p_mat, diis_in, diis_res| JobState {
            scf: Some(ScfState {
                iteration: 4,
                energy: -76.0,
                p_mat,
                diis_in,
                diis_res,
            }),
            ..JobState::default()
        };
        let in_flight = |p1| JobState {
            cur_dir: Some(DfptDirState {
                dir: 0,
                iteration: 4,
                residual: 1e-3,
                p1,
                diis_in: Vec::new(),
                diis_res: Vec::new(),
            }),
            ..JobState::default()
        };
        let nb = sys.n_basis();
        let (two, one) = (vec![m(nb); 2], vec![m(nb)]);
        let cases = [
            (seed(m(2), vec![], vec![]), None, "a 2 x 2 matrix"),
            (seed(m(10), vec![], vec![]), None, "a 10 x 10 matrix"),
            (in_flight(m(2)), Some(0), "a 2 x 2 matrix"),
            (in_flight(m(10)), Some(0), "a 10 x 10 matrix"),
            (seed(m(nb), two, one), None, "2 mixer inputs but 1"),
        ];
        let job = Job::new(ScfOptions::default(), DfptOptions::default());
        for (mut state, dir, want) in cases {
            let err = job
                .run_with(&sys, &mut state, &mut |_| panic!("no iteration runs"))
                .expect_err("refused");
            assert_eq!(err.dir, dir, "{err}");
            assert!(
                matches!(&err.error, CoreError::Checkpoint(e) if e.contains(want)),
                "{err}"
            );
        }
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
