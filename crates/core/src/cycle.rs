//! The one self-consistency loop (Fig. 1 of the paper). The ground-state
//! SCF ([`mod@crate::scf`]) and every DFPT field direction ([`crate::dfpt`])
//! are cycles of [`run`]. An iteration maps the iterate `X` (`P` or `P¹`)
//! through Sumup (its density, Eq. 8), Rho (the moments summed across
//! ranks, one Poisson solve per rank and the Hartree potential, Eq. 9), the
//! cycle's xc term (`v_xc(n)` or `f_xc·n¹`, Eq. 12) and H (the potential
//! matrix summed across ranks, Eqs. 10–11) to the cycle's own step, then
//! mixes through [`MixState`] and tests the residual.
//!
//! The SCF and the serial DFPT driver run the loop on a one-rank
//! [`Comm::solo`] over every batch, the distributed drivers on each SPMD
//! rank over its own batches. On one rank every collective hands back the
//! caller's own bits, so the one-rank loop is the serial driver.

use crate::mixing::{DfptMixer, MixState};
use crate::parallel::{synthesize_moments, CollectiveScheme};
use crate::system::System;
use crate::{operators, phase_span, CoreError, Result};
use qp_linalg::DMatrix;
use qp_mpi::{Comm, CommError, ReduceOp};
use qp_trace::{Gauge, Phase};

/// A cycle's names, residual, stop tests and mixer.
pub(crate) struct Spec {
    pub(crate) what: &'static str,
    /// The phase of the iteration spans and of work no finer span covers.
    pub(crate) phase: Phase,
    /// The iteration span's name, which is also its fault point.
    pub(crate) iter: &'static str,
    pub(crate) gauge: Gauge,
    /// The residual is `‖X_out − X_in‖` before mixing, and a converged
    /// cycle ends on the unmixed `X_out` (the SCF); else it is
    /// `‖X_mixed − X_in‖` after mixing (DFPT).
    pub(crate) before_mixing: bool,
    pub(crate) max_iter: usize,
    pub(crate) tol: f64,
    pub(crate) mixer: DfptMixer,
    pub(crate) mixing: f64,
}

/// The iteration count, the iterate and the mixer's input and residual
/// histories of a loop state.
pub(crate) type Parts<'a> = (
    &'a mut usize,
    &'a mut DMatrix,
    &'a mut Vec<DMatrix>,
    &'a mut Vec<DMatrix>,
);

/// A self-consistency cycle.
pub(crate) trait Cycle: Sized {
    /// The loop-carried state: the job record's SCF seed or in-flight
    /// direction itself, so the hook borrows what a checkpoint holds.
    type State;
    /// What the step hands on besides the unmixed iterate.
    type Step;
    type Output;
    fn spec(&self) -> Spec;
    fn parts(state: &mut Self::State) -> Parts<'_>;
    /// The xc term at grid point `gi`, where the density is `n`.
    fn xc(&self, gi: usize, n: f64) -> f64;
    /// The unmixed next iterate from the potential matrix `v` and the
    /// iteration's `(density, v_H, v_xc)` on the grid.
    fn step(&self, v: DMatrix, fields: (&[f64], &[f64], &[f64])) -> Result<(DMatrix, Self::Step)>;
    /// Note a non-converged iteration in its state.
    fn record(state: &mut Self::State, step: &Self::Step, residual: f64);
    /// The converged cycle from its state and its last unmixed step.
    fn finish(self, state: Self::State, x: DMatrix, step: Self::Step, iter: usize) -> Self::Output;
}

/// How a cycle that neither failed nor ran out of iterations ended.
pub(crate) enum Outcome<O, S> {
    Converged(O),
    /// The hook preempted it; a later run resumes from this state.
    Preempted(S),
}

type Ended<C> = Result<Outcome<<C as Cycle>::Output, <C as Cycle>::State>>;

/// The loop of `cycle` on `comm` from `state`, this rank working on
/// `batches` (ascending ids; the ranks cover every batch once), until the
/// residual is below the tolerance, the first non-finite residual or mixed
/// iterate, or the iteration limit.
///
/// Each iteration is a fault point. After every iteration that neither
/// converged nor failed, `on_iter` borrows the state: it may checkpoint it,
/// and it returns `false` to preempt the cycle there. The collectives fold
/// in rank order and all after them is replicated, so every rank takes the
/// same branch. The outer error is a communication failure.
pub(crate) fn run<C: Cycle>(
    system: &System,
    cycle: C,
    comm: &Comm,
    batches: &[usize],
    collectives: CollectiveScheme,
    mut state: C::State,
    on_iter: &mut dyn FnMut(&C::State) -> std::result::Result<bool, CommError>,
) -> std::result::Result<Ended<C>, CommError> {
    let spec = cycle.spec();
    let _label = qp_par::LabelGuard::set(spec.phase.as_str());
    // This rank's grid points in grid order, so the Hartree evaluation
    // streams its plan (a point's value does not depend on the order); the
    // evaluation takes `None` when the rank holds every point.
    let mut points: Vec<usize> = batches
        .iter()
        .flat_map(|&b| system.batches[b].points.iter())
        .map(|pt| pt.grid_index as usize)
        .collect();
    points.sort_unstable();
    let subset = (points.len() < system.n_points()).then_some(&points[..]);
    // The mixer lives as long as the loop, so the Gram matrix of its
    // residual history carries from one iteration to the next (a cycle
    // that starts or resumes rebuilds it at its first DIIS step); the
    // history stays in the state, which the hook checkpoints, and is lent
    // to the mixer for each step.
    let mut mixer = MixState::new(spec.mixer, spec.mixing);
    let mut residual = f64::INFINITY;
    while *C::parts(&mut state).0 < spec.max_iter {
        let iter = *C::parts(&mut state).0 + 1;
        comm.fault_point(spec.iter, iter as u64)?;
        let mut span = qp_trace::SpanGuard::begin(qp_trace::thread_rank(), spec.phase, spec.iter);
        if span.is_recording() {
            span.arg("iter", iter);
        }
        let n = {
            let _s = phase_span(Phase::Sumup, "sumup");
            system.density_on(C::parts(&mut state).1, batches)
        };
        let v_h = {
            let _s = phase_span(Phase::Rho, "rho");
            let mut moments = system.multipole_moments(&n);
            synthesize_moments(comm, collectives, &mut moments)?;
            system.hartree_potential(&moments, subset)
        };
        let (v_xc, v) = {
            let _s = phase_span(Phase::Xc, "xc");
            let mut v_xc = vec![0.0; n.len()];
            for &gi in &points {
                v_xc[gi] = cycle.xc(gi, n[gi]);
            }
            let v: Vec<f64> = v_h.iter().zip(&v_xc).map(|(a, b)| a + b).collect();
            (v_xc, v)
        };
        let v = {
            let _s = phase_span(Phase::H, "h");
            let part = operators::potential_matrix_on(system, &v, batches);
            let sum = comm.allreduce(ReduceOp::Sum, part.as_slice())?;
            DMatrix::from_vec(part.rows(), part.cols(), sum).expect("same shape")
        };
        let (x_out, step) = match cycle.step(v, (&n, &v_h, &v_xc)) {
            Ok(out) => out,
            Err(e) => return Ok(Err(e)),
        };
        if spec.before_mixing {
            residual = x_out.max_abs_diff(C::parts(&mut state).1);
        }
        // A cycle converged before mixing leaves its state untouched.
        if !(spec.before_mixing && residual < spec.tol) {
            let _s = phase_span(Phase::Mixing, "mixing");
            let (iteration, x, inputs, residuals) = C::parts(&mut state);
            mixer.swap_history(inputs, residuals);
            let next = mixer.step(x, &x_out);
            mixer.swap_history(inputs, residuals);
            if !spec.before_mixing {
                residual = next.max_abs_diff(x);
            }
            (*x, *iteration) = (next, iter);
            C::record(&mut state, &step, residual);
        }
        spec.gauge.set(residual);
        if span.is_recording() {
            span.arg("residual", residual);
        }
        let x = C::parts(&mut state).1.as_slice();
        if !residual.is_finite() || !x.iter().all(|e| e.is_finite()) {
            return Ok(Err(CoreError::NonFinite {
                what: spec.what,
                iteration: iter,
                residual,
            }));
        }
        if residual < spec.tol {
            let out = cycle.finish(state, x_out, step, iter);
            return Ok(Ok(Outcome::Converged(out)));
        }
        if !on_iter(&state)? {
            return Ok(Ok(Outcome::Preempted(state)));
        }
    }
    Ok(Err(CoreError::NoConvergence {
        what: spec.what,
        iterations: spec.max_iter,
        residual,
    }))
}
