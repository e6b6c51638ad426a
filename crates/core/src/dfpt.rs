//! The DFPT self-consistency cycle (Fig. 1 of the paper) and the
//! polarizability (Eq. 13).
//!
//! Per field direction `J`:
//!
//! * **Sumup** — response density `n¹(r) = Σ P¹_μν χ_μ χ_ν` (Eq. 8)
//! * **Rho**   — response electrostatic potential `v¹_es,tot` via the
//!   multipole Poisson solver (Eq. 9)
//! * **H**     — response Hamiltonian
//!   `H¹_μν = ⟨χ_μ| v¹_es,tot + f_xc n¹ − r_J |χ_ν⟩` (Eqs. 10–12)
//! * Sternheimer update: the response density matrix from the
//!   occupation-aware pair formula ([`sternheimer_response`]; Eq. 7 at
//!   integer occupations), mixed into `P¹` until `‖ΔP¹‖ < tol`.
//!
//! One loop, `Direction::run`, runs the cycle over a `qp_mpi::Comm`:
//! each rank does the grid work of its own batches and collectives rebuild
//! the replicated moments and `H¹`, so the serial entry points here are
//! the one-rank case of the distributed drivers in [`crate::parallel`].
//!
//! The perturbation convention follows Eq. 11 (`ĥ¹ = … − r_J`), so the
//! polarizability is `α_IJ = ∫ r_I n¹_J = Tr[P¹_J D_I] > 0` for physical
//! systems.

use crate::mixing::{DfptMixer, MixState};
use crate::operators;
use crate::parallel::{comm_failure, synthesize_moments, CollectiveScheme};
use crate::scf::ScfResult;
use crate::system::System;
use crate::{CoreError, Result};
use qp_chem::xc;
use qp_linalg::DMatrix;
use qp_mpi::{Comm, CommError, ReduceOp};

/// The symmetric Sternheimer weight matrix in the MO basis:
///
/// `W_pq = (f_p − f_q)/(ε_p − ε_q) · H¹(MO)_pq`, zero on the diagonal and
/// on pairs with `f_p = f_q` (they do not respond). `W` is symmetric: the
/// prefactor is even under `p ↔ q` and `H¹(MO)` is symmetric for a
/// symmetric `H¹`. Built in O(n²).
pub fn sternheimer_weights(eigenvalues: &[f64], occupations: &[f64], h1_mo: &DMatrix) -> DMatrix {
    let nb = eigenvalues.len();
    let mut w = DMatrix::zeros(nb, nb);
    for p in 0..nb {
        for q in (p + 1)..nb {
            let df = occupations[p] - occupations[q];
            if df.abs() < 1e-12 {
                continue;
            }
            let wpq = df / (eigenvalues[p] - eigenvalues[q]) * h1_mo[(p, q)];
            w[(p, q)] = wpq;
            w[(q, p)] = wpq;
        }
    }
    w
}

/// First-order response density matrix from the Sternheimer/CPKS pair
/// formula with (possibly fractional) occupations:
///
/// `P¹ = Σ_{p<q} (f_p − f_q)/(ε_p − ε_q) · H¹(MO)_pq · (C_p C_qᵀ + C_q C_pᵀ)`
///
/// At integer occupations this reduces exactly to Eq. 7 with
/// `C¹_i = Σ_a C_a H¹_ai/(ε_i − ε_a)`; with Fermi–Dirac occupations it is
/// the finite-temperature generalization (pairs with `f_p = f_q` do not
/// respond). Since `f` is monotone in `ε`, `f_p ≠ f_q` implies
/// `ε_p ≠ ε_q`, and near-degenerate pairs approach the bounded limit
/// `df/dε`.
///
/// Evaluated in factored GEMM form: with the symmetric weight matrix `W`
/// of [`sternheimer_weights`], the pair sum is algebraically
/// `P¹ = C·W·Cᵀ` — two Level-3 products (O(n³)) instead of the O(n⁴)
/// scalar pair-loop retained in [`sternheimer_response_pairwise`] as the
/// test oracle.
pub fn sternheimer_response(
    c: &DMatrix,
    eigenvalues: &[f64],
    occupations: &[f64],
    h1_mo: &DMatrix,
) -> DMatrix {
    let w = sternheimer_weights(eigenvalues, occupations, h1_mo);
    let cw = c.par_matmul(&w).expect("conforming dims");
    cw.par_matmul(&c.transpose()).expect("conforming dims")
}

/// Occupation classes for screening: `(a, b)` where `[0, a)` is the
/// longest prefix of `occupations` with spread `< 1e-12` (the fully /
/// equally occupied manifold `O*`) and `[b, nb)` the analogous suffix
/// (`V*`), clamped so the two never overlap.  Every pair inside one class
/// has `|f_p − f_q| < 1e-12`, exactly the pairs [`sternheimer_weights`]
/// skips — so `W` is *exactly* `0.0` on the `O*×O*` and `V*×V*` blocks,
/// and `h1_mo` is never read there.  Computed by tracking min/max, no
/// monotonicity assumed.
fn occupation_classes(occupations: &[f64]) -> (usize, usize) {
    let nb = occupations.len();
    if nb == 0 {
        return (0, 0);
    }
    const TOL: f64 = 1e-12;
    let (mut lo, mut hi) = (occupations[0], occupations[0]);
    let mut a = 1;
    for (i, &f) in occupations.iter().enumerate().skip(1) {
        lo = lo.min(f);
        hi = hi.max(f);
        if hi - lo < TOL {
            a = i + 1;
        } else {
            break;
        }
    }
    let (mut lo, mut hi) = (occupations[nb - 1], occupations[nb - 1]);
    let mut b = nb - 1;
    for i in (0..nb - 1).rev() {
        lo = lo.min(occupations[i]);
        hi = hi.max(occupations[i]);
        if hi - lo < TOL {
            b = i;
        } else {
            break;
        }
    }
    (a, b.max(a))
}

/// Screened MO transform of the response Hamiltonian: `Cᵀ·H¹·C` with the
/// `O*×O*` and `V*×V*` diagonal blocks skipped (left exactly `0.0`).
/// [`sternheimer_weights`] checks `|f_p − f_q| < 1e-12` *before* reading
/// `h1_mo[(p, q)]`, so the skipped blocks are never consumed; every
/// computed entry is bit-identical to the dense transform (row/column
/// restriction of a GEMM never changes an element's own k-chain).
pub fn h1_mo_screened(c_t: &DMatrix, h1: &DMatrix, c: &DMatrix, occupations: &[f64]) -> DMatrix {
    let x = c_t.par_matmul(h1).expect("conforming dims");
    let nb = c.rows();
    let (a, b) = occupation_classes(occupations);
    let mut out = DMatrix::zeros(nb, nb);
    // Per column class, the row range that survives: occupied columns
    // pair only with rows outside O*, virtual columns with rows before V*.
    for (c0, c1, r0, r1) in [(0, a, a, nb), (a, b, 0, nb), (b, nb, 0, b)] {
        if c0 >= c1 || r0 >= r1 {
            continue;
        }
        let (nr, nc) = (r1 - r0, c1 - c0);
        let xs = x.as_slice();
        let cs = c.as_slice();
        // A' = X rows r0..r1 (contiguous in row-major storage).
        let ap = &xs[r0 * nb..r1 * nb];
        // B' = C columns c0..c1, packed (exact copies).
        let mut bp = vec![0.0; nb * nc];
        for r in 0..nb {
            bp[r * nc..(r + 1) * nc].copy_from_slice(&cs[r * nb + c0..r * nb + c1]);
        }
        let mut tmp = vec![0.0; nr * nc];
        qp_linalg::gemm::gemm(nr, nc, nb, ap, &bp, &mut tmp, true);
        let os = out.as_mut_slice();
        for r in 0..nr {
            os[(r0 + r) * nb + c0..(r0 + r) * nb + c1].copy_from_slice(&tmp[r * nc..(r + 1) * nc]);
        }
    }
    out
}

/// Screened evaluation of the `C·W` half of `P¹ = C·W·Cᵀ`: per column
/// class of `W`, only the k-range that can hold nonzero weights is
/// contracted (`O*` columns couple only to `k ≥ a`, `V*` columns only to
/// `k < b`).  The skipped `k` terms are *exactly* `0.0` in `W`, and the
/// restricted GEMM calls are issued one per [`qp_linalg::gemm::K_GROUP`]-
/// aligned segment, reproducing the dense k-accumulation grouping — so
/// the result is bit-identical to `c.par_matmul(&w)` at any size.
fn cw_restricted(c: &DMatrix, w: &DMatrix, a: usize, b: usize) -> DMatrix {
    const KG: usize = qp_linalg::gemm::K_GROUP;
    let nb = c.rows();
    let mut out = DMatrix::zeros(nb, nb);
    for (c0, c1, k0, k1) in [(0, a, a, nb), (a, b, 0, nb), (b, nb, 0, b)] {
        if c0 >= c1 {
            continue;
        }
        let nc = c1 - c0;
        let mut tmp = vec![0.0; nb * nc];
        let (cs, ws) = (c.as_slice(), w.as_slice());
        let mut k = k0;
        while k < k1 {
            // One call per K_GROUP-aligned segment intersected with
            // [k0, k1): the dense path zeroes a fresh accumulator tile per
            // segment, so this is the only regrouping that preserves bits.
            let seg_end = ((k / KG + 1) * KG).min(k1);
            let kk = seg_end - k;
            let mut ap = vec![0.0; nb * kk];
            for r in 0..nb {
                ap[r * kk..(r + 1) * kk].copy_from_slice(&cs[r * nb + k..r * nb + seg_end]);
            }
            let mut bp = vec![0.0; kk * nc];
            for r in 0..kk {
                bp[r * nc..(r + 1) * nc].copy_from_slice(&ws[(k + r) * nb + c0..(k + r) * nb + c1]);
            }
            qp_linalg::gemm::gemm(nb, nc, kk, &ap, &bp, &mut tmp, true);
            k = seg_end;
        }
        let os = out.as_mut_slice();
        for r in 0..nb {
            os[r * nb + c0..r * nb + c1].copy_from_slice(&tmp[r * nc..(r + 1) * nc]);
        }
    }
    out
}

/// Screened [`sternheimer_response`]: identical bits, fewer flops.  The
/// occupied and virtual manifolds do not couple to themselves, so the
/// `C·W` contraction restricts each column class to its coupling k-range
/// (following the sparse-response formulation of arXiv:2009.03551); the
/// closing `·Cᵀ` product is dense and unchanged.
pub fn sternheimer_response_screened(
    c: &DMatrix,
    eigenvalues: &[f64],
    occupations: &[f64],
    h1_mo: &DMatrix,
) -> DMatrix {
    let w = sternheimer_weights(eigenvalues, occupations, h1_mo);
    let (a, b) = occupation_classes(occupations);
    let cw = cw_restricted(c, &w, a, b);
    cw.par_matmul(&c.transpose()).expect("conforming dims")
}

/// The original O(n⁴) scalar pair-loop evaluation of the same formula —
/// kept as the oracle for the GEMM-form [`sternheimer_response`] (property
/// tests pin the two against each other, including degenerate spectra).
pub fn sternheimer_response_pairwise(
    c: &DMatrix,
    eigenvalues: &[f64],
    occupations: &[f64],
    h1_mo: &DMatrix,
) -> DMatrix {
    let nb = c.rows();
    let mut p1 = DMatrix::zeros(nb, nb);
    for p in 0..nb {
        for q in (p + 1)..nb {
            let df = occupations[p] - occupations[q];
            if df.abs() < 1e-12 {
                continue;
            }
            let w = df / (eigenvalues[p] - eigenvalues[q]) * h1_mo[(p, q)];
            if w == 0.0 {
                continue;
            }
            for mu in 0..nb {
                let cp = c[(mu, p)];
                let cq = c[(mu, q)];
                for nu in 0..nb {
                    p1[(mu, nu)] += w * (cp * c[(nu, q)] + cq * c[(nu, p)]);
                }
            }
        }
    }
    p1
}

/// DFPT options.
#[derive(Debug, Clone, Copy)]
pub struct DfptOptions {
    /// Maximum DFPT self-consistency iterations per direction.
    pub max_iter: usize,
    /// Convergence threshold on `‖ΔP¹‖` (max abs).
    pub tol: f64,
    /// Mixing factor (linear factor, or DIIS damping + linear fallback).
    pub mixing: f64,
    /// Self-consistency accelerator: plain linear mixing or Pulay/DIIS
    /// extrapolation (the default, matching the SCF loop).
    pub mixer: DfptMixer,
}

impl Default for DfptOptions {
    fn default() -> Self {
        DfptOptions {
            max_iter: 60,
            tol: 1e-7,
            mixing: 0.6,
            mixer: DfptMixer::Pulay { depth: 6 },
        }
    }
}

/// One direction's self-consistent response.
pub struct DirectionResponse {
    /// Converged response density matrix.
    pub p1: DMatrix,
    /// Iterations used.
    pub iterations: usize,
}

/// The loop-carried state of one DFPT direction between iterations:
/// everything needed to resume the Sternheimer self-consistency at
/// `iteration + 1` and replay the remaining iterations **bit-exactly**
/// (the mixer is deterministic in its inputs, so a resumed cycle walks the
/// identical floating-point sequence). The distributed drivers' ranks hold
/// identical copies at every iteration boundary, so rank 0's is a
/// consistent global cut. It is the in-flight direction of a job's `QPCK`
/// record itself.
pub type DfptDirState = qp_resil::JobDirCheckpoint;

/// Outcome of a preemptible DFPT direction run.
pub(crate) enum DirOutcome {
    /// The cycle converged; the physics result.
    Converged(DirectionResponse),
    /// The `on_iter` callback requested preemption; the cycle resumes from
    /// this state.
    Preempted(DfptDirState),
}

/// `f_xc(n₀)` at every grid point (Eq. 12).
pub(crate) fn fxc_on_grid(ground: &ScfResult) -> Vec<f64> {
    let mut fxc = vec![0.0; ground.density.len()];
    qp_par::fill_slice_hinted(&mut fxc, 60, |i| xc::f_xc(ground.density[i].max(0.0)));
    fxc
}

/// Direction-independent data the three field directions share: the
/// dipole matrices, the xc kernel on the grid, and the transposed ground
/// orbitals. The job pipeline ([`crate::job`]) builds this once per job;
/// [`dfpt_direction`] builds it per-call for standalone use.
pub struct DfptShared {
    /// Dipole matrices `D_x, D_y, D_z`.
    pub dips: Vec<DMatrix>,
    /// `f_xc(n0)` at every grid point (Eq. 12).
    pub fxc: Vec<f64>,
    /// `Cᵀ` (for the MO transform of `H¹`).
    pub c_t: DMatrix,
}

impl DfptShared {
    /// Precompute the shared data from the converged ground state.
    pub fn new(system: &System, ground: &ScfResult) -> Self {
        DfptShared {
            dips: (0..3)
                .map(|d| operators::dipole_matrix(system, d))
                .collect(),
            fxc: fxc_on_grid(ground),
            c_t: ground.orbitals.transpose(),
        }
    }

    /// Field direction `dir`'s DFPT loop over this shared data.
    pub(crate) fn direction<'a>(
        &'a self,
        system: &'a System,
        ground: &'a ScfResult,
        dir: usize,
        opts: &'a DfptOptions,
    ) -> Direction<'a> {
        Direction {
            system,
            ground,
            opts,
            dir,
            dip: &self.dips[dir],
            fxc: &self.fxc,
            c_t: &self.c_t,
        }
    }
}

/// What one field direction's DFPT loop reads, and [`Direction::run`], the
/// one DFPT iteration loop of the crate. The serial entry points run it on
/// a one-rank [`Comm::solo`] over every batch; the distributed drivers
/// ([`crate::parallel`], [`crate::resil`]) run it on each SPMD rank over
/// the batches mapped to that rank.
pub(crate) struct Direction<'a> {
    pub(crate) system: &'a System,
    pub(crate) ground: &'a ScfResult,
    pub(crate) opts: &'a DfptOptions,
    /// Cartesian direction of the field.
    pub(crate) dir: usize,
    /// `D_dir`, the perturbation `r_dir` as a matrix.
    pub(crate) dip: &'a DMatrix,
    /// `f_xc(n₀)` at every grid point.
    pub(crate) fxc: &'a [f64],
    /// `Cᵀ`.
    pub(crate) c_t: &'a DMatrix,
}

impl Direction<'_> {
    /// The DFPT loop ([`Direction::run`]) inline on the calling thread,
    /// over a one-rank [`Comm::solo`] covering every batch: the serial
    /// driver. No thread is spawned and the rank tag is left alone, so the
    /// spans it opens land on the caller's timeline (qp-serve routes a
    /// job's spans by it). `resume` and `on_iter` are those of
    /// [`Direction::run`], with `false` preempting.
    pub(crate) fn run_solo(
        &self,
        resume: Option<DfptDirState>,
        on_iter: &mut dyn FnMut(&DfptDirState) -> bool,
    ) -> Result<DirOutcome> {
        let all: Vec<usize> = (0..self.system.batches.len()).collect();
        // On one rank every scheme hands the moments back unchanged; the
        // packed one does it in a single call.
        self.run(
            &Comm::solo(),
            &all,
            CollectiveScheme::Packed,
            resume,
            &mut |st| Ok(on_iter(st)),
        )
        .map_err(comm_failure)?
    }

    /// The DFPT cycle of this direction on `comm`, this rank working on
    /// `batches` (ascending ids; together the ranks cover every batch
    /// once). From `resume` (or zero `P¹`), iterate until `‖ΔP¹‖ < tol`,
    /// the first non-finite residual, or `max_iter`.
    ///
    /// Each iteration is a fault-injection point (a no-op without a fault
    /// hook), and after every iteration that neither converged nor failed
    /// `on_iter` sees the loop-carried state: it may checkpoint it, and it
    /// returns `false` to preempt the cycle there. The collectives fold in
    /// rank order and everything after them is replicated, so every rank
    /// takes the same branch at the same iteration; on one rank the
    /// collectives hand back the caller's own bits and the loop is the
    /// serial driver.
    ///
    /// The outer error is a communication failure; the inner result is the
    /// cycle's own outcome.
    pub(crate) fn run(
        &self,
        comm: &Comm,
        batches: &[usize],
        collectives: CollectiveScheme,
        resume: Option<DfptDirState>,
        on_iter: &mut dyn FnMut(&DfptDirState) -> std::result::Result<bool, CommError>,
    ) -> std::result::Result<Result<DirOutcome>, CommError> {
        const WHAT: &str = "DFPT self-consistency";
        let system = self.system;
        let nb = system.n_basis();
        let mut dir_span = qp_trace::SpanGuard::begin(
            qp_trace::thread_rank(),
            qp_trace::Phase::Dfpt,
            "dfpt.direction",
        );
        if dir_span.is_recording() {
            dir_span.arg("dir", self.dir).arg("basis", nb);
        }
        // Work not covered by a finer phase_span (mixing, residual norms)
        // lands in the "dfpt" bucket rather than "other".
        let _label = qp_par::LabelGuard::set("dfpt");
        let dir_label = ["x", "y", "z"][self.dir.min(2)];
        let residual_gauge =
            qp_trace::global_metrics().gauge("dfpt.residual", &[("dir", dir_label)]);

        let mut state = resume.unwrap_or_else(|| DfptDirState {
            dir: self.dir,
            iteration: 0,
            p1: DMatrix::zeros(nb, nb),
            residual: f64::INFINITY,
            diis_in: Vec::new(),
            diis_res: Vec::new(),
        });
        // The grid points this rank evaluates v¹ at.
        let points: Vec<usize> = batches
            .iter()
            .flat_map(|&b| system.batches[b].points.iter())
            .map(|pt| pt.grid_index as usize)
            .collect();

        while state.iteration < self.opts.max_iter {
            let iter = state.iteration + 1;
            // A planned crash or stall at iteration `iter` fires here,
            // before the iteration's collectives.
            comm.fault_point("dfpt.iter", iter as u64)?;
            let mut iter_span = qp_trace::SpanGuard::begin(
                qp_trace::thread_rank(),
                qp_trace::Phase::Dfpt,
                "dfpt.iter",
            );
            if iter_span.is_recording() {
                iter_span.arg("iter", iter);
            }
            let p1_target = self.response(comm, batches, &points, collectives, &state.p1)?;

            // Mix P¹: linear or Pulay/DIIS per `opts.mixer`, the history
            // moving through the mixer and back into the state.
            let mut mixer = MixState::with_history(
                self.opts.mixer,
                self.opts.mixing,
                std::mem::take(&mut state.diis_in),
                std::mem::take(&mut state.diis_res),
            );
            let p1 = mixer.step(&state.p1, &p1_target);
            (state.diis_in, state.diis_res) = mixer.into_history();
            state.residual = p1.max_abs_diff(&state.p1);
            state.p1 = p1;
            state.iteration = iter;
            residual_gauge.set(state.residual);
            if iter_span.is_recording() {
                iter_span.arg("residual", state.residual);
            }
            if !state.residual.is_finite() {
                return Ok(Err(CoreError::NonFinite {
                    what: WHAT,
                    iteration: iter,
                    residual: state.residual,
                }));
            }
            if state.residual < self.opts.tol {
                return Ok(Ok(DirOutcome::Converged(DirectionResponse {
                    p1: state.p1,
                    iterations: iter,
                })));
            }
            if !on_iter(&state)? {
                return Ok(Ok(DirOutcome::Preempted(state)));
            }
        }
        Ok(Err(CoreError::NoConvergence {
            what: WHAT,
            iterations: self.opts.max_iter,
            residual: state.residual,
        }))
    }

    /// One pass of Fig. 1 from `p1`: the unmixed `P¹` the Sternheimer
    /// equation returns for the potential `p1` induces.
    fn response(
        &self,
        comm: &Comm,
        batches: &[usize],
        points: &[usize],
        collectives: CollectiveScheme,
        p1: &DMatrix,
    ) -> std::result::Result<DMatrix, CommError> {
        let system = self.system;
        let nb = system.n_basis();
        let c = &self.ground.orbitals;
        let (eps, occ) = (&self.ground.eigenvalues, &self.ground.occupations);

        // Sumup: this rank's share of n¹ (Eq. 8), zero off its points.
        let n1 = {
            let _s = crate::phase_span(qp_trace::Phase::Sumup, "sumup.n1");
            system.density_on(p1, batches)
        };

        // Rho: the moments of the share, summed across ranks; then one
        // radial Poisson solve per rank (redundant, which avoids
        // communicating the potential), v¹ at this rank's points (Eq. 9)
        // and the xc kernel (Eq. 12).
        let v1 = {
            let _s = crate::phase_span(qp_trace::Phase::Rho, "rho.v1");
            let mut moments = system.multipole_moments(&n1);
            synthesize_moments(comm, collectives, &mut moments)?;
            let mut v1 = system.hartree_potential(&moments, Some(points));
            for &gi in points {
                v1[gi] += self.fxc[gi] * n1[gi];
            }
            v1
        };

        // H: the response Hamiltonian (Eqs. 10-11), this rank's batches
        // summed across ranks: induced part − r_J.
        let h1 = {
            let _s = crate::phase_span(qp_trace::Phase::H, "h1.integrate");
            let part = operators::potential_matrix_on(system, &v1, batches);
            let sum = comm.allreduce(ReduceOp::Sum, part.as_slice())?;
            let mut h1 = DMatrix::from_vec(nb, nb, sum).expect("nb x nb");
            h1.axpy(-1.0, self.dip).expect("nb x nb");
            h1
        };

        // Sternheimer update in the MO basis (occupation-aware GEMM form —
        // handles both integer and Fermi-Dirac ground states), replicated
        // on every rank. With a screening plan active, the MO transform
        // skips the non-coupling O*×O*/V*×V* blocks and C·W restricts each
        // column class to its coupling k-range — bit-identical to the
        // dense contraction.
        let _s = crate::phase_span(qp_trace::Phase::Sternheimer, "sternheimer");
        Ok(if system.screen().is_some() {
            let h1_mo = h1_mo_screened(self.c_t, &h1, c, occ);
            sternheimer_response_screened(c, eps, occ, &h1_mo)
        } else {
            let h1_mo = self
                .c_t
                .par_matmul(&h1)
                .and_then(|m| m.par_matmul(c))
                .expect("nb-square chain");
            sternheimer_response(c, eps, occ, &h1_mo)
        })
    }
}

/// Run the DFPT cycle for one Cartesian direction `dir`.
pub fn dfpt_direction(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
) -> Result<DirectionResponse> {
    let shared = DfptShared::new(system, ground);
    dfpt_direction_with(system, ground, &shared, dir, opts)
}

/// [`dfpt_direction`] against precomputed [`DfptShared`] data.
pub fn dfpt_direction_with(
    system: &System,
    ground: &ScfResult,
    shared: &DfptShared,
    dir: usize,
    opts: &DfptOptions,
) -> Result<DirectionResponse> {
    match shared
        .direction(system, ground, dir, opts)
        .run_solo(None, &mut |_| true)?
    {
        DirOutcome::Converged(resp) => Ok(resp),
        DirOutcome::Preempted(_) => unreachable!("callback never preempts"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::scf::{electronic_dipole, scf, ScfOptions};
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;

    fn water_system() -> System {
        let mut gs = GridSettings::light();
        gs.n_radial = 30;
        gs.max_angular = 26;
        System::build(water(), BasisSettings::Light, &gs, 150, 2)
    }

    #[test]
    fn response_density_matrix_is_symmetric() {
        let sys = water_system();
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        let resp = dfpt_direction(&sys, &ground, 2, &DfptOptions::default()).unwrap();
        assert!(
            resp.p1.max_abs_diff(&resp.p1.transpose()) < 1e-10,
            "P1 must be symmetric by construction"
        );
    }

    #[test]
    fn response_density_integrates_to_zero() {
        // Charge conservation: ∫ n1 = 0 (the perturbation moves charge, it
        // does not create it). Exactly: Tr[P1 S] = 0.
        let sys = water_system();
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        let resp = dfpt_direction(&sys, &ground, 0, &DfptOptions::default()).unwrap();
        let tr = resp.p1.trace_product(&ground.overlap).unwrap();
        assert!(tr.abs() < 1e-8, "Tr[P1 S] = {tr}");
        let n1 = sys.density_on_grid(&resp.p1);
        let q1 = sys.grid.integrate_values(&n1);
        assert!(q1.abs() < 1e-3, "∫n1 = {q1}");
    }

    #[test]
    fn water_polarizability_physical() {
        let sys = water_system();
        let res = Job::new(ScfOptions::default(), DfptOptions::default())
            .run(&sys)
            .unwrap();
        let a = &res.alpha;
        // Positive diagonal, symmetric tensor.
        for d in 0..3 {
            assert!(a[(d, d)] > 0.0, "α[{d}{d}] = {}", a[(d, d)]);
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (a[(i, j)] - a[(j, i)]).abs() < 0.05 * a[(0, 0)].abs().max(1e-3),
                    "α asymmetric at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    a[(j, i)]
                );
            }
        }
        // Water's C2v symmetry: off-diagonals vanish in our frame (x ⊥
        // molecular plane contains x axis... the molecule lies in the x-y
        // plane, so α_xz = α_yz = 0 by symmetry).
        assert!(a[(0, 2)].abs() < 1e-3 * a[(0, 0)].abs().max(1.0));
    }

    #[test]
    fn dfpt_matches_finite_difference_scf() {
        // The decisive end-to-end correctness test: the self-consistent DFPT
        // response must equal the numerical derivative of a finite-field
        // SCF, because both run through identical grids, Poisson solver and
        // xc code paths.
        let sys = water_system();
        let res = Job::new(ScfOptions::default(), DfptOptions::default())
            .run(&sys)
            .unwrap();

        // α_iz via central difference of the electronic dipole under a
        // z field: one ± pair of SCF solves covers all three components.
        let xi = 2e-3;
        let tight = ScfOptions {
            tol: 1e-10,
            ..ScfOptions::default()
        };
        let plus = scf(
            &sys,
            &ScfOptions {
                field: Some([0.0, 0.0, xi]),
                ..tight
            },
        )
        .unwrap();
        let minus = scf(
            &sys,
            &ScfOptions {
                field: Some([0.0, 0.0, -xi]),
                ..tight
            },
        )
        .unwrap();
        let mu_p = electronic_dipole(&sys, &plus.density);
        let mu_m = electronic_dipole(&sys, &minus.density);
        let mut fd = [0.0f64; 3];
        for (i, fd_i) in fd.iter_mut().enumerate() {
            *fd_i = (mu_p[i] - mu_m[i]) / (2.0 * xi);
        }
        for i in 0..3 {
            let dfpt_val = res.alpha[(i, 2)];
            assert!(
                (dfpt_val - fd[i]).abs() < 0.02 * fd[2].abs().max(0.5),
                "α[{i},z]: DFPT {dfpt_val} vs finite-difference {}",
                fd[i]
            );
        }
    }

    #[test]
    fn zero_response_matrix_from_zero_c1() {
        let nb = 6;
        let c = DMatrix::identity(nb);
        let c1 = DMatrix::zeros(nb, 3);
        let p1 = response_density_matrix(&c, &c1, 3);
        assert_eq!(p1.frobenius_norm(), 0.0);
    }
}

#[cfg(test)]
mod sternheimer_tests {
    use super::*;

    /// Integer occupations: the pair formula must equal the classic
    /// occupied-virtual C¹ construction.
    #[test]
    fn pair_formula_matches_integer_cpks() {
        let nb = 7;
        let n_occ = 3;
        // Orthonormal-ish C and a symmetric perturbation.
        let mut seed = 5u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let c = DMatrix::from_fn(nb, nb, |_, _| rnd());
        let eps: Vec<f64> = (0..nb).map(|i| i as f64 - 2.5).collect();
        let mut h1 = DMatrix::from_fn(nb, nb, |_, _| rnd());
        h1.symmetrize();
        let h1_mo = c.transpose().matmul(&h1).unwrap().matmul(&c).unwrap();
        // h1_mo isn't symmetric for non-orthogonal C; symmetrize to match
        // the physical case (C^T H C with H symmetric IS symmetric... up to
        // the random C being full rank, it is). Use it directly.
        let occ: Vec<f64> = (0..nb).map(|i| if i < n_occ { 2.0 } else { 0.0 }).collect();
        let pair = sternheimer_response_pairwise(&c, &eps, &occ, &h1_mo);

        // Classic: C1_i = sum_a C_a H_ai/(eps_i - eps_a); P1 via Eq. 7.
        let mut c1 = DMatrix::zeros(nb, n_occ);
        for i in 0..n_occ {
            for a in n_occ..nb {
                let u = h1_mo[(a, i)] / (eps[i] - eps[a]);
                for mu in 0..nb {
                    c1[(mu, i)] += c[(mu, a)] * u;
                }
            }
        }
        let classic = response_density_matrix(&c, &c1, n_occ);
        assert!(
            pair.max_abs_diff(&classic) < 1e-10,
            "deviation {}",
            pair.max_abs_diff(&classic)
        );
        // And the factored GEMM form agrees with both.
        let gemm = sternheimer_response(&c, &eps, &occ, &h1_mo);
        assert!(
            gemm.max_abs_diff(&pair) < 1e-12,
            "GEMM vs pairwise deviation {}",
            gemm.max_abs_diff(&pair)
        );
    }

    #[test]
    fn equal_occupations_do_not_respond() {
        let nb = 4;
        let c = DMatrix::identity(nb);
        let eps = vec![0.0, 1.0, 2.0, 3.0];
        let occ = vec![1.5; nb]; // uniform fractional occupation
        let h1 = DMatrix::from_fn(nb, nb, |i, j| (i + j) as f64);
        let p1 = sternheimer_response(&c, &eps, &occ, &h1);
        assert_eq!(p1.frobenius_norm(), 0.0);
        let pair = sternheimer_response_pairwise(&c, &eps, &occ, &h1);
        assert_eq!(pair.frobenius_norm(), 0.0);
    }

    #[test]
    fn gemm_form_matches_pairwise_on_degenerate_spectrum() {
        // Degenerate levels with equal occupations must be skipped by both
        // paths; partially-occupied near-degenerate pairs go through the
        // bounded (f_p − f_q)/(ε_p − ε_q) ratio.
        let nb = 8;
        let c = DMatrix::from_fn(nb, nb, |i, j| ((i * 5 + j * 3) as f64 * 0.41).sin());
        let eps = vec![-2.0, -2.0, -1.0, -1.0 + 1e-9, 0.0, 0.5, 0.5, 3.0];
        let occ = vec![2.0, 2.0, 1.7, 1.3, 0.6, 0.2, 0.2, 0.0];
        let mut h1 = DMatrix::from_fn(nb, nb, |i, j| ((i as f64 - j as f64) * 0.9).cos());
        h1.symmetrize();
        let gemm = sternheimer_response(&c, &eps, &occ, &h1);
        let pair = sternheimer_response_pairwise(&c, &eps, &occ, &h1);
        // Near-degenerate weights blow the absolute scale up to ~1/gap, so
        // compare relative to the result's own magnitude.
        let scale = pair.frobenius_norm().max(1.0);
        assert!(
            gemm.max_abs_diff(&pair) < 1e-12 * scale,
            "deviation {} at scale {scale}",
            gemm.max_abs_diff(&pair)
        );
    }

    /// The full screened Sternheimer pipeline (restricted MO transform +
    /// class-restricted C·W) must reproduce the dense pipeline bit for
    /// bit, including past the K_GROUP = 256 accumulation boundary.
    #[test]
    fn screened_pipeline_bit_identical_past_k_group() {
        let nb = 300; // > K_GROUP, exercises the segment-aligned calls
        let mut seed = 17u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let c = DMatrix::from_fn(nb, nb, |_, _| rnd());
        let eps: Vec<f64> = (0..nb).map(|i| i as f64 * 0.03 - 4.0).collect();
        // Occupied manifold, smeared frontier, virtual manifold.
        let occ: Vec<f64> = (0..nb)
            .map(|i| {
                if i < 120 {
                    2.0
                } else if i < 130 {
                    2.0 / (1.0 + (i as f64 - 125.0).exp())
                } else {
                    0.0
                }
            })
            .collect();
        let mut h1 = DMatrix::from_fn(nb, nb, |_, _| rnd());
        h1.symmetrize();
        let c_t = c.transpose();

        let h1_mo_dense = c_t.par_matmul(&h1).unwrap().par_matmul(&c).unwrap();
        let dense = sternheimer_response(&c, &eps, &occ, &h1_mo_dense);

        let h1_mo_scr = h1_mo_screened(&c_t, &h1, &c, &occ);
        let screened = sternheimer_response_screened(&c, &eps, &occ, &h1_mo_scr);

        for (i, (d, s)) in dense.as_slice().iter().zip(screened.as_slice()).enumerate() {
            assert_eq!(d.to_bits(), s.to_bits(), "entry {i}: {d} vs {s}");
        }
        // The screened MO transform really skipped work: the O*×O* block
        // is exactly zero while the dense one is not.
        let (a, _) = (120usize, 130usize);
        assert_eq!(h1_mo_scr[(0, a - 1)], 0.0);
        assert!(h1_mo_dense[(0, a - 1)] != 0.0);
    }

    /// Degenerate / uniform occupations: everything is one class, W = 0,
    /// and both paths return exact zeros.
    #[test]
    fn screened_pipeline_uniform_occupations_all_zero() {
        let nb = 12;
        let c = DMatrix::from_fn(nb, nb, |i, j| ((i * 7 + j) as f64 * 0.3).sin());
        let eps: Vec<f64> = (0..nb).map(|i| i as f64).collect();
        let occ = vec![1.25; nb];
        let mut h1 = DMatrix::from_fn(nb, nb, |i, j| ((i + 2 * j) as f64 * 0.7).cos());
        h1.symmetrize();
        let c_t = c.transpose();
        let h1_mo = h1_mo_screened(&c_t, &h1, &c, &occ);
        let screened = sternheimer_response_screened(&c, &eps, &occ, &h1_mo);
        let dense = sternheimer_response(
            &c,
            &eps,
            &occ,
            &c_t.par_matmul(&h1).unwrap().par_matmul(&c).unwrap(),
        );
        for (d, s) in dense.as_slice().iter().zip(screened.as_slice()) {
            assert_eq!(d.to_bits(), s.to_bits());
        }
        assert_eq!(screened.frobenius_norm(), 0.0);
    }

    #[test]
    fn occupation_classes_cover_edge_cases() {
        assert_eq!(occupation_classes(&[]), (0, 0));
        assert_eq!(occupation_classes(&[2.0]), (1, 1));
        assert_eq!(occupation_classes(&[2.0, 2.0, 0.0, 0.0]), (2, 2));
        assert_eq!(occupation_classes(&[2.0, 2.0, 1.3, 0.0]), (2, 3));
        // Uniform: one class; clamp keeps b >= a.
        assert_eq!(occupation_classes(&[1.0, 1.0, 1.0]), (3, 3));
        // Strictly varying: trivial one-element classes at both ends.
        assert_eq!(occupation_classes(&[2.0, 1.5, 1.0, 0.5]), (1, 3));
    }

    #[test]
    fn response_is_symmetric() {
        let nb = 6;
        let c = DMatrix::from_fn(nb, nb, |i, j| ((i * 3 + j) as f64 * 0.7).cos());
        let eps: Vec<f64> = (0..nb).map(|i| i as f64 * 0.5).collect();
        let occ = vec![2.0, 2.0, 1.3, 0.7, 0.0, 0.0];
        let mut h1 = DMatrix::from_fn(nb, nb, |i, j| (i as f64 - j as f64).sin());
        h1.symmetrize();
        let p1 = sternheimer_response(&c, &eps, &occ, &h1);
        assert!(p1.max_abs_diff(&p1.transpose()) < 1e-12);
    }
}

/// Build `P¹` from ground-state and response coefficients (Eq. 7, f = 2):
/// the integer-occupation special case of [`sternheimer_response`], the
/// reference for the qp-cl DM kernel and the pair-formula tests.
#[cfg(test)]
pub(crate) fn response_density_matrix(c: &DMatrix, c1: &DMatrix, n_occ: usize) -> DMatrix {
    let nb = c.rows();
    // P¹ = 2 (M + Mᵀ) with M = C¹_occ · C_occᵀ.
    let c1_occ = DMatrix::from_fn(nb, n_occ, |mu, i| c1[(mu, i)]);
    let c_occ_t = DMatrix::from_fn(n_occ, nb, |i, nu| c[(nu, i)]);
    let m = c1_occ.par_matmul(&c_occ_t).expect("conforming dims");
    DMatrix::from_fn(nb, nb, |mu, nu| 2.0 * (m[(mu, nu)] + m[(nu, mu)]))
}
