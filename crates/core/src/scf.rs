//! Ground-state Kohn–Sham self-consistency (Eqs. 1–6 of the paper).
//!
//! The DFT phase "serves to provide data for the DFPT phase" (artifact
//! appendix): converged orbitals `C`, eigenvalues `ε`, density matrix `P`
//! and ground-state density `n₀(r)`. The SCF is a cycle of the crate's one
//! self-consistency loop, the loop every DFPT direction runs: density →
//! Hartree potential → xc potential → `H` → this module's step (the
//! generalized eigenproblem, occupations, new density matrix and energy) →
//! mixing (Pulay/DIIS by default, linear under `pulay: None`). It measures
//! `‖P_out − P_in‖` before mixing and ends on the unmixed `P_out`.
//!
//! Its set-up runs under the phase spans of the loop: `S`, `T` and `V_ext`
//! under `h`, the factor of `S` and the initial eigensolve under `eigen`,
//! the initial density matrix under `dm`, the final density under `sumup`.

use crate::cycle::{self, Cycle, Outcome, Parts, Spec};
use crate::dfpt::DfptOptions;
use crate::mixing::DfptMixer;
use crate::operators;
use crate::parallel::CollectiveScheme;
use crate::system::System;
use crate::{CoreError, Result};
use qp_chem::xc;
use qp_linalg::{generalized_symmetric_eigen_with, Cholesky, DMatrix, EigenDecomposition};
use qp_mpi::Comm;
use qp_trace::Phase;

/// SCF options.
#[derive(Debug, Clone, Copy)]
pub struct ScfOptions {
    /// Maximum SCF iterations.
    pub max_iter: usize,
    /// Convergence threshold on the density-matrix change (max abs).
    pub tol: f64,
    /// Linear mixing parameter for the density matrix.
    pub mixing: f64,
    /// Homogeneous external electric field ξ (adds `−Σ_d ξ_d D_d` to `H`;
    /// the finite-difference cross-check of the DFPT implementation).
    pub field: Option<[f64; 3]>,
    /// Fermi–Dirac smearing width kT (Hartree, Eq. 3). `None` = integer
    /// (aufbau) occupations; small gaps and near-degenerate frontier
    /// orbitals need smearing to converge.
    pub smearing: Option<f64>,
    /// Pulay/DIIS history length. `Some(m)` accelerates convergence by
    /// extrapolating over the last `m` density matrices (linear mixing is
    /// used for the first two iterations); `None` = plain linear mixing.
    pub pulay: Option<usize>,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            max_iter: 120,
            tol: 1e-8,
            mixing: 0.35,
            field: None,
            smearing: None,
            pulay: Some(6),
        }
    }
}

/// A solver option outside the range the SCF and DFPT loops accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidOption {
    /// The option: `scf.tol`, `scf.mixing`, `scf.max_iter`,
    /// `scf.smearing`, `dfpt.tol`, `dfpt.mixing` or `dfpt.max_iter`.
    pub option: &'static str,
    /// The range it must lie in.
    pub rule: &'static str,
}

impl std::fmt::Display for InvalidOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} must be {}", self.option, self.rule)
    }
}

impl std::error::Error for InvalidOption {}

/// The one range check on the solver options a job runs with, for every
/// entry point that takes them from a user: tolerances finite and > 0,
/// mixing factors in (0, 1], iteration limits in 1..=100 000 and a smearing
/// width finite and > 0. The first option out of range is the error.
pub fn check_solver_options(
    scf: &ScfOptions,
    dfpt: &DfptOptions,
) -> std::result::Result<(), InvalidOption> {
    const POSITIVE: &str = "finite and > 0";
    const MIXING: &str = "in (0, 1]";
    const ITERATIONS: &str = "in 1..=100000";
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let mixing = |x: f64| x > 0.0 && x <= 1.0;
    let iterations = |n: usize| (1..=100_000).contains(&n);
    [
        ("scf.tol", positive(scf.tol), POSITIVE),
        ("scf.mixing", mixing(scf.mixing), MIXING),
        ("scf.max_iter", iterations(scf.max_iter), ITERATIONS),
        ("scf.smearing", scf.smearing.is_none_or(positive), POSITIVE),
        ("dfpt.tol", positive(dfpt.tol), POSITIVE),
        ("dfpt.mixing", mixing(dfpt.mixing), MIXING),
        ("dfpt.max_iter", iterations(dfpt.max_iter), ITERATIONS),
    ]
    .into_iter()
    .find(|&(_, ok, _)| !ok)
    .map_or(Ok(()), |(option, _, rule)| {
        Err(InvalidOption { option, rule })
    })
}

/// Converged ground state.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Kohn–Sham total energy (Hartree).
    pub energy: f64,
    /// Eigenvalues (ascending).
    pub eigenvalues: Vec<f64>,
    /// Orbital coefficients `C` (columns), `S`-orthonormal.
    pub orbitals: DMatrix,
    /// Density matrix `P` (Eq. 6).
    pub density_matrix: DMatrix,
    /// Orbital occupations `f_i` (2/0 aufbau, or Fermi–Dirac under
    /// smearing).
    pub occupations: Vec<f64>,
    /// Ground-state density at every grid point.
    pub density: Vec<f64>,
    /// Overlap matrix (reused by DFPT).
    pub overlap: DMatrix,
    /// Iterations used.
    pub iterations: usize,
}

/// The loop-carried SCF state between iterations: everything needed to
/// resume the cycle at `iteration + 1` and replay the remaining iterations
/// bit-exactly. It is the SCF seed of a job's `QPCK` record itself, so a
/// checkpoint holds exactly the loop state.
pub type ScfState = qp_resil::ScfCheckpoint;

/// Electronic dipole moment `∫ r_I n(r) d³r` for each Cartesian direction,
/// from the density on the grid.
pub fn electronic_dipole(system: &System, density: &[f64]) -> [f64; 3] {
    let mut mu = [0.0; 3];
    for (p, &n) in system.grid.points.iter().zip(density.iter()) {
        for d in 0..3 {
            mu[d] += p.weight * p.position[d] * n;
        }
    }
    mu
}

/// Run the ground-state SCF.
pub fn scf(system: &System, opts: &ScfOptions) -> Result<ScfResult> {
    match ground_state(system, opts, None, &mut |_| true)? {
        Outcome::Converged((ground, _)) => Ok(ground),
        Outcome::Preempted(_) => {
            unreachable!("a hook that never stops the cycle never preempts it")
        }
    }
}

/// [`scf`] from `resume` (afresh on `None`) with a hook: the entry point
/// of the job pipeline ([`crate::job`]). `on_iter` borrows the loop state
/// after every non-converged iteration and returns `false` to preempt the
/// cycle there; a later call resumes from the state handed back and
/// replays the identical floating-point sequence. A converged cycle also
/// hands back the state of its last non-converged iteration, untouched.
///
/// Integer (aufbau) occupations fill doubly occupied orbitals, so they
/// describe closed shells only: an odd electron count without
/// `opts.smearing` is refused before the first iteration.
pub(crate) fn ground_state(
    system: &System,
    opts: &ScfOptions,
    resume: Option<ScfState>,
    on_iter: &mut dyn FnMut(&ScfState) -> bool,
) -> Result<Outcome<(ScfResult, ScfState), ScfState>> {
    let electrons = system.n_electrons();
    if opts.smearing.is_none() && electrons % 2 == 1 {
        return Err(CoreError::OpenShell { electrons });
    }
    let mut span = qp_trace::SpanGuard::begin(qp_trace::thread_rank(), Phase::Scf, "scf");
    if span.is_recording() {
        let atoms = system.structure.len();
        span.arg("atoms", atoms).arg("basis", system.n_basis());
    }
    let (s_mat, h_core) = {
        let _s = crate::phase_span(Phase::H, "h.core");
        let mut h_core = operators::kinetic(system);
        let v_ext = operators::external_potential(system);
        h_core.axpy(1.0, &operators::potential_matrix(system, &v_ext))?;
        for (d, &xi) in opts.field.iter().flatten().enumerate() {
            if xi != 0.0 {
                h_core.axpy(-xi, &operators::dipole_matrix(system, d))?;
            }
        }
        (operators::overlap(system), h_core)
    };
    let eigen = || crate::phase_span(Phase::Eigen, "eigen.init");
    // S is fixed for the job: factor it once for every eigensolve.
    let s_chol = {
        let _s = eigen();
        Cholesky::new(&s_mat)?
    };
    let ground = Ground {
        system,
        opts,
        s_mat,
        s_chol,
        h_core,
    };
    let state = match resume {
        Some(state) => state,
        // The initial guess: the density matrix of the core Hamiltonian.
        None => {
            let dec = {
                let _s = eigen();
                generalized_symmetric_eigen_with(&ground.s_chol, &ground.h_core)?
            };
            let _s = crate::phase_span(Phase::Dm, "dm");
            let occ = ground.occupy(&dec.eigenvalues);
            let p_mat = operators::density_matrix_occ(&dec.eigenvectors, &occ);
            let (diis_in, diis_res) = (Vec::new(), Vec::new());
            ScfState {
                iteration: 0,
                energy: 0.0,
                p_mat,
                diis_in,
                diis_res,
            }
        }
    };
    let all: Vec<usize> = (0..system.batches.len()).collect();
    // On one rank every scheme hands the moments back unchanged.
    let (solo, packed) = (Comm::solo(), CollectiveScheme::Packed);
    cycle::run(system, ground, &solo, &all, packed, state, &mut |st| {
        Ok(on_iter(st))
    })?
}

/// The SCF as a cycle of the one loop: the fixed one-electron matrices its
/// step reads.
struct Ground<'a> {
    system: &'a System,
    opts: &'a ScfOptions,
    s_mat: DMatrix,
    s_chol: Cholesky,
    /// `T + V_ext`, and the field's `−Σ ξ_d D_d`.
    h_core: DMatrix,
}

impl Ground<'_> {
    /// Fermi–Dirac occupations under smearing, else 2 in each of the
    /// lowest `n_occupied` orbitals.
    fn occupy(&self, eigs: &[f64]) -> Vec<f64> {
        match self.opts.smearing {
            Some(kt) => operators::fermi_occupations(eigs, self.system.n_electrons() as f64, kt),
            None => {
                let mut f = vec![0.0; eigs.len()];
                for fi in f.iter_mut().take(self.system.n_occupied()) {
                    *fi = 2.0;
                }
                f
            }
        }
    }
}

impl Cycle for Ground<'_> {
    type State = ScfState;
    /// The eigendecomposition, its occupations and the energy.
    type Step = (EigenDecomposition, Vec<f64>, f64);
    type Output = (ScfResult, ScfState);

    fn spec(&self) -> Spec {
        let o = self.opts;
        Spec {
            what: "ground-state SCF",
            phase: Phase::Scf,
            iter: "scf.iter",
            gauge: qp_trace::global_metrics().gauge("scf.residual", &[]),
            before_mixing: true,
            max_iter: o.max_iter,
            tol: o.tol,
            mixer: o
                .pulay
                .map_or(DfptMixer::Linear, |depth| DfptMixer::Pulay { depth }),
            mixing: o.mixing,
        }
    }

    fn parts(st: &mut ScfState) -> Parts<'_> {
        (
            &mut st.iteration,
            &mut st.p_mat,
            &mut st.diis_in,
            &mut st.diis_res,
        )
    }

    fn xc(&self, _: usize, n: f64) -> f64 {
        xc::v_xc(n.max(0.0))
    }

    /// `H = h_core + V`, the eigensolve with the once-factored `S`, the
    /// occupations and `P_out` (Eqs. 3–6), and the Kohn–Sham energy
    /// `Σ f_i ε_i − ½∫n v_H − ∫n v_xc + ∫n ε_xc + E_nuc-nuc`.
    fn step(
        &self,
        v: DMatrix,
        (n, v_h, v_xc): (&[f64], &[f64], &[f64]),
    ) -> Result<(DMatrix, Self::Step)> {
        let dec = {
            let _s = crate::phase_span(Phase::Eigen, "eigen");
            let mut h = self.h_core.clone();
            h.axpy(1.0, &v)?;
            generalized_symmetric_eigen_with(&self.s_chol, &h)?
        };
        let (occ, p_out) = {
            let _s = crate::phase_span(Phase::Dm, "dm");
            let occ = self.occupy(&dec.eigenvalues);
            let p_out = operators::density_matrix_occ(&dec.eigenvectors, &occ);
            (occ, p_out)
        };
        let band: f64 = dec.eigenvalues.iter().zip(&occ).map(|(e, f)| f * e).sum();
        let points = &self.system.grid.points;
        let integral = |g: &dyn Fn(usize, f64) -> f64| -> f64 {
            let terms = points.iter().zip(n).enumerate();
            terms.map(|(i, (p, &n))| p.weight * n * g(i, n)).sum()
        };
        let e_h = integral(&|i, _| v_h[i]);
        let e_vxc = integral(&|i, _| v_xc[i]);
        let e_xc = integral(&|_, n| xc::epsilon_xc(n.max(0.0)));
        let energy = band - 0.5 * e_h - e_vxc + e_xc + self.system.structure.nuclear_repulsion();
        Ok((p_out, (dec, occ, energy)))
    }

    fn record(state: &mut ScfState, step: &Self::Step, _: f64) {
        state.energy = step.2;
    }

    /// The ground state, with the final density of the converged orbitals,
    /// and the untouched seed.
    fn finish(
        self,
        seed: ScfState,
        p_out: DMatrix,
        step: Self::Step,
        iterations: usize,
    ) -> Self::Output {
        let (dec, occupations, energy) = step;
        qp_trace::global_metrics()
            .gauge("scf.energy", &[])
            .set(energy);
        let density = {
            let _s = crate::phase_span(Phase::Sumup, "sumup");
            self.system.density_on_grid(&p_out)
        };
        let ground = ScfResult {
            energy,
            eigenvalues: dec.eigenvalues,
            orbitals: dec.eigenvectors,
            density_matrix: p_out,
            occupations,
            density,
            overlap: self.s_mat,
            iterations,
        };
        (ground, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn water_scf_converges() {
        let sys = water_system();
        let res = scf(&sys, &ScfOptions::default()).expect("water SCF converges");
        assert!(res.iterations < 120);
        // Density integrates to 10 electrons (grid-quadrature tolerance).
        let ne = sys.grid.integrate_values(&res.density);
        assert!((ne - 10.0).abs() < 0.1, "∫n = {ne}");
        // Energy in a physically sensible window for LDA water in a minimal
        // confined basis (exact: ≈ −75.9 Ha; minimal-basis coarse-grid
        // variational energy lands above that but must be deeply bound).
        assert!(
            res.energy < -50.0 && res.energy > -110.0,
            "E = {}",
            res.energy
        );
    }

    #[test]
    fn water_has_five_bound_occupied_orbitals() {
        let sys = water_system();
        let res = scf(&sys, &ScfOptions::default()).unwrap();
        for i in 0..5 {
            assert!(
                res.eigenvalues[i] < 0.0,
                "occupied ε_{i} = {}",
                res.eigenvalues[i]
            );
        }
        // Finite HOMO-LUMO gap.
        let gap = res.eigenvalues[5] - res.eigenvalues[4];
        assert!(gap > 0.05, "gap = {gap}");
    }

    #[test]
    fn orbitals_are_overlap_orthonormal() {
        let sys = water_system();
        let res = scf(&sys, &ScfOptions::default()).unwrap();
        let ctsc = res
            .orbitals
            .transpose()
            .matmul(&res.overlap)
            .unwrap()
            .matmul(&res.orbitals)
            .unwrap();
        assert!(ctsc.max_abs_diff(&DMatrix::identity(sys.n_basis())) < 1e-8);
    }

    #[test]
    fn field_polarizes_the_density() {
        let sys = water_system();
        let res0 = scf(&sys, &ScfOptions::default()).unwrap();
        let mu0 = electronic_dipole(&sys, &res0.density);
        let xi = 0.005;
        let resf = scf(
            &sys,
            &ScfOptions {
                field: Some([0.0, 0.0, xi]),
                ..ScfOptions::default()
            },
        )
        .unwrap();
        let muf = electronic_dipole(&sys, &resf.density);
        // With h' = −ξ r_z, electrons shift toward +z: ∫ z n grows.
        assert!(
            muf[2] > mu0[2] + 1e-5,
            "dipole did not respond: {} -> {}",
            mu0[2],
            muf[2]
        );
    }

    #[test]
    fn scf_is_deterministic() {
        let sys = water_system();
        let a = scf(&sys, &ScfOptions::default()).unwrap();
        let b = scf(&sys, &ScfOptions::default()).unwrap();
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }
}
