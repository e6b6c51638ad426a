//! Ground-state Kohn–Sham self-consistency (Eqs. 1–6 of the paper).
//!
//! The DFT phase "serves to provide data for the DFPT phase" (artifact
//! appendix): converged orbitals `C`, eigenvalues `ε`, density matrix `P`
//! and ground-state density `n₀(r)`. The loop is the standard one —
//! density → Hartree potential (multipole Poisson) → xc potential → `H` →
//! generalized eigenproblem → new density — mixed by the shared
//! [`MixState`] (Pulay/DIIS by default, linear under `pulay: None`).

use crate::dfpt::DfptOptions;
use crate::mixing::{DfptMixer, MixState};
use crate::operators;
use crate::system::System;
use crate::{CoreError, Result};
use qp_chem::xc;
use qp_linalg::{generalized_symmetric_eigen_with, Cholesky, DMatrix};

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
    Ok(scf_preemptible(system, opts, None, &mut |_| true)?
        .expect("a callback that never stops the cycle never preempts it"))
}

/// [`scf`] with checkpoint/preemption hooks — the entry point of the job
/// pipeline ([`crate::job`]). `resume` seeds the loop from a previously
/// captured [`ScfState`], and `on_iter` receives the loop-carried state
/// after every non-converged iteration; returning `false` preempts the
/// cycle there (`Ok(None)`), and that state is what a later call resumes
/// from. A preempted-then-resumed cycle replays the identical
/// floating-point sequence, so it lands on the bit-identical ground state.
///
/// Integer (aufbau) occupations fill doubly occupied orbitals, so they
/// describe closed shells only: an odd electron count without
/// `opts.smearing` is refused before the first iteration.
pub(crate) fn scf_preemptible(
    system: &System,
    opts: &ScfOptions,
    resume: Option<ScfState>,
    on_iter: &mut dyn FnMut(ScfState) -> bool,
) -> Result<Option<ScfResult>> {
    let n_elec = system.n_electrons();
    if opts.smearing.is_none() && n_elec % 2 == 1 {
        return Err(CoreError::OpenShell { electrons: n_elec });
    }
    let mut scf_span =
        qp_trace::SpanGuard::begin(qp_trace::thread_rank(), qp_trace::Phase::Scf, "scf");
    // Regions and GEMMs launched anywhere in the SCF loop default to the
    // "scf" phase bucket unless a finer phase_span overrides it.
    let _label = qp_par::LabelGuard::set("scf");
    if scf_span.is_recording() {
        scf_span
            .arg("atoms", system.structure.len())
            .arg("basis", system.n_basis());
    }
    let residual_gauge = qp_trace::global_metrics().gauge("scf.residual", &[]);
    let energy_gauge = qp_trace::global_metrics().gauge("scf.energy", &[]);
    let s_mat = operators::overlap(system);
    // S is fixed for the job: factor it once for every eigensolve.
    let s_chol = Cholesky::new(&s_mat)?;
    let t_mat = operators::kinetic(system);
    let v_ext = operators::external_potential(system);
    let v_ext_mat = operators::potential_matrix(system, &v_ext);

    let mut h_core = t_mat.clone();
    h_core.axpy(1.0, &v_ext_mat)?;
    if let Some(field) = opts.field {
        for (d, &xi) in field.iter().enumerate() {
            if xi != 0.0 {
                let dip = operators::dipole_matrix(system, d);
                h_core.axpy(-xi, &dip)?;
            }
        }
    }

    // Initial guess: core Hamiltonian.
    let n_occ = system.n_occupied();
    let n_elec = n_elec as f64;
    let occupy = |eigs: &[f64]| -> Vec<f64> {
        match opts.smearing {
            Some(kt) => operators::fermi_occupations(eigs, n_elec, kt),
            None => {
                let mut f = vec![0.0; eigs.len()];
                for fi in f.iter_mut().take(n_occ) {
                    *fi = 2.0;
                }
                f
            }
        }
    };
    let mixer_kind = match opts.pulay {
        Some(depth) => DfptMixer::Pulay { depth },
        None => DfptMixer::Linear,
    };
    let (start_iter, mut p_mat, mut mixer) = match resume {
        Some(st) => (
            st.iteration,
            st.p_mat,
            MixState::with_history(mixer_kind, opts.mixing, st.diis_in, st.diis_res),
        ),
        None => {
            let dec0 = generalized_symmetric_eigen_with(&s_chol, &h_core)?;
            let occ0 = occupy(&dec0.eigenvalues);
            let p0 = operators::density_matrix_occ(&dec0.eigenvectors, &occ0);
            (0, p0, MixState::new(mixer_kind, opts.mixing))
        }
    };

    let mut last: (qp_linalg::EigenDecomposition, f64, Vec<f64>);
    let mut residual = f64::INFINITY;
    for iter in (start_iter + 1)..=opts.max_iter {
        let mut iter_span =
            qp_trace::SpanGuard::begin(qp_trace::thread_rank(), qp_trace::Phase::Scf, "scf.iter");
        if iter_span.is_recording() {
            iter_span.arg("iter", iter);
        }
        let density = system.density_on_grid(&p_mat);
        // Hartree potential of the electron density.
        let v_h = system.hartree_potential(&system.multipole_moments(&density), None);
        let v_xc: Vec<f64> = density.iter().map(|&n| xc::v_xc(n.max(0.0))).collect();
        let v_eff: Vec<f64> = v_h.iter().zip(v_xc.iter()).map(|(a, b)| a + b).collect();
        let v_eff_mat = operators::potential_matrix(system, &v_eff);

        let mut h = h_core.clone();
        h.axpy(1.0, &v_eff_mat)?;
        let dec = generalized_symmetric_eigen_with(&s_chol, &h)?;
        let occ = occupy(&dec.eigenvalues);
        let p_new = operators::density_matrix_occ(&dec.eigenvectors, &occ);

        residual = p_new.max_abs_diff(&p_mat);
        residual_gauge.set(residual);
        if iter_span.is_recording() {
            iter_span.arg("residual", residual);
        }

        // Kohn-Sham total energy: Σ f_i ε_i − ½∫n v_H − ∫n v_xc + ∫n ε_xc
        // + E_nuc-nuc.
        let band: f64 = dec
            .eigenvalues
            .iter()
            .zip(occ.iter())
            .map(|(e, f)| f * e)
            .sum();
        let e_h: f64 = system
            .grid
            .points
            .iter()
            .zip(density.iter().zip(v_h.iter()))
            .map(|(p, (&n, &vh))| p.weight * n * vh)
            .sum();
        let e_vxc: f64 = system
            .grid
            .points
            .iter()
            .zip(density.iter().zip(v_xc.iter()))
            .map(|(p, (&n, &vx))| p.weight * n * vx)
            .sum();
        let e_xc: f64 = system
            .grid
            .points
            .iter()
            .zip(density.iter())
            .map(|(p, &n)| p.weight * n * xc::epsilon_xc(n.max(0.0)))
            .sum();
        let energy = band - 0.5 * e_h - e_vxc + e_xc + system.structure.nuclear_repulsion();

        last = (dec, energy, density);

        if residual < opts.tol {
            energy_gauge.set(energy);
            // Final density consistent with the converged orbitals.
            let density = system.density_on_grid(&p_new);
            return Ok(Some(ScfResult {
                energy,
                eigenvalues: last.0.eigenvalues,
                orbitals: last.0.eigenvectors,
                density_matrix: p_new,
                occupations: occ,
                density,
                overlap: s_mat,
                iterations: iter,
            }));
        }

        p_mat = mixer.step(&p_mat, &p_new);
        let (diis_in, diis_res) = mixer.history();
        let state = ScfState {
            iteration: iter,
            energy,
            p_mat: p_mat.clone(),
            diis_in: diis_in.to_vec(),
            diis_res: diis_res.to_vec(),
        };
        if !on_iter(state) {
            return Ok(None);
        }
    }
    Err(CoreError::NoConvergence {
        what: "ground-state SCF",
        iterations: opts.max_iter,
        residual,
    })
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
