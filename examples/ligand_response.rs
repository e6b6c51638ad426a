//! The HIV-1 protease ligand (49 atoms, Fig. 8b of the paper): ground-state
//! SCF plus the full electric-field response, with per-phase wall-clock.
//!
//! ```text
//! cargo run --release -p qp-core --example ligand_response
//! ```

use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_core::dfpt::{dfpt_direction, DfptOptions};
use qp_core::{scf, ScfOptions, System};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    // Reduced grid keeps this example to a few minutes on one core.
    let mut gs = GridSettings::light();
    gs.n_radial = 20;
    gs.max_angular = 14;
    let system = System::build(
        qp_chem::structures::ligand49(),
        BasisSettings::Light,
        &gs,
        150,
        2,
    );
    println!(
        "HIV-1 ligand: {} atoms, {} basis functions, {} grid points, {} batches  [{:.1?}]",
        system.structure.len(),
        system.n_basis(),
        system.n_points(),
        system.batches.len(),
        t0.elapsed()
    );

    let t1 = Instant::now();
    let ground = scf(
        &system,
        &ScfOptions {
            max_iter: 400,
            tol: 1e-6,
            mixing: 0.12,
            field: None,
            // Fermi-Dirac smearing (the paper's Eq. 3): the ligand's dense
            // frontier-orbital spectrum needs fractional occupations.
            smearing: Some(0.02),
            // Pulay/DIIS over the last 8 density matrices.
            pulay: Some(8),
        },
    )
    .expect("ligand SCF converges");
    println!(
        "SCF: {} iterations, E = {:.4} Ha, gap = {:.4} Ha  [{:.1?}]",
        ground.iterations,
        ground.energy,
        ground.eigenvalues[system.n_occupied()] - ground.eigenvalues[system.n_occupied() - 1],
        t1.elapsed()
    );

    // One response direction is enough to show the machinery at this scale.
    let t2 = Instant::now();
    let resp = dfpt_direction(
        &system,
        &ground,
        2,
        &DfptOptions {
            max_iter: 300,
            tol: 1e-5,
            // The smeared ligand is near-metallic (gap ~ 0.0085 Ha): the
            // self-consistent field feedback is strong, so mix gently.
            mixing: 0.05,
            ..DfptOptions::default()
        },
    )
    .expect("DFPT converges");
    let dip = qp_core::operators::dipole_matrix(&system, 2);
    let alpha_zz = resp.p1.trace_product(&dip).expect("square");
    println!(
        "DFPT(z): {} iterations, alpha_zz = {:.2} Bohr^3  [{:.1?}]",
        resp.iterations,
        alpha_zz,
        t2.elapsed()
    );
    let n1 = system.density_on_grid(&resp.p1);
    let q1 = system.grid.integrate_values(&n1);
    println!("response-density charge conservation: ∫n1 = {q1:.2e} (should be ~0)");
}
