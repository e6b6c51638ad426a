//! Quickstart: the static polarizability of a water molecule, all-electron,
//! via density-functional perturbation theory.
//!
//! ```text
//! cargo run --release -p qp-core --example quickstart
//! ```

use qp_core::{DfptOptions, Job, ScfOptions, System};

fn main() {
    // 1. Build the system: experimental H2O geometry, light NAO basis,
    //    atom-centered integration grids, spatial batches.
    let system = System::light(qp_chem::structures::water());
    println!(
        "water: {} basis functions, {} grid points, {} batches",
        system.n_basis(),
        system.n_points(),
        system.batches.len()
    );

    // 2. The job: the ground-state Kohn-Sham SCF (LDA), then DFPT — the
    //    response to a homogeneous electric field in x, y, z.
    let out = Job::new(ScfOptions::default(), DfptOptions::default())
        .run(&system)
        .expect("SCF and DFPT converge");
    let ground = &out.ground;
    println!(
        "SCF converged in {} iterations, E = {:.6} Ha",
        ground.iterations, ground.energy
    );
    println!(
        "HOMO = {:.4} Ha, LUMO = {:.4} Ha",
        ground.eigenvalues[system.n_occupied() - 1],
        ground.eigenvalues[system.n_occupied()]
    );
    println!(
        "DFPT converged in {:?} iterations per direction",
        out.dfpt_iterations
    );

    // 3. The polarizability tensor (Bohr^3).
    println!("\npolarizability tensor (Bohr^3):");
    for i in 0..3 {
        println!(
            "  [ {:8.3} {:8.3} {:8.3} ]",
            out.alpha[(i, 0)],
            out.alpha[(i, 1)],
            out.alpha[(i, 2)]
        );
    }
    let (iso, aniso, mu) = (out.isotropic, out.anisotropy, out.dipole);
    println!(
        "isotropic polarizability: {iso:.3} Bohr^3 (experiment ~9.8; minimal basis underestimates)"
    );
    println!("polarizability anisotropy: {aniso:.3} Bohr^3");
    println!(
        "dipole moment: [{:.3}, {:.3}, {:.3}] a.u.",
        mu[0], mu[1], mu[2]
    );
    // Liquid-water electronic dielectric constant via Clausius-Mossotti at
    // the experimental number density (0.0050 molecules/Bohr^3).
    if let Some(eps) = qp_core::properties::clausius_mossotti(iso, 0.0050) {
        println!("Clausius-Mossotti ε_∞ at liquid density: {eps:.3} (experiment: 1.78)");
    }
}
