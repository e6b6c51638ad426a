//! Raman activity of the water symmetric stretch — the application that
//! motivated this code line (the paper's predecessor, ref [37], accelerated
//! "all-electron ab initio simulation of Raman spectra for biological
//! systems").
//!
//! Raman intensity of a mode is governed by `∂α/∂Q`: we displace both O–H
//! bonds symmetrically by ±δ and differentiate the DFPT polarizability.
//!
//! ```text
//! cargo run --release -p qp-core --example raman_water
//! ```

use qp_chem::elements::Element;
use qp_chem::geometry::{Atom, Structure};
use qp_core::{DfptOptions, Job, ScfOptions, System};

/// Water with both O-H bonds stretched by `dr` Bohr along the bond
/// directions (the symmetric-stretch normal mode, to leading order).
fn stretched_water(dr: f64) -> Structure {
    let base = qp_chem::structures::water();
    let o = base.atoms[0].position;
    let atoms = base
        .atoms
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if i == 0 {
                *a
            } else {
                let d = [
                    a.position[0] - o[0],
                    a.position[1] - o[1],
                    a.position[2] - o[2],
                ];
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                let s = (r + dr) / r;
                Atom::new(
                    Element::H,
                    [o[0] + d[0] * s, o[1] + d[1] * s, o[2] + d[2] * s],
                )
            }
        })
        .collect();
    Structure::new(atoms)
}

fn polarizability_at(dr: f64) -> (f64, f64) {
    let system = System::light(stretched_water(dr));
    let out = Job::new(ScfOptions::default(), DfptOptions::default())
        .run(&system)
        .expect("SCF + DFPT");
    (out.isotropic, out.anisotropy)
}

fn main() {
    let delta = 0.02; // Bohr
    println!("water symmetric stretch: central differences at ±{delta} Bohr\n");
    let (iso_p, aniso_p) = polarizability_at(delta);
    let (iso_0, aniso_0) = polarizability_at(0.0);
    let (iso_m, aniso_m) = polarizability_at(-delta);

    let d_iso = (iso_p - iso_m) / (2.0 * delta);
    let d_aniso = (aniso_p - aniso_m) / (2.0 * delta);
    println!("alpha_iso(0)  = {iso_0:.4} Bohr^3, alpha_aniso(0) = {aniso_0:.4} Bohr^3");
    println!("d(alpha_iso)/dQ   = {d_iso:.4} Bohr^2  (isotropic Raman activity term)");
    println!("d(alpha_aniso)/dQ = {d_aniso:.4} Bohr^2 (depolarized term)");
    assert!(
        d_iso > 0.0,
        "stretching O-H must increase the polarizability (looser electrons)"
    );
    println!("\nstretching increases polarizability, as physics demands — the");
    println!("symmetric stretch is Raman-active (the strongest band of liquid water).");
}
