//! Derived response properties (the last box of the paper's Fig. 1:
//! "polarizability, dielectric constant").
//!
//! From the converged polarizability tensor `α` the paper's pipeline reports
//! the experimentally comparable quantities: isotropic polarizability,
//! polarizability anisotropy, and — for condensed/molecular-ensemble
//! estimates — the Clausius–Mossotti dielectric constant.

use crate::scf::ScfResult;
use crate::system::System;
use qp_linalg::DMatrix;

/// Isotropic (mean) polarizability `ᾱ = Tr[α]/3` (Bohr³).
pub fn isotropic_polarizability(alpha: &DMatrix) -> f64 {
    assert_eq!((alpha.rows(), alpha.cols()), (3, 3));
    alpha.trace() / 3.0
}

/// Polarizability anisotropy
/// `Δα² = ½ Σ_{I<J} [3(α_IJ² + α_JI²)/2 + (α_II − α_JJ)²]` — the quantity
/// Raman depolarization ratios derive from (the application context of the
/// paper's predecessor, ref [37]).
pub fn polarizability_anisotropy(alpha: &DMatrix) -> f64 {
    assert_eq!((alpha.rows(), alpha.cols()), (3, 3));
    let mut acc = 0.0;
    for i in 0..3 {
        for j in (i + 1)..3 {
            acc += (alpha[(i, i)] - alpha[(j, j)]).powi(2)
                + 1.5 * (alpha[(i, j)].powi(2) + alpha[(j, i)].powi(2)) * 2.0;
        }
    }
    (0.5 * acc).sqrt()
}

/// Clausius–Mossotti dielectric constant for number density `n`
/// (molecules/Bohr³): `ε = (1 + 8πnᾱ/3)/(1 − 4πnᾱ/3)`.
///
/// Returns `None` when the density exceeds the Clausius–Mossotti
/// "polarization catastrophe" bound (`4πnᾱ/3 ≥ 1`).
pub fn clausius_mossotti(alpha_iso: f64, number_density: f64) -> Option<f64> {
    let x = 4.0 * std::f64::consts::PI * number_density * alpha_iso / 3.0;
    if x >= 1.0 {
        return None;
    }
    Some((1.0 + 2.0 * x) / (1.0 - x))
}

/// Total (electronic + nuclear) dipole moment of the ground state (a.u.).
pub fn dipole_moment(system: &System, ground: &ScfResult) -> [f64; 3] {
    // The l = 1 moment of the density: Rho's work.
    let _s = crate::phase_span(qp_trace::Phase::Rho, "rho.dipole");
    let mut mu = [0.0; 3];
    // Nuclear part: +Σ Z_I R_I.
    for atom in &system.structure.atoms {
        for d in 0..3 {
            mu[d] += atom.element.z() as f64 * atom.position[d];
        }
    }
    // Electronic part: −∫ r n(r).
    for (p, &n) in system.grid.points.iter().zip(ground.density.iter()) {
        for d in 0..3 {
            mu[d] -= p.weight * p.position[d] * n;
        }
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{scf, ScfOptions};
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;

    fn diag(a: f64, b: f64, c: f64) -> DMatrix {
        let mut m = DMatrix::zeros(3, 3);
        m[(0, 0)] = a;
        m[(1, 1)] = b;
        m[(2, 2)] = c;
        m
    }

    #[test]
    fn isotropic_is_trace_third() {
        assert_eq!(isotropic_polarizability(&diag(3.0, 6.0, 9.0)), 6.0);
    }

    #[test]
    fn anisotropy_zero_for_isotropic_tensor() {
        assert_eq!(polarizability_anisotropy(&diag(5.0, 5.0, 5.0)), 0.0);
        // Axial tensor: Δα = |α_par - α_perp|.
        let da = polarizability_anisotropy(&diag(7.0, 4.0, 4.0));
        assert!((da - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clausius_mossotti_limits() {
        // Dilute gas: ε → 1 + 4πnᾱ.
        let n = 1e-6;
        let a = 10.0;
        let eps = clausius_mossotti(a, n).unwrap();
        let dilute = 1.0 + 4.0 * std::f64::consts::PI * n * a;
        assert!((eps - dilute).abs() < 1e-6);
        // Catastrophe bound.
        assert!(clausius_mossotti(10.0, 1.0).is_none());
        // Liquid-water-like numbers: n = 0.0050 molecules/Bohr^3, ᾱ ≈ 9.8
        // Bohr^3 gives ε ≈ 1.8 (the electronic ε_∞ of water is 1.78).
        let eps_water = clausius_mossotti(9.8, 0.0050).unwrap();
        assert!(eps_water > 1.5 && eps_water < 2.1, "ε = {eps_water}");
    }

    #[test]
    fn water_dipole_points_along_symmetry_axis() {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let sys = System::build(water(), BasisSettings::Light, &gs, 150, 2);
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        let mu = dipole_moment(&sys, &ground);
        // Our water sits in the x-y plane, symmetric about y: μ_x ≈ μ_z ≈ 0,
        // μ_y > 0 (H atoms at +y pull electron density, nuclei dominate +y).
        assert!(mu[0].abs() < 0.05, "μ_x = {}", mu[0]);
        assert!(mu[2].abs() < 0.05, "μ_z = {}", mu[2]);
        assert!(
            mu[1].abs() > 0.2 && mu[1].abs() < 2.0,
            "μ_y = {} (experiment: 0.73 a.u.)",
            mu[1]
        );
    }
}
