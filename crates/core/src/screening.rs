//! Cutoff-sphere screening plan.
//!
//! [`ScreenPlan`] holds `qp-grid`'s [`BatchScreen`] cell list, which
//! answers "which atoms reach this batch" in O(neighbourhood) instead of
//! the O(n_basis) linear scan of the basis tabulation
//! ([`ScreenPlan::functions_near`]). That is all screening changes.
//! Operators merge into the dense matrix with or without a plan: a rank's
//! Hamiltonian is small and dense (the paper's §3.1), and the entries off
//! the atom-pair support come out exactly `+0.0` either way. The
//! Sternheimer update picks its route from the occupations, not from the
//! plan (see `dfpt::class_restricted`).
//!
//! **Bit-identity contract.** Screening never changes a single output bit:
//! the screened tabulation path returns the *same sorted function list* as
//! `BasisSet::functions_near` (same strict `<` predicate, atom-major
//! order), so every batch table is bytewise identical.

use qp_chem::basis::BasisSet;
use qp_chem::geometry::Structure;
use qp_grid::BatchScreen;

/// Structures at or above this many atoms turn screening on under
/// [`ScreeningMode::Auto`].  Below it every atom reaches nearly every
/// batch and the cell list is pure overhead; the choice is bit-invisible
/// either way.
pub const AUTO_MIN_ATOMS: usize = 16;

/// User-facing screening control (`--screening on|off|auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScreeningMode {
    /// Always build and use the screening plan.
    On,
    /// Never screen; every path is the original dense scan.
    Off,
    /// Screen when the structure has at least [`AUTO_MIN_ATOMS`] atoms.
    #[default]
    Auto,
}

impl ScreeningMode {
    /// Whether a structure of `natoms` atoms gets a screening plan.
    pub fn enabled(self, natoms: usize) -> bool {
        match self {
            ScreeningMode::On => true,
            ScreeningMode::Off => false,
            ScreeningMode::Auto => natoms >= AUTO_MIN_ATOMS,
        }
    }
}

impl std::str::FromStr for ScreeningMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "on" => Ok(ScreeningMode::On),
            "off" => Ok(ScreeningMode::Off),
            "auto" => Ok(ScreeningMode::Auto),
            other => Err(format!(
                "invalid screening mode '{other}' (expected on|off|auto)"
            )),
        }
    }
}

impl std::fmt::Display for ScreeningMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScreeningMode::On => "on",
            ScreeningMode::Off => "off",
            ScreeningMode::Auto => "auto",
        })
    }
}

/// The per-system screening plan: cell-list range queries for batch
/// tabulation. Built once per [`crate::System`]; immutable and shared by
/// every phase.
#[derive(Debug)]
pub struct ScreenPlan {
    batch_screen: BatchScreen,
}

impl ScreenPlan {
    /// Build the plan for a structure.
    pub fn build(structure: &Structure) -> Self {
        ScreenPlan {
            batch_screen: BatchScreen::build(structure),
        }
    }

    /// Cell-accelerated equivalent of [`BasisSet::functions_near`]: the
    /// indices of functions whose support reaches within `extra` of `p`,
    /// ascending.  Identical output to the linear scan — every shell of an
    /// atom shares the element cutoff, the predicate is the same strict
    /// `<`, and atoms come back ascending in atom-major function order.
    pub fn functions_near(&self, basis: &BasisSet, p: [f64; 3], extra: f64) -> Vec<usize> {
        let atoms = self.batch_screen.atoms_near(p, extra);
        let mut out = Vec::new();
        for a in atoms {
            out.extend(basis.functions_of_atom(a as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::basis::BasisSettings;
    use qp_chem::structures::{polyethylene, water};

    #[test]
    fn mode_parsing_roundtrip() {
        for (s, m) in [
            ("on", ScreeningMode::On),
            ("off", ScreeningMode::Off),
            ("auto", ScreeningMode::Auto),
        ] {
            assert_eq!(s.parse::<ScreeningMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("ON".parse::<ScreeningMode>().is_err());
        assert!("always".parse::<ScreeningMode>().is_err());
    }

    #[test]
    fn auto_threshold() {
        assert!(!ScreeningMode::Auto.enabled(3));
        assert!(ScreeningMode::Auto.enabled(AUTO_MIN_ATOMS));
        assert!(ScreeningMode::On.enabled(1));
        assert!(!ScreeningMode::Off.enabled(10_000));
    }

    #[test]
    fn functions_near_matches_linear_scan() {
        for structure in [water(), polyethylene(10)] {
            let basis = BasisSet::build(&structure, BasisSettings::Light);
            let plan = ScreenPlan::build(&structure);
            let (lo, hi) = structure.bounding_box();
            let mid = [
                0.5 * (lo[0] + hi[0]),
                0.5 * (lo[1] + hi[1]),
                0.5 * (lo[2] + hi[2]),
            ];
            for p in [lo, mid, hi, [hi[0] + 3.0, hi[1], hi[2]]] {
                for extra in [0.0, 0.8, 2.5] {
                    assert_eq!(
                        plan.functions_near(&basis, p, extra),
                        basis.functions_near(p, extra),
                        "p = {p:?}, extra = {extra}"
                    );
                }
            }
        }
    }
}
