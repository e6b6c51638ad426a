//! Sparsity screening: per-batch relevant-atom queries.
//!
//! NAO basis functions have strictly finite support — every shell of an
//! atom shares the element's `cutoff_radius()`, so a basis function can be
//! nonzero at a grid point only when the point sits strictly inside the
//! sphere.  [`BatchScreen`] turns that predicate into point-centred range
//! queries on the [`footprint`](crate::footprint) cell list, returning the
//! atoms whose basis functions can reach a batch.  It uses the *same strict
//! `<` predicate* as `BasisSet::functions_near`, so the screened tabulation
//! path selects bit-for-bit the same function lists as the dense linear
//! scan.

use crate::footprint::{per_atom_cutoff, AtomCells};
use qp_chem::geometry::Structure;
use qp_linalg::vecops::dist3;

/// Point-centred screening queries: which atoms' basis functions can be
/// nonzero within `extra` of a point.  Backed by the footprint cell list;
/// the strict predicate matches `BasisSet::functions_near` exactly.
#[derive(Debug)]
pub struct BatchScreen {
    cells: AtomCells,
    cutoffs: Vec<f64>,
    max_cutoff: f64,
    positions: Vec<[f64; 3]>,
}

impl BatchScreen {
    /// Build for a structure, taking cutoffs from the element table.
    pub fn build(structure: &Structure) -> Self {
        let cutoffs = per_atom_cutoff(structure);
        let max_cutoff = cutoffs.iter().cloned().fold(0.0f64, f64::max);
        BatchScreen {
            cells: AtomCells::build(structure, max_cutoff.max(1e-6)),
            cutoffs,
            max_cutoff,
            positions: structure.atoms.iter().map(|a| a.position).collect(),
        }
    }

    /// Atoms (ascending) with `dist(p, R_a) < cutoff_a + extra` — the exact
    /// support predicate of `functions_near`, accelerated by the cell list.
    pub fn atoms_near(&self, p: [f64; 3], extra: f64) -> Vec<u32> {
        let mut out = self.cells.atoms_within(p, self.max_cutoff + extra);
        out.retain(|&a| dist3(p, self.positions[a as usize]) < self.cutoffs[a as usize] + extra);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::structures::polyethylene;

    #[test]
    fn atoms_near_matches_linear_scan() {
        let s = polyethylene(8);
        let screen = BatchScreen::build(&s);
        let cut = per_atom_cutoff(&s);
        for p in [[0.0, 0.0, 0.0], [5.0, 1.0, -0.5], [40.0, 0.0, 0.2]] {
            for extra in [0.0, 1.5, 4.0] {
                let fast = screen.atoms_near(p, extra);
                let slow: Vec<u32> = (0..s.len() as u32)
                    .filter(|&a| dist3(p, s.atoms[a as usize].position) < cut[a as usize] + extra)
                    .collect();
                assert_eq!(fast, slow, "p = {p:?}, extra = {extra}");
            }
        }
    }
}
