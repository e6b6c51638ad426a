//! Sparsity screening: cutoff-sphere neighbor lists and per-batch
//! relevant-atom queries.
//!
//! NAO basis functions have strictly finite support — every shell of an
//! atom shares the element's `cutoff_radius()`, so two atoms can produce a
//! nonzero Hamiltonian/overlap/density pair contribution only when their
//! cutoff spheres overlap (`d < cut_I + cut_J`), and a basis function can be
//! nonzero at a grid point only when the point sits strictly inside the
//! sphere.  This module turns those two predicates into O(n) data
//! structures built on the [`footprint`](crate::footprint) cell list:
//!
//! * [`NeighborList`] — symmetric, self-complete CSR over atom pairs whose
//!   cutoff spheres overlap.  This is the support set of every assembled
//!   operator matrix (entries off this support are *exactly* `+0.0`).
//! * [`BatchScreen`] — point-centred range queries returning the atoms
//!   whose basis functions can reach a batch, using the *same strict `<`
//!   predicate* as `BasisSet::functions_near`, so the screened tabulation
//!   path selects bit-for-bit the same function lists as the dense linear
//!   scan.

use crate::footprint::{per_atom_cutoff, AtomCells};
use qp_chem::geometry::Structure;
use qp_linalg::vecops::dist3;

/// Symmetric atom-pair neighbor list: CSR over atoms whose basis cutoff
/// spheres overlap (`dist < cut_I + cut_J`, strict — matching the exact
/// support of the assembled operators).  Every atom neighbors itself.
#[derive(Debug, Clone)]
pub struct NeighborList {
    /// CSR row pointers, `natoms + 1` entries.
    pub row_ptr: Vec<usize>,
    /// Column indices per row, ascending; row `i` always contains `i`.
    pub cols: Vec<u32>,
    /// Per-atom basis cutoff radius used to build the list.
    pub cutoffs: Vec<f64>,
    max_cutoff: f64,
}

impl NeighborList {
    /// Build from the structure's element cutoff radii.
    pub fn build(structure: &Structure) -> Self {
        Self::with_cutoffs(structure, per_atom_cutoff(structure))
    }

    /// Build with explicit per-atom cutoffs (tests, hypothetical bases).
    pub fn with_cutoffs(structure: &Structure, cutoffs: Vec<f64>) -> Self {
        assert_eq!(cutoffs.len(), structure.len());
        let max_cutoff = cutoffs.iter().cloned().fold(0.0f64, f64::max);
        // Cell edge ~ the largest pair radius keeps the query stencil at
        // 3³ cells while the bins stay dense enough to be worth hashing.
        let cells = AtomCells::build(structure, (2.0 * max_cutoff).max(1e-6));
        let n = structure.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            let pi = structure.atoms[i].position;
            // `atoms_within` uses `<=` on a superset radius; re-apply the
            // strict per-pair predicate so the list matches the operator
            // support exactly.
            for j in cells.atoms_within(pi, cutoffs[i] + max_cutoff) {
                let d = dist3(pi, structure.atoms[j as usize].position);
                if d < cutoffs[i] + cutoffs[j as usize] {
                    cols.push(j);
                }
            }
            row_ptr.push(cols.len());
        }
        NeighborList {
            row_ptr,
            cols,
            cutoffs,
            max_cutoff,
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// True when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of atom `i` (ascending, includes `i`).
    pub fn neighbours(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Whether `(i, j)` is a surviving pair.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.neighbours(i).binary_search(&(j as u32)).is_ok()
    }

    /// Total stored (directed) pairs.
    pub fn n_pairs(&self) -> usize {
        self.cols.len()
    }

    /// Fraction of the dense `natoms²` pair space that survives screening.
    pub fn fill_ratio(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.n_pairs() as f64 / (n * n) as f64
    }

    /// Largest per-atom cutoff.
    pub fn max_cutoff(&self) -> f64 {
        self.max_cutoff
    }
}

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

    /// Largest per-atom cutoff.
    pub fn max_cutoff(&self) -> f64 {
        self.max_cutoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::structures::{polyethylene, water};

    #[test]
    fn neighbor_list_symmetric_and_self_complete() {
        for structure in [water(), polyethylene(16)] {
            let nl = NeighborList::build(&structure);
            assert_eq!(nl.len(), structure.len());
            for i in 0..nl.len() {
                // Self-complete: d = 0 < 2·cutoff always survives.
                assert!(nl.contains(i, i), "atom {i} missing from its own row");
                // Symmetric: the pair predicate is symmetric in (i, j).
                for &j in nl.neighbours(i) {
                    assert!(nl.contains(j as usize, i), "pair ({i}, {j}) not symmetric");
                }
                // Rows ascending.
                let row = nl.neighbours(i);
                assert!(row.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn neighbor_list_matches_brute_force() {
        let s = polyethylene(12);
        let nl = NeighborList::build(&s);
        let cut = per_atom_cutoff(&s);
        for i in 0..s.len() {
            for j in 0..s.len() {
                let d = dist3(s.atoms[i].position, s.atoms[j].position);
                assert_eq!(
                    nl.contains(i, j),
                    d < cut[i] + cut[j],
                    "pair ({i}, {j}) at d = {d}"
                );
            }
        }
    }

    #[test]
    fn all_overlapping_cluster_is_complete() {
        // Pathological tight cluster: every pair overlaps, the list is the
        // full n² pair set and screening degrades gracefully to dense.
        let mut s = water();
        for a in s.atoms.iter_mut() {
            for c in a.position.iter_mut() {
                *c *= 0.05;
            }
        }
        let nl = NeighborList::build(&s);
        assert_eq!(nl.n_pairs(), s.len() * s.len());
        assert!((nl.fill_ratio() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn chain_fill_ratio_drops_with_length() {
        let short = NeighborList::build(&polyethylene(4));
        let long = NeighborList::build(&polyethylene(64));
        assert!(long.fill_ratio() < short.fill_ratio());
        // Long chains are O(n): pairs per atom bounded by the chain's
        // geometry, not its length.
        let per_atom = long.n_pairs() as f64 / long.len() as f64;
        assert!(per_atom < 80.0, "pairs per atom {per_atom}");
    }

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
