//! Atoms, molecular structures and neighbour search.
//!
//! All coordinates are in Bohr (atomic units), matching the rest of the
//! physics. Neighbour queries use a uniform cell list so that the 200 000-atom
//! polyethylene workloads of the paper's scaling section stay O(N).

use crate::elements::Element;
use qp_linalg::vecops::dist3;
use std::collections::HashMap;

/// An atom: element plus Cartesian position (Bohr).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Chemical element.
    pub element: Element,
    /// Position in Bohr.
    pub position: [f64; 3],
}

impl Atom {
    /// Construct an atom.
    pub fn new(element: Element, position: [f64; 3]) -> Self {
        Atom { element, position }
    }
}

/// A molecular structure: an ordered list of atoms.
#[derive(Debug, Clone, Default)]
pub struct Structure {
    /// The atoms; index = the paper's "global atom ID".
    pub atoms: Vec<Atom>,
}

impl Structure {
    /// Build from atoms.
    pub fn new(atoms: Vec<Atom>) -> Self {
        Structure { atoms }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Total electron count (neutral molecule).
    pub fn num_electrons(&self) -> u32 {
        self.atoms.iter().map(|a| a.element.num_electrons()).sum()
    }

    /// Axis-aligned bounding box `(min, max)`.
    pub fn bounding_box(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for a in &self.atoms {
            for d in 0..3 {
                lo[d] = lo[d].min(a.position[d]);
                hi[d] = hi[d].max(a.position[d]);
            }
        }
        (lo, hi)
    }

    /// Nucleus-nucleus repulsion energy `Σ_{I<J} Z_I Z_J / R_IJ` (Hartree).
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.atoms.len() {
            for j in (i + 1)..self.atoms.len() {
                let r = dist3(self.atoms[i].position, self.atoms[j].position);
                e += (self.atoms[i].element.z() as f64) * (self.atoms[j].element.z() as f64) / r;
            }
        }
        e
    }

    /// Build a neighbour list: for every atom, the indices of atoms within
    /// `cutoff` Bohr (excluding itself), via a uniform cell list (O(N)).
    pub fn neighbours_within(&self, cutoff: f64) -> Vec<Vec<usize>> {
        let n = self.atoms.len();
        if n == 0 {
            return Vec::new();
        }
        let (lo, _hi) = self.bounding_box();
        let cell = cutoff.max(1e-9);
        let key = |p: [f64; 3]| -> (i64, i64, i64) {
            (
                ((p[0] - lo[0]) / cell).floor() as i64,
                ((p[1] - lo[1]) / cell).floor() as i64,
                ((p[2] - lo[2]) / cell).floor() as i64,
            )
        };
        let mut cells: HashMap<(i64, i64, i64), Vec<usize>> = HashMap::new();
        for (i, a) in self.atoms.iter().enumerate() {
            cells.entry(key(a.position)).or_default().push(i);
        }
        let mut out = vec![Vec::new(); n];
        for (i, a) in self.atoms.iter().enumerate() {
            let (cx, cy, cz) = key(a.position);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        if let Some(members) = cells.get(&(cx + dx, cy + dy, cz + dz)) {
                            for &j in members {
                                if j != i && dist3(a.position, self.atoms[j].position) <= cutoff {
                                    out[i].push(j);
                                }
                            }
                        }
                    }
                }
            }
            out[i].sort_unstable();
        }
        out
    }

    /// The first atom `j` (in input order) closer than `cutoff` Bohr to an
    /// earlier atom `i`, as `(i, j)`. The same uniform cell list as
    /// [`Self::neighbours_within`], but atoms enter it one at a time and the
    /// search stops at the first close pair: the atoms in the list stay
    /// pairwise `cutoff` apart, so each cell holds a bounded number of them
    /// and the cost is O(N) on any input, a million coincident atoms
    /// included. Cells are keyed by their floored f64 coordinates, so no
    /// span of finite coordinates overflows a key.
    pub(crate) fn first_pair_within(&self, cutoff: f64) -> Option<(usize, usize)> {
        let cell = cutoff.max(1e-9);
        // `+ 0.0` folds −0.0 into +0.0 before the bits become a key.
        let bits = |c: [f64; 3]| c.map(|v| (v + 0.0).to_bits());
        let mut cells: HashMap<[u64; 3], Vec<usize>> = HashMap::new();
        for (j, a) in self.atoms.iter().enumerate() {
            let c = a.position.map(|x| (x / cell).floor());
            for dx in [-1.0, 0.0, 1.0] {
                for dy in [-1.0, 0.0, 1.0] {
                    for dz in [-1.0, 0.0, 1.0] {
                        let Some(members) = cells.get(&bits([c[0] + dx, c[1] + dy, c[2] + dz]))
                        else {
                            continue;
                        };
                        for &i in members {
                            if dist3(self.atoms[i].position, a.position) < cutoff {
                                return Some((i, j));
                            }
                        }
                    }
                }
            }
            cells.entry(bits(c)).or_default().push(j);
        }
        None
    }

    /// Covalent bond list: pairs closer than 1.3 × the sum of covalent radii.
    pub fn bonds(&self) -> Vec<(usize, usize)> {
        let max_r: f64 = self
            .atoms
            .iter()
            .map(|a| a.element.covalent_radius())
            .fold(0.0, f64::max);
        let nb = self.neighbours_within(2.6 * max_r);
        let mut bonds = Vec::new();
        for (i, neigh) in nb.iter().enumerate() {
            for &j in neigh {
                if j > i {
                    let rsum = self.atoms[i].element.covalent_radius()
                        + self.atoms[j].element.covalent_radius();
                    if dist3(self.atoms[i].position, self.atoms[j].position) <= 1.3 * rsum {
                        bonds.push((i, j));
                    }
                }
            }
        }
        bonds
    }

    /// Count atoms per element.
    pub fn formula(&self) -> HashMap<Element, usize> {
        let mut f = HashMap::new();
        for a in &self.atoms {
            *f.entry(a.element).or_insert(0) += 1;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::water;

    #[test]
    fn water_has_three_atoms_ten_electrons() {
        let w = water();
        assert_eq!(w.len(), 3);
        assert_eq!(w.num_electrons(), 10);
    }

    #[test]
    fn water_bonds_are_two_oh() {
        let w = water();
        let bonds = w.bonds();
        assert_eq!(bonds.len(), 2);
        // Atom 0 is O in our generator.
        assert!(bonds.iter().all(|&(i, _)| i == 0));
    }

    #[test]
    fn neighbour_list_is_symmetric() {
        let w = water();
        let nb = w.neighbours_within(5.0);
        for (i, neigh) in nb.iter().enumerate() {
            for &j in neigh {
                assert!(nb[j].contains(&i), "asymmetry between {i} and {j}");
            }
        }
    }

    #[test]
    fn neighbour_list_matches_brute_force() {
        let w = crate::structures::polyethylene(4);
        let cutoff = 4.0;
        let nb = w.neighbours_within(cutoff);
        for i in 0..w.len() {
            for j in 0..w.len() {
                if i == j {
                    continue;
                }
                let within = dist3(w.atoms[i].position, w.atoms[j].position) <= cutoff;
                assert_eq!(nb[i].contains(&j), within, "pair ({i},{j})");
            }
        }
        // The early-exit search stops at the first atom with a close
        // predecessor, and no earlier atom has one.
        let close = |a: usize, b: usize| dist3(w.atoms[a].position, w.atoms[b].position) < cutoff;
        let (i, j) = w
            .first_pair_within(cutoff)
            .expect("bonds are shorter than 4 Bohr");
        assert!(i < j && close(i, j));
        assert!((0..j).all(|b| (0..b).all(|a| !close(a, b))));
        assert_eq!(w.first_pair_within(0.5), None);
    }

    #[test]
    fn nuclear_repulsion_positive_and_scales() {
        let w = water();
        let e = w.nuclear_repulsion();
        assert!(e > 0.0);
        // Moving atoms apart reduces repulsion.
        let mut stretched = w.clone();
        for a in stretched.atoms.iter_mut() {
            for d in 0..3 {
                a.position[d] *= 2.0;
            }
        }
        assert!(stretched.nuclear_repulsion() < e);
    }

    #[test]
    fn bounding_box_contains_all_atoms() {
        let p = crate::structures::polyethylene(10);
        let (lo, hi) = p.bounding_box();
        for a in &p.atoms {
            for d in 0..3 {
                assert!(a.position[d] >= lo[d] - 1e-12 && a.position[d] <= hi[d] + 1e-12);
            }
        }
    }
}
