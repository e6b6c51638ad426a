//! Hierarchical multipole far field for the Hartree potential.
//!
//! The direct Rho phase evaluates every atom's partitioned Hartree
//! contribution at every grid point — O(n_points · n_atoms), the last
//! quadratic wall of the density cycle. This module replaces the *far*
//! part of that sum with a cluster hierarchy:
//!
//! * [`ClusterTree`] — an adaptive octree over atom centers. Each node
//!   records the centroid and covering radius of its member atoms.
//! * [`FarField`] — per-node multipole moments, produced by translating
//!   every member atom's far-field tail (`HartreeSolution::tails`, an
//!   ideal point multipole above `r_outer`) to the node centroid with
//!   [`MomentTranslator`]. The translation is exact; the only error is
//!   truncating each cluster expansion at `LMAX_SUPPORTED`.
//!
//! Evaluation walks the tree with a dual acceptance criterion: a node is
//! served from its aggregated expansion only when every member atom is
//! strictly beyond the near radius (`d − radius > r_near`, so the exact
//! path would have used the analytic tail for all of them anyway) *and*
//! the opening angle satisfies `radius ≤ θ·d` with
//! `θ = (0.1·tol)^{1/(lmax+1)}`, bounding the truncation error of each
//! accepted node at ~0.1·tol relative to its own contribution. Atoms that
//! fail either test land in the *near* set and are evaluated through
//! [`HartreeSolution::eval_atoms`] in ascending order — bit-identical to
//! what the direct path computes for those same atoms.

use qp_chem::harmonics::{num_harmonics, LMAX_SUPPORTED};
use qp_chem::multipole::{multipole_tail_fast, HartreeSolution, MomentTranslator};
use qp_linalg::vecops::dist3;

/// One cluster: centroid/radius summary plus the member range in
/// [`ClusterTree::order`].
#[derive(Debug, Clone)]
pub struct ClusterNode {
    /// Centroid of the member atom centers.
    pub center: [f64; 3],
    /// Max distance from the centroid to any member atom.
    pub radius: f64,
    /// Member range `order[start..start + len]`.
    pub start: usize,
    /// Member count.
    pub len: usize,
    /// Child node indices (empty for leaves).
    pub children: Vec<u32>,
}

/// Adaptive octree over atom centers; geometry-only, so one tree serves
/// every SCF/DFPT iteration of a system.
#[derive(Debug)]
pub struct ClusterTree {
    /// Nodes in pre-order; `nodes[0]` is the root.
    pub nodes: Vec<ClusterNode>,
    /// Atom permutation; each node's members are a contiguous slice.
    pub order: Vec<u32>,
    atom_centers: Vec<[f64; 3]>,
}

impl ClusterTree {
    /// Build over `centers` with at most `leaf_max` atoms per leaf.
    pub fn build(centers: &[[f64; 3]], leaf_max: usize) -> ClusterTree {
        assert!(leaf_max >= 1 && !centers.is_empty());
        let mut tree = ClusterTree {
            nodes: Vec::new(),
            order: (0..centers.len() as u32).collect(),
            atom_centers: centers.to_vec(),
        };
        let n = centers.len();
        tree.build_rec(0, n, leaf_max, 0);
        tree
    }

    /// Member atoms of node `ni` (a permutation slice, stable build order).
    pub fn members(&self, ni: usize) -> &[u32] {
        let node = &self.nodes[ni];
        &self.order[node.start..node.start + node.len]
    }

    /// Number of atoms covered.
    pub fn natoms(&self) -> usize {
        self.order.len()
    }

    fn build_rec(&mut self, start: usize, end: usize, leaf_max: usize, depth: usize) -> usize {
        let members = &self.order[start..end];
        let mut c = [0.0f64; 3];
        for &a in members {
            let p = self.atom_centers[a as usize];
            for d in 0..3 {
                c[d] += p[d];
            }
        }
        let inv = 1.0 / members.len() as f64;
        let center = [c[0] * inv, c[1] * inv, c[2] * inv];
        let radius = members
            .iter()
            .map(|&a| dist3(center, self.atom_centers[a as usize]))
            .fold(0.0f64, f64::max);
        let ni = self.nodes.len();
        self.nodes.push(ClusterNode {
            center,
            radius,
            start,
            len: end - start,
            children: Vec::new(),
        });
        if end - start <= leaf_max || depth > 40 {
            return ni;
        }
        // Split at the bounding-box midpoint; stable partition into the
        // octants keeps the build deterministic. Only axes whose extent is
        // a significant share of the longest one take part in the cut: a
        // midpoint cut along a short axis of an elongated cluster (e.g. a
        // polymer chain) groups atoms that sit far apart along the long
        // axis, producing spatially wide small-membership leaves whose
        // radii defeat the multipole acceptance criterion.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for &a in &self.order[start..end] {
            let p = self.atom_centers[a as usize];
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let ext = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let emax = ext[0].max(ext[1]).max(ext[2]);
        let mid = [
            0.5 * (lo[0] + hi[0]),
            0.5 * (lo[1] + hi[1]),
            0.5 * (lo[2] + hi[2]),
        ];
        let active: Vec<usize> = (0..3).filter(|&d| ext[d] >= 0.5 * emax).collect();
        let octant = |a: u32| -> usize {
            let p = self.atom_centers[a as usize];
            active.iter().enumerate().fold(0usize, |idx, (bit, &d)| {
                if p[d] >= mid[d] {
                    idx | (1 << bit)
                } else {
                    idx
                }
            })
        };
        let mut parts: [Vec<u32>; 8] = Default::default();
        for &a in &self.order[start..end] {
            parts[octant(a)].push(a);
        }
        if parts.iter().filter(|p| !p.is_empty()).count() < 2 {
            // Degenerate (coincident points): stay a leaf.
            return ni;
        }
        let mut cursor = start;
        let mut ranges = Vec::new();
        for part in parts.iter() {
            if part.is_empty() {
                continue;
            }
            self.order[cursor..cursor + part.len()].copy_from_slice(part);
            ranges.push((cursor, cursor + part.len()));
            cursor += part.len();
        }
        let mut children = Vec::with_capacity(ranges.len());
        for (s, e) in ranges {
            children.push(self.build_rec(s, e, leaf_max, depth + 1) as u32);
        }
        self.nodes[ni].children = children;
        ni
    }
}

/// Read the far-field accuracy budget from `QP_FARFIELD_TOL`
/// (default `1e-8`): the tolerated deviation of the tree-served potential
/// from the direct sum.
pub fn farfield_tol() -> f64 {
    std::env::var("QP_FARFIELD_TOL")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|t| *t > 0.0)
        .unwrap_or(1e-8)
}

/// Per-node aggregated multipole moments for one [`HartreeSolution`]:
/// rebuilt every Poisson solve (the moments change), reusing the
/// geometry-only [`ClusterTree`].
#[derive(Debug)]
pub struct FarField {
    /// Cluster expansion order (`LMAX_SUPPORTED`).
    pub lmax: usize,
    /// `(lmax+1)²`.
    pub n_lm: usize,
    /// Real moment vector per tree node, about the node centroid.
    moments: Vec<Vec<f64>>,
    /// Opening-angle bound derived from the accuracy budget.
    theta: f64,
    /// Atoms closer than this must go through the exact near path
    /// (`HartreeSolution::r_outer`: beyond it the direct evaluator itself
    /// switches to the analytic tail the cluster expansions aggregate).
    r_near: f64,
}

impl FarField {
    /// Aggregate every atom tail of `sol` into per-node cluster moments.
    /// Nodes are independent — the sweep parallelizes over them, and each
    /// node translates its members in `order` sequence, so the result is
    /// deterministic at any thread count.
    pub fn aggregate(tree: &ClusterTree, sol: &HartreeSolution, tol: f64) -> FarField {
        assert_eq!(tree.natoms(), sol.centers.len());
        let lmax = LMAX_SUPPORTED;
        let n_lm = num_harmonics(lmax);
        let tr = MomentTranslator::new(sol.lmax, lmax);
        let est = (n_lm * num_harmonics(sol.lmax) * 4).max(1) as u64;
        let moments =
            qp_par::map_vec_hinted((0..tree.nodes.len()).collect::<Vec<usize>>(), est, |ni| {
                let node = &tree.nodes[ni];
                let mut q = vec![0.0; n_lm];
                for &ia in tree.members(ni) {
                    tr.translate(
                        &sol.tails[ia as usize],
                        sol.centers[ia as usize],
                        node.center,
                        &mut q,
                    );
                }
                q
            });
        let theta = (0.1 * tol).powf(1.0 / (lmax + 1) as f64).clamp(0.05, 0.6);
        FarField {
            lmax,
            n_lm,
            moments,
            theta,
            r_near: sol.r_outer,
        }
    }

    /// Whether node `ni` may be served from its aggregated expansion when
    /// evaluating at `p`.
    fn accepts(&self, node: &ClusterNode, d: f64) -> bool {
        d - node.radius > self.r_near && node.radius <= self.theta * d
    }

    /// Near/far split at `p`: the near part is
    /// `sol.eval_atoms(p, near_atoms)` over the ascending near set
    /// (bit-identical to the direct path's contribution of those atoms);
    /// the far part sums accepted cluster expansions.
    pub fn eval_split(&self, tree: &ClusterTree, sol: &HartreeSolution, p: [f64; 3]) -> (f64, f64) {
        let mut near: Vec<usize> = Vec::new();
        let mut far = 0.0;
        let mut ylm = vec![0.0; self.n_lm];
        let mut stack = vec![0usize];
        while let Some(ni) = stack.pop() {
            let node = &tree.nodes[ni];
            let d = dist3(p, node.center);
            if self.accepts(node, d) {
                far += multipole_tail_fast(&self.moments[ni], self.lmax, node.center, p, &mut ylm);
            } else if node.children.is_empty() {
                near.extend(tree.members(ni).iter().map(|&a| a as usize));
            } else {
                for &c in node.children.iter().rev() {
                    stack.push(c as usize);
                }
            }
        }
        near.sort_unstable();
        (sol.eval_atoms(p, near), far)
    }

    /// Tree-served total potential at `p` (near + far).
    pub fn eval(&self, tree: &ClusterTree, sol: &HartreeSolution, p: [f64; 3]) -> f64 {
        let (near, far) = self.eval_split(tree, sol, p);
        near + far
    }

    /// The ascending near-set at `p` — every atom whose contribution the
    /// split evaluates exactly. Always a superset of the atoms within
    /// `r_near` of `p` (tests pin this).
    pub fn near_atoms(&self, tree: &ClusterTree, p: [f64; 3]) -> Vec<usize> {
        let mut near: Vec<usize> = Vec::new();
        let mut stack = vec![0usize];
        while let Some(ni) = stack.pop() {
            let node = &tree.nodes[ni];
            let d = dist3(p, node.center);
            if self.accepts(node, d) {
                continue;
            }
            if node.children.is_empty() {
                near.extend(tree.members(ni).iter().map(|&a| a as usize));
            } else {
                for &c in node.children.iter().rev() {
                    stack.push(c as usize);
                }
            }
        }
        near.sort_unstable();
        near
    }

    /// Heap bytes of the aggregated moment tables.
    pub fn memory_bytes(&self) -> usize {
        self.moments.iter().map(|m| m.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::grids::{GridSettings, IntegrationGrid};
    use qp_chem::multipole::{solve_poisson, MultipoleMoments};
    use qp_chem::structures::polyethylene;

    #[test]
    fn tree_partitions_atoms_with_covering_radii() {
        let s = polyethylene(40);
        let centers: Vec<[f64; 3]> = s.atoms.iter().map(|a| a.position).collect();
        let tree = ClusterTree::build(&centers, 8);
        // Root covers everything; order is a permutation.
        assert_eq!(tree.nodes[0].len, centers.len());
        let mut seen = vec![false; centers.len()];
        for &a in tree.members(0) {
            assert!(!seen[a as usize]);
            seen[a as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        for (ni, node) in tree.nodes.iter().enumerate() {
            // Radius covers every member.
            for &a in tree.members(ni) {
                assert!(
                    dist3(node.center, centers[a as usize]) <= node.radius + 1e-12,
                    "node {ni} member {a} outside radius"
                );
            }
            // Children partition the parent's range exactly.
            if !node.children.is_empty() {
                let mut cursor = node.start;
                for &c in &node.children {
                    let ch = &tree.nodes[c as usize];
                    assert_eq!(ch.start, cursor);
                    cursor += ch.len;
                }
                assert_eq!(cursor, node.start + node.len);
            } else {
                assert!(node.len <= 8 || node.radius == 0.0);
            }
        }
    }

    #[test]
    fn degenerate_coincident_atoms_become_a_leaf() {
        let centers = vec![[1.0, 2.0, 3.0]; 30];
        let tree = ClusterTree::build(&centers, 8);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.nodes[0].radius, 0.0);
    }

    #[test]
    fn far_field_matches_direct_within_budget() {
        // A long chain with a smooth synthetic density: the tree-served
        // potential must agree with the direct per-atom sum within the
        // accuracy budget at every grid point, and the near sets must
        // cover every atom inside r_outer.
        let s = polyethylene(24);
        let mut gs = GridSettings::coarse();
        gs.n_radial = 8;
        gs.max_angular = 6;
        gs.min_angular = 6;
        let grid = IntegrationGrid::build(&s, &gs);
        let n: Vec<f64> = grid
            .points
            .iter()
            .map(|p| (1.0 + 0.1 * p.position[0]).abs() * 1e-3)
            .collect();
        let mom = MultipoleMoments::compute(&s, &grid, &n, 2);
        let sol = solve_poisson(&s, &grid, &mom);
        let centers: Vec<[f64; 3]> = s.atoms.iter().map(|a| a.position).collect();
        let tree = ClusterTree::build(&centers, 8);
        let tol = 1e-8;
        let far = FarField::aggregate(&tree, &sol, tol);
        assert!(far.memory_bytes() > 0);
        for ip in (0..grid.points.len()).step_by(13) {
            let p = grid.points[ip].position;
            let direct = sol.eval(p);
            let treed = far.eval(&tree, &sol, p);
            assert!(
                (treed - direct).abs() <= tol * direct.abs().max(1.0),
                "point {ip}: tree {treed} vs direct {direct}"
            );
            let near = far.near_atoms(&tree, p);
            for (ia, c) in centers.iter().enumerate() {
                if dist3(p, *c) <= sol.r_outer {
                    assert!(
                        near.binary_search(&ia).is_ok(),
                        "atom {ia} within r_outer missing from near set"
                    );
                }
            }
            // Near contribution is the exact eval_atoms sum over the set.
            let (near_v, far_v) = far.eval_split(&tree, &sol, p);
            let oracle = sol.eval_atoms(p, near.iter().copied());
            assert_eq!(near_v.to_bits(), oracle.to_bits());
            assert_eq!((near_v + far_v).to_bits(), treed.to_bits());
        }
    }

    /// Synthetic [`HartreeSolution`] over hand-placed atoms: random tails
    /// (ideal point multipoles above `r_outer`) and smooth radial splines
    /// below it — everything the tree path touches, without a full grid +
    /// Poisson solve per proptest case.
    fn synthetic_solution(centers: &[[f64; 3]], lmax: usize, tails: &[f64]) -> HartreeSolution {
        use qp_chem::harmonics::num_harmonics;
        use qp_chem::spline::CubicSpline;
        let n_lm = num_harmonics(lmax);
        let r_outer = 3.0;
        let radii: Vec<f64> = (0..12)
            .map(|i| 0.05 + (i as f64) * (r_outer - 0.05) / 11.0)
            .collect();
        let mut atom_tails = Vec::with_capacity(centers.len());
        let mut splines = Vec::with_capacity(centers.len());
        for ia in 0..centers.len() {
            let q: Vec<f64> = (0..n_lm)
                .map(|lm| tails[(ia * n_lm + lm) % tails.len()])
                .collect();
            let atom_splines: Vec<CubicSpline> = (0..n_lm)
                .map(|lm| {
                    let v: Vec<f64> = radii.iter().map(|r| q[lm] / (1.0 + r * r)).collect();
                    CubicSpline::natural(radii.clone(), v)
                })
                .collect();
            atom_tails.push(q);
            splines.push(atom_splines);
        }
        HartreeSolution::from_channels(lmax, centers.to_vec(), &splines, atom_tails, r_outer)
    }

    mod random_geometries {
        use super::super::*;
        use super::synthetic_solution;
        use proptest::prelude::*;

        // On random atom clouds: (i) every atom within the near radius is
        // served by the exact near path, whose partial sum is bit-identical
        // to the direct evaluator restricted to the near set; (ii) the
        // tree-served total agrees with the full direct sum within the
        // far-field accuracy budget.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn near_bit_identity_and_total_within_budget(
                coords in prop::collection::vec(-20.0f64..20.0, 3 * 4..3 * 24),
                tails in prop::collection::vec(-1.0f64..1.0, 9..36),
                px in -25.0f64..25.0,
                py in -25.0f64..25.0,
                pz in -25.0f64..25.0,
            ) {
                let centers: Vec<[f64; 3]> = coords
                    .chunks_exact(3)
                    .map(|c| [c[0], c[1], c[2]])
                    .collect();
                let sol = synthetic_solution(&centers, 2, &tails);
                let tree = ClusterTree::build(&centers, 3);
                let tol = farfield_tol();
                let far = FarField::aggregate(&tree, &sol, tol);
                let p = [px, py, pz];

                // (i) near-field bit-identity within the cutoff.
                let near = far.near_atoms(&tree, p);
                for (ia, c) in centers.iter().enumerate() {
                    if dist3(p, *c) <= sol.r_outer {
                        prop_assert!(
                            near.binary_search(&ia).is_ok(),
                            "atom {ia} within r_outer missing from near set"
                        );
                    }
                }
                let (near_v, far_v) = far.eval_split(&tree, &sol, p);
                let near_oracle = sol.eval_atoms(p, near.iter().copied());
                prop_assert_eq!(near_v.to_bits(), near_oracle.to_bits());

                // (ii) total within QP_FARFIELD_TOL of the direct sum.
                let direct = sol.eval(p);
                let treed = near_v + far_v;
                prop_assert!(
                    (treed - direct).abs() <= tol * direct.abs().max(1.0),
                    "tree {} vs direct {} (tol {})", treed, direct, tol
                );
            }
        }
    }
}
