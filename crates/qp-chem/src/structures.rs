//! Deterministic generators for the paper's three biomolecular workloads
//! (Fig. 8): the SARS-CoV-2 RBD (3 006 atoms), the HIV-1 protease ligand
//! (49 atoms), and the H(C₂H₄)ₙH polyethylene chains used for all scaling
//! studies (up to n = 33 335 → 200 012 atoms).
//!
//! We do not ship PDB coordinates; what the evaluation actually consumes is
//! the *statistics* of the geometry — atom density, neighbour counts, basis
//! functions per atom, spatial extent — so the generators reproduce those
//! deterministically (fixed seeds, no `Instant`/entropy).

use crate::elements::Element;
use crate::geometry::{Atom, Structure};

/// Bohr per Ångström.
pub const BOHR_PER_ANGSTROM: f64 = 1.8897259886;

/// A builtin structure by name, as `qperturb --builtin` and a served
/// `{"builtin": …}` request spell it: `water`, `ligand`, `polymer[:N]`
/// (H(C₂H₄)ₙH) or `helix[:N]` (N residues); N defaults to 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// [`water`].
    Water,
    /// [`ligand49`].
    Ligand,
    /// [`polyethylene`] with n ≥ 1 monomers.
    Polymer(usize),
    /// [`helix`] with n ≥ 1 residues.
    Helix(usize),
}

/// A name that is not a [`Builtin`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuiltinError {
    /// No builtin has this name.
    Unknown(String),
    /// The chain length after `:` is not a whole number of at least 1.
    BadLength(String),
}

impl std::fmt::Display for BuiltinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuiltinError::Unknown(name) => write!(f, "unknown builtin '{name}'"),
            BuiltinError::BadLength(n) => write!(f, "builtin chain length '{n}' is not >= 1"),
        }
    }
}

impl std::error::Error for BuiltinError {}

impl std::str::FromStr for Builtin {
    type Err = BuiltinError;

    fn from_str(name: &str) -> Result<Builtin, BuiltinError> {
        let (base, param) = match name.split_once(':') {
            Some((b, p)) => (b, Some(p)),
            None => (name, None),
        };
        let len = param.unwrap_or("10");
        let chain_len = || match len.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(BuiltinError::BadLength(len.to_string())),
        };
        match base {
            "water" if param.is_none() => Ok(Builtin::Water),
            "ligand" if param.is_none() => Ok(Builtin::Ligand),
            "polymer" => chain_len().map(Builtin::Polymer),
            "helix" => chain_len().map(Builtin::Helix),
            _ => Err(BuiltinError::Unknown(name.to_string())),
        }
    }
}

impl Builtin {
    /// Generate the structure.
    pub fn structure(self) -> Structure {
        match self {
            Builtin::Water => water(),
            Builtin::Ligand => ligand49(),
            Builtin::Polymer(n) => polyethylene(n),
            Builtin::Helix(n) => helix(n),
        }
    }
}

/// A single water molecule (the Fig. 2 illustration system). Atom 0 is O.
pub fn water() -> Structure {
    let a = BOHR_PER_ANGSTROM;
    // Experimental geometry: r(OH) = 0.9572 A, angle 104.52 degrees.
    let r = 0.9572 * a;
    let half = (104.52f64 / 2.0).to_radians();
    Structure::new(vec![
        Atom::new(Element::O, [0.0, 0.0, 0.0]),
        Atom::new(Element::H, [r * half.sin(), r * half.cos(), 0.0]),
        Atom::new(Element::H, [-r * half.sin(), r * half.cos(), 0.0]),
    ])
}

/// H(C₂H₄)ₙH polyethylene: planar zig-zag backbone along +x with the two
/// chain-terminating hydrogens, `6 n + 2` atoms total.
///
/// `n = 5 000` gives the paper's 30 002-atom system; `n = 33 335` its
/// 200 012-atom system.
pub fn polyethylene(n: usize) -> Structure {
    let a = BOHR_PER_ANGSTROM;
    let cc = 1.54 * a; // C-C bond
    let ch = 1.09 * a; // C-H bond
    let theta = 113.0f64.to_radians(); // C-C-C angle
    let dx = cc * (theta / 2.0).sin(); // backbone advance per carbon
    let dy = cc * (theta / 2.0).cos(); // zig-zag amplitude

    let ncarbon = 2 * n;
    let mut atoms = Vec::with_capacity(6 * n + 2);

    // Backbone carbons with their two hydrogens each.
    let hz = ch * (109.5f64 / 2.0).to_radians().sin();
    let hy = ch * (109.5f64 / 2.0).to_radians().cos();
    for i in 0..ncarbon {
        let x = i as f64 * dx;
        let y = if i % 2 == 0 { 0.0 } else { dy };
        atoms.push(Atom::new(Element::C, [x, y, 0.0]));
        // The CH2 hydrogens stick out of the backbone plane (+-z), tilted
        // away from the chain in y.
        let ysign = if i % 2 == 0 { -1.0 } else { 1.0 };
        atoms.push(Atom::new(Element::H, [x, y + ysign * hy, hz]));
        atoms.push(Atom::new(Element::H, [x, y + ysign * hy, -hz]));
    }
    // Terminating hydrogens extend the backbone line.
    let first = [-ch * (theta / 2.0).sin(), -ch * (theta / 2.0).cos(), 0.0];
    atoms.push(Atom::new(Element::H, first));
    let lx = (ncarbon - 1) as f64 * dx;
    let ly = if (ncarbon - 1).is_multiple_of(2) {
        0.0
    } else {
        dy
    };
    let lysign = if (ncarbon - 1).is_multiple_of(2) {
        1.0
    } else {
        -1.0
    };
    atoms.push(Atom::new(
        Element::H,
        [
            lx + ch * (theta / 2.0).sin(),
            ly + lysign * ch * (theta / 2.0).cos(),
            0.0,
        ],
    ));
    Structure::new(atoms)
}

/// Splittable deterministic LCG used by the structure generators.
#[derive(Debug, Clone)]
pub(crate) struct SeededRng(u64);

impl SeededRng {
    pub(crate) fn new(seed: u64) -> Self {
        SeededRng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }
    /// Uniform in [0, 1).
    pub(crate) fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in [-1, 1).
    pub(crate) fn next_sym(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// A 49-atom HIV-1-protease-ligand-like molecule (paper Fig. 8b, PDB 1a30
/// ligand): a branched organic scaffold with C/N/O heavy atoms and attached
/// hydrogens, 49 atoms, deterministic.
pub fn ligand49() -> Structure {
    let a = BOHR_PER_ANGSTROM;
    let mut rng = SeededRng::new(1930); // "1a30"
    let bond = 1.5 * a;
    // 24 heavy atoms in a self-avoiding walk with short branches, then fill
    // with hydrogens up to 49 atoms (25 H): close to the real ligand's
    // composition (a glutamate-glutamate-(2-methyl)propane peptidomimetic).
    let heavy_elements = [
        Element::C,
        Element::C,
        Element::C,
        Element::N,
        Element::C,
        Element::C,
        Element::O,
        Element::C,
        Element::C,
        Element::N,
        Element::C,
        Element::O,
        Element::C,
        Element::C,
        Element::C,
        Element::O,
        Element::C,
        Element::N,
        Element::C,
        Element::C,
        Element::O,
        Element::C,
        Element::C,
        Element::C,
    ];
    let mut atoms: Vec<Atom> = Vec::with_capacity(49);
    let mut pos = [0.0f64; 3];
    let mut dir = [1.0f64, 0.0, 0.0];
    for (k, &el) in heavy_elements.iter().enumerate() {
        atoms.push(Atom::new(el, pos));
        // Advance the walk, bending deterministically but acceptably
        // tetrahedral; every 6th heavy atom starts a short branch kink.
        let bend = if k % 6 == 5 { 1.4 } else { 0.6 };
        dir = [
            dir[0] + bend * rng.next_sym(),
            dir[1] + bend * rng.next_sym(),
            dir[2] + bend * rng.next_sym(),
        ];
        let n = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
        dir = [dir[0] / n, dir[1] / n, dir[2] / n];
        pos = [
            pos[0] + bond * dir[0],
            pos[1] + bond * dir[1],
            pos[2] + bond * dir[2],
        ];
    }
    // Hydrogens: attach to heavy atoms round-robin at 1.05 A, choosing for
    // each the deterministic direction that maximizes the distance to every
    // already-placed atom (keeps the overlap matrix well conditioned).
    let hbond = 1.05 * a;
    let mut h = 0usize;
    while atoms.len() < 49 {
        let parent = atoms[h % 24].position;
        let mut best: Option<([f64; 3], f64)> = None;
        for trial in 0..24 {
            let phi = 2.399963 * (trial as f64) + 0.35 * h as f64;
            let cost = 1.0 - 2.0 * ((trial as f64 * 0.381966) + 0.09 * h as f64).fract();
            let sint = (1.0 - cost * cost).sqrt();
            let cand = [
                parent[0] + hbond * sint * phi.cos(),
                parent[1] + hbond * sint * phi.sin(),
                parent[2] + hbond * cost,
            ];
            let min_d = atoms
                .iter()
                .map(|at| qp_linalg::vecops::dist3(cand, at.position))
                .fold(f64::INFINITY, f64::min);
            if best.map(|(_, d)| min_d > d).unwrap_or(true) {
                best = Some((cand, min_d));
            }
        }
        atoms.push(Atom::new(Element::H, best.expect("trials").0));
        h += 1;
    }
    Structure::new(atoms)
}

/// An RBD-like pseudo-protein blob with `n_atoms` atoms (paper Fig. 8a uses
/// 3 006). Heavy atoms sit on a jittered cubic lattice inside a ball at
/// protein-like density (~0.1 atoms/Å³ including H); element ratios follow
/// typical protein composition (H ~50 %, C ~32 %, N ~8.5 %, O ~8.5 %, S ~1 %).
pub fn rbd_like(n_atoms: usize) -> Structure {
    let a = BOHR_PER_ANGSTROM;
    let mut rng = SeededRng::new(3006);
    let spacing = 1.9 * a; // mean nearest-neighbour distance ~ bonded
                           // Ball radius so the lattice ball holds n_atoms sites: volume per site
                           // = spacing^3 (simple cubic).
    let vol = n_atoms as f64 * spacing.powi(3);
    // 12% radius margin absorbs lattice discreteness; excess sites are
    // truncated below after sorting by distance.
    let radius = 1.12 * (3.0 * vol / (4.0 * std::f64::consts::PI)).cbrt();
    let kmax = (radius / spacing).ceil() as i64 + 1;

    let mut sites: Vec<[f64; 3]> = Vec::new();
    for ix in -kmax..=kmax {
        for iy in -kmax..=kmax {
            for iz in -kmax..=kmax {
                let p = [
                    ix as f64 * spacing,
                    iy as f64 * spacing,
                    iz as f64 * spacing,
                ];
                if (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt() <= radius {
                    sites.push(p);
                }
            }
        }
    }
    // Sort by distance from origin so truncation keeps the blob compact.
    sites.sort_by(|p, q| {
        let rp = p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
        let rq = q[0] * q[0] + q[1] * q[1] + q[2] * q[2];
        rp.partial_cmp(&rq).expect("finite radii")
    });
    assert!(
        sites.len() >= n_atoms,
        "lattice ball too small: {} sites for {} atoms",
        sites.len(),
        n_atoms
    );
    sites.truncate(n_atoms);

    let mut atoms = Vec::with_capacity(n_atoms);
    for (i, site) in sites.iter().enumerate() {
        let jitter = 0.25 * spacing;
        let p = [
            site[0] + jitter * rng.next_sym(),
            site[1] + jitter * rng.next_sym(),
            site[2] + jitter * rng.next_sym(),
        ];
        // Deterministic element assignment by cumulative ratio.
        let u = (i as f64 * 0.6180339887498949).fract();
        let el = if u < 0.50 {
            Element::H
        } else if u < 0.82 {
            Element::C
        } else if u < 0.905 {
            Element::N
        } else if u < 0.99 {
            Element::O
        } else {
            Element::S
        };
        atoms.push(Atom::new(el, p));
    }
    Structure::new(atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_linalg::vecops::dist3;

    #[test]
    fn builtin_names_resolve_or_are_typed_errors() {
        let parse = |s: &str| s.parse::<Builtin>();
        assert_eq!(parse("water"), Ok(Builtin::Water));
        assert_eq!(parse("ligand"), Ok(Builtin::Ligand));
        assert_eq!(parse("polymer"), Ok(Builtin::Polymer(10)));
        assert_eq!(parse("polymer:8"), Ok(Builtin::Polymer(8)));
        assert_eq!(parse("helix:1"), Ok(Builtin::Helix(1)));
        assert_eq!(parse("polymer:2").unwrap().structure().len(), 14);
        for bad in ["helix:0", "polymer:0", "polymer:x", "polymer:-1", "helix:"] {
            assert!(
                matches!(parse(bad), Err(BuiltinError::BadLength(_))),
                "{bad}"
            );
        }
        for bad in ["unobtanium", "water:3", ""] {
            assert!(matches!(parse(bad), Err(BuiltinError::Unknown(_))), "{bad}");
        }
    }

    #[test]
    fn polyethylene_atom_count_formula() {
        for n in [1usize, 2, 10, 100] {
            assert_eq!(polyethylene(n).len(), 6 * n + 2, "n = {n}");
        }
    }

    #[test]
    fn paper_scaling_systems_have_published_sizes() {
        // The paper's five strong/weak-scaling systems.
        assert_eq!(polyethylene(2500).len(), 15_002);
        assert_eq!(polyethylene(5000).len(), 30_002);
        assert_eq!(polyethylene(10000).len(), 60_002);
        assert_eq!(polyethylene(19600).len(), 117_602);
        assert_eq!(polyethylene(33335).len(), 200_012);
    }

    #[test]
    fn polyethylene_cc_bond_lengths_correct() {
        let p = polyethylene(5);
        let a = BOHR_PER_ANGSTROM;
        // Carbons are at indices 0, 3, 6, ... (each C followed by 2 H).
        for i in 0..9 {
            let c0 = p.atoms[3 * i].position;
            let c1 = p.atoms[3 * (i + 1)].position;
            assert!((dist3(c0, c1) - 1.54 * a).abs() < 1e-9);
        }
    }

    #[test]
    fn polyethylene_is_deterministic() {
        let p1 = polyethylene(7);
        let p2 = polyethylene(7);
        for (a1, a2) in p1.atoms.iter().zip(p2.atoms.iter()) {
            assert_eq!(a1, a2);
        }
    }

    #[test]
    fn ligand_has_49_atoms_with_cnoh() {
        let l = ligand49();
        assert_eq!(l.len(), 49);
        let f = l.formula();
        assert!(f[&Element::C] >= 10);
        assert!(f[&Element::N] >= 2);
        assert!(f[&Element::O] >= 2);
        assert!(f[&Element::H] >= 20);
    }

    #[test]
    fn ligand_atoms_not_overlapping() {
        let l = ligand49();
        for i in 0..l.len() {
            for j in (i + 1)..l.len() {
                let d = dist3(l.atoms[i].position, l.atoms[j].position);
                assert!(d > 1.3, "atoms {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn rbd_like_count_and_composition() {
        let r = rbd_like(3006);
        assert_eq!(r.len(), 3006);
        let f = r.formula();
        let h = f[&Element::H] as f64 / 3006.0;
        assert!(h > 0.45 && h < 0.55, "H fraction {h}");
        assert!(f.contains_key(&Element::S));
    }

    #[test]
    fn rbd_like_is_blob_shaped() {
        let r = rbd_like(500);
        let (lo, hi) = r.bounding_box();
        let ext: Vec<f64> = (0..3).map(|d| hi[d] - lo[d]).collect();
        // Roughly isotropic: no dimension more than 2x another.
        for d in 0..3 {
            for e in 0..3 {
                assert!(ext[d] / ext[e] < 2.0, "anisotropic blob: {ext:?}");
            }
        }
    }

    #[test]
    fn rbd_like_deterministic() {
        let a = rbd_like(100);
        let b = rbd_like(100);
        for (x, y) in a.atoms.iter().zip(b.atoms.iter()) {
            assert_eq!(x, y);
        }
    }
}

/// A poly-glycine-like helix: heavy backbone atoms on an α-helix curve
/// (radius 2.3 Å, rise 1.5 Å per residue, 100° turn) with one hydrogen per
/// heavy atom. `n_residues` residues × 3 backbone atoms (N, C, C) × 2 = 6
/// atoms per residue. A genuinely 3-D but quasi-1-D workload — the shape
/// between the straight polyethylene chain and the RBD ball, used by the
/// batching/mapping ablations.
pub fn helix(n_residues: usize) -> Structure {
    let a = BOHR_PER_ANGSTROM;
    let radius = 2.3 * a;
    let rise = 1.5 * a;
    let turn = 100.0f64.to_radians();
    let backbone = [Element::N, Element::C, Element::C];
    let mut atoms = Vec::with_capacity(6 * n_residues);
    for res in 0..n_residues {
        for (k, &el) in backbone.iter().enumerate() {
            let t = res as f64 + k as f64 / 3.0;
            let phi = t * turn;
            let p = [radius * phi.cos(), radius * phi.sin(), t * rise];
            atoms.push(Atom::new(el, p));
            // One hydrogen pointing outward.
            let hr = radius + 1.05 * a;
            atoms.push(Atom::new(
                Element::H,
                [hr * phi.cos(), hr * phi.sin(), t * rise],
            ));
        }
    }
    Structure::new(atoms)
}

#[cfg(test)]
mod helix_tests {
    use super::*;
    use qp_linalg::vecops::dist3;

    #[test]
    fn helix_counts_and_extent() {
        let h = helix(20);
        assert_eq!(h.len(), 120);
        let (lo, hi) = h.bounding_box();
        // Quasi-1D along z: z extent far exceeds x/y.
        assert!((hi[2] - lo[2]) > 2.0 * (hi[0] - lo[0]));
        // x/y extents bounded by the helix diameter (+ H shell).
        assert!((hi[0] - lo[0]) < 2.0 * (2.3 + 1.05) * BOHR_PER_ANGSTROM + 1e-9);
    }

    #[test]
    fn helix_atoms_do_not_collide() {
        let h = helix(15);
        for i in 0..h.len() {
            for j in (i + 1)..h.len() {
                assert!(
                    dist3(h.atoms[i].position, h.atoms[j].position) > 1.0,
                    "atoms {i},{j} collide"
                );
            }
        }
    }

    #[test]
    fn helix_composition() {
        let h = helix(10);
        let f = h.formula();
        assert_eq!(f[&Element::N], 10);
        assert_eq!(f[&Element::C], 20);
        assert_eq!(f[&Element::H], 30);
    }
}
