//! Numeric atomic orbital (NAO) basis sets.
//!
//! FHI-aims represents each basis function as a numerically tabulated radial
//! part times a real spherical harmonic, confined to a finite cutoff radius —
//! which is what makes the global Hamiltonian sparse (§3.1.1: "atoms can only
//! have interactions with [their] neighbor atoms"). We reproduce that shape:
//! Slater-type radial functions with a smooth confinement factor, tabulated
//! on a logarithmic grid and evaluated through cubic splines.

use crate::elements::{Element, Shell};
use crate::geometry::Structure;
#[cfg(test)]
use crate::harmonics::ylm_vec;
use crate::harmonics::{lm_index, num_harmonics, real_spherical_harmonics};
use crate::radial::RadialGrid;
use crate::spline::CubicSpline;
use std::collections::HashMap;
use std::sync::Arc;

/// Step of the central-difference basis gradient (Bohr): the tabulated
/// gradient at `p` is `(χ(p + H e_d) − χ(p − H e_d)) / (2H)`.
pub const GRADIENT_STEP: f64 = 1e-5;

/// Highest angular momentum of a basis shell (the elements carry at most
/// d shells); [`AtomBasis::eval`] keeps its harmonics on the stack.
pub const SHELL_LMAX: usize = 3;

/// Basis accuracy settings, mirroring the paper's two HIV-ligand runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasisSettings {
    /// Occupied atomic shells only (FHI-aims "light"-like).
    Light,
    /// Light plus one polarization shell per element ("tier2"-like).
    Tier2,
}

/// A tabulated radial function `R(r)` for one shell of one element.
#[derive(Debug)]
pub struct RadialFunction {
    /// Owning element.
    pub element: Element,
    /// Shell quantum numbers.
    pub shell: Shell,
    /// Spline of `R(r)` on the logarithmic grid, normalized so
    /// `∫ R² r² dr = 1`.
    pub spline: CubicSpline,
    /// Hard cutoff radius (Bohr); `R(r ≥ cutoff) = 0`.
    pub cutoff: f64,
}

impl RadialFunction {
    /// Tabulate the shell's confined Slater radial function.
    pub fn build(element: Element, shell: Shell) -> Self {
        let cutoff = element.cutoff_radius();
        let grid = RadialGrid::logarithmic(1e-5, cutoff, 240);
        let raw = |r: f64| -> f64 {
            if r >= cutoff {
                return 0.0;
            }
            // Smooth confinement: C² at the cutoff.
            let fc = {
                let x = r / cutoff;
                (1.0 - x * x).powi(2)
            };
            r.powi(shell.n as i32 - 1) * (-shell.zeta * r).exp() * fc
        };
        // Normalize numerically on the same grid.
        let norm2 = grid.integrate(|r| raw(r) * raw(r));
        let n = 1.0 / norm2.sqrt();
        let values: Vec<f64> = grid.radii().iter().map(|&r| n * raw(r)).collect();
        let spline = CubicSpline::natural(grid.radii().to_vec(), values);
        RadialFunction {
            element,
            shell,
            spline,
            cutoff,
        }
    }

    /// Evaluate `R(r)`, zero beyond the cutoff.
    #[cfg(test)]
    pub fn eval(&self, r: f64) -> f64 {
        if r >= self.cutoff {
            0.0
        } else {
            self.spline.eval(r.max(1e-5))
        }
    }
}

/// One basis function: a radial function on a specific atom with a specific
/// angular momentum component.
#[derive(Debug, Clone)]
pub struct BasisFunction {
    /// Global atom index the function is centered on.
    pub atom: usize,
    /// Center coordinates (Bohr).
    pub center: [f64; 3],
    /// The shared radial table.
    pub radial: Arc<RadialFunction>,
    /// Angular momentum `l`.
    pub l: usize,
    /// Angular momentum projection `m` (real harmonics, `-l ≤ m ≤ l`).
    pub m: i64,
}

/// The per-function evaluators [`AtomBasis::eval`] replaced, kept as its
/// bit oracle: each call finds its own distance, spline bracket and
/// harmonics, and the gradient costs six more calls.
#[cfg(test)]
impl BasisFunction {
    /// Evaluate `χ(p) = R(|p - center|) · Y_lm(p - center)`.
    pub fn eval(&self, p: [f64; 3]) -> f64 {
        let d = [
            p[0] - self.center[0],
            p[1] - self.center[1],
            p[2] - self.center[2],
        ];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        if r >= self.radial.cutoff {
            return 0.0;
        }
        let rad = self.radial.eval(r);
        if rad == 0.0 {
            return 0.0;
        }
        let y = ylm_vec(self.l, d);
        rad * y[lm_index(self.l, self.m)]
    }

    /// Numerical gradient of `χ` at `p` (central differences with
    /// [`GRADIENT_STEP`]): the gradient the batch tables hold for the
    /// kinetic-energy matrix `T_μν = ½ ∫ ∇χ_μ · ∇χ_ν` (integration by parts
    /// is exact for finitely supported functions).
    pub fn eval_grad(&self, p: [f64; 3]) -> [f64; 3] {
        const H: f64 = GRADIENT_STEP;
        let mut g = [0.0; 3];
        for d in 0..3 {
            let mut pp = p;
            let mut pm = p;
            pp[d] += H;
            pm[d] -= H;
            g[d] = (self.eval(pp) - self.eval(pm)) / (2.0 * H);
        }
        g
    }
}

/// One atom's basis functions, evaluated together. Every shell of an
/// element is tabulated on the same logarithmic knots to the same cutoff
/// ([`RadialFunction::build`]; [`BasisSet::build`] checks it), so at one
/// position the atom's functions share one distance, one spline bracket
/// ([`CubicSpline::locate`]) and one set of real harmonics up to the
/// atom's highest `l`; each shell then costs one
/// [`CubicSpline::eval_at`].
#[derive(Debug)]
pub struct AtomBasis {
    /// Center coordinates (Bohr).
    center: [f64; 3],
    /// The cutoff radius every shell shares (Bohr).
    cutoff: f64,
    /// The radial shells in function order: shell `s` owns the `2l + 1`
    /// functions (`m = −l..=l`) after those of the shells before it.
    shells: Vec<Arc<RadialFunction>>,
    /// Highest `l` of the shells.
    lmax: usize,
    /// Number of functions.
    len: usize,
}

impl AtomBasis {
    /// The atom's shells over its radial tables, which must share one knot
    /// vector and one cutoff (panics otherwise).
    fn new(center: [f64; 3], shells: Vec<Arc<RadialFunction>>) -> Self {
        let first = shells.first().expect("an atom has at least one shell");
        for s in &shells {
            assert!(
                s.cutoff == first.cutoff && s.spline.knots() == first.spline.knots(),
                "every shell of {:?} on one knot vector and cutoff",
                s.element
            );
            assert!(
                s.shell.l as usize <= SHELL_LMAX,
                "shell above l = {SHELL_LMAX}"
            );
        }
        let lmax = shells.iter().map(|s| s.shell.l as usize).max().unwrap_or(0);
        let len = shells.iter().map(|s| 2 * s.shell.l as usize + 1).sum();
        AtomBasis {
            center,
            cutoff: first.cutoff,
            shells,
            lmax,
            len,
        }
    }

    /// Number of functions on the atom.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the atom carries no functions (never for a built basis).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values at `p` of the atom's functions, in function order, into
    /// `out[..self.len()]`; `false` (and zeros) when `p` is at or beyond
    /// the cutoff. Each value has the bits of the per-function
    /// `BasisFunction::eval`: the same distance, the spline at
    /// `r.max(1e-5)` through the bracket its own binary search finds, the
    /// same harmonic (a harmonic does not depend on the order it is
    /// evaluated up to), and `0.0` where the radial part is zero.
    pub fn eval(&self, p: [f64; 3], out: &mut [f64]) -> bool {
        let out = &mut out[..self.len];
        let c = self.center;
        let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        if r >= self.cutoff {
            out.fill(0.0);
            return false;
        }
        let (k, a, b) = CubicSpline::locate(self.shells[0].spline.knots(), r.max(1e-5));
        let mut ylm = [0.0; num_harmonics(SHELL_LMAX)];
        real_spherical_harmonics(self.lmax, d, &mut ylm);
        let mut f = 0;
        for shell in &self.shells {
            let rad = shell.spline.eval_at(k, a, b);
            let l = shell.shell.l as usize;
            for m in -(l as i64)..=(l as i64) {
                out[f] = if rad == 0.0 {
                    0.0
                } else {
                    rad * ylm[lm_index(l, m)]
                };
                f += 1;
            }
        }
        true
    }
}

/// The full basis set of a structure.
#[derive(Debug)]
pub struct BasisSet {
    /// All basis functions, grouped by atom (atom-major order — the paper's
    /// basis indexing, which makes the per-process dense block contiguous).
    pub functions: Vec<BasisFunction>,
    /// First function index of each atom; `atom_offsets[natoms] = len()`.
    pub atom_offsets: Vec<usize>,
    /// Each atom's functions as one evaluator, `atoms[ia]` owning
    /// `functions_of_atom(ia)` in order.
    pub atoms: Vec<AtomBasis>,
    settings: BasisSettings,
}

impl BasisSet {
    /// Build the basis for a structure at the given settings. Radial tables
    /// are shared per `(element, shell)`.
    pub fn build(structure: &Structure, settings: BasisSettings) -> Self {
        let mut radial_cache: HashMap<(Element, usize), Arc<RadialFunction>> = HashMap::new();
        let mut functions = Vec::new();
        let mut atom_offsets = Vec::with_capacity(structure.len() + 1);
        let mut atoms = Vec::with_capacity(structure.len());
        for (ia, atom) in structure.atoms.iter().enumerate() {
            atom_offsets.push(functions.len());
            let shells = match settings {
                BasisSettings::Light => atom.element.shells_light(),
                BasisSettings::Tier2 => atom.element.shells_tier2(),
            };
            let mut radials = Vec::with_capacity(shells.len());
            for (si, shell) in shells.iter().enumerate() {
                let radial = radial_cache
                    .entry((atom.element, si))
                    .or_insert_with(|| Arc::new(RadialFunction::build(atom.element, *shell)))
                    .clone();
                radials.push(radial.clone());
                let l = shell.l as usize;
                for m in -(l as i64)..=(l as i64) {
                    functions.push(BasisFunction {
                        atom: ia,
                        center: atom.position,
                        radial: radial.clone(),
                        l,
                        m,
                    });
                }
            }
            atoms.push(AtomBasis::new(atom.position, radials));
        }
        atom_offsets.push(functions.len());
        BasisSet {
            functions,
            atom_offsets,
            atoms,
            settings,
        }
    }

    /// Total number of basis functions (`N_b` of §3.1.1).
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when there are no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// The settings the basis was built with.
    pub fn settings(&self) -> BasisSettings {
        self.settings
    }

    /// The range of function indices centered on `atom`.
    pub fn functions_of_atom(&self, atom: usize) -> std::ops::Range<usize> {
        self.atom_offsets[atom]..self.atom_offsets[atom + 1]
    }

    /// The atom a function is centered on.
    pub fn atom_of(&self, ifn: usize) -> usize {
        self.functions[ifn].atom
    }

    /// Indices of functions whose support reaches within `extra` of point
    /// `p` — the batch-local basis pruning the integration kernels use.
    pub fn functions_near(&self, p: [f64; 3], extra: f64) -> Vec<usize> {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                let d = qp_linalg::vecops::dist3(p, f.center);
                d < f.radial.cutoff + extra
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::{ligand49, water};

    #[test]
    fn water_light_has_11_functions() {
        // O: 5, H: 1 each -> 7? No: O(1s,2s,2p)=5, 2 H(1s)=2 -> 7.
        let w = water();
        let b = BasisSet::build(&w, BasisSettings::Light);
        assert_eq!(b.len(), 7);
        assert_eq!(b.functions_of_atom(0), 0..5);
        assert_eq!(b.functions_of_atom(1), 5..6);
    }

    #[test]
    fn tier2_is_larger_than_light() {
        let l = ligand49();
        let light = BasisSet::build(&l, BasisSettings::Light);
        let tier2 = BasisSet::build(&l, BasisSettings::Tier2);
        assert!(tier2.len() > light.len());
        // Paper ratio for the ligand is 2143/1359 ~ 1.58; ours should be in
        // the same ballpark (each heavy atom gains a d shell).
        let ratio = tier2.len() as f64 / light.len() as f64;
        assert!(ratio > 1.3 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn radial_function_normalized() {
        let rf = RadialFunction::build(Element::O, Element::O.shells_light()[0]);
        let grid = RadialGrid::logarithmic(1e-5, rf.cutoff, 400);
        let n = grid.integrate(|r| rf.eval(r) * rf.eval(r));
        assert!((n - 1.0).abs() < 1e-3, "norm² = {n}");
    }

    #[test]
    fn basis_function_vanishes_beyond_cutoff() {
        let w = water();
        let b = BasisSet::build(&w, BasisSettings::Light);
        let f = &b.functions[0];
        let far = [f.radial.cutoff + 1.0, 0.0, 0.0];
        assert_eq!(f.eval(far), 0.0);
    }

    #[test]
    fn s_function_spherically_symmetric() {
        let w = water();
        let b = BasisSet::build(&w, BasisSettings::Light);
        let f = &b.functions[0]; // O 1s
        assert_eq!(f.l, 0);
        let r = 1.3;
        let v1 = f.eval([f.center[0] + r, f.center[1], f.center[2]]);
        let v2 = f.eval([f.center[0], f.center[1] + r, f.center[2]]);
        let v3 = f.eval([
            f.center[0] + r / 3.0f64.sqrt(),
            f.center[1] + r / 3.0f64.sqrt(),
            f.center[2] + r / 3.0f64.sqrt(),
        ]);
        assert!((v1 - v2).abs() < 1e-10);
        assert!((v1 - v3).abs() < 1e-8);
    }

    #[test]
    fn p_function_changes_sign() {
        let w = water();
        let b = BasisSet::build(&w, BasisSettings::Light);
        // Find a p function on O (l = 1, m = 0 -> z-like).
        let f = b
            .functions
            .iter()
            .find(|f| f.l == 1 && f.m == 0)
            .expect("O has 2p");
        let up = f.eval([f.center[0], f.center[1], f.center[2] + 1.0]);
        let dn = f.eval([f.center[0], f.center[1], f.center[2] - 1.0]);
        assert!((up + dn).abs() < 1e-10, "odd parity violated: {up} vs {dn}");
        assert!(up.abs() > 1e-4);
    }

    #[test]
    fn gradient_matches_directional_fd() {
        let w = water();
        let b = BasisSet::build(&w, BasisSettings::Light);
        let f = &b.functions[2]; // some O function
        let p = [0.7, 0.4, -0.2];
        let g = f.eval_grad(p);
        let h = 1e-5;
        for d in 0..3 {
            let mut pp = p;
            pp[d] += h;
            let mut pm = p;
            pm[d] -= h;
            let fd = (f.eval(pp) - f.eval(pm)) / (2.0 * h);
            assert!((g[d] - fd).abs() < 1e-8);
        }
    }

    #[test]
    fn atom_evaluator_matches_the_per_function_oracle_bit_for_bit() {
        // Every function of every atom, light and tier2 (the d shells), at
        // pseudo-random points within and beyond the cutoffs, at every
        // nucleus and within a few gradient steps of it.
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        let near = [
            [0.0, 0.0, 0.0],
            [GRADIENT_STEP, 0.0, 0.0],
            [3e-6, -2e-6, 1e-6],
            [0.0, 0.0, -7e-6],
            [2e-5, 1e-5, 0.0],
        ];
        for structure in [water(), ligand49()] {
            for settings in [BasisSettings::Light, BasisSettings::Tier2] {
                let b = BasisSet::build(&structure, settings);
                let mut points = Vec::new();
                for atom in &structure.atoms {
                    let c = atom.position;
                    points.extend(near.iter().map(|o| [c[0] + o[0], c[1] + o[1], c[2] + o[2]]));
                    for _ in 0..40 {
                        let scale = 12.0 * next().abs();
                        points.push([
                            c[0] + scale * next(),
                            c[1] + scale * next(),
                            c[2] + scale * next(),
                        ]);
                    }
                }
                let mut out = vec![0.0; b.atoms.iter().map(AtomBasis::len).max().unwrap()];
                for p in points {
                    for (ia, atom) in b.atoms.iter().enumerate() {
                        atom.eval(p, &mut out);
                        for (j, fi) in b.functions_of_atom(ia).enumerate() {
                            assert_eq!(
                                out[j].to_bits(),
                                b.functions[fi].eval(p).to_bits(),
                                "{settings:?}, atom {ia}, function {fi}, point {p:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn functions_near_prunes_far_points() {
        let p = crate::structures::polyethylene(20);
        let b = BasisSet::build(&p, BasisSettings::Light);
        let (lo, _) = p.bounding_box();
        // A point near the chain start should not see the chain end.
        let near_start = b.functions_near([lo[0], lo[1], lo[2]], 0.0);
        assert!(!near_start.is_empty());
        assert!(near_start.len() < b.len());
    }

    #[test]
    fn radial_tables_are_shared() {
        let p = crate::structures::polyethylene(10);
        let b = BasisSet::build(&p, BasisSettings::Light);
        // All carbon 1s radial tables should be the same Arc.
        let c1s: Vec<&BasisFunction> = b
            .functions
            .iter()
            .filter(|f| f.radial.element == Element::C && f.radial.shell.n == 1)
            .collect();
        assert!(c1s.len() > 1);
        let first = Arc::as_ptr(&c1s[0].radial);
        assert!(c1s.iter().all(|f| Arc::as_ptr(&f.radial) == first));
    }
}
