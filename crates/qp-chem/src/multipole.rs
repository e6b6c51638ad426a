//! Multipole expansion of densities and the radial Poisson solver.
//!
//! This is the machinery behind the paper's response-potential phase
//! (`v¹_es,tot(r)`, Eq. 9): every atom's partitioned density is expanded in
//! real spherical harmonics on its radial shells (`rho_multipole`), the
//! radial Poisson equation is integrated per `(atom, l, m)` channel with an
//! Adams–Moulton linear multistep integrator (§4.4), and the resulting
//! partitioned Hartree potential is stored as cubic-spline tables
//! (`delta_v_hart_part_spl`, §4.2) that are then interpolated at every grid
//! point.

use crate::geometry::Structure;
use crate::grids::IntegrationGrid;
use crate::harmonics::{lm_index, num_harmonics, real_spherical_harmonics};
use crate::spline::CubicSpline;

/// Precomputed per-(grid point, atom) geometry for the Hartree phases.
///
/// The grid and atom positions never change across SCF/DFPT iterations, so
/// everything in `eval_atoms` that depends only on geometry — the
/// point-to-atom distance, the spherical harmonics, and the radial-spline
/// bracketing interval with its interpolation weights (shared by every lm
/// channel, because all radial splines sit on the same knot vector) — can
/// be computed once per system instead of once per iteration per point.
/// Per iteration this removes the dominant `atan2`/Legendre/`sin`/`cos`
/// work and all per-lm binary searches from the inner loop; what remains
/// is a pure fused-multiply stream over the tables.
///
/// Every cached value is produced by the *identical* floating-point
/// expressions the direct path uses, so plan-based evaluation is
/// bit-identical to [`HartreeSolution::eval_atoms`] and
/// [`MultipoleMoments::compute`].
#[derive(Debug)]
pub struct HartreePlan {
    /// Expansion order the `ylm` table was built for.
    pub lmax: usize,
    /// `(lmax+1)²`.
    pub n_lm: usize,
    natoms: usize,
    /// `r[ip*natoms + ia]`: distance from grid point `ip` to atom `ia`.
    r: Vec<f64>,
    /// Spline bracketing interval at `t = r.max(1e-6)` (valid while
    /// `r <= r_outer`; u32 to halve the table).
    k: Vec<u32>,
    /// Interpolation weight `a` of [`CubicSpline::locate`] at `t`.
    a: Vec<f64>,
    /// Interpolation weight `b` of [`CubicSpline::locate`] at `t`.
    b: Vec<f64>,
    /// `ylm[(ip*natoms + ia)*n_lm + lm]`: real spherical harmonics of the
    /// point-to-atom direction.
    ylm: Vec<f64>,
}

impl HartreePlan {
    /// Build the plan for a structure/grid pair. Cost: one harmonics
    /// evaluation and one binary search per (point, atom) — about one
    /// iteration's worth of the work it then saves every iteration.
    ///
    /// The tables are allocated once at their final size and each point's
    /// row is written in place, blocks of points fanning out over the
    /// pool, so the build's peak is the plan's own size. Every entry is
    /// the same expression at any thread count.
    pub fn build(structure: &Structure, grid: &IntegrationGrid, lmax: usize) -> HartreePlan {
        /// Grid points per parallel work item.
        const BLOCK: usize = 64;
        let n_lm = num_harmonics(lmax);
        let natoms = structure.len();
        let np = grid.points.len();
        let radii = grid.radial.radii();
        let mut r = vec![0.0f64; np * natoms];
        let mut k = vec![0u32; np * natoms];
        let mut a = vec![0.0f64; np * natoms];
        let mut b = vec![0.0f64; np * natoms];
        let mut ylm = vec![0.0f64; np * natoms * n_lm];
        let pair = BLOCK * natoms.max(1);
        let blocks: Vec<_> = r
            .chunks_mut(pair)
            .zip(k.chunks_mut(pair))
            .zip(a.chunks_mut(pair).zip(b.chunks_mut(pair)))
            .zip(ylm.chunks_mut(pair * n_lm))
            .enumerate()
            .collect();
        qp_par::for_each_vec(blocks, |(blk, (((r, k), (a, b)), ylm))| {
            let points = &grid.points[blk * BLOCK..][..r.len() / natoms];
            for (j, p) in points.iter().enumerate() {
                for (ia, atom) in structure.atoms.iter().enumerate() {
                    let c = atom.position;
                    // Same arithmetic as eval_atoms / compute: d, then r.
                    let d = [
                        p.position[0] - c[0],
                        p.position[1] - c[1],
                        p.position[2] - c[2],
                    ];
                    let x = j * natoms + ia;
                    r[x] = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    real_spherical_harmonics(lmax, d, &mut ylm[x * n_lm..(x + 1) * n_lm]);
                    let (kx, ax, bx) = CubicSpline::locate(radii, r[x].max(1e-6));
                    (k[x], a[x], b[x]) = (kx as u32, ax, bx);
                }
            }
        });
        HartreePlan {
            lmax,
            n_lm,
            natoms,
            r,
            k,
            a,
            b,
            ylm,
        }
    }

    /// Number of atoms the plan covers.
    pub fn natoms(&self) -> usize {
        self.natoms
    }

    /// Heap footprint of the tables in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.r.len() * 8
            + self.k.len() * 4
            + self.a.len() * 8
            + self.b.len() * 8
            + self.ylm.len() * 8
    }

    /// Estimated table size for a hypothetical plan (gate big systems
    /// before paying the build).
    pub fn estimate_bytes(np: usize, natoms: usize, lmax: usize) -> usize {
        let n_lm = num_harmonics(lmax);
        np * natoms * (8 + 4 + 8 + 8 + n_lm * 8)
    }
}

/// Cumulative integral `I_k = ∫_{x_0}^{x_k} f dx` on a uniformly spaced grid
/// (spacing `h`) using the 3rd-order Adams–Moulton corrector
/// `I_k = I_{k-1} + h/12 · (5 f_k + 8 f_{k-1} − f_{k-2})`, with a trapezoid
/// first step. `I_0 = 0`.
pub fn adams_moulton_cumulative(h: f64, f: &[f64]) -> Vec<f64> {
    let n = f.len();
    let mut out = vec![0.0; n];
    if n == 2 {
        out[1] = 0.5 * h * (f[0] + f[1]);
    } else if n >= 3 {
        // 3rd-order starting step (exact for quadratics, like the corrector).
        out[1] = h / 12.0 * (5.0 * f[0] + 8.0 * f[1] - f[2]);
    }
    for k in 2..n {
        out[k] = out[k - 1] + h / 12.0 * (5.0 * f[k] + 8.0 * f[k - 1] - f[k - 2]);
    }
    out
}

/// Multipole moments of a (partitioned) density:
/// `rho_multipole[atom][shell * n_lm + lm] = ∫ Y_lm n_atom(r_shell, Ω) dΩ`.
#[derive(Debug, Clone)]
pub struct MultipoleMoments {
    /// Expansion order.
    pub lmax: usize,
    /// `moments[atom][shell * n_lm + lm]`.
    pub moments: Vec<Vec<f64>>,
    /// Number of `(l, m)` channels: `(lmax+1)²`.
    pub n_lm: usize,
}

impl MultipoleMoments {
    /// Compute the per-atom multipole moments of the density tabulated at
    /// every grid point (`density` parallel to `grid.points`).
    ///
    /// This is the `rho_multipole` array the paper's packed AllReduce
    /// synthesizes row-by-row (§3.2.1).
    pub fn compute(
        structure: &Structure,
        grid: &IntegrationGrid,
        density: &[f64],
        lmax: usize,
    ) -> Self {
        Self::compute_with(structure, grid, density, lmax, None)
    }

    /// [`compute`](Self::compute) with the harmonics read from `plan`.
    pub fn compute_planned(
        structure: &Structure,
        grid: &IntegrationGrid,
        density: &[f64],
        plan: &HartreePlan,
    ) -> Self {
        Self::compute_with(structure, grid, density, plan.lmax, Some(plan))
    }

    /// The moments kernel: one row per atom over that atom's points
    /// (`grid.atom_ranges`), the rows fanned out over the pool. A grid
    /// point adds only to its own atom's row, in grid order, so each row
    /// sees the same additions in the same order at any thread count. The
    /// harmonics of a point come from `plan` when given, else are
    /// computed from the same point-to-atom vector the plan is built from:
    /// the result is bit-identical either way.
    pub fn compute_with(
        structure: &Structure,
        grid: &IntegrationGrid,
        density: &[f64],
        lmax: usize,
        plan: Option<&HartreePlan>,
    ) -> Self {
        let natoms = structure.len();
        assert_eq!(density.len(), grid.points.len());
        assert_eq!(grid.atom_ranges.len(), natoms);
        if let Some(plan) = plan {
            assert_eq!((plan.natoms, plan.lmax), (natoms, lmax));
        }
        let n_lm = num_harmonics(lmax);
        let n_shells = grid.radial.len();
        let fourpi = 4.0 * std::f64::consts::PI;
        let moments = qp_par::map_vec((0..natoms).collect::<Vec<usize>>(), |ia| {
            let center = structure.atoms[ia].position;
            let mut row = vec![0.0f64; n_shells * n_lm];
            let mut computed = vec![0.0; n_lm];
            for ip in grid.atom_ranges[ia].clone() {
                let p = &grid.points[ip];
                let ylm = match plan {
                    Some(plan) => &plan.ylm[(ip * natoms + ia) * n_lm..][..n_lm],
                    None => {
                        let dir = [
                            p.position[0] - center[0],
                            p.position[1] - center[1],
                            p.position[2] - center[2],
                        ];
                        real_spherical_harmonics(lmax, dir, &mut computed);
                        &computed[..]
                    }
                };
                let base = p.shell as usize * n_lm;
                // n_atom = partition * n;  ∫ dΩ ≈ 4π Σ w_ang.
                let f = fourpi * p.w_angular * p.partition * density[ip];
                for (m, y) in row[base..base + n_lm].iter_mut().zip(ylm) {
                    *m += f * y;
                }
            }
            row
        });
        MultipoleMoments {
            lmax,
            moments,
            n_lm,
        }
    }
}

/// Highest expansion order the Hartree evaluator is built for: the kernel
/// is compiled once per channel count `(lmax+1)²`, for lmax 0 to this.
pub const HARTREE_LMAX: usize = 4;

/// Run `$body` with the const `$n` bound to the channel count `$n_lm`, one
/// monomorphized copy per order up to [`HARTREE_LMAX`].
macro_rules! with_channels {
    ($n_lm:expr, $n:ident => $body:expr) => {
        match $n_lm {
            1 => {
                const $n: usize = 1;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            9 => {
                const $n: usize = 9;
                $body
            }
            16 => {
                const $n: usize = 16;
                $body
            }
            25 => {
                const $n: usize = 25;
                $body
            }
            n => unreachable!("{n} channels: from_channels admits lmax ≤ {HARTREE_LMAX}"),
        }
    };
}

/// The partitioned Hartree potential: per `(atom, lm)` a radial spline plus
/// the analytic far-field multipole tail.
#[derive(Debug)]
pub struct HartreeSolution {
    /// Expansion order.
    pub lmax: usize,
    /// Number of `(l, m)` channels.
    pub n_lm: usize,
    /// Atom centers.
    pub centers: Vec<[f64; 3]>,
    /// Radial knots, shared by every `(atom, lm)` spline.
    knots: Vec<f64>,
    /// `values[atom][k * n_lm + lm]`: value at knot `k` of the natural
    /// cubic spline of `v_lm(r)`, `r ≤ r_outer`.
    values: Vec<Vec<f64>>,
    /// `curvatures[atom][k * n_lm + lm]`: that spline's second derivative
    /// at knot `k`. A plane of its own, so the kernel reads both planes'
    /// bracketing rows at unit stride.
    curvatures: Vec<Vec<f64>>,
    /// `tails[atom][lm]`: far-field coefficient `q_lm` with
    /// `v_lm(r > r_outer) = 4π/(2l+1) · q_lm / r^{l+1}`.
    pub tails: Vec<Vec<f64>>,
    /// `tail_pref[atom][lm] = 4π/(2l+1) · q_lm`, formed once per solve.
    tail_pref: Vec<Vec<f64>>,
    /// Outermost tabulated radius.
    pub r_outer: f64,
}

/// Solve the (response) Poisson equation for a density given on the grid,
/// via per-atom multipole expansion and radial Adams–Moulton integration.
pub fn solve_poisson(
    structure: &Structure,
    grid: &IntegrationGrid,
    moments: &MultipoleMoments,
) -> HartreeSolution {
    let lmax = moments.lmax;
    let n_lm = moments.n_lm;
    let radii = grid.radial.radii();
    let n_r = radii.len();
    let h = (radii[n_r - 1] / radii[0]).ln() / (n_r - 1) as f64;
    let fourpi = 4.0 * std::f64::consts::PI;

    // Atoms are independent: integrate each atom's (l, m) channels in
    // parallel. map_vec returns results in index order and the per-atom
    // arithmetic is untouched, so the solution is bit-identical to the
    // serial sweep at any thread count.
    let per_atom = qp_par::map_vec((0..moments.moments.len()).collect::<Vec<usize>>(), |ia| {
        let mom = &moments.moments[ia];
        let mut splines = Vec::with_capacity(n_lm);
        let mut tails = Vec::with_capacity(n_lm);
        for lm in 0..n_lm {
            let (l, _m) = crate::harmonics::lm_from_index(lm);
            let li = l as i32;
            // rho_lm(r_k).
            let rho: Vec<f64> = (0..n_r).map(|k| mom[k * n_lm + lm]).collect();
            // Inner integral ∫_0^r s^{l+2} rho ds; log-measure ds = s·h·di.
            let f_in: Vec<f64> = (0..n_r).map(|k| radii[k].powi(li + 3) * rho[k]).collect();
            let mut inner = adams_moulton_cumulative(h, &f_in);
            // Add the [0, r_0] head assuming rho constant there.
            let head = rho[0] * radii[0].powi(li + 3) / (li + 3) as f64;
            for v in inner.iter_mut() {
                *v += head;
            }
            // Outer integral ∫_r^{rmax} s^{1-l} rho ds (reverse cumulative).
            let f_out: Vec<f64> = (0..n_r).map(|k| radii[k].powi(2 - li) * rho[k]).collect();
            let cum = adams_moulton_cumulative(h, &f_out);
            let total = cum[n_r - 1];
            let outer: Vec<f64> = cum.iter().map(|c| total - c).collect();

            let pref = fourpi / (2.0 * l as f64 + 1.0);
            let v: Vec<f64> = (0..n_r)
                .map(|k| pref * (inner[k] / radii[k].powi(li + 1) + radii[k].powi(li) * outer[k]))
                .collect();
            tails.push(inner[n_r - 1]);
            splines.push(CubicSpline::natural(radii.to_vec(), v));
        }
        (splines, tails)
    });
    let (splines, tails): (Vec<_>, Vec<_>) = per_atom.into_iter().unzip();
    let centers = structure.atoms.iter().map(|a| a.position).collect();
    HartreeSolution::from_channels(lmax, centers, &splines, tails, radii[n_r - 1])
}

impl HartreeSolution {
    /// A solution from its radial channels: `splines[atom][lm]` is `v_lm(r)`
    /// up to `r_outer`, every channel on one knot vector, and
    /// `tails[atom][lm]` its far-field coefficient `q_lm`. Only the knot
    /// values and second derivatives are kept, each in a knot-major plane
    /// per atom. Panics above [`HARTREE_LMAX`].
    pub fn from_channels(
        lmax: usize,
        centers: Vec<[f64; 3]>,
        splines: &[Vec<CubicSpline>],
        tails: Vec<Vec<f64>>,
        r_outer: f64,
    ) -> Self {
        assert!(
            lmax <= HARTREE_LMAX,
            "Hartree expansion order {lmax} above the evaluator's {HARTREE_LMAX}"
        );
        let n_lm = num_harmonics(lmax);
        assert!(splines.len() == centers.len() && tails.len() == centers.len());
        let knots = splines
            .first()
            .and_then(|channels| channels.first())
            .map_or_else(Vec::new, |s| s.knots().to_vec());
        let n_r = knots.len();
        let (values, curvatures) = splines
            .iter()
            .map(|channels| {
                assert_eq!(channels.len(), n_lm, "one spline per (l, m) channel");
                let mut values = vec![0.0; n_r * n_lm];
                let mut curvatures = vec![0.0; n_r * n_lm];
                for (lm, spline) in channels.iter().enumerate() {
                    assert!(spline.knots() == knots, "every channel on one knot vector");
                    let knot_data = spline.values().iter().zip(spline.second_derivatives());
                    for (k, (&y, &y2)) in knot_data.enumerate() {
                        values[k * n_lm + lm] = y;
                        curvatures[k * n_lm + lm] = y2;
                    }
                }
                (values, curvatures)
            })
            .unzip();
        let fourpi = 4.0 * std::f64::consts::PI;
        let tail_pref = tails
            .iter()
            .map(|q| {
                (0..n_lm)
                    .map(|lm| {
                        let (l, _) = crate::harmonics::lm_from_index(lm);
                        fourpi / (2.0 * l as f64 + 1.0) * q[lm]
                    })
                    .collect()
            })
            .collect();
        HartreeSolution {
            lmax,
            n_lm,
            centers,
            knots,
            values,
            curvatures,
            tails,
            tail_pref,
            r_outer,
        }
    }

    /// Add atom `ia`'s potential at distance `r` along the direction with
    /// harmonics `ylm` to the running sum `v`; `bracket` yields the spline
    /// interval and weights of [`CubicSpline::locate`] at `r.max(1e-6)`
    /// and is called only inside `r_outer`.
    ///
    /// The one per-atom kernel behind every evaluator here and the far
    /// field's near sum. It fills the `N` channel terms in one loop over
    /// fixed-size arrays, which the compiler vectorizes, then adds them to
    /// `v` one by one in channel order. What does not depend on the
    /// channel is formed once: `h²`, `a³ − a` and `b³ − b` per atom (every
    /// channel shares the knots), `r^{l+1}` once per `l`, and
    /// `4π/(2l+1)·q_lm` once per solve. Each is the value the per-channel
    /// expression computed, and every term keeps its operation order, so
    /// each term — and the running sum — has the bits of
    /// [`CubicSpline::eval_at`] and of the per-channel tail.
    // `always`: the benchmarked build; a plain `#[inline]` compiled the
    // tail differently and measured no faster (EXPERIMENTS.md).
    #[inline(always)]
    fn add_atom<const N: usize>(
        &self,
        mut v: f64,
        ia: usize,
        r: f64,
        ylm: &[f64; N],
        bracket: impl FnOnce() -> (usize, f64, f64),
    ) -> f64 {
        let mut term = [0.0; N];
        if r <= self.r_outer {
            let (k, a, b) = bracket();
            let h = self.knots[k + 1] - self.knots[k];
            let hh = h * h;
            let (ca, cb) = (a * a * a - a, b * b * b - b);
            let (y0, y1) = knot_rows::<N>(&self.values[ia], k);
            let (d0, d1) = knot_rows::<N>(&self.curvatures[ia], k);
            for (lm, t) in term.iter_mut().enumerate() {
                *t = (a * y0[lm] + b * y1[lm] + (ca * d0[lm] + cb * d1[lm]) * hh / 6.0) * ylm[lm];
            }
        } else {
            // r^{l+1} for l = 0..=4 by the squaring sequence of compiler-rt's
            // `__powidf2`, so each power has the bits of `r.powi(l + 1)`.
            let r2 = r * r;
            let r4 = r2 * r2;
            let powers = [r, r2, r * r2, r4, r * r4];
            let mut rl1 = [0.0; N];
            for (l, &p) in powers.iter().enumerate() {
                for x in rl1.iter_mut().take((l + 1) * (l + 1)).skip(l * l) {
                    *x = p;
                }
            }
            let pq: &[f64; N] = self.tail_pref[ia][..]
                .try_into()
                .expect("one tail prefactor per channel");
            for (lm, t) in term.iter_mut().enumerate() {
                *t = pq[lm] / rl1[lm] * ylm[lm];
            }
        }
        for t in term {
            v += t;
        }
        v
    }

    /// [`eval_atoms`](Self::eval_atoms) at `N` channels.
    fn sum_atoms<const N: usize>(
        &self,
        p: [f64; 3],
        atoms: impl IntoIterator<Item = usize>,
    ) -> f64 {
        let mut ylm = [0.0; N];
        let mut v = 0.0;
        for ia in atoms {
            let c = self.centers[ia];
            let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            real_spherical_harmonics(self.lmax, d, &mut ylm);
            v = self.add_atom(v, ia, r, &ylm, || {
                CubicSpline::locate(&self.knots, r.max(1e-6))
            });
        }
        v
    }

    /// [`eval_planned`](Self::eval_planned) at `N` channels.
    fn sum_planned<const N: usize>(&self, plan: &HartreePlan, ip: usize) -> f64 {
        let span = ip * plan.natoms..(ip + 1) * plan.natoms;
        let (rows, _) = plan.ylm[span.start * N..span.end * N].as_chunks::<N>();
        let (r, k) = (&plan.r[span.clone()], &plan.k[span.clone()]);
        let (a, b) = (&plan.a[span.clone()], &plan.b[span]);
        let mut v = 0.0;
        for (ia, ylm) in rows.iter().enumerate() {
            v = self.add_atom(v, ia, r[ia], ylm, || (k[ia] as usize, a[ia], b[ia]));
        }
        v
    }

    /// Evaluate the potential at `p`, summing the contribution of the listed
    /// atoms (callers prune by distance; pass `0..natoms` for all).
    pub fn eval_atoms(&self, p: [f64; 3], atoms: impl IntoIterator<Item = usize>) -> f64 {
        with_channels!(self.n_lm, N => self.sum_atoms::<N>(p, atoms))
    }

    /// Evaluate summing all atoms.
    pub fn eval(&self, p: [f64; 3]) -> f64 {
        self.eval_atoms(p, 0..self.centers.len())
    }

    /// Plan-accelerated [`eval`](Self::eval) at grid point `ip`: distances,
    /// harmonics, and the shared spline bracket come from the
    /// [`HartreePlan`] tables instead of being recomputed. Atoms are summed
    /// in ascending order through the same per-atom kernel as `eval_atoms`,
    /// and the plan's values are the ones `eval_atoms` computes, so the
    /// result is bit-identical to `eval(grid.points[ip])`.
    pub fn eval_planned(&self, plan: &HartreePlan, ip: usize) -> f64 {
        debug_assert_eq!(plan.natoms, self.centers.len());
        debug_assert_eq!(plan.lmax, self.lmax);
        with_channels!(self.n_lm, N => self.sum_planned::<N>(plan, ip))
    }

    /// The potential at many grid points: `out[i]` is the potential at
    /// grid point `points[i]` (at point `i` when `points` is `None`), from
    /// the plan's tables when there is a plan
    /// ([`eval_planned`](Self::eval_planned)) and directly otherwise
    /// ([`eval`](Self::eval)), bit-identical to either. The channel count
    /// is dispatched once per call; the points fan out over the pool, each
    /// into its own slot, so the result is the same at any thread count.
    pub fn eval_grid(
        &self,
        grid: &IntegrationGrid,
        plan: Option<&HartreePlan>,
        points: Option<&[usize]>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), points.map_or(grid.len(), <[usize]>::len));
        with_channels!(self.n_lm, N => self.fill_grid::<N>(grid, plan, points, out))
    }

    /// [`eval_grid`](Self::eval_grid) at `N` channels.
    fn fill_grid<const N: usize>(
        &self,
        grid: &IntegrationGrid,
        plan: Option<&HartreePlan>,
        points: Option<&[usize]>,
        out: &mut [f64],
    ) {
        let natoms = self.centers.len();
        let est = (natoms * N * 8).max(1) as u64;
        let point = |i: usize| points.map_or(i, |p| p[i]);
        match plan {
            Some(pl) => {
                assert_eq!(
                    (pl.natoms, pl.lmax),
                    (natoms, self.lmax),
                    "plan of this system"
                );
                qp_par::fill_slice_hinted(out, est, |i| self.sum_planned::<N>(pl, point(i)))
            }
            None => qp_par::fill_slice_hinted(out, est, |i| {
                self.sum_atoms::<N>(grid.points[point(i)].position, 0..natoms)
            }),
        }
    }

    /// Roofline counts of one [`eval_grid`](Self::eval_grid) call over the
    /// same points: `(flops, bytes)`.
    ///
    /// Flops are the kernel's algebraic operations: per pair inside
    /// `r_outer`, 8 for the bracket's shared factors and 11 per channel;
    /// per tail pair, `lmax` products for the powers and 3 per channel.
    /// The direct path's distances and harmonics are not counted. Bytes
    /// are compulsory traffic: each evaluated point's plan rows (its
    /// position without a plan), the solution's knot planes and tail rows
    /// once, and the potential written — so the intensity is an upper
    /// bound, as for GEMM. Costs one pass over the points' distances.
    pub fn eval_cost(
        &self,
        grid: &IntegrationGrid,
        plan: Option<&HartreePlan>,
        points: Option<&[usize]>,
    ) -> (u64, u64) {
        let natoms = self.centers.len();
        let np = points.map_or(grid.len(), <[usize]>::len);
        let mut inside = 0usize;
        for i in 0..np {
            let ip = points.map_or(i, |p| p[i]);
            inside += match plan {
                Some(pl) => pl.r[ip * natoms..(ip + 1) * natoms]
                    .iter()
                    .filter(|&&r| r <= self.r_outer)
                    .count(),
                None => {
                    let p = grid.points[ip].position;
                    let within = |c: &&[f64; 3]| {
                        let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
                        (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt() <= self.r_outer
                    };
                    self.centers.iter().filter(within).count()
                }
            };
        }
        let n = self.n_lm;
        let tail = np * natoms - inside;
        let flops = inside * (8 + 11 * n) + tail * (self.lmax + 3 * n);
        let row = match plan {
            Some(_) => natoms * (8 + 4 + 8 + 8 + 8 * n),
            None => 24,
        };
        let tables = 8 * (self.knots.len() * (1 + 2 * natoms * n) + natoms * n);
        let bytes = np * (row + 8) + tables;
        (flops as u64, bytes as u64)
    }
}

/// Rows `k` and `k + 1` of a knot-major plane of `N` channels.
#[inline(always)]
fn knot_rows<const N: usize>(plane: &[f64], k: usize) -> (&[f64; N], &[f64; N]) {
    let (rows, _) = plane[k * N..(k + 2) * N].as_chunks::<N>();
    (&rows[0], &rows[1])
}

/// Far-field tail potential of a real-harmonic moment vector `q` about
/// `center`, evaluated at `p` with the caller's harmonics buffer (length
/// ≥ `(lmax+1)²`):
/// `v(p) = Σ_lm 4π/(2l+1) · q_lm / r^{l+1} · Y_lm(p − center)` — the same
/// analytic tail the `r > r_outer` branch of
/// [`HartreeSolution::eval_atoms`] uses per atom, here for an arbitrary
/// (e.g. cluster-aggregated) moment vector.
pub fn multipole_tail(
    q: &[f64],
    lmax: usize,
    center: [f64; 3],
    p: [f64; 3],
    ylm: &mut [f64],
) -> f64 {
    let fourpi = 4.0 * std::f64::consts::PI;
    let d = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
    real_spherical_harmonics(lmax, d, ylm);
    let mut v = 0.0;
    let mut inv_rl1 = 1.0 / r; // 1/r^{l+1}
    for l in 0..=lmax {
        let pref = fourpi / (2.0 * l as f64 + 1.0) * inv_rl1;
        for m in -(l as i64)..=(l as i64) {
            let lm = lm_index(l, m);
            v += pref * q[lm] * ylm[lm];
        }
        inv_rl1 /= r;
    }
    v
}

/// [`multipole_tail`] on the fast harmonics path
/// ([`crate::harmonics::real_spherical_harmonics_fast`]). Same contraction,
/// not bit-identical in the last ulp — reserved for the hierarchical
/// far-field hot loop, which is on a tolerance contract rather than a
/// bit-identity one. The direct Hartree path must keep calling
/// [`multipole_tail`].
pub fn multipole_tail_fast(
    q: &[f64],
    lmax: usize,
    center: [f64; 3],
    p: [f64; 3],
    ylm: &mut [f64],
) -> f64 {
    let fourpi = 4.0 * std::f64::consts::PI;
    let d = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
    crate::harmonics::real_spherical_harmonics_fast(lmax, d, ylm);
    let mut v = 0.0;
    let mut inv_rl1 = 1.0 / r; // 1/r^{l+1}
    for l in 0..=lmax {
        let pref = fourpi / (2.0 * l as f64 + 1.0) * inv_rl1;
        let mut dot = 0.0;
        for lm in l * l..(l + 1) * (l + 1) {
            dot += q[lm] * ylm[lm];
        }
        v += pref * dot;
        inv_rl1 /= r;
    }
    v
}

/// Translates real-harmonic multipole moment vectors between expansion
/// centers — the M2M operation of the hierarchical far field.
///
/// Every atom's `tails[ia]` row in a [`HartreeSolution`] is an *ideal point
/// multipole* of order `lmax_src` sitting at the atom center: beyond
/// `r_outer` its potential is exactly
/// `Σ_lm 4π/(2l+1)·q_lm/r^{l+1}·Y_lm`, and every moment above `lmax_src`
/// is exactly zero. Re-expanding that potential about a cluster center is
/// the classical solid-harmonic translation. With Racah-normalized complex
/// regular solid harmonics `R_l^m(r) = sqrt(4π/(2l+1)) r^l Y_l^m(r̂)` and
/// scaled complex moments `μ_l^m = sqrt(4π/(2l+1)) q^c_{l,m}`, the
/// binomial addition theorem
/// `R_L^M(u+v) = Σ_{l,m} sqrt(C(L+M,l+m) C(L−M,l−m)) R_l^m(u) R_{L−l}^{M−m}(v)`
/// gives
///
/// ```text
/// μ'_L^M(c) = Σ_{l ≤ min(L, lmax_src)} Σ_m sqrt(C(L+M, l+m) C(L−M, l−m))
///             · μ_l^m · conj(R_{L−l}^{M−m}(t)),      t = a − c.
/// ```
///
/// Because the source moments vanish identically above `lmax_src`, the
/// translated moments are **exact** — the far field's only approximation
/// is truncating the destination expansion at `lmax_dst`, which the
/// cluster-acceptance criterion bounds by the accuracy budget. The largest
/// binomial involved is `C(2·lmax_dst, lmax_dst)` (≈ 2.7e6 at
/// `lmax_dst = 12`), comfortably exact in f64.
#[derive(Debug)]
pub struct MomentTranslator {
    lmax_src: usize,
    lmax_dst: usize,
    /// `sqrt(C(n, k))`, row-major over `n, k ≤ 2·lmax_dst`.
    sqrt_binom: Vec<f64>,
}

impl MomentTranslator {
    /// Precompute the √-binomial table for translating order-`lmax_src`
    /// sources into order-`lmax_dst` destination expansions.
    pub fn new(lmax_src: usize, lmax_dst: usize) -> Self {
        assert!(lmax_src <= lmax_dst);
        let w = 2 * lmax_dst + 1;
        let mut binom = vec![0.0f64; w * w];
        for n in 0..w {
            binom[n * w] = 1.0;
            for k in 1..=n {
                binom[n * w + k] = binom[(n - 1) * w + k - 1] + binom[(n - 1) * w + k];
            }
        }
        MomentTranslator {
            lmax_src,
            lmax_dst,
            sqrt_binom: binom.iter().map(|b| b.sqrt()).collect(),
        }
    }

    /// Destination expansion order.
    pub fn lmax_dst(&self) -> usize {
        self.lmax_dst
    }

    /// Accumulate the real moments `src` (about `src_center`, order
    /// `lmax_src`) into the real moment vector `dst` (about `dst_center`,
    /// order `lmax_dst`, `(lmax_dst+1)²` slots, `+=`).
    ///
    /// The real↔complex conversions follow this crate's harmonic
    /// convention (`Y^cos_{l,m} = (−1)^m √2 Re Y_l^m`,
    /// `Y^sin_{l,m} = (−1)^m √2 Im Y_l^m`, stored at `lm_index(l, ±m)`),
    /// so `Σ q_lm Y^real_lm = Σ q^c_{l,m} Y_l^m` with
    /// `q^c_{l,m} = (−1)^m (a − ib)/√2` and `q^c_{l,−m} = (a + ib)/√2`.
    pub fn translate(
        &self,
        src: &[f64],
        src_center: [f64; 3],
        dst_center: [f64; 3],
        dst: &mut [f64],
    ) {
        let n_src = num_harmonics(self.lmax_src);
        let n_dst = num_harmonics(self.lmax_dst);
        assert!(src.len() >= n_src && dst.len() >= n_dst);
        let fourpi = 4.0 * std::f64::consts::PI;
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;

        // Complex scaled source moments μ_l^m = sqrt(4π/(2l+1)) q^c_{l,m}.
        let mut mu_re = vec![0.0; n_src];
        let mut mu_im = vec![0.0; n_src];
        for l in 0..=self.lmax_src {
            let scale = (fourpi / (2.0 * l as f64 + 1.0)).sqrt();
            mu_re[lm_index(l, 0)] = scale * src[lm_index(l, 0)];
            let mut sign = 1.0;
            for m in 1..=(l as i64) {
                sign = -sign; // (−1)^m
                let a = src[lm_index(l, m)] * inv_sqrt2 * scale;
                let b = src[lm_index(l, -m)] * inv_sqrt2 * scale;
                mu_re[lm_index(l, m)] = sign * a;
                mu_im[lm_index(l, m)] = -sign * b;
                mu_re[lm_index(l, -m)] = a;
                mu_im[lm_index(l, -m)] = b;
            }
        }

        // Complex regular solid harmonics R_j^k(t), t = src − dst center.
        let t = [
            src_center[0] - dst_center[0],
            src_center[1] - dst_center[1],
            src_center[2] - dst_center[2],
        ];
        let r = (t[0] * t[0] + t[1] * t[1] + t[2] * t[2]).sqrt();
        let mut ylm = vec![0.0; n_dst];
        real_spherical_harmonics(self.lmax_dst, t, &mut ylm);
        let mut rr_re = vec![0.0; n_dst];
        let mut rr_im = vec![0.0; n_dst];
        let mut rpow = 1.0; // r^j; 0^0 = 1 keeps the t = 0 translation exact
        for j in 0..=self.lmax_dst {
            let scale = (fourpi / (2.0 * j as f64 + 1.0)).sqrt() * rpow;
            rr_re[lm_index(j, 0)] = scale * ylm[lm_index(j, 0)];
            let mut sign = 1.0;
            for k in 1..=(j as i64) {
                sign = -sign; // (−1)^k
                let yc = ylm[lm_index(j, k)] * inv_sqrt2 * scale;
                let ys = ylm[lm_index(j, -k)] * inv_sqrt2 * scale;
                rr_re[lm_index(j, k)] = sign * yc;
                rr_im[lm_index(j, k)] = sign * ys;
                rr_re[lm_index(j, -k)] = yc;
                rr_im[lm_index(j, -k)] = -ys;
            }
            rpow *= r;
        }

        // μ'_L^{−M} for M ≥ 0 (a real density determines the +M half), then
        // straight back to real moments.
        let w = 2 * self.lmax_dst + 1;
        for ll in 0..=self.lmax_dst {
            let inv_scale = ((2.0 * ll as f64 + 1.0) / fourpi).sqrt();
            for mm in 0..=(ll as i64) {
                let big_m = -mm;
                let mut acc_re = 0.0;
                let mut acc_im = 0.0;
                for l in 0..=ll.min(self.lmax_src) {
                    let j = ll - l;
                    let lo = (-(l as i64)).max(big_m - j as i64);
                    let hi = (l as i64).min(big_m + j as i64);
                    for m in lo..=hi {
                        let sb = self.sqrt_binom
                            [(ll as i64 + big_m) as usize * w + (l as i64 + m) as usize]
                            * self.sqrt_binom
                                [(ll as i64 - big_m) as usize * w + (l as i64 - m) as usize];
                        let s = lm_index(l, m);
                        let rj = lm_index(j, big_m - m);
                        // conj(R_j^{M−m}) = (re, −im).
                        let (br, bi) = (rr_re[rj], -rr_im[rj]);
                        acc_re += sb * (mu_re[s] * br - mu_im[s] * bi);
                        acc_im += sb * (mu_re[s] * bi + mu_im[s] * br);
                    }
                }
                let qr = acc_re * inv_scale;
                let qi = acc_im * inv_scale;
                if mm == 0 {
                    dst[lm_index(ll, 0)] += qr;
                } else {
                    // q'^c_{L,−M} = (a + ib)/√2 ⇒ a = √2·Re, b = √2·Im.
                    dst[lm_index(ll, mm)] += std::f64::consts::SQRT_2 * qr;
                    dst[lm_index(ll, -mm)] += std::f64::consts::SQRT_2 * qi;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Element;
    use crate::geometry::Atom;
    use crate::grids::GridSettings;
    use crate::harmonics::real_spherical_harmonics_oracle;
    use qp_linalg::vecops::dist3;

    fn single_atom() -> Structure {
        Structure::new(vec![Atom::new(Element::O, [0.0; 3])])
    }

    #[test]
    fn adams_moulton_integrates_polynomial_exactly() {
        // 3rd-order AM is exact for quadratics: ∫ x² = x³/3.
        let h = 0.1;
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * h).collect();
        let f: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let cum = adams_moulton_cumulative(h, &f);
        for (k, x) in xs.iter().enumerate().skip(2) {
            assert!(
                (cum[k] - x * x * x / 3.0).abs() < 1e-10,
                "k = {k}: {} vs {}",
                cum[k],
                x * x * x / 3.0
            );
        }
    }

    #[test]
    fn adams_moulton_sine() {
        let h = 0.01;
        let f: Vec<f64> = (0..314).map(|i| (i as f64 * h).sin()).collect();
        let cum = adams_moulton_cumulative(h, &f);
        let x_end = 313.0 * h;
        assert!((cum[313] - (1.0 - x_end.cos())).abs() < 1e-8);
    }

    fn gaussian_density(grid: &IntegrationGrid, center: [f64; 3], alpha: f64, q: f64) -> Vec<f64> {
        let norm = q * (alpha / std::f64::consts::PI).powf(1.5);
        grid.points
            .iter()
            .map(|p| {
                let r = dist3(p.position, center);
                norm * (-alpha * r * r).exp()
            })
            .collect()
    }

    #[test]
    fn monopole_moment_recovers_charge() {
        let s = single_atom();
        let grid = IntegrationGrid::build(&s, &GridSettings::light());
        let n = gaussian_density(&grid, [0.0; 3], 1.2, 3.0);
        let mom = MultipoleMoments::compute(&s, &grid, &n, 2);
        // Q = ∫ n = Σ_k w_rad_k · sqrt(4π) · rho_00(r_k).
        let q: f64 = grid
            .radial
            .weights()
            .iter()
            .enumerate()
            .map(|(k, w)| w * mom.moments[0][k * mom.n_lm] * (4.0 * std::f64::consts::PI).sqrt())
            .sum();
        assert!((q - 3.0).abs() < 0.01, "recovered charge {q}");
    }

    #[test]
    fn spherical_density_has_no_higher_moments() {
        let s = single_atom();
        let grid = IntegrationGrid::build(&s, &GridSettings::light());
        let n = gaussian_density(&grid, [0.0; 3], 1.0, 1.0);
        let mom = MultipoleMoments::compute(&s, &grid, &n, 3);
        for k in 0..grid.radial.len() {
            for lm in 1..mom.n_lm {
                assert!(
                    mom.moments[0][k * mom.n_lm + lm].abs() < 1e-8,
                    "shell {k}, lm {lm}"
                );
            }
        }
    }

    #[test]
    fn hartree_of_gaussian_matches_erf() {
        // v(r) = Q erf(sqrt(α) r)/r for a normalized Gaussian charge.
        let s = single_atom();
        let grid = IntegrationGrid::build(&s, &GridSettings::light());
        let alpha = 1.0;
        let q = 2.0;
        let n = gaussian_density(&grid, [0.0; 3], alpha, q);
        let mom = MultipoleMoments::compute(&s, &grid, &n, 2);
        let sol = solve_poisson(&s, &grid, &mom);
        let erf = |x: f64| {
            // Abramowitz-Stegun 7.1.26, |err| < 1.5e-7.
            let t = 1.0 / (1.0 + 0.3275911 * x);
            1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp()
        };
        for &r in &[0.5, 1.0, 2.0, 4.0, 7.0] {
            let v = sol.eval([r, 0.0, 0.0]);
            let expect = q * erf(alpha.sqrt() * r) / r;
            assert!(
                (v - expect).abs() < 0.01 * expect.abs().max(0.1),
                "r = {r}: {v} vs {expect}"
            );
        }
    }

    #[test]
    fn far_field_is_q_over_r() {
        let s = single_atom();
        let grid = IntegrationGrid::build(&s, &GridSettings::light());
        let n = gaussian_density(&grid, [0.0; 3], 2.0, 5.0);
        let mom = MultipoleMoments::compute(&s, &grid, &n, 2);
        let sol = solve_poisson(&s, &grid, &mom);
        let r = sol.r_outer * 2.0;
        let v = sol.eval([0.0, 0.0, r]);
        assert!((v - 5.0 / r).abs() < 1e-3, "v = {v}, Q/r = {}", 5.0 / r);
    }

    #[test]
    fn off_center_gaussian_monopole_tail() {
        // Density centered on the atom but evaluated far away must still
        // look like Q/|r| — exercises the full lm machinery.
        let s = single_atom();
        let grid = IntegrationGrid::build(&s, &GridSettings::light());
        let n = gaussian_density(&grid, [0.3, -0.2, 0.1], 2.0, 1.0);
        let mom = MultipoleMoments::compute(&s, &grid, &n, 4);
        let sol = solve_poisson(&s, &grid, &mom);
        let p = [12.0, 5.0, -8.0];
        let d = dist3(p, [0.3, -0.2, 0.1]);
        let v = sol.eval(p);
        assert!((v - 1.0 / d).abs() < 5e-3, "v = {v} vs {}", 1.0 / d);
    }

    #[test]
    fn two_center_potential_superposes() {
        // Two atoms, each with a Gaussian blob on its own grid: the total
        // potential is the sum of the two single-center potentials.
        let s2 = Structure::new(vec![
            Atom::new(Element::O, [0.0; 3]),
            Atom::new(Element::O, [4.0, 0.0, 0.0]),
        ]);
        let grid = IntegrationGrid::build(&s2, &GridSettings::light());
        let n: Vec<f64> = grid
            .points
            .iter()
            .map(|p| {
                let r1 = dist3(p.position, [0.0; 3]);
                let r2 = dist3(p.position, [4.0, 0.0, 0.0]);
                (1.5f64 / std::f64::consts::PI).powf(1.5)
                    * ((-1.5 * r1 * r1).exp() + (-1.5 * r2 * r2).exp())
            })
            .collect();
        let mom = MultipoleMoments::compute(&s2, &grid, &n, 4);
        let sol = solve_poisson(&s2, &grid, &mom);
        // At the midpoint, each unit charge contributes erf-screened ~1/2.
        let v = sol.eval([2.0, 0.0, 0.0]);
        assert!((v - 1.0).abs() < 0.02, "midpoint potential {v}");
    }

    /// The moments as one serial pass over the grid in point order,
    /// before they became one row per atom: the kernel's bit oracle.
    fn serial_moments(
        s: &Structure,
        grid: &IntegrationGrid,
        density: &[f64],
        lmax: usize,
    ) -> Vec<Vec<f64>> {
        let n_lm = num_harmonics(lmax);
        let fourpi = 4.0 * std::f64::consts::PI;
        let mut moments = vec![vec![0.0; grid.radial.len() * n_lm]; s.len()];
        let mut ylm = vec![0.0; n_lm];
        for (p, &n_val) in grid.points.iter().zip(density) {
            let ia = p.atom as usize;
            let c = s.atoms[ia].position;
            let dir = [
                p.position[0] - c[0],
                p.position[1] - c[1],
                p.position[2] - c[2],
            ];
            real_spherical_harmonics(lmax, dir, &mut ylm);
            let base = p.shell as usize * n_lm;
            let f = fourpi * p.w_angular * p.partition * n_val;
            for (m, y) in moments[ia][base..base + n_lm].iter_mut().zip(&ylm) {
                *m += f * y;
            }
        }
        moments
    }

    #[test]
    fn planned_moments_and_eval_are_bit_identical_to_direct() {
        // Two off-axis atoms so the harmonics, partition weights, and both
        // spline/tail branches of the evaluator are all exercised, at the
        // test order 3 and the production order 4.
        let s2 = Structure::new(vec![
            Atom::new(Element::O, [0.1, -0.2, 0.05]),
            Atom::new(Element::H, [1.7, 0.4, -0.3]),
        ]);
        let grid = IntegrationGrid::build(&s2, &GridSettings::coarse());
        let n: Vec<f64> = grid
            .points
            .iter()
            .map(|p| {
                let r1 = dist3(p.position, [0.1, -0.2, 0.05]);
                (-0.8 * r1 * r1).exp() * (1.0 + 0.3 * p.position[0])
            })
            .collect();
        for lmax in [3, 4] {
            let plan = HartreePlan::build(&s2, &grid, lmax);
            assert_eq!(plan.natoms(), 2);
            assert!(plan.memory_bytes() > 0);

            let serial = serial_moments(&s2, &grid, &n, lmax);
            let direct = MultipoleMoments::compute(&s2, &grid, &n, lmax);
            for threads in [1, 8] {
                let _lease = qp_par::ThreadLease::exactly(threads);
                let planned = MultipoleMoments::compute_planned(&s2, &grid, &n, &plan);
                for got in [&direct.moments, &planned.moments] {
                    for (ia, (w, g)) in serial.iter().zip(got).enumerate() {
                        for (j, (wv, gv)) in w.iter().zip(g).enumerate() {
                            assert_eq!(
                                wv.to_bits(),
                                gv.to_bits(),
                                "lmax {lmax}, {threads} threads: moment mismatch atom {ia} slot {j}"
                            );
                        }
                    }
                }
            }

            let sol = solve_poisson(&s2, &grid, &direct);
            let spline_pairs = plan.r.iter().filter(|&&r| r <= sol.r_outer).count();
            assert!(
                spline_pairs > 0 && spline_pairs < plan.r.len(),
                "lmax {lmax}: both branches must run ({spline_pairs} of {} pairs inside r_outer)",
                plan.r.len()
            );
            for ip in 0..grid.points.len() {
                let d = sol.eval(grid.points[ip].position);
                let p = sol.eval_planned(&plan, ip);
                assert_eq!(
                    d.to_bits(),
                    p.to_bits(),
                    "lmax {lmax}: potential mismatch at point {ip}"
                );
            }
        }
    }

    /// The plan as it was built before its tables were written in place:
    /// per-point row vectors from the per-call harmonics, copied into the
    /// final arrays in point order.
    fn oracle_plan(structure: &Structure, grid: &IntegrationGrid, lmax: usize) -> HartreePlan {
        let n_lm = num_harmonics(lmax);
        let natoms = structure.len();
        let radii = grid.radial.radii();
        let (mut r, mut k, mut a, mut b, mut ylm) = (vec![], vec![], vec![], vec![], vec![]);
        for p in &grid.points {
            let mut row_ylm = vec![0.0f64; natoms * n_lm];
            for (ia, atom) in structure.atoms.iter().enumerate() {
                let c = atom.position;
                let d = [
                    p.position[0] - c[0],
                    p.position[1] - c[1],
                    p.position[2] - c[2],
                ];
                let rr = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                r.push(rr);
                real_spherical_harmonics_oracle(lmax, d, &mut row_ylm[ia * n_lm..(ia + 1) * n_lm]);
                let (kk, aa, bb) = CubicSpline::locate(radii, rr.max(1e-6));
                k.push(kk as u32);
                a.push(aa);
                b.push(bb);
            }
            ylm.extend_from_slice(&row_ylm);
        }
        HartreePlan {
            lmax,
            n_lm,
            natoms,
            r,
            k,
            a,
            b,
            ylm,
        }
    }

    #[test]
    fn plan_built_in_place_matches_the_oracle_plan() {
        // Every table entry, at every order the evaluator takes and at 1
        // and 8 threads, on a grid whose point count is not a multiple of
        // the build's block.
        let s3 = Structure::new(vec![
            Atom::new(Element::O, [0.1, -0.2, 0.05]),
            Atom::new(Element::H, [1.7, 0.4, -0.3]),
            Atom::new(Element::H, [-0.9, 1.3, 0.8]),
        ]);
        let grid = IntegrationGrid::build(&s3, &GridSettings::coarse());
        assert_ne!(grid.len() % 64, 0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for lmax in 0..=HARTREE_LMAX {
            let want = oracle_plan(&s3, &grid, lmax);
            for threads in [1, 8] {
                let _lease = qp_par::ThreadLease::exactly(threads);
                let got = HartreePlan::build(&s3, &grid, lmax);
                let tag = format!("lmax {lmax}, {threads} threads");
                assert_eq!(
                    (got.lmax, got.n_lm, got.natoms),
                    (lmax, want.n_lm, 3),
                    "{tag}"
                );
                assert_eq!(bits(&got.r), bits(&want.r), "{tag}: r");
                assert_eq!(got.k, want.k, "{tag}: k");
                assert_eq!(bits(&got.a), bits(&want.a), "{tag}: a");
                assert_eq!(bits(&got.b), bits(&want.b), "{tag}: b");
                assert_eq!(bits(&got.ylm), bits(&want.ylm), "{tag}: ylm");
                assert_eq!(got.memory_bytes(), want.memory_bytes(), "{tag}");
            }
        }
    }

    /// The scalar Hartree kernel the channel-generic one replaced, kept as
    /// its bit oracle: the interleaved knot table
    /// `coef[atom][(k * n_lm + lm) * 2 + {0, 1}]`, `powi` in the tail, and
    /// one scalar expression per channel, added to the sum as it is formed.
    struct ScalarOracle<'a> {
        sol: &'a HartreeSolution,
        coef: Vec<Vec<f64>>,
    }

    impl<'a> ScalarOracle<'a> {
        fn new(sol: &'a HartreeSolution) -> Self {
            let coef = sol
                .values
                .iter()
                .zip(&sol.curvatures)
                .map(|(values, curvatures)| {
                    values
                        .iter()
                        .zip(curvatures)
                        .flat_map(|(&y, &y2)| [y, y2])
                        .collect()
                })
                .collect();
            ScalarOracle { sol, coef }
        }

        fn add_atom(&self, mut v: f64, ia: usize, r: f64, ylm: &[f64]) -> f64 {
            let sol = self.sol;
            let n_lm = sol.n_lm;
            if r <= sol.r_outer {
                let (k, a, b) = CubicSpline::locate(&sol.knots, r.max(1e-6));
                let h = sol.knots[k + 1] - sol.knots[k];
                let hh = h * h;
                let (ca, cb) = (a * a * a - a, b * b * b - b);
                let rows = &self.coef[ia][2 * k * n_lm..2 * (k + 2) * n_lm];
                let (lo, hi) = rows.split_at(2 * n_lm);
                for (lm, y) in ylm[..n_lm].iter().enumerate() {
                    let (y0, d0) = (lo[2 * lm], lo[2 * lm + 1]);
                    let (y1, d1) = (hi[2 * lm], hi[2 * lm + 1]);
                    v += (a * y0 + b * y1 + (ca * d0 + cb * d1) * hh / 6.0) * y;
                }
            } else {
                let pq = &sol.tail_pref[ia];
                for l in 0..=sol.lmax {
                    let rl1 = r.powi(l as i32 + 1);
                    for lm in l * l..(l + 1) * (l + 1) {
                        v += pq[lm] / rl1 * ylm[lm];
                    }
                }
            }
            v
        }

        fn eval(&self, p: [f64; 3]) -> f64 {
            let mut ylm = vec![0.0; self.sol.n_lm];
            let mut v = 0.0;
            for (ia, c) in self.sol.centers.iter().enumerate() {
                let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                real_spherical_harmonics(self.sol.lmax, d, &mut ylm);
                v = self.add_atom(v, ia, r, &ylm);
            }
            v
        }
    }

    /// A solution on `grid`'s knots whose channels all weigh alike at the
    /// grid points: pseudo-random knot values, and tails scaled by `8^l`
    /// so that beyond `r_outer` each order's `q_lm / r^{l+1}` term is as
    /// large as the monopole's. A last-bit change in any one term then
    /// shows in the sum.
    fn even_weight_solution(s: &Structure, grid: &IntegrationGrid, lmax: usize) -> HartreeSolution {
        let radii = grid.radial.radii();
        let mut seed = 17 + lmax as u64;
        let splines: Vec<Vec<CubicSpline>> = (0..s.len())
            .map(|_| {
                (0..num_harmonics(lmax))
                    .map(|_| {
                        seed += 1;
                        CubicSpline::natural(radii.to_vec(), lcg_values(radii.len(), seed))
                    })
                    .collect()
            })
            .collect();
        let tails = (0..s.len())
            .map(|ia| {
                let q = lcg_moments(lmax, 101 + ia as u64);
                let scaled = q.iter().enumerate();
                scaled
                    .map(|(lm, &q)| q * 8f64.powi(lm.isqrt() as i32))
                    .collect()
            })
            .collect();
        let centers = s.atoms.iter().map(|a| a.position).collect();
        HartreeSolution::from_channels(lmax, centers, &splines, tails, radii[radii.len() - 1])
    }

    #[test]
    fn kernel_is_bit_identical_to_the_scalar_oracle() {
        // Three off-axis atoms, the Poisson solution of a density with
        // angular structure and a solution whose every channel weighs alike,
        // at every order the evaluator is built for; both the spline and
        // the tail branch run.
        let centers = [[0.1, -0.2, 0.05], [1.7, 0.4, -0.3], [-0.9, 1.3, 0.8]];
        let s3 = Structure::new(vec![
            Atom::new(Element::O, centers[0]),
            Atom::new(Element::H, centers[1]),
            Atom::new(Element::H, centers[2]),
        ]);
        let grid = IntegrationGrid::build(&s3, &GridSettings::coarse());
        let n: Vec<f64> = grid
            .points
            .iter()
            .map(|p| {
                let [x, y, z] = p.position;
                let r1 = dist3(p.position, centers[0]);
                let r3 = dist3(p.position, centers[2]);
                (-0.8 * r1 * r1).exp() * (1.0 + 0.3 * x - 0.2 * y * z)
                    + 0.4 * (-1.1 * r3 * r3).exp() * (1.0 + 0.5 * x * y)
            })
            .collect();
        let subset: Vec<usize> = (0..grid.len()).rev().step_by(3).collect();
        for lmax in 0..=HARTREE_LMAX {
            let plan = HartreePlan::build(&s3, &grid, lmax);
            let poisson =
                solve_poisson(&s3, &grid, &MultipoleMoments::compute(&s3, &grid, &n, lmax));
            for (kind, sol) in [
                ("poisson", poisson),
                ("even", even_weight_solution(&s3, &grid, lmax)),
            ] {
                let spline_pairs = plan.r.iter().filter(|&&r| r <= sol.r_outer).count();
                assert!(
                    spline_pairs > 0 && spline_pairs < plan.r.len(),
                    "lmax {lmax}: both branches must run ({spline_pairs} of {} pairs inside r_outer)",
                    plan.r.len()
                );
                // The roofline count sees the same branch split with or
                // without the plan.
                let n = sol.n_lm;
                let tail_pairs = plan.r.len() - spline_pairs;
                let flops = spline_pairs * (8 + 11 * n) + tail_pairs * (lmax + 3 * n);
                assert_eq!(sol.eval_cost(&grid, Some(&plan), None).0, flops as u64);
                assert_eq!(sol.eval_cost(&grid, None, None).0, flops as u64);
                let oracle = ScalarOracle::new(&sol);
                let expect: Vec<u64> = grid
                    .points
                    .iter()
                    .map(|p| oracle.eval(p.position).to_bits())
                    .collect();
                for (ip, p) in grid.points.iter().enumerate() {
                    let planned = sol.eval_planned(&plan, ip).to_bits();
                    let direct = sol.eval_atoms(p.position, 0..s3.len()).to_bits();
                    let tag = format!("{kind}, lmax {lmax}, point {ip}");
                    assert_eq!(planned, expect[ip], "{tag}: eval_planned");
                    assert_eq!(direct, expect[ip], "{tag}: eval_atoms");
                }
                for threads in [1, 8] {
                    let _lease = qp_par::ThreadLease::exactly(threads);
                    for pl in [Some(&plan), None] {
                        let mut all = vec![0.0; grid.len()];
                        sol.eval_grid(&grid, pl, None, &mut all);
                        let mut some = vec![0.0; subset.len()];
                        sol.eval_grid(&grid, pl, Some(&subset), &mut some);
                        let tag = format!(
                            "{kind}, lmax {lmax}, {threads} threads, plan {}",
                            pl.is_some()
                        );
                        for (ip, v) in all.iter().enumerate() {
                            assert_eq!(v.to_bits(), expect[ip], "{tag}: eval_grid at point {ip}");
                        }
                        for (&ip, v) in subset.iter().zip(&some) {
                            assert_eq!(v.to_bits(), expect[ip], "{tag}: subset at point {ip}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "above the evaluator's")]
    fn orders_above_the_evaluator_are_refused() {
        HartreeSolution::from_channels(HARTREE_LMAX + 1, vec![], &[], vec![], 2.0);
    }

    fn lcg_moments(lmax: usize, seed: u64) -> Vec<f64> {
        lcg_values(num_harmonics(lmax), seed)
    }

    /// `n` pseudo-random values in `[-0.5, 0.5]`.
    fn lcg_values(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn translation_by_zero_is_identity() {
        let lmax = 4;
        let src = lcg_moments(lmax, 5);
        let tr = MomentTranslator::new(lmax, 12);
        let c = [1.3, -0.7, 2.1];
        let mut dst = vec![0.0; num_harmonics(12)];
        tr.translate(&src, c, c, &mut dst);
        for lm in 0..num_harmonics(12) {
            let expect = if lm < src.len() { src[lm] } else { 0.0 };
            assert!(
                (dst[lm] - expect).abs() < 1e-13,
                "slot {lm}: {} vs {expect}",
                dst[lm]
            );
        }
    }

    #[test]
    fn translated_expansion_reproduces_tail_potential() {
        // Random point multipoles translated to a common center must
        // reproduce the summed tail potential at well-separated points to
        // the (shift/dist)^{lmax_dst+1} truncation error.
        let lmax_src = 3;
        let lmax_dst = 12;
        let tr = MomentTranslator::new(lmax_src, lmax_dst);
        let centers = [[0.4, -0.3, 0.2], [-0.5, 0.6, -0.1], [0.1, 0.2, -0.6]];
        let moments: Vec<Vec<f64>> = (0..3).map(|i| lcg_moments(lmax_src, 11 + i)).collect();
        let dst_center = [0.0, 0.1, -0.05];
        let mut agg = vec![0.0; num_harmonics(lmax_dst)];
        for (c, q) in centers.iter().zip(moments.iter()) {
            tr.translate(q, *c, dst_center, &mut agg);
        }
        let mut ylm = vec![0.0; num_harmonics(lmax_dst)];
        for p in [[8.0, 3.0, -2.0], [-5.0, -6.0, 4.0], [0.5, 9.0, 7.5]] {
            let direct: f64 = centers
                .iter()
                .zip(moments.iter())
                .map(|(c, q)| multipole_tail(q, lmax_src, *c, p, &mut ylm))
                .sum();
            let tree = multipole_tail(&agg, lmax_dst, dst_center, p, &mut ylm);
            assert!(
                (tree - direct).abs() < 1e-11 * direct.abs().max(1.0),
                "p = {p:?}: {tree} vs {direct}"
            );
        }
    }

    #[test]
    fn tail_helper_matches_eval_atoms_tail_branch() {
        // multipole_tail on one atom's tail row must agree with the tail
        // branch of eval_atoms (same formula, different loop shape).
        let s = single_atom();
        let grid = IntegrationGrid::build(&s, &GridSettings::light());
        let n = gaussian_density(&grid, [0.2, -0.1, 0.3], 1.5, 2.0);
        let mom = MultipoleMoments::compute(&s, &grid, &n, 4);
        let sol = solve_poisson(&s, &grid, &mom);
        let mut ylm = vec![0.0; sol.n_lm];
        for p in [[15.0, 2.0, -3.0], [-9.0, 11.0, 6.0]] {
            let direct = sol.eval_atoms(p, [0usize]);
            let tail = multipole_tail(&sol.tails[0], sol.lmax, sol.centers[0], p, &mut ylm);
            assert!(
                (tail - direct).abs() < 1e-14 * direct.abs().max(1.0),
                "{tail} vs {direct}"
            );
        }
    }
}
