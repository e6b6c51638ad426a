//! The assembled simulation system: structure + basis + grid + batches +
//! tabulated basis values.
//!
//! Basis values at grid points are tabulated batch by batch with cutoff
//! pruning — the "two-level fine-grained parallelism, across batches and
//! grid points" data layout of §4.1. Their gradients are read by one
//! matrix only, the kinetic energy, so its pass tabulates them per batch
//! and drops them.
//!
//! What a [`System`] derives from its geometry follows one rule: it is
//! built on first use and kept for the system's life while it fits its
//! budget, and computed per use otherwise. The basis tables are kept one
//! batch at a time within [`budget_bytes`] of the basis size, the Hartree
//! plan whole within `PLAN_BUDGET_BYTES`.
//! Either way every output bit is the same; the budgets decide only what
//! stays resident.

use crate::basis_cache::{budget_bytes, BasisValueCache};
use crate::farfield::FarFieldMode;
use crate::screening::{ScreenPlan, ScreeningMode};
use qp_chem::basis::{AtomBasis, BasisSet, BasisSettings, GRADIENT_STEP};
use qp_chem::geometry::Structure;
use qp_chem::grids::{GridSettings, IntegrationGrid};
use qp_chem::multipole::{solve_poisson, HartreePlan, MultipoleMoments};
use qp_grid::batch::{batches_from_grid, Batch};
use qp_grid::{ClusterTree, FarField};
use qp_linalg::vecops::dist3;
use std::sync::{Arc, OnceLock};

/// Atoms per leaf of the far-field cluster tree. Small enough that leaf
/// clusters stay compact (tight radii → aggressive multipole acceptance),
/// large enough that the tree has O(n/8) leaves.
const CLUSTER_LEAF_MAX: usize = 8;

/// Budget of the Hartree plan's tables: 256 MiB. The bench systems' plans
/// sit in the tens of MB; a system whose plan would exceed the budget
/// takes the direct Hartree path, which recomputes the geometry per use.
const PLAN_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// Roofline accounting for one Hartree evaluation, as GEMM books its
/// own: the flops and compulsory bytes of
/// [`HartreeSolution::eval_cost`](qp_chem::multipole::HartreeSolution::eval_cost)
/// against the calling thread's phase label, so the profiler's phase rows
/// report Rho's GFLOP/s and intensity.
fn record_rho_roofline((flops, bytes): (u64, u64)) {
    let labels: &[(&str, &str)] = &[("phase", qp_par::telemetry::current_label())];
    let reg = qp_trace::global_metrics();
    reg.counter("rho.eval.flops", labels).add(flops);
    reg.counter("rho.eval.bytes", labels).add(bytes);
    reg.counter("rho.eval.calls", labels).inc();
}

/// Per-batch table of basis-function values at the batch's grid points.
#[derive(Debug, Clone)]
pub struct BatchBasisTable {
    /// Global indices of the basis functions that reach this batch.
    pub fn_indices: Vec<usize>,
    /// `values[p * fn_indices.len() + k]` = χ of function `k` at point `p`
    /// (points in batch order).
    pub values: Vec<f64>,
}

impl BatchBasisTable {
    /// Value of pruned function `k` at batch point `p`.
    #[inline]
    pub fn value(&self, p: usize, k: usize) -> f64 {
        self.values[p * self.fn_indices.len() + k]
    }
}

/// `fn_indices` in runs of one atom's functions: `(atom, first k, end)`.
fn atom_runs(basis: &BasisSet, fn_indices: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    for (ki, &fi) in fn_indices.iter().enumerate() {
        let atom = basis.atom_of(fi);
        match runs.last_mut() {
            Some((a, _, end)) if *a == atom => *end = ki + 1,
            _ => runs.push((atom, ki, ki + 1)),
        }
    }
    runs
}

/// A ready-to-run simulation system.
pub struct System {
    /// The molecular structure.
    pub structure: Structure,
    /// The NAO basis.
    pub basis: BasisSet,
    /// The integration grid.
    pub grid: IntegrationGrid,
    /// The grid's batches (grid-adapted cut-plane method).
    pub batches: Vec<Batch>,
    /// Per-batch basis tables, each built on first use and kept while
    /// the kept tables fit the budget (see [`crate::basis_cache`]).
    cache: BasisValueCache,
    /// Multipole expansion order used by the Poisson solver.
    pub lmax: usize,
    /// Per-(point, atom) geometry tables for the Hartree phases, built on
    /// first use; `None` when they would exceed [`PLAN_BUDGET_BYTES`].
    hartree_plan: OnceLock<Option<Arc<HartreePlan>>>,
    /// Cutoff-sphere screening plan (`Some` when screening is active).
    /// Screening is bit-invisible: every screened path produces the same
    /// bytes as the dense one (see [`crate::screening`]).
    screen: Option<Arc<ScreenPlan>>,
    /// Far-field evaluation mode for the Hartree phases.
    farfield: FarFieldMode,
    /// Lazily built atom-cluster tree (geometry only, shared by every
    /// Poisson solve); `Some` only when `farfield` enables the tree path.
    cluster: OnceLock<Option<Arc<ClusterTree>>>,
}

impl System {
    /// Build a system with explicit settings, [`ScreeningMode::Auto`] and
    /// [`FarFieldMode::Auto`].
    pub fn build(
        structure: Structure,
        basis_settings: BasisSettings,
        grid_settings: &GridSettings,
        max_batch: usize,
        lmax: usize,
    ) -> Self {
        Self::build_with_modes(
            structure,
            basis_settings,
            grid_settings,
            max_batch,
            lmax,
            ScreeningMode::Auto,
            FarFieldMode::Auto,
        )
    }

    /// [`System::build`] with explicit screening *and* far-field control
    /// (`--screening on|off|auto`, `--farfield direct|tree|auto`).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_modes(
        structure: Structure,
        basis_settings: BasisSettings,
        grid_settings: &GridSettings,
        max_batch: usize,
        lmax: usize,
        mode: ScreeningMode,
        farfield: FarFieldMode,
    ) -> Self {
        let basis = BasisSet::build(&structure, basis_settings);
        let grid = IntegrationGrid::build(&structure, grid_settings);
        let batches = batches_from_grid(&grid, max_batch);
        let cache = BasisValueCache::new(batches.len(), budget_bytes(basis.len()));
        let screen = mode
            .enabled(structure.len())
            .then(|| Arc::new(ScreenPlan::build(&structure)));
        System {
            structure,
            basis,
            grid,
            batches,
            cache,
            lmax,
            hartree_plan: OnceLock::new(),
            screen,
            farfield,
            cluster: OnceLock::new(),
        }
    }

    /// The system a job runs on: [`System::build_with_modes`] at the
    /// paper-typical batch size of 200 points and multipole order 4.
    /// `qperturb` and qp-serve build through here, which is part of why a
    /// served result and a CLI run carry the same bits.
    pub fn for_job(
        structure: Structure,
        basis_settings: BasisSettings,
        grid_settings: &GridSettings,
        screening: ScreeningMode,
        farfield: FarFieldMode,
    ) -> Self {
        Self::build_with_modes(
            structure,
            basis_settings,
            grid_settings,
            200,
            4,
            screening,
            farfield,
        )
    }

    /// Convenience: a job's system on the light basis and grid.
    pub fn light(structure: Structure) -> Self {
        Self::for_job(
            structure,
            BasisSettings::Light,
            &GridSettings::light(),
            ScreeningMode::Auto,
            FarFieldMode::Auto,
        )
    }

    /// The basis table for batch `bid`: the kept one, or freshly
    /// tabulated.
    pub fn table(&self, bid: usize) -> Arc<BatchBasisTable> {
        self.cache
            .get(bid, || self.tabulate_batch(&self.batches[bid]))
    }

    /// The active screening plan, if any.
    pub fn screen(&self) -> Option<&Arc<ScreenPlan>> {
        self.screen.as_ref()
    }

    /// The atom-cluster tree for hierarchical far-field evaluation, built
    /// once on first use. `None` when the mode resolves to the direct path
    /// for this structure — the choice depends only on the mode and atom
    /// count, never on thread count or timing.
    pub fn farfield_tree(&self) -> Option<&Arc<ClusterTree>> {
        self.cluster
            .get_or_init(|| {
                self.farfield.enabled(self.structure.len()).then(|| {
                    let centers: Vec<[f64; 3]> =
                        self.structure.atoms.iter().map(|a| a.position).collect();
                    Arc::new(ClusterTree::build(&centers, CLUSTER_LEAF_MAX))
                })
            })
            .as_ref()
    }

    /// The per-batch basis tables (hit counts, kept bytes).
    pub fn basis_cache(&self) -> &BasisValueCache {
        &self.cache
    }

    /// Build the batch tables up front, in parallel, keeping those that
    /// fit the budget (the SCF driver does this implicitly on its first
    /// assembly; benches use it explicitly to separate cold from warm
    /// timings). Once the cache drops a table the budget is full, so the
    /// rest are left to be built on first use, as without warm-up.
    pub fn warm_tables(&self) {
        let dropped = || self.cache.counters().2;
        let before = dropped();
        // Tabulating a batch is radial-spline + harmonics work per
        // (point, function) — always worth fanning out.
        qp_par::for_each_index_hinted(self.batches.len(), 1_000_000, |b| {
            if dropped() == before {
                self.table(b);
            }
        });
    }

    /// The Hartree geometry plan (per-point distances, harmonics, spline
    /// brackets), built once on first use and shared by the SCF and DFPT
    /// potential phases. Returns `None` when the tables would exceed
    /// `PLAN_BUDGET_BYTES`: the choice depends only on system size,
    /// never on the thread count, and both paths give the same bits.
    pub fn hartree_plan(&self) -> Option<Arc<HartreePlan>> {
        self.hartree_plan
            .get_or_init(|| {
                let est =
                    HartreePlan::estimate_bytes(self.grid.len(), self.structure.len(), self.lmax);
                (est <= PLAN_BUDGET_BYTES)
                    .then(|| Arc::new(HartreePlan::build(&self.structure, &self.grid, self.lmax)))
            })
            .clone()
    }

    /// Bytes of the Hartree plan's tables if this system has built and
    /// kept it, else 0; never builds it.
    pub fn hartree_plan_bytes(&self) -> usize {
        self.hartree_plan
            .get()
            .and_then(Option::as_deref)
            .map_or(0, HartreePlan::memory_bytes)
    }

    /// Multipole moments (`rho_multipole`) of a density given at every grid
    /// point, the harmonics read from the Hartree plan when it is kept and
    /// computed otherwise (bit-identical either way).
    pub fn multipole_moments(&self, density: &[f64]) -> MultipoleMoments {
        let plan = self.hartree_plan();
        MultipoleMoments::compute_with(
            &self.structure,
            &self.grid,
            density,
            self.lmax,
            plan.as_deref(),
        )
    }

    /// The Hartree potential of `moments` on the grid: one radial Poisson
    /// solve, then the potential at the grid indices in `points` (`None`:
    /// every point); the other slots stay `0.0`.
    ///
    /// The evaluation is the hierarchical far field when the mode enables
    /// the cluster tree (within the `QP_FARFIELD_TOL` budget), otherwise
    /// `HartreeSolution::eval_grid`: planned or direct, which are
    /// bit-identical. Each point's value lands in its own slot, so the
    /// result is bit-identical at any thread count. While the trace
    /// recorder is on, the planned or direct evaluation books its
    /// roofline counts against the calling thread's phase label (see
    /// [`record_rho_roofline`]).
    pub fn hartree_potential(
        &self,
        moments: &MultipoleMoments,
        points: Option<&[usize]>,
    ) -> Vec<f64> {
        let hartree = solve_poisson(&self.structure, &self.grid, moments);
        let mut at = vec![0.0; points.map_or(self.grid.len(), <[usize]>::len)];
        match self.farfield_tree() {
            Some(tree) => {
                let ff = FarField::aggregate(tree, &hartree, qp_grid::farfield_tol());
                let est = (self.structure.len() * hartree.n_lm * 8).max(1) as u64;
                qp_par::fill_slice_hinted(&mut at, est, |i| {
                    let gi = points.map_or(i, |p| p[i]);
                    ff.eval(tree, &hartree, self.grid.points[gi].position)
                });
            }
            None => {
                let plan = self.hartree_plan();
                hartree.eval_grid(&self.grid, plan.as_deref(), points, &mut at);
                if qp_trace::enabled() {
                    record_rho_roofline(hartree.eval_cost(&self.grid, plan.as_deref(), points));
                }
            }
        }
        let Some(points) = points else {
            return at;
        };
        let mut v = vec![0.0; self.grid.len()];
        for (&gi, x) in points.iter().zip(at) {
            v[gi] = x;
        }
        v
    }

    /// The basis table of `batch`: every function that reaches a point of
    /// the batch and its value at each point. Each atom's functions are
    /// evaluated together ([`AtomBasis::eval`]), and every value has the
    /// bits of the per-function `BasisFunction::eval`.
    fn tabulate_batch(&self, batch: &Batch) -> BatchBasisTable {
        let basis = &self.basis;
        // Prune: functions whose support reaches any point of the batch.
        let radius = batch
            .points
            .iter()
            .map(|p| dist3(p.position, batch.center))
            .fold(0.0, f64::max);
        // The cell-list query returns exactly the linear scan's list (same
        // strict predicate, same order), just in O(neighbourhood).
        let fn_indices = match self.screen.as_deref() {
            Some(plan) => plan.functions_near(basis, batch.center, radius),
            None => basis.functions_near(batch.center, radius),
        };
        let runs = atom_runs(basis, &fn_indices);
        let nf = fn_indices.len();
        let mut values = vec![0.0; batch.points.len() * nf];
        let width = basis.atoms.iter().map(AtomBasis::len).max().unwrap_or(0);
        let mut here = vec![0.0; width];
        for (pi, pt) in batch.points.iter().enumerate() {
            for &(a, k0, k1) in &runs {
                let atom = &basis.atoms[a];
                if !atom.eval(pt.position, &mut here) {
                    continue; // beyond the cutoff: the zeros stand
                }
                let first = basis.atom_offsets[a];
                for ki in k0..k1 {
                    values[pi * nf + ki] = here[fn_indices[ki] - first];
                }
            }
        }
        BatchBasisTable { fn_indices, values }
    }

    /// The central-difference gradients of `table`'s functions at the
    /// points of `batch`, `[(p * nf + k) * 3 + d]`: zero where the value
    /// is zero, elsewhere `(χ(p + H e_d) − χ(p − H e_d)) / 2H`, each atom's
    /// functions evaluated together at the six `±H` neighbours of a point
    /// where any of them is non-zero. Every entry has the bits of the
    /// per-function `BasisFunction::eval_grad`. Only the kinetic matrix
    /// reads gradients, once per system, so they are built for its pass
    /// and not kept with the values.
    pub(crate) fn basis_gradients(&self, batch: &Batch, table: &BatchBasisTable) -> Vec<f64> {
        const H: f64 = GRADIENT_STEP;
        let basis = &self.basis;
        let fn_indices = &table.fn_indices;
        let runs = atom_runs(basis, fn_indices);
        let nf = fn_indices.len();
        let mut gradients = vec![0.0; batch.points.len() * nf * 3];
        // One atom's values at +H and −H along x, y, z.
        let width = basis.atoms.iter().map(AtomBasis::len).max().unwrap_or(0);
        let mut moved = vec![0.0; 6 * width];
        for (pi, pt) in batch.points.iter().enumerate() {
            let values = &table.values[pi * nf..(pi + 1) * nf];
            for &(a, k0, k1) in &runs {
                if values[k0..k1].iter().all(|&v| v == 0.0) {
                    continue;
                }
                let atom = &basis.atoms[a];
                let (n, first) = (atom.len(), basis.atom_offsets[a]);
                for d in 0..3 {
                    let (mut pp, mut pm) = (pt.position, pt.position);
                    pp[d] += H;
                    pm[d] -= H;
                    atom.eval(pp, &mut moved[2 * d * n..]);
                    atom.eval(pm, &mut moved[(2 * d + 1) * n..]);
                }
                for ki in (k0..k1).filter(|&ki| values[ki] != 0.0) {
                    let j = fn_indices[ki] - first;
                    let g = &mut gradients[(pi * nf + ki) * 3..][..3];
                    for (d, g) in g.iter_mut().enumerate() {
                        *g = (moved[2 * d * n + j] - moved[(2 * d + 1) * n + j]) / (2.0 * H);
                    }
                }
            }
        }
        gradients
    }

    /// Number of basis functions.
    pub fn n_basis(&self) -> usize {
        self.basis.len()
    }

    /// Number of grid points.
    pub fn n_points(&self) -> usize {
        self.grid.len()
    }

    /// Number of electrons.
    pub fn n_electrons(&self) -> u32 {
        self.structure.num_electrons()
    }

    /// Number of occupied orbitals (closed shell).
    pub fn n_occupied(&self) -> usize {
        (self.n_electrons() as usize).div_ceil(2)
    }

    /// Density at the points of batch `bid` from a density matrix, in GEMM
    /// form: gather the batch-local block `P_loc`, compute `Y = X·P_loc`
    /// with the blocked Level-3 kernel (`X` = the `np×nf` basis-value
    /// table), then `n(p) = X_p · Y_p` per point.
    ///
    /// The GEMM runs serially here — callers fan out over batches, so the
    /// per-batch work is the parallel grain — and both the kernel and the
    /// final dot use a fixed accumulation order, keeping the result
    /// bit-identical at any thread count.
    pub fn batch_density(&self, bid: usize, p_mat: &qp_linalg::DMatrix) -> Vec<f64> {
        let batch = &self.batches[bid];
        let table = self.table(bid);
        let nf = table.fn_indices.len();
        let np = batch.points.len();
        if nf == 0 {
            return vec![0.0; np];
        }
        let p_loc = p_mat.gather_square(&table.fn_indices);
        let mut y = vec![0.0; np * nf];
        qp_linalg::gemm::gemm(np, nf, nf, &table.values, p_loc.as_slice(), &mut y, false);
        (0..np)
            .map(|pi| {
                let row = &table.values[pi * nf..(pi + 1) * nf];
                let yrow = &y[pi * nf..(pi + 1) * nf];
                row.iter().zip(yrow.iter()).map(|(x, v)| x * v).sum()
            })
            .collect()
    }

    /// Evaluate the density at every grid point from a density matrix
    /// (batch-local, pruned): `n(p) = Σ_{μν} P_{μν} χ_μ(p) χ_ν(p)`.
    ///
    /// This is the Sumup phase the SCF and DFPT loops run; the qp-cl Sumup
    /// kernel runs the same [`batch_density`](Self::batch_density) per
    /// work-group.
    ///
    /// Fused super-batch form: one region fans the batches out over the
    /// pool, and each worker writes its batch's densities straight into the
    /// shared output through the batch's grid indices — batches partition
    /// the grid, so the write sets are disjoint and there is no per-batch
    /// allocation or serial merge pass. The per-batch arithmetic is exactly
    /// [`batch_density`](Self::batch_density) (the oracle the property
    /// tests compare against), and every value lands in the same slot
    /// regardless of scheduling, so the result is bit-identical at any
    /// thread count.
    pub fn density_on_grid(&self, p_mat: &qp_linalg::DMatrix) -> Vec<f64> {
        let all: Vec<usize> = (0..self.batches.len()).collect();
        self.density_on(p_mat, &all)
    }

    /// [`density_on_grid`](Self::density_on_grid) at the points of
    /// `batches` only (ascending, distinct batch ids): the same fused
    /// kernel over the listed batches, the other grid slots left `0.0` — a
    /// distributed rank's share of the density.
    pub fn density_on(&self, p_mat: &qp_linalg::DMatrix, batches: &[usize]) -> Vec<f64> {
        assert!(
            batches.windows(2).all(|w| w[0] < w[1]),
            "batch ids must be ascending and distinct"
        );
        let mut density = vec![0.0; self.grid.len()];
        struct OutPtr(*mut f64);
        unsafe impl Send for OutPtr {}
        unsafe impl Sync for OutPtr {}
        let out = OutPtr(density.as_mut_ptr());
        // Cost hint: the batch GEMM dominates at 2·np·nf² flops; assume a
        // few flops/ns so small systems run inline, bench systems fan out.
        let avg_np = self.grid.len() / self.batches.len().max(1);
        let nb = self.n_basis();
        let est = ((avg_np * nb * nb) / 2).max(1) as u64;
        let out = &out;
        qp_par::for_each_index_hinted(batches.len(), est, |i| {
            let bid = batches[i];
            let local = self.batch_density(bid, p_mat);
            let batch = &self.batches[bid];
            for (pi, &v) in local.iter().enumerate() {
                // SAFETY: grid_index values are unique across all batches
                // (batches partition the grid) and the listed batches are
                // distinct, so writes never alias.
                unsafe {
                    *out.0.add(batch.points[pi].grid_index as usize) = v;
                }
            }
        });
        density
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::basis::BasisFunction;
    use qp_chem::harmonics::{lm_index, num_harmonics, real_spherical_harmonics};
    use qp_chem::structures::{ligand49, polyethylene, water};
    use qp_grid::batch::BatchPoint;
    use qp_linalg::DMatrix;

    fn small_system() -> System {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        System::build(water(), BasisSettings::Light, &gs, 150, 2)
    }

    #[test]
    fn tables_cover_all_batches() {
        let s = small_system();
        assert_eq!(s.basis_cache().len(), s.batches.len());
        for b in s.batches.iter() {
            let t = s.table(b.id);
            assert_eq!(t.values.len(), b.points.len() * t.fn_indices.len());
            assert!(!t.fn_indices.is_empty(), "water batches see some functions");
        }
    }

    #[test]
    fn repeated_lookup_hits_cache() {
        let s = small_system();
        s.warm_tables();
        let (h0, m0, _) = s.basis_cache().counters();
        for b in s.batches.iter() {
            s.table(b.id);
        }
        let (h1, m1, _) = s.basis_cache().counters();
        assert_eq!(h1 - h0, s.batches.len() as u64, "all warm lookups hit");
        assert_eq!(m1, m0, "no rebuild after warm-up");
    }

    #[test]
    fn tables_past_the_budget_leave_the_kept_ones_hitting() {
        // A budget of an eighth of the tables: warm-up stops building at
        // the first table the cache drops. Batches of 40 points give enough
        // of them that the tables in flight on every pool thread when that
        // drop lands still leave some unbuilt.
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let build = || System::build(water(), BasisSettings::Light, &gs, 40, 2);
        let full = build();
        full.warm_tables();
        let all_bytes = full.basis_cache().resident_bytes();
        let mut s = build();
        s.cache = BasisValueCache::new(s.batches.len(), all_bytes / 8);
        s.warm_tables();
        let n = s.batches.len() as u64;
        let (_, built, dropped) = s.basis_cache().counters();
        assert!(
            dropped > 0 && built < n,
            "warm-up built {built} of {n} tables, dropped {dropped}"
        );
        // The first Sumup builds the rest; from then on each one hits every
        // kept table and rebuilds only the others.
        let p = DMatrix::identity(s.n_basis());
        let want = full.density_on_grid(&p);
        let mut kept = 0;
        for sweep in 0..3 {
            let (h0, m0, e0) = s.basis_cache().counters();
            let got = s.density_on_grid(&p);
            let (h1, m1, e1) = s.basis_cache().counters();
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "sweep {sweep}: the density changed bits");
            if sweep > 0 {
                let counts = (h1 - h0, m1 - m0, e1 - e0);
                assert_eq!(counts, (kept, n - kept, n - kept), "sweep {sweep}");
            }
            kept = m1 - e1;
        }
        assert!(kept > 0 && kept < n, "{kept} of {n} kept");
        assert!(s.basis_cache().resident_bytes() <= all_bytes / 8);
    }

    #[test]
    fn jobs_without_the_hartree_plan_have_the_planned_bits() {
        // The plan forced off, as past PLAN_BUDGET_BYTES: every potential
        // evaluation and moment sum recomputes its geometry, and whole jobs
        // (ground state, three field directions) land on the planned bits.
        use crate::{DfptOptions, Job, ScfOptions};
        let (light, coarse) = (GridSettings::light(), GridSettings::coarse());
        for (name, structure, grid) in [
            ("water", water(), &light),
            ("polymer:4", polyethylene(4), &coarse),
        ] {
            let build = || {
                let (screen, far) = (ScreeningMode::Auto, FarFieldMode::Auto);
                System::for_job(structure.clone(), BasisSettings::Light, grid, screen, far)
            };
            let planned = build();
            assert!(planned.hartree_plan().is_some(), "{name}: the plan fits");
            let mut direct = build();
            direct.hartree_plan = OnceLock::from(None);
            let job = Job::new(ScfOptions::default(), DfptOptions::default());
            let (a, b) = (job.run(&planned).unwrap(), job.run(&direct).unwrap());
            assert_eq!(
                a.ground.energy.to_bits(),
                b.ground.energy.to_bits(),
                "{name}"
            );
            for (x, y) in a.alpha.as_slice().iter().zip(b.alpha.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}: alpha");
            }
        }
    }

    /// `BasisFunction::eval`, the per-function oracle (test-only inside
    /// qp-chem, where `AtomBasis::eval` is checked against it), over
    /// qp-chem's public pieces: the function's own distance, spline search
    /// at `r.max(1e-5)` and harmonics up to its own `l`.
    fn chi(f: &BasisFunction, p: [f64; 3]) -> f64 {
        let c = f.center;
        let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        if r >= f.radial.cutoff {
            return 0.0;
        }
        let rad = f.radial.spline.eval(r.max(1e-5));
        if rad == 0.0 {
            return 0.0;
        }
        let mut y = vec![0.0; num_harmonics(f.l)];
        real_spherical_harmonics(f.l, d, &mut y);
        rad * y[lm_index(f.l, f.m)]
    }

    /// `BasisFunction::eval_grad`: central differences of [`chi`].
    fn chi_grad(f: &BasisFunction, p: [f64; 3]) -> [f64; 3] {
        std::array::from_fn(|d| {
            let (mut pp, mut pm) = (p, p);
            pp[d] += GRADIENT_STEP;
            pm[d] -= GRADIENT_STEP;
            (chi(f, pp) - chi(f, pm)) / (2.0 * GRADIENT_STEP)
        })
    }

    /// A batch table with its gradients beside the values, as the tables
    /// were kept before the kinetic pass built its own.
    struct GradientTable {
        table: BatchBasisTable,
        /// `[(p * nf + k) * 3 + d]`.
        gradients: Vec<f64>,
    }

    /// The per-function oracle's table of `batch`: the linear scan's
    /// function list, each value by [`chi`] and, where it is non-zero, each
    /// gradient by [`chi_grad`].
    fn oracle_table(s: &System, batch: &Batch) -> GradientTable {
        let radius = batch
            .points
            .iter()
            .map(|p| dist3(p.position, batch.center))
            .fold(0.0, f64::max);
        let fn_indices = s.basis.functions_near(batch.center, radius);
        let nf = fn_indices.len();
        let mut values = vec![0.0; batch.points.len() * nf];
        let mut gradients = vec![0.0; values.len() * 3];
        for (pi, pt) in batch.points.iter().enumerate() {
            for (ki, &fi) in fn_indices.iter().enumerate() {
                let f = &s.basis.functions[fi];
                let v = chi(f, pt.position);
                values[pi * nf + ki] = v;
                if v != 0.0 {
                    let base = (pi * nf + ki) * 3;
                    gradients[base..base + 3].copy_from_slice(&chi_grad(f, pt.position));
                }
            }
        }
        GradientTable {
            table: BatchBasisTable { fn_indices, values },
            gradients,
        }
    }

    /// `got` and the gradients its kinetic pass builds have the bits of
    /// the oracle's table of `batch`.
    fn assert_same_table(
        s: &System,
        batch: &Batch,
        got: &BatchBasisTable,
        oracle: &GradientTable,
        tag: &str,
    ) {
        let want = &oracle.table;
        assert_eq!(got.fn_indices, want.fn_indices, "{tag}: function list");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let nf = want.fn_indices.len().max(1);
        let (gv, wv) = (bits(&got.values), bits(&want.values));
        assert_eq!(gv.len(), wv.len(), "{tag}: table size");
        for (i, (g, w)) in gv.iter().zip(&wv).enumerate() {
            assert_eq!(
                g,
                w,
                "{tag}: value at point {}, function {}",
                i / nf,
                i % nf
            );
        }
        let (gg, wg) = (
            bits(&s.basis_gradients(batch, got)),
            bits(&oracle.gradients),
        );
        assert_eq!(gg.len(), wg.len(), "{tag}: gradient table size");
        for (i, (g, w)) in gg.iter().zip(&wg).enumerate() {
            let (p, k) = (i / 3 / nf, i / 3 % nf);
            assert_eq!(g, w, "{tag}: gradient {} at point {p}, function {k}", i % 3);
        }
    }

    /// Points at and within a few gradient steps of every nucleus, where
    /// the radius clamp and the zero direction act.
    fn nuclear_batch(structure: &qp_chem::Structure) -> Batch {
        let offsets = [
            [0.0, 0.0, 0.0],
            [GRADIENT_STEP, 0.0, 0.0],
            [0.0, -GRADIENT_STEP, 0.0],
            [3e-6, -2e-6, 1e-6],
            [0.0, 0.0, 7e-6],
            [2e-5, 1e-5, 0.0],
            [0.0, 4e-5, -1e-6],
        ];
        let points: Vec<BatchPoint> = structure
            .atoms
            .iter()
            .enumerate()
            .flat_map(|(ia, atom)| {
                offsets.iter().map(move |o| BatchPoint {
                    position: std::array::from_fn(|d| atom.position[d] + o[d]),
                    atom: ia as u32,
                    grid_index: u32::MAX,
                })
            })
            .collect();
        let n = points.len() as f64;
        let center = std::array::from_fn(|d| points.iter().map(|p| p.position[d]).sum::<f64>() / n);
        Batch {
            id: 0,
            points,
            center,
        }
    }

    #[test]
    fn tabulated_values_match_direct_evaluation() {
        // Every value of every batch table, and every gradient the kinetic
        // pass builds from it, has the bits of the per-function oracle:
        // the served water (the light grid at 24
        // shells of 26 points), polymer:2, ligand-49 and tier2 water (the
        // d shells) on the coarse grid, at 1 and 8 threads with screening
        // on and off, and a batch of points at the nuclei.
        let mut served = GridSettings::light();
        served.n_radial = 24;
        served.max_angular = 26;
        let coarse = GridSettings::coarse();
        let cases = [
            ("served water", water(), BasisSettings::Light, &served),
            ("polymer:2", polyethylene(2), BasisSettings::Light, &coarse),
            ("ligand-49", ligand49(), BasisSettings::Light, &coarse),
            ("tier2 water", water(), BasisSettings::Tier2, &coarse),
        ];
        for (name, structure, basis, grid) in cases {
            let mut want: Option<Vec<GradientTable>> = None;
            for mode in [ScreeningMode::On, ScreeningMode::Off] {
                for threads in [1, 8] {
                    let _lease = qp_par::ThreadLease::exactly(threads);
                    let s =
                        System::for_job(structure.clone(), basis, grid, mode, FarFieldMode::Auto);
                    let want = want.get_or_insert_with(|| {
                        s.batches.iter().map(|b| oracle_table(&s, b)).collect()
                    });
                    s.warm_tables();
                    for (b, w) in s.batches.iter().zip(want.iter()) {
                        let tag = format!("{name}, {mode:?}, {threads} threads, batch {}", b.id);
                        assert_same_table(&s, b, &s.table(b.id), w, &tag);
                    }
                    let near = nuclear_batch(&s.structure);
                    let tag = format!("{name}, {mode:?}, {threads} threads, nuclear batch");
                    let (got, want) = (s.tabulate_batch(&near), oracle_table(&s, &near));
                    assert_same_table(&s, &near, &got, &want, &tag);
                }
            }
        }
    }

    #[test]
    fn kinetic_from_per_pass_gradients_matches_the_table_gradient_form() {
        // The kinetic matrix of the value-only tables, whose pass builds
        // each batch's gradients and drops them, has the bits of the one
        // assembled from tables that hold the oracle's gradients: the
        // served water, polymer:2 and ligand-49, at 1 and 8 threads.
        use crate::operators::{kinetic, kinetic_block, merge};
        let mut served = GridSettings::light();
        served.n_radial = 24;
        served.max_angular = 26;
        let coarse = GridSettings::coarse();
        let cases = [
            ("served water", water(), &served),
            ("polymer:2", polyethylene(2), &coarse),
            ("ligand-49", ligand49(), &coarse),
        ];
        for (name, structure, grid) in cases {
            let (screen, far) = (ScreeningMode::Auto, FarFieldMode::Auto);
            let s = System::for_job(structure, BasisSettings::Light, grid, screen, far);
            let partials: Vec<(Arc<BatchBasisTable>, DMatrix)> = s
                .batches
                .iter()
                .map(|b| {
                    let GradientTable { table, gradients } = oracle_table(&s, b);
                    let block = kinetic_block(&s, b, table.fn_indices.len(), &gradients);
                    (Arc::new(table), block)
                })
                .collect();
            let want = merge(&s, &partials);
            for threads in [1, 8] {
                let _lease = qp_par::ThreadLease::exactly(threads);
                let got = kinetic(&s);
                let same = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(
                    same,
                    "{name}, {threads} threads: kinetic matrix bits differ"
                );
            }
        }
    }

    #[test]
    fn occupied_count_closed_shell() {
        let s = small_system();
        assert_eq!(s.n_electrons(), 10);
        assert_eq!(s.n_occupied(), 5);
    }

    #[test]
    fn density_from_identity_matrix_is_sum_of_squares() {
        let s = small_system();
        let p = DMatrix::identity(s.n_basis());
        let n = s.density_on_grid(&p);
        // At each point, n = Σ_μ χ_μ² >= 0.
        assert!(n.iter().all(|&v| v >= -1e-14));
        // Integrates to the number of basis functions (each normalized).
        let total = s.grid.integrate_values(&n);
        assert!(
            (total - s.n_basis() as f64).abs() < 0.15,
            "∫Σχ² = {total} vs {}",
            s.n_basis()
        );
    }
}
