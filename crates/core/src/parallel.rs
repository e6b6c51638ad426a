//! The distributed DFPT driver: the full Fig. 1 cycle over `qp-mpi` ranks.
//!
//! The parallel decomposition is FHI-aims': *grid work is distributed*
//! (batches mapped to ranks by either §3.1 strategy), *matrices are
//! replicated* and synthesized by collectives. Per DFPT iteration each rank
//!
//! 1. computes `n¹` on its own batches (Sumup),
//! 2. accumulates its partial `rho_multipole` rows and synthesizes them
//!    across ranks — per-row AllReduce (baseline), packed (§3.2.1), or
//!    packed + hierarchical (§3.2.2),
//! 3. redundantly solves the radial Poisson problem ("trading redundant
//!    calculations for communication avoidance", §4.2) and evaluates the
//!    potential at its own points with the production Hartree evaluator
//!    ([`System::hartree_potential`]: planned, direct or far-field tree),
//! 4. assembles its partial `H¹` with the production per-batch kernel and
//!    merge restricted to its batches
//!    ([`operators::potential_matrix_on`]) and AllReduces it,
//! 5. performs the (replicated) Sternheimer update.
//!
//! Deterministic rank-ordered reductions make every rank take identical
//! branches, so no extra control-flow synchronization is needed.

use crate::dfpt::{response_density_matrix, DfptOptions};
use crate::mixing::{DfptMixer, MixState};
use crate::operators;
use crate::scf::ScfResult;
use crate::system::System;
use crate::{CoreError, Result};
use qp_chem::xc;
use qp_grid::mapping::{LoadBalancingMapping, LocalityEnhancingMapping, TaskMapping};
use qp_linalg::DMatrix;
use qp_mpi::packed::PackedAllReduce;
use qp_mpi::{run_spmd, CommError, ReduceOp, TrafficRecord};

/// Which §3.1 task mapping distributes the batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Baseline least-loaded assignment.
    LoadBalancing,
    /// Algorithm 1 recursive bisection.
    LocalityEnhancing,
}

/// How `rho_multipole` is synthesized across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveScheme {
    /// One AllReduce per atom row (the Fig. 10 baseline).
    PerRow,
    /// Rows packed into ≤ 30 MB batches (§3.2.1).
    Packed,
    /// Packed rows synthesized hierarchically (§3.2.2).
    PackedHierarchical,
}

/// Parallel-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// MPI ranks.
    pub n_ranks: usize,
    /// Ranks per shared-memory node.
    pub ranks_per_node: usize,
    /// Task mapping.
    pub mapping: MappingKind,
    /// Collective scheme for `rho_multipole`.
    pub collectives: CollectiveScheme,
}

/// Result of a distributed DFPT direction.
#[derive(Debug)]
pub struct ParallelDirectionResult {
    /// Converged response density matrix.
    pub p1: DMatrix,
    /// Iterations used.
    pub iterations: usize,
    /// All collective-traffic records of the run.
    pub traffic: Vec<TrafficRecord>,
    /// Grid points per rank (mapping diagnostics).
    pub points_per_rank: Vec<usize>,
}

/// Compute this rank's batch assignment (identical on every rank).
pub(crate) fn assign_batches(system: &System, cfg: &ParallelConfig) -> Vec<usize> {
    match cfg.mapping {
        MappingKind::LoadBalancing => LoadBalancingMapping.assign(&system.batches, cfg.n_ranks),
        MappingKind::LocalityEnhancing => {
            LocalityEnhancingMapping.assign(&system.batches, cfg.n_ranks)
        }
    }
}

/// Per-direction precomputation plus the full Fig. 1 iteration body,
/// shared by the plain driver below and the supervised resilient driver in
/// [`crate::resil`].
pub(crate) struct DirWork<'a> {
    system: &'a System,
    ground: &'a ScfResult,
    collectives: CollectiveScheme,
    mixing: f64,
    mixer: DfptMixer,
    max_iter: usize,
    tol: f64,
    dir: usize,
    dip: DMatrix,
    fxc: Vec<f64>,
    /// `Cᵀ` — the MO transform's left factor, built once per direction.
    c_t: DMatrix,
    /// The virtual-orbital columns `C_virt` (`nb × (nb − n_occ)`), the left
    /// factor of the GEMM-form Sternheimer update.
    c_virt: DMatrix,
    nb: usize,
    n_occ: usize,
}

/// The loop-carried state of one rank's DFPT direction: the mixed `C¹`,
/// its `P¹`, and the mixer history. Identical on every rank at each
/// iteration boundary (deterministic collectives), which is what makes
/// rank 0's checkpoint of it a consistent global cut.
pub(crate) struct DirState {
    pub(crate) c1: DMatrix,
    pub(crate) p1: DMatrix,
    pub(crate) mixer: MixState,
}

/// How one rank's DFPT loop ended.
enum Ending {
    Converged,
    NonFinite,
    MaxIter,
}

/// What one rank's DFPT loop hands out of the SPMD region.
pub(crate) struct RankOutcome {
    ending: Ending,
    iterations: usize,
    /// The last residual computed (`∞` when no iteration ran).
    residual: f64,
    p1: DMatrix,
    /// Rank 0's traffic log (empty on the other ranks).
    traffic: Vec<TrafficRecord>,
    /// Grid points the rank owns.
    points: usize,
}

impl<'a> DirWork<'a> {
    /// Precompute one direction's data. The Sternheimer update takes the
    /// occupied manifold as the first `n_occupied()` orbitals at occupation
    /// 2, so a ground state with any other occupations is refused here,
    /// before the first iteration.
    pub(crate) fn new(
        system: &'a System,
        ground: &'a ScfResult,
        dir: usize,
        opts: &DfptOptions,
        cfg: &ParallelConfig,
    ) -> Result<Self> {
        let nb = system.n_basis();
        let n_occ = system.n_occupied();
        let aufbau = |(i, &f): (usize, &f64)| f == if i < n_occ { 2.0 } else { 0.0 };
        if !ground.occupations.iter().enumerate().all(aufbau) {
            return Err(CoreError::FractionalOccupations);
        }
        let c = &ground.orbitals;
        Ok(DirWork {
            system,
            ground,
            collectives: cfg.collectives,
            mixing: opts.mixing,
            mixer: opts.mixer,
            max_iter: opts.max_iter,
            tol: opts.tol,
            dir,
            dip: operators::dipole_matrix(system, dir),
            fxc: ground
                .density
                .iter()
                .map(|&n| xc::f_xc(n.max(0.0)))
                .collect(),
            c_t: c.transpose(),
            c_virt: DMatrix::from_fn(nb, nb - n_occ, |mu, a| c[(mu, n_occ + a)]),
            nb,
            n_occ,
        })
    }

    /// Fresh loop state (zero `C¹`/`P¹`, empty mixer history).
    pub(crate) fn initial_state(&self) -> DirState {
        DirState {
            c1: DMatrix::zeros(self.nb, self.n_occ),
            p1: DMatrix::zeros(self.nb, self.nb),
            mixer: MixState::new(self.mixer, self.mixing),
        }
    }

    /// Loop state restored from a checkpoint (`C¹`, `P¹` and the DIIS
    /// history as captured; the histories are empty for the linear mixer).
    pub(crate) fn state_from(
        &self,
        c1: DMatrix,
        p1: DMatrix,
        diis_in: Vec<DMatrix>,
        diis_res: Vec<DMatrix>,
    ) -> DirState {
        DirState {
            c1,
            p1,
            mixer: MixState::with_history(self.mixer, self.mixing, diis_in, diis_res),
        }
    }

    /// One rank's DFPT loop: iterations `start_iter + 1 ..= max_iter` from
    /// `state` on the batches `assignment` maps to this rank, stopping at
    /// convergence or at the first non-finite residual. Each iteration is
    /// a fault-injection point; `checkpoint` sees the state after every
    /// other iteration.
    pub(crate) fn run_rank(
        &self,
        comm: &qp_mpi::Comm,
        assignment: &[usize],
        mut state: DirState,
        start_iter: usize,
        mut checkpoint: impl FnMut(usize, &DirState, f64) -> std::result::Result<(), CommError>,
    ) -> std::result::Result<RankOutcome, CommError> {
        let rank = comm.rank();
        let my_batches: Vec<usize> = (0..assignment.len())
            .filter(|&b| assignment[b] == rank)
            .collect();
        let mut ending = Ending::MaxIter;
        let mut iterations = start_iter;
        let mut residual = f64::INFINITY;
        for iter in (start_iter + 1)..=self.max_iter {
            // A planned crash or stall at iteration `iter` fires here,
            // before the iteration's collectives.
            comm.fault_point("dfpt.iter", iter as u64)?;
            iterations = iter;
            residual = self.iteration(comm, &my_batches, iter, &mut state)?;
            if residual < self.tol {
                ending = Ending::Converged;
                break;
            }
            if !residual.is_finite() {
                ending = Ending::NonFinite;
                break;
            }
            checkpoint(iter, &state, residual)?;
        }
        Ok(RankOutcome {
            ending,
            iterations,
            residual,
            p1: state.p1,
            traffic: if rank == 0 {
                comm.traffic().snapshot()
            } else {
                Vec::new()
            },
            points: my_batches
                .iter()
                .map(|&b| self.system.batches[b].len())
                .sum(),
        })
    }

    /// One distributed DFPT iteration: Sumup → rho synthesis → Poisson →
    /// `H¹` AllReduce → Sternheimer. Advances `state` in place and returns
    /// the residual `‖ΔP¹‖`.
    fn iteration(
        &self,
        comm: &qp_mpi::Comm,
        my_batches: &[usize],
        iter: usize,
        state: &mut DirState,
    ) -> std::result::Result<f64, CommError> {
        let system = self.system;
        let (nb, n_occ) = (self.nb, self.n_occ);
        let c = &self.ground.orbitals;
        let eps = &self.ground.eigenvalues;
        let rank = comm.rank();
        let mut iter_span = qp_trace::SpanGuard::begin(rank, qp_trace::Phase::Dfpt, "dfpt.iter");
        if iter_span.is_recording() {
            iter_span.arg("iter", iter).arg("dir", self.dir);
        }
        // ---- Sumup on own batches (GEMM form, see `System::batch_density`) ----
        // The rank's share of n¹ on the full grid: zero off its own points.
        let sumup_span = crate::phase_span(qp_trace::Phase::Sumup, "sumup.local_n1");
        let mut n1 = vec![0.0; system.n_points()];
        let mut own_points = Vec::new();
        for &b in my_batches {
            let local = system.batch_density(b, &state.p1);
            for (pt, v) in system.batches[b].points.iter().zip(local) {
                n1[pt.grid_index as usize] = v;
                own_points.push(pt.grid_index as usize);
            }
        }
        drop(sumup_span);

        // ---- Partial rho_multipole rows: the moments of the rank's share ----
        let rho_span = crate::phase_span(qp_trace::Phase::Rho, "rho.partial_rows");
        let mut moments = system.multipole_moments(&n1);
        drop(rho_span);

        // ---- Synthesize rho_multipole across ranks ----
        let synth_span = crate::phase_span(qp_trace::Phase::Rho, "rho.synthesize");
        let rows = &moments.moments;
        let natoms = rows.len();
        let reduced_rows: Vec<Vec<f64>> = match self.collectives {
            CollectiveScheme::PerRow => {
                let mut out = Vec::with_capacity(natoms);
                for row in rows.iter() {
                    out.push(comm.allreduce(ReduceOp::Sum, row)?);
                }
                out
            }
            CollectiveScheme::Packed => {
                let mut packer = PackedAllReduce::new(comm, ReduceOp::Sum);
                for (ia, row) in rows.iter().enumerate() {
                    packer.push(&format!("rho_multipole:{ia}"), row.clone())?;
                }
                packer.flush()?;
                (0..natoms)
                    .map(|ia| {
                        packer
                            .take(&format!("rho_multipole:{ia}"))
                            .ok_or(CommError::Mismatch("missing packed row"))
                    })
                    .collect::<std::result::Result<_, _>>()?
            }
            CollectiveScheme::PackedHierarchical => {
                let row_len = rows.first().map_or(0, Vec::len);
                let packed: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
                let reduced = qp_mpi::hierarchical::hierarchical_allreduce(
                    comm,
                    "rho_multipole",
                    ReduceOp::Sum,
                    &packed,
                )?;
                reduced.chunks(row_len).map(|c| c.to_vec()).collect()
            }
        };
        moments.moments = reduced_rows;
        drop(synth_span);

        // ---- Redundant Poisson solve on every rank, v¹ at own points ----
        // Every rank solves (and, in tree mode, aggregates) from the same
        // synthesized moments, so the replicated potential stays
        // rank-independent.
        let v1_span = crate::phase_span(qp_trace::Phase::Rho, "rho.v1");
        let mut v1 = system.hartree_potential(&moments, Some(&own_points));
        for &gi in &own_points {
            v1[gi] += self.fxc[gi] * n1[gi];
        }
        drop(v1_span);

        // ---- Partial H1 from own batches ----
        let h_span = crate::phase_span(qp_trace::Phase::H, "h1.partial");
        let h1_partial = operators::potential_matrix_on(system, &v1, my_batches);
        let h1_flat = comm.allreduce(ReduceOp::Sum, h1_partial.as_slice())?;
        let mut h1 = DMatrix::from_vec(nb, nb, h1_flat).expect("nb x nb");
        h1.axpy(-1.0, &self.dip).expect("same dims");
        drop(h_span);

        // ---- Replicated Sternheimer update (GEMM form) ----
        // C¹_i = Σ_a C_a H¹(MO)_ai/(ε_i − ε_a) is the Level-3 product
        // C_virt · U with U_ai = H¹(MO)_{n_occ+a,i}/(ε_i − ε_{n_occ+a}).
        let stern_span = crate::phase_span(qp_trace::Phase::Sternheimer, "sternheimer");
        let h1_mo = self
            .c_t
            .par_matmul(&h1)
            .and_then(|m| m.par_matmul(c))
            .expect("nb-square chain");
        let u = DMatrix::from_fn(nb - n_occ, n_occ, |a, i| {
            h1_mo[(n_occ + a, i)] / (eps[i] - eps[n_occ + a])
        });
        let c1_new = self.c_virt.par_matmul(&u).expect("conforming dims");
        let mixed = state.mixer.step(&state.c1, &c1_new);
        drop(stern_span);
        let dm_span = crate::phase_span(qp_trace::Phase::Dm, "dm.p1");
        let p1_new = response_density_matrix(c, &mixed, n_occ);
        let residual = p1_new.max_abs_diff(&state.p1);
        drop(dm_span);
        if iter_span.is_recording() {
            iter_span.arg("residual", residual);
        }
        state.c1 = mixed;
        state.p1 = p1_new;
        Ok(residual)
    }
}

/// Rank 0's outcome as the direction's result: the typed error when the
/// loop went non-finite or ran out of iterations (with the last residual).
pub(crate) fn direction_result(outcomes: Vec<RankOutcome>) -> Result<ParallelDirectionResult> {
    const WHAT: &str = "parallel DFPT self-consistency";
    let points_per_rank = outcomes.iter().map(|o| o.points).collect();
    let first = outcomes.into_iter().next().expect("at least one rank");
    match first.ending {
        Ending::Converged => Ok(ParallelDirectionResult {
            p1: first.p1,
            iterations: first.iterations,
            traffic: first.traffic,
            points_per_rank,
        }),
        Ending::NonFinite => Err(CoreError::NonFinite {
            what: WHAT,
            iteration: first.iterations,
            residual: first.residual,
        }),
        Ending::MaxIter => Err(CoreError::NoConvergence {
            what: WHAT,
            iterations: first.iterations,
            residual: first.residual,
        }),
    }
}

/// Map a communication failure onto the core error type.
pub(crate) fn comm_failure(e: CommError) -> CoreError {
    CoreError::NoConvergence {
        what: match e {
            CommError::RankFailed => "parallel DFPT (rank failure)",
            CommError::Timeout => "parallel DFPT (communication timeout)",
            CommError::Mismatch(_) => "parallel DFPT (collective mismatch)",
        },
        iterations: 0,
        residual: f64::NAN,
    }
}

/// Run one DFPT direction distributed over `cfg.n_ranks` ranks.
pub fn parallel_dfpt_direction(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
) -> Result<ParallelDirectionResult> {
    let assignment = assign_batches(system, cfg);
    let work = DirWork::new(system, ground, dir, opts, cfg)?;
    let outcomes = run_spmd(cfg.n_ranks, cfg.ranks_per_node, |comm| {
        work.run_rank(comm, &assignment, work.initial_state(), 0, |_, _, _| Ok(()))
    })
    .map_err(comm_failure)?;
    direction_result(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfpt::dfpt_direction;
    use crate::resil::{parallel_dfpt_direction_resilient, ResilienceConfig};
    use crate::scf::{scf, ScfOptions};
    use crate::screening::ScreeningMode;
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::{polyethylene, water};
    use qp_mpi::CollectiveKind;

    fn setup() -> (System, ScfResult) {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let sys = System::build(water(), BasisSettings::Light, &gs, 120, 2);
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        (sys, ground)
    }

    /// polymer:4 on the coarse grid at the production expansion order,
    /// screening forced on (its 14 atoms are below the `Auto` threshold):
    /// far-side (point, atom) pairs take the Poisson tails, and `H¹`
    /// merges through the screened blocks.
    fn polymer_setup() -> (System, ScfResult) {
        let sys = System::build_with_screening(
            polyethylene(4),
            BasisSettings::Light,
            &GridSettings::coarse(),
            200,
            4,
            ScreeningMode::On,
        );
        assert!(sys.screen().is_some());
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        (sys, ground)
    }

    fn cfg(mapping: MappingKind, collectives: CollectiveScheme) -> ParallelConfig {
        ParallelConfig {
            n_ranks: 4,
            ranks_per_node: 2,
            mapping,
            collectives,
        }
    }

    #[test]
    fn parallel_matches_serial_reference() {
        for (name, (sys, ground)) in [("water", setup()), ("polymer:4", polymer_setup())] {
            let opts = DfptOptions::default();
            let serial = dfpt_direction(&sys, &ground, 2, &opts).unwrap();
            for mapping in [MappingKind::LoadBalancing, MappingKind::LocalityEnhancing] {
                let par = parallel_dfpt_direction(
                    &sys,
                    &ground,
                    2,
                    &opts,
                    &cfg(mapping, CollectiveScheme::PerRow),
                )
                .unwrap();
                assert!(
                    par.p1.max_abs_diff(&serial.p1) < 1e-6,
                    "{name} {mapping:?}: parallel deviates by {}",
                    par.p1.max_abs_diff(&serial.p1)
                );
            }
        }
    }

    #[test]
    fn smeared_ground_state_is_refused_before_the_first_iteration() {
        let (sys, _) = setup();
        let smeared = ScfOptions {
            smearing: Some(0.02),
            ..ScfOptions::default()
        };
        let ground = scf(&sys, &smeared).unwrap();
        assert!(ground.occupations.iter().any(|&f| f != 0.0 && f != 2.0));
        let opts = DfptOptions::default();
        let c = cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed);
        let plain = parallel_dfpt_direction(&sys, &ground, 0, &opts, &c).unwrap_err();
        let supervised = parallel_dfpt_direction_resilient(
            &sys,
            &ground,
            0,
            &opts,
            &c,
            &ResilienceConfig::with_interval(2),
        )
        .unwrap_err();
        for err in [plain, supervised] {
            assert!(matches!(err, CoreError::FractionalOccupations), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("--smearing") && msg.contains("--ranks"),
                "{msg}"
            );
        }
    }

    #[test]
    fn non_finite_residual_stops_both_drivers_with_a_typed_error() {
        let (sys, ground) = setup();
        let opts = DfptOptions {
            mixing: f64::NAN,
            ..DfptOptions::default()
        };
        let serial = dfpt_direction(&sys, &ground, 0, &opts).err();
        let c = cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed);
        let par = parallel_dfpt_direction(&sys, &ground, 0, &opts, &c).err();
        for err in [serial, par] {
            match err {
                Some(CoreError::NonFinite {
                    iteration,
                    residual,
                    ..
                }) => assert!(iteration == 1 && residual.is_nan()),
                other => panic!("expected a non-finite stop, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_collective_schemes_agree() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let reference = parallel_dfpt_direction(
            &sys,
            &ground,
            0,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::PerRow),
        )
        .unwrap();
        for scheme in [
            CollectiveScheme::Packed,
            CollectiveScheme::PackedHierarchical,
        ] {
            let out = parallel_dfpt_direction(
                &sys,
                &ground,
                0,
                &opts,
                &cfg(MappingKind::LocalityEnhancing, scheme),
            )
            .unwrap();
            assert!(
                out.p1.max_abs_diff(&reference.p1) < 1e-8,
                "{scheme:?} deviates by {}",
                out.p1.max_abs_diff(&reference.p1)
            );
        }
    }

    #[test]
    fn packing_reduces_collective_calls() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let per_row = parallel_dfpt_direction(
            &sys,
            &ground,
            1,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::PerRow),
        )
        .unwrap();
        let packed = parallel_dfpt_direction(
            &sys,
            &ground,
            1,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed),
        )
        .unwrap();
        let count =
            |t: &[TrafficRecord], k: CollectiveKind| t.iter().filter(|r| r.kind == k).count();
        // Baseline: natoms AllReduce per iteration for rho_multipole (plus
        // one for H1). Packed: 1 PackedAllReduce per iteration.
        let baseline_all = count(&per_row.traffic, CollectiveKind::AllReduce);
        let rho_packed = count(&packed.traffic, CollectiveKind::PackedAllReduce);
        let h1_packed = count(&packed.traffic, CollectiveKind::AllReduce);
        assert!(rho_packed > 0);
        // Baseline: (natoms + 1) AllReduce per iteration (3 rho_multipole
        // rows + 1 H¹); packed: 1 PackedAllReduce + 1 H¹ AllReduce. For the
        // 3-atom system the rho-row count drops exactly natoms -> 1.
        assert_eq!(h1_packed, rho_packed, "one H1 AllReduce per iteration");
        let rho_baseline_rows = baseline_all.saturating_sub(h1_packed);
        assert!(
            rho_baseline_rows >= 3 * rho_packed,
            "packing should absorb the {rho_baseline_rows} per-row calls into {rho_packed}"
        );
    }

    #[test]
    fn mapping_balances_points() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let out = parallel_dfpt_direction(
            &sys,
            &ground,
            0,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed),
        )
        .unwrap();
        let max = *out.points_per_rank.iter().max().unwrap() as f64;
        let min = *out.points_per_rank.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(max / min < 2.0, "{:?}", out.points_per_rank);
    }
}
