//! The distributed DFPT driver: the full Fig. 1 cycle over `qp-mpi` ranks.
//!
//! The parallel decomposition is FHI-aims': *grid work is distributed*
//! (batches mapped to ranks by either §3.1 strategy), *matrices are
//! replicated* and synthesized by collectives. Every rank runs the crate's
//! one self-consistency loop over its own batches: its share of Sumup, its
//! partial `rho_multipole` rows synthesized across ranks by
//! `synthesize_moments` (per-row AllReduce, packed §3.2.1, or packed +
//! hierarchical §3.2.2), a redundant radial Poisson solve ("trading
//! redundant calculations for communication avoidance", §4.2), the
//! potential at its own points, and its partial `H¹` AllReduced; the
//! Sternheimer update and the mixing are replicated.
//!
//! Deterministic rank-ordered reductions make every rank take identical
//! branches. Only the order of the additions in the two reductions differs
//! from the serial driver, which is the same loop on one rank.
//! [`parallel_dfpt_direction`] is the supervised driver of [`crate::resil`]
//! with checkpoints and restarts off.

use crate::dfpt::DfptOptions;
use crate::resil::{parallel_dfpt_direction_resilient, ResilienceConfig};
use crate::scf::ScfResult;
use crate::system::System;
use crate::Result;
use qp_chem::multipole::MultipoleMoments;
use qp_grid::mapping::{LoadBalancingMapping, LocalityEnhancingMapping, TaskMapping};
use qp_linalg::DMatrix;
use qp_mpi::packed::PackedAllReduce;
use qp_mpi::{Comm, CommError, ReduceOp, TrafficRecord};

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

/// The rank of every batch (identical on every rank).
pub(crate) fn assign_batches(system: &System, cfg: &ParallelConfig) -> Vec<usize> {
    match cfg.mapping {
        MappingKind::LoadBalancing => LoadBalancingMapping.assign(&system.batches, cfg.n_ranks),
        MappingKind::LocalityEnhancing => {
            LocalityEnhancingMapping.assign(&system.batches, cfg.n_ranks)
        }
    }
}

/// Sum every rank's partial `rho_multipole` rows across ranks, in place,
/// with `scheme` (on one rank, each scheme hands back the rank's own
/// rows).
pub(crate) fn synthesize_moments(
    comm: &Comm,
    scheme: CollectiveScheme,
    moments: &mut MultipoleMoments,
) -> std::result::Result<(), CommError> {
    let rows = &moments.moments;
    let natoms = rows.len();
    let reduced_rows: Vec<Vec<f64>> = match scheme {
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
    Ok(())
}

/// Run one DFPT direction distributed over `cfg.n_ranks` ranks: the
/// supervised driver without checkpoints, restarts or fault injection.
pub fn parallel_dfpt_direction(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
) -> Result<ParallelDirectionResult> {
    let rcfg = ResilienceConfig::default();
    parallel_dfpt_direction_resilient(system, ground, dir, opts, cfg, &rcfg).map(|r| r.direction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfpt::dfpt_direction;
    use crate::resil::{parallel_dfpt_direction_resilient, ResilienceConfig};
    use crate::scf::{scf, ScfOptions};
    use crate::{CoreError, FarFieldMode, ScreeningMode};
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
    /// far-side (point, atom) pairs take the Poisson tails, and the
    /// Sternheimer update takes the occupation-class contraction (58 basis
    /// functions, integer occupations).
    fn polymer_setup() -> (System, ScfResult) {
        let sys = System::build_with_modes(
            polyethylene(4),
            BasisSettings::Light,
            &GridSettings::coarse(),
            200,
            4,
            ScreeningMode::On,
            FarFieldMode::Auto,
        );
        assert!(sys.screen().is_some());
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        assert!(crate::dfpt::class_restricted(&ground.occupations));
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

    /// The water system with a Fermi–Dirac ground state.
    fn smeared_setup() -> (System, ScfResult) {
        let (sys, _) = setup();
        let smeared = ScfOptions {
            smearing: Some(0.02),
            ..ScfOptions::default()
        };
        let ground = scf(&sys, &smeared).unwrap();
        assert!(ground.occupations.iter().any(|&f| f != 0.0 && f != 2.0));
        (sys, ground)
    }

    /// Runs direction 2 of `ground` through the serial driver, one rank,
    /// and four ranks under both mappings with the plain and supervised
    /// drivers, and compares each against the serial `P¹`.
    fn assert_parallel_matches_serial(name: &str, sys: &System, ground: &ScfResult) {
        let opts = DfptOptions::default();
        let serial = dfpt_direction(sys, ground, 2, &opts).unwrap();

        // One rank is the serial driver, to the bit.
        let solo = ParallelConfig {
            n_ranks: 1,
            ranks_per_node: 1,
            ..cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed)
        };
        let one = parallel_dfpt_direction(sys, ground, 2, &opts, &solo).unwrap();
        assert_eq!(one.iterations, serial.iterations, "{name}: one rank");
        for (a, b) in one.p1.as_slice().iter().zip(serial.p1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: one rank");
        }

        // More ranks differ only in the order of the additions.
        for mapping in [MappingKind::LoadBalancing, MappingKind::LocalityEnhancing] {
            let c = cfg(mapping, CollectiveScheme::PerRow);
            let plain = parallel_dfpt_direction(sys, ground, 2, &opts, &c).unwrap();
            let rcfg = ResilienceConfig::with_interval(2);
            let supervised = parallel_dfpt_direction_resilient(sys, ground, 2, &opts, &c, &rcfg)
                .unwrap()
                .direction;
            for (driver, par) in [("plain", plain), ("supervised", supervised)] {
                let dev = par.p1.max_abs_diff(&serial.p1);
                assert!(
                    dev < 1e-10,
                    "{name} {mapping:?} {driver}: parallel deviates by {dev}"
                );
                assert_eq!(
                    par.iterations, serial.iterations,
                    "{name} {mapping:?} {driver}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_reference() {
        for (name, (sys, ground)) in [("water", setup()), ("polymer:4", polymer_setup())] {
            assert_parallel_matches_serial(name, &sys, &ground);
        }
    }

    /// A Fermi–Dirac ground state runs through the distributed drivers
    /// (plain and supervised) and matches the serial response.
    #[test]
    fn smeared_ground_state_runs_distributed_and_matches_serial() {
        let (sys, ground) = smeared_setup();
        assert_parallel_matches_serial("smeared water", &sys, &ground);
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
        // The SCF runs the same loop: its NaN iterate stops it with the same
        // error before the eigensolver reads it.
        let nan_scf = ScfOptions {
            mixing: f64::NAN,
            ..ScfOptions::default()
        };
        match scf(&sys, &nan_scf) {
            Err(CoreError::NonFinite {
                what: "ground-state SCF",
                iteration,
                ..
            }) => assert!(iteration <= 2, "stopped at iteration {iteration}"),
            other => panic!("expected the SCF's non-finite stop, got {other:?}"),
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
