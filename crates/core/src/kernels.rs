//! The four OpenCL-accelerated DFPT phases (§4.1) launched through the
//! `qp-cl` runtime as counting wrappers over the production kernels, with
//! the memory-access structure §3.1/Fig. 9(b) compares made explicit:
//!
//! * **DM**    — `P¹` construction: the Eq. 7 counter model, one
//!   work-group per occupied orbital
//! * **Sumup** — `n¹(r)`: one work-group per batch runs
//!   [`System::batch_density`], while the count charges `P¹` reads from
//!   either the *small dense local* block (proposed mapping) or the *large
//!   sparse global* CSR (existing mapping)
//! * **Rho**   — response potential: [`System::multipole_moments`] and
//!   [`System::hartree_potential`], with spline constructions counted
//!   (Fig. 9c) and the `(p,m)` Adams–Moulton loop run nested or collapsed
//!   (§4.4)
//! * **H**     — `H¹`: one work-group per batch builds the production
//!   batch block of [`operators::potential_matrix`], merged by its merge;
//!   same dense/sparse dichotomy for the element updates
//!
//! Every value comes from the production kernel, so it is the production
//! value to the bit; a count-only pass over the same batch tables emits the
//! counters the figure harnesses read.

use crate::operators;
use crate::system::System;
use qp_cl::queue::CommandQueue;
use qp_cl::LaunchReport;
use qp_linalg::{CsrMatrix, DMatrix};

/// How a phase accesses the (response) density/Hamiltonian matrix — the
/// §3.1 dichotomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixAccess {
    /// Small dense local block (proposed locality-enhancing mapping):
    /// one memory access per element.
    DenseLocal,
    /// Large sparse global CSR (existing load-balancing mapping): ≥ 3
    /// accesses per element fetch.
    SparseGlobal,
}

/// **Sumup** phase: `n¹(p) = Σ_{μν} P¹_μν χ_μ(p) χ_ν(p)` over all batches,
/// one work-group per batch, one work-item per grid point (§4.1). Per point
/// the count charges the χ row, one `P¹` fetch (dense) or a CSR row walk
/// (sparse) and 3 flops per pair of non-zero χ, and one write.
pub fn sumup_phase(
    queue: &CommandQueue,
    system: &System,
    p_dense: &DMatrix,
    mode: MatrixAccess,
) -> (Vec<f64>, LaunchReport) {
    let p_sparse =
        (mode == MatrixAccess::SparseGlobal).then(|| CsrMatrix::from_dense(p_dense, 1e-14));
    let (per_batch, report) =
        queue.launch_map(&format!("sumup[{mode:?}]"), system.batches.len(), |ctx| {
            let table = system.table(ctx.group_id);
            let nf = table.fn_indices.len();
            let np = system.batches[ctx.group_id].points.len();
            ctx.occupy_items(np);
            let (mut reads, mut pairs) = (0, 0);
            for row in (0..np).map(|pi| &table.values[pi * nf..(pi + 1) * nf]) {
                let live: Vec<usize> = (table.fn_indices.iter().zip(row))
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(&f, _)| f)
                    .collect();
                pairs += (live.len() * live.len()) as u64;
                reads += nf as u64;
                reads += match &p_sparse {
                    Some(csr) => live
                        .iter()
                        .flat_map(|&fa| live.iter().map(move |&fb| (fa, fb)))
                        .map(|(fa, fb)| csr.get_counted(fa, fb).1 as u64)
                        .sum(),
                    None => (live.len() * live.len()) as u64,
                };
            }
            ctx.counters.read_offchip(reads);
            ctx.counters.flop(3 * pairs);
            ctx.counters.write_offchip(np as u64);
            system.batch_density(ctx.group_id, p_dense)
        });

    let mut n1 = vec![0.0; system.n_points()];
    for (batch, local) in system.batches.iter().zip(per_batch) {
        for (pt, v) in batch.points.iter().zip(local) {
            n1[pt.grid_index as usize] = v;
        }
    }
    (n1, report)
}

/// **H** phase: `H¹_μν = Σ_p w_p v¹(p) χ_μ(p) χ_ν(p)` over all batches. Per
/// point the count charges `v¹` and the χ row; per upper-triangle update
/// at a point with non-zero `w v¹` and `χ_a`, 3 flops and 1 (dense) or 3
/// (sparse row walk) writes — the Fig. 9(b) H¹ effect.
pub fn h_phase(
    queue: &CommandQueue,
    system: &System,
    v1: &[f64],
    mode: MatrixAccess,
) -> (DMatrix, LaunchReport) {
    assert_eq!(v1.len(), system.n_points());
    let writes_per_update = match mode {
        MatrixAccess::DenseLocal => 1,
        MatrixAccess::SparseGlobal => 3,
    };
    let (partials, report) =
        queue.launch_map(&format!("h1[{mode:?}]"), system.batches.len(), |ctx| {
            let batch = &system.batches[ctx.group_id];
            let table = system.table(ctx.group_id);
            let nf = table.fn_indices.len();
            ctx.occupy_items(batch.points.len());
            let mut updates = 0;
            for (pi, pt) in batch.points.iter().enumerate() {
                let gi = pt.grid_index as usize;
                if system.grid.points[gi].weight * v1[gi] == 0.0 {
                    continue;
                }
                let row = &table.values[pi * nf..(pi + 1) * nf];
                updates += (row.iter().enumerate())
                    .filter(|&(_, &va)| va != 0.0)
                    .map(|(a, _)| (nf - a) as u64)
                    .sum::<u64>();
            }
            ctx.counters
                .read_offchip(batch.points.len() as u64 * (1 + nf as u64));
            ctx.counters.flop(3 * updates);
            ctx.counters.write_offchip(writes_per_update * updates);
            let block = operators::weighted_block(system, batch, &table, &|gi| v1[gi]);
            (table, block)
        });
    (operators::merge(system, &partials), report)
}

/// **DM** phase: the Eq. 7 counter model of
/// `P¹ = Σ_i 2 (C¹_i Cᵀ_i + C_i C¹ᵀ_i)` for `n_basis` functions, one
/// work-group per occupied orbital: it reads the orbital's two columns and
/// writes its `nb × nb` contribution at 4 flops per element.
pub fn dm_phase(queue: &CommandQueue, n_basis: usize, n_occ: usize) -> LaunchReport {
    let nb = n_basis as u64;
    queue.launch("dm", n_occ, |ctx| {
        ctx.occupy_items(n_basis);
        ctx.counters.read_offchip(2 * nb);
        ctx.counters.flop(4 * nb * nb);
        ctx.counters.write_offchip(nb * nb);
    })
}

/// **Rho** phase output: the response potential, the cubic-spline
/// constructions (Fig. 9c), the interpolation launch and the Adams–Moulton
/// `(p,m)` loop occupancy in nested or collapsed form (§4.4).
pub struct RhoPhaseOutput {
    /// The response electrostatic potential at every grid point.
    pub v1_es: Vec<f64>,
    /// Spline constructions performed during this phase.
    pub splines_constructed: u64,
    /// Launch report (interpolation kernel).
    pub report: LaunchReport,
    /// Lane occupancy of the `(p,m)` integrator loop.
    pub integrator_occupancy: f64,
}

/// Run the Rho phase. `collapsed` selects the §4.4 loop form. The Poisson
/// solve builds one spline per atom and `(l, m)` channel; the interpolation
/// count charges every point one spline read and 4 flops per channel.
pub fn rho_phase(
    queue: &CommandQueue,
    system: &System,
    n1: &[f64],
    collapsed: bool,
) -> RhoPhaseOutput {
    let v1_es = system.hartree_potential(&system.multipole_moments(n1), None);

    // The (p,m) angular-momentum loop of the Adams-Moulton integrator runs
    // per atom; record its occupancy in the chosen form.
    let pm_counters = qp_cl::counters::KernelCounters::new();
    let wavefront = queue.device().lanes_per_cu;
    for _atom in 0..system.structure.len() {
        if collapsed {
            qp_cl::collapse::run_collapsed(system.lmax, wavefront, &pm_counters, |_, _, _| {});
        } else {
            qp_cl::collapse::run_nested(system.lmax, wavefront, &pm_counters, |_, _, _| {});
        }
    }
    let integrator_occupancy = pm_counters.report("pm", 1).occupancy();

    let channels = (system.structure.len() * qp_chem::harmonics::num_harmonics(system.lmax)) as u64;
    let report = queue.launch("rho:interp", system.batches.len(), |ctx| {
        let np = system.batches[ctx.group_id].points.len();
        ctx.occupy_items(np);
        ctx.counters.read_offchip(np as u64 * channels);
        ctx.counters.flop(np as u64 * channels * 4);
    });
    RhoPhaseOutput {
        v1_es,
        splines_constructed: channels,
        report,
        integrator_occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;
    use qp_cl::device::{gcn_gpu, sw39010};

    fn sys() -> System {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        System::build(water(), BasisSettings::Light, &gs, 150, 2)
    }

    fn test_matrix(nb: usize) -> DMatrix {
        let mut m = DMatrix::from_fn(nb, nb, |i, j| {
            let v = 0.1 * ((i * nb + j) as f64).sin();
            v + if i == j { 1.0 } else { 0.0 }
        });
        m.symmetrize();
        m
    }

    fn test_density(s: &System) -> Vec<f64> {
        s.grid
            .points
            .iter()
            .map(|p| p.position[2] * (-p.position.iter().map(|x| x * x).sum::<f64>()).exp())
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    /// `(flops, off-chip reads, off-chip writes)`.
    fn counts(r: &LaunchReport) -> (u64, u64, u64) {
        (r.flops, r.offchip_reads, r.offchip_writes)
    }

    #[test]
    fn sumup_dense_matches_uninstrumented_path() {
        let s = sys();
        let p = test_matrix(s.n_basis());
        let q = CommandQueue::new(gcn_gpu());
        let (n1, _) = sumup_phase(&q, &s, &p, MatrixAccess::DenseLocal);
        assert_bits_eq(&n1, &s.density_on_grid(&p));
    }

    #[test]
    fn sumup_sparse_and_dense_agree_numerically() {
        let s = sys();
        let p = test_matrix(s.n_basis());
        let q = CommandQueue::new(sw39010());
        let (dense, rd) = sumup_phase(&q, &s, &p, MatrixAccess::DenseLocal);
        let (sparse, rs) = sumup_phase(&q, &s, &p, MatrixAccess::SparseGlobal);
        assert_bits_eq(&sparse, &dense);
        // But the sparse path costs strictly more memory accesses — the
        // Fig. 9(b) effect.
        assert!(
            rs.offchip_reads > rd.offchip_reads,
            "sparse {} vs dense {}",
            rs.offchip_reads,
            rd.offchip_reads
        );
    }

    #[test]
    fn h_phase_matches_operator_assembly() {
        let s = sys();
        let v1: Vec<f64> = (0..s.n_points()).map(|i| (i as f64 * 0.01).cos()).collect();
        let reference = operators::potential_matrix(&s, &v1);
        let q = CommandQueue::new(gcn_gpu());
        for mode in [MatrixAccess::DenseLocal, MatrixAccess::SparseGlobal] {
            let (h1, _) = h_phase(&q, &s, &v1, mode);
            assert_bits_eq(h1.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn h_phase_sparse_writes_cost_more() {
        let s = sys();
        let v1 = vec![1.0; s.n_points()];
        let q = CommandQueue::new(sw39010());
        let (_, rd) = h_phase(&q, &s, &v1, MatrixAccess::DenseLocal);
        let (_, rs) = h_phase(&q, &s, &v1, MatrixAccess::SparseGlobal);
        assert_eq!(rs.offchip_writes, 3 * rd.offchip_writes);
    }

    #[test]
    fn rho_phase_counts_splines_and_occupancy() {
        let s = sys();
        let n1 = test_density(&s);
        let reference = s.hartree_potential(&s.multipole_moments(&n1), None);
        let q = CommandQueue::new(gcn_gpu());
        let nested = rho_phase(&q, &s, &n1, false);
        let collapsed = rho_phase(&q, &s, &n1, true);
        assert_bits_eq(&nested.v1_es, &reference);
        assert_bits_eq(&collapsed.v1_es, &reference);
        // Spline count: natoms x (lmax+1)^2 channels per solve.
        let expected = (s.structure.len() * qp_chem::harmonics::num_harmonics(s.lmax)) as u64;
        assert_eq!(nested.splines_constructed, expected);
        // Collapsed form fills lanes better (§4.4).
        assert!(collapsed.integrator_occupancy > nested.integrator_occupancy);
    }

    #[test]
    fn figure_counters_are_pinned_on_water() {
        // The counters the Fig. 9–16 harnesses read, on the test water
        // system (7 basis functions, 5 occupied, 1 872 points, 16 batches).
        let s = sys();
        let q = CommandQueue::new(gcn_gpu());
        let p = test_matrix(s.n_basis());
        let v1: Vec<f64> = (0..s.n_points()).map(|i| (i as f64 * 0.01).cos()).collect();
        let sumup = |mode| counts(&sumup_phase(&q, &s, &p, mode).1);
        let h = |mode| counts(&h_phase(&q, &s, &v1, mode).1);
        assert_eq!(sumup(MatrixAccess::DenseLocal), (235_017, 91_443, 1_872));
        assert_eq!(sumup(MatrixAccess::SparseGlobal), (235_017, 442_557, 1_872));
        assert_eq!(h(MatrixAccess::DenseLocal), (142_566, 14_976, 47_522));
        assert_eq!(h(MatrixAccess::SparseGlobal), (142_566, 14_976, 142_566));
        assert_eq!(
            counts(&dm_phase(&q, s.n_basis(), s.n_occupied())),
            (980, 70, 245)
        );
        let n1 = test_density(&s);
        for collapsed in [false, true] {
            let rho = rho_phase(&q, &s, &n1, collapsed);
            assert_eq!(counts(&rho.report), (202_176, 50_544, 0));
            assert_eq!(rho.splines_constructed, 27);
        }
    }
}
