//! The four OpenCL-accelerated DFPT phases (§4.1) expressed through the
//! `qp-cl` runtime, with the memory-access structure §3.1/Fig. 9(b)
//! compares made explicit:
//!
//! * **DM**    — `P¹` construction (dense matrix algebra)
//! * **Sumup** — `n¹(r)` real-space integration: 2 kernels in the artifact;
//!   here one launch per invocation over all batches, reading `P¹` either
//!   from the *small dense local* block (proposed mapping) or the *large
//!   sparse global* CSR (existing mapping), with exact access counting
//! * **Rho**   — response-potential solve: spline constructions counted
//!   globally (Fig. 9c), the `(p,m)` Adams–Moulton loop runnable nested or
//!   collapsed (§4.4)
//! * **H**     — `H¹` matrix elements, same dense/sparse dichotomy
//!
//! Each instrumented kernel is verified against the uninstrumented physics
//! path in the test suite — the counters change, the numbers must not.

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
/// one work-group per batch, one work-item per grid point (§4.1), with
/// access counting for the chosen matrix representation.
pub fn sumup_phase(
    queue: &CommandQueue,
    system: &System,
    p_dense: &DMatrix,
    mode: MatrixAccess,
) -> (Vec<f64>, LaunchReport) {
    let p_sparse = match mode {
        MatrixAccess::SparseGlobal => Some(CsrMatrix::from_dense(p_dense, 1e-14)),
        MatrixAccess::DenseLocal => None,
    };
    let (per_batch, report) =
        queue.launch_map(&format!("sumup[{mode:?}]"), system.batches.len(), |ctx| {
            let batch = &system.batches[ctx.group_id];
            let table = system.table(ctx.group_id);
            let nf = table.fn_indices.len();
            ctx.occupy_items(batch.points.len());
            let mut local = vec![0.0; batch.points.len()];
            for (pi, out) in local.iter_mut().enumerate() {
                let row = &table.values[pi * nf..(pi + 1) * nf];
                // χ values stream from off-chip once per point.
                ctx.counters.read_offchip(nf as u64);
                let mut acc = 0.0;
                for (a, &fa) in table.fn_indices.iter().enumerate() {
                    let va = row[a];
                    if va == 0.0 {
                        continue;
                    }
                    for (b, &fb) in table.fn_indices.iter().enumerate() {
                        let vb = row[b];
                        if vb == 0.0 {
                            continue;
                        }
                        let p_val = match (&p_sparse, mode) {
                            (Some(csr), MatrixAccess::SparseGlobal) => {
                                let (v, accesses) = csr.get_counted(fa, fb);
                                ctx.counters.read_offchip(accesses as u64);
                                v
                            }
                            _ => {
                                ctx.counters.read_offchip(1);
                                p_dense[(fa, fb)]
                            }
                        };
                        acc += p_val * va * vb;
                        ctx.counters.flop(3);
                    }
                }
                *out = acc;
                ctx.counters.write_offchip(1);
            }
            (ctx.group_id, local)
        });

    let mut n1 = vec![0.0; system.n_points()];
    for (bid, local) in per_batch {
        let batch = &system.batches[bid];
        for (pi, &v) in local.iter().enumerate() {
            n1[batch.points[pi].grid_index as usize] = v;
        }
    }
    (n1, report)
}

/// **H** phase: `H¹_μν += Σ_p w_p v¹(p) χ_μ(p) χ_ν(p)` over all batches,
/// with matrix-update access counting.
pub fn h_phase(
    queue: &CommandQueue,
    system: &System,
    v1: &[f64],
    mode: MatrixAccess,
) -> (DMatrix, LaunchReport) {
    assert_eq!(v1.len(), system.n_points());
    let nb = system.n_basis();
    let (blocks, report) =
        queue.launch_map(&format!("h1[{mode:?}]"), system.batches.len(), |ctx| {
            let batch = &system.batches[ctx.group_id];
            let table = system.table(ctx.group_id);
            let nf = table.fn_indices.len();
            ctx.occupy_items(batch.points.len());
            let mut block = DMatrix::zeros(nf, nf);
            for (pi, pt) in batch.points.iter().enumerate() {
                let gi = pt.grid_index as usize;
                let w = system.grid.points[gi].weight * v1[gi];
                ctx.counters.read_offchip(1 + nf as u64); // v1 + χ row
                if w == 0.0 {
                    continue;
                }
                let row = &table.values[pi * nf..(pi + 1) * nf];
                for a in 0..nf {
                    let va = row[a];
                    if va == 0.0 {
                        continue;
                    }
                    for b in a..nf {
                        block[(a, b)] += w * va * row[b];
                        ctx.counters.flop(3);
                        // Matrix-element update cost: 1 access dense, >= 3
                        // sparse (row walk) — the Fig. 9(b) H¹ effect.
                        match mode {
                            MatrixAccess::DenseLocal => ctx.counters.write_offchip(1),
                            MatrixAccess::SparseGlobal => ctx.counters.write_offchip(3),
                        }
                    }
                }
            }
            (ctx.group_id, block)
        });

    let mut h1 = DMatrix::zeros(nb, nb);
    for (bid, block) in blocks {
        let table = system.table(bid);
        for (a, &fa) in table.fn_indices.iter().enumerate() {
            for (b, &fb) in table.fn_indices.iter().enumerate().skip(a) {
                h1[(fa, fb)] += block[(a, b)];
            }
        }
    }
    for i in 0..nb {
        for j in (i + 1)..nb {
            h1[(j, i)] = h1[(i, j)];
        }
    }
    (h1, report)
}

/// **DM** phase: `P¹ = Σ_i 2 (C¹_i Cᵀ_i + C_i C¹ᵀ_i)` with flop/traffic
/// accounting (one work-group per occupied orbital).
pub fn dm_phase(
    queue: &CommandQueue,
    c: &DMatrix,
    c1: &DMatrix,
    n_occ: usize,
) -> (DMatrix, LaunchReport) {
    let nb = c.rows();
    let (partials, report) = queue.launch_map("dm", n_occ, |ctx| {
        let i = ctx.group_id;
        ctx.occupy_items(nb);
        ctx.counters.read_offchip(2 * nb as u64);
        let mut p = DMatrix::zeros(nb, nb);
        for mu in 0..nb {
            let c1_mu = c1[(mu, i)];
            let c_mu = c[(mu, i)];
            for nu in 0..nb {
                p[(mu, nu)] += 2.0 * (c1_mu * c[(nu, i)] + c_mu * c1[(nu, i)]);
                ctx.counters.flop(4);
            }
        }
        ctx.counters.write_offchip((nb * nb) as u64);
        p
    });
    let mut p1 = DMatrix::zeros(nb, nb);
    for p in partials {
        p1.axpy(1.0, &p).expect("same dims");
    }
    (p1, report)
}

/// **Rho** phase bookkeeping: solve the response Poisson problem while
/// counting cubic-spline constructions (Fig. 9c) and recording the
/// Adams–Moulton `(p,m)` loop occupancy in nested or collapsed form (§4.4).
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

/// Run the Rho phase. `collapsed` selects the §4.4 loop form.
pub fn rho_phase(
    queue: &CommandQueue,
    system: &System,
    n1: &[f64],
    collapsed: bool,
) -> RhoPhaseOutput {
    use qp_chem::multipole::{solve_poisson, MultipoleMoments};

    let moments = MultipoleMoments::compute(&system.structure, &system.grid, n1, system.lmax);

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

    let hartree = solve_poisson(&system.structure, &system.grid, &moments);
    let splines_constructed = hartree.splines_constructed;

    // Interpolation kernel: evaluate v1 at every grid point, batch-parallel.
    let natoms = system.structure.len();
    let (per_batch, report) = queue.launch_map("rho:interp", system.batches.len(), |ctx| {
        let batch = &system.batches[ctx.group_id];
        ctx.occupy_items(batch.points.len());
        let vals: Vec<f64> = batch
            .points
            .iter()
            .map(|pt| {
                // Each point interpolates natoms × n_lm splines.
                ctx.counters
                    .read_offchip((natoms * qp_chem::harmonics::num_harmonics(system.lmax)) as u64);
                ctx.counters
                    .flop((natoms * qp_chem::harmonics::num_harmonics(system.lmax) * 4) as u64);
                hartree.eval_atoms(pt.position, 0..natoms)
            })
            .collect();
        (ctx.group_id, vals)
    });

    let mut v1_es = vec![0.0; system.n_points()];
    for (bid, vals) in per_batch {
        let batch = &system.batches[bid];
        for (pi, &v) in vals.iter().enumerate() {
            v1_es[batch.points[pi].grid_index as usize] = v;
        }
    }
    RhoPhaseOutput {
        v1_es,
        splines_constructed,
        report,
        integrator_occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators;
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
        DMatrix::from_fn(nb, nb, |i, j| {
            let v = 0.1 * ((i * nb + j) as f64).sin();
            v + if i == j { 1.0 } else { 0.0 }
        })
    }

    #[test]
    fn sumup_dense_matches_uninstrumented_path() {
        let s = sys();
        let p = {
            let mut m = test_matrix(s.n_basis());
            m.symmetrize();
            m
        };
        let q = CommandQueue::new(gcn_gpu());
        let (n1, _) = sumup_phase(&q, &s, &p, MatrixAccess::DenseLocal);
        let reference = s.density_on_grid(&p);
        for (a, b) in n1.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sumup_sparse_and_dense_agree_numerically() {
        let s = sys();
        let mut p = test_matrix(s.n_basis());
        p.symmetrize();
        let q = CommandQueue::new(sw39010());
        let (dense, rd) = sumup_phase(&q, &s, &p, MatrixAccess::DenseLocal);
        let (sparse, rs) = sumup_phase(&q, &s, &p, MatrixAccess::SparseGlobal);
        for (a, b) in dense.iter().zip(sparse.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
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
        let q = CommandQueue::new(gcn_gpu());
        let (h1, _) = h_phase(&q, &s, &v1, MatrixAccess::DenseLocal);
        let reference = operators::potential_matrix(&s, &v1);
        assert!(h1.max_abs_diff(&reference) < 1e-12);
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
    fn dm_phase_matches_reference() {
        let s = sys();
        let nb = s.n_basis();
        let c = test_matrix(nb);
        let c1 = DMatrix::from_fn(nb, s.n_occupied(), |i, j| 0.01 * (i + j) as f64);
        let q = CommandQueue::new(gcn_gpu());
        let (p1, report) = dm_phase(&q, &c, &c1, s.n_occupied());
        let reference = crate::dfpt::response_density_matrix(&c, &c1, s.n_occupied());
        assert!(p1.max_abs_diff(&reference) < 1e-12);
        assert!(report.flops > 0);
    }

    #[test]
    fn rho_phase_counts_splines_and_occupancy() {
        let s = sys();
        let n1: Vec<f64> = s
            .grid
            .points
            .iter()
            .map(|p| p.position[2] * (-p.position.iter().map(|x| x * x).sum::<f64>()).exp())
            .collect();
        let q = CommandQueue::new(gcn_gpu());
        let nested = rho_phase(&q, &s, &n1, false);
        let collapsed = rho_phase(&q, &s, &n1, true);
        // Same physics.
        for (a, b) in nested.v1_es.iter().zip(collapsed.v1_es.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // Spline count: natoms x (lmax+1)^2 channels per solve.
        let expected = (s.structure.len() * qp_chem::harmonics::num_harmonics(s.lmax)) as u64;
        assert_eq!(nested.splines_constructed, expected);
        // Collapsed form fills lanes better (§4.4).
        assert!(collapsed.integrator_occupancy > nested.integrator_occupancy);
    }
}
