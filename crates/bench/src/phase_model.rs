//! The calibrated phase-time model behind Figs. 14–16.
//!
//! Per-atom work constants are *measured at runtime* from a real
//! instrumented DFPT mini-run (the 49-atom ligand, light basis), counted by
//! the `qp-core::kernels` wrappers over the production kernels; scaling
//! exponents come from the paper's own §5.3.2 ("for small systems the
//! response density matrix computation (O(N^1.2)) dominates …, for large
//! systems the computation of the response potential … O(N^1.7)"). The
//! counters are then charged to the `qp-machine` cost models.
//!
//! Baseline ("before optimization") phase times are derived from the same
//! measurements with the §3–§4 optimizations disabled: CSR matrix access
//! instead of dense (measured ratio), per-row AllReduce instead of packed,
//! redundant producers + host round trips instead of horizontal fusion,
//! nested instead of collapsed integrator loop (measured occupancies).

use crate::workloads;
use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_core::kernels::{dm_phase, h_phase, rho_phase, sumup_phase, MatrixAccess};
use qp_core::system::System;
use qp_linalg::DMatrix;
use qp_machine::kernel_cost::{kernel_time, KernelWork};
use qp_machine::{cost, MachineModel};
use std::sync::OnceLock;

/// Ligand atom count (the calibration reference `N₀`).
pub const N0: f64 = 49.0;

/// Paper §5.3.2 scaling exponents.
pub const DM_EXPONENT: f64 = 1.2;
pub const RHO_EXPONENT: f64 = 1.7;

/// Production-resolution factor: the calibration mini-run uses ~500 grid
/// points/atom and ~180 basis-pair partners, while FHI-aims light settings
/// run ~5 000–10 000 points/atom (×10–20) and ~1 500+ partners (×20–30 in
/// pair work). The factor was fixed once by a joint fit of three paper
/// anchors (HPC#1 strong-scaling efficiency at 40 000 procs, HPC#2-GPU
/// DM-phase share at 8 192 procs, HPC#2-GPU weak-scaling efficiency at
/// 200 012 atoms) and is never re-tuned per figure.
pub const PRODUCTION_RESOLUTION_FACTOR: f64 = 280.0;

/// Spline-channel factor: production `pmax = 9` has `(9+1)² = 100` `(l,m)`
/// channels vs. the calibration run's `(3+1)² = 16`.
pub const SPLINE_CHANNEL_FACTOR: f64 = 100.0 / 16.0;

/// Fraction of the response-potential work that is *long-range* (multipole
/// far-field sums, scaling O(N^1.7)) **at the reference size
/// [`RHO_FARFIELD_NREF`]**; the rest is local interpolation, scaling O(N).
/// §5.3.2: "for small systems the response density matrix computation
/// dominates …, for large systems the computation of the response potential
/// determines the value" — the far-field share must still be minor at
/// 30 002 atoms and grow towards dominance at 200 012.
pub const RHO_FARFIELD_FRACTION: f64 = 0.15;
/// Reference size at which the far-field share equals
/// [`RHO_FARFIELD_FRACTION`].
pub const RHO_FARFIELD_NREF: f64 = 30_002.0;

/// DM-phase communication: the distributed (block-cyclic) response-density
/// matrix build exchanges row/column panels SUMMA-style — aggregate volume
/// O(nb²/√P) words, with nb² sparse ∝ N, giving a per-rank volume of
/// `DM_COMM_BYTES · N / √P`. This one anchored constant reproduces the
/// paper's growing DM-communication share (22.5 % → 39.1 % from
/// 1 024 → 8 192 ranks at 60 002 atoms); it is global, never re-tuned.
pub const DM_COMM_BYTES: f64 = 1.0e5;

/// Slowdown of the *baseline* DM phase: the pre-optimization implementation
/// (ref [38] of the paper) ran the response-density-matrix contraction
/// without the §4 kernel restructuring, effectively at host/management-core
/// rates on the accelerated machines — the origin of the paper's reported
/// 36.5× DM speedup (RBD @ 64 tasks, HPC#1).
pub const DM_BASELINE_HOST_PENALTY: f64 = 30.0;

/// Atoms within multipole range of a rank's batches beyond its own share
/// (the halo): bounds the *localized* rho_multipole rows a rank needs under
/// the §3.1 locality mapping. Measured from qp-grid footprint analyses of
/// the polymer chains.
pub const HALO_ATOMS: f64 = 120.0;

/// Measured per-atom counters from the instrumented ligand run.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Sumup flops per atom.
    pub sumup_flops: f64,
    /// Sumup off-chip words per atom (dense access).
    pub sumup_words_dense: f64,
    /// Ratio of CSR to dense off-chip reads in Sumup (the Fig. 9b effect).
    pub csr_read_ratio: f64,
    /// H¹ flops per atom.
    pub h_flops: f64,
    /// H¹ off-chip words per atom (dense writes).
    pub h_words_dense: f64,
    /// Ratio of sparse to dense matrix-update writes in H¹.
    pub sparse_write_ratio: f64,
    /// DM flops per atom (at N₀; scaled by `(N/N₀)^1.2`).
    pub dm_flops: f64,
    /// Rho interpolation flops per atom (at N₀; scaled by `(N/N₀)^1.7`).
    pub rho_flops: f64,
    /// Rho off-chip words per atom (at N₀, same exponent).
    pub rho_words: f64,
    /// Spline constructions per atom per cycle.
    pub splines_per_atom: f64,
    /// Integrator lane occupancy, nested form.
    pub occ_nested: f64,
    /// Integrator lane occupancy, collapsed form.
    pub occ_collapsed: f64,
    /// Kernel launches per atom per cycle (unfused path).
    pub launches_per_atom: f64,
}

static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

/// Measure (once per process) the per-atom constants from a real ligand run.
pub fn calibration() -> &'static Calibration {
    CALIBRATION.get_or_init(|| {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let sys = System::build(
            workloads::ligand().structure,
            BasisSettings::Light,
            &gs,
            150,
            3,
        );
        let queue = qp_cl::CommandQueue::new(qp_cl::device::gcn_gpu());
        let nb = sys.n_basis();
        // A representative symmetric response-like matrix.
        let mut p = DMatrix::from_fn(nb, nb, |i, j| 0.05 * ((i + 2 * j) as f64 * 0.13).sin());
        p.symmetrize();

        let (_, sd) = sumup_phase(&queue, &sys, &p, MatrixAccess::DenseLocal);
        let (_, ss) = sumup_phase(&queue, &sys, &p, MatrixAccess::SparseGlobal);
        let v1: Vec<f64> = (0..sys.n_points())
            .map(|i| (i as f64 * 0.001).sin())
            .collect();
        let (_, hd) = h_phase(&queue, &sys, &v1, MatrixAccess::DenseLocal);
        let (_, hs) = h_phase(&queue, &sys, &v1, MatrixAccess::SparseGlobal);
        let dm = dm_phase(&queue, nb, sys.n_occupied());
        let n1: Vec<f64> = sys
            .grid
            .points
            .iter()
            .map(|p| p.position[0] * 1e-3)
            .collect();
        let rn = rho_phase(&queue, &sys, &n1, false);
        let rc = rho_phase(&queue, &sys, &n1, true);

        let na = sys.structure.len() as f64;
        let rf = PRODUCTION_RESOLUTION_FACTOR;
        Calibration {
            sumup_flops: rf * sd.flops as f64 / na,
            sumup_words_dense: rf * sd.offchip_words() as f64 / na,
            csr_read_ratio: ss.offchip_reads as f64 / sd.offchip_reads as f64,
            h_flops: rf * hd.flops as f64 / na,
            h_words_dense: rf * hd.offchip_words() as f64 / na,
            sparse_write_ratio: hs.offchip_writes as f64 / hd.offchip_writes as f64,
            dm_flops: rf * dm.flops as f64 / na,
            rho_flops: rf * rc.report.flops as f64 / na,
            rho_words: rf * rc.report.offchip_words() as f64 / na,
            splines_per_atom: SPLINE_CHANNEL_FACTOR * rc.splines_constructed as f64 / na,
            occ_nested: rn.integrator_occupancy,
            occ_collapsed: rc.integrator_occupancy,
            launches_per_atom: 4.0 / 49.0, // 4 kernels per cycle at N0
        }
    })
}

/// Per-phase simulated times of one DFPT cycle (Fig. 14/15b structure).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Response density matrix (DM).
    pub dm: f64,
    /// Real-space integration of `n¹` (Sumup).
    pub sumup: f64,
    /// Response potential (Rho).
    pub rho: f64,
    /// Response Hamiltonian (H).
    pub h: f64,
    /// Collective communication.
    pub comm: f64,
}

impl PhaseTimes {
    /// Total cycle time.
    pub fn total(&self) -> f64 {
        self.dm + self.sumup + self.rho + self.h + self.comm
    }
}

/// Model one DFPT cycle at `atoms` atoms on `ranks` ranks.
///
/// `optimized` toggles the full §3–§4 optimization set; `with_accel`
/// selects the accelerated (GPU / SW39010) rates vs. the CPU-only variant.
pub fn cycle_time(
    cal: &Calibration,
    machine: &MachineModel,
    atoms: usize,
    ranks: usize,
    optimized: bool,
) -> PhaseTimes {
    let n = atoms as f64;
    let p = ranks as f64;
    let scale_dm = (n / N0).powf(DM_EXPONENT) * N0;

    // --- DM ---
    let dm_penalty = if optimized {
        1.0
    } else {
        DM_BASELINE_HOST_PENALTY
    };
    let dm_work = KernelWork {
        launches: 1,
        offchip_words: (cal.dm_flops * scale_dm / 4.0 / p) as u64,
        onchip_words: 0,
        flops: (dm_penalty * cal.dm_flops * scale_dm / p) as u64,
        occupancy: 1.0,
        host_words: 0,
    };
    let dm = kernel_time(machine, &dm_work);

    // --- Sumup ---
    let sumup_words = cal.sumup_words_dense * if optimized { 1.0 } else { cal.csr_read_ratio };
    let sumup_work = KernelWork {
        launches: 2, // the artifact's two Sumup kernels
        offchip_words: (sumup_words * n / p) as u64,
        onchip_words: 0,
        flops: (cal.sumup_flops * n / p) as u64,
        occupancy: 1.0,
        host_words: 0,
    };
    let sumup = kernel_time(machine, &sumup_work);

    // --- H ---
    let h_words = cal.h_words_dense
        * if optimized {
            1.0
        } else {
            cal.sparse_write_ratio
        };
    let h_work = KernelWork {
        launches: 1,
        offchip_words: (h_words * n / p) as u64,
        onchip_words: 0,
        flops: (cal.h_flops * n / p) as u64,
        occupancy: 1.0,
        host_words: 0,
    };
    let h = kernel_time(machine, &h_work);

    // --- Rho ---
    // Producer redundancy: without horizontal fusion every process sharing a
    // GPU runs the identical spline producer (×8 on HPC #2) and round-trips
    // the tables through the host.
    let shared_procs = if machine.host_xfer_wps.is_finite() {
        8.0
    } else {
        1.0
    };
    let producer_mult = if optimized { 1.0 } else { shared_procs };
    let spline_words =
        cal.splines_per_atom * n / p * (workloads::rho_multipole_row_bytes() as f64 / 8.0) / 100.0; // per-channel share of the row
    let host_words = if optimized {
        0.0
    } else {
        2.0 * spline_words * shared_procs
    };
    // Local interpolation scales O(N); the far-field multipole share scales
    // O(N^1.7) (§5.3.2), normalized to RHO_FARFIELD_FRACTION of the phase at
    // the 30 002-atom reference.
    let rho_scale = (1.0 - RHO_FARFIELD_FRACTION) * n
        + RHO_FARFIELD_FRACTION * n * (n / RHO_FARFIELD_NREF).powf(RHO_EXPONENT - 1.0);
    let rho_work = KernelWork {
        launches: 2,
        offchip_words: ((cal.rho_words * rho_scale / p) + spline_words * producer_mult) as u64,
        onchip_words: 0,
        flops: (cal.rho_flops * rho_scale / p * if optimized { 1.0 } else { 1.15 }) as u64,
        occupancy: if optimized {
            cal.occ_collapsed
        } else {
            cal.occ_nested
        },
        host_words: host_words as u64,
    };
    let rho = kernel_time(machine, &rho_work);

    // --- Communication ---
    // rho_multipole synthesis: one row per atom.
    let row = workloads::rho_multipole_row_bytes();
    let comm_rho = if optimized {
        // Locality mapping bounds each rank's rows to own + halo atoms;
        // rows are packed into <= 30 MB calls, hierarchical where the
        // machine allows (§3.1 + §3.2 combined).
        let local_bytes = (n / p + HALO_ATOMS) * row as f64;
        let calls = (local_bytes / qp_mpi::packed::DEFAULT_BUDGET_BYTES as f64)
            .ceil()
            .max(1.0);
        let bytes_per_call = (local_bytes / calls) as usize;
        let per_call = cost::hierarchical_allreduce_time(machine, ranks, bytes_per_call)
            .unwrap_or_else(|| cost::allreduce_time(machine, ranks, bytes_per_call));
        calls * per_call
    } else {
        // Baseline: delocalized atoms force every rank to synthesize every
        // row, one AllReduce each.
        n * cost::allreduce_time(machine, ranks, row)
    };
    // DM-phase panel exchange (present in both variants): O(N/√P) bytes per
    // rank spread over log2(P) panel rounds.
    let rounds = p.log2().ceil().max(1.0);
    let dm_bytes = DM_COMM_BYTES * n / p.sqrt();
    let comm_dm = rounds * cost::allreduce_time(machine, ranks, (dm_bytes / rounds) as usize);
    let comm = comm_rho + comm_dm;

    PhaseTimes {
        dm,
        sumup,
        rho,
        h,
        comm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_machine::machine::{hpc1, hpc2};

    #[test]
    fn calibration_is_sane() {
        let c = calibration();
        assert!(c.sumup_flops > 0.0);
        assert!(
            c.csr_read_ratio > 1.5,
            "CSR must cost more: {}",
            c.csr_read_ratio
        );
        assert!(c.sparse_write_ratio > 2.0);
        assert!(c.occ_collapsed > c.occ_nested);
        assert!(c.splines_per_atom >= 1.0);
    }

    #[test]
    fn optimized_cycles_are_faster() {
        let c = calibration();
        for m in [hpc1(), hpc2()] {
            for &(atoms, ranks) in &[(30_002usize, 1024usize), (60_002, 4096)] {
                let opt = cycle_time(c, &m, atoms, ranks, true);
                let base = cycle_time(c, &m, atoms, ranks, false);
                assert!(
                    base.total() > 1.5 * opt.total(),
                    "{}: {} vs {}",
                    m.name,
                    base.total(),
                    opt.total()
                );
            }
        }
    }

    #[test]
    fn strong_scaling_speedup_reasonable() {
        let c = calibration();
        let m = hpc2();
        let t1 = cycle_time(c, &m, 60_002, 1024, true).total();
        let t8 = cycle_time(c, &m, 60_002, 8192, true).total();
        let speedup = t1 / t8;
        assert!(
            speedup > 3.0 && speedup < 8.0,
            "8x ranks should give 3-8x: {speedup}"
        );
    }

    #[test]
    fn comm_share_grows_with_ranks() {
        let c = calibration();
        let m = hpc2();
        let share = |ranks| {
            let t = cycle_time(c, &m, 60_002, ranks, true);
            (t.comm + t.dm) / t.total()
        };
        assert!(share(8192) > share(1024));
    }
}
