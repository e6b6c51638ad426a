//! Thread-count determinism: the qp-par substrate must produce *bit-identical*
//! results at any thread count, because qp-resil's recovery guarantee replays
//! iterations and compares checkpoints bit-exactly.
//!
//! Every parallel reduction in the stack merges partial results in a fixed
//! order on the caller (never in completion order), and the blocked GEMM
//! accumulates each `C` element over the same ascending k-blocks regardless
//! of how row-blocks are scheduled. These tests pin that contract on the
//! real pipeline: full SCF energy traces and DFPT polarizabilities for the
//! water and 49-atom ligand workloads, run serially and on an 8-worker pool.
//!
//! Comparisons use `f64::to_bits` — not tolerances — so any reordering of
//! floating-point sums fails loudly.

use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_chem::structures::{ligand49, polyethylene, water};
use qp_core::dfpt::DfptOptions;
use qp_core::scf::ScfOptions;
use qp_core::system::System;
use qp_core::{Event, FarFieldMode, Job, JobState, ScreeningMode};

/// One workload's full observable output, as exact bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct RunBits {
    /// Per-iteration SCF total energy (the "energy trace").
    scf_trace: Vec<u64>,
    /// Final SCF energy.
    energy: u64,
    /// Polarizability entries (all 9, or the single probed α_yy).
    alpha: Vec<u64>,
}

fn water_system() -> System {
    let mut gs = GridSettings::light();
    gs.n_radial = 24;
    gs.max_angular = 26;
    System::build(water(), BasisSettings::Light, &gs, 150, 2)
}

/// The ligand at a statistics-grade grid: big enough to exercise every
/// phase kernel over 49 atoms / 145 basis functions, small enough for CI.
fn ligand_system() -> System {
    let mut gs = GridSettings::coarse();
    gs.n_radial = 8;
    gs.max_angular = 6;
    gs.min_angular = 6;
    System::build(ligand49(), BasisSettings::Light, &gs, 150, 2)
}

/// Run `job` on `sys` through the job pipeline, recording the SCF energy
/// of every non-converged iteration, and keep the α entries `entries`.
fn run_job(sys: &System, job: &Job, entries: &[(usize, usize)]) -> RunBits {
    let mut trace = Vec::new();
    let out = job
        .run_with(sys, &mut JobState::default(), &mut |event| {
            if let Event::ScfIter(st) = event {
                trace.push(st.energy.to_bits());
            }
            true
        })
        .expect("job")
        .expect("the hook never preempts");
    RunBits {
        scf_trace: trace,
        energy: out.ground.energy.to_bits(),
        alpha: entries
            .iter()
            .map(|&(i, j)| out.alpha[(i, j)].to_bits())
            .collect(),
    }
}

fn run_water(threads: usize) -> RunBits {
    let _lease = qp_par::ThreadLease::exactly(threads);
    let all: Vec<(usize, usize)> = (0..3).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
    run_job(
        &water_system(),
        &Job::new(ScfOptions::default(), DfptOptions::default()),
        &all,
    )
}

/// The small-grid SCF/DFPT settings the ligand and polymer cases share, over
/// one field direction: that keeps the tests inside the CI budget while
/// still driving all four phase kernels (Sumup, Rho, H, DM) plus
/// Sternheimer.
fn smeared_job(dir: usize) -> Job {
    let scf = ScfOptions {
        max_iter: 80,
        tol: 1e-6,
        mixing: 0.1,
        field: None,
        smearing: Some(0.02),
        pulay: Some(6),
    };
    let dfpt = DfptOptions {
        max_iter: 80,
        tol: 1e-5,
        mixing: 0.15,
        ..DfptOptions::default()
    };
    Job {
        dirs: vec![dir],
        ..Job::new(scf, dfpt)
    }
}

fn run_ligand(threads: usize) -> RunBits {
    let _lease = qp_par::ThreadLease::exactly(threads);
    run_job(&ligand_system(), &smeared_job(1), &[(1, 1)])
}

#[test]
fn water_pipeline_bit_identical_1_vs_8_threads() {
    let serial = run_water(1);
    let parallel = run_water(8);
    assert!(!serial.scf_trace.is_empty(), "trace must record iterations");
    assert_eq!(serial, parallel);
}

#[test]
fn ligand_polarizability_bit_identical_1_vs_8_threads() {
    let serial = run_ligand(1);
    let parallel = run_ligand(8);
    assert!(!serial.scf_trace.is_empty(), "trace must record iterations");
    assert_eq!(serial, parallel);
}

/// Full SCF + DFPT on a polyethylene trimer, screened vs dense, at 1, 2 and
/// 8 threads. Screening finds each batch's function list through the cell
/// list (the same list) and restricts the Sternheimer contraction to the
/// occupation classes that couple, skipping only exact zeros, so the entire
/// pipeline — energy trace, final energy, polarizability element — must
/// match the dense path bit-for-bit at every thread count, and all six runs
/// must agree with each other.
fn run_polymer(threads: usize, mode: ScreeningMode) -> RunBits {
    let _lease = qp_par::ThreadLease::exactly(threads);
    let mut gs = GridSettings::coarse();
    gs.n_radial = 8;
    gs.max_angular = 6;
    gs.min_angular = 6;
    // n = 3 monomers → 20 atoms: above the auto-screening threshold, small
    // enough to run the six-run matrix inside the CI budget.
    let sys = System::build_with_modes(
        polyethylene(3),
        BasisSettings::Light,
        &gs,
        150,
        2,
        mode,
        FarFieldMode::Auto,
    );
    run_job(&sys, &smeared_job(2), &[(2, 2)])
}

#[test]
fn polymer_screened_bit_identical_to_dense_at_1_2_8_threads() {
    let reference = run_polymer(1, ScreeningMode::Off);
    assert!(
        !reference.scf_trace.is_empty(),
        "trace must record iterations"
    );
    for threads in [1, 2, 8] {
        assert_eq!(
            reference,
            run_polymer(threads, ScreeningMode::On),
            "screened diverged from dense at {threads} threads"
        );
    }
    assert_eq!(
        reference,
        run_polymer(8, ScreeningMode::Off),
        "dense path not thread-deterministic"
    );
}

/// The SIMD microkernel must be an exact drop-in for the scalar one: the
/// full ligand pipeline on an 8-worker pool (coarsened regions, fused
/// density writes, planned Hartree evaluation) is compared bit-for-bit
/// between the two GEMM microkernels. Safe to flip the global kernel here
/// even with concurrent tests — both kernels produce identical bits, which
/// is exactly what this test pins.
#[test]
fn ligand_pipeline_bit_identical_scalar_vs_simd_microkernel() {
    qp_linalg::gemm::set_microkernel("scalar").expect("scalar kernel always available");
    let scalar = run_ligand(8);
    let simd = match qp_linalg::gemm::set_microkernel("avx2") {
        Ok(_) => Some(run_ligand(8)),
        Err(_) => None,
    };
    qp_linalg::gemm::set_microkernel("auto").expect("restore auto dispatch");
    match simd {
        Some(simd) => assert_eq!(scalar, simd),
        None => eprintln!("host lacks AVX2; SIMD leg skipped (scalar leg still exercised)"),
    }
}
