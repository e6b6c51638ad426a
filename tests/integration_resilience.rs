//! Integration: the resilience acceptance criteria.
//!
//! * A seeded rank crash mid-DFPT is detected, the supervised driver
//!   restarts from its last checkpoint, and the recovered run converges to
//!   the fault-free polarizability — within 1e-8, and in fact bit-exactly,
//!   because checkpoints capture the loop-carried state losslessly and the
//!   rank-ordered collectives replay deterministically.
//! * The same `QP_FAULT` spec reproduces the identical failure/recovery
//!   trace twice (fault event log and final state both match).
//! * Recovery works purely in memory and with on-disk `QPCK` mirroring.

use qp_core::parallel::{parallel_dfpt_direction, CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::resil::{parallel_dfpt_direction_resilient, ResilienceConfig};
use qp_core::scf::{scf, ScfOptions, ScfResult};
use qp_core::system::System;
use qp_core::DfptOptions;
use qp_linalg::DMatrix;
use qp_resil::FaultPlan;
use std::sync::Arc;

fn setup() -> (System, ScfResult) {
    let mut gs = qp_chem::grids::GridSettings::light();
    gs.n_radial = 24;
    gs.max_angular = 26;
    let sys = System::build(
        qp_chem::structures::water(),
        qp_chem::basis::BasisSettings::Light,
        &gs,
        120,
        2,
    );
    let ground = scf(&sys, &ScfOptions::default()).unwrap();
    (sys, ground)
}

fn cfg() -> ParallelConfig {
    ParallelConfig {
        n_ranks: 4,
        ranks_per_node: 2,
        mapping: MappingKind::LocalityEnhancing,
        collectives: CollectiveScheme::Packed,
    }
}

/// Polarizability diagonal element for the direction: `α_JJ = Tr[P¹_J D_J]`.
fn alpha(sys: &System, p1: &DMatrix, dir: usize) -> f64 {
    let dip = qp_core::operators::dipole_matrix(sys, dir);
    p1.trace_product(&dip).unwrap()
}

#[test]
fn seeded_rank_crash_recovers_to_fault_free_polarizability() {
    let (sys, ground) = setup();
    let opts = DfptOptions::default();
    let dir = 2;

    let fault_free = parallel_dfpt_direction(&sys, &ground, dir, &opts, &cfg()).unwrap();

    let spec = "seed=1;crash:rank=1,iter=3,point=dfpt.iter";
    let plan = Arc::new(FaultPlan::parse(spec).unwrap());
    let rcfg = ResilienceConfig {
        checkpoint_interval: 2,
        max_restarts: 3,
        fault: Some(plan.clone()),
        ..ResilienceConfig::default()
    };
    let out = parallel_dfpt_direction_resilient(&sys, &ground, dir, &opts, &cfg(), &rcfg).unwrap();

    assert_eq!(out.stats.restarts, 1, "exactly one injected crash");
    assert_eq!(
        plan.events(),
        vec!["crash rank=1 point=dfpt.iter iter=3"],
        "the planned fault (and only it) fired"
    );
    assert!(out.stats.checkpoints_written > 0);

    // The acceptance bar is 1e-8 on the polarizability; determinism makes
    // the recovered state match bit-for-bit.
    let dev = out.direction.p1.max_abs_diff(&fault_free.p1);
    assert_eq!(dev, 0.0, "recovered P¹ deviates by {dev}");
    let a_ok = alpha(&sys, &fault_free.p1, dir);
    let a_rec = alpha(&sys, &out.direction.p1, dir);
    assert!(
        (a_ok - a_rec).abs() < 1e-8,
        "α after recovery {a_rec} vs fault-free {a_ok}"
    );
}

#[test]
fn same_fault_spec_reproduces_the_identical_trace() {
    let (sys, ground) = setup();
    let opts = DfptOptions::default();
    let spec = "seed=7;crash:rank=any,iter=2";

    let run = || {
        let plan = Arc::new(FaultPlan::parse(spec).unwrap());
        let rcfg = ResilienceConfig {
            checkpoint_interval: 1,
            max_restarts: 2,
            fault: Some(plan.clone()),
            ..ResilienceConfig::default()
        };
        let out =
            parallel_dfpt_direction_resilient(&sys, &ground, 0, &opts, &cfg(), &rcfg).unwrap();
        (plan.events(), out.stats.events.clone(), out.direction.p1)
    };

    let (events_a, recovery_a, p1_a) = run();
    let (events_b, recovery_b, p1_b) = run();
    assert_eq!(events_a, events_b, "fault trace must be reproducible");
    assert_eq!(
        recovery_a, recovery_b,
        "recovery trace must be reproducible"
    );
    assert!(!events_a.is_empty(), "the crash must actually fire");
    assert_eq!(p1_a.max_abs_diff(&p1_b), 0.0, "bit-identical final state");
}

#[test]
fn disk_checkpoints_survive_corruption_detection_and_restart() {
    let (sys, ground) = setup();
    let opts = DfptOptions::default();
    let dir_path = std::env::temp_dir().join("qp_resil_integration_disk");
    std::fs::create_dir_all(&dir_path).unwrap();

    let rcfg = ResilienceConfig {
        checkpoint_dir: Some(dir_path.clone()),
        checkpoint_interval: 2,
        max_restarts: 1,
        ..ResilienceConfig::default()
    };
    let first = parallel_dfpt_direction_resilient(&sys, &ground, 1, &opts, &cfg(), &rcfg).unwrap();
    let ck_file = dir_path.join("dfpt_dir1.qpck");
    assert!(ck_file.exists(), "checkpoint mirrored to disk");

    // Restarting from the on-disk checkpoint replays the tail bit-exactly.
    let restart = ResilienceConfig {
        restart: true,
        ..rcfg.clone()
    };
    let resumed =
        parallel_dfpt_direction_resilient(&sys, &ground, 1, &opts, &cfg(), &restart).unwrap();
    assert_eq!(resumed.direction.p1.max_abs_diff(&first.direction.p1), 0.0);
    assert_eq!(resumed.direction.iterations, first.direction.iterations);

    // A corrupted checkpoint must be rejected by the checksum with a clean
    // error, not silently resumed from.
    let mut bytes = std::fs::read(&ck_file).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0x01;
    std::fs::write(&ck_file, &bytes).unwrap();
    let out = parallel_dfpt_direction_resilient(&sys, &ground, 1, &opts, &cfg(), &restart);
    assert!(
        matches!(out, Err(qp_core::CoreError::Checkpoint(_))),
        "corrupted checkpoint must surface cleanly: {out:?}"
    );

    // A checkpoint from a driver that mixed the response coefficients C¹
    // (non-empty `c1`, C¹-sized history) cannot seed the P¹ mixer: refused
    // with a typed error, before any rank starts.
    let nb = sys.n_basis();
    let n_occ = sys.n_occupied();
    let c1_sized = |v: f64| DMatrix::from_fn(nb, n_occ, |i, j| v * (i + j) as f64);
    let old = qp_resil::DfptCheckpoint {
        dir: 1,
        iteration: 4,
        c1: c1_sized(1e-3),
        p1: first.direction.p1.clone(),
        residual: 1e-3,
        diis_in: vec![c1_sized(1e-3); 3],
        diis_res: vec![c1_sized(1e-4); 3],
    };
    old.save(&ck_file).unwrap();
    let out = parallel_dfpt_direction_resilient(&sys, &ground, 1, &opts, &cfg(), &restart);
    assert!(
        matches!(out, Err(qp_core::CoreError::Checkpoint(_))),
        "a C1 checkpoint must be refused cleanly: {out:?}"
    );
    std::fs::remove_dir_all(&dir_path).ok();
}

#[test]
fn stalled_rank_timeout_is_survived_by_the_supervisor() {
    // A rank stalled past the collective deadline surfaces on its peer as
    // a timeout; the supervisor treats it like any other failure and
    // restarts. The stall clause is one-shot, so the second attempt's
    // collective completes.
    use qp_mpi::{run_spmd_with, ReduceOp};
    use qp_resil::recovery::{RecoveryPolicy, Supervisor};

    let plan = Arc::new(FaultPlan::parse("stall:rank=1,iter=1,ms=500").unwrap());
    let mut sup = Supervisor::new(RecoveryPolicy {
        max_restarts: 2,
        ranks: 2,
        machine: None,
    });
    let out = sup.run(|_, _| {
        let opts = qp_mpi::SpmdOptions::with_fault(plan.clone())
            .with_timeout(std::time::Duration::from_millis(50));
        run_spmd_with(2, 2, opts, |c| {
            c.fault_point("iter", 1)?;
            c.allreduce(ReduceOp::Sum, &[c.rank() as f64 + 1.0])
        })
        .map(|outs| outs[1][0])
    });
    assert_eq!(out, Ok(3.0), "the restarted attempt's allreduce completes");
    assert_eq!(sup.stats().restarts, 1);
    assert_eq!(
        sup.stats().events,
        vec!["restart 1 after communication deadline exceeded (peer dead or stalled)"],
        "the first attempt timed out"
    );
    assert_eq!(plan.events(), vec!["stall rank=1 point=iter iter=1 ms=500"]);
}
