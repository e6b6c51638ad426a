//! Ablation: recovery overhead vs checkpoint interval (qp-resil).
//!
//! A polyethylene-chain DFPT direction runs under the supervised driver
//! with one seeded rank crash (`crash:rank=1,iter=6`). Sweeping the
//! checkpoint interval exposes the classic tradeoff:
//!
//! * frequent checkpoints pay steady modeled write time (`qp-machine`
//!   parallel-filesystem model) but restart from a near cut — few
//!   iterations are replayed;
//! * sparse checkpoints are nearly free to write but replay a long tail;
//! * no checkpoints at all ("none") recover by full recomputation.
//!
//! Every swept run must land on the fault-free response bit-exactly — the
//! ablation varies only *where the time goes*, never the physics.
//!
//! ```text
//! cargo run --release -p qp-bench --bin ablation_recovery
//! ```

use qp_bench::table;
use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_core::parallel::{parallel_dfpt_direction, CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::resil::{parallel_dfpt_direction_resilient, ResilienceConfig};
use qp_core::{scf, DfptOptions, ScfOptions, System};
use qp_machine::hpc2;
use qp_resil::FaultPlan;
use qp_trace::json::{obj, Json};
use std::sync::Arc;

/// The planned crash fires right before iteration `CRASH_ITER` starts, so
/// the last completed iteration at that point is `CRASH_ITER - 1`.
const CRASH_ITER: usize = 6;

fn main() {
    qp_bench::trace_hook::init();
    println!("Ablation: checkpoint interval vs recovery overhead (one crash at iteration {CRASH_ITER})\n");

    let mut gs = GridSettings::light();
    gs.n_radial = 24;
    gs.max_angular = 26;
    let system = System::build(
        qp_chem::structures::polyethylene(2),
        BasisSettings::Light,
        &gs,
        150,
        4,
    );
    let ground = scf(&system, &ScfOptions::default()).expect("SCF");
    let opts = DfptOptions::default();
    let cfg = ParallelConfig {
        n_ranks: 4,
        ranks_per_node: 2,
        mapping: MappingKind::LocalityEnhancing,
        collectives: CollectiveScheme::Packed,
    };
    let dir = 2;
    let fault_free = parallel_dfpt_direction(&system, &ground, dir, &opts, &cfg)
        .expect("fault-free parallel DFPT");
    println!(
        "polyethylene(2): {} basis functions, {} batches; fault-free DFPT({dir}) converges in {} iterations\n",
        system.n_basis(),
        system.batches.len(),
        fault_free.iterations
    );

    let machine = hpc2();
    let spec = format!("seed=1;crash:rank=1,iter={CRASH_ITER},point=dfpt.iter");
    let widths = [8, 11, 11, 9, 11, 13, 13, 10];
    table::header(
        &[
            "interval",
            "ckpts",
            "ckpt bytes",
            "replayed",
            "sim write",
            "sim recovery",
            "sim overhead",
            "P1 dev",
        ],
        &widths,
    );

    let mut json = Vec::new();
    for interval in [0usize, 1, 2, 4, 8] {
        let plan = Arc::new(FaultPlan::parse(&spec).expect("fault spec"));
        let rcfg = ResilienceConfig {
            checkpoint_interval: interval,
            max_restarts: 3,
            fault: Some(plan.clone()),
            machine: Some(machine),
        };
        let out = parallel_dfpt_direction_resilient(&system, &ground, dir, &opts, &cfg, &rcfg)
            .expect("supervised DFPT");
        let s = &out.stats;
        assert_eq!(s.restarts, 1, "the planned crash fires exactly once");
        let dev = out.direction.p1.max_abs_diff(&fault_free.p1);
        assert_eq!(dev, 0.0, "recovery must land on the fault-free response");

        // Iterations lost to the crash: the restarted attempt re-enters at
        // the last checkpoint ≤ the last completed iteration.
        let done = CRASH_ITER - 1;
        let last_ck = done.checked_div(interval).map_or(0, |q| q * interval);
        let replayed = done - last_ck;

        table::row(
            &[
                if interval == 0 {
                    "none".into()
                } else {
                    format!("{interval}")
                },
                format!("{}", s.checkpoints_written),
                table::fmt_bytes(s.checkpoint_bytes),
                format!("{replayed}"),
                table::fmt_secs(s.sim_checkpoint_s),
                table::fmt_secs(s.sim_recovery_s),
                table::fmt_secs(s.sim_overhead_s()),
                format!("{dev:.1e}"),
            ],
            &widths,
        );
        let int = |v: usize| Json::Num(v as f64);
        json.push(obj(vec![
            ("experiment", Json::Str("ablation_recovery".to_string())),
            ("machine", Json::Str(machine.name.to_string())),
            ("ranks", int(cfg.n_ranks)),
            ("crash_iter", int(CRASH_ITER)),
            ("interval", int(interval)),
            ("restarts", int(s.restarts)),
            ("checkpoints", int(s.checkpoints_written)),
            ("checkpoint_bytes", Json::Num(s.checkpoint_bytes as f64)),
            ("replayed_iters", int(replayed)),
            ("sim_checkpoint_s", Json::Num(s.sim_checkpoint_s)),
            ("sim_recovery_s", Json::Num(s.sim_recovery_s)),
            ("sim_overhead_s", Json::Num(s.sim_overhead_s())),
            ("iterations", int(out.direction.iterations)),
            ("p1_max_abs_dev", Json::Num(dev)),
        ]));
    }

    println!("\nshort intervals buy short replays with steady write cost; 'none' writes");
    println!("nothing and recomputes the whole prefix — the knee is where the modeled");
    println!("write time stops being cheaper than the replayed work\n");
    println!("results (JSON):");
    for line in &json {
        println!("{line}");
    }
    qp_bench::trace_hook::finish();
}
