//! `bench_perf`: the workspace's end-to-end performance tracker.
//!
//! Runs fixed mini-workloads through the *real* pipeline — ligand-49
//! SCF + DFPT and a polyethylene SCF + DFPT case — plus a GEMM throughput
//! probe and a polymer weak-scaling sweep, and emits `BENCH_perf.json` so
//! successive PRs accumulate a comparable perf trajectory.
//!
//! ```text
//! cargo run --release -p qp-bench --bin bench_perf [--quick] [--guard] [--out PATH]
//! ```
//!
//! `--quick` shrinks every workload (water instead of the ligand, a
//! 2-monomer polymer, GEMM at n = 256, the sweep to n ≤ 16) for CI smoke
//! runs. Each case runs through the profiler that `qperturb --profile`
//! uses, [`profile_case`]: a 1-thread serial reference, then an
//! instrumented leg on `QP_THREADS` threads (default: available
//! parallelism, clamped to ≥ 2 so the fan-out is actually exercised). Each
//! `cases[]` entry of the JSON is that case's `qp-profile/v1` document:
//! both legs' wall clocks, the attribution of the parallel one, the span
//! self-time of every phase, grid points, SCF iterations, the α diagonal
//! and the basis-cache counters.
//!
//! `--guard` adds five regression checks:
//!
//! 1. the phase check: one ligand-49 DFPT direction, failing the process
//!    if the Sternheimer phase takes more than a generous multiple of
//!    Sumup — the signature of the O(n⁴) pair-loop accidentally replacing
//!    the GEMM-form response build (exit 3) — or if the Rho phase exceeds
//!    its own multiple of Sumup — region coarsening / fused super-batch
//!    regression (exit 6);
//! 2. the end-to-end check: any case whose parallel leg is slower than
//!    `serial × (1 + slack)` is profiled twice more, and fails (exit 4)
//!    if the median parallel/serial ratio of its three pairs is still
//!    over `1 + slack`. The slack is 0.0 on hosts with ≥ 2 cores — a
//!    parallel leg slower than serial is a hard regression there — and
//!    0.25 only on single-core hosts (a 2-thread leg on a 1-core host
//!    *cannot* beat serial; the guard then only catches pathological
//!    slowdowns);
//! 3. the scheduling check: any case whose attributed
//!    `scheduling_overhead_fraction` exceeds [`SCHED_MAX`] (0.40) fails
//!    (exit 5) — the pool is burning more wall clock on setup/queue/drain
//!    than the threshold allows;
//! 4. the weak-scaling checks over the polymer sweep (below): the fitted
//!    log–log exponent of the screened per-cycle assembly cost must stay
//!    under [`SCALING_MAX`] (1.75; exit 7), and — on the full sweep — the
//!    fitted tree-mode `rho` exponent must stay under [`RHO_MAX`] (1.4;
//!    exit 9). Wherever the direct-path Rho oracle runs alongside the
//!    tree, the two potentials must agree within `QP_FARFIELD_TOL`
//!    (exit 11);
//! 5. the ledger check, on the full run's ligand-49 case: the phase
//!    self-times must add up to at least [`LEDGER_MIN`] (95 %) of the
//!    parallel wall, and neither the `scf` nor the `other` row may hold
//!    more than [`BUCKET_MAX`] (10 %) of it (exit 12) — time that no
//!    phase span names is time the ledger cannot explain.
//!
//! The polymer weak-scaling sweep runs H(C₂H₄)ₙH at n = 4…1024 (quick:
//! 4…16) through the assembly phases of one cycle — system build +
//! tabulation, Sumup (density on grid) and H (potential matrix), all on
//! the production kernels but fed a synthetic density matrix and
//! potential — with cutoff-sphere screening on and the hierarchical
//! far-field tree on, plus a direct-path Rho oracle at small n. It times
//! no eigensolve and no density-matrix build: every job builds P densely.
//! Each phase gets a fitted log–log exponent; `e2e_full_s` is the
//! per-cycle assembly sum *including* tree-mode Rho.

use std::time::Instant;

use qp_bench::workloads;
use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_core::dfpt::{dfpt_direction, DfptOptions};
use qp_core::operators;
use qp_core::profile::default_profile_threads;
use qp_core::scf::{scf, ScfOptions};
use qp_core::system::System;
use qp_core::{profile_case, FarFieldMode, Job, ProfileReport, ScreeningMode};
use qp_grid::{farfield_tol, NeighborList};
use qp_linalg::DMatrix;
use qp_trace::json::{obj, Json};
use qp_trace::span::{set_enabled, take_events, Phase};

struct CaseSpec {
    name: &'static str,
    build: fn() -> System,
    /// SCF + DFPT; fewer field directions (`1` = y) keep quick mode cheap.
    job: Job,
}

/// The statistics-grade ligand grid shared with `tests/determinism_threads.rs`.
fn ligand_system() -> System {
    workloads::bench_ligand_system()
}

fn polymer_system() -> System {
    // H(C2H4)4H: 26 atoms — big enough to spread over many grid batches.
    workloads::bench_polymer_system(26)
}

fn water_system() -> System {
    workloads::bench_water_system()
}

/// The job over `dirs` with the bench SCF and DFPT settings.
fn bench_job(dirs: &[usize]) -> Job {
    Job {
        dirs: dirs.to_vec(),
        ..Job::new(
            workloads::bench_scf_options(),
            workloads::bench_dfpt_options(),
        )
    }
}

fn cases(quick: bool) -> Vec<CaseSpec> {
    if quick {
        vec![
            CaseSpec {
                name: "water",
                build: water_system,
                job: Job {
                    dirs: vec![1],
                    ..Job::new(ScfOptions::default(), DfptOptions::default())
                },
            },
            CaseSpec {
                name: "polyethylene-n2",
                build: || {
                    let mut gs = GridSettings::coarse();
                    gs.n_radial = 8;
                    gs.max_angular = 6;
                    gs.min_angular = 6;
                    System::build(
                        workloads::polymer(14).structure,
                        BasisSettings::Light,
                        &gs,
                        150,
                        2,
                    )
                },
                job: bench_job(&[1]),
            },
        ]
    } else {
        vec![
            CaseSpec {
                name: "ligand49",
                build: ligand_system,
                job: bench_job(&[0, 1, 2]),
            },
            CaseSpec {
                name: "polyethylene-n4",
                build: polymer_system,
                job: bench_job(&[1]),
            },
        ]
    }
}

/// One case through the profiler. A stage that fails stops the benchmark
/// with its error.
fn run_case(spec: &CaseSpec, threads: usize) -> ProfileReport {
    println!("case {} ...", spec.name);
    let report = profile_case(spec.name, &spec.build, &spec.job, threads).unwrap_or_else(|e| {
        eprintln!("bench_perf: {}: {e}", spec.name);
        std::process::exit(1)
    });
    print!("{}", report.render_text());
    report
}

/// Slack factor for the end-to-end guard: `parallel_total_s` may exceed
/// `serial_total_s × (1 + slack)` before the guard trips. On a host with
/// at least two cores there is no excuse for a parallel leg slower than
/// serial — the slack is zero and a median `e2e_speedup < 1.0` over
/// [`E2E_PAIRS`] pairs hard-fails (exit 4). Only genuinely oversubscribed
/// single-core hosts (the 1-core CI runner, where every extra thread is
/// pure overhead) keep a loose 25% allowance.
fn e2e_slack() -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 {
        0.0
    } else {
        0.25
    }
}

/// Ceiling on a case's attributed `scheduling_overhead_fraction` (exit 5).
const SCHED_MAX: f64 = 0.40;

/// Ceiling on the fitted exponent of the screened per-cycle assembly cost
/// over the polymer sweep (exit 7): past it the pair list or the
/// per-batch subsets have stopped pruning.
const SCALING_MAX: f64 = 1.75;

/// Ceiling on the fitted tree-mode `rho` exponent over the full sweep
/// (exit 9).
const RHO_MAX: f64 = 1.4;

/// The `--guard` efficiency checks over the finished cases: the parallel
/// leg must not be meaningfully slower than serial (exit 4), and the
/// attributed scheduling overhead must stay under [`SCHED_MAX`] (exit 5).
/// Cases whose serial reference is shorter than this floor skip the e2e
/// check — at tens of milliseconds, timer noise exceeds any slack the
/// guard could reasonably allow. The ratio-based scheduling-overhead
/// check still applies to them.
const E2E_MIN_SERIAL_S: f64 = 0.1;

/// Serial/parallel pairs the e2e check decides on once a case's first
/// pair is over the limit: one pair alone trips on host noise.
const E2E_PAIRS: usize = 3;

/// The e2e check: a case whose first pair is over the limit is profiled
/// again until [`E2E_PAIRS`] pairs are in, and fails (exit 4) only if the
/// median parallel/serial ratio is still over `1 + slack`.
fn run_efficiency_guard(specs: &[CaseSpec], results: &[ProfileReport], threads: usize) {
    let slack = e2e_slack();
    for (spec, c) in specs.iter().zip(results) {
        let limit = c.serial_total_s * (1.0 + slack);
        println!(
            "efficiency guard {}: parallel {:.3}s vs serial {:.3}s (limit {:.3}s), \
             sched overhead {:.1}% (max {:.0}%), dominant {}",
            c.case,
            c.parallel_total_s,
            c.serial_total_s,
            limit,
            100.0 * c.attribution.scheduling_overhead_fraction,
            100.0 * SCHED_MAX,
            c.attribution.dominant_cause,
        );
        if c.serial_total_s < E2E_MIN_SERIAL_S {
            println!(
                "efficiency guard {}: e2e check skipped (serial {:.3}s below \
                 {:.1}s noise floor)",
                c.case, c.serial_total_s, E2E_MIN_SERIAL_S,
            );
        } else if c.parallel_total_s > limit {
            let mut ratios = vec![c.parallel_total_s / c.serial_total_s];
            while ratios.len() < E2E_PAIRS {
                let again = run_case(spec, threads);
                ratios.push(again.parallel_total_s / again.serial_total_s);
            }
            ratios.sort_by(f64::total_cmp);
            let median = ratios[E2E_PAIRS / 2];
            println!(
                "efficiency guard {}: first pair over the limit; parallel/serial over \
                 {E2E_PAIRS} pairs {ratios:.3?}, median {median:.3} (limit {:.3})",
                c.case,
                1.0 + slack,
            );
            if median > 1.0 + slack {
                eprintln!(
                    "bench_perf: end-to-end regression on {} — the {}-thread leg took \
                     {median:.3}× its serial reference, the median of {E2E_PAIRS} pairs \
                     (slack {:.0}%); first pair's attribution: {:.1}% serial, {:.1}% \
                     scheduling overhead, {:.1}% imbalance, {:.1}% useful",
                    c.case,
                    c.threads,
                    100.0 * slack,
                    100.0 * c.attribution.serial_fraction,
                    100.0 * c.attribution.scheduling_overhead_fraction,
                    100.0 * c.attribution.imbalance_fraction,
                    100.0 * c.attribution.useful_parallel_fraction,
                );
                std::process::exit(4);
            }
        }
        if c.attribution.scheduling_overhead_fraction > SCHED_MAX {
            eprintln!(
                "bench_perf: scheduling-overhead regression on {} — {:.1}% of the \
                 parallel wall clock went to region setup/queue/drain (max {:.0}%); \
                 setup {:.1}ms, queue-wait {:.1}ms over {} regions",
                c.case,
                100.0 * c.attribution.scheduling_overhead_fraction,
                100.0 * SCHED_MAX,
                c.attribution.setup_s * 1e3,
                c.attribution.queue_wait_s * 1e3,
                c.attribution.regions,
            );
            std::process::exit(5);
        }
    }
}

/// Share of the parallel wall the phase self-times must add up to (exit 12).
const LEDGER_MIN: f64 = 0.95;

/// Share of the parallel wall the `scf` and `other` rows may each hold
/// (exit 12): above it, the SCF's own work has left its phase spans.
const BUCKET_MAX: f64 = 0.10;

/// The `--guard` ledger check on the ligand-49 case of the full run: the
/// phase rows must add up to the wall within [`LEDGER_MIN`], and the
/// catch-all `scf` and `other` rows must each stay under [`BUCKET_MAX`]
/// (exit 12). Quick runs have no ligand-49 case and skip it.
fn run_ledger_guard(results: &[ProfileReport]) {
    let Some(c) = results.iter().find(|c| c.case == "ligand49") else {
        println!("ledger guard: skipped (no ligand49 case in a quick run)");
        return;
    };
    let wall = c.parallel_total_s;
    let attributed: f64 = c.phases.iter().map(|p| p.self_s).sum();
    let share = |name: &str| {
        c.phases
            .iter()
            .find(|p| p.phase == name)
            .map_or(0.0, |p| p.self_s / wall)
    };
    let (scf, other) = (share("scf"), share("other"));
    println!(
        "ledger guard ligand49: rows sum to {:.1}% of the {wall:.3}s wall (min {:.0}%), \
         scf {:.1}%, other {:.1}% (max {:.0}%)",
        100.0 * attributed / wall,
        100.0 * LEDGER_MIN,
        100.0 * scf,
        100.0 * other,
        100.0 * BUCKET_MAX,
    );
    if attributed < LEDGER_MIN * wall || scf > BUCKET_MAX || other > BUCKET_MAX {
        eprintln!(
            "bench_perf: ledger regression on ligand49 — the phase rows explain \
             {attributed:.3}s of the {wall:.3}s wall, with {:.1}% in scf and {:.1}% in \
             other; work has left the phase spans",
            100.0 * scf,
            100.0 * other,
        );
        std::process::exit(12);
    }
}

/// The `--guard` phase-regression check: one ligand-49 DFPT direction
/// with per-phase spans, failing if Sternheimer wall-time exceeds a
/// generous multiple of the Sumup phase. The GEMM-form response build is
/// two Level-3 products — far cheaper than Sumup's grid contraction — so
/// tripping this bound means the O(n⁴) pair-loop (or something equally
/// catastrophic) is back on the hot path.
fn run_phase_guard() {
    const FACTOR: f64 = 5.0;
    const FLOOR_S: f64 = 0.05;
    println!("phase guard: ligand49, 1 DFPT direction ...");
    let sys = ligand_system();
    let ground = scf(&sys, &workloads::bench_scf_options()).expect("guard SCF converges");
    set_enabled(true);
    let _ = take_events();
    dfpt_direction(&sys, &ground, 1, &workloads::bench_dfpt_options())
        .expect("guard DFPT converges");
    set_enabled(false);
    let events = take_events();
    let phase_sum = |p: Phase| -> f64 {
        events
            .iter()
            .filter(|ev| ev.phase == p)
            .map(|ev| ev.dur_us / 1e6)
            .sum()
    };
    let sumup = phase_sum(Phase::Sumup);
    let sternheimer = phase_sum(Phase::Sternheimer);
    let limit = FACTOR * sumup.max(FLOOR_S);
    println!("phase guard: sumup {sumup:.3}s, sternheimer {sternheimer:.3}s (limit {limit:.3}s)");
    if sternheimer > limit {
        eprintln!(
            "bench_perf: Sternheimer phase regression — {sternheimer:.3}s exceeds \
             {FACTOR}x max(sumup = {sumup:.3}s, {FLOOR_S}s); the O(n4) pair-loop \
             is likely back on the hot path"
        );
        std::process::exit(3);
    }
    // Rho leg: the multipole Poisson solve sits between Sumup and H on the
    // same grid data. Its spans hold the moments, the solve and the Hartree
    // evaluation; the `f_xc·n¹` term has its own `xc` phase. Healthy profiles put it at a small multiple of Sumup
    // (~2.8x on the reference host); the pre-coarsening regression ran it
    // at ~14x. Guard with generous slack so only a structural regression
    // (per-point region dispatch, lost fusion) trips it.
    const RHO_FACTOR: f64 = 6.0;
    let rho = phase_sum(Phase::Rho);
    let rho_limit = RHO_FACTOR * sumup.max(FLOOR_S);
    println!("phase guard: rho {rho:.3}s (limit {rho_limit:.3}s)");
    if rho > rho_limit {
        eprintln!(
            "bench_perf: Rho phase regression — {rho:.3}s exceeds {RHO_FACTOR}x \
             max(sumup = {sumup:.3}s, {FLOOR_S}s); region coarsening or the fused \
             Rho super-batches have likely regressed"
        );
        std::process::exit(6);
    }
}

/// One cycle's worth of assembly phases for a system: build + tabulation,
/// Sumup and H. Everything the screening pass is supposed to make O(n);
/// `rho` is tracked separately.
struct AssemblyLeg {
    build_s: f64,
    sumup_s: f64,
    h_s: f64,
}

impl AssemblyLeg {
    fn e2e_s(&self) -> f64 {
        self.build_s + self.sumup_s + self.h_s
    }
}

struct SweepRow {
    monomers: usize,
    atoms: usize,
    basis: usize,
    points: usize,
    /// Surviving fraction of the atom-pair matrix under screening.
    pair_fill: f64,
    screened: AssemblyLeg,
    /// Multipole far-field potential rebuild (the DFPT Rho phase) on the
    /// hierarchical cluster tree — O(n log n), measured at every size.
    rho_tree_s: f64,
    /// Direct-path Rho oracle at small n (O(n²) by construction).
    rho_direct_s: Option<f64>,
    /// Max relative deviation of the tree potential from the direct
    /// oracle over all grid points, where the oracle ran.
    farfield_dev: Option<f64>,
}

impl SweepRow {
    /// Full per-cycle assembly cost including the tree-mode Rho rebuild.
    fn e2e_full_s(&self) -> f64 {
        self.screened.e2e_s() + self.rho_tree_s
    }
}

struct WeakScaling {
    sizes: Vec<usize>,
    rows: Vec<SweepRow>,
    /// Fitted log–log exponents keyed by phase name.
    exponents: Vec<(&'static str, f64)>,
}

/// Run one cycle's assembly phases on a freshly built system and time
/// each. The Sumup/H inputs are synthetic — their cost depends only on the
/// screening structure, not the values.
fn assembly_leg(build: impl Fn() -> System) -> (System, AssemblyLeg) {
    let t = Instant::now();
    let sys = build();
    sys.warm_tables();
    let build_s = t.elapsed().as_secs_f64();

    let nb = sys.n_basis();
    let p = DMatrix::from_fn(nb, nb, |i, j| if i == j { 1.0 } else { 0.0 });
    let t = Instant::now();
    let n1 = sys.density_on_grid(&p);
    let sumup_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&n1);

    let v = vec![0.3; sys.n_points()];
    let t = Instant::now();
    let h = operators::potential_matrix(&sys, &v);
    let h_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&h);

    (
        sys,
        AssemblyLeg {
            build_s,
            sumup_s,
            h_s,
        },
    )
}

/// The DFPT Rho phase in isolation, as the SCF and DFPT loops run it:
/// `System::multipole_moments`, then `System::hartree_potential` on every
/// grid point — the cluster tree on a `FarFieldMode::Tree` system, the
/// direct per-atom sum on a `FarFieldMode::Direct` one. Returns the wall
/// time and the potential so the sweep can hold the tree to the direct
/// oracle.
fn rho_potential(sys: &System, n1: &[f64]) -> (f64, Vec<f64>) {
    let t = Instant::now();
    let v1 = sys.hartree_potential(&sys.multipole_moments(n1), None);
    (t.elapsed().as_secs_f64(), v1)
}

/// Polymer system at `monomers` chain length on the sweep's coarse grid
/// (the quick-case settings — the sweep measures scaling, not accuracy).
fn sweep_system(monomers: usize, mode: ScreeningMode, farfield: FarFieldMode) -> System {
    let mut gs = GridSettings::coarse();
    gs.n_radial = 8;
    gs.max_angular = 6;
    gs.min_angular = 6;
    System::build_with_modes(
        workloads::polymer(6 * monomers + 2).structure,
        BasisSettings::Light,
        &gs,
        150,
        2,
        mode,
        farfield,
    )
}

/// Least-squares slope of ln(t) vs ln(n) — the weak-scaling exponent.
fn loglog_exponent(points: &[(usize, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, t)| t > 0.0)
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let m = pts.len() as f64;
    let (xm, ym) = (
        pts.iter().map(|p| p.0).sum::<f64>() / m,
        pts.iter().map(|p| p.1).sum::<f64>() / m,
    );
    let num: f64 = pts.iter().map(|p| (p.0 - xm) * (p.1 - ym)).sum();
    let den: f64 = pts.iter().map(|p| (p.0 - xm) * (p.0 - xm)).sum();
    num / den
}

fn run_weak_scaling(quick: bool) -> WeakScaling {
    let (sizes, rho_max): (Vec<usize>, usize) = if quick {
        (vec![4, 8, 16], 16)
    } else {
        (vec![4, 8, 16, 32, 64, 128, 256, 512, 1024], 64)
    };
    let mut rows = Vec::new();
    for &n in &sizes {
        let (sys, screened) =
            assembly_leg(|| sweep_system(n, ScreeningMode::On, FarFieldMode::Tree));
        let n1 = vec![1e-3; sys.n_points()];
        // The Hartree plan and the cluster tree are one-time set-up, built
        // before the clock starts as a job builds them on its first cycle.
        sys.hartree_plan();
        sys.farfield_tree();
        let (rho_tree_s, v_tree) = rho_potential(&sys, &n1);
        let (rho_direct_s, farfield_dev) = if n <= rho_max {
            // The oracle runs on a direct-mode twin, its Hartree plan
            // built before the clock starts too.
            let twin = sweep_system(n, ScreeningMode::On, FarFieldMode::Direct);
            twin.hartree_plan();
            let (direct_s, v_direct) = rho_potential(&twin, &n1);
            let dev = v_tree
                .iter()
                .zip(&v_direct)
                .map(|(&vt, &vd)| (vt - vd).abs() / vd.abs().max(1.0))
                .fold(0.0_f64, f64::max);
            (Some(direct_s), Some(dev))
        } else {
            (None, None)
        };
        let pair_fill = sys
            .screen()
            .map_or(1.0, |_| NeighborList::build(&sys.structure).fill_ratio());
        println!(
            "weak-scaling n={n}: {} atoms, {} basis, fill {:.2}, screened e2e {:.3}s, \
             rho(tree) {rho_tree_s:.3}s{}",
            sys.structure.len(),
            sys.n_basis(),
            pair_fill,
            screened.e2e_s(),
            rho_direct_s
                .map(|r| {
                    format!(
                        ", rho(direct) {r:.3}s (dev {:.2e})",
                        farfield_dev.unwrap_or(f64::NAN)
                    )
                })
                .unwrap_or_default(),
        );
        rows.push(SweepRow {
            monomers: n,
            atoms: sys.structure.len(),
            basis: sys.n_basis(),
            points: sys.n_points(),
            pair_fill,
            screened,
            rho_tree_s,
            rho_direct_s,
            farfield_dev,
        });
    }

    let phase_points = |f: &dyn Fn(&SweepRow) -> Option<f64>| -> Vec<(usize, f64)> {
        rows.iter().filter_map(|r| Some((r.atoms, f(r)?))).collect()
    };
    let exponents = vec![
        (
            "build",
            loglog_exponent(&phase_points(&|r| Some(r.screened.build_s))),
        ),
        (
            "sumup",
            loglog_exponent(&phase_points(&|r| Some(r.screened.sumup_s))),
        ),
        (
            "rho",
            loglog_exponent(&phase_points(&|r| Some(r.rho_tree_s))),
        ),
        (
            "rho_direct",
            loglog_exponent(&phase_points(&|r| r.rho_direct_s)),
        ),
        (
            "h",
            loglog_exponent(&phase_points(&|r| Some(r.screened.h_s))),
        ),
        (
            "e2e",
            loglog_exponent(&phase_points(&|r| Some(r.screened.e2e_s()))),
        ),
        (
            "e2e_full",
            loglog_exponent(&phase_points(&|r| Some(r.e2e_full_s()))),
        ),
    ];
    for (name, e) in &exponents {
        println!("weak-scaling exponent {name}: {e:.2}");
    }

    WeakScaling {
        sizes,
        rows,
        exponents,
    }
}

/// The `--guard` weak-scaling checks: the screened per-cycle assembly
/// cost must scale like O(n^x) with `x ≤` [`SCALING_MAX`] (exit 7). On the
/// full sweep the quadratic-wall guard also runs: tree-mode `rho`
/// exponent ≤ [`RHO_MAX`] (exit 9). Wherever the direct Rho oracle ran,
/// the tree potential must agree within `QP_FARFIELD_TOL` (exit 11) —
/// quick mode included.
fn run_scaling_guard(ws: &WeakScaling, quick: bool) {
    let exponent = |name: &str| {
        ws.exponents
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, e)| e)
            .unwrap_or(f64::NAN)
    };
    let e2e = exponent("e2e");
    println!("scaling guard: screened e2e exponent {e2e:.2} (max {SCALING_MAX:.2})");
    if !e2e.is_finite() || e2e > SCALING_MAX {
        eprintln!(
            "bench_perf: weak-scaling regression — the screened assembly sweep fits \
             t = O(n^{e2e:.2}), above the {SCALING_MAX:.2} ceiling; cutoff screening has \
             stopped delivering near-linear per-cycle cost"
        );
        std::process::exit(7);
    }

    // Far-field accuracy: everywhere the direct oracle ran, the tree
    // potential must sit inside the hard QP_FARFIELD_TOL budget. Cheap
    // and deterministic, so it runs in quick mode too.
    let tol = farfield_tol();
    let max_dev = ws
        .rows
        .iter()
        .filter_map(|r| r.farfield_dev)
        .fold(0.0_f64, f64::max);
    println!("scaling guard: far-field max deviation {max_dev:.2e} (tol {tol:.1e})");
    if max_dev > tol {
        eprintln!(
            "bench_perf: far-field accuracy regression — the tree-served Rho \
             potential deviates from the direct oracle by {max_dev:.2e}, above \
             the QP_FARFIELD_TOL = {tol:.1e} budget; the multipole translation \
             or the acceptance criterion has lost precision"
        );
        std::process::exit(11);
    }

    if quick {
        println!("scaling guard: rho exponent check skipped (quick sweep is too small)");
        return;
    }
    let rho = exponent("rho");
    println!("scaling guard: tree-mode rho exponent {rho:.2} (max {RHO_MAX:.2})");
    if !rho.is_finite() || rho > RHO_MAX {
        eprintln!(
            "bench_perf: Rho weak-scaling regression — the tree-mode multipole \
             far field fits t = O(n^{rho:.2}), above the {RHO_MAX:.2} ceiling; \
             the hierarchical cluster tree has stopped delivering near-linear \
             potential evaluation"
        );
        std::process::exit(9);
    }
}

struct GemmNumbers {
    n: usize,
    unblocked_gflops: f64,
    blocked_gflops: f64,
    parallel_gflops: f64,
}

fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn gemm_numbers(n: usize) -> GemmNumbers {
    let a = DMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 97) as f64 / 97.0 - 0.5);
    let b = DMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 17) % 89) as f64 / 89.0 - 0.5);
    let flops = 2.0 * (n as f64).powi(3);
    let reps = 3;
    let unblocked = time_best(reps, || {
        std::hint::black_box(a.matmul_unblocked(&b).unwrap());
    });
    let blocked = time_best(reps, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    });
    let parallel = time_best(reps, || {
        std::hint::black_box(a.par_matmul(&b).unwrap());
    });
    GemmNumbers {
        n,
        unblocked_gflops: flops / unblocked / 1e9,
        blocked_gflops: flops / blocked / 1e9,
        parallel_gflops: flops / parallel / 1e9,
    }
}

/// The `qp-bench-perf/v6` document; each `cases[]` entry is that case's
/// `qp-profile/v1` report.
fn bench_json(
    quick: bool,
    threads: usize,
    gemm: &GemmNumbers,
    cases: &[ProfileReport],
    ws: &WeakScaling,
) -> Json {
    let num = Json::Num;
    let int = |v: usize| num(v as f64);
    let text = |s: &str| Json::Str(s.to_string());
    let leg = |l: &AssemblyLeg| {
        obj(vec![
            ("build_s", num(l.build_s)),
            ("sumup_s", num(l.sumup_s)),
            ("h_s", num(l.h_s)),
            ("e2e_s", num(l.e2e_s())),
        ])
    };
    let row = |r: &SweepRow| {
        obj(vec![
            ("monomers", int(r.monomers)),
            ("atoms", int(r.atoms)),
            ("basis", int(r.basis)),
            ("grid_points", int(r.points)),
            ("pair_fill", num(r.pair_fill)),
            ("screened", leg(&r.screened)),
            ("rho_tree_s", num(r.rho_tree_s)),
            ("rho_direct_s", r.rho_direct_s.map_or(Json::Null, num)),
            ("farfield_dev", r.farfield_dev.map_or(Json::Null, num)),
            ("e2e_full_s", num(r.e2e_full_s())),
        ])
    };
    let monomers = ws.sizes.iter().map(|&n| int(n)).collect();
    let exponents = ws.exponents.iter().map(|&(name, e)| (name, num(e)));
    let weak_scaling = obj(vec![
        ("workload", text(SWEEP_WORKLOAD)),
        ("monomers", Json::Arr(monomers)),
        ("e2e_definition", text(SWEEP_E2E)),
        ("rows", Json::Arr(ws.rows.iter().map(row).collect())),
        ("fitted_exponents", obj(exponents.collect())),
    ]);
    let speedup = |gflops: f64| num(gflops / gemm.unblocked_gflops);
    let gemm_doc = obj(vec![
        ("n", int(gemm.n)),
        ("microkernel", text(qp_linalg::gemm::active_microkernel())),
        ("unblocked_gflops", num(gemm.unblocked_gflops)),
        ("blocked_gflops", num(gemm.blocked_gflops)),
        ("parallel_gflops", num(gemm.parallel_gflops)),
        ("blocked_vs_unblocked", speedup(gemm.blocked_gflops)),
        ("parallel_vs_unblocked", speedup(gemm.parallel_gflops)),
    ]);
    let cases = cases.iter().map(ProfileReport::to_json).collect();
    obj(vec![
        ("schema", text("qp-bench-perf/v6")),
        ("quick", Json::Bool(quick)),
        ("pool_threads", int(threads)),
        ("weak_scaling", weak_scaling),
        ("gemm", gemm_doc),
        ("cases", Json::Arr(cases)),
    ])
}

/// The sweep's workload and what its `e2e` columns sum, as recorded in the
/// JSON.
const SWEEP_WORKLOAD: &str = "H(C2H4)_nH, coarse grid (n_radial=8, angular=6), light basis, \
                              screening on, farfield tree";
const SWEEP_E2E: &str = "e2e_s = build + sumup + h per cycle; e2e_full_s additionally includes \
                         the tree-mode rho (hierarchical multipole far field); rho_direct_s is \
                         the O(n^2) direct-path oracle at small n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let guard = args.iter().any(|a| a == "--guard");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());

    let threads = default_profile_threads();
    println!(
        "bench_perf: {} mode, parallel leg on {} pool thread(s)",
        if quick { "quick" } else { "full" },
        threads
    );

    if guard {
        run_phase_guard();
    }

    let gemm = gemm_numbers(if quick { 256 } else { 512 });
    println!(
        "GEMM n={} ({} microkernel): unblocked {:.2} GF/s, blocked {:.2} GF/s ({:.2}x), parallel {:.2} GF/s ({:.2}x)",
        gemm.n,
        qp_linalg::gemm::active_microkernel(),
        gemm.unblocked_gflops,
        gemm.blocked_gflops,
        gemm.blocked_gflops / gemm.unblocked_gflops,
        gemm.parallel_gflops,
        gemm.parallel_gflops / gemm.unblocked_gflops,
    );

    let ws = {
        // The sweep measures the parallel assembly path at the leg's
        // thread count, same as the cases.
        let _lease = qp_par::ThreadLease::exactly(threads);
        run_weak_scaling(quick)
    };
    if guard {
        run_scaling_guard(&ws, quick);
    }

    let specs = cases(quick);
    let reports: Vec<ProfileReport> = specs.iter().map(|spec| run_case(spec, threads)).collect();
    if guard {
        run_efficiency_guard(&specs, &reports, threads);
        run_ledger_guard(&reports);
    }
    let doc = bench_json(quick, threads, &gemm, &reports, &ws);
    std::fs::write(&out, format!("{doc:#}\n")).expect("write BENCH_perf.json");
    println!("wrote {out}");
}
