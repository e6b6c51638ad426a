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
//! runs, and writes a file only with `--out` (a full run defaults to
//! `BENCH_perf.json`). Each case runs through the profiler that `qperturb --profile`
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
//! 1. the phase check, on the full run's ligand-49 case: its Sternheimer
//!    self-time must stay under a generous multiple of its Sumup self-time
//!    — past it the O(n⁴) pair-loop has replaced the GEMM-form response
//!    build (exit 3) — and its Rho self-time under its own multiple of
//!    Sumup — past it region coarsening or the fused super-batches have
//!    regressed (exit 6);
//! 2. the end-to-end check: any case whose parallel leg is slower than
//!    `serial × (1 + slack)` is profiled twice more, and fails (exit 4)
//!    if the median parallel/serial ratio of its three pairs is still
//!    over `1 + slack`; the JSON records that median pair. The slack is 0.0 on hosts with ≥ 2 cores — a
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
//! The phase and ledger checks read the profiled ligand-49 job, so a quick
//! run, which has no ligand-49 case, skips them and says so.
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
use qp_core::dfpt::DfptOptions;
use qp_core::operators;
use qp_core::profile::default_profile_threads;
use qp_core::scf::ScfOptions;
use qp_core::system::System;
use qp_core::{profile_case, FarFieldMode, Job, ProfileReport, ScreeningMode};
use qp_grid::farfield_tol;
use qp_linalg::DMatrix;
use qp_trace::json::{obj, Json};

struct CaseSpec {
    name: &'static str,
    build: fn() -> System,
    /// SCF + DFPT; fewer field directions (`1` = y) keep quick mode cheap.
    job: Job,
}

fn polymer_system() -> System {
    // H(C2H4)4H: 26 atoms — big enough to spread over many grid batches.
    workloads::bench_polymer_system(26)
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
                build: workloads::bench_water_system,
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
                build: workloads::bench_ligand_system,
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
/// over the polymer sweep (exit 7): past it the per-batch subsets have
/// stopped pruning.
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
/// median parallel/serial ratio is still over `1 + slack`. The case's
/// report becomes the pair whose ratio is that median, so the file records
/// the pair the guard decided on.
fn run_efficiency_guard(specs: &[CaseSpec], results: &mut [ProfileReport], threads: usize) {
    let slack = e2e_slack();
    for (spec, c) in specs.iter().zip(results.iter_mut()) {
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
            let ratio = |r: &ProfileReport| r.parallel_total_s / r.serial_total_s;
            let mut pairs = vec![c.clone()];
            while pairs.len() < E2E_PAIRS {
                pairs.push(run_case(spec, threads));
            }
            pairs.sort_by(|x, y| ratio(x).total_cmp(&ratio(y)));
            let ratios: Vec<f64> = pairs.iter().map(ratio).collect();
            let median = ratios[E2E_PAIRS / 2];
            *c = pairs.swap_remove(E2E_PAIRS / 2);
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
                     (slack {:.0}%); the median pair's attribution: {:.1}% serial, {:.1}% \
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

/// Bound on a case's Sternheimer self-time, as a multiple of
/// max(Sumup, [`PHASE_FLOOR_S`]) (exit 3). The GEMM-form response build is
/// two Level-3 products, far cheaper than Sumup's grid contraction: the
/// ligand-49 rows of `BENCH_perf.json` put it at 0.62× Sumup (v6) and
/// 0.57× (v7).
const STERNHEIMER_FACTOR: f64 = 5.0;

/// Bound on a case's Rho self-time, as a multiple of max(Sumup,
/// [`PHASE_FLOOR_S`]) (exit 6). The multipole Poisson solve sits between
/// Sumup and H on the same grid data: the ligand-49 rows of
/// `BENCH_perf.json` put it at 1.04× Sumup (v6 and v7), so only a
/// structural regression (per-point region dispatch, lost fusion) trips it.
const RHO_FACTOR: f64 = 6.0;

/// Floor under the Sumup self-time the phase bounds scale with, so timer
/// noise on a fast Sumup cannot trip them.
const PHASE_FLOOR_S: f64 = 0.05;

/// Share of the parallel wall the phase self-times must add up to (exit 12).
const LEDGER_MIN: f64 = 0.95;

/// Share of the parallel wall the `scf` and `other` rows may each hold
/// (exit 12): above it, the SCF's own work has left its phase spans.
const BUCKET_MAX: f64 = 0.10;

/// A `--guard` check that failed: the exit code that reports it, and why.
struct Violation {
    exit: i32,
    why: String,
}

/// Self-seconds of `phase` in a case's ledger (0 when no span ran).
fn self_s(c: &ProfileReport, phase: &str) -> f64 {
    c.phases
        .iter()
        .find(|p| p.phase == phase)
        .map_or(0.0, |p| p.self_s)
}

/// The phase check: the Sternheimer (exit 3) and Rho (exit 6) self-times
/// within their multiples of max(Sumup, [`PHASE_FLOOR_S`]). A pass returns
/// the line that reports it.
fn phase_check(c: &ProfileReport) -> Result<String, Violation> {
    let sumup = self_s(c, "sumup");
    let mut line = format!("phase guard {}: sumup {sumup:.3}s", c.case);
    for (phase, factor, exit, cause) in [
        (
            "sternheimer",
            STERNHEIMER_FACTOR,
            3,
            "the O(n4) pair-loop is back",
        ),
        (
            "rho",
            RHO_FACTOR,
            6,
            "region coarsening or Rho fusion has regressed",
        ),
    ] {
        let (t, limit) = (self_s(c, phase), factor * sumup.max(PHASE_FLOOR_S));
        if t > limit {
            let why = format!(
                "{phase} phase regression — {t:.3}s exceeds {factor}x max(sumup, \
                 {PHASE_FLOOR_S}s) = {limit:.3}s; {cause}"
            );
            return Err(Violation { exit, why });
        }
        line += &format!(", {phase} {t:.3}s (limit {limit:.3}s)");
    }
    Ok(line)
}

/// The ledger check (exit 12): the phase rows add up to the wall within
/// [`LEDGER_MIN`], and the catch-all `scf` and `other` rows each stay
/// under [`BUCKET_MAX`] of it. A pass returns the line that reports it.
fn ledger_check(c: &ProfileReport) -> Result<String, Violation> {
    let wall = c.parallel_total_s;
    let attributed: f64 = c.phases.iter().map(|p| p.self_s).sum();
    let (scf, other) = (self_s(c, "scf") / wall, self_s(c, "other") / wall);
    let summary = format!(
        "the phase rows explain {attributed:.3}s of the {wall:.3}s wall (min {:.0}%), \
         {:.1}% in scf and {:.1}% in other (max {:.0}%)",
        100.0 * LEDGER_MIN,
        100.0 * scf,
        100.0 * other,
        100.0 * BUCKET_MAX,
    );
    if attributed < LEDGER_MIN * wall || scf > BUCKET_MAX || other > BUCKET_MAX {
        let why = format!("ledger regression — {summary}; work has left the phase spans");
        return Err(Violation { exit: 12, why });
    }
    Ok(format!("ledger guard {}: {summary}", c.case))
}

/// The `--guard` phase and ledger checks on the ligand-49 case of the full
/// run (exits 3, 6 and 12). Quick runs have no ligand-49 case and skip
/// them.
fn run_report_guards(results: &[ProfileReport]) {
    let Some(c) = results.iter().find(|c| c.case == "ligand49") else {
        println!("phase guard: skipped (no ligand49 case in a quick run)");
        println!("ledger guard: skipped (no ligand49 case in a quick run)");
        return;
    };
    for check in [phase_check, ledger_check] {
        match check(c) {
            Ok(line) => println!("{line}"),
            Err(v) => {
                eprintln!("bench_perf: ligand49: {}", v.why);
                std::process::exit(v.exit);
            }
        }
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
        println!(
            "weak-scaling n={n}: {} atoms, {} basis, screened e2e {:.3}s, \
             rho(tree) {rho_tree_s:.3}s{}",
            sys.structure.len(),
            sys.n_basis(),
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
    let blocked = time_best(reps, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    });
    let parallel = time_best(reps, || {
        std::hint::black_box(a.par_matmul(&b).unwrap());
    });
    GemmNumbers {
        n,
        blocked_gflops: flops / blocked / 1e9,
        parallel_gflops: flops / parallel / 1e9,
    }
}

/// The `qp-bench-perf/v7` document; each `cases[]` entry is that case's
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
    let gemm_doc = obj(vec![
        ("n", int(gemm.n)),
        ("microkernel", text(qp_linalg::gemm::active_microkernel())),
        ("blocked_gflops", num(gemm.blocked_gflops)),
        ("parallel_gflops", num(gemm.parallel_gflops)),
    ]);
    let cases = cases.iter().map(ProfileReport::to_json).collect();
    obj(vec![
        ("schema", text("qp-bench-perf/v7")),
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
    // A quick run writes a file only when asked to: its water/polymer:2
    // document must not replace the full run's BENCH_perf.json.
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| (!quick).then(|| "BENCH_perf.json".to_string()));

    let threads = default_profile_threads();
    println!(
        "bench_perf: {} mode, parallel leg on {} pool thread(s)",
        if quick { "quick" } else { "full" },
        threads
    );

    let gemm = gemm_numbers(if quick { 256 } else { 512 });
    println!(
        "GEMM n={} ({} microkernel): blocked {:.2} GF/s, parallel {:.2} GF/s",
        gemm.n,
        qp_linalg::gemm::active_microkernel(),
        gemm.blocked_gflops,
        gemm.parallel_gflops,
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
    let mut reports: Vec<ProfileReport> =
        specs.iter().map(|spec| run_case(spec, threads)).collect();
    if guard {
        run_efficiency_guard(&specs, &mut reports, threads);
        run_report_guards(&reports);
    }
    match out {
        Some(out) => {
            let doc = bench_json(quick, threads, &gemm, &reports, &ws);
            std::fs::write(&out, format!("{doc:#}\n")).expect("write BENCH_perf.json");
            println!("wrote {out}");
        }
        None => println!("quick run: no --out given, nothing written"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_core::profile::PhaseRow;

    /// A report whose phase ledger is `rows` over a `wall_s` parallel wall.
    fn report(wall_s: f64, rows: &[(&str, f64)]) -> ProfileReport {
        let row = |&(phase, self_s): &(&str, f64)| PhaseRow {
            phase: phase.to_string(),
            self_s,
            ..PhaseRow::default()
        };
        ProfileReport {
            parallel_total_s: wall_s,
            phases: rows.iter().map(row).collect(),
            ..ProfileReport::default()
        }
    }

    /// Just past `x`.
    fn past(x: f64) -> f64 {
        x * (1.0 + 1e-9)
    }

    #[test]
    fn committed_ligand49_rows_pass() {
        // The ligand49 case of BENCH_perf.json at qp-bench-perf/v6 (2 pool
        // threads): Sternheimer 0.62x and Rho 1.04x Sumup, the rows 99.9 %
        // of the wall.
        let rows = [
            ("eigen", 0.30861),
            ("h", 0.17394),
            ("rho", 0.15826),
            ("sumup", 0.15292),
            ("sternheimer", 0.09505),
            ("mixing", 0.03590),
            ("dm", 0.03387),
            ("scf", 0.01417),
            ("xc", 0.01175),
            ("comm", 0.00524),
            ("dfpt", 0.00249),
        ];
        let c = report(0.99292, &rows);
        assert!(phase_check(&c).is_ok() && ledger_check(&c).is_ok());
    }

    #[test]
    fn each_phase_bound_trips_just_past_its_limit() {
        // Sumup 0.2 s scales the bounds; Sumup 0.01 s sits under the floor,
        // which scales them instead.
        for (sumup, scale) in [(0.2, 0.2), (0.01, PHASE_FLOOR_S)] {
            for (phase, factor, code) in [
                ("sternheimer", STERNHEIMER_FACTOR, 3),
                ("rho", RHO_FACTOR, 6),
            ] {
                let limit = factor * scale;
                let at = report(10.0, &[("sumup", sumup), (phase, limit)]);
                assert!(phase_check(&at).is_ok(), "{phase} at its limit");
                let over = report(10.0, &[("sumup", sumup), (phase, past(limit))]);
                assert_eq!(
                    phase_check(&over).map_err(|v| v.exit).err(),
                    Some(code),
                    "{phase}"
                );
            }
        }
    }

    #[test]
    fn each_ledger_bound_trips_just_past_its_limit() {
        let wall = 2.0;
        let attributed = LEDGER_MIN * wall;
        let exit = |rows: &[(&str, f64)]| ledger_check(&report(wall, rows)).err().map(|v| v.exit);
        assert_eq!(exit(&[("h", attributed)]), None);
        assert_eq!(exit(&[("h", attributed * (1.0 - 1e-9))]), Some(12));
        for bucket in ["scf", "other"] {
            let at = BUCKET_MAX * wall;
            assert_eq!(exit(&[("h", attributed), (bucket, at)]), None, "{bucket}");
            assert_eq!(
                exit(&[("h", attributed), (bucket, past(at))]),
                Some(12),
                "{bucket}"
            );
        }
    }
}
