//! `qperturb` — command-line all-electron DFPT, the analog of the paper's
//! `aims.191127.scalapack.mpi.x` workflow: read a geometry, run the DFT
//! phase, run the DFPT phase, report polarizability and derived properties.
//!
//! ```text
//! qperturb geometry.in                 # FHI-aims format (Å)
//! qperturb molecule.xyz --basis tier2  # XYZ format
//! qperturb --builtin water --dfpt-tol 1e-8
//! qperturb --builtin water --trace trace.json --metrics metrics.csv
//! ```
//!
//! Output verbosity follows `QP_LOG={error,warn,info,debug}` (default
//! `info`, which matches the historical output exactly). `--trace` /
//! `--metrics` (or the `QP_TRACE` / `QP_METRICS` environment variables)
//! write a Chrome trace-event timeline and a metrics dump on exit.

mod control;
mod serve_cli;

use qp_chem::basis::BasisSettings;
use qp_chem::grids::GridSettings;
use qp_core::parallel::{CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::resil::scf_checkpointed;
use qp_core::{
    dfpt, properties, scf, DfptOptions, FarFieldMode, ResilienceConfig, ScfOptions, ScfResult,
    ScreeningMode, System,
};
use qp_trace::{qp_error, qp_info, qp_warn};
use std::path::PathBuf;
use std::process::ExitCode;

/// What to try when the ground state does not converge.
const SCF_HINT: &str = "hint: try --smearing 0.02 and/or a smaller --scf-mixing";

struct Args {
    input: Option<String>,
    control: Option<String>,
    builtin: Option<String>,
    basis: BasisSettings,
    grid: GridSettings,
    scf: ScfOptions,
    dfpt_opts: DfptOptions,
    skip_dfpt: bool,
    profile: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    ranks: Option<usize>,
    ranks_per_node: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_interval: usize,
    restart: bool,
    max_restarts: usize,
    result_json: Option<String>,
    screening: ScreeningMode,
    farfield: FarFieldMode,
}

fn usage() -> ! {
    qp_error!(
        "usage: qperturb <geometry.in|molecule.xyz> [options]
       qperturb --builtin <water|ligand|polymer:N|helix:N> [options]

options:
  --control <control.in>   FHI-aims control deck (xc, tolerances, mixer,
                           occupation_type, DFPT keyword)
  --basis <light|tier2>    NAO basis setting          (default light)
  --grid <light|coarse>    integration grid           (default light)
  --scf-tol <x>            SCF density tolerance      (default 1e-8)
  --scf-mixing <x>         SCF linear-mixing factor   (default 0.35)
  --smearing <kT>          Fermi-Dirac smearing, Ha   (default off)
  --no-pulay               disable DIIS acceleration
  --dfpt-tol <x>           DFPT tolerance             (default 1e-7)
  --dfpt-mixing <x>        DFPT mixing                (default 0.6)
  --no-dfpt                stop after the ground state
  --screening <on|off|auto>  cutoff-sphere screened assembly (default auto:
                           on from 16 atoms; bit-identical either way)
  --farfield <direct|tree|auto>  Hartree far-field evaluation: exact
                           per-atom sum or hierarchical cluster-tree
                           multipoles within QP_FARFIELD_TOL (default
                           auto: tree from 96 atoms)
  --profile <base>         parallel-efficiency profile: run a 1-thread
                           reference plus an instrumented parallel leg,
                           print the wall-clock decomposition and write
                           <base>.json + <base>.folded (flamegraph stacks)
  --trace <out.json>       write a Chrome trace-event timeline on exit
  --metrics <out.json|csv> write the metrics registry snapshot on exit
  --result-json <file>     write the run's result record (energy, dipole,
                           polarizability) in the canonical JSON form —
                           byte-comparable with 'qperturb submit --json'

serving (see 'qperturb serve --help' pattern below):
  qperturb serve [--addr A] [--state-dir D] [--workers N] [--slice-ms M]
  qperturb submit [--addr A] (--builtin M | geometry file) [--tenant T]
                  [--basis B] [--grid G] [--scf-tol X] [--dfpt-tol X]
                  [--threads N] [--cache-bypass] [--no-wait] [--stream]
                  [--json]
  qperturb wait --job N [--addr A] [--stream]
  qperturb stats | preempt --job N | shutdown   [--addr A]

resilience (distributed DFPT + checkpoint/restart):
  --ranks <N>              run DFPT over N in-process MPI ranks under a
                           self-recovering supervisor
  --ranks-per-node <M>     ranks per simulated node   (default: all on one)
  --checkpoint-dir <dir>   mirror QPCK checkpoints of the SCF and DFPT
                           state to <dir>
  --checkpoint-interval <k>  checkpoint every k iterations  (default 5)
  --restart                resume from the checkpoints in --checkpoint-dir
  --max-restarts <n>       restart budget on rank failure (default 3)

environment:
  QP_LOG=error|warn|info|debug   output verbosity (default info)
  QP_TRACE=<path>, QP_METRICS=<path>   same as --trace / --metrics
  QP_FAULT=<plan>   seeded deterministic fault injection, e.g.
                    'seed=1;crash:rank=1,iter=3' — see qp-resil for the
                    crash/stall/drop/corrupt grammar"
    );
    std::process::exit(2)
}

/// A count that must be at least 1, or the usage text.
fn at_least_one(name: &str, text: String) -> usize {
    match text.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            qp_error!("{name} needs a count of at least 1, not '{text}'");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        input: None,
        control: None,
        builtin: None,
        basis: BasisSettings::Light,
        grid: GridSettings::light(),
        scf: ScfOptions::default(),
        dfpt_opts: DfptOptions::default(),
        skip_dfpt: false,
        profile: None,
        trace: None,
        metrics: None,
        ranks: None,
        ranks_per_node: None,
        checkpoint_dir: None,
        checkpoint_interval: 5,
        restart: false,
        max_restarts: 3,
        result_json: None,
        screening: ScreeningMode::Auto,
        farfield: FarFieldMode::Auto,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                qp_error!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--builtin" => args.builtin = Some(value("--builtin")),
            "--control" => args.control = Some(value("--control")),
            "--basis" => {
                args.basis = match value("--basis").as_str() {
                    "light" => BasisSettings::Light,
                    "tier2" => BasisSettings::Tier2,
                    other => {
                        qp_error!("unknown basis '{other}'");
                        usage()
                    }
                }
            }
            "--grid" => {
                args.grid = match value("--grid").as_str() {
                    "light" => GridSettings::light(),
                    "coarse" => GridSettings::coarse(),
                    other => {
                        qp_error!("unknown grid '{other}'");
                        usage()
                    }
                }
            }
            "--scf-tol" => args.scf.tol = value("--scf-tol").parse().unwrap_or_else(|_| usage()),
            "--scf-mixing" => {
                args.scf.mixing = value("--scf-mixing").parse().unwrap_or_else(|_| usage())
            }
            "--smearing" => {
                args.scf.smearing = Some(value("--smearing").parse().unwrap_or_else(|_| usage()))
            }
            "--no-pulay" => args.scf.pulay = None,
            "--dfpt-tol" => {
                args.dfpt_opts.tol = value("--dfpt-tol").parse().unwrap_or_else(|_| usage())
            }
            "--dfpt-mixing" => {
                args.dfpt_opts.mixing = value("--dfpt-mixing").parse().unwrap_or_else(|_| usage())
            }
            "--no-dfpt" => args.skip_dfpt = true,
            "--screening" => {
                args.screening = value("--screening").parse().unwrap_or_else(|e: String| {
                    qp_error!("{e}");
                    usage()
                })
            }
            "--farfield" => {
                args.farfield = value("--farfield").parse().unwrap_or_else(|e: String| {
                    qp_error!("{e}");
                    usage()
                })
            }
            "--profile" => args.profile = Some(value("--profile")),
            "--trace" => args.trace = Some(value("--trace")),
            "--metrics" => args.metrics = Some(value("--metrics")),
            "--ranks" => args.ranks = Some(at_least_one("--ranks", value("--ranks"))),
            "--ranks-per-node" => {
                args.ranks_per_node =
                    Some(at_least_one("--ranks-per-node", value("--ranks-per-node")))
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")))
            }
            "--checkpoint-interval" => {
                args.checkpoint_interval = value("--checkpoint-interval")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--restart" => args.restart = true,
            "--result-json" => args.result_json = Some(value("--result-json")),
            "--max-restarts" => {
                args.max_restarts = value("--max-restarts").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                qp_error!("unknown option '{other}'");
                usage()
            }
            path => args.input = Some(path.to_string()),
        }
    }
    if args.input.is_none() && args.builtin.is_none() {
        usage()
    }
    args
}

fn load_structure(args: &Args) -> Result<qp_chem::geometry::Structure, String> {
    if let Some(b) = &args.builtin {
        let (name, param) = match b.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (b.as_str(), None),
        };
        return match name {
            "water" => Ok(qp_chem::structures::water()),
            "ligand" => Ok(qp_chem::structures::ligand49()),
            "polymer" => {
                let n: usize = param.unwrap_or("10").parse().map_err(|e| format!("{e}"))?;
                Ok(qp_chem::structures::polyethylene(n))
            }
            "helix" => {
                let n: usize = param.unwrap_or("10").parse().map_err(|e| format!("{e}"))?;
                Ok(qp_chem::structures::helix(n))
            }
            other => Err(format!("unknown builtin '{other}'")),
        };
    }
    let path = args.input.as_ref().expect("input or builtin");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".xyz") {
        qp_chem::io::parse_xyz(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        qp_chem::io::parse_geometry_in(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Flush any scheduled trace/metrics files, logging where they landed.
fn finish_observability() {
    match qp_trace::finish() {
        Ok(Some(path)) => qp_info!("trace written to {path}"),
        Ok(None) => {}
        Err(e) => qp_warn!("failed to write trace/metrics: {e}"),
    }
}

fn run(args: &Args) -> ExitCode {
    let structure = match load_structure(args) {
        Ok(s) => s,
        Err(e) => {
            qp_error!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    qp_info!("qperturb — all-electron DFPT");
    qp_info!(
        "structure: {} atoms, {} electrons",
        structure.len(),
        structure.num_electrons()
    );
    if let Some(base) = &args.profile {
        return run_profile(args, structure, base);
    }
    let t0 = std::time::Instant::now();
    let system = System::build_with_modes(
        structure,
        args.basis,
        &args.grid,
        200,
        4,
        args.screening,
        args.farfield,
    );
    qp_info!(
        "system: {} basis functions, {} grid points, {} batches  [{:.1?}]",
        system.n_basis(),
        system.n_points(),
        system.batches.len(),
        t0.elapsed()
    );
    if let Some(plan) = system.screen() {
        qp_info!(
            "screening: {} of {} atom pairs survive ({:.1}% fill)",
            plan.neighbours.n_pairs(),
            system.structure.len() * system.structure.len(),
            100.0 * plan.fill_ratio()
        );
    }
    if let Some(tree) = system.farfield_tree() {
        qp_info!(
            "farfield: hierarchical tree, {} cluster nodes over {} atoms \
             (tol {:.1e})",
            tree.nodes.len(),
            tree.natoms(),
            qp_grid::farfield_tol()
        );
    }

    // Resilience layer: QP_FAULT injection, QPCK checkpoints, supervised
    // restart. Any of the knobs routes DFPT through the distributed
    // self-recovering driver.
    let fault = match qp_resil::FaultPlan::from_env() {
        Ok(f) => f,
        Err(e) => {
            qp_error!("QP_FAULT: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.restart && args.checkpoint_dir.is_none() {
        qp_error!("--restart requires --checkpoint-dir");
        return ExitCode::FAILURE;
    }
    if let Some(d) = &args.checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            qp_error!("--checkpoint-dir {}: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }
    let rcfg = ResilienceConfig {
        checkpoint_dir: args.checkpoint_dir.clone(),
        checkpoint_interval: args.checkpoint_interval,
        max_restarts: args.max_restarts,
        restart: args.restart,
        fault: fault
            .clone()
            .map(|p| p as std::sync::Arc<dyn qp_resil::FaultHook>),
        ..ResilienceConfig::default()
    };
    let checkpointing = args.checkpoint_dir.is_some();

    let t1 = std::time::Instant::now();
    let scf_out = if checkpointing {
        scf_checkpointed(&system, &args.scf, &rcfg).map(|(g, stats)| (g, Some(stats)))
    } else {
        scf(&system, &args.scf).map(|g| (g, None))
    };
    let (ground, scf_stats): (ScfResult, Option<qp_resil::RecoveryStats>) = match scf_out {
        Ok(g) => g,
        Err(e) => {
            qp_error!("SCF failed: {e}");
            qp_error!("{SCF_HINT}");
            return ExitCode::FAILURE;
        }
    };
    let n_occ = system.n_occupied();
    qp_info!(
        "SCF: {} iterations, E = {:.6} Ha, HOMO {:.4}, LUMO {:.4}  [{:.1?}]",
        ground.iterations,
        ground.energy,
        ground.eigenvalues[n_occ - 1],
        ground.eigenvalues[n_occ],
        t1.elapsed()
    );
    if let Some(stats) = &scf_stats {
        if stats.checkpoints_written > 0 {
            qp_info!(
                "SCF checkpoints: {} written ({} bytes)",
                stats.checkpoints_written,
                stats.checkpoint_bytes
            );
        }
    }
    let mu = properties::dipole_moment(&system, &ground);
    qp_info!("dipole: [{:.4}, {:.4}, {:.4}] a.u.", mu[0], mu[1], mu[2]);

    if args.skip_dfpt {
        if args.result_json.is_some() {
            qp_error!("--result-json requires the DFPT phase (drop --no-dfpt)");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let resilient_dfpt = args.ranks.is_some() || fault.is_some() || checkpointing;
    let t2 = std::time::Instant::now();
    let (alpha, iterations) = if resilient_dfpt {
        let n_ranks = args.ranks.unwrap_or(4);
        let cfg = ParallelConfig {
            n_ranks,
            ranks_per_node: args.ranks_per_node.unwrap_or(n_ranks).min(n_ranks),
            mapping: MappingKind::LocalityEnhancing,
            collectives: CollectiveScheme::Packed,
        };
        qp_info!(
            "DFPT: supervised, {} ranks ({} per node), checkpoint every {}, restart budget {}",
            cfg.n_ranks,
            cfg.ranks_per_node,
            args.checkpoint_interval,
            args.max_restarts
        );
        match dfpt_resilient(&system, &ground, &args.dfpt_opts, &cfg, &rcfg) {
            Ok(out) => out,
            Err(e) => {
                qp_error!("DFPT failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match dfpt(&system, &ground, &args.dfpt_opts) {
            Ok(r) => (r.polarizability, r.iterations),
            Err(e) => {
                qp_error!("DFPT failed: {e}");
                qp_error!("hint: near-metallic systems need a smaller --dfpt-mixing");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(plan) = &fault {
        for ev in plan.events() {
            qp_info!("injected fault fired: {ev}");
        }
    }
    qp_info!(
        "DFPT: {:?} iterations per direction  [{:.1?}]",
        iterations,
        t2.elapsed()
    );
    qp_info!("polarizability tensor (Bohr^3):");
    for i in 0..3 {
        qp_info!(
            "  [ {:10.4} {:10.4} {:10.4} ]",
            alpha[(i, 0)],
            alpha[(i, 1)],
            alpha[(i, 2)]
        );
    }
    qp_info!(
        "isotropic: {:.4} Bohr^3, anisotropy: {:.4} Bohr^3",
        properties::isotropic_polarizability(&alpha),
        properties::polarizability_anisotropy(&alpha)
    );
    if let Some(path) = &args.result_json {
        let isotropic = properties::isotropic_polarizability(&alpha);
        let anisotropy = properties::polarizability_anisotropy(&alpha);
        let record = qp_serve::JobResultData {
            energy: ground.energy,
            scf_iterations: ground.iterations,
            dipole: mu,
            alpha,
            dfpt_iterations: iterations,
            isotropic,
            anisotropy,
        };
        let body = record.to_json().to_string() + "\n";
        if let Err(e) = std::fs::write(path, body) {
            qp_error!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        qp_info!("result record written to {path}");
    }
    ExitCode::SUCCESS
}

/// `--profile <base>`: run the parallel-efficiency profiler on the loaded
/// structure and write `<base>.json` (qp-profile/v1 attribution report) and
/// `<base>.folded` (flamegraph-compatible collapsed stacks).
fn run_profile(args: &Args, structure: qp_chem::geometry::Structure, base: &str) -> ExitCode {
    let opts = qp_core::ProfileOptions {
        dirs: if args.skip_dfpt {
            Vec::new()
        } else {
            vec![0, 1, 2]
        },
        scf: args.scf,
        dfpt: args.dfpt_opts,
        ..qp_core::ProfileOptions::new()
    };
    let name = args
        .builtin
        .clone()
        .or_else(|| args.input.clone())
        .unwrap_or_else(|| "case".to_string());
    qp_info!(
        "profiling '{name}': serial reference + {}-thread instrumented leg \
         ({} GEMM microkernel)",
        opts.threads,
        qp_linalg::gemm::active_microkernel()
    );
    let (basis, grid, screening, farfield) = (args.basis, args.grid, args.screening, args.farfield);
    let build = move || {
        System::build_with_modes(structure.clone(), basis, &grid, 200, 4, screening, farfield)
    };
    let report = match qp_core::profile_case(&name, &build, &opts) {
        Ok(r) => r,
        Err(e) => {
            qp_error!("SCF failed: {e}");
            qp_error!("{SCF_HINT}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    let json_path = format!("{base}.json");
    let folded_path = format!("{base}.folded");
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        qp_error!("failed to write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&folded_path, &report.folded) {
        qp_error!("failed to write {folded_path}: {e}");
        return ExitCode::FAILURE;
    }
    qp_info!("profile written to {json_path} and {folded_path}");
    ExitCode::SUCCESS
}

/// All three field directions through the supervised distributed driver,
/// with the recovery story reported on the way out.
fn dfpt_resilient(
    system: &System,
    ground: &ScfResult,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
    rcfg: &ResilienceConfig,
) -> Result<(qp_linalg::DMatrix, [usize; 3]), qp_core::CoreError> {
    let dips: Vec<_> = (0..3)
        .map(|i| qp_core::operators::dipole_matrix(system, i))
        .collect();
    let mut alpha = qp_linalg::DMatrix::zeros(3, 3);
    let mut iterations = [0usize; 3];
    let mut restarts = 0;
    let mut checkpoints = 0;
    for j in 0..3 {
        let out = qp_core::parallel_dfpt_direction_resilient(system, ground, j, opts, cfg, rcfg)?;
        for i in 0..3 {
            alpha[(i, j)] = out.direction.p1.trace_product(&dips[i])?;
        }
        iterations[j] = out.direction.iterations;
        restarts += out.stats.restarts;
        checkpoints += out.stats.checkpoints_written;
        for ev in &out.stats.events {
            qp_warn!("direction {j}: {ev}");
        }
    }
    if restarts > 0 {
        qp_info!("recovered from {restarts} rank failure(s) via checkpoint restart");
    }
    if checkpoints > 0 {
        qp_info!("DFPT checkpoints: {checkpoints} written");
    }
    Ok((alpha, iterations))
}

fn main() -> ExitCode {
    // Serving subcommands route around the classic single-run argument
    // grammar entirely.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(cmd) = argv.first().map(String::as_str) {
        if matches!(
            cmd,
            "serve" | "submit" | "wait" | "stats" | "preempt" | "shutdown"
        ) {
            qp_trace::init_from_env();
            let code = serve_cli::run(cmd, &argv[1..]);
            finish_observability();
            return code;
        }
    }
    let mut args = parse_args();
    // Environment hooks first, explicit flags override.
    qp_trace::init_from_env();
    if let Some(path) = args.trace.clone() {
        qp_trace::set_enabled(true);
        qp_trace::set_trace_path(&path);
    }
    if let Some(path) = args.metrics.clone() {
        qp_trace::set_metrics_path(&path);
    }
    if let Some(path) = args.control.clone() {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                qp_error!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match control::parse_control(&text) {
            Ok(ctl) => {
                args.scf = ctl.scf;
                args.dfpt_opts = ctl.dfpt;
                args.skip_dfpt = !ctl.run_dfpt;
                args.screening = ctl.screening;
                for line in &ctl.ignored {
                    qp_warn!("control.in: ignoring '{line}'");
                }
            }
            Err(e) => {
                qp_error!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let code = run(&args);
    finish_observability();
    code
}
