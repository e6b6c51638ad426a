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
use qp_chem::geometry::Structure;
use qp_chem::grids::GridSettings;
use qp_chem::structures::Builtin;
use qp_core::parallel::{CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::{
    check_solver_options, CoreError, DfptOptions, FarFieldMode, Job, JobError, JobState,
    ResilienceConfig, ScfOptions, ScreeningMode, System,
};
use qp_resil::FaultPlan;
use qp_trace::{qp_error, qp_info, qp_warn};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    input: Option<String>,
    builtin: Option<String>,
    basis: BasisSettings,
    grid: GridSettings,
    /// The solver options and the directions (`--no-dfpt` clears them).
    job: Job,
    profile: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    ranks: Option<usize>,
    /// Checkpoint cadence and restart budget.
    resilience: ResilienceConfig,
    /// Where the job writes its resume record, `job.qpck`.
    checkpoint_dir: Option<PathBuf>,
    /// Resume from that record.
    restart: bool,
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
                           occupation_type, DFPT keyword): it sets the base
                           values, and the flags given on the command line
                           override them wherever --control appears
  --basis <light|tier2>    NAO basis setting          (default light)
  --grid <light|coarse>    integration grid           (default light)
  --scf-tol <x>            SCF density tolerance      (default 1e-8)
  --scf-mixing <x>         SCF linear-mixing factor   (default 0.35)
  --smearing <kT>          Fermi-Dirac smearing, Ha   (default off; an
                           odd electron count needs it)
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
  --checkpoint-dir <dir>   write the job's QPCK resume record to
                           <dir>/job.qpck (not with --profile)
  --checkpoint-interval <k>  checkpoint every k iterations  (default 5)
  --restart                resume from <dir>/job.qpck; a record of another
                           job is refused
  --max-restarts <n>       restart budget on rank failure (default 3)

environment:
  QP_LOG=error|warn|info|debug   output verbosity (default info)
  QP_TRACE=<path>, QP_METRICS=<path>   same as --trace / --metrics
  QP_FAULT=<plan>   seeded deterministic fault injection, e.g.
                    'seed=1;crash:rank=1,iter=3' — see qp-resil for the
                    crash/stall grammar"
    );
    std::process::exit(2)
}

/// The value `text` of flag `name`, or the usage text.
fn parsed<T: std::str::FromStr>(name: &str, text: String) -> T
where
    T::Err: std::fmt::Display,
{
    text.parse().unwrap_or_else(|e| {
        qp_error!("{name} '{text}': {e}");
        usage()
    })
}

/// Parse the command line (without the program name). A `--control` deck
/// sets the base values wherever it appears, and the flags override them;
/// the error is a deck that cannot be read or parsed.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        input: None,
        builtin: None,
        basis: BasisSettings::Light,
        grid: GridSettings::light(),
        job: Job::new(ScfOptions::default(), DfptOptions::default()),
        profile: None,
        trace: None,
        metrics: None,
        ranks: None,
        resilience: ResilienceConfig::with_interval(5),
        checkpoint_dir: None,
        restart: false,
        result_json: None,
        screening: ScreeningMode::Auto,
        farfield: FarFieldMode::Auto,
    };
    let deck = argv.iter().rposition(|a| a == "--control");
    if let Some(path) = deck.and_then(|i| argv.get(i + 1)) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("error: {path}: {e}"))?;
        let ctl = control::parse_control(&text).map_err(|e| format!("error: {e}"))?;
        for line in &ctl.ignored {
            qp_warn!("control.in: ignoring '{line}'");
        }
        args.job = Job::new(ctl.scf, ctl.dfpt);
        if !ctl.run_dfpt {
            args.job.dirs.clear();
        }
        args.screening = ctl.screening;
    }
    let mut it = argv.iter().cloned();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                qp_error!("missing value for {arg}");
                usage()
            })
        };
        match arg.as_str() {
            "--builtin" => args.builtin = Some(value()),
            // Read above, before the flags.
            "--control" => drop(value()),
            "--basis" => {
                args.basis = match value().as_str() {
                    "light" => BasisSettings::Light,
                    "tier2" => BasisSettings::Tier2,
                    other => {
                        qp_error!("unknown basis '{other}'");
                        usage()
                    }
                }
            }
            "--grid" => {
                args.grid = match value().as_str() {
                    "light" => GridSettings::light(),
                    "coarse" => GridSettings::coarse(),
                    other => {
                        qp_error!("unknown grid '{other}'");
                        usage()
                    }
                }
            }
            "--scf-tol" => args.job.scf.tol = parsed(&arg, value()),
            "--scf-mixing" => args.job.scf.mixing = parsed(&arg, value()),
            "--smearing" => args.job.scf.smearing = Some(parsed(&arg, value())),
            "--no-pulay" => args.job.scf.pulay = None,
            "--dfpt-tol" => args.job.dfpt.tol = parsed(&arg, value()),
            "--dfpt-mixing" => args.job.dfpt.mixing = parsed(&arg, value()),
            "--no-dfpt" => args.job.dirs.clear(),
            "--screening" => args.screening = parsed(&arg, value()),
            "--farfield" => args.farfield = parsed(&arg, value()),
            "--profile" => args.profile = Some(value()),
            "--trace" => args.trace = Some(value()),
            "--metrics" => args.metrics = Some(value()),
            "--ranks" => args.ranks = Some(parsed::<NonZeroUsize>(&arg, value()).get()),
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value())),
            "--checkpoint-interval" => args.resilience.checkpoint_interval = parsed(&arg, value()),
            "--restart" => args.restart = true,
            "--result-json" => args.result_json = Some(value()),
            "--max-restarts" => args.resilience.max_restarts = parsed(&arg, value()),
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
    if args.profile.is_some() && args.checkpoint_dir.is_some() {
        // The profiler runs the job twice from the start: it would write
        // the record twice and could not resume from it.
        qp_error!("--profile takes no --checkpoint-dir");
        usage()
    }
    Ok(args)
}

fn load_structure(args: &Args) -> Result<Structure, String> {
    if let Some(b) = &args.builtin {
        return b
            .parse::<Builtin>()
            .map(Builtin::structure)
            .map_err(|e| e.to_string());
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

/// A failed job's error, with the hint that fits it.
fn job_failure(e: JobError) -> String {
    let hint = match (e.dir, &e.error) {
        (None, _) => "hint: try --smearing 0.02 and/or a smaller --scf-mixing",
        (Some(_), CoreError::NoConvergence { .. } | CoreError::NonFinite { .. }) => {
            "hint: near-metallic systems need a smaller --dfpt-mixing"
        }
        (Some(_), _) => return e.to_string(),
    };
    format!("{e}\n{hint}")
}

/// The job to run: the parsed one, with DFPT through the distributed
/// self-recovering driver when `--ranks` or `QP_FAULT` asks for it, and its
/// resume record written to `<dir>/job.qpck` under `--checkpoint-dir`; and
/// the fault plan.
fn resolve_job(args: &Args) -> Result<(Job, Option<Arc<FaultPlan>>), String> {
    let fault = FaultPlan::from_env().map_err(|e| format!("QP_FAULT: {e}"))?;
    if args.restart && args.checkpoint_dir.is_none() {
        return Err("--restart requires --checkpoint-dir".into());
    }
    let mut job = args.job.clone();
    if let Some(d) = &args.checkpoint_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("--checkpoint-dir {}: {e}", d.display()))?;
        job.checkpoint = Some((d.join("job.qpck"), args.resilience.checkpoint_interval));
    }
    if args.ranks.is_some() || fault.is_some() {
        let n_ranks = args.ranks.unwrap_or(4);
        let cfg = ParallelConfig {
            n_ranks,
            ranks_per_node: n_ranks,
            mapping: MappingKind::LocalityEnhancing,
            collectives: CollectiveScheme::Packed,
        };
        let rcfg = ResilienceConfig {
            fault: fault.clone().map(|p| p as Arc<dyn qp_resil::FaultHook>),
            ..args.resilience.clone()
        };
        job.ranks = Some((cfg, rcfg));
    }
    Ok((job, fault))
}

/// The state the job `args` runs on `structure` starts from: under
/// `--restart`, its `record` if there is one, refused unless it carries
/// this job's content key (the one qp-serve's cache and job records use);
/// else a fresh state with that key.
fn start_state(
    args: &Args,
    structure: &Structure,
    record: Option<&Path>,
) -> Result<JobState, String> {
    let (scf, dfpt) = (&args.job.scf, &args.job.dfpt);
    let canonical = qp_serve::request::canonical(structure, args.basis, &args.grid, scf, dfpt);
    let key = qp_serve::request::content_key(&canonical);
    let Some(path) = record.filter(|p| args.restart && p.exists()) else {
        return Ok(JobState {
            key,
            ..JobState::default()
        });
    };
    let state = JobState::load(path).map_err(|e| format!("--restart {}: {e}", path.display()))?;
    if state.key != key {
        return Err(format!(
            "--restart {}: the record belongs to another job (molecule, basis, grid or \
             solver options differ)",
            path.display()
        ));
    }
    qp_info!("resuming from {}", path.display());
    Ok(state)
}

fn run(args: &Args) -> Result<(), String> {
    // The deck and the flags are merged: refuse what the solver cannot
    // run, as a usage error.
    if let Err(e) = check_solver_options(&args.job.scf, &args.job.dfpt) {
        qp_error!("invalid solver option: {e}");
        usage()
    }
    // Environment hooks first, explicit flags override.
    qp_trace::init_from_env();
    if let Some(path) = &args.trace {
        qp_trace::set_trace_path(path);
    }
    if let Some(path) = &args.metrics {
        qp_trace::set_metrics_path(path);
    }
    let structure = load_structure(args).map_err(|e| format!("error: {e}"))?;
    qp_info!("qperturb — all-electron DFPT");
    qp_info!(
        "structure: {} atoms, {} electrons",
        structure.len(),
        structure.num_electrons()
    );
    let (job, fault) = resolve_job(args)?;
    let build = || {
        System::for_job(
            structure.clone(),
            args.basis,
            &args.grid,
            args.screening,
            args.farfield,
        )
    };
    if let Some(base) = &args.profile {
        return run_profile(args, &build, &job, base);
    }
    if job.dirs.is_empty() && args.result_json.is_some() {
        return Err("--result-json requires the DFPT phase (drop --no-dfpt)".into());
    }
    let record = job.checkpoint.as_ref().map(|(path, _)| path.as_path());
    let mut state = start_state(args, &structure, record)?;
    let t0 = std::time::Instant::now();
    let system = build();
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

    let out = job
        .run_with(&system, &mut state, &mut |_| true)
        .map_err(job_failure)?
        .expect("a hook that never stops never preempts");
    let ground = &out.ground;
    let n_occ = system.n_occupied();
    // Every orbital is occupied when the basis has no more functions than
    // occupied orbitals (a single smeared H atom): there is no LUMO then.
    let lumo = ground
        .eigenvalues
        .get(n_occ)
        .map_or(String::new(), |e| format!(", LUMO {e:.4}"));
    qp_info!(
        "SCF: {} iterations, E = {:.6} Ha, HOMO {:.4}{lumo}  [{:.1?}]",
        ground.iterations,
        ground.energy,
        ground.eigenvalues[n_occ - 1],
        Duration::from_secs_f64(out.scf_s)
    );
    let mu = out.dipole;
    qp_info!("dipole: [{:.4}, {:.4}, {:.4}] a.u.", mu[0], mu[1], mu[2]);
    if job.dirs.is_empty() {
        return Ok(());
    }

    if let Some((cfg, rcfg)) = &job.ranks {
        qp_info!(
            "DFPT: supervised, {} ranks, checkpoint every {}, restart budget {}",
            cfg.n_ranks,
            rcfg.checkpoint_interval,
            rcfg.max_restarts
        );
    }
    let (mut restarts, mut checkpoints) = (0, 0);
    for (j, stats) in job.dirs.iter().zip(&out.dfpt_recovery) {
        for ev in &stats.events {
            qp_warn!("direction {j}: {ev}");
        }
        restarts += stats.restarts;
        checkpoints += stats.checkpoints_written;
    }
    if restarts > 0 {
        qp_info!("recovered from {restarts} rank failure(s) via checkpoint restart");
    }
    if checkpoints > 0 {
        qp_info!("DFPT checkpoints: {checkpoints} written");
    }
    for ev in fault.iter().flat_map(|plan| plan.events()) {
        qp_info!("injected fault fired: {ev}");
    }
    qp_info!(
        "DFPT: {:?} iterations per direction  [{:.1?}]",
        out.dfpt_iterations,
        Duration::from_secs_f64(out.dfpt_s)
    );
    let record = qp_serve::JobResultData::from(&out);
    serve_cli::print_polarizability(&record);
    if let Some(path) = &args.result_json {
        std::fs::write(path, record.to_json().to_string() + "\n")
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        qp_info!("result record written to {path}");
    }
    Ok(())
}

/// `--profile <base>`: run the parallel-efficiency profiler on the job and
/// write `<base>.json` (qp-profile/v1 attribution report) and
/// `<base>.folded` (flamegraph-compatible collapsed stacks).
fn run_profile(
    args: &Args,
    build: &dyn Fn() -> System,
    job: &Job,
    base: &str,
) -> Result<(), String> {
    let name = args
        .builtin
        .as_ref()
        .or(args.input.as_ref())
        .expect("input or builtin");
    let threads = qp_core::profile::default_profile_threads();
    qp_info!(
        "profiling '{name}': serial reference + {threads}-thread instrumented leg \
         ({} GEMM microkernel)",
        qp_linalg::gemm::active_microkernel()
    );
    let report = qp_core::profile_case(name, build, job, threads).map_err(job_failure)?;
    print!("{}", report.render_text());
    let json_path = format!("{base}.json");
    let folded_path = format!("{base}.folded");
    std::fs::write(&json_path, report.to_json())
        .map_err(|e| format!("failed to write {json_path}: {e}"))?;
    std::fs::write(&folded_path, &report.folded)
        .map_err(|e| format!("failed to write {folded_path}: {e}"))?;
    qp_info!("profile written to {json_path} and {folded_path}");
    Ok(())
}

fn main() -> ExitCode {
    // Serving subcommands route around the classic single-run argument
    // grammar entirely.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some(cmd @ ("serve" | "submit" | "wait" | "stats" | "preempt" | "shutdown")) => {
            qp_trace::init_from_env();
            serve_cli::run(cmd, &argv[1..])
        }
        _ => match parse_args(&argv).and_then(|args| run(&args)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                qp_error!("{e}");
                ExitCode::FAILURE
            }
        },
    };
    finish_observability();
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_override_the_control_deck() {
        let deck = std::env::temp_dir().join(format!("qperturb-deck-{}.in", std::process::id()));
        std::fs::write(
            &deck,
            "xc pw-lda\nsc_accuracy_rho 1e-6\nDFPT polarizability\n",
        )
        .unwrap();
        let strings = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let base = ["--builtin", "water", "--control", deck.to_str().unwrap()];
        let flags = [
            "--smearing",
            "0.02",
            "--dfpt-tol",
            "1e-3",
            "--screening",
            "on",
        ];

        // The flags win on either side of --control.
        for argv in [
            [&base[..], &flags[..]].concat(),
            [&flags[..], &base[..]].concat(),
        ] {
            let args = parse_args(&strings(&argv)).unwrap();
            assert_eq!(args.job.scf.smearing, Some(0.02));
            assert_eq!(args.job.dfpt.tol, 1e-3);
            assert_eq!(args.screening, ScreeningMode::On);
            // A keyword only the deck sets still applies.
            assert_eq!(args.job.scf.tol, 1e-6);
            assert_eq!(args.job.dirs, [0, 1, 2]);
        }

        // Without the flags, the deck's values stand.
        let args = parse_args(&strings(&base)).unwrap();
        assert_eq!(args.job.scf.smearing, None);
        assert_eq!(args.job.dfpt.tol, DfptOptions::default().tol);
        assert_eq!(args.screening, ScreeningMode::Auto);
        assert_eq!(args.job.scf.tol, 1e-6);

        std::fs::remove_file(&deck).ok();
        assert!(
            parse_args(&strings(&base)).is_err(),
            "a missing deck is an error"
        );
    }

    /// `--restart` resumes from the job's own record and refuses, naming
    /// the file, one keyed to another molecule or grid.
    #[test]
    fn restart_accepts_only_the_jobs_own_record() {
        let path =
            std::env::temp_dir().join(format!("qperturb-restart-{}.qpck", std::process::id()));
        let start = |argv: &str| {
            let args = parse_args(&argv.split(' ').map(String::from).collect::<Vec<_>>()).unwrap();
            start_state(&args, &load_structure(&args).unwrap(), Some(&path))
        };
        let water = "--builtin water --grid coarse --restart";
        let fresh = start(water).unwrap();
        fresh.save(&path).unwrap();
        assert_eq!(start(water).unwrap(), fresh);
        for other in [
            "--builtin polymer:1 --grid coarse --restart",
            "--builtin water --grid light --restart",
        ] {
            let err = start(other).unwrap_err();
            assert!(err.contains(&path.display().to_string()), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solver_options_are_checked_once_the_deck_and_flags_merge() {
        let deck = std::env::temp_dir().join(format!("qperturb-bad-{}.in", std::process::id()));
        let refused = |deck_text: &str, flags: &[&str]| {
            std::fs::write(&deck, deck_text).unwrap();
            let mut argv = vec!["--builtin", "water", "--control", deck.to_str().unwrap()];
            argv.extend_from_slice(flags);
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let args = parse_args(&argv).unwrap();
            check_solver_options(&args.job.scf, &args.job.dfpt)
                .err()
                .map(|e| e.option)
        };
        assert_eq!(refused("", &[]), None, "the defaults run");
        assert_eq!(refused("", &["--smearing", "0"]), Some("scf.smearing"));
        assert_eq!(refused("", &["--dfpt-mixing", "0"]), Some("dfpt.mixing"));
        assert_eq!(refused("", &["--dfpt-tol", "-1"]), Some("dfpt.tol"));
        assert_eq!(refused("", &["--scf-tol", "nan"]), Some("scf.tol"));
        assert_eq!(refused("", &["--scf-mixing", "1.5"]), Some("scf.mixing"));
        assert_eq!(
            refused("occupation_type gaussian 0\n", &[]),
            Some("scf.smearing")
        );
        assert_eq!(refused("dfpt_mixing 0\n", &[]), Some("dfpt.mixing"));
        assert_eq!(refused("sc_iter_limit 0\n", &[]), Some("scf.max_iter"));
        // A flag overrides the bad deck value before the check.
        assert_eq!(refused("dfpt_mixing 0\n", &["--dfpt-mixing", "0.5"]), None);
        std::fs::remove_file(&deck).ok();
    }
}
