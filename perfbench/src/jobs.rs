//! One job from structure in hand to α, through the production entry
//! points: `System::build_with_modes` and its lazy set-up, `scf`, then the
//! three field directions through either the serial driver
//! (`dfpt_direction_with`) or the supervised SPMD driver
//! (`parallel_dfpt_direction_resilient`), and the α contraction.
//!
//! Every stage is timed from here, outside the program, and wrapped in a
//! benchmark span; the spans are inert unless the traced run arms the
//! `qp-trace` recorder.

use crate::mem;
use qp_chem::basis::BasisSettings;
use qp_chem::geometry::Structure;
use qp_chem::grids::GridSettings;
use qp_core::dfpt::dfpt_direction_with;
use qp_core::parallel::{CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::{
    parallel_dfpt_direction_resilient, properties, scf, DfptOptions, DfptShared, FarFieldMode,
    ResilienceConfig, ScfOptions, ScfResult, ScreeningMode, System,
};
use qp_linalg::DMatrix;
use qp_serve::JobResultData;
use qp_trace::{Phase, SpanGuard};
use std::time::Instant;

/// Everything that defines one job.
#[derive(Clone)]
pub struct Inputs {
    pub structure: Structure,
    pub basis: BasisSettings,
    pub grid: GridSettings,
    pub scf: ScfOptions,
    pub dfpt: DfptOptions,
    pub screening: ScreeningMode,
    pub farfield: FarFieldMode,
    /// `Some(n)`: DFPT over `n` in-process ranks under the supervisor, as
    /// `qperturb --ranks n` runs it; `None`: the serial driver.
    pub ranks: Option<usize>,
}

impl Inputs {
    /// `qperturb --builtin <builtin> --grid coarse [--smearing kT]
    /// [--ranks n]` with every other option at its default.
    pub fn coarse_builtin(builtin: &str, smearing: Option<f64>, ranks: Option<usize>) -> Self {
        let structure = match builtin.split_once(':') {
            Some(("polymer", n)) => {
                qp_chem::structures::polyethylene(n.parse().expect("chain length"))
            }
            _ if builtin == "ligand" => qp_chem::structures::ligand49(),
            _ => panic!("no job workload uses builtin '{builtin}'"),
        };
        Inputs {
            structure,
            basis: BasisSettings::Light,
            grid: GridSettings::coarse(),
            scf: ScfOptions {
                smearing,
                ..ScfOptions::default()
            },
            dfpt: DfptOptions::default(),
            screening: ScreeningMode::Auto,
            farfield: FarFieldMode::Auto,
            ranks,
        }
    }

    /// The job a validated serve request describes (the direct path the
    /// serve engine must agree with bit for bit).
    pub fn from_request(req: &qp_serve::JobRequest) -> Self {
        Inputs {
            structure: req.structure.clone(),
            basis: req.basis,
            grid: req.grid,
            scf: req.scf,
            dfpt: req.dfpt,
            screening: req.screening,
            farfield: req.farfield,
            ranks: None,
        }
    }
}

/// Wall time of each stage of one job, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `System::build_with_modes`.
    pub build_s: f64,
    /// `System::warm_tables` (every basis table, built up front).
    pub tables_s: f64,
    /// `System::hartree_plan` + `System::farfield_tree`.
    pub plan_s: f64,
    /// Ground-state SCF.
    pub scf_s: f64,
    /// Three DFPT directions and the α contraction.
    pub dfpt_s: f64,
}

impl Stages {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.tables_s + self.plan_s
    }

    pub fn job_s(&self) -> f64 {
        self.setup_s() + self.scf_s + self.dfpt_s
    }
}

/// Resident set (`VmRSS`, MB) at the benchmark's span boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemMarks {
    pub after_build_mb: f64,
    pub after_scf_mb: f64,
    pub after_dfpt_mb: f64,
}

/// What the supervised SPMD driver reports besides the physics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmdReport {
    /// Collective calls and per-rank payload bytes (rank 0's traffic log).
    pub comm_calls: u64,
    pub comm_bytes: u64,
    /// max / mean grid points per rank − 1, worst direction.
    pub points_imbalance: f64,
    pub checkpoints: usize,
    /// Size of the last checkpoint written, bytes.
    pub checkpoint_bytes: usize,
    pub restarts: usize,
}

/// A finished job: the result record plus what the ledger probes need.
pub struct Job {
    pub system: System,
    pub ground: ScfResult,
    /// `P¹` of the last direction — a response-sized probe input.
    pub p1: DMatrix,
    pub record: JobResultData,
    pub stages: Stages,
    pub mem: MemMarks,
    pub spmd: SpmdReport,
}

fn span(phase: Phase, name: &str) -> SpanGuard {
    SpanGuard::begin(qp_trace::thread_rank(), phase, format!("perfbench:{name}"))
}

fn timed<T>(phase: Phase, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = span(phase, name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn rss_mb() -> f64 {
    mem::read().map(|m| m.rss_mb).unwrap_or(f64::NAN)
}

/// Build the system and force the lazy set-up every job pays before SCF.
pub fn setup(inp: &Inputs) -> (System, Stages) {
    let (system, build_s) = timed(Phase::Other, "System::build_with_modes", || {
        System::build_with_modes(
            inp.structure.clone(),
            inp.basis,
            &inp.grid,
            200,
            4,
            inp.screening,
            inp.farfield,
        )
    });
    let ((), tables_s) = timed(Phase::Other, "System::warm_tables", || system.warm_tables());
    let ((), plan_s) = timed(Phase::Other, "System::hartree_plan+farfield_tree", || {
        system.hartree_plan();
        system.farfield_tree();
    });
    let stages = Stages {
        build_s,
        tables_s,
        plan_s,
        ..Stages::default()
    };
    (system, stages)
}

/// Run one job end to end.
pub fn run(inp: &Inputs) -> Result<Job, String> {
    let (system, mut stages) = setup(inp);
    let after_build_mb = rss_mb();
    let (ground, scf_s) = timed(Phase::Scf, "scf", || scf(&system, &inp.scf));
    let ground = ground.map_err(|e| format!("SCF failed: {e}"))?;
    stages.scf_s = scf_s;
    let after_scf_mb = rss_mb();
    let (response, dfpt_s) = timed(Phase::Dfpt, "dfpt", || match inp.ranks {
        None => serial_response(&system, &ground, &inp.dfpt),
        Some(n) => spmd_response(&system, &ground, &inp.dfpt, n),
    });
    let (alpha, dfpt_iterations, p1, spmd) = response?;
    stages.dfpt_s = dfpt_s;
    let mem = MemMarks {
        after_build_mb,
        after_scf_mb,
        after_dfpt_mb: rss_mb(),
    };
    let record = JobResultData {
        energy: ground.energy,
        scf_iterations: ground.iterations,
        dipole: properties::dipole_moment(&system, &ground),
        isotropic: properties::isotropic_polarizability(&alpha),
        anisotropy: properties::polarizability_anisotropy(&alpha),
        alpha,
        dfpt_iterations,
    };
    Ok(Job {
        system,
        ground,
        p1,
        record,
        stages,
        mem,
        spmd,
    })
}

type Response = (DMatrix, [usize; 3], DMatrix, SpmdReport);

/// The three directions through the serial driver, as `qp_core::dfpt`
/// runs them, with a span per direction.
fn serial_response(
    system: &System,
    ground: &ScfResult,
    opts: &DfptOptions,
) -> Result<Response, String> {
    let shared = DfptShared::new(system, ground);
    let mut alpha = DMatrix::zeros(3, 3);
    let mut iterations = [0usize; 3];
    let mut p1 = DMatrix::zeros(0, 0);
    for j in 0..3 {
        let resp = {
            let _span = span(Phase::Dfpt, &format!("dfpt_direction_with[{j}]"));
            dfpt_direction_with(system, ground, &shared, j, opts)
                .map_err(|e| format!("DFPT direction {j} failed: {e}"))?
        };
        for i in 0..3 {
            alpha[(i, j)] = resp
                .p1
                .trace_product(&shared.dips[i])
                .map_err(|e| e.to_string())?;
        }
        iterations[j] = resp.iterations;
        p1 = resp.p1;
    }
    Ok((alpha, iterations, p1, SpmdReport::default()))
}

/// The three directions through the supervised distributed driver, with
/// the configuration `qperturb --ranks n` uses (locality-enhancing
/// mapping, packed collectives, in-memory checkpoints every 5 iterations,
/// restart budget 3).
///
/// The pool is held at one thread per rank, as under `QP_THREADS=1`: the
/// ranks are the parallelism. Set-up and SCF before it keep the whole pool
/// (`QP_THREADS=1` would run them on one thread too); a one-thread SCF
/// times whichever core it lands on, and on a shared host with cores that
/// slow down one at a time its time spread twice as wide from run to run.
fn spmd_response(
    system: &System,
    ground: &ScfResult,
    opts: &DfptOptions,
    n_ranks: usize,
) -> Result<Response, String> {
    let _one_per_rank = qp_par::ThreadLease::exactly(1);
    let cfg = ParallelConfig {
        n_ranks,
        ranks_per_node: n_ranks,
        mapping: MappingKind::LocalityEnhancing,
        collectives: CollectiveScheme::Packed,
    };
    let rcfg = ResilienceConfig {
        checkpoint_interval: 5,
        max_restarts: 3,
        ..ResilienceConfig::default()
    };
    let dips: Vec<DMatrix> = (0..3)
        .map(|i| qp_core::operators::dipole_matrix(system, i))
        .collect();
    let mut alpha = DMatrix::zeros(3, 3);
    let mut iterations = [0usize; 3];
    let mut p1 = DMatrix::zeros(0, 0);
    let mut report = SpmdReport::default();
    for j in 0..3 {
        let out = {
            let _span = span(
                Phase::Dfpt,
                &format!("parallel_dfpt_direction_resilient[{j}]"),
            );
            parallel_dfpt_direction_resilient(system, ground, j, opts, &cfg, &rcfg)
                .map_err(|e| format!("parallel DFPT direction {j} failed: {e}"))?
        };
        let dir = out.direction;
        for i in 0..3 {
            alpha[(i, j)] = dir.p1.trace_product(&dips[i]).map_err(|e| e.to_string())?;
        }
        iterations[j] = dir.iterations;
        report.comm_calls += dir.traffic.len() as u64;
        report.comm_bytes += dir
            .traffic
            .iter()
            .map(|r| r.bytes_per_rank as u64)
            .sum::<u64>();
        let points = &dir.points_per_rank;
        let mean = points.iter().sum::<usize>() as f64 / points.len().max(1) as f64;
        let max = points.iter().copied().max().unwrap_or(0) as f64;
        report.points_imbalance = report.points_imbalance.max(max / mean - 1.0);
        report.checkpoints += out.stats.checkpoints_written;
        report.checkpoint_bytes = out.stats.checkpoint_bytes;
        report.restarts += out.stats.restarts;
        p1 = dir.p1;
    }
    Ok((alpha, iterations, p1, report))
}
