//! The two job workloads: `ligand49` and `spmd_polymer8`.
//!
//! Timed run: a few set-ups on their own (set-up is its own metric), then
//! whole jobs until the next one would end past `--seconds` (at least one).
//! Traced run: one untraced job, one job with the `qp-trace` recorder and
//! `qp-par` region telemetry armed, one job on a single pool thread, then
//! the layer probes on the traced job's converged inputs.

use crate::jobs::{self, Inputs, Job, Stages};
use crate::layers::Layers;
use crate::ledger::{self, Calls, Iterations, LayerMs, RhoProbe};
use crate::stats::median;
use crate::{mem, reference, EndToEnd, Report};
use qp_serve::json::parse;
use qp_serve::JobResultData;
use qp_trace::MetricValue;
use std::path::Path;
use std::time::Instant;

/// Set-ups timed on their own before the jobs.
const SETUP_REPS: usize = 5;

struct Spec {
    builtin: &'static str,
    smearing: Option<f64>,
    ranks: Option<usize>,
    /// Key of the reference record in `reference.json`.
    reference: &'static str,
    /// The serve request describing the same job (for the serve-layer
    /// probes).
    request: &'static str,
}

fn spec(name: &str) -> Spec {
    match name {
        "ligand49" => Spec {
            builtin: "ligand",
            smearing: Some(0.02),
            ranks: None,
            reference: "ligand49",
            request: r#"{"molecule":{"builtin":"ligand"},"grid":{"preset":"coarse"},"scf":{"smearing":0.02}}"#,
        },
        // Integer occupations: smeared `--ranks 2` does not reproduce the
        // serial α (see README), so the serial record is the reference.
        "spmd_polymer8" => Spec {
            builtin: "polymer:8",
            smearing: None,
            ranks: Some(2),
            reference: "polymer8",
            request: r#"{"molecule":{"builtin":"polymer:8"},"grid":{"preset":"coarse"}}"#,
        },
        other => panic!("'{other}' is not a job workload"),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn run(name: &str, seconds: f64, trace: bool, out: &Path) -> Result<Report, String> {
    let spec = spec(name);
    let inputs = Inputs::coarse_builtin(spec.builtin, spec.smearing, spec.ranks);
    let reference = reference::record(spec.reference);
    // The pool runs at nproc threads; the SPMD DFPT narrows it to one
    // thread per rank (see `jobs::spmd_response`).
    qp_par::set_active_threads(nproc());
    if trace {
        traced(name, &spec, &inputs, &reference, out)
    } else {
        timed(&inputs, &reference, seconds)
    }
}

/// Run one job and check it against the reference; the job comes back
/// (for its timings) even when its α misses the reference.
fn checked(
    report: &mut Report,
    inputs: &Inputs,
    reference: &JobResultData,
    what: &str,
) -> Option<Job> {
    match jobs::run(inputs) {
        Ok(job) => {
            let verdict = reference::check(reference, job.record.energy, &job.record.alpha);
            report.outcome(what, verdict);
            Some(job)
        }
        Err(e) => {
            report.outcome(what, Err(e));
            None
        }
    }
}

fn timed(inputs: &Inputs, reference: &JobResultData, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let start = Instant::now();
    let mut setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| jobs::setup(inputs).1.setup_s())
        .collect();
    let mut done: Vec<Stages> = Vec::new();
    loop {
        let t = Instant::now();
        if let Some(job) = checked(&mut report, inputs, reference, "job") {
            let s = &job.stages;
            eprintln!(
                "perfbench: job {}: setup {:.3} s, scf {:.3} s, dfpt {:.3} s",
                done.len(),
                s.setup_s(),
                s.scf_s,
                s.dfpt_s
            );
            setup.push(job.stages.setup_s());
            done.push(job.stages);
        }
        // Start another job only if it should end within the run.
        let took = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    if done.is_empty() {
        return Err("no job completed".into());
    }
    let of = |f: fn(&Stages) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    EndToEnd {
        job_s: of(Stages::job_s),
        setup_s: median(&setup),
        scf_s: of(|s| s.scf_s),
        dfpt_s: of(|s| s.dfpt_s),
        peak_rss_mb: mem::read()?.peak_mb,
    }
    .emit(&mut report);
    Ok(report)
}

/// Sum of a counter over all its label sets in the global registry.
pub fn counter_total(name: &str) -> u64 {
    qp_trace::global_metrics()
        .snapshot()
        .iter()
        .filter(|s| s.key.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// The counters the traced leg reads, as totals.
#[derive(Clone, Copy)]
struct Counters {
    gemm_flops: u64,
    gemm_bytes: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl Counters {
    fn read() -> Self {
        let (hits, misses, evictions) = qp_core::basis_cache::cache_counters();
        Counters {
            gemm_flops: counter_total("linalg.gemm.flops"),
            gemm_bytes: counter_total("linalg.gemm.bytes"),
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
        }
    }
}

/// Drain the recorded spans into `out/<workload>.trace.json`.
pub fn write_trace(out: &Path, workload: &str) -> Result<(), String> {
    let events = qp_trace::span::take_events();
    let path = out.join(format!("{workload}.trace.json"));
    std::fs::write(&path, qp_trace::chrome_trace_json(&events))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        events.len(),
        path.display()
    );
    Ok(())
}

fn traced(
    name: &str,
    spec: &Spec,
    inputs: &Inputs,
    reference: &JobResultData,
    out: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let base = checked(&mut report, inputs, reference, "untraced job")
        .ok_or("untraced job failed")?
        .stages;

    qp_trace::set_enabled(true);
    qp_par::telemetry::set_enabled(true);
    qp_par::telemetry::take_records();
    let before = Counters::read();
    let job = checked(&mut report, inputs, reference, "traced job");
    let after = Counters::read();
    let regions = qp_par::telemetry::take_records();
    qp_par::telemetry::set_enabled(false);
    qp_trace::set_enabled(false);
    write_trace(out, name)?;
    let job = job.ok_or("traced job failed")?;

    let one_thread = {
        let _lease = qp_par::ThreadLease::exactly(1);
        checked(&mut report, inputs, reference, "1-thread job")
            .ok_or("1-thread job failed")?
            .stages
    };

    let request = parse(spec.request).map_err(|e| format!("request template: {e}"))?;
    let probe = ledger::probe(&job.system, &job.ground, &job.p1, &request, out)?;
    let it = Iterations::of(&job.record);
    let calls = Calls::of(it, inputs.ranks);
    let ms = LayerMs::of(&probe, &calls);

    let mut l = Layers::default();
    let job_ms = base.job_s() * 1e3;
    let share = |x: f64| x / job_ms;
    let setup_share = base.setup_s() / base.job_s();
    l.set("system.build_s", job.stages.build_s);
    l.set("system.tables_s", job.stages.tables_s);
    l.set("system.plan_s", job.stages.plan_s);
    l.set("setup.share", setup_share);
    probe_layers(&mut l, &probe, &calls, &ms, share);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let lookups = hits + (after.cache_misses - before.cache_misses) as f64;
    l.set("basis_cache.hit_rate", hits / lookups.max(1.0));
    l.set(
        "basis_cache.evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    let flops = (after.gemm_flops - before.gemm_flops) as f64;
    l.set("gemm.flops", flops);
    l.set("gemm.bytes", (after.gemm_bytes - before.gemm_bytes) as f64);
    l.set("scf.iterations", it.scf as f64);
    l.set("dfpt.iterations", it.dfpt_total() as f64);
    l.set("par.regions", regions.len() as f64);
    l.set(
        "par.inline_regions",
        regions.iter().filter(|r| r.inline).count() as f64,
    );
    l.set(
        "par.queue_wait_ms",
        regions.iter().map(|r| r.queue_wait_ns as f64).sum::<f64>() / 1e6,
    );
    l.set("par.speedup", one_thread.job_s() / base.job_s());
    l.set("comm.calls", job.spmd.comm_calls as f64);
    l.set("comm.bytes", job.spmd.comm_bytes as f64);
    l.set(
        "spmd.iter_ms",
        base.dfpt_s * 1e3 / it.dfpt_total().max(1) as f64,
    );
    l.set("spmd.points_imbalance", job.spmd.points_imbalance);
    l.set("ckpt.writes", job.spmd.checkpoints as f64);
    l.set(
        "ckpt.bytes",
        (job.spmd.checkpoints * job.spmd.checkpoint_bytes) as f64,
    );
    l.set("resil.restarts", job.spmd.restarts as f64);
    l.set("serve.jobs_per_s", 0.0);
    l.set("serve.cache_hit_rate", 0.0);
    l.set("serve.queue_wait_ms", 0.0);
    l.set("serve.preemptions", 0.0);
    l.set("serve.hit_p50_ms", 0.0);
    l.set("serve.p90_s", 0.0);
    l.set("mem.after_build_mb", job.mem.after_build_mb);
    l.set("mem.after_scf_mb", job.mem.after_scf_mb);
    l.set("mem.after_dfpt_mb", job.mem.after_dfpt_mb);
    l.set("other.share", 1.0 - setup_share - share(ms.total()));
    l.set("trace.overhead", job.stages.job_s() / base.job_s() - 1.0);
    l.emit(&mut report);
    Ok(report)
}

/// The probe-derived metrics every workload reports the same way.
pub fn probe_layers(
    l: &mut Layers,
    p: &ledger::Probe,
    calls: &Calls,
    ms: &LayerMs,
    share: impl Fn(f64) -> f64,
) {
    l.set("sumup.call_ms", p.sumup_ms);
    l.set("sumup.calls", calls.sumup.round());
    l.set("sumup.share", share(ms.sumup));
    // Per-solve times: the SCF and DFPT probes weighted by their solves.
    let rho = RhoProbe::blend(&p.rho_scf, calls.solves_scf, &p.rho_dfpt, calls.solves_dfpt);
    l.set("rho.moments_ms", rho.moments_ms);
    l.set("rho.poisson_ms", rho.poisson_ms);
    l.set("rho.eval_ms", rho.eval_ms);
    l.set("rho.calls", calls.solves().round());
    l.set("rho.share", share(ms.rho));
    l.set("farfield.aggregate_ms", rho.ff_aggregate_ms);
    l.set("farfield.eval_ms", rho.ff_eval_ms);
    l.set("farfield.share", share(ms.farfield));
    l.set("h.call_ms", p.h_ms);
    l.set("h.calls", calls.h.round());
    l.set("h.share", share(ms.h));
    l.set("eigen.call_ms", p.eigen_ms);
    l.set("eigen.calls", calls.eigen.round());
    l.set("eigen.share", share(ms.eigen));
    l.set("dm.call_ms", p.dm_ms);
    l.set("dm.calls", calls.dm.round());
    l.set("dm.share", share(ms.dm));
    l.set("gemm.gflops", p.gemm_gflops);
    l.set("sternheimer.call_ms", p.sternheimer_ms);
    l.set("sternheimer.calls", calls.sternheimer.round());
    l.set("sternheimer.share", share(ms.sternheimer));
    l.set("mixing.call_ms", p.mixing_ms);
    l.set("mixing.share", share(ms.mixing));
    l.set("comm.allreduce_ms", p.allreduce_ms);
    l.set("ckpt.save_ms", p.ckpt_save_ms);
    l.set("ckpt.load_ms", p.ckpt_load_ms);
    l.set("serve.parse_us", p.parse_us);
    l.set("serve.cache_get_us", p.cache_get_us);
}
