//! Parallel-efficiency attribution: *why* a parallel run took as long as it
//! did, not just how long.
//!
//! [`profile_case`] runs a [`Job`] twice — a 1-thread serial reference and
//! an instrumented parallel leg — and decomposes the parallel wall clock
//! into four exhaustive, mutually exclusive buckets built from the qp-par
//! [`RegionRecord`]s:
//!
//! * **useful parallel work** — mean per-thread busy time of each region
//!   (`Σ busy / threads`): the part that actually scales;
//! * **imbalance** — `max_busy − mean_busy` per region: threads idling at
//!   region barriers while the slowest lane finishes;
//! * **scheduling overhead** — `wall − max_busy` per region: enqueue/wakeup
//!   latency, chunk-claim contention, drain; plus the raw `setup` and
//!   `queue-wait` components reported alongside;
//! * **serial remainder** — wall time outside any parallel region (including
//!   regions that collapsed to inline execution).
//!
//! The four fractions sum to 1 by construction, so a report can *name* the
//! dominant reason a case does not scale (for the tracked 0.91× ligand-49
//! "speedup" on a 1-core host: scheduling overhead + imbalance from
//! oversubscription, not a serial bottleneck). Per-phase rows pair span
//! self-times with the qp-linalg roofline counters to show achieved GFLOP/s
//! and arithmetic intensity where the flops actually run. The report also
//! carries the job's own numbers — grid points, SCF iterations, the α
//! diagonal and the basis-cache counters — so `bench_perf` records its
//! cases straight from it.

use crate::job::{Job, JobError};
use crate::system::System;
use qp_par::{RegionRecord, ThreadLease};
use qp_trace::json::{self, obj, Json};
use qp_trace::metrics::{MetricSample, MetricValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parallel-leg width: the pool's width (`QP_THREADS` if set, else
/// available parallelism), clamped to ≥ 2 so the parallel machinery is
/// actually exercised.
pub fn default_profile_threads() -> usize {
    qp_par::active_threads().max(2)
}

/// One bar of the region grain-size histogram.
#[derive(Debug, Clone)]
pub struct GrainBucket {
    /// Inclusive upper bound of the bucket (powers of two).
    pub grain_le: usize,
    /// Parallel (non-inline) regions whose grain fell in this bucket.
    pub regions: usize,
}

/// The wall-clock decomposition of a parallel leg.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Wall time outside any parallel region / total.
    pub serial_fraction: f64,
    /// Region setup + queue + drain latency / total.
    pub scheduling_overhead_fraction: f64,
    /// Barrier idling behind the slowest lane / total.
    pub imbalance_fraction: f64,
    /// Mean per-thread busy time / total.
    pub useful_parallel_fraction: f64,
    /// The largest non-useful bucket: `"serial-fraction"`,
    /// `"scheduling-overhead"` or `"imbalance"`.
    pub dominant_cause: &'static str,
    /// Parallel (fanned-out, non-nested) regions.
    pub regions: usize,
    /// Regions that collapsed to inline execution.
    pub inline_regions: usize,
    /// Regions submitted from inside another region's chunk.
    pub nested_regions: usize,
    /// Total caller-side region setup, seconds.
    pub setup_s: f64,
    /// Total enqueue→first-claim latency, seconds.
    pub queue_wait_s: f64,
    /// Grain-size distribution of the parallel regions.
    pub grain_histogram: Vec<GrainBucket>,
}

/// Decompose `parallel_total_s` of wall clock using the region records of
/// the same run. Only top-level fanned-out regions participate: nested
/// regions are part of their parent's busy time, and inline regions are
/// serial time that never left the caller. The four fractions are
/// normalized over their own sum, so they always total exactly 1; the
/// denominator differs from `parallel_total_s` only by clock-skew clamps
/// (components are individually clamped at ≥ 0).
pub fn attribute(records: &[RegionRecord], parallel_total_s: f64, threads: usize) -> Attribution {
    let threads = threads.max(1);
    let mut region_wall_ns = 0u64;
    let mut useful_ns = 0.0f64;
    let mut imbalance_ns = 0.0f64;
    let mut overhead_ns = 0.0f64;
    let mut setup_ns = 0u64;
    let mut queue_wait_ns = 0u64;
    let mut regions = 0usize;
    let mut inline_regions = 0usize;
    let mut nested_regions = 0usize;
    let mut grains: BTreeMap<usize, usize> = BTreeMap::new();

    for r in records {
        if r.nested {
            nested_regions += 1;
            continue;
        }
        if r.inline || r.caller_only {
            // Ran on the caller without fan-out — whether it never left the
            // caller (`inline`) or was enqueued but drained entirely by the
            // submitter before any worker arrived (`caller_only`). Either
            // way the work is de-facto serial: it stays in the serial
            // remainder (we don't subtract its wall below), and its setup
            // must not be billed as parallel scheduling overhead.
            inline_regions += 1;
            continue;
        }
        regions += 1;
        region_wall_ns += r.wall_ns;
        setup_ns += r.setup_ns;
        queue_wait_ns += r.queue_wait_ns;
        // Lanes that never claimed a chunk contribute 0 busy time but are
        // still part of the mean: the region held `threads` lanes hostage.
        let lanes = r.threads.max(1) as f64;
        let mean = r.total_busy_ns() as f64 / lanes;
        let max = r.max_busy_ns() as f64;
        useful_ns += mean;
        imbalance_ns += (max - mean).max(0.0);
        overhead_ns += (r.wall_ns as f64 - max).max(0.0);
        *grains
            .entry(r.grain.max(1).next_power_of_two())
            .or_insert(0) += 1;
    }

    let total_ns = parallel_total_s * 1e9;
    let serial_ns = (total_ns - region_wall_ns as f64).max(0.0);
    let denom = serial_ns + useful_ns + imbalance_ns + overhead_ns;
    let denom = if denom > 0.0 { denom } else { 1.0 };

    let serial_fraction = serial_ns / denom;
    let scheduling_overhead_fraction = overhead_ns / denom;
    let imbalance_fraction = imbalance_ns / denom;
    let useful_parallel_fraction = useful_ns / denom;

    let dominant_cause = if serial_fraction >= scheduling_overhead_fraction
        && serial_fraction >= imbalance_fraction
    {
        "serial-fraction"
    } else if scheduling_overhead_fraction >= imbalance_fraction {
        "scheduling-overhead"
    } else {
        "imbalance"
    };

    let _ = threads; // width is carried by the records themselves
    Attribution {
        serial_fraction,
        scheduling_overhead_fraction,
        imbalance_fraction,
        useful_parallel_fraction,
        dominant_cause,
        regions,
        inline_regions,
        nested_regions,
        setup_s: setup_ns as f64 / 1e9,
        queue_wait_s: queue_wait_ns as f64 / 1e9,
        grain_histogram: grains
            .into_iter()
            .map(|(grain_le, regions)| GrainBucket { grain_le, regions })
            .collect(),
    }
}

/// One pipeline phase of the parallel leg: where the time went and what the
/// flops achieved there.
#[derive(Debug, Clone, Default)]
pub struct PhaseRow {
    /// Phase tag (`"rho"`, `"sternheimer"`, ...).
    pub phase: String,
    /// Span **self** time: wall seconds exclusively inside this phase.
    pub self_s: f64,
    /// GEMM/matvec, Hartree-evaluation and potential-matrix flops issued
    /// while a thread carried this label.
    pub flops: u64,
    /// Compulsory bytes of those calls.
    pub bytes: u64,
    /// Achieved flops / self time.
    pub gflops: f64,
    /// flops / bytes, the roofline x-coordinate.
    pub intensity: f64,
}

/// Resident bytes of a system's geometry-derived tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resident {
    /// The Hartree plan's tables.
    pub hartree_plan_bytes: usize,
    /// The kept per-batch basis tables.
    pub basis_table_bytes: usize,
}

/// A complete profile of one case.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Case name.
    pub case: String,
    /// Parallel-leg thread count.
    pub threads: usize,
    /// Atoms in the structure.
    pub atoms: usize,
    /// Basis functions.
    pub basis: usize,
    /// Integration grid points.
    pub grid_points: usize,
    /// Ground-state SCF iterations of the parallel leg.
    pub scf_iterations: usize,
    /// The field directions run, in the job's order.
    pub dirs: Vec<usize>,
    /// `α_dd` (Bohr³) of each direction in `dirs`.
    pub alpha_diag: Vec<f64>,
    /// Basis-cache hits, misses and evictions of the parallel leg's job.
    pub basis_cache: (u64, u64, u64),
    /// Bytes the parallel leg's system keeps resident after the job: the
    /// Hartree plan's tables (0 when it was not built) and the kept basis
    /// tables.
    pub resident: Resident,
    /// 1-thread reference wall, seconds.
    pub serial_total_s: f64,
    /// Parallel-leg wall, seconds.
    pub parallel_total_s: f64,
    /// SCF wall within the parallel leg, seconds.
    pub scf_s: f64,
    /// DFPT wall within the parallel leg, seconds.
    pub dfpt_s: f64,
    /// The four-way wall-clock decomposition.
    pub attribution: Attribution,
    /// Per-phase self time + roofline, sorted by descending self time.
    pub phases: Vec<PhaseRow>,
    /// Flamegraph-compatible collapsed stacks of the parallel leg.
    pub folded: String,
}

impl ProfileReport {
    /// End-to-end speedup of the parallel leg over the serial reference.
    pub fn speedup(&self) -> f64 {
        self.serial_total_s / self.parallel_total_s
    }

    /// Basis-cache hits over all lookups of the parallel leg (0 without
    /// lookups).
    fn cache_hit_rate(&self) -> f64 {
        let (hits, misses, _) = self.basis_cache;
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// The report as a `qp-profile/v1` document; `qperturb --profile`
    /// writes it indented (`{:#}`), `bench_perf` nests it in its `cases`.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        let text = |s: &str| Json::Str(s.to_string());
        let int = |v: usize| num(v as f64);
        let (hits, misses, evictions) = self.basis_cache;
        let a = &self.attribution;
        let grains = a.grain_histogram.iter().map(|b| {
            obj(vec![
                ("grain_le", int(b.grain_le)),
                ("regions", int(b.regions)),
            ])
        });
        let phases = self.phases.iter().map(|p| {
            obj(vec![
                ("phase", text(&p.phase)),
                ("self_s", num(p.self_s)),
                ("flops", num(p.flops as f64)),
                ("bytes", num(p.bytes as f64)),
                ("gflops", num(p.gflops)),
                ("arithmetic_intensity", num(p.intensity)),
            ])
        });
        let basis_cache = obj(vec![
            ("hits", num(hits as f64)),
            ("misses", num(misses as f64)),
            ("evictions", num(evictions as f64)),
            ("hit_rate", num(self.cache_hit_rate())),
        ]);
        let resident = obj(vec![
            ("hartree_plan", int(self.resident.hartree_plan_bytes)),
            ("basis_tables", int(self.resident.basis_table_bytes)),
        ]);
        let attribution = obj(vec![
            ("serial_fraction", num(a.serial_fraction)),
            (
                "scheduling_overhead_fraction",
                num(a.scheduling_overhead_fraction),
            ),
            ("imbalance_fraction", num(a.imbalance_fraction)),
            ("useful_parallel_fraction", num(a.useful_parallel_fraction)),
            ("dominant_cause", text(a.dominant_cause)),
            ("regions", int(a.regions)),
            ("inline_regions", int(a.inline_regions)),
            ("nested_regions", int(a.nested_regions)),
            ("setup_s", num(a.setup_s)),
            ("queue_wait_s", num(a.queue_wait_s)),
            ("grain_histogram", Json::Arr(grains.collect())),
        ]);
        obj(vec![
            ("schema", text("qp-profile/v1")),
            ("case", text(&self.case)),
            ("threads", int(self.threads)),
            ("atoms", int(self.atoms)),
            ("basis", int(self.basis)),
            ("grid_points", int(self.grid_points)),
            ("serial_total_s", num(self.serial_total_s)),
            ("parallel_total_s", num(self.parallel_total_s)),
            ("e2e_speedup", num(self.speedup())),
            ("scf_s", num(self.scf_s)),
            ("scf_iterations", int(self.scf_iterations)),
            ("dfpt_s", num(self.dfpt_s)),
            (
                "dirs",
                Json::Arr(self.dirs.iter().map(|&d| int(d)).collect()),
            ),
            (
                "alpha_diag",
                Json::Arr(self.alpha_diag.iter().map(|&v| num(v)).collect()),
            ),
            ("basis_cache", basis_cache),
            ("resident_bytes", resident),
            ("attribution", attribution),
            ("phases", Json::Arr(phases.collect())),
        ])
    }

    /// Human-readable decomposition, one screen.
    pub fn render_text(&self) -> String {
        let a = &self.attribution;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "profile {}: {} atoms, {} basis fns, {} grid points, {} threads",
            self.case, self.atoms, self.basis, self.grid_points, self.threads
        );
        let _ = writeln!(
            s,
            "  serial {:.3}s  parallel {:.3}s  speedup {:.2}x  (scf {:.3}s / {} iterations, \
             dfpt {:.3}s)",
            self.serial_total_s,
            self.parallel_total_s,
            self.speedup(),
            self.scf_s,
            self.scf_iterations,
            self.dfpt_s
        );
        let alpha: Vec<String> = self
            .dirs
            .iter()
            .zip(&self.alpha_diag)
            .map(|(&d, a)| format!("α[{d}{d}] {a:.4}"))
            .collect();
        let (hits, misses, evictions) = self.basis_cache;
        let _ = writeln!(
            s,
            "  {}  basis cache {:.1}% of {} lookups, {evictions} evictions",
            alpha.join("  "),
            100.0 * self.cache_hit_rate(),
            hits + misses
        );
        let mb = |bytes: usize| bytes as f64 / 1e6;
        let _ = writeln!(
            s,
            "  resident: Hartree plan {:.1} MB, basis tables {:.1} MB",
            mb(self.resident.hartree_plan_bytes),
            mb(self.resident.basis_table_bytes)
        );
        let _ = writeln!(s, "  parallel wall decomposes as:");
        let bar = |frac: f64| "#".repeat((frac * 40.0).round() as usize);
        let _ = writeln!(
            s,
            "    useful parallel work  {:6.1}%  {}",
            100.0 * a.useful_parallel_fraction,
            bar(a.useful_parallel_fraction)
        );
        let _ = writeln!(
            s,
            "    serial remainder      {:6.1}%  {}",
            100.0 * a.serial_fraction,
            bar(a.serial_fraction)
        );
        let _ = writeln!(
            s,
            "    scheduling overhead   {:6.1}%  {}",
            100.0 * a.scheduling_overhead_fraction,
            bar(a.scheduling_overhead_fraction)
        );
        let _ = writeln!(
            s,
            "    load imbalance        {:6.1}%  {}",
            100.0 * a.imbalance_fraction,
            bar(a.imbalance_fraction)
        );
        let _ = writeln!(
            s,
            "  dominant non-useful bucket: {}  ({} regions, {} inline, {} nested; \
             setup {:.1}ms, queue-wait {:.1}ms)",
            a.dominant_cause,
            a.regions,
            a.inline_regions,
            a.nested_regions,
            a.setup_s * 1e3,
            a.queue_wait_s * 1e3
        );
        if !a.grain_histogram.is_empty() {
            let hist: Vec<String> = a
                .grain_histogram
                .iter()
                .map(|b| format!("≤{}:{}", b.grain_le, b.regions))
                .collect();
            let _ = writeln!(s, "  region grains: {}", hist.join("  "));
        }
        let _ = writeln!(s, "  phase breakdown (span self-time + roofline):");
        for p in &self.phases {
            if p.flops > 0 {
                let _ = writeln!(
                    s,
                    "    {:<12} {:8.3}s   {:8.2} GFLOP/s   {:6.2} flop/byte",
                    p.phase, p.self_s, p.gflops, p.intensity
                );
            } else {
                let _ = writeln!(s, "    {:<12} {:8.3}s", p.phase, p.self_s);
            }
        }
        s
    }
}

/// Sum of the counters `names{phase=...}` in a snapshot, per phase label.
fn counter_by_phase(snap: &[MetricSample], names: &[&str]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in snap {
        if !names.contains(&s.key.name.as_str()) {
            continue;
        }
        if let MetricValue::Counter(v) = s.value {
            let phase = s
                .key
                .labels
                .iter()
                .find(|(k, _)| k == "phase")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "other".to_string());
            *out.entry(phase).or_insert(0) += v;
        }
    }
    out
}

/// Profile one case end to end: `job` as a serial reference leg, then as an
/// instrumented parallel leg on `threads` threads, whose wall clock is
/// decomposed by [`attribute`]. `build` is called once per leg so each
/// starts with a cold basis cache, as a fresh run does. This is the case
/// runner of both `qperturb --profile` and `bench_perf`. A stage that fails
/// (the SCF or a direction) ends the profile with its error.
pub fn profile_case(
    name: &str,
    build: &dyn Fn() -> System,
    job: &Job,
    threads: usize,
) -> Result<ProfileReport, JobError> {
    // ---- Serial reference: everything off, 1 thread. ----
    let serial_total_s = {
        let _lease = ThreadLease::exactly(1);
        let sys = build();
        let t = Instant::now();
        job.run(&sys)?;
        t.elapsed().as_secs_f64()
    };

    // ---- Instrumented parallel leg. ----
    let _lease = ThreadLease::exactly(threads);
    let sys = build();

    let (h0, m0, e0) = sys.basis_cache().counters();
    let snap_before = qp_trace::global_metrics().snapshot();
    qp_trace::set_enabled(true);
    let _ = qp_trace::span::take_events();
    qp_par::telemetry::set_enabled(true);
    let _ = qp_par::telemetry::take_records();

    let t = Instant::now();
    let out = job.run(&sys);
    let parallel_total_s = t.elapsed().as_secs_f64();

    qp_par::telemetry::set_enabled(false);
    qp_trace::set_enabled(false);
    let records = qp_par::telemetry::take_records();
    let events = qp_trace::span::take_events();
    let out = out?;
    let snap_after = qp_trace::global_metrics().snapshot();
    let (h1, m1, e1) = sys.basis_cache().counters();
    let resident = Resident {
        hartree_plan_bytes: sys.hartree_plan_bytes(),
        basis_table_bytes: sys.basis_cache().resident_bytes(),
    };

    let attribution = attribute(&records, parallel_total_s, threads);

    // Per-phase rows: span self-time + roofline counter deltas.
    let forest = qp_trace::build_forest(&events);
    let self_us = qp_trace::self_time_by_phase(&forest);
    // The roofline kernels: GEMM, the Hartree evaluation and the
    // potential-matrix assembly.
    let flops = ["linalg.gemm.flops", "rho.eval.flops", "h.eval.flops"];
    let bytes = ["linalg.gemm.bytes", "rho.eval.bytes", "h.eval.bytes"];
    let flops_before = counter_by_phase(&snap_before, &flops);
    let flops_after = counter_by_phase(&snap_after, &flops);
    let bytes_before = counter_by_phase(&snap_before, &bytes);
    let bytes_after = counter_by_phase(&snap_after, &bytes);

    let mut phase_names: Vec<String> = self_us.keys().map(|k| k.to_string()).collect();
    for k in flops_after.keys() {
        if !phase_names.contains(k) {
            phase_names.push(k.clone());
        }
    }
    let mut phases: Vec<PhaseRow> = phase_names
        .into_iter()
        .map(|phase| {
            let self_s = self_us.get(phase.as_str()).copied().unwrap_or(0.0) / 1e6;
            let delta = |after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>| {
                after.get(&phase).copied().unwrap_or(0) - before.get(&phase).copied().unwrap_or(0)
            };
            let flops = delta(&flops_after, &flops_before);
            let bytes = delta(&bytes_after, &bytes_before);
            PhaseRow {
                gflops: if self_s > 0.0 {
                    flops as f64 / self_s / 1e9
                } else {
                    0.0
                },
                intensity: if bytes > 0 {
                    flops as f64 / bytes as f64
                } else {
                    0.0
                },
                phase,
                self_s,
                flops,
                bytes,
            }
        })
        .collect();
    phases.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));

    Ok(ProfileReport {
        case: name.to_string(),
        threads,
        atoms: sys.structure.len(),
        basis: sys.n_basis(),
        grid_points: sys.n_points(),
        scf_iterations: out.ground.iterations,
        dirs: job.dirs.clone(),
        alpha_diag: job.dirs.iter().map(|&d| out.alpha[(d, d)]).collect(),
        basis_cache: (h1 - h0, m1 - m0, e1 - e0),
        resident,
        serial_total_s,
        parallel_total_s,
        scf_s: out.scf_s,
        dfpt_s: out.dfpt_s,
        attribution,
        phases,
        folded: qp_trace::collapsed_stacks(&events),
    })
}

/// Validate a `qp-profile/v1` JSON document: well-formed JSON with the
/// schema marker, both resident byte counts present as whole numbers
/// `≥ 0`, and all four attribution fractions present, each in `[0, 1]`,
/// summing to 1 within ±0.02.
pub fn validate_profile_json(body: &str) -> std::result::Result<(), String> {
    let doc = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("qp-profile/v1") {
        return Err("missing qp-profile/v1 schema marker".to_string());
    }
    for name in ["hartree_plan", "basis_tables"] {
        let v = doc
            .get("resident_bytes")
            .and_then(|r| r.get(name))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric resident_bytes.{name}"))?;
        if !(v >= 0.0 && v.fract() == 0.0) {
            return Err(format!("resident_bytes.{name} = {v} is not a byte count"));
        }
    }
    let names = [
        "serial_fraction",
        "scheduling_overhead_fraction",
        "imbalance_fraction",
        "useful_parallel_fraction",
    ];
    let mut sum = 0.0;
    for name in names {
        let v = doc
            .get("attribution")
            .and_then(|a| a.get(name))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric attribution.{name}"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{name} = {v} outside [0, 1]"));
        }
        sum += v;
    }
    if (sum - 1.0).abs() > 0.02 {
        return Err(format!("fractions sum to {sum}, expected 1 ± 0.02"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_par::LaneStats;

    fn rec(
        label: &'static str,
        wall_ns: u64,
        lanes: Vec<(u64, u64, u32)>,
        inline: bool,
        nested: bool,
    ) -> RegionRecord {
        let n_chunks = lanes.iter().map(|l| l.2 as usize).sum::<usize>().max(1);
        RegionRecord {
            label,
            n_items: 100,
            grain: 25,
            n_chunks,
            threads: 2,
            inline,
            caller_only: inline,
            nested,
            setup_ns: 1_000,
            queue_wait_ns: 500,
            wall_ns,
            lanes: lanes
                .into_iter()
                .map(|(lane, busy_ns, chunks)| LaneStats {
                    lane,
                    busy_ns,
                    chunks,
                })
                .collect(),
        }
    }

    #[test]
    fn attribute_decomposes_exhaustively() {
        // One region: wall 100µs, lanes 60µs + 20µs on 2 threads.
        // mean = 40µs (useful), imbalance = 20µs, overhead = 40µs; the
        // remaining 100µs of the 200µs total is serial.
        let records = vec![rec(
            "rho",
            100_000,
            vec![(0, 60_000, 2), (1, 20_000, 2)],
            false,
            false,
        )];
        let a = attribute(&records, 200e-6, 2);
        assert!((a.useful_parallel_fraction - 0.2).abs() < 1e-9);
        assert!((a.imbalance_fraction - 0.1).abs() < 1e-9);
        assert!((a.scheduling_overhead_fraction - 0.2).abs() < 1e-9);
        assert!((a.serial_fraction - 0.5).abs() < 1e-9);
        let sum = a.serial_fraction
            + a.scheduling_overhead_fraction
            + a.imbalance_fraction
            + a.useful_parallel_fraction;
        assert!((sum - 1.0).abs() < 1e-12, "fractions must sum to 1");
        assert_eq!(a.dominant_cause, "serial-fraction");
        assert_eq!(a.regions, 1);
        assert!((a.setup_s - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn attribute_skips_inline_and_nested() {
        let records = vec![
            rec(
                "rho",
                50_000,
                vec![(0, 25_000, 2), (1, 25_000, 2)],
                false,
                false,
            ),
            rec("sumup", 10_000, vec![(0, 10_000, 1)], true, false),
            rec("rho", 5_000, vec![(1, 5_000, 1)], false, true),
        ];
        let a = attribute(&records, 100e-6, 2);
        assert_eq!(a.regions, 1);
        assert_eq!(a.inline_regions, 1);
        assert_eq!(a.nested_regions, 1);
        // Inline + nested walls stay in the serial remainder.
        assert!((a.serial_fraction - 0.5).abs() < 1e-9);
        assert!((a.useful_parallel_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn attribute_credits_caller_drained_regions_as_inline() {
        // An enqueued region whose every chunk ran on the submitting thread
        // is de-facto inline: its setup must not be billed as scheduling
        // overhead and its wall stays in the serial remainder.
        let mut caller_drained = rec("rho", 50_000, vec![(0, 50_000, 4)], false, false);
        caller_drained.caller_only = true;
        let records = vec![
            caller_drained,
            rec(
                "h",
                50_000,
                vec![(0, 25_000, 2), (1, 25_000, 2)],
                false,
                false,
            ),
        ];
        let a = attribute(&records, 150e-6, 2);
        assert_eq!(
            a.regions, 1,
            "caller-only region must not count as parallel"
        );
        assert_eq!(a.inline_regions, 1);
        // Only the genuinely-parallel region's setup is billed.
        assert!((a.setup_s - 1e-6).abs() < 1e-12);
        // Caller-only wall (50µs) + uncovered 50µs = 100µs serial of 150µs.
        assert!((a.serial_fraction - 100.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn attribute_perfect_balance_has_no_imbalance() {
        let records = vec![rec(
            "h",
            100_000,
            vec![(0, 100_000, 2), (1, 100_000, 2)],
            false,
            false,
        )];
        let a = attribute(&records, 100e-6, 2);
        assert!(a.imbalance_fraction.abs() < 1e-9);
        assert!(a.scheduling_overhead_fraction.abs() < 1e-9);
        assert!((a.useful_parallel_fraction - 1.0).abs() < 1e-9);
        assert_eq!(a.dominant_cause, "serial-fraction"); // all zero: first wins
    }

    #[test]
    fn attribute_empty_records_is_all_serial() {
        let a = attribute(&[], 1.0, 4);
        assert!((a.serial_fraction - 1.0).abs() < 1e-12);
        assert_eq!(a.dominant_cause, "serial-fraction");
        assert!(a.grain_histogram.is_empty());
    }

    #[test]
    fn report_json_roundtrips_validation() {
        let records = vec![rec(
            "rho",
            100_000,
            vec![(0, 60_000, 2), (1, 20_000, 2)],
            false,
            false,
        )];
        let report = ProfileReport {
            // A file name may hold any character the writer must escape.
            case: "wa\"ter\\.xyz".to_string(),
            threads: 2,
            atoms: 3,
            basis: 13,
            grid_points: 100,
            scf_iterations: 12,
            dirs: vec![1],
            alpha_diag: vec![9.5],
            basis_cache: (3, 1, 0),
            resident: Resident {
                hartree_plan_bytes: 2_000_000,
                basis_table_bytes: 300_000,
            },
            serial_total_s: 0.0002,
            parallel_total_s: 0.0002,
            scf_s: 0.0001,
            dfpt_s: 0.0001,
            attribution: attribute(&records, 200e-6, 2),
            phases: vec![PhaseRow {
                phase: "rho".to_string(),
                self_s: 0.0001,
                flops: 2_000_000,
                bytes: 160_000,
                gflops: 20.0,
                intensity: 12.5,
            }],
            folded: "scf 100\n".to_string(),
        };
        let json = format!("{:#}", report.to_json());
        validate_profile_json(&json).expect("synthetic report must validate");
        let doc = json::parse(&json).unwrap();
        assert_eq!(
            doc.get("case").and_then(Json::as_str),
            Some(report.case.as_str())
        );
        assert!(report.render_text().contains("dominant non-useful bucket"));
        let plan = doc
            .get("resident_bytes")
            .and_then(|r| r.get("hartree_plan"));
        assert_eq!(plan.and_then(Json::as_usize), Some(2_000_000));
    }

    #[test]
    fn profile_reports_the_jobs_own_numbers() {
        use crate::{DfptOptions, ScfOptions};
        use qp_chem::basis::BasisSettings;
        use qp_chem::grids::GridSettings;
        use qp_chem::structures::water;
        let build = || {
            let mut gs = GridSettings::light();
            gs.n_radial = 24;
            gs.max_angular = 26;
            System::build(water(), BasisSettings::Light, &gs, 120, 2)
        };
        let job = Job {
            dirs: vec![1],
            ..Job::new(ScfOptions::default(), DfptOptions::default())
        };
        let report = profile_case("water", &build, &job, 2).unwrap();
        let plain = job.run(&build()).unwrap();
        assert_eq!(report.scf_iterations, plain.ground.iterations);
        assert_eq!(report.dirs, vec![1]);
        assert_eq!(report.alpha_diag.len(), 1);
        assert_eq!(
            report.alpha_diag[0].to_bits(),
            plain.alpha[(1, 1)].to_bits()
        );
        assert_eq!(report.grid_points, build().n_points());
        let (hits, misses, _) = report.basis_cache;
        assert!(
            hits > 0 && misses > 0,
            "cache counters {:?}",
            report.basis_cache
        );
        // The job kept the plan and every table; the report has their
        // bytes.
        let sys = build();
        job.run(&sys).unwrap();
        let plan = sys.hartree_plan().map(|p| p.memory_bytes());
        assert_eq!(Some(report.resident.hartree_plan_bytes), plan);
        assert_eq!(
            report.resident.basis_table_bytes,
            sys.basis_cache().resident_bytes()
        );
        assert!(report.resident.basis_table_bytes > 0);
        // The Hartree evaluations book their roofline counts under the rho
        // phase, which runs no GEMM, and the potential-matrix assemblies
        // under the h phase.
        let row = |name: &str| report.phases.iter().find(|p| p.phase == name);
        for name in ["rho", "h"] {
            let r = row(name);
            assert!(r.is_some_and(|p| p.flops > 0 && p.bytes > 0), "{r:?}");
        }
        // The SCF's own steps have rows of their own.
        for name in ["eigen", "dm", "mixing"] {
            let r = row(name);
            assert!(r.is_some_and(|p| p.self_s > 0.0), "{name}: {r:?}");
        }
        // Every flop is booked under the phase whose span ran it.
        let other = row("other");
        assert!(other.is_none_or(|p| p.flops == 0), "{other:?}");
        let json = format!("{:#}", report.to_json());
        validate_profile_json(&json).unwrap();
        let doc = json::parse(&json).unwrap();
        let iterations = doc.get("scf_iterations").and_then(Json::as_usize);
        assert_eq!(iterations, Some(report.scf_iterations));
        let alpha = doc.get("alpha_diag").and_then(Json::as_arr);
        assert_eq!(alpha.map(<[Json]>::len), Some(1));
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let good = "{\"schema\": \"qp-profile/v1\", \
                    \"resident_bytes\": {\"hartree_plan\": 1000, \"basis_tables\": 24}, \
                    \"attribution\": {\"serial_fraction\": 0.5, \
                    \"scheduling_overhead_fraction\": 0.3, \"imbalance_fraction\": 0.1, \
                    \"useful_parallel_fraction\": 0.1}}";
        validate_profile_json(good).expect("balanced fractions validate");
        for bytes in ["-8", "1.5", "null"] {
            let bad = good.replace(
                "\"basis_tables\": 24",
                &format!("\"basis_tables\": {bytes}"),
            );
            assert!(validate_profile_json(&bad).is_err(), "basis_tables {bytes}");
        }
        let no_plan = good.replace("\"hartree_plan\": 1000, ", "");
        assert!(validate_profile_json(&no_plan).is_err());
        let bad_sum = good.replace("0.5", "0.9");
        assert!(validate_profile_json(&bad_sum).is_err());
        let out_of_range = good
            .replace("\"serial_fraction\": 0.5", "\"serial_fraction\": 1.5")
            .replace(
                "\"scheduling_overhead_fraction\": 0.3",
                "\"scheduling_overhead_fraction\": -0.7",
            );
        assert!(validate_profile_json(&out_of_range).is_err());
        let null_fraction = good.replace("0.5", "null");
        assert!(validate_profile_json(&null_fraction).is_err());
        assert!(validate_profile_json("{}").is_err());
    }
}
