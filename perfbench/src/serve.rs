//! `serve_mix`: in-process `qp-serve` servers with their default
//! configuration (1 worker, 250 ms fair-share slice), each driven by a
//! closed loop of two client connections, one tenant each. A client sends
//! its next request only after the reply to the previous one (as
//! `qperturb submit` waits for its reply).
//!
//! The traffic runs in rounds. A round starts a fresh server on a fresh
//! state dir under `perfbench/out`, lets each client send its whole stream
//! of [`ROUND_LEN`] requests, and stops the server. Every round has the same
//! make-up, and the server's in-memory job table (with it the peak resident
//! set) stays the size of one round; rounds follow each other for
//! `--seconds`.
//!
//! The streams come from the seed alone (see [`stream`]). A repeat of an
//! earlier request of the round hits the result cache; the fresh ones are
//! jobs with `"threads":2`:
//! - water with a seeded perturbed geometry on a reduced light grid, well
//!   inside the slice (client 0, every other request);
//! - `polymer:2` on the coarse grid (client 1, once per round) — longer
//!   than the slice, so it is preempted and resumes from its QPCK
//!   checkpoint while the other tenant's jobs run.

use crate::job_bench::{nproc, probe_layers, write_trace};
use crate::jobs::{self, Inputs, Job};
use crate::layers::Layers;
use crate::ledger::{self, Calls, Iterations, LayerMs, Probe, RhoProbe};
use crate::stats::{interquartile_mean, median, percentile_ten_beyond};
use crate::{mem, reference, EndToEnd, Report};
use qp_serve::json::{obj, parse, Json};
use qp_serve::server::ServerHandle;
use qp_serve::{Client, JobRequest, JobResultData, ServerConfig};
use std::path::Path;
use std::time::Instant;

/// Client connections (one tenant each).
const CLIENTS: usize = 2;
/// Pool threads every fresh job asks for. The cores of the shared host this
/// benchmark was sized on each slow down by ≈ 1.5× for seconds to a minute
/// at a time, independently of each other; a one-thread job runs at the
/// speed of the core it sits on, and its run-to-run spread was 0.33, while
/// a job on two threads shares its work between both cores.
const JOB_THREADS: usize = 2;
/// Requests each client sends per round: 24 fresh waters and 24 repeats,
/// and one fresh polymer and 5 repeats — 25 cold jobs and 29 cache hits.
/// The polymer holds the worker for a few slices per round, so most
/// waters do not wait behind it.
const ROUND_LEN: [usize; CLIENTS] = [48, 6];
/// Every run completes at least this many requests, so its p90 has ten
/// samples beyond it.
const MIN_REQUESTS: usize = 100;
/// Server restarts timed for `setup_s`.
const SETUP_REPS: usize = 30;
/// Fresh water results re-derived through the direct path per run.
const DIRECT_CHECKS: usize = 2;
/// Largest displacement of a water atom per coordinate, Å.
const WATER_JITTER_ANGSTROM: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Water,
    Polymer2,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::Water, Kind::Polymer2];
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub kind: Kind,
    /// The request object as sent on the wire.
    pub request: String,
    /// Index, in the same stream, of the fresh request this one repeats.
    pub repeat_of: Option<usize>,
}

/// SplitMix64: a tiny, well-mixed generator, so the stream depends on the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

fn tenant(client: usize) -> String {
    format!("tenant{client}")
}

fn water_request(client: usize, rng: &mut Rng) -> String {
    let base = qp_chem::structures::water();
    let mut xyz = String::from("3\nperturbed water\n");
    for atom in &base.atoms {
        let p = atom.position.map(|x| {
            let jitter = (2.0 * rng.unit() - 1.0) * WATER_JITTER_ANGSTROM;
            x / qp_chem::structures::BOHR_PER_ANGSTROM + jitter
        });
        xyz.push_str(&format!(
            "{} {:.12} {:.12} {:.12}\n",
            atom.element.symbol(),
            p[0],
            p[1],
            p[2]
        ));
    }
    // A reduced light grid (24 shells of 26 points): ≈ 40 ms of work, well
    // inside the fair-share slice even on a machine running at half speed.
    let grid = obj(vec![
        ("preset", Json::Str("light".into())),
        ("n_radial", Json::Num(24.0)),
        ("max_angular", Json::Num(26.0)),
        ("min_angular", Json::Num(26.0)),
    ]);
    request(client, obj(vec![("xyz", Json::Str(xyz))]), grid)
}

fn polymer_request(client: usize) -> String {
    let molecule = obj(vec![("builtin", Json::Str("polymer:2".into()))]);
    let grid = obj(vec![("preset", Json::Str("coarse".into()))]);
    request(client, molecule, grid)
}

/// A request at [`JOB_THREADS`] threads, as the server's tenants send them.
fn request(client: usize, molecule: Json, grid: Json) -> String {
    obj(vec![
        ("tenant", Json::Str(tenant(client))),
        ("molecule", molecule),
        ("grid", grid),
        ("threads", Json::Num(JOB_THREADS as f64)),
    ])
    .to_string()
}

/// The first `len` requests of `client`'s stream for `seed`.
///
/// Client 0 sends fresh waters at even positions and, at each odd one, a
/// repeat of a seeded pick among its fresh requests before it. Client 1
/// sends the builtin polymer fresh, then repeats it: its only cold job
/// competes with client 0's for the worker, while client 0's waters never
/// queue behind each other, so their latency is the service time plus the
/// polymer's slices.
pub fn stream(seed: u64, client: usize, len: usize) -> Vec<Planned> {
    let mut rng = Rng(seed ^ (client as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut out: Vec<Planned> = Vec::with_capacity(len);
    for i in 0..len {
        let fresh = if client == 1 { i == 0 } else { i % 2 == 0 };
        if !fresh {
            let original = if client == 1 {
                0
            } else {
                2 * rng.below(i.div_ceil(2))
            };
            out.push(Planned {
                repeat_of: Some(original),
                ..out[original].clone()
            });
            continue;
        }
        let (kind, request) = if client == 1 {
            (Kind::Polymer2, polymer_request(client))
        } else {
            (Kind::Water, water_request(client, &mut rng))
        };
        out.push(Planned {
            kind,
            request,
            repeat_of: None,
        });
    }
    out
}

/// Every client's stream for round `round` of the run seeded with `seed`.
pub fn round_streams(seed: u64, round: usize) -> Vec<Vec<Planned>> {
    let round_seed = Rng(seed ^ (round as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next();
    (0..CLIENTS)
        .map(|c| stream(round_seed, c, ROUND_LEN[c]))
        .collect()
}

/// One completed request as the client saw it.
struct Sample {
    kind: Kind,
    repeat_of: Option<usize>,
    request: String,
    /// Server-assigned job id.
    job: u64,
    cached: bool,
    /// Submit to reply, seconds.
    latency_s: f64,
    /// Server-side wall time of the job's SCF and DFPT phases (all slices,
    /// replays after a preemption included), from its `scf` and
    /// `dfpt.direction` span lines; cold jobs only.
    scf_s: Option<f64>,
    dfpt_s: Option<f64>,
    result: Result<JobResultData, String>,
}

impl Sample {
    fn cold_ok(&self) -> bool {
        !self.cached && self.result.is_ok()
    }

    /// Time outside SCF and DFPT: queueing, set-up, preemption waits and
    /// reply delivery.
    fn wait_s(&self) -> Option<f64> {
        Some(self.latency_s - self.scf_s? - self.dfpt_s?)
    }
}

/// One round against one server.
struct Round {
    /// Per client, in send order.
    samples: Vec<Vec<Sample>>,
    wall_s: f64,
    hits: f64,
    misses: f64,
    preemptions: f64,
}

impl Round {
    fn requests(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

/// A finished traffic phase: its rounds, in order.
struct Traffic {
    rounds: Vec<Round>,
    wall_s: f64,
    /// `VmHWM` once the first round is done. Later rounds run on new server
    /// threads, and glibc gives a new thread that allocates while another
    /// is live an arena of its own, which stays resident (≈ 4 MB each); how
    /// many it opens depends on thread timing, so the process peak after
    /// many rounds spread 24–36 MB from run to run, against 16 MB here.
    first_round_peak_mb: f64,
}

impl Traffic {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flat_map(|r| r.samples.iter().flatten())
    }

    fn cold(&self) -> impl Iterator<Item = &Sample> {
        self.all().filter(|s| s.cold_ok())
    }

    /// Interquartile mean latency of the requests that missed the cache.
    fn cold_s(&self) -> f64 {
        interquartile_mean(&self.cold().map(|s| s.latency_s).collect::<Vec<_>>())
    }

    fn hit_p50_ms(&self) -> f64 {
        let hits: Vec<f64> = self
            .all()
            .filter(|s| s.cached && s.result.is_ok())
            .map(|s| s.latency_s * 1e3)
            .collect();
        median(&hits)
    }

    /// Median over the rounds of requests completed per second.
    fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.requests() as f64 / r.wall_s)
            .collect();
        median(&rates)
    }

    fn total(&self, f: fn(&Round) -> f64) -> f64 {
        self.rounds.iter().map(f).sum()
    }
}

fn serve_err(e: qp_serve::ServeError) -> String {
    e.to_string()
}

/// Start a server on `state_dir`, timed until it answers its first
/// request.
fn start_server(state_dir: &Path) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let handle = qp_serve::server::start(ServerConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(serve_err)?;
    let mut client = Client::connect(&handle.addr().to_string()).map_err(serve_err)?;
    client.stats().map_err(serve_err)?;
    Ok((handle, t.elapsed().as_secs_f64()))
}

fn stop_server(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// One client's closed loop: submit and wait, as `qperturb submit` does,
/// for each request of its stream.
fn client_loop(addr: &str, planned: &[Planned]) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr).map_err(serve_err)?;
    let mut samples = Vec::with_capacity(planned.len());
    for p in planned {
        let request = parse(&p.request).map_err(|e| format!("request: {e}"))?;
        let t = Instant::now();
        let reply = client.submit(request, true, false, |_| {});
        let latency_s = t.elapsed().as_secs_f64();
        let (job, cached, result) = match reply {
            Ok(r) => (
                r.job,
                r.cached,
                r.result
                    .ok_or_else(|| "reply carries no result".to_string()),
            ),
            Err(e) => (0, false, Err(e.to_string())),
        };
        samples.push(Sample {
            kind: p.kind,
            repeat_of: p.repeat_of,
            request: p.request.clone(),
            job,
            cached,
            latency_s,
            scf_s: None,
            dfpt_s: None,
            result,
        });
    }
    Ok(samples)
}

/// Read a finished job's whole progress log back (`wait` with streaming
/// on a completed job replays it) and sum its `scf` and `dfpt.direction`
/// span durations.
fn phase_times(client: &mut Client, job: u64) -> Result<(f64, f64), String> {
    let (mut scf_ms, mut dfpt_ms) = (0.0, 0.0);
    client
        .wait(job, true, |line| {
            let field = |key: &str| {
                line.split_whitespace()
                    .find_map(|w| w.strip_prefix(key))
                    .map(str::to_string)
            };
            let dur: f64 = match field("dur_ms=").and_then(|d| d.parse().ok()) {
                Some(d) => d,
                None => return,
            };
            match field("name=").as_deref() {
                Some("scf") => scf_ms += dur,
                Some("dfpt.direction") => dfpt_ms += dur,
                _ => {}
            }
        })
        .map_err(serve_err)?;
    Ok((scf_ms / 1e3, dfpt_ms / 1e3))
}

/// One round: a fresh server on `state_dir`, every client's whole stream,
/// then each cold job's phase times read back.
fn round(streams: &[Vec<Planned>], state_dir: &Path) -> Result<Round, String> {
    let (handle, _) = start_server(state_dir)?;
    let addr = handle.addr().to_string();
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|s| scope.spawn(|| client_loop(&addr, s)))
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = || -> Result<(Vec<Vec<Sample>>, Json), String> {
        let mut samples = per_client.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut client = Client::connect(&addr).map_err(serve_err)?;
        for s in samples.iter_mut().flatten().filter(|s| s.cold_ok()) {
            let (scf_s, dfpt_s) = phase_times(&mut client, s.job)?;
            s.scf_s = Some(scf_s);
            s.dfpt_s = Some(dfpt_s);
        }
        let stats = client.stats().map_err(serve_err)?;
        Ok((samples, stats))
    };
    let outcome = after();
    stop_server(handle);
    let (samples, stats) = outcome?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(Round {
        samples,
        wall_s,
        hits: num(&["cache", "hits"]),
        misses: num(&["cache", "misses"]),
        preemptions: num(&["preemptions"]),
    })
}

/// Rounds for `seconds` (and at least [`MIN_REQUESTS`] requests), each on
/// its own state dir under `dir`; round 0's is kept for the restart timing.
fn traffic(seed: u64, seconds: f64, dir: &Path) -> Result<Traffic, String> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut requests = 0;
    let mut first_round_peak_mb = f64::NAN;
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds || requests < MIN_REQUESTS {
        let n = rounds.len();
        let state_dir = dir.join(format!("round{n}"));
        let r = round(&round_streams(seed, n), &state_dir)?;
        if n > 0 {
            let _ = std::fs::remove_dir_all(&state_dir);
        }
        requests += r.requests();
        if n == 0 {
            first_round_peak_mb = mem::read()?.peak_mb;
        }
        rounds.push(r);
    }
    Ok(Traffic {
        rounds,
        wall_s: start.elapsed().as_secs_f64(),
        first_round_peak_mb,
    })
}

fn result_bytes(r: &JobResultData) -> String {
    r.to_json().to_string()
}

/// The correctness gate: one verdict per request.
fn check(t: &Traffic, report: &mut Report) {
    let polymer = result_bytes(&reference::record("serve:polymer:2"));
    let water = reference::record("serve:water");
    let mut direct_left = DIRECT_CHECKS;
    for (r, round) in t.rounds.iter().enumerate() {
        for (client, samples) in round.samples.iter().enumerate() {
            for (i, s) in samples.iter().enumerate() {
                let verdict = s.result.clone().and_then(|res| {
                    let bytes = result_bytes(&res);
                    if let Some(j) = s.repeat_of {
                        // A repeat must return its original's bytes.
                        return match &samples[j].result {
                            Ok(orig) if result_bytes(orig) == bytes => Ok(()),
                            Ok(_) => Err(format!("repeat of request {j} returned other bytes")),
                            Err(_) => Ok(()), // the original already counts as failed
                        };
                    }
                    if s.kind == Kind::Polymer2 {
                        return if polymer == bytes {
                            Ok(())
                        } else {
                            Err("builtin result differs from the direct-path record".into())
                        };
                    }
                    water_sane(&res, &water)?;
                    if client == 0 && direct_left > 0 {
                        direct_left -= 1;
                        let direct = direct_record(&s.request)?;
                        if result_bytes(&direct) != bytes {
                            return Err("served result differs from the direct path".into());
                        }
                    }
                    Ok(())
                });
                report.outcome(&format!("round {r} client {client} request {i}"), verdict);
            }
        }
    }
}

/// A perturbed water result must stay physical: near the reference
/// energy, positive polarizability along every axis.
fn water_sane(r: &JobResultData, reference: &JobResultData) -> Result<(), String> {
    let de = (r.energy - reference.energy).abs();
    let diag_ok = (0..3).all(|d| r.alpha[(d, d)] > 0.0 && r.alpha[(d, d)].is_finite());
    if de < 0.5 && diag_ok {
        Ok(())
    } else {
        Err(format!(
            "implausible water result: E = {}, alpha diag = [{}, {}, {}]",
            r.energy,
            r.alpha[(0, 0)],
            r.alpha[(1, 1)],
            r.alpha[(2, 2)]
        ))
    }
}

/// The direct path for a serve request: what the engine must reproduce.
fn direct_job(request: &str) -> Result<Job, String> {
    let req = JobRequest::from_json(&parse(request).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    jobs::run(&Inputs::from_request(&req))
}

fn direct_record(request: &str) -> Result<JobResultData, String> {
    direct_job(request).map(|j| j.record)
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<Report, String> {
    let state_root = out.join(format!("serve-state-{}", std::process::id()));
    let result = run_in(seed, seconds, trace, out, &state_root);
    let _ = std::fs::remove_dir_all(&state_root);
    result
}

fn run_in(
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
    state_root: &Path,
) -> Result<Report, String> {
    qp_par::set_active_threads(nproc());
    let mut report = Report::default();
    let traffic_dir = state_root.join("traffic");
    let untraced = traffic(seed, seconds, &traffic_dir)?;
    check(&untraced, &mut report);
    if trace {
        traced(seed, seconds, out, state_root, untraced, report)
    } else {
        let setup = restart_times(&traffic_dir.join("round0"), &state_root.join("restart"))?;
        timed(&untraced, &setup, report)
    }
}

/// Server start-ups over the state of one round's jobs, each timed until
/// the server, having re-seeded its result cache from the state dir,
/// answers a request.
fn restart_times(round_dir: &Path, restart_dir: &Path) -> Result<Vec<f64>, String> {
    let io = |e: std::io::Error| format!("state dir: {e}");
    std::fs::create_dir_all(restart_dir).map_err(io)?;
    for entry in std::fs::read_dir(round_dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".meta.json") {
            std::fs::copy(entry.path(), restart_dir.join(name)).map_err(io)?;
        }
    }
    (0..SETUP_REPS)
        .map(|_| {
            let (handle, s) = start_server(restart_dir)?;
            stop_server(handle);
            Ok(s)
        })
        .collect()
}

fn timed(t: &Traffic, setup: &[f64], mut report: Report) -> Result<Report, String> {
    let cold: Vec<&Sample> = t.cold().collect();
    eprintln!(
        "perfbench: {} rounds, {} requests ({} cold) in {:.2} s, {} preemptions, hit p50 {:.3} ms",
        t.rounds.len(),
        t.all().count(),
        cold.len(),
        t.wall_s,
        t.total(|r| r.preemptions),
        t.hit_p50_ms()
    );
    let iqm = |f: fn(&Sample) -> Option<f64>| {
        interquartile_mean(&cold.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
    };
    EndToEnd {
        job_s: t.cold_s(),
        setup_s: median(setup),
        scf_s: iqm(|s| s.scf_s),
        dfpt_s: iqm(|s| s.dfpt_s),
        peak_rss_mb: t.first_round_peak_mb,
    }
    .emit(&mut report);
    Ok(report)
}

/// The probe input for one kind of fresh request: the first one served.
fn kind_request(kind: Kind, t: &Traffic) -> Option<String> {
    t.cold().find(|s| s.kind == kind).map(|s| s.request.clone())
}

fn traced(
    seed: u64,
    seconds: f64,
    out: &Path,
    state_root: &Path,
    untraced: Traffic,
    mut report: Report,
) -> Result<Report, String> {
    // The same traffic again with the recorder and region telemetry armed.
    qp_trace::set_enabled(true);
    qp_par::telemetry::set_enabled(true);
    qp_par::telemetry::take_records();
    let flops0 = crate::job_bench::counter_total("linalg.gemm.flops");
    let bytes0 = crate::job_bench::counter_total("linalg.gemm.bytes");
    let cache0 = qp_core::basis_cache::cache_counters();
    let traced = traffic(seed, seconds, &state_root.join("traced"));
    let cache1 = qp_core::basis_cache::cache_counters();
    let flops = crate::job_bench::counter_total("linalg.gemm.flops") - flops0;
    let bytes = crate::job_bench::counter_total("linalg.gemm.bytes") - bytes0;
    let regions = qp_par::telemetry::take_records();
    qp_par::telemetry::set_enabled(false);
    qp_trace::set_enabled(false);
    write_trace(out, "serve_mix")?;
    let traced = traced?;
    check(&traced, &mut report);

    // Probes per kind of fresh job, on that kind's own direct-path inputs,
    // at JOB_THREADS pool threads as the server runs them.
    let mut parts: Vec<KindPart> = Vec::new();
    let mut total = Calls::default();
    let mut ms = LayerMs::default();
    let preemptions = untraced.total(|r| r.preemptions);
    let mut writes = preemptions;
    let mut setup_ms = 0.0;
    let mut dfpt_iters = 0.0;
    for kind in Kind::ALL {
        let cold: Vec<&JobResultData> = untraced
            .cold()
            .filter(|s| s.kind == kind)
            .filter_map(|s| s.result.as_ref().ok())
            .collect();
        let Some(request) = kind_request(kind, &untraced) else {
            continue;
        };
        let mut calls = Calls::default();
        for r in &cold {
            let it = Iterations::of(r);
            calls.add(&Calls::of(it, None));
            dfpt_iters += it.dfpt_total() as f64;
            // The engine persists a QPCK checkpoint every
            // CHECKPOINT_INTERVAL iterations of each cycle.
            let every = qp_serve::engine::CHECKPOINT_INTERVAL;
            writes += (it.scf.saturating_sub(1) / every) as f64;
            writes += it
                .dfpt
                .iter()
                .map(|d| (d.saturating_sub(1) / every) as f64)
                .sum::<f64>();
        }
        let (job, probe) = {
            let _lease = qp_par::ThreadLease::exactly(JOB_THREADS);
            let job = direct_job(&request)?;
            let req = parse(&request).map_err(|e| e.to_string())?;
            let probe = ledger::probe(&job.system, &job.ground, &job.p1, &req, out)?;
            (job, probe)
        };
        ms.add(&LayerMs::of(&probe, &calls));
        setup_ms += job.stages.setup_s() * 1e3 * cold.len() as f64;
        total.add(&calls);
        parts.push(KindPart {
            probe,
            calls,
            jobs: cold.len() as f64,
            job,
            request,
        });
    }
    if parts.is_empty() {
        return Err("no fresh request completed".into());
    }
    let mixed = mix_probes(&parts);

    // The heaviest kind's direct path at one pool thread against
    // JOB_THREADS: the parallel speed-up the served jobs get.
    let heaviest = parts
        .iter()
        .max_by(|a, b| a.job.stages.job_s().total_cmp(&b.job.stages.job_s()))
        .expect("at least one kind");
    let heavy_one = {
        let _lease = qp_par::ThreadLease::exactly(1);
        direct_job(&heaviest.request)?.stages
    };

    let wall_ms = untraced.wall_s * 1e3;
    let share = |x: f64| x / wall_ms;
    let mut l = Layers::default();
    let jobs_total: f64 = parts.iter().map(|p| p.jobs).sum();
    let per_job =
        |f: fn(&Job) -> f64| parts.iter().map(|p| f(&p.job) * p.jobs).sum::<f64>() / jobs_total;
    let heaviest = &heaviest.job;
    l.set("system.build_s", per_job(|j| j.stages.build_s));
    l.set("system.tables_s", per_job(|j| j.stages.tables_s));
    l.set("system.plan_s", per_job(|j| j.stages.plan_s));
    l.set("setup.share", share(setup_ms));
    probe_layers(&mut l, &mixed, &total, &ms, share);
    let lookups = (cache1.0 - cache0.0) + (cache1.1 - cache0.1);
    l.set(
        "basis_cache.hit_rate",
        (cache1.0 - cache0.0) as f64 / lookups.max(1) as f64,
    );
    l.set("basis_cache.evictions", (cache1.2 - cache0.2) as f64);
    l.set("gemm.flops", flops as f64);
    l.set("gemm.bytes", bytes as f64);
    let cold: Vec<&Sample> = untraced.cold().collect();
    let scf_iters: usize = cold
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(|r| r.scf_iterations)
        .sum();
    l.set("scf.iterations", scf_iters as f64);
    l.set("dfpt.iterations", dfpt_iters);
    l.set("par.regions", regions.len() as f64);
    l.set(
        "par.inline_regions",
        regions.iter().filter(|r| r.inline).count() as f64,
    );
    l.set(
        "par.queue_wait_ms",
        regions.iter().map(|r| r.queue_wait_ns as f64).sum::<f64>() / 1e6,
    );
    l.set("par.speedup", heavy_one.job_s() / heaviest.stages.job_s());
    l.set("comm.calls", 0.0);
    l.set("comm.bytes", 0.0);
    let dfpt_s: f64 = cold.iter().filter_map(|s| s.dfpt_s).sum();
    l.set("spmd.iter_ms", dfpt_s * 1e3 / dfpt_iters.max(1.0));
    l.set("spmd.points_imbalance", 0.0);
    l.set("ckpt.writes", writes);
    l.set("ckpt.bytes", writes * mixed.ckpt_bytes);
    l.set("resil.restarts", 0.0);
    let (hits, misses) = (untraced.total(|r| r.hits), untraced.total(|r| r.misses));
    l.set("serve.jobs_per_s", untraced.jobs_per_s());
    l.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
    let waits: Vec<f64> = cold
        .iter()
        .filter_map(|s| s.wait_s())
        .map(|w| w * 1e3)
        .collect();
    l.set("serve.queue_wait_ms", median(&waits));
    l.set("serve.preemptions", preemptions);
    l.set("serve.hit_p50_ms", untraced.hit_p50_ms());
    let latencies: Vec<f64> = untraced.all().map(|s| s.latency_s).collect();
    l.set(
        "serve.p90_s",
        percentile_ten_beyond(&latencies, 0.9).unwrap_or(f64::NAN),
    );
    l.set("mem.after_build_mb", heaviest.mem.after_build_mb);
    l.set("mem.after_scf_mb", heaviest.mem.after_scf_mb);
    l.set("mem.after_dfpt_mb", heaviest.mem.after_dfpt_mb);
    l.set("other.share", 1.0 - share(setup_ms) - share(ms.total()));
    l.set("trace.overhead", traced.cold_s() / untraced.cold_s() - 1.0);
    l.emit(&mut report);
    Ok(report)
}

/// One kind of fresh request in the ledger: its probe, the calls all its
/// served cold jobs made, how many there were, and its direct-path job.
struct KindPart {
    probe: Probe,
    calls: Calls,
    jobs: f64,
    job: Job,
    request: String,
}

/// Call-weighted mean of the per-kind probes: each layer's time per call
/// averaged over the calls the served jobs made; per-job probes (QPCK,
/// admission, cache, collectives, GEMM rate) weighted by job count.
fn mix_probes(parts: &[KindPart]) -> Probe {
    let mean = |f: &dyn Fn(&Probe) -> f64, w: &dyn Fn(&Calls, f64) -> f64| {
        let (num, den) = parts.iter().fold((0.0, 0.0), |(n, d), k| {
            (
                n + f(&k.probe) * w(&k.calls, k.jobs),
                d + w(&k.calls, k.jobs),
            )
        });
        num / den.max(f64::MIN_POSITIVE)
    };
    let per_job = |_: &Calls, jobs: f64| jobs;
    let rho = |f: fn(&Probe) -> &RhoProbe, w: fn(&Calls) -> f64| {
        let (mut acc, mut acc_w) = (RhoProbe::default(), 0.0);
        for k in parts {
            acc = RhoProbe::blend(&acc, acc_w, f(&k.probe), w(&k.calls));
            acc_w += w(&k.calls);
        }
        acc
    };
    Probe {
        sumup_ms: mean(&|p| p.sumup_ms, &|c, _| c.sumup),
        rho_scf: rho(|p| &p.rho_scf, |c| c.solves_scf),
        rho_dfpt: rho(|p| &p.rho_dfpt, |c| c.solves_dfpt),
        tree_active: parts.iter().any(|k| k.probe.tree_active),
        h_ms: mean(&|p| p.h_ms, &|c, _| c.h),
        eigen_ms: mean(&|p| p.eigen_ms, &|c, _| c.eigen),
        dm_ms: mean(&|p| p.dm_ms, &|c, _| c.dm),
        sternheimer_ms: mean(&|p| p.sternheimer_ms, &|c, _| c.sternheimer),
        mixing_ms: mean(&|p| p.mixing_ms, &|c, _| c.mixing),
        gemm_gflops: mean(&|p| p.gemm_gflops, &per_job),
        allreduce_ms: mean(&|p| p.allreduce_ms, &per_job),
        ckpt_save_ms: mean(&|p| p.ckpt_save_ms, &per_job),
        ckpt_load_ms: mean(&|p| p.ckpt_load_ms, &per_job),
        ckpt_bytes: mean(&|p| p.ckpt_bytes, &per_job),
        parse_us: mean(&|p| p.parse_us, &per_job),
        cache_get_us: mean(&|p| p.cache_get_us, &per_job),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_request_bytes() {
        for client in 0..CLIENTS {
            assert_eq!(stream(7, client, 300), stream(7, client, 300));
        }
        assert_eq!(round_streams(7, 3), round_streams(7, 3));
    }

    #[test]
    fn a_new_seed_gives_a_different_stream() {
        let (a, b) = (stream(7, 0, 300), stream(8, 0, 300));
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > 100, "{differing} of 300 differ");
    }

    #[test]
    fn every_round_has_its_own_stream() {
        let rounds: Vec<_> = (0..4).map(|r| round_streams(7, r)).collect();
        for a in 0..rounds.len() {
            for b in a + 1..rounds.len() {
                assert_ne!(rounds[a], rounds[b], "rounds {a} and {b}");
            }
        }
        assert_ne!(round_streams(7, 0), round_streams(8, 0));
    }

    #[test]
    fn every_other_request_repeats_an_earlier_one() {
        let s = stream(11, 0, 1000);
        let repeats = s.iter().filter(|p| p.repeat_of.is_some()).count();
        assert_eq!(repeats, 500);
        for (i, p) in s.iter().enumerate() {
            if let Some(j) = p.repeat_of {
                assert!(j < i && s[j].repeat_of.is_none());
                assert_eq!(p.request, s[j].request);
            }
        }
    }

    #[test]
    fn fresh_requests_are_distinct_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for client in 0..CLIENTS {
            for p in stream(3, client, 200) {
                let req = JobRequest::from_json(&parse(&p.request).unwrap()).unwrap();
                assert_eq!(req.threads, Some(JOB_THREADS));
                assert_eq!(req.tenant, tenant(client));
                if p.repeat_of.is_none() {
                    assert!(seen.insert(req.canonical()), "a fresh request repeats");
                }
            }
        }
    }

    #[test]
    fn client_one_sends_the_builtin_polymer_fresh_once_per_round() {
        for seed in 0..20 {
            let streams = round_streams(seed, seed as usize % 3);
            assert!(streams[1].iter().all(|p| p.kind == Kind::Polymer2));
            assert_eq!(streams[1][0].repeat_of, None, "seed {seed}");
            assert!(streams[1][1..].iter().all(|p| p.repeat_of == Some(0)));
            assert!(streams[0].iter().all(|p| p.kind == Kind::Water));
        }
    }
}
