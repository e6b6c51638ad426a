//! `bench_serve` — serving-layer benchmark: replay synthetic mixed
//! ligand/polyethylene multi-tenant traffic against an in-process
//! `qp-serve` instance and emit `BENCH_serve.json`.
//!
//! Reported numbers:
//!
//! * **anchor cold vs cache-hit latency** — one cold run of the anchor
//!   molecule (ligand-49 in full mode, water in `--quick`), then the same
//!   request again as a cache hit. The hit must be at least
//!   [`FULL_MIN_SPEEDUP`]× faster cold (quick mode: [`QUICK_MIN_SPEEDUP`]×)
//!   or the bench exits 2 — the content-addressed cache is a headline
//!   feature, not best-effort.
//! * **large-job cold vs hit** — the polymer-bulk tenant's chain sweeps
//!   (n = 32/64 monomers in full mode, 4/8 in `--quick`) submitted cold
//!   and again as cache hits, so the latency profile of the screened
//!   large-polymer scenario is on record next to the small-molecule
//!   anchor.
//! * **mixed traffic** — N requests drawn from a deterministic LCG over
//!   (tenant × molecule) templates with repeats, replayed from several
//!   concurrent client connections: req/s, p50/p99 latency, cache hit rate.
//!   The large templates are pre-warmed by the previous phase, so the mix
//!   exercises their cache-hit path under concurrency.
//!
//! Usage: `bench_serve [--quick] [--out BENCH_serve.json]`

use qp_serve::json::{obj, parse, Json};
use qp_serve::{Client, ServerConfig};
use std::time::{Duration, Instant};

const FULL_MIN_SPEEDUP: f64 = 100.0;
const QUICK_MIN_SPEEDUP: f64 = 20.0;
/// Concurrent client connections replaying the mixed phase.
const CLIENTS: usize = 4;

struct Template {
    tenant: &'static str,
    request: String,
    /// Large-polymer jobs get their own cold-vs-hit phase before the mix.
    large: bool,
}

/// The bench-grade solver settings the statistics workloads converge with
/// (`workloads::bench_scf_options`): trimmed coarse grid, damped mixing,
/// smearing, Pulay(6).
fn bench_grade(tenant: &str, builtin: &str) -> String {
    format!(
        concat!(
            r#"{{"tenant":"{}","molecule":{{"builtin":"{}"}},"#,
            r#""grid":{{"preset":"coarse","n_radial":8,"max_angular":6,"min_angular":6}},"#,
            r#""scf":{{"max_iter":80,"tol":1e-6,"mixing":0.1,"smearing":0.02,"pulay":6}},"#,
            r#""dfpt":{{"max_iter":80,"tol":1e-5,"mixing":0.15}}}}"#
        ),
        tenant, builtin
    )
}

/// The synthetic tenant mix: a ligand-screening tenant hammering one
/// structure (cache-friendly), a polymer tenant sweeping chain lengths,
/// a polymer-bulk tenant running the screened large-chain scenario, and a
/// QA tenant poking small molecules. Template 0 is the anchor.
fn templates(quick: bool) -> Vec<Template> {
    let t = |tenant: &'static str, request: String| Template {
        tenant,
        request,
        large: false,
    };
    let big = |tenant: &'static str, request: String| Template {
        tenant,
        request,
        large: true,
    };
    if quick {
        vec![
            t(
                "ligand-team",
                r#"{"tenant":"ligand-team","molecule":{"builtin":"water"}}"#.to_string(),
            ),
            t("polymer-team", bench_grade("polymer-team", "polymer:1")),
            t("polymer-team", bench_grade("polymer-team", "polymer:2")),
            t(
                "qa",
                r#"{"tenant":"qa","molecule":{"builtin":"water"},"scf":{"tol":1e-7}}"#.to_string(),
            ),
            big("polymer-bulk", bench_grade("polymer-bulk", "polymer:4")),
            big("polymer-bulk", bench_grade("polymer-bulk", "polymer:8")),
        ]
    } else {
        vec![
            t("ligand-team", bench_grade("ligand-team", "ligand")),
            t("polymer-team", bench_grade("polymer-team", "polymer:2")),
            t("polymer-team", bench_grade("polymer-team", "polymer:4")),
            t(
                "qa",
                r#"{"tenant":"qa","molecule":{"builtin":"water"}}"#.to_string(),
            ),
            t(
                "qa",
                r#"{"tenant":"qa","molecule":{"builtin":"water"},"scf":{"tol":1e-7}}"#.to_string(),
            ),
            big("polymer-bulk", bench_grade("polymer-bulk", "polymer:32")),
            big("polymer-bulk", bench_grade("polymer-bulk", "polymer:64")),
        ]
    }
}

/// Deterministic request schedule: an LCG (no RNG dependency, repeatable
/// across runs) picks templates with heavy repetition so the mixed phase
/// exercises both cold misses and cache hits.
fn schedule(n: usize, templates: usize) -> Vec<usize> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % templates
        })
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let min_speedup = if quick {
        QUICK_MIN_SPEEDUP
    } else {
        FULL_MIN_SPEEDUP
    };
    let anchor = if quick { "water" } else { "ligand" };
    let n_requests = if quick { 32 } else { 64 };

    println!(
        "bench_serve: {} mode, anchor '{}', {} mixed requests over {} connections",
        if quick { "quick" } else { "full" },
        anchor,
        n_requests,
        CLIENTS
    );

    let handle = qp_serve::server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: None,
        workers: 2,
        slice: Duration::from_millis(250),
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // --- Anchor: cold vs cache-hit -------------------------------------
    let tpl = templates(quick);
    let anchor_req = tpl[0].request.clone();
    let mut client = Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    let cold = client
        .submit(parse(&anchor_req).unwrap(), true, false, |_| {})
        .expect("cold anchor");
    let cold_s = t0.elapsed().as_secs_f64();
    assert!(!cold.cached, "first anchor submit must be a miss");
    let t0 = Instant::now();
    let warm = client
        .submit(parse(&anchor_req).unwrap(), true, false, |_| {})
        .expect("warm anchor");
    let warm_s = t0.elapsed().as_secs_f64();
    assert!(warm.cached, "second anchor submit must hit the cache");
    let speedup = cold_s / warm_s.max(1e-9);
    println!(
        "anchor {anchor}: cold {:.3}s, cache hit {:.6}s ({speedup:.0}x)",
        cold_s, warm_s
    );
    // Bit-identity between the two paths is free to assert here.
    let cold_bytes = cold.result.expect("result").to_json().to_string();
    let warm_bytes = warm.result.expect("result").to_json().to_string();
    assert_eq!(cold_bytes, warm_bytes, "cache served different bits");

    // --- Large polymer jobs: cold vs cache hit -------------------------
    // The screened large-chain scenario the polymer-bulk tenant runs;
    // submitting them here also pre-warms the cache for the mixed phase.
    struct LargeJob {
        molecule: String,
        cold_s: f64,
        hit_s: f64,
    }
    let mut large_jobs: Vec<LargeJob> = Vec::new();
    for t in tpl.iter().filter(|t| t.large) {
        let req = parse(&t.request).unwrap();
        let molecule = req
            .get("molecule")
            .and_then(|m| m.get("builtin"))
            .and_then(|b| b.as_str())
            .unwrap_or("?")
            .to_string();
        println!("large job {molecule}: cold solve ...");
        let t0 = Instant::now();
        let cold = client
            .submit(parse(&t.request).unwrap(), true, false, |_| {})
            .expect("large cold");
        let cold_s = t0.elapsed().as_secs_f64();
        assert!(!cold.cached, "first {molecule} submit must be a miss");
        let t0 = Instant::now();
        let warm = client
            .submit(parse(&t.request).unwrap(), true, false, |_| {})
            .expect("large warm");
        let hit_s = t0.elapsed().as_secs_f64();
        assert!(warm.cached, "second {molecule} submit must hit the cache");
        let cold_bytes = cold.result.expect("result").to_json().to_string();
        let warm_bytes = warm.result.expect("result").to_json().to_string();
        assert_eq!(
            cold_bytes, warm_bytes,
            "large-job cache served different bits"
        );
        println!(
            "large job {molecule}: cold {cold_s:.2}s, cache hit {hit_s:.4}s ({:.0}x)",
            cold_s / hit_s.max(1e-9)
        );
        large_jobs.push(LargeJob {
            molecule,
            cold_s,
            hit_s,
        });
    }

    // --- Mixed multi-tenant traffic ------------------------------------
    let order = schedule(n_requests, tpl.len());
    let chunks: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| {
            order
                .iter()
                .enumerate()
                .filter(|(i, _)| i % CLIENTS == c)
                .map(|(_, &t)| t)
                .collect()
        })
        .collect();
    let wall = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let addr = addr.clone();
                let tpl = &tpl;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let mut lat = Vec::with_capacity(chunk.len());
                    for &t in chunk {
                        let req = parse(&tpl[t].request).unwrap();
                        let t0 = Instant::now();
                        client.submit(req, true, false, |_| {}).expect("submit");
                        lat.push(t0.elapsed().as_secs_f64());
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let req_per_s = n_requests as f64 / wall_s;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);

    let stats = client.stats().expect("stats");
    let get_num = |path: &[&str]| -> f64 {
        let mut v: &Json = &stats;
        for k in path {
            v = v.get(k).unwrap_or(&Json::Null);
        }
        v.as_f64().unwrap_or(0.0)
    };
    let hits = get_num(&["cache", "hits"]);
    let misses = get_num(&["cache", "misses"]);
    let hit_rate = hits / (hits + misses).max(1.0);
    let mut tenants: Vec<&str> = tpl.iter().map(|t| t.tenant).collect();
    tenants.sort();
    tenants.dedup();
    let usage = tenants
        .iter()
        .map(|&t| (t.to_string(), Json::Num(get_num(&["usage", t]))))
        .collect();
    println!(
        "mixed: {n_requests} requests in {wall_s:.2}s = {req_per_s:.1} req/s, p50 {p50:.3}s, p99 {p99:.3}s, cache hit rate {:.1}%",
        hit_rate * 100.0
    );

    client.shutdown().expect("shutdown");
    handle.join();

    let num = Json::Num;
    let text = |s: &str| Json::Str(s.to_string());
    let anchor = obj(vec![
        ("molecule", text(anchor)),
        ("cold_s", num(cold_s)),
        ("cache_hit_s", num(warm_s)),
        ("speedup", num(speedup)),
        ("min_speedup", num(min_speedup)),
        ("bit_identical", Json::Bool(true)),
    ]);
    let large_jobs = large_jobs.iter().map(|j| {
        obj(vec![
            ("molecule", text(&j.molecule)),
            ("cold_s", num(j.cold_s)),
            ("cache_hit_s", num(j.hit_s)),
            ("speedup", num(j.cold_s / j.hit_s.max(1e-9))),
        ])
    });
    let mixed = obj(vec![
        ("requests", num(n_requests as f64)),
        ("connections", num(CLIENTS as f64)),
        ("wall_s", num(wall_s)),
        ("req_per_s", num(req_per_s)),
        ("latency_p50_s", num(p50)),
        ("latency_p99_s", num(p99)),
        ("cache_hits", num(hits)),
        ("cache_misses", num(misses)),
        ("cache_hit_rate", num(hit_rate)),
    ]);
    let doc = obj(vec![
        ("bench", text("serve")),
        ("mode", text(if quick { "quick" } else { "full" })),
        ("anchor", anchor),
        ("large_jobs", Json::Arr(large_jobs.collect())),
        ("mixed", mixed),
        ("usage_cpu_s", Json::Obj(usage)),
    ]);
    std::fs::write(&out, format!("{doc:#}\n")).expect("write BENCH_serve.json");
    println!("wrote {out}");

    if speedup < min_speedup {
        eprintln!(
            "bench_serve: cache-hit speedup {speedup:.1}x is below the {min_speedup:.0}x floor — \
             the content-addressed cache path has regressed (serialization, lookup, or the \
             request canonicalization is no longer O(1) relative to a cold solve)"
        );
        std::process::exit(2);
    }
}
