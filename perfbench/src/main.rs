//! `perfbench` — the time-to-α benchmark of the DFPT pipeline.
//!
//! Runs one workload through the production entry points and prints its
//! metrics; the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ligand49|spmd_polymer8|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer ledger and writes
//! the workload's Chrome trace to `perfbench/out/<workload>.trace.json`.
//! See `perfbench/README.md` for the workloads, metrics and layer map.

mod job_bench;
mod jobs;
mod layers;
mod ledger;
mod mem;
mod reference;
mod serve;
mod stats;

use qp_serve::json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ligand49|spmd_polymer8|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ligand49", "spmd_polymer8", "serve_mix"];

/// End-to-end metrics (tracing off), in print order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("job_s", "s"),
    ("setup_s", "s"),
    ("scf_s", "s"),
    ("dfpt_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics of one timed run (see `perfbench/README.md` for
/// what each means on each workload).
pub struct EndToEnd {
    pub job_s: f64,
    pub setup_s: f64,
    pub scf_s: f64,
    pub dfpt_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut Report) {
        let values = [
            self.job_s,
            self.setup_s,
            self.scf_s,
            self.dfpt_s,
            self.peak_rss_mb,
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            report.metric(name, v, unit);
        }
    }
}

/// One run's outcome: the operations attempted and failed, and the
/// metrics by name, in print order.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Count one operation; a failure is logged to stderr.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where runs leave traces and scratch files: `perfbench/out` of the
/// checkout the benchmark was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace, &out),
        name => job_bench::run(name, args.seconds, args.trace, &out),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("{:<24} {value:>14.6} {unit}", name);
    }
    println!(
        "{}: {} attempted, {} failed",
        args.workload, report.attempted, report.failed
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
