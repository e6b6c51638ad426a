//! `profile_report`: the parallel-efficiency attribution report.
//!
//! Runs one bench case's job (SCF, DFPT directions, α) twice — a 1-thread
//! serial reference and an instrumented parallel leg — and explains where the parallel wall
//! clock went: useful parallel work, scheduling overhead, load imbalance,
//! and serial remainder (the four fractions sum to 1), plus per-phase span
//! self-times with achieved GFLOP/s and arithmetic intensity.
//!
//! ```text
//! cargo run --release -p qp-bench --bin profile_report -- \
//!     [--case water|ligand49|polyethylene-n4] [--dirs N] [--out BASE]
//! cargo run --release -p qp-bench --bin profile_report -- --validate FILE
//! ```
//!
//! `--out BASE` writes `BASE.json` (the `qp-profile/v1` document) and
//! `BASE.folded` (flamegraph-compatible collapsed stacks). `--validate`
//! checks an existing report instead of running anything: well-formed JSON,
//! all four fractions in `[0, 1]`, summing to 1 ± 0.02 — the CI smoke leg.

use qp_bench::workloads;
use qp_core::profile::{default_profile_threads, profile_case, validate_profile_json};
use qp_core::system::System;
use qp_core::Job;

fn usage() -> ! {
    eprintln!(
        "usage: profile_report [--case water|ligand49|polyethylene-n4] \
         [--dirs N] [--threads N] [--out BASE]\n       profile_report --validate FILE"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
    };

    if let Some(path) = value("--validate") {
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("profile_report: {path}: {e}");
            std::process::exit(2)
        });
        match validate_profile_json(&body) {
            Ok(()) => {
                println!("{path}: valid qp-profile/v1 report");
                return;
            }
            Err(e) => {
                eprintln!("profile_report: {path}: {e}");
                std::process::exit(1)
            }
        }
    }

    let case = value("--case").unwrap_or_else(|| "ligand49".to_string());
    let build: Box<dyn Fn() -> System> = match case.as_str() {
        "water" => Box::new(workloads::bench_water_system),
        "ligand49" => Box::new(workloads::bench_ligand_system),
        "polyethylene-n4" => Box::new(|| workloads::bench_polymer_system(26)),
        other => {
            eprintln!("profile_report: unknown case '{other}'");
            usage()
        }
    };

    let n_dirs = value("--dirs")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if case == "water" { 1 } else { 3 })
        .clamp(1, 3);
    let scf = if case == "water" {
        qp_core::ScfOptions::default()
    } else {
        workloads::bench_scf_options()
    };
    let job = Job {
        dirs: (0..n_dirs).collect(),
        ..Job::new(scf, workloads::bench_dfpt_options())
    };
    let threads = value("--threads")
        .and_then(|s| s.parse::<usize>().ok())
        .map_or_else(default_profile_threads, |t| t.max(2));

    println!(
        "profile_report: case {case}, {} direction(s), serial + {}-thread legs",
        n_dirs, threads
    );
    let report = profile_case(&case, build.as_ref(), &job, threads).unwrap_or_else(|e| {
        eprintln!("profile_report: {e}");
        std::process::exit(1)
    });
    print!("{}", report.render_text());

    if let Some(base) = value("--out") {
        let json_path = format!("{base}.json");
        let folded_path = format!("{base}.folded");
        std::fs::write(&json_path, report.to_json()).expect("write profile JSON");
        std::fs::write(&folded_path, &report.folded).expect("write collapsed stacks");
        println!("wrote {json_path} and {folded_path}");
    }
}
