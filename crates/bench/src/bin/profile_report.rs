//! `profile_report`: check a parallel-efficiency profile.
//!
//! ```text
//! cargo run --release -p qp-bench --bin profile_report -- --validate FILE
//! ```
//!
//! Checks a `qp-profile/v1` report — as `qperturb --profile BASE` writes it
//! to `BASE.json` — without running anything: well-formed JSON, all four
//! attribution fractions in `[0, 1]`, summing to 1 ± 0.02. Exit 1 when the
//! report fails, 2 on bad usage or an unreadable file.

use qp_core::profile::validate_profile_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [flag, path] if flag == "--validate" => path,
        _ => {
            eprintln!("usage: profile_report --validate FILE");
            std::process::exit(2)
        }
    };
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("profile_report: {path}: {e}");
        std::process::exit(2)
    });
    if let Err(e) = validate_profile_json(&body) {
        eprintln!("profile_report: {path}: {e}");
        std::process::exit(1)
    }
    println!("{path}: valid qp-profile/v1 report");
}
