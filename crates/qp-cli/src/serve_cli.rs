//! The serving subcommands: `qperturb serve | submit | wait | stats |
//! preempt | shutdown` — thin drivers over `qp_serve::{server, client}`.
//!
//! ```text
//! qperturb serve --addr 127.0.0.1:7878 --state-dir /tmp/qp-state
//! qperturb submit --builtin ligand --tenant alice --json
//! qperturb submit molecule.xyz --no-wait
//! qperturb wait --job 3 --stream
//! qperturb stats
//! qperturb shutdown
//! ```
//!
//! `submit --json` prints the result in the canonical JSON form — the same
//! writer the server and `--result-json` use — so served and direct
//! results can be compared byte-for-byte.

use qp_serve::json::{obj, Json};
use qp_serve::{Client, ServerConfig};
use qp_trace::{qp_error, qp_info};
use std::process::ExitCode;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn fail(msg: &str) -> ExitCode {
    qp_error!("error: {msg}");
    ExitCode::FAILURE
}

/// Dispatch a serving subcommand; `args` excludes the subcommand word.
pub fn run(cmd: &str, args: &[String]) -> ExitCode {
    match cmd {
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "wait" => cmd_wait(args),
        "stats" => cmd_stats(args),
        "preempt" => cmd_preempt(args),
        "shutdown" => cmd_shutdown(args),
        _ => unreachable!("dispatcher only routes known subcommands"),
    }
}

fn take_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("missing value for {flag}"))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let r = match arg.as_str() {
            "--addr" => take_value(&mut it, "--addr").map(|v| cfg.addr = v.clone()),
            "--state-dir" => take_value(&mut it, "--state-dir")
                .map(|v| cfg.state_dir = Some(std::path::PathBuf::from(v))),
            "--workers" => take_value(&mut it, "--workers").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| cfg.workers = n)
                    .map_err(|_| "--workers must be an integer".to_string())
            }),
            "--slice-ms" => take_value(&mut it, "--slice-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| cfg.slice = Duration::from_millis(ms))
                    .map_err(|_| "--slice-ms must be an integer".to_string())
            }),
            other => Err(format!("unknown option '{other}'")),
        };
        if let Err(e) = r {
            return fail(&e);
        }
    }
    let handle = match qp_serve::server::start(cfg) {
        Ok(h) => h,
        Err(e) => return fail(&e.to_string()),
    };
    // The bound address line is the machine-readable startup handshake the
    // CI smoke leg (and any supervisor) scrapes; keep its shape stable.
    println!("qp-serve listening on {}", handle.addr());
    qp_info!("serving until a 'shutdown' op arrives");
    handle.join();
    qp_info!("server drained");
    ExitCode::SUCCESS
}

/// Shared client-side options: address + job id.
struct ClientArgs {
    addr: String,
    job: Option<u64>,
    stream: bool,
}

fn parse_client_args(args: &[String]) -> Result<ClientArgs, String> {
    let mut out = ClientArgs {
        addr: DEFAULT_ADDR.to_string(),
        job: None,
        stream: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = take_value(&mut it, "--addr")?.clone(),
            "--job" => {
                out.job = Some(
                    take_value(&mut it, "--job")?
                        .parse()
                        .map_err(|_| "--job must be an integer".to_string())?,
                )
            }
            "--stream" => out.stream = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(out)
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut tenant: Option<String> = None;
    let mut builtin: Option<String> = None;
    let mut input: Option<String> = None;
    let mut basis: Option<String> = None;
    let mut grid: Option<String> = None;
    let mut scf: Vec<(&str, Json)> = Vec::new();
    let mut dfpt: Vec<(&str, Json)> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut cache_bypass = false;
    let mut wait = true;
    let mut stream = false;
    let mut as_json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--addr" => addr = take_value(&mut it, "--addr")?.clone(),
                "--tenant" => tenant = Some(take_value(&mut it, "--tenant")?.clone()),
                "--builtin" => builtin = Some(take_value(&mut it, "--builtin")?.clone()),
                "--basis" => basis = Some(take_value(&mut it, "--basis")?.clone()),
                "--grid" => grid = Some(take_value(&mut it, "--grid")?.clone()),
                "--scf-tol" => scf.push(("tol", num(take_value(&mut it, "--scf-tol")?)?)),
                "--scf-mixing" => scf.push(("mixing", num(take_value(&mut it, "--scf-mixing")?)?)),
                "--smearing" => scf.push(("smearing", num(take_value(&mut it, "--smearing")?)?)),
                "--dfpt-tol" => dfpt.push(("tol", num(take_value(&mut it, "--dfpt-tol")?)?)),
                "--dfpt-mixing" => {
                    dfpt.push(("mixing", num(take_value(&mut it, "--dfpt-mixing")?)?))
                }
                "--threads" => {
                    threads = Some(
                        take_value(&mut it, "--threads")?
                            .parse()
                            .map_err(|_| "--threads must be an integer".to_string())?,
                    )
                }
                "--cache-bypass" => cache_bypass = true,
                "--no-wait" => wait = false,
                "--stream" => stream = true,
                "--json" => as_json = true,
                other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
                path => input = Some(path.to_string()),
            }
            Ok(())
        })();
        if let Err(e) = r {
            return fail(&e);
        }
    }

    let molecule = match (&builtin, &input) {
        (Some(b), None) => obj(vec![("builtin", Json::Str(b.clone()))]),
        (None, Some(path)) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("{path}: {e}")),
            };
            if path.ends_with(".xyz") {
                obj(vec![("xyz", Json::Str(text))])
            } else {
                obj(vec![("geometry_in", Json::Str(text))])
            }
        }
        _ => return fail("submit needs exactly one of --builtin or a geometry file"),
    };

    let mut request = vec![("molecule", molecule)];
    if let Some(t) = tenant {
        request.push(("tenant", Json::Str(t)));
    }
    if let Some(b) = basis {
        request.push(("basis", Json::Str(b)));
    }
    if let Some(g) = grid {
        request.push(("grid", obj(vec![("preset", Json::Str(g))])));
    }
    if !scf.is_empty() {
        request.push(("scf", obj(scf)));
    }
    if !dfpt.is_empty() {
        request.push(("dfpt", obj(dfpt)));
    }
    if let Some(t) = threads {
        request.push(("threads", Json::Num(t as f64)));
    }
    if cache_bypass {
        request.push(("cache", Json::Str("bypass".to_string())));
    }

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let outcome = client.submit(obj(request), wait, stream, |line| {
        qp_info!("[progress] {line}");
    });
    match outcome {
        Ok(out) => {
            if let Some(result) = &out.result {
                if as_json {
                    println!("{}", result.to_json());
                } else {
                    print_result(out.job, out.cached, result);
                }
            } else {
                qp_info!(
                    "job {} queued (use 'qperturb wait --job {}')",
                    out.job,
                    out.job
                );
                if as_json {
                    println!("{}", obj(vec![("job", Json::Num(out.job as f64))]));
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn num(s: &str) -> Result<Json, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("'{s}' is not a finite number"))
}

fn print_result(job: u64, cached: bool, r: &qp_serve::JobResultData) {
    qp_info!(
        "job {job}{}: E = {:.10} Ha ({} SCF iterations)",
        if cached { " (cached)" } else { "" },
        r.energy,
        r.scf_iterations
    );
    print_polarizability(r);
}

/// The polarizability tensor and its invariants, as `qperturb` and
/// `qperturb submit` print a result.
pub(crate) fn print_polarizability(r: &qp_serve::JobResultData) {
    qp_info!("polarizability tensor (Bohr^3):");
    for i in 0..3 {
        qp_info!(
            "  [ {:10.4} {:10.4} {:10.4} ]",
            r.alpha[(i, 0)],
            r.alpha[(i, 1)],
            r.alpha[(i, 2)]
        );
    }
    qp_info!(
        "isotropic: {:.4} Bohr^3, anisotropy: {:.4} Bohr^3",
        r.isotropic,
        r.anisotropy
    );
}

fn cmd_wait(args: &[String]) -> ExitCode {
    let ca = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(job) = ca.job else {
        return fail("wait requires --job <id>");
    };
    let mut client = match Client::connect(&ca.addr) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.wait(job, ca.stream, |line| qp_info!("[progress] {line}")) {
        Ok(out) => {
            match &out.result {
                Some(r) => println!("{}", r.to_json()),
                None => qp_info!("job {job} finished without a result payload"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let ca = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let mut client = match Client::connect(&ca.addr) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.stats() {
        Ok(v) => {
            println!("{}", v);
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_preempt(args: &[String]) -> ExitCode {
    let ca = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(job) = ca.job else {
        return fail("preempt requires --job <id>");
    };
    let mut client = match Client::connect(&ca.addr) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.preempt(job) {
        Ok(()) => {
            qp_info!("job {job} asked to yield at its next iteration boundary");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_shutdown(args: &[String]) -> ExitCode {
    let ca = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let mut client = match Client::connect(&ca.addr) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.shutdown() {
        Ok(()) => {
            qp_info!("shutdown requested");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}
