//! # qp-trace
//!
//! Unified observability for the whole DFPT stack: one span recorder, one
//! metrics registry, one set of exporters, one leveled logger — replacing
//! the former islands (`qp-cl` kernel counters, `qp-mpi` traffic records,
//! `qp-grid` footprints, ad-hoc `println!` chatter) with a single substrate
//! every layer reports into. This is the per-phase / per-rank accounting the
//! paper's whole evaluation (Figs. 9–16) is built on, made first-class.
//!
//! * [`span`] — `span!(rank, phase, name)` guards capturing wall-clock
//!   microseconds (and optionally `qp-machine` simulated seconds), nestable,
//!   recorded into thread-local buffers drained into a global sink. When
//!   tracing is disabled the guard is inert: one relaxed atomic load, no
//!   allocation, no clock read (and with the `disabled` cargo feature the
//!   check is a compile-time constant).
//! * [`metrics`] — labeled `Counter` / `Gauge` / `Histogram` registry with
//!   structured snapshots; one process-global registry every layer reports
//!   into (a test can build its own).
//! * [`attrib`] — span attribution: rebuilds the nesting forest from closed
//!   spans, computes exclusive (self) time per span and per phase, and
//!   emits flamegraph-compatible collapsed stacks.
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto: one track
//!   per rank, phase-colored spans, a second process for simulated time)
//!   and flat JSON/CSV metrics dumps.
//! * [`json`] — the workspace's one JSON module: the [`json::Json`] value, a
//!   strict depth-capped parser and the shortest-round-trip writer (compact,
//!   or indented with `{:#}`). qp-serve's wire format, `--result-json`,
//!   traces, metrics, the profile report and the bench files all use it.
//! * [`log`] — `QP_LOG={error,warn,info,debug}` leveled logging macros;
//!   `info`/`debug` go to stdout, `warn`/`error` to stderr, matching the
//!   CLI's historical output at the default `info` level.
//!
//! ## Environment hooks
//!
//! [`init_from_env`] arms the recorder when `QP_TRACE=<path>` is set (and
//! notes `QP_METRICS=<path>`); [`finish`] writes the pending trace/metrics
//! files. Binaries call the pair around their run; libraries only ever emit.

pub mod attrib;
pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
pub mod span;

pub use attrib::{build_forest, collapsed_stacks, self_time_by_phase, SpanNode};
pub use export::{chrome_trace_json, metrics_csv, metrics_json};
pub use metrics::{global_metrics, Counter, Gauge, Histogram, MetricValue, MetricsRegistry};
pub use span::{
    clear_span_observer, enabled, set_enabled, set_span_observer, set_thread_rank, sim_span,
    thread_rank, Phase, SpanEvent, SpanGuard, SpanObserver,
};

use std::sync::Mutex;

static OUT_PATHS: Mutex<(Option<String>, Option<String>)> = Mutex::new((None, None));

/// Arm tracing from the environment: `QP_TRACE=<path>` enables the span
/// recorder and schedules a Chrome-trace write to `<path>` at [`finish`];
/// `QP_METRICS=<path>` schedules a metrics JSON (or CSV, by extension) dump.
/// Returns whether tracing was enabled.
pub fn init_from_env() -> bool {
    let trace = std::env::var("QP_TRACE").ok().filter(|p| !p.is_empty());
    let metrics = std::env::var("QP_METRICS").ok().filter(|p| !p.is_empty());
    let mut paths = OUT_PATHS.lock().unwrap();
    if let Some(p) = &trace {
        set_enabled(true);
        paths.0 = Some(p.clone());
    }
    if let Some(p) = &metrics {
        paths.1 = Some(p.clone());
    }
    trace.is_some()
}

/// Override the trace output path programmatically (e.g. `--trace` flags).
pub fn set_trace_path(path: impl Into<String>) {
    set_enabled(true);
    OUT_PATHS.lock().unwrap().0 = Some(path.into());
}

/// Override the metrics output path programmatically.
pub fn set_metrics_path(path: impl Into<String>) {
    OUT_PATHS.lock().unwrap().1 = Some(path.into());
}

/// Drain every recorded span and write the scheduled output files. Call
/// once, at the end of the program, after worker threads have exited.
/// Returns the trace path written, if any.
pub fn finish() -> std::io::Result<Option<String>> {
    let (trace_path, metrics_path) = {
        let mut paths = OUT_PATHS.lock().unwrap();
        (paths.0.take(), paths.1.take())
    };
    if let Some(path) = &trace_path {
        let events = span::take_events();
        std::fs::write(path, chrome_trace_json(&events))?;
    }
    if let Some(path) = &metrics_path {
        let snap = global_metrics().snapshot();
        let body = if path.ends_with(".csv") {
            metrics_csv(&snap)
        } else {
            metrics_json(&snap)
        };
        std::fs::write(path, body)?;
    }
    Ok(trace_path)
}

/// Open a span: `span!(phase, name)` on the current thread's rank, or
/// `span!(rank, phase, name)` with an explicit rank. Binds the returned
/// guard to `_span`-style lets; the span closes when the guard drops.
#[macro_export]
macro_rules! span {
    ($phase:expr, $name:expr) => {
        $crate::SpanGuard::begin($crate::thread_rank(), $phase, $name)
    };
    ($rank:expr, $phase:expr, $name:expr) => {
        $crate::SpanGuard::begin($rank, $phase, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_writes_scheduled_files() {
        let dir = std::env::temp_dir().join("qp-trace-test-finish");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let metrics = dir.join("m.csv");
        set_trace_path(trace.to_str().unwrap());
        set_metrics_path(metrics.to_str().unwrap());
        {
            let _s = span!(0, Phase::Other, "file-test");
        }
        finish().unwrap();
        set_enabled(false);
        let body = std::fs::read_to_string(&trace).unwrap();
        json::parse(&body).unwrap();
        assert!(body.contains("file-test"));
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .starts_with("name,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
