//! Span recorder: nestable RAII guards, thread-local buffers, global sink.
//!
//! Hot path when disabled: one relaxed atomic load (a compile-time `false`
//! with the `disabled` cargo feature), no clock read, no allocation. When
//! enabled, closing a span pushes one event into a thread-local `Vec`;
//! buffers drain into the global sink when they reach [`DRAIN_AT`] events
//! and when the thread exits, so rank threads spawned by `qp-mpi::run_spmd`
//! flush themselves without cooperation.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which stage of the pipeline a span belongs to. Drives Perfetto coloring
/// and lets exporters group DM/Sumup/Rho/H/Sternheimer work per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Density-matrix update kernels.
    Dm,
    /// Sum-up of the (response) density on the grid from the density
    /// matrix (Eq. 8).
    Sumup,
    /// The (response) electrostatic potential: multipole moments, radial
    /// Poisson solve and the potential on the grid (Eq. 9).
    Rho,
    /// (Response-)Hamiltonian integration: the potential matrix on the
    /// grid and its sum across ranks.
    H,
    /// The exchange-correlation term on the grid: `v_xc(n)` in the SCF,
    /// `f_xc·n¹` in DFPT.
    Xc,
    /// The generalized eigensolve of the SCF (and the factor of `S`).
    Eigen,
    /// Sternheimer solve inside a DFPT iteration.
    Sternheimer,
    /// Linear or Pulay mixing of the next iterate.
    Mixing,
    /// SCF driver iterations.
    Scf,
    /// DFPT driver iterations.
    Dfpt,
    /// MPI collectives and point-to-point traffic.
    Comm,
    /// Device kernel launches (qp-cl).
    Kernel,
    /// Grid partitioning / footprint analysis.
    Grid,
    /// File and exporter I/O.
    Io,
    /// Resilience machinery: fault injection, checkpointing, recovery.
    Resil,
    /// Anything else.
    Other,
}

impl Phase {
    /// Stable lower-case tag used as the trace-event category.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Dm => "dm",
            Phase::Sumup => "sumup",
            Phase::Rho => "rho",
            Phase::H => "h",
            Phase::Xc => "xc",
            Phase::Eigen => "eigen",
            Phase::Sternheimer => "sternheimer",
            Phase::Mixing => "mixing",
            Phase::Scf => "scf",
            Phase::Dfpt => "dfpt",
            Phase::Comm => "comm",
            Phase::Kernel => "kernel",
            Phase::Grid => "grid",
            Phase::Io => "io",
            Phase::Resil => "resil",
            Phase::Other => "other",
        }
    }

    /// Reserved Chrome-trace color name, so each phase renders in a
    /// consistent hue in Perfetto / chrome://tracing.
    pub fn color(self) -> &'static str {
        match self {
            Phase::Dm => "thread_state_running",
            Phase::Sumup => "thread_state_iowait",
            Phase::Rho => "thread_state_runnable",
            Phase::H => "thread_state_unknown",
            Phase::Xc => "thread_state_sleeping",
            Phase::Eigen => "rail_response",
            Phase::Sternheimer => "light_memory_dump",
            Phase::Mixing => "rail_animation",
            Phase::Scf => "background_memory_dump",
            Phase::Dfpt => "detailed_memory_dump",
            Phase::Comm => "generic_work",
            Phase::Kernel => "good",
            Phase::Grid => "bad",
            Phase::Io => "terrible",
            Phase::Resil => "yellow",
            Phase::Other => "grey",
        }
    }
}

/// Which timeline an event lives on: measured host time or the
/// `qp-machine` cost model's simulated exascale time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// Wall-clock time measured in this process.
    Host,
    /// Simulated seconds from the machine model.
    Simulated,
}

/// One closed span, ready for export.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Human-readable span name.
    pub name: String,
    /// Pipeline phase (becomes the trace category + color).
    pub phase: Phase,
    /// Simulated MPI rank the work belongs to (trace `tid`).
    pub rank: usize,
    /// OS-thread ordinal the span was recorded on (nesting is only
    /// meaningful within one thread — the tree builder groups by this).
    pub thread: u64,
    /// Timeline this event belongs to (trace `pid`).
    pub track: Track,
    /// Start, in microseconds since the recorder epoch (host track) or
    /// since simulated t=0 (simulated track).
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Extra key/value payload shown in the trace viewer's args pane.
    pub args: Vec<(&'static str, String)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static OBSERVED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static OBSERVER: Mutex<Option<SpanObserver>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Callback invoked with every closed span while an observer is installed.
pub type SpanObserver = std::sync::Arc<dyn Fn(&SpanEvent) + Send + Sync>;

/// Events buffered per thread before draining into the global sink.
const DRAIN_AT: usize = 256;

thread_local! {
    static RANK: Cell<usize> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
    static BUFFER: RefCell<DrainOnExit> = const { RefCell::new(DrainOnExit(Vec::new())) };
}

/// Stable ordinal of the calling OS thread (assigned on first use).
pub fn thread_ordinal() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Thread-local buffer wrapper that flushes itself when the thread exits.
struct DrainOnExit(Vec<SpanEvent>);

impl Drop for DrainOnExit {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            SINK.lock().unwrap().append(&mut self.0);
        }
    }
}

/// Is the recorder armed? Compile-time `false` under the `disabled`
/// feature. Spans are live when either the buffering recorder is enabled
/// or a live observer is installed (observer-only mode records nothing —
/// events stream to the callback and are dropped, so a long-running
/// subscriber like the `qp-serve` progress streamer never grows the sink).
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "disabled") {
        return false;
    }
    ENABLED.load(Ordering::Relaxed) || OBSERVED.load(Ordering::Relaxed)
}

/// Install a live span observer: `f` is invoked synchronously with every
/// span closed from now on (on the closing thread), whether or not the
/// buffering recorder is enabled. Replaces any previous observer.
pub fn set_span_observer(f: SpanObserver) {
    *OBSERVER.lock().unwrap() = Some(f);
    // Pin the epoch like set_enabled does, so observed timestamps are sane.
    EPOCH.get_or_init(Instant::now);
    OBSERVED.store(true, Ordering::Relaxed);
}

/// Remove the live span observer (span recording reverts to the
/// `set_enabled` flag alone).
pub fn clear_span_observer() {
    OBSERVED.store(false, Ordering::Relaxed);
    *OBSERVER.lock().unwrap() = None;
}

/// Arm or disarm the recorder at runtime.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps are positive.
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tag the current thread with its simulated MPI rank; spans opened without
/// an explicit rank inherit it. `qp-mpi::run_spmd` calls this per rank thread.
pub fn set_thread_rank(rank: usize) {
    RANK.with(|r| r.set(rank));
}

/// The rank the current thread is tagged with (0 if never set).
pub fn thread_rank() -> usize {
    RANK.with(|r| r.get())
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

fn push_event(ev: SpanEvent) {
    if OBSERVED.load(Ordering::Relaxed) {
        let observer = OBSERVER.lock().unwrap().clone();
        if let Some(f) = observer {
            f(&ev);
        }
    }
    // Buffer for export only when the recorder proper is enabled — an
    // observer alone streams and drops.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    BUFFER.with(|b| {
        // Re-entrancy guard: if the TLS buffer is somehow borrowed (e.g. a
        // span closing inside a drain), drop the event rather than panic.
        if let Ok(mut buf) = b.try_borrow_mut() {
            buf.0.push(ev);
            if buf.0.len() >= DRAIN_AT {
                SINK.lock().unwrap().append(&mut buf.0);
            }
        }
    });
}

/// Flush the current thread's buffer into the global sink.
pub fn flush_thread() {
    BUFFER.with(|b| {
        if let Ok(mut buf) = b.try_borrow_mut() {
            if !buf.0.is_empty() {
                SINK.lock().unwrap().append(&mut buf.0);
            }
        }
    });
}

/// Drain everything recorded so far (current thread's buffer included).
/// Threads still running keep their unflushed tails; call after joins.
pub fn take_events() -> Vec<SpanEvent> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().unwrap())
}

/// Number of events currently retained (buffered on this thread + sunk).
pub fn retained_events() -> usize {
    let local = BUFFER.with(|b| b.try_borrow().map(|buf| buf.0.len()).unwrap_or(0));
    local + SINK.lock().unwrap().len()
}

/// Record a span on the **simulated** timeline directly — used where time
/// comes from the `qp-machine` cost model rather than a host clock.
/// `start_s`/`dur_s` are simulated seconds since simulated t=0.
pub fn sim_span(
    rank: usize,
    phase: Phase,
    name: impl Into<String>,
    start_s: f64,
    dur_s: f64,
    args: Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    push_event(SpanEvent {
        name: name.into(),
        phase,
        rank,
        thread: thread_ordinal(),
        track: Track::Simulated,
        start_us: start_s * 1e6,
        dur_us: dur_s * 1e6,
        args,
    });
}

/// RAII span: created by [`SpanGuard::begin`] (or the `span!` macro), closed
/// on drop. Inert (a `None` payload) when the recorder is disabled.
#[must_use = "a span guard closes its span when dropped"]
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    name: String,
    phase: Phase,
    rank: usize,
    start_us: f64,
    args: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// Open a span for `rank`. Returns an inert guard when disabled.
    #[inline]
    pub fn begin(rank: usize, phase: Phase, name: impl Into<String>) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some(OpenSpan {
            name: name.into(),
            phase,
            rank,
            start_us: now_us(),
            args: Vec::new(),
        }))
    }

    /// Attach a key/value payload (shown in the viewer's args pane).
    /// No-op on an inert guard.
    pub fn arg(&mut self, key: &'static str, value: impl std::fmt::Display) -> &mut Self {
        if let Some(open) = &mut self.0 {
            open.args.push((key, value.to_string()));
        }
        self
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let end = now_us();
            push_event(SpanEvent {
                name: open.name,
                phase: open.phase,
                rank: open.rank,
                thread: thread_ordinal(),
                track: Track::Host,
                start_us: open.start_us,
                dur_us: (end - open.start_us).max(0.0),
                args: open.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share global recorder state; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_recorder(f: impl FnOnce()) {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _ = take_events();
        f();
        set_enabled(false);
        let _ = take_events();
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let _ = take_events();
        {
            let mut s = SpanGuard::begin(3, Phase::Dm, "should-vanish");
            s.arg("k", 1);
            assert!(!s.is_recording());
        }
        sim_span(0, Phase::Comm, "also-vanishes", 0.0, 1.0, Vec::new());
        assert_eq!(retained_events(), 0);
        assert!(take_events().is_empty());
    }

    #[test]
    fn nested_spans_are_ordered_and_contained() {
        with_clean_recorder(|| {
            {
                let _outer = SpanGuard::begin(1, Phase::Scf, "outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = SpanGuard::begin(1, Phase::Dm, "inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let events = take_events();
            assert_eq!(events.len(), 2);
            // Spans close innermost-first.
            assert_eq!(events[0].name, "inner");
            assert_eq!(events[1].name, "outer");
            let (inner, outer) = (&events[0], &events[1]);
            // Containment: inner starts after outer and ends no later.
            assert!(inner.start_us >= outer.start_us);
            assert!(
                inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1.0,
                "inner span must nest within outer"
            );
            assert_eq!(outer.rank, 1);
            assert_eq!(outer.track, Track::Host);
        });
    }

    #[test]
    fn thread_rank_is_inherited_and_buffers_drain_on_exit() {
        with_clean_recorder(|| {
            let h = std::thread::spawn(|| {
                set_thread_rank(7);
                let _s = SpanGuard::begin(thread_rank(), Phase::Comm, "worker");
            });
            h.join().unwrap();
            let events = take_events();
            assert_eq!(events.len(), 1, "thread exit must flush its buffer");
            assert_eq!(events[0].rank, 7);
        });
    }

    #[test]
    fn sim_spans_land_on_simulated_track() {
        with_clean_recorder(|| {
            sim_span(
                4,
                Phase::Sumup,
                "modeled",
                1.5,
                0.25,
                vec![("bytes", "42".into())],
            );
            let events = take_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].track, Track::Simulated);
            assert_eq!(events[0].start_us, 1.5e6);
            assert_eq!(events[0].dur_us, 0.25e6);
            assert_eq!(events[0].args, vec![("bytes", "42".to_string())]);
        });
    }

    #[test]
    fn args_are_recorded() {
        with_clean_recorder(|| {
            {
                let mut s = SpanGuard::begin(0, Phase::Kernel, "k");
                s.arg("flops", 123).arg("name", "dm_update");
            }
            let events = take_events();
            assert_eq!(
                events[0].args,
                vec![
                    ("flops", "123".to_string()),
                    ("name", "dm_update".to_string())
                ]
            );
        });
    }

    #[test]
    fn observer_streams_without_buffering() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let _ = take_events();
        let seen = std::sync::Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        set_span_observer(std::sync::Arc::new(move |ev: &SpanEvent| {
            sink.lock()
                .unwrap()
                .push(format!("{}:{}", ev.rank, ev.name));
        }));
        {
            let _s = SpanGuard::begin(9, Phase::Dfpt, "observed-only");
        }
        sim_span(2, Phase::Comm, "observed-sim", 0.0, 1.0, Vec::new());
        clear_span_observer();
        // The observer saw both events live...
        assert_eq!(
            *seen.lock().unwrap(),
            vec!["9:observed-only".to_string(), "2:observed-sim".to_string()]
        );
        // ...but nothing was retained for export: observer-only mode must
        // not grow the sink of a long-running process.
        assert_eq!(retained_events(), 0);
        assert!(take_events().is_empty());
        // And once cleared, spans are inert again.
        {
            let _s = SpanGuard::begin(0, Phase::Dfpt, "after-clear");
        }
        assert!(seen.lock().unwrap().len() == 2);
    }

    #[test]
    fn observer_and_recorder_compose() {
        with_clean_recorder(|| {
            let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let c = count.clone();
            set_span_observer(std::sync::Arc::new(move |_ev: &SpanEvent| {
                c.fetch_add(1, Ordering::Relaxed);
            }));
            {
                let _s = SpanGuard::begin(1, Phase::Scf, "both-modes");
            }
            clear_span_observer();
            assert_eq!(count.load(Ordering::Relaxed), 1);
            let events = take_events();
            assert_eq!(events.len(), 1, "recorder must still buffer when enabled");
            assert_eq!(events[0].name, "both-modes");
        });
    }
}
