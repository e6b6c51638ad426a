//! The persistent worker pool and the indexed parallel-region primitive.
//!
//! A *region* is one parallel loop: `n_items` split into chunks, executed
//! by whoever claims them first (dynamic self-scheduling via one
//! `fetch_add` per chunk). The submitting thread always participates, so a
//! region finishes even with zero free workers; workers pick regions off a
//! FIFO queue and help until each region is drained.
//!
//! Two mechanisms keep small regions from drowning in scheduling cost:
//!
//! * **Grain-size heuristic** — callers that know their per-item cost use
//!   the `_hinted` entry points; regions whose estimated serial time falls
//!   below [`INLINE_CUTOFF_NS`] (50 µs — the approximate 2-thread
//!   break-even against the measured region setup cost) run inline on the
//!   caller with no queue traffic and no setup.
//! * **Reusable region shell** — each thread caches its last drained
//!   `Region` allocation and re-arms it for the next submission when it
//!   holds the only reference, so iteration-heavy phases (SCF/DFPT loops)
//!   pay the region allocation once, not once per loop.

use crate::telemetry::{self, LaneStats, RegionRecord};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Chunks a region is split into, per active thread. More chunks = better
/// load balance, more scheduling traffic. 4 is the classic guided-lite
/// compromise.
const CHUNKS_PER_THREAD: usize = 4;

/// Estimated-serial-cost cutoff below which a *hinted* region runs inline.
/// The profiled enqueue+wakeup cost is ~25-30 µs per region, so at 2
/// threads a region only breaks even once its serial work exceeds roughly
/// `setup / (1 - 1/T - imbalance)` ≈ 70 µs; 50 µs errs slightly toward
/// fan-out for the benefit of wider hosts.
pub const INLINE_CUTOFF_NS: u64 = 50_000;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Erased `&dyn Fn(usize, usize)` (start, end of an item range) whose
/// referent is guaranteed by [`run_region`] to outlive the region.
struct RawJob(*const (dyn Fn(usize, usize) + Sync));
unsafe impl Send for RawJob {}
unsafe impl Sync for RawJob {}

/// Telemetry side-car for one region run: set only while
/// [`telemetry::enabled`] at submission time, `None` otherwise (the
/// disabled hot path pays one `Option` branch per chunk).
struct RegionStats {
    /// Taken just before the region is enqueued.
    enqueued: Instant,
    /// Ns from enqueue to the first chunk claim (`u64::MAX` until then).
    first_claim_ns: AtomicU64,
    /// Per-lane busy/chunk tallies, updated per chunk *before* the chunk is
    /// counted in `done`, so the submitter's final record sees every lane.
    lanes: Mutex<Vec<LaneStats>>,
}

impl RegionStats {
    fn new() -> RegionStats {
        RegionStats {
            enqueued: Instant::now(),
            first_claim_ns: AtomicU64::new(u64::MAX),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// Credit `busy_ns` and one chunk to the calling thread's lane.
    fn credit(&self, busy_ns: u64) {
        let lane = telemetry::lane_id();
        let mut lanes = self.lanes.lock();
        match lanes.iter_mut().find(|l| l.lane == lane) {
            Some(l) => {
                l.busy_ns += busy_ns;
                l.chunks += 1;
            }
            None => lanes.push(LaneStats {
                lane,
                busy_ns,
                chunks: 1,
            }),
        }
    }
}

/// Per-run state of a region. Written by the submitter while it holds the
/// *only* strong reference to the `Region` (fresh allocation or verified
/// `Arc::strong_count == 1` reuse), then published to workers by the queue
/// mutex: every worker locks the queue before it can clone the `Arc`, so
/// the submitter's writes happen-before any worker read.
struct RunFields {
    job: RawJob,
    /// Total items; chunk `c` covers `[c*chunk, min((c+1)*chunk, n_items))`.
    n_items: usize,
    chunk: usize,
    n_chunks: usize,
    /// Submitter's qp-trace rank, propagated to workers.
    rank: usize,
    /// Submitter's phase label at submission, set on every chunk executor
    /// — so work done (and roofline counters emitted) inside worker chunks
    /// lands in the submitter's phase whether or not telemetry records.
    label: &'static str,
    /// Telemetry side-car (`None` when recording is off).
    stats: Option<Arc<RegionStats>>,
}

/// One (re-armable) parallel region.
struct Region {
    /// Per-run fields; see [`RunFields`] for the publication argument.
    run: Mutex<RunFields>,
    /// Mirror of `run.n_chunks` for the lock-free `drained` check in the
    /// worker loop.
    queued: AtomicUsize,
    /// Next chunk to claim (fetch_add ticket).
    next: AtomicUsize,
    /// Chunks finished (executed or skipped after cancellation).
    done: AtomicUsize,
    /// Set on first panic: remaining chunks are skipped (still counted).
    cancelled: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

impl Region {
    fn fresh(fields: RunFields) -> Region {
        let n_chunks = fields.n_chunks;
        FRESH_REGIONS.fetch_add(1, Ordering::Relaxed);
        Region {
            run: Mutex::new(fields),
            queued: AtomicUsize::new(n_chunks),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        }
    }

    /// Claim-and-execute loop: run chunks until none are left.
    fn help(&self) {
        let (job, n_items, chunk, n_chunks, label, stats) = {
            let run = self.run.lock();
            (
                RawJob(run.job.0),
                run.n_items,
                run.chunk,
                run.n_chunks,
                run.label,
                run.stats.clone(),
            )
        };
        loop {
            let c = self.next.fetch_add(1, Ordering::AcqRel);
            if c >= n_chunks {
                return;
            }
            if let Some(st) = &stats {
                if c == 0 {
                    st.first_claim_ns
                        .store(st.enqueued.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
            if !self.cancelled.load(Ordering::Acquire) {
                let start = c * chunk;
                let end = (start + chunk).min(n_items);
                // SAFETY: the submitter keeps the closure alive until every
                // chunk is accounted for in `done`.
                let job = unsafe { &*job.0 };
                let t0 = stats.as_ref().map(|_| Instant::now());
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                    let _depth = stats.as_ref().map(|_| telemetry::enter_chunk());
                    let _label = telemetry::LabelGuard::set(label);
                    job(start, end)
                })) {
                    self.cancelled.store(true, Ordering::Release);
                    let mut slot = self.panic.lock();
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
                if let (Some(t0), Some(st)) = (t0, &stats) {
                    st.credit(t0.elapsed().as_nanos() as u64);
                }
            }
            // AcqRel: releases this chunk's output writes to whoever sees
            // the final count, and acquires prior chunks' writes for the
            // finisher.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == n_chunks {
                let mut fin = self.finished.lock();
                *fin = true;
                self.finished_cv.notify_all();
            }
        }
    }

    fn drained(&self) -> bool {
        self.next.load(Ordering::Acquire) >= self.queued.load(Ordering::Acquire)
    }
}

/// Fresh `Region` allocations since process start. Reuse of the per-thread
/// shell keeps this far below the number of regions *run*; exposed so tests
/// and diagnostics can verify the amortization actually happens.
static FRESH_REGIONS: AtomicU64 = AtomicU64::new(0);

/// Count of `Region` allocations so far (reused shells do not count).
pub fn region_allocations() -> u64 {
    FRESH_REGIONS.load(Ordering::Relaxed)
}

thread_local! {
    /// The calling thread's cached region shell: the last region this
    /// thread submitted and fully drained, kept for re-arming. `RefCell`
    /// so a nested submission (from inside one of our own chunks) falls
    /// back to a fresh allocation instead of aliasing the live shell.
    static SHELL: RefCell<Option<Arc<Region>>> = const { RefCell::new(None) };
}

/// The process-global pool.
struct Pool {
    queue: Mutex<VecDeque<Arc<Region>>>,
    /// Signals queued work and limit changes to parked workers.
    work_cv: Condvar,
    /// Desired total parallelism (participating caller + active workers).
    limit: AtomicUsize,
    /// Workers spawned so far (monotonic; workers above `limit - 1` park).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        limit: AtomicUsize::new(threads_from_env()),
        spawned: Mutex::new(0),
    })
}

/// Initial thread count: `QP_THREADS` if set and parseable (clamped to
/// ≥ 1), else the machine's available parallelism.
fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var("QP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Current parallelism target (1 = everything runs inline on the caller).
pub fn active_threads() -> usize {
    pool().limit.load(Ordering::Relaxed).max(1)
}

/// Set the parallelism target, spawning workers if needed. Returns the
/// previous value. Intended for tests and benches (`ThreadLease` is the
/// RAII form); production sizing comes from `QP_THREADS`.
pub fn set_active_threads(n: usize) -> usize {
    let n = n.max(1);
    let p = pool();
    let prev = p.limit.swap(n, Ordering::Relaxed);
    if n > 1 {
        ensure_workers(p, n - 1);
    }
    // Wake parked workers so newly-activated indices re-check the limit.
    p.work_cv.notify_all();
    prev
}

/// RAII thread-count override for tests: restores the previous limit on
/// drop.
pub struct ThreadLease {
    prev: usize,
}

impl ThreadLease {
    /// Set the limit to exactly `n` for the lease's lifetime.
    pub fn exactly(n: usize) -> Self {
        ThreadLease {
            prev: set_active_threads(n),
        }
    }

    /// Raise the limit to at least `n` (never lowers it).
    pub fn at_least(n: usize) -> Self {
        let current = active_threads();
        ThreadLease {
            prev: set_active_threads(current.max(n)),
        }
    }
}

impl Drop for ThreadLease {
    fn drop(&mut self) {
        set_active_threads(self.prev);
    }
}

fn ensure_workers(p: &'static Pool, wanted: usize) {
    let mut spawned = p.spawned.lock();
    while *spawned < wanted {
        let index = *spawned;
        std::thread::Builder::new()
            .name(format!("qp-par-{index}"))
            .spawn(move || worker_loop(index))
            .expect("spawn qp-par worker");
        *spawned += 1;
    }
}

fn worker_loop(index: usize) {
    let p = pool();
    loop {
        // Take (a handle to) the front unfinished region, parking while the
        // queue is empty or this worker is above the active limit.
        let region: Arc<Region> = {
            let mut q = p.queue.lock();
            loop {
                while q.front().is_some_and(|r| r.drained()) {
                    q.pop_front();
                }
                let active = index + 1 < p.limit.load(Ordering::Relaxed);
                if active {
                    if let Some(r) = q.front() {
                        break r.clone();
                    }
                }
                p.work_cv.wait(&mut q);
            }
        };
        // Attribute everything executed here to the submitter's rank.
        let rank = region.run.lock().rank;
        qp_trace::set_thread_rank(rank);
        region.help();
    }
}

/// Take the calling thread's cached shell and re-arm it with `fields`, or
/// allocate fresh when the shell is absent, busy (nested submission), or
/// still referenced by a straggling worker / the queue.
fn acquire_region(p: &'static Pool, fields: RunFields) -> Arc<Region> {
    let cached = SHELL.with(|s| s.try_borrow_mut().ok().and_then(|mut slot| slot.take()));
    if let Some(r) = cached {
        if Arc::strong_count(&r) > 1 {
            // Drained shells linger at the queue front until a worker next
            // sweeps them; evict ours so the count can reach 1.
            p.queue.lock().retain(|q| !Arc::ptr_eq(q, &r));
        }
        if Arc::strong_count(&r) == 1 {
            // Sole owner: no worker or queue reference can observe the
            // reset. The queue mutex publishes these writes on push.
            let n_chunks = fields.n_chunks;
            r.next.store(0, Ordering::Relaxed);
            r.done.store(0, Ordering::Relaxed);
            r.cancelled.store(false, Ordering::Relaxed);
            *r.finished.lock() = false;
            *r.panic.lock() = None;
            *r.run.lock() = fields;
            r.queued.store(n_chunks, Ordering::Relaxed);
            return r;
        }
    }
    Arc::new(Region::fresh(fields))
}

/// Run `job(start, end)` over `n_items` split into chunks, in parallel on
/// the pool. Blocks until every chunk has executed; panics from any chunk
/// are re-raised here after the region drains (so borrowed data stays valid
/// for the region's whole lifetime).
pub fn run_region(n_items: usize, job: &(dyn Fn(usize, usize) + Sync)) {
    run_region_impl(n_items, None, job)
}

/// [`run_region`] with a caller-supplied per-item cost estimate (ns). When
/// the estimated serial time is below [`INLINE_CUTOFF_NS`] the region runs
/// inline — no queue, no wakeup, no setup — which is a net win for regions
/// cheaper than the scheduling round trip.
pub fn run_region_hinted(n_items: usize, est_item_ns: u64, job: &(dyn Fn(usize, usize) + Sync)) {
    run_region_impl(n_items, Some(est_item_ns), job)
}

fn run_region_impl(n_items: usize, est_item_ns: Option<u64>, job: &(dyn Fn(usize, usize) + Sync)) {
    if n_items == 0 {
        return;
    }
    let recording = telemetry::enabled();
    let threads = active_threads();
    if threads <= 1 || n_items == 1 {
        run_inline(n_items, n_items, 1, threads, recording, job);
        return;
    }
    // Grain-size heuristic: a region whose whole serial cost is below the
    // scheduling round trip is cheaper to run right here.
    if est_item_ns.is_some_and(|est| est.saturating_mul(n_items as u64) < INLINE_CUTOFF_NS) {
        run_inline(n_items, n_items, 1, threads, recording, job);
        return;
    }
    let chunk = n_items.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let n_chunks = n_items.div_ceil(chunk);
    if n_chunks <= 1 {
        run_inline(n_items, chunk, n_chunks, threads, recording, job);
        return;
    }
    let t_start = recording.then(Instant::now);
    let nested = recording && telemetry::in_chunk();
    let label = telemetry::current_label();
    let p = pool();
    ensure_workers(p, threads - 1);
    // SAFETY (lifetime erasure): the region is fully drained before this
    // function returns — `done` reaches `n_chunks` and the finished flag is
    // observed under its mutex — so no worker touches `job` after return.
    let job_static: *const (dyn Fn(usize, usize) + Sync) =
        unsafe { std::mem::transmute(job as *const (dyn Fn(usize, usize) + Sync)) };
    let stats = recording.then(|| Arc::new(RegionStats::new()));
    let region = acquire_region(
        p,
        RunFields {
            job: RawJob(job_static),
            n_items,
            chunk,
            n_chunks,
            rank: qp_trace::thread_rank(),
            label,
            stats: stats.clone(),
        },
    );
    p.queue.lock().push_back(region.clone());
    p.work_cv.notify_all();
    let setup_ns = t_start.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
    // The caller always helps: the region completes even if every worker is
    // busy elsewhere (and nested regions cannot deadlock).
    region.help();
    let mut fin = region.finished.lock();
    while !*fin {
        region.finished_cv.wait(&mut fin);
    }
    drop(fin);
    let payload = region.panic.lock().take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    if let (Some(t_start), Some(st)) = (t_start, &stats) {
        // Every executed chunk credited its lane before being counted in
        // `done`, so the lane list is complete once the region drains.
        let fc = st.first_claim_ns.load(Ordering::Relaxed);
        let lanes = std::mem::take(&mut *st.lanes.lock());
        // A region the submitter drained single-handedly is de-facto
        // inline work: no worker ever touched it, so its wall time belongs
        // to the serial remainder, not to parallel setup.
        let caller_only = lanes.len() == 1 && lanes[0].lane == telemetry::lane_id();
        telemetry::record(RegionRecord {
            label,
            n_items,
            grain: chunk,
            n_chunks,
            threads,
            inline: false,
            caller_only,
            nested,
            setup_ns,
            queue_wait_ns: if fc == u64::MAX { 0 } else { fc },
            wall_ns: t_start.elapsed().as_nanos() as u64,
            lanes,
        });
    }
    // Cache the drained shell for this thread's next submission.
    SHELL.with(|s| {
        if let Ok(mut slot) = s.try_borrow_mut() {
            *slot = Some(region);
        }
    });
}

/// Execute a region inline on the caller, recording it (as serial time)
/// when telemetry is armed.
fn run_inline(
    n_items: usize,
    grain: usize,
    n_chunks: usize,
    threads: usize,
    recording: bool,
    job: &(dyn Fn(usize, usize) + Sync),
) {
    if !recording {
        job(0, n_items);
        return;
    }
    let nested = telemetry::in_chunk();
    let t0 = Instant::now();
    {
        let _depth = telemetry::enter_chunk();
        job(0, n_items);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    telemetry::record(RegionRecord {
        label: telemetry::current_label(),
        n_items,
        grain,
        n_chunks,
        threads,
        inline: true,
        caller_only: true,
        nested,
        setup_ns: 0,
        queue_wait_ns: 0,
        wall_ns,
        lanes: vec![LaneStats {
            lane: telemetry::lane_id(),
            busy_ns: wall_ns,
            chunks: 1,
        }],
    });
}

/// Indexed parallel for: `f(i)` for every `i in 0..n`, chunked over the
/// pool. Deterministic output placement is the caller's job (write to slot
/// `i`); qp-par guarantees each index runs exactly once.
pub fn for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    run_region(n, &|start, end| {
        for i in start..end {
            f(i);
        }
    });
}

/// [`for_each_index`] with a per-item cost estimate (ns) feeding the
/// grain-size heuristic: sub-threshold loops run inline with zero
/// scheduling cost.
pub fn for_each_index_hinted<F>(n: usize, est_item_ns: u64, f: F)
where
    F: Fn(usize) + Sync,
{
    run_region_hinted(n, est_item_ns, &|start, end| {
        for i in start..end {
            f(i);
        }
    });
}

/// Potentially-parallel two-way fork-join (`rayon::join` stand-in): `a`
/// and `b` may run concurrently; both have completed when this returns.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if active_threads() <= 1 {
        return (a(), b());
    }
    let mut ra: Option<RA> = None;
    let mut rb: Option<RB> = None;
    {
        let slot_a = Mutex::new(Some((a, &mut ra)));
        let slot_b = Mutex::new(Some((b, &mut rb)));
        run_region(2, &|start, end| {
            for i in start..end {
                if i == 0 {
                    if let Some((f, out)) = slot_a.lock().take() {
                        *out = Some(f());
                    }
                } else if let Some((f, out)) = slot_b.lock().take() {
                    *out = Some(f());
                }
            }
        });
    }
    (
        ra.expect("join arm a completed"),
        rb.expect("join arm b completed"),
    )
}

/// The unit tests of this crate run in parallel in one process and share the
/// pool's single limit. A test that takes a [`ThreadLease`] holds this guard
/// for its whole body (declared before the lease, so the lease drops first),
/// which keeps leases from different tests strictly nested.
#[cfg(test)]
pub(crate) fn serialize_limit() -> parking_lot::MutexGuard<'static, ()> {
    static LIMIT: Mutex<()> = Mutex::new(());
    LIMIT.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_index_runs_exactly_once() {
        let _serial = serialize_limit();
        let _g = ThreadLease::at_least(4);
        let seen = Mutex::new(HashSet::new());
        for_each_index(1000, |i| {
            assert!(seen.lock().insert(i), "index {i} ran twice");
        });
        assert_eq!(seen.lock().len(), 1000);
    }

    #[test]
    fn zero_and_one_item_regions() {
        for_each_index(0, |_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        for_each_index(1, |i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hinted_regions_run_inline_below_cutoff_and_complete_above() {
        let _serial = serialize_limit();
        let _g = ThreadLease::at_least(4);
        // Tiny estimated cost -> inline, still every index exactly once.
        let seen = Mutex::new(HashSet::new());
        for_each_index_hinted(100, 1, |i| {
            assert!(seen.lock().insert(i), "index {i} ran twice");
        });
        assert_eq!(seen.lock().len(), 100);
        // Huge estimated cost -> scheduled path, same contract.
        let seen = Mutex::new(HashSet::new());
        for_each_index_hinted(100, 1_000_000, |i| {
            assert!(seen.lock().insert(i), "index {i} ran twice");
        });
        assert_eq!(seen.lock().len(), 100);
    }

    #[test]
    fn region_shell_is_reused_across_iterations() {
        let _serial = serialize_limit();
        let _g = ThreadLease::exactly(4);
        // Warm up: make sure this thread has a cached shell.
        for_each_index(64, |i| {
            std::hint::black_box(i);
        });
        let before = region_allocations();
        for _ in 0..100 {
            for_each_index(64, |i| {
                std::hint::black_box(i);
            });
        }
        let allocated = region_allocations() - before;
        // Reuse is opportunistic (a straggling worker can hold the shell's
        // Arc), but across 100 back-to-back regions the shell must be
        // reused most of the time or the amortization is broken.
        assert!(
            allocated < 50,
            "expected mostly-reused shells, got {allocated} fresh allocations in 100 regions"
        );
    }

    #[test]
    fn join_returns_both_results() {
        let _serial = serialize_limit();
        let _g = ThreadLease::at_least(2);
        let (a, b) = join(|| 6 * 7, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn lease_restores_previous_limit() {
        let _serial = serialize_limit();
        let before = active_threads();
        {
            let _g = ThreadLease::exactly(before + 3);
            assert_eq!(active_threads(), before + 3);
        }
        assert_eq!(active_threads(), before);
    }

    #[test]
    fn worker_rank_attribution_propagates() {
        let _serial = serialize_limit();
        let _g = ThreadLease::at_least(4);
        qp_trace::set_thread_rank(7);
        let ranks = Mutex::new(HashSet::new());
        for_each_index(64, |_| {
            ranks.lock().insert(qp_trace::thread_rank());
            // Busy-wait a little so several threads participate.
            std::hint::black_box((0..100).sum::<usize>());
        });
        qp_trace::set_thread_rank(0);
        assert_eq!(
            ranks.into_inner().into_iter().collect::<Vec<_>>(),
            vec![7],
            "all executors must carry the submitter's rank"
        );
    }
}
