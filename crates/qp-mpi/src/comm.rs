//! Communicators and the SPMD runtime.
//!
//! Ranks are OS threads sharing one [`CommCore`]. Every collective is built
//! on one primitive, [`Comm::exchange`]: all ranks of a *group* deposit their
//! payload, the last arrival publishes the full ordered contribution table,
//! and every rank receives it. Reductions then fold that table in fixed rank
//! order — deterministic and bitwise reproducible regardless of thread
//! scheduling, which is what lets the test suite assert that the packed and
//! hierarchical §3.2 paths produce *identical* results to the baseline.

use crate::fault::{FaultDecision, SpmdOptions};
use crate::traffic::{CollectiveKind, TrafficLog};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A rank panicked or aborted; every blocked collective unblocks with
    /// this error (MPI fatal-error semantics, §failure injection).
    RankFailed,
    /// A blocking call exceeded its failure-detection deadline — the
    /// expected peer most likely died or stalled without poisoning the
    /// world. The caller can restart from a checkpoint.
    Timeout,
    /// A collective was called with inconsistent arguments across ranks.
    Mismatch(&'static str),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankFailed => write!(f, "a participating rank failed"),
            CommError::Timeout => {
                write!(f, "communication deadline exceeded (peer dead or stalled)")
            }
            CommError::Mismatch(what) => write!(f, "collective argument mismatch: {what}"),
        }
    }
}

impl std::error::Error for CommError {}

enum Phase {
    Collecting,
    Distributing,
}

struct RvState {
    phase: Phase,
    generation: u64,
    contributions: Vec<Option<Vec<f64>>>,
    arrived: usize,
    consumed: usize,
    published: Option<Arc<Vec<Vec<f64>>>>,
}

/// One reusable rendezvous point for a fixed-size group.
struct Rendezvous {
    state: Mutex<RvState>,
    cond: Condvar,
    size: usize,
}

impl Rendezvous {
    fn new(size: usize) -> Self {
        Rendezvous {
            state: Mutex::new(RvState {
                phase: Phase::Collecting,
                generation: 0,
                contributions: (0..size).map(|_| None).collect(),
                arrived: 0,
                consumed: 0,
                published: None,
            }),
            cond: Condvar::new(),
            size,
        }
    }

    /// Deposit `data` at `index`, wait for the full table. Waits are bounded
    /// by `deadline`: a missing participant (dead or stalled rank that never
    /// poisoned the world) surfaces as [`CommError::Timeout`] instead of a
    /// hang.
    fn exchange(
        &self,
        index: usize,
        data: Vec<f64>,
        poisoned: &AtomicBool,
        deadline: Duration,
    ) -> Result<Arc<Vec<Vec<f64>>>, CommError> {
        let start = Instant::now();
        let mut st = self.state.lock();
        // Wait out a previous generation still distributing.
        while matches!(st.phase, Phase::Distributing) {
            if poisoned.load(Ordering::SeqCst) {
                return Err(CommError::RankFailed);
            }
            let remaining = deadline
                .checked_sub(start.elapsed())
                .ok_or(CommError::Timeout)?;
            self.cond.wait_for(&mut st, remaining);
        }
        let my_gen = st.generation;
        if st.contributions[index].is_some() {
            return Err(CommError::Mismatch("double entry at same rendezvous"));
        }
        st.contributions[index] = Some(data);
        st.arrived += 1;
        if st.arrived == self.size {
            let mut table: Vec<Vec<f64>> = Vec::with_capacity(self.size);
            for c in st.contributions.iter_mut() {
                // `arrived == size` guarantees every slot is filled; a hole
                // would mean corrupted rendezvous state — surface it as an
                // error on this rank rather than aborting the process.
                table.push(c.take().ok_or(CommError::Mismatch(
                    "rendezvous contribution missing at publish",
                ))?);
            }
            st.published = Some(Arc::new(table));
            st.phase = Phase::Distributing;
            self.cond.notify_all();
        } else {
            while !(matches!(st.phase, Phase::Distributing) && st.generation == my_gen) {
                if poisoned.load(Ordering::SeqCst) {
                    return Err(CommError::RankFailed);
                }
                let remaining = deadline
                    .checked_sub(start.elapsed())
                    .ok_or(CommError::Timeout)?;
                self.cond.wait_for(&mut st, remaining);
            }
        }
        if poisoned.load(Ordering::SeqCst) {
            return Err(CommError::RankFailed);
        }
        let table = st
            .published
            .as_ref()
            .ok_or(CommError::Mismatch("rendezvous table vanished before read"))?
            .clone();
        st.consumed += 1;
        if st.consumed == self.size {
            // Reset for the next generation.
            st.phase = Phase::Collecting;
            st.generation += 1;
            st.arrived = 0;
            st.consumed = 0;
            st.published = None;
            self.cond.notify_all();
        }
        Ok(table)
    }
}

/// Shared node-local window (the MPI-3 SHM copy of §3.2.2), sliced into
/// lockable chunks so the m-phase rotation is conflict-free.
pub struct NodeWindow {
    /// The chunks; `chunks.len()` = the hierarchy width `m` (or fewer when
    /// the buffer is short).
    pub chunks: Vec<Mutex<Vec<f64>>>,
    /// Total length of the logical buffer.
    pub len: usize,
}

impl NodeWindow {
    fn new(len: usize, n_chunks: usize) -> Self {
        let n_chunks = n_chunks.max(1).min(len.max(1));
        let base = len / n_chunks;
        let rem = len % n_chunks;
        let chunks = (0..n_chunks)
            .map(|c| {
                let sz = base + usize::from(c < rem);
                Mutex::new(vec![0.0; sz])
            })
            .collect();
        NodeWindow { chunks, len }
    }

    /// The element range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        let n_chunks = self.chunks.len();
        let base = self.len / n_chunks;
        let rem = self.len % n_chunks;
        let start = c * base + c.min(rem);
        let sz = base + usize::from(c < rem);
        start..start + sz
    }

    /// Copy the whole logical buffer out (caller must hold no chunk locks).
    pub fn snapshot(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for ch in &self.chunks {
            out.extend_from_slice(&ch.lock());
        }
        out
    }

    /// Zero all chunks.
    pub fn clear(&self) {
        for ch in &self.chunks {
            for v in ch.lock().iter_mut() {
                *v = 0.0;
            }
        }
    }
}

/// State shared by all ranks.
pub struct CommCore {
    size: usize,
    ranks_per_node: usize,
    rendezvous: Mutex<HashMap<String, Arc<Rendezvous>>>,
    windows: Mutex<HashMap<String, Arc<NodeWindow>>>,
    poisoned: AtomicBool,
    opts: SpmdOptions,
    /// Metered collective traffic.
    pub traffic: TrafficLog,
}

impl CommCore {
    fn new(size: usize, ranks_per_node: usize, opts: SpmdOptions) -> Arc<Self> {
        Arc::new(CommCore {
            size,
            ranks_per_node,
            rendezvous: Mutex::new(HashMap::new()),
            windows: Mutex::new(HashMap::new()),
            poisoned: AtomicBool::new(false),
            opts,
            traffic: TrafficLog::new(),
        })
    }

    fn rendezvous(&self, key: &str, size: usize) -> Arc<Rendezvous> {
        let mut map = self.rendezvous.lock();
        map.entry(key.to_string())
            .or_insert_with(|| Arc::new(Rendezvous::new(size)))
            .clone()
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Wake every sleeper on every rendezvous.
        for rv in self.rendezvous.lock().values() {
            rv.cond.notify_all();
        }
    }
}

/// A rank's handle to the communicator.
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    core: Arc<CommCore>,
}

impl Comm {
    /// A one-rank world on the calling thread: every collective completes
    /// at once with the caller's own contribution, so a driver written
    /// against a `Comm` runs serially on it. Spawns no thread, installs no
    /// fault hook and leaves the thread's trace rank as it is.
    pub fn solo() -> Comm {
        Comm {
            rank: 0,
            core: CommCore::new(1, 1, SpmdOptions::default()),
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.core.size
    }

    /// Ranks per shared-memory node (`m` of §3.2.2).
    pub fn ranks_per_node(&self) -> usize {
        self.core.ranks_per_node
    }

    /// This rank's node index.
    pub fn node(&self) -> usize {
        self.rank / self.core.ranks_per_node
    }

    /// This rank's index within its node.
    pub fn local_rank(&self) -> usize {
        self.rank % self.core.ranks_per_node
    }

    /// Number of nodes (last one may be partial).
    pub fn n_nodes(&self) -> usize {
        self.core.size.div_ceil(self.core.ranks_per_node)
    }

    /// Number of ranks on this rank's node.
    pub fn node_size(&self) -> usize {
        let first = self.node() * self.core.ranks_per_node;
        (self.core.size - first).min(self.core.ranks_per_node)
    }

    /// The traffic log.
    pub fn traffic(&self) -> &TrafficLog {
        &self.core.traffic
    }

    /// Low-level group exchange: every rank of the group identified by `key`
    /// deposits `data` at `index`; all receive the ordered table.
    ///
    /// Never hangs and never panics on peer failure: a poisoned world
    /// returns [`CommError::RankFailed`], an absent participant
    /// [`CommError::Timeout`] after the configured collective deadline
    /// (poisoning the world so every other blocked rank unblocks too).
    pub fn exchange(
        &self,
        key: &str,
        group_size: usize,
        index: usize,
        data: Vec<f64>,
    ) -> Result<Arc<Vec<Vec<f64>>>, CommError> {
        let rv = self.core.rendezvous(key, group_size);
        if rv.size != group_size {
            return Err(CommError::Mismatch("group size changed for key"));
        }
        let out = rv.exchange(
            index,
            data,
            &self.core.poisoned,
            self.core.opts.collective_timeout,
        );
        if matches!(out, Err(CommError::Timeout)) {
            // Failure detection fired: declare the world dead so peers
            // blocked on other rendezvous unblock promptly.
            self.core.poison();
        }
        out
    }

    /// Get (or lazily create) this node's shared window under `key`.
    pub fn node_window(&self, key: &str, len: usize, n_chunks: usize) -> Arc<NodeWindow> {
        let full_key = format!("{key}@node{}", self.node());
        let mut map = self.core.windows.lock();
        map.entry(full_key)
            .or_insert_with(|| Arc::new(NodeWindow::new(len, n_chunks)))
            .clone()
    }

    /// Mark this rank as failed: every rank blocked (or subsequently
    /// blocking) on a collective gets [`CommError::RankFailed`].
    pub fn inject_failure(&self) {
        self.core.poison();
    }

    /// Driver-level fault hook point: call at iteration boundaries (e.g.
    /// `comm.fault_point("dfpt.iter", k)`), so plans can crash or stall a
    /// rank at a reproducible place in the computation. A no-op without an
    /// installed hook; a `Crash` decision poisons the world and returns
    /// [`CommError::RankFailed`] on this rank.
    pub fn fault_point(&self, point: &str, index: u64) -> Result<(), CommError> {
        if let Some(hook) = &self.core.opts.fault {
            match hook.at_point(self.rank, point, index) {
                FaultDecision::Continue => {}
                FaultDecision::Crash => {
                    let mut span = qp_trace::SpanGuard::begin(
                        self.rank,
                        qp_trace::Phase::Resil,
                        "fault.crash",
                    );
                    if span.is_recording() {
                        span.arg("point", point).arg("index", index);
                    }
                    self.core.poison();
                    return Err(CommError::RankFailed);
                }
                FaultDecision::Stall(d) => {
                    let mut span = qp_trace::SpanGuard::begin(
                        self.rank,
                        qp_trace::Phase::Resil,
                        "fault.stall",
                    );
                    if span.is_recording() {
                        span.arg("point", point)
                            .arg("index", index)
                            .arg("ms", d.as_millis() as u64);
                    }
                    std::thread::sleep(d);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn record(&self, kind: CollectiveKind, ranks: usize, bytes_per_rank: usize) {
        self.core.traffic.record(kind, ranks, bytes_per_rank);
    }

    /// Open a comm span for a collective this rank is entering, tagged with
    /// the collective kind, participant count and per-rank payload bytes.
    /// Inert when tracing is disabled.
    pub(crate) fn comm_span(
        &self,
        kind: CollectiveKind,
        group_ranks: usize,
        bytes_per_rank: usize,
    ) -> qp_trace::SpanGuard {
        let mut span = qp_trace::SpanGuard::begin(self.rank, qp_trace::Phase::Comm, kind.as_str());
        if span.is_recording() {
            span.arg("kind", kind.as_str())
                .arg("ranks", group_ranks)
                .arg("bytes_per_rank", bytes_per_rank);
        }
        span
    }
}

/// Run `f` as an SPMD program over `n_ranks` threads grouped into nodes of
/// `ranks_per_node`. Returns each rank's result, rank-ordered.
///
/// A panicking rank poisons the world: surviving ranks' collectives return
/// [`CommError::RankFailed`], and `run_spmd` reports the panic.
pub fn run_spmd<T, F>(n_ranks: usize, ranks_per_node: usize, f: F) -> Result<Vec<T>, CommError>
where
    T: Send,
    F: Fn(&Comm) -> Result<T, CommError> + Sync,
{
    run_spmd_with(n_ranks, ranks_per_node, SpmdOptions::default(), f)
}

/// [`run_spmd`] with explicit [`SpmdOptions`]: fault-injection hook and
/// failure-detection deadlines.
///
/// Failure semantics (MPI fatal-error model, restartable from outside):
/// a rank that panics **or** returns an error poisons the world, so every
/// peer blocked in (or later entering) a collective gets
/// [`CommError::RankFailed`] instead of hanging; a rank that silently
/// disappears from a rendezvous is caught by the collective deadline and
/// surfaces as [`CommError::Timeout`]. Supervised drivers catch either
/// error and respawn the whole region from a checkpoint.
pub fn run_spmd_with<T, F>(
    n_ranks: usize,
    ranks_per_node: usize,
    opts: SpmdOptions,
    f: F,
) -> Result<Vec<T>, CommError>
where
    T: Send,
    F: Fn(&Comm) -> Result<T, CommError> + Sync,
{
    assert!(n_ranks >= 1 && ranks_per_node >= 1);
    if let Some(hook) = &opts.fault {
        hook.bind_world(n_ranks);
    }
    let core = CommCore::new(n_ranks, ranks_per_node, opts);

    let mut results: Vec<Option<Result<T, CommError>>> = (0..n_ranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_ranks);
        for rank in 0..n_ranks {
            let core = core.clone();
            let f = &f;
            let builder = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(1 << 20);
            let handle = builder
                .spawn_scoped(scope, move || {
                    // Tag the thread so spans opened inside rank code (kernel
                    // launches, phase loops) attribute to the right track.
                    qp_trace::set_thread_rank(rank);
                    let comm = Comm {
                        rank,
                        core: core.clone(),
                    };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                    match out {
                        Ok(r) => {
                            // An erroring rank is as dead as a panicking one
                            // from its peers' point of view: poison so no
                            // peer waits forever on its contributions.
                            if r.is_err() {
                                core.poison();
                            }
                            r
                        }
                        Err(_) => {
                            core.poison();
                            Err(CommError::RankFailed)
                        }
                    }
                })
                .expect("spawn rank thread");
            handles.push(handle);
        }
        for (rank, h) in handles.into_iter().enumerate() {
            results[rank] = Some(h.join().unwrap_or(Err(CommError::RankFailed)));
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every rank joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let out = run_spmd(8, 4, |c| Ok((c.rank(), c.node(), c.local_rank()))).unwrap();
        for (r, &(rank, node, local)) in out.iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(node, r / 4);
            assert_eq!(local, r % 4);
        }
    }

    #[test]
    fn exchange_delivers_ordered_table() {
        let out = run_spmd(6, 2, |c| {
            let table = c.exchange("t", 6, c.rank(), vec![c.rank() as f64])?;
            Ok(table.iter().map(|v| v[0]).collect::<Vec<f64>>())
        })
        .unwrap();
        for row in out {
            assert_eq!(row, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        }
    }

    #[test]
    fn exchange_is_reusable_across_generations() {
        let out = run_spmd(4, 2, |c| {
            let mut acc = 0.0;
            for round in 0..50 {
                let t = c.exchange("gen", 4, c.rank(), vec![(c.rank() * round) as f64])?;
                acc += t.iter().map(|v| v[0]).sum::<f64>();
            }
            Ok(acc)
        })
        .unwrap();
        let rank_sum: f64 = (0..4).sum::<usize>() as f64;
        let expect: f64 = (0..50).map(|r| rank_sum * r as f64).sum();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn node_window_shared_within_node_only() {
        let out = run_spmd(4, 2, |c| {
            let w = c.node_window("w", 8, 2);
            let ptr = Arc::as_ptr(&w) as usize;
            Ok((c.node(), ptr))
        })
        .unwrap();
        assert_eq!(out[0].1, out[1].1, "node 0 shares");
        assert_eq!(out[2].1, out[3].1, "node 1 shares");
        assert_ne!(out[0].1, out[2].1, "nodes distinct");
    }

    #[test]
    fn window_chunk_ranges_tile_buffer() {
        let w = NodeWindow::new(10, 3);
        let mut covered = [false; 10];
        for c in 0..w.chunks.len() {
            for i in w.chunk_range(c) {
                assert!(!covered[i]);
                covered[i] = true;
            }
            assert_eq!(w.chunk_range(c).len(), w.chunks[c].lock().len());
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn failure_unblocks_collectives() {
        let out = run_spmd(3, 3, |c| {
            if c.rank() == 2 {
                c.inject_failure();
                return Err(CommError::RankFailed);
            }
            // Ranks 0 and 1 block on a 3-way exchange that can never
            // complete; poisoning must unblock them.
            c.exchange("dead", 3, c.rank(), vec![0.0])?;
            Ok(())
        });
        assert_eq!(out, Err(CommError::RankFailed));
    }

    #[test]
    fn silent_desertion_times_out_collective() {
        // A rank that leaves the region without poisoning the world: the
        // collective deadline is the only failure detector, and it must
        // fire in bounded time.
        use std::time::{Duration, Instant};
        let opts = crate::fault::SpmdOptions::default().with_timeout(Duration::from_millis(50));
        let start = Instant::now();
        let out = run_spmd_with(3, 3, opts, |c| {
            if c.rank() == 2 {
                return Ok(());
            }
            c.exchange("abandoned", 3, c.rank(), vec![0.0])?;
            Ok(())
        });
        assert!(
            matches!(out, Err(CommError::Timeout) | Err(CommError::RankFailed)),
            "{out:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(10), "bounded");
    }

    #[test]
    fn erroring_rank_poisons_world() {
        // A rank returning Err — without panicking or calling
        // inject_failure — must still unblock peers stuck in collectives.
        let out = run_spmd(3, 3, |c| {
            if c.rank() == 2 {
                return Err(CommError::Mismatch("simulated application error"));
            }
            c.exchange("err", 3, c.rank(), vec![0.0])?;
            Ok(())
        });
        assert!(out.is_err(), "{out:?}");
    }

    #[test]
    fn fault_point_crash_detected_by_peers() {
        use crate::fault::{FaultDecision, FaultHook, SpmdOptions};

        struct CrashAt {
            rank: usize,
            iter: u64,
        }
        impl FaultHook for CrashAt {
            fn at_point(&self, rank: usize, _point: &str, index: u64) -> FaultDecision {
                if rank == self.rank && index == self.iter {
                    FaultDecision::Crash
                } else {
                    FaultDecision::Continue
                }
            }
        }
        let opts = SpmdOptions::with_fault(Arc::new(CrashAt { rank: 1, iter: 3 }));
        let out = run_spmd_with(4, 2, opts, |c| {
            let mut acc = 0.0;
            for iter in 1..=5u64 {
                c.fault_point("iter", iter)?;
                let t = c.exchange("work", 4, c.rank(), vec![1.0])?;
                acc += t.len() as f64;
            }
            Ok(acc)
        });
        assert_eq!(out, Err(CommError::RankFailed));
    }

    #[test]
    fn fault_point_without_hook_is_noop() {
        let out = run_spmd(2, 2, |c| {
            c.fault_point("iter", 1)?;
            Ok(c.rank())
        })
        .unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn panic_in_rank_poisons_world() {
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 1 {
                panic!("simulated crash");
            }
            c.exchange("x", 2, c.rank(), vec![1.0])?;
            Ok(c.rank())
        });
        assert!(matches!(out, Err(CommError::RankFailed)) || out.is_err());
    }

    #[test]
    fn single_rank_world() {
        let body = |c: &Comm| {
            let t = c.exchange("solo", 1, 0, vec![42.0])?;
            Ok(t[0][0])
        };
        assert_eq!(run_spmd(1, 1, body).unwrap(), vec![42.0]);
        // The inline one-rank world runs the same program on this thread.
        assert_eq!(body(&Comm::solo()), Ok(42.0));
    }

    #[test]
    fn partial_last_node_sizes() {
        let out = run_spmd(5, 2, |c| Ok((c.n_nodes(), c.node_size()))).unwrap();
        assert_eq!(out[0], (3, 2));
        assert_eq!(out[4], (3, 1)); // last node has a single rank
    }
}
