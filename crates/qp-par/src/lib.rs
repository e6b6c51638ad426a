//! # qp-par
//!
//! The workspace's real multi-threaded execution substrate: a persistent
//! pool of `std::thread` workers that self-schedule *chunks* of a parallel
//! region off a shared queue (dynamic chunk scheduling — the lock-free
//! cousin of work-stealing for indexed loops, which is all a data-parallel
//! DFPT code needs). The `rayon` shim forwards its whole `par_iter` surface
//! here, so every phase kernel, NDRange launch and dense-linalg loop in the
//! workspace now genuinely runs on multiple cores.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results must be bit-identical between
//!    `QP_THREADS=1` and `QP_THREADS=N`. Every primitive therefore maps
//!    item `i` to output slot `i` (no racing reductions); whatever summing
//!    a caller does over the returned vector happens on the calling thread
//!    in fixed index order. `qp-resil`'s bit-exact recovery guarantee rides
//!    on this.
//! 2. **Trace attribution.** Workers propagate the *submitting* thread's
//!    `qp-trace` rank tag ([`qp_trace::set_thread_rank`]) before touching a
//!    region, so spans and metrics recorded from pool workers land on the
//!    correct simulated-rank timeline.
//! 3. **Nested safety.** A worker that opens a nested region participates
//!    in executing it (callers always help drain their own region), so
//!    nesting cannot deadlock: any claimed chunk is actively being executed
//!    by some thread, and threads only wait when they hold no chunk.
//!
//! Sizing: `QP_THREADS` if set, else [`std::thread::available_parallelism`].
//! Tests can override at runtime with [`set_active_threads`] (workers above
//! the limit park; missing workers spawn on demand).

pub mod pool;
pub mod telemetry;

pub use pool::{
    active_threads, for_each_index, for_each_index_hinted, join, region_allocations, run_region,
    run_region_hinted, set_active_threads, ThreadLease, INLINE_CUTOFF_NS,
};
pub use telemetry::{LabelGuard, LaneStats, RegionRecord};

use std::mem::{ManuallyDrop, MaybeUninit};

/// Raw pointer wrapper asserting cross-thread safety for the disjoint-index
/// access pattern used below (each index is read/written by exactly one
/// chunk executor).
struct SharedPtr<T>(*mut T);
unsafe impl<T> Send for SharedPtr<T> {}
unsafe impl<T> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the raw pointer field itself.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Parallel map preserving order: `out[i] = f(items[i])`.
///
/// Deterministic by construction — the index→slot mapping is fixed, so the
/// result is identical for any thread count (including the inline
/// single-thread path). If `f` panics the panic is propagated on the caller
/// after the region drains; items in chunks that never ran are leaked (not
/// dropped), matching the "abort the computation" semantics of a poisoned
/// parallel loop.
pub fn map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if active_threads() <= 1 || n == 1 {
        return items.into_iter().map(f).collect();
    }
    // Items are moved out index-by-index by exactly one executor; the
    // vector's own drop must not run (its elements are consumed).
    let src = ManuallyDrop::new(items);
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: each slot is written exactly once before being read below
    // (uninitialized slots are only possible on the panic path, which never
    // reaches the `assume init` transmute).
    unsafe { out.set_len(n) };
    let src_ptr = SharedPtr(src.as_ptr() as *mut T);
    let out_ptr = SharedPtr(out.as_mut_ptr());
    for_each_index(n, |i| {
        // SAFETY: `i` is claimed by exactly one chunk executor (disjoint
        // fetch_add ranges), so this read/write pair races with nothing.
        unsafe {
            let item = src_ptr.get().add(i).read();
            out_ptr.get().add(i).write(MaybeUninit::new(f(item)));
        }
    });
    // SAFETY: for_each_index returned without panicking, so every index ran
    // and every slot is initialized.
    unsafe { std::mem::transmute::<Vec<MaybeUninit<R>>, Vec<R>>(out) }
}

/// Parallel for-each over owned items (order of side effects unspecified;
/// the body must write to disjoint state, which the borrow checker enforces
/// for everything reached through the items themselves).
pub fn for_each_vec<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    if active_threads() <= 1 || n == 1 {
        items.into_iter().for_each(f);
        return;
    }
    let src = ManuallyDrop::new(items);
    let src_ptr = SharedPtr(src.as_ptr() as *mut T);
    for_each_index(n, |i| {
        // SAFETY: disjoint single reader per index, as in `map_vec`.
        unsafe { f(src_ptr.get().add(i).read()) }
    });
}

/// [`map_vec`] with a per-item cost estimate (ns): sub-threshold maps run
/// inline via the pool's grain-size heuristic instead of paying region
/// setup.
pub fn map_vec_hinted<T, R, F>(items: Vec<T>, est_item_ns: u64, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let est = est_item_ns.saturating_mul(n as u64);
    if active_threads() <= 1 || n == 1 || est < INLINE_CUTOFF_NS {
        return items.into_iter().map(f).collect();
    }
    map_vec(items, f)
}

/// Fill `out[i] = f(i)` for every index, in parallel when the estimated
/// cost justifies a region. Deterministic: index → slot, identical at any
/// thread count. `Copy` bound keeps the overwrite drop-free.
pub fn fill_slice_hinted<R, F>(out: &mut [R], est_item_ns: u64, f: F)
where
    R: Copy + Send,
    F: Fn(usize) -> R + Sync,
{
    let n = out.len();
    if n == 0 {
        return;
    }
    let out_ptr = SharedPtr(out.as_mut_ptr());
    pool::run_region_hinted(n, est_item_ns, &|start, end| {
        for i in start..end {
            // SAFETY: `i` is claimed by exactly one chunk executor, so this
            // write races with nothing; `R: Copy` means no drop is skipped.
            unsafe { out_ptr.get().add(i).write(f(i)) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_vec_preserves_order() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        let v: Vec<usize> = (0..1000).collect();
        let out = map_vec(v, |x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_vec_moves_non_copy_items() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        let v: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let out = map_vec(v, |s| s.len());
        assert_eq!(out.len(), 100);
        assert_eq!(out[7], 2);
        assert_eq!(out[42], 3);
    }

    #[test]
    fn for_each_vec_visits_every_item_once() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        let hits = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        for_each_vec((1..=100).collect::<Vec<usize>>(), |x| {
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _serial = pool::serialize_limit();
        let compute = || {
            let v: Vec<f64> = (0..257).map(|i| i as f64 * 0.1).collect();
            map_vec(v, |x| (x.sin() * x.cos()).exp())
        };
        let one = {
            let _g = pool::ThreadLease::exactly(1);
            compute()
        };
        let eight = {
            let _g = pool::ThreadLease::exactly(8);
            compute()
        };
        assert!(one.iter().zip(eight.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn fill_slice_hinted_is_bit_identical_for_any_cost_hint() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        let expect: Vec<f64> = (0..513).map(|i| (i as f64).sqrt().sin()).collect();
        // 0 and 1 take the inline path, the huge hint takes the region path;
        // both must produce the same bits in the same slots.
        for est in [0u64, 1, 1_000_000] {
            let mut out = vec![0.0f64; 513];
            fill_slice_hinted(&mut out, est, |i| (i as f64).sqrt().sin());
            assert!(
                out.iter()
                    .zip(expect.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "hint {est} changed results"
            );
        }
    }

    #[test]
    fn map_vec_hinted_preserves_order() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        for est in [0u64, 1_000_000] {
            let v: Vec<usize> = (0..500).collect();
            let out = map_vec_hinted(v, est, |x| x * 7);
            assert_eq!(out, (0..500).map(|x| x * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_regions_complete() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        let out = map_vec((0..8).collect::<Vec<usize>>(), |i| {
            map_vec((0..8).collect::<Vec<usize>>(), move |j| i * 8 + j)
                .into_iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let _serial = pool::serialize_limit();
        let _g = pool::ThreadLease::at_least(4);
        let r = std::panic::catch_unwind(|| {
            for_each_vec((0..64).collect::<Vec<usize>>(), |i| {
                if i == 33 {
                    panic!("boom");
                }
            });
        });
        assert!(r.is_err());
        // The pool must stay usable after a panicked region.
        let ok = map_vec(vec![1, 2, 3], |x| x + 1);
        assert_eq!(ok, vec![2, 3, 4]);
    }
}
