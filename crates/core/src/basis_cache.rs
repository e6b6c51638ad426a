//! Per-batch basis tables, kept while they fit.
//!
//! Grid points never move across SCF and DFPT iterations, so the basis
//! values χμ(r) and the radial-spline evaluations behind them are a pure
//! function of the batch. (The gradients ∇χμ(r), which only the one-time
//! kinetic matrix reads, are not kept: its pass builds them per batch.)
//! The paper's §3.1 tabulates such per-rank data once and reuses it every
//! iteration. Here each batch's table ([`BatchBasisTable`]) is built on
//! its first use and kept for the system's life while the kept bytes stay
//! within [`budget_bytes`]. A table that does not fit is built for that
//! use and dropped; a kept table is never evicted. Hits, builds and builds not kept surface through
//! `qp_trace::global_metrics` as `basis_cache_{hits,misses,evictions}`.
//!
//! Determinism: a table's contents depend only on (basis, batch), never on
//! which tables are kept, so the budget is invisible to the SCF/DFPT
//! numbers for any system and any thread count. Above the budget, which
//! tables stay resident follows the order of first use.

use crate::system::BatchBasisTable;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Approximate heap bytes held by one table.
fn table_bytes(t: &BatchBasisTable) -> usize {
    t.fn_indices.len() * std::mem::size_of::<usize>() + t.values.len() * std::mem::size_of::<f64>()
}

/// Bytes of basis tables a system of `n_basis` functions keeps: a 256 MiB
/// floor (small systems keep every table) growing 256 KiB per basis
/// function, so large polymers keep their working set without letting
/// full-residency tables (O(points × nb) per batch, O(nb²) overall
/// unscreened) exhaust memory.
pub fn budget_bytes(n_basis: usize) -> usize {
    const FLOOR: usize = 256 * 1024 * 1024;
    const PER_FN: usize = 256 * 1024;
    FLOOR.max(n_basis.saturating_mul(PER_FN))
}

/// One slot per batch, each filled on first use while the kept tables fit
/// the budget.
pub struct BasisValueCache {
    slots: Vec<OnceLock<Arc<BatchBasisTable>>>,
    kept_bytes: AtomicUsize,
    budget_bytes: usize,
    /// This cache's own hits, misses and evictions (the global metrics sum
    /// every cache in the process).
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BasisValueCache {
    /// Cache with `n_batches` slots that keeps up to `budget_bytes` of
    /// tables (`usize::MAX`: every table).
    pub fn new(n_batches: usize, budget_bytes: usize) -> Self {
        BasisValueCache {
            slots: (0..n_batches).map(|_| OnceLock::new()).collect(),
            kept_bytes: AtomicUsize::new(0),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of slots (== number of batches).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes of the kept tables.
    pub fn resident_bytes(&self) -> usize {
        self.kept_bytes.load(Ordering::Relaxed)
    }

    /// This cache's `(hits, misses, evictions)` so far, where an eviction
    /// is a table built but not kept; unlike [`cache_counters`], untouched
    /// by other caches in the process.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// The table for batch `bid`: the kept one, or one built with `build`
    /// and kept when it fits the budget.
    pub fn get(&self, bid: usize, build: impl FnOnce() -> BatchBasisTable) -> Arc<BatchBasisTable> {
        let m = metrics();
        if let Some(t) = self.slots[bid].get() {
            m.hits.inc();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
        m.misses.inc();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(build());
        let bytes = table_bytes(&table);
        let fits = self
            .kept_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |kept| {
                kept.checked_add(bytes).filter(|&k| k <= self.budget_bytes)
            })
            .is_ok();
        if !fits {
            m.evictions.inc();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        } else if self.slots[bid].set(table.clone()).is_err() {
            // A concurrent lookup of this batch kept its (same) table first.
            self.kept_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        table
    }
}

struct CacheMetrics {
    hits: qp_trace::Counter,
    misses: qp_trace::Counter,
    evictions: qp_trace::Counter,
}

fn metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = qp_trace::global_metrics();
        CacheMetrics {
            hits: reg.counter("basis_cache_hits", &[]),
            misses: reg.counter("basis_cache_misses", &[]),
            evictions: reg.counter("basis_cache_evictions", &[]),
        }
    })
}

/// Global hit/miss/eviction readings `(hits, misses, evictions)`.
pub fn cache_counters() -> (u64, u64, u64) {
    let m = metrics();
    (m.hits.get(), m.misses.get(), m.evictions.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table(n: usize) -> BatchBasisTable {
        BatchBasisTable {
            fn_indices: (0..n).collect(),
            values: vec![1.0; n * 4],
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = BasisValueCache::new(4, usize::MAX);
        let (h0, m0, _) = cache.counters();
        let a = cache.get(2, || toy_table(3));
        let b = cache.get(2, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let (h1, m1, _) = cache.counters();
        assert_eq!(h1 - h0, 1);
        assert_eq!(m1 - m0, 1);
    }

    #[test]
    fn tables_past_the_budget_are_built_per_use() {
        let one = table_bytes(&toy_table(8));
        // Room for two tables, not three.
        let cache = BasisValueCache::new(3, 2 * one + one / 2);
        cache.get(0, || toy_table(8));
        cache.get(1, || toy_table(8));
        assert_eq!(cache.resident_bytes(), 2 * one);
        assert_eq!(cache.counters(), (0, 2, 0));
        // Slot 2 does not fit: built, handed out, not kept.
        cache.get(2, || toy_table(8));
        assert_eq!(cache.counters(), (0, 3, 1));
        assert_eq!(cache.resident_bytes(), 2 * one);
        // The kept tables keep hitting; slot 2 is built again on each use.
        for _ in 0..2 {
            cache.get(0, || panic!("0 was kept"));
            cache.get(1, || panic!("1 was kept"));
            cache.get(2, || toy_table(8));
        }
        assert_eq!(cache.counters(), (4, 5, 3));
        assert_eq!(cache.resident_bytes(), 2 * one);
    }

    #[test]
    fn budget_scales_with_basis_count() {
        // Floor for small systems, linear growth past the crossover.
        assert_eq!(budget_bytes(0), 256 * 1024 * 1024);
        assert_eq!(budget_bytes(7), 256 * 1024 * 1024); // water
        let crossover = 1024; // 1024 * 256 KiB == floor
        assert_eq!(budget_bytes(crossover), 256 * 1024 * 1024);
        // polymer:256 — 3586 basis functions.
        assert_eq!(budget_bytes(3586), 3586 * 256 * 1024);
        assert!(budget_bytes(usize::MAX) == usize::MAX); // saturates
    }

    #[test]
    fn values_identical_after_eviction_and_rebuild() {
        let one = table_bytes(&toy_table(4));
        let cache = BasisValueCache::new(2, one + one / 2);
        let kept = cache.get(0, || toy_table(4));
        let first = cache.get(1, || toy_table(4)); // past the budget
        let rebuilt = cache.get(1, || toy_table(4));
        assert!(!Arc::ptr_eq(&first, &rebuilt), "slot 1 is not kept");
        assert_eq!(first.values, rebuilt.values);
        assert_eq!(kept.values, rebuilt.values);
    }
}
