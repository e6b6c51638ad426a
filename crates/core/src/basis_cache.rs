//! Per-batch basis-value cache.
//!
//! Grid points never move across SCF and DFPT iterations, so the basis
//! values χμ(r), gradients ∇χμ(r) and the radial-spline evaluations behind
//! them are a pure function of the batch. The paper's §3.1 exploits exactly
//! this invariance by sharing splines across co-located atoms; here we keep
//! the whole per-batch table ([`BatchBasisTable`]) and rebuild it only on a
//! miss. A byte cap (`QP_BASIS_CACHE_MB`, default scaled with the basis
//! size — see [`default_cap_bytes`]) bounds residency with
//! least-recently-used eviction; hit/miss/eviction counts and the running
//! eviction rate are surfaced through `qp_trace::global_metrics` as
//! `basis_cache_{hits,misses,evictions}` and `basis_cache_eviction_rate`.
//!
//! Determinism: a table's contents depend only on (basis, batch), never on
//! cache state — eviction changes *when* values are recomputed, not what
//! they are — so caching is invisible to the SCF/DFPT numbers for any cap
//! and any thread count. The per-slot mutex also makes concurrent lookups
//! of one batch build the table exactly once (later arrivals block briefly
//! and take the hit path).

use crate::system::BatchBasisTable;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Approximate heap bytes held by one table.
fn table_bytes(t: &BatchBasisTable) -> usize {
    t.fn_indices.len() * std::mem::size_of::<usize>()
        + (t.values.len() + t.gradients.len()) * std::mem::size_of::<f64>()
}

/// Default residency cap when `QP_BASIS_CACHE_MB` is unset: a 256 MiB
/// floor (small systems are effectively unbounded) growing 256 KiB per
/// basis function, so large polymers keep their working set cached without
/// letting full-residency tables (O(points × nb) per batch, O(nb²) overall
/// unscreened) exhaust memory.
pub fn default_cap_bytes(n_basis: usize) -> usize {
    const FLOOR: usize = 256 * 1024 * 1024;
    const PER_FN: usize = 256 * 1024;
    FLOOR.max(n_basis.saturating_mul(PER_FN))
}

/// LRU-evicting, byte-capped cache of per-batch basis tables.
pub struct BasisValueCache {
    slots: Vec<Mutex<Option<Arc<BatchBasisTable>>>>,
    /// LRU clock tick of each slot's last access.
    last_used: Vec<AtomicU64>,
    clock: AtomicU64,
    resident_bytes: AtomicUsize,
    cap_bytes: usize,
    /// This cache's own hits, misses and evictions (the global metrics sum
    /// every cache in the process).
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BasisValueCache {
    /// Cache with `n_batches` slots and an explicit byte cap
    /// (`usize::MAX` = unbounded).
    pub fn new(n_batches: usize, cap_bytes: usize) -> Self {
        BasisValueCache {
            slots: (0..n_batches).map(|_| Mutex::new(None)).collect(),
            last_used: (0..n_batches).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            cap_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Cache sized from the `QP_BASIS_CACHE_MB` environment variable;
    /// absent or unparseable falls back to [`default_cap_bytes`] for
    /// `n_basis` functions.
    pub fn from_env(n_batches: usize, n_basis: usize) -> Self {
        let cap = std::env::var("QP_BASIS_CACHE_MB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|mb| mb.saturating_mul(1024 * 1024))
            .unwrap_or_else(|| default_cap_bytes(n_basis));
        Self::new(n_batches, cap)
    }

    /// Number of slots (== number of batches).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// This cache's `(hits, misses, evictions)` so far; unlike
    /// [`cache_counters`], untouched by other caches in the process.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// The table for batch `bid`, building it with `build` on a miss.
    pub fn get(&self, bid: usize, build: impl FnOnce() -> BatchBasisTable) -> Arc<BatchBasisTable> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.last_used[bid].store(tick, Ordering::Relaxed);
        let mut slot = self.slots[bid].lock().unwrap();
        if let Some(t) = slot.as_ref() {
            metrics().hits.inc();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
        metrics().misses.inc();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(build());
        let bytes = table_bytes(&table);
        *slot = Some(table.clone());
        drop(slot);
        let now = self.resident_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now > self.cap_bytes {
            self.evict_lru(bid);
        }
        table
    }

    /// Evict least-recently-used tables (never `keep`) until under the cap
    /// or nothing evictable remains.
    fn evict_lru(&self, keep: usize) {
        while self.resident_bytes.load(Ordering::Relaxed) > self.cap_bytes {
            // Oldest resident slot; try_lock skips slots mid-build/lookup.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != keep)
                .filter_map(|(i, s)| {
                    let guard = s.try_lock().ok()?;
                    guard
                        .as_ref()
                        .map(|_| (i, self.last_used[i].load(Ordering::Relaxed)))
                })
                .min_by_key(|&(_, tick)| tick);
            let Some((i, _)) = victim else { return };
            let Ok(mut guard) = self.slots[i].try_lock() else {
                return;
            };
            if let Some(t) = guard.take() {
                self.resident_bytes
                    .fetch_sub(table_bytes(&t), Ordering::Relaxed);
                let m = metrics();
                m.evictions.inc();
                self.evictions.fetch_add(1, Ordering::Relaxed);
                // Rebuild churn: evictions per table build. ≳1 means the
                // cap thrashes — every build evicts another live table.
                m.eviction_rate
                    .set(m.evictions.get() as f64 / m.misses.get().max(1) as f64);
            }
        }
    }
}

struct CacheMetrics {
    hits: qp_trace::Counter,
    misses: qp_trace::Counter,
    evictions: qp_trace::Counter,
    eviction_rate: qp_trace::Gauge,
}

fn metrics() -> &'static CacheMetrics {
    static METRICS: std::sync::OnceLock<CacheMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = qp_trace::global_metrics();
        CacheMetrics {
            hits: reg.counter("basis_cache_hits", &[]),
            misses: reg.counter("basis_cache_misses", &[]),
            evictions: reg.counter("basis_cache_evictions", &[]),
            eviction_rate: reg.gauge("basis_cache_eviction_rate", &[]),
        }
    })
}

/// Global hit/miss/eviction readings `(hits, misses, evictions)`.
pub fn cache_counters() -> (u64, u64, u64) {
    let m = metrics();
    (m.hits.get(), m.misses.get(), m.evictions.get())
}

/// Evictions per table build since process start (the
/// `basis_cache_eviction_rate` gauge): ≈0 when the cap holds the working
/// set, ≳1 when every rebuild evicts another live table (thrashing).
pub fn eviction_rate() -> f64 {
    metrics().eviction_rate.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table(n: usize) -> BatchBasisTable {
        BatchBasisTable {
            fn_indices: (0..n).collect(),
            values: vec![1.0; n * 4],
            gradients: vec![0.5; n * 12],
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
    fn cap_evicts_least_recently_used() {
        let one = table_bytes(&toy_table(8));
        // Room for two tables, not three.
        let cache = BasisValueCache::new(3, 2 * one + one / 2);
        cache.get(0, || toy_table(8));
        cache.get(1, || toy_table(8));
        assert_eq!(cache.resident_bytes(), 2 * one);
        let (_, _, e0) = cache.counters();
        cache.get(2, || toy_table(8)); // evicts slot 0 (oldest)
        let (_, _, e1) = cache.counters();
        assert_eq!(e1 - e0, 1);
        assert_eq!(cache.resident_bytes(), 2 * one);
        // Slot 0 rebuilds (miss), slot 2 still resident (hit).
        let (_, m0, _) = cache.counters();
        cache.get(2, || panic!("2 was just inserted"));
        cache.get(0, || toy_table(8));
        let (_, m1, _) = cache.counters();
        assert_eq!(m1 - m0, 1);
    }

    #[test]
    fn default_cap_scales_with_basis_count() {
        // Floor for small systems, linear growth past the crossover.
        assert_eq!(default_cap_bytes(0), 256 * 1024 * 1024);
        assert_eq!(default_cap_bytes(7), 256 * 1024 * 1024); // water
        let crossover = 1024; // 1024 * 256 KiB == floor
        assert_eq!(default_cap_bytes(crossover), 256 * 1024 * 1024);
        // polymer:256 — 3586 basis functions.
        assert_eq!(default_cap_bytes(3586), 3586 * 256 * 1024);
        assert!(default_cap_bytes(usize::MAX) == usize::MAX); // saturates
    }

    #[test]
    fn eviction_rate_gauge_tracks_churn() {
        let one = table_bytes(&toy_table(8));
        let cache = BasisValueCache::new(2, one + one / 2); // holds one table
        cache.get(0, || toy_table(8));
        cache.get(1, || toy_table(8)); // evicts 0
                                       // Rate is global (shared across tests in this process): after at
                                       // least one eviction it must be positive and at most 1 per miss.
        let r = eviction_rate();
        assert!(r > 0.0 && r <= 1.0, "rate {r}");
    }

    #[test]
    fn values_identical_after_eviction_and_rebuild() {
        let one = table_bytes(&toy_table(4));
        let cache = BasisValueCache::new(2, one + one / 2);
        let first = cache.get(0, || toy_table(4));
        cache.get(1, || toy_table(4)); // evicts 0
        let rebuilt = cache.get(0, || toy_table(4));
        assert_eq!(first.values, rebuilt.values);
        assert_eq!(first.gradients, rebuilt.gradients);
    }
}
