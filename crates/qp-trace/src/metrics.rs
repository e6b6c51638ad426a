//! Labeled Counter / Gauge / Histogram registry.
//!
//! Handles are cheap `Arc`-backed clones; registration takes a lock, but
//! incrementing is a single atomic op, so hot loops should hoist the handle
//! (`let c = reg.counter(...); for .. { c.add(n) }`). A process-global
//! registry ([`global_metrics`]) unifies the per-subsystem counter islands;
//! a test can build a `MetricsRegistry` of its own.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// `(name, sorted labels)` identity of one time series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, dot-separated by convention (`mpi.collective.bytes`).
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Monotonically increasing integer metric.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point metric (residuals, occupancies, ...).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct HistState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Streaming distribution summary: count / sum / min / max.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<HistState>>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let mut h = self.0.lock().unwrap();
        if h.count == 0 {
            h.min = v;
            h.max = v;
        } else {
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h.count += 1;
        h.sum += v;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap().count
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> f64 {
        self.0.lock().unwrap().sum
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Point-in-time value of one metric, as captured by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary: `count`, `sum`, `min`, `max`.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation (0 when empty).
        min: f64,
        /// Largest observation (0 when empty).
        max: f64,
    },
}

/// One `(key, value)` row of a snapshot.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Series identity.
    pub key: MetricKey,
    /// Captured value.
    pub value: MetricValue,
}

/// Registry of labeled metrics. `Default`-constructible for embedding;
/// use [`global_metrics`] for the process-wide instance.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `(name, labels)`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or register the gauge `(name, labels)`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or register the histogram `(name, labels)`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric type.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map.entry(key).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(Mutex::new(HistState::default()))))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Capture every registered series, sorted by key.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .map(|(key, metric)| MetricSample {
                key: key.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let s = *h.0.lock().unwrap();
                        MetricValue::Histogram {
                            count: s.count,
                            sum: s.sum,
                            min: s.min,
                            max: s.max,
                        }
                    }
                },
            })
            .collect()
    }

    /// Reading of one counter, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        match self.inner.lock().unwrap().get(&key) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }
}

/// The process-wide registry all subsystems report into by default.
pub fn global_metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_by_name_and_labels() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("bytes", &[("kind", "AllReduce")]);
        let b = reg.counter("bytes", &[("kind", "AllReduce")]);
        let other = reg.counter("bytes", &[("kind", "Broadcast")]);
        a.add(10);
        b.add(5);
        other.inc();
        assert_eq!(a.get(), 15);
        assert_eq!(
            reg.counter_value("bytes", &[("kind", "AllReduce")]),
            Some(15)
        );
        assert_eq!(
            reg.counter_value("bytes", &[("kind", "Broadcast")]),
            Some(1)
        );
    }

    #[test]
    fn labels_are_order_insensitive() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauge_and_histogram() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("residual", &[("phase", "scf")]);
        g.set(1e-6);
        assert_eq!(g.get(), 1e-6);
        let h = reg.histogram("lat", &[]);
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 6.0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        let hist = snap.iter().find(|s| s.key.name == "lat").unwrap();
        assert_eq!(
            hist.value,
            MetricValue::Histogram {
                count: 2,
                sum: 6.0,
                min: 2.0,
                max: 4.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflict_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("clash", &[]);
        let _ = reg.gauge("clash", &[]);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b", &[]).inc();
        reg.counter("a", &[]).inc();
        let names: Vec<_> = reg.snapshot().into_iter().map(|s| s.key.name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
