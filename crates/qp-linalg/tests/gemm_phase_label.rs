//! GEMMs issued from pool workers are booked under the submitter's phase
//! label whether or not qp-par's region telemetry records: a traced run
//! without `--profile` must not lose its roofline counters to `other`.
//! Its own test binary, so no other test toggles the process-wide tracing
//! switch or adds GEMM counts while it runs.

use qp_linalg::DMatrix;
use qp_trace::metrics::MetricValue;
use std::collections::HashSet;
use std::sync::{Barrier, Mutex};

#[test]
fn worker_gemms_carry_the_submitters_label_without_telemetry() {
    let _pool = qp_par::ThreadLease::exactly(2);
    qp_par::telemetry::set_enabled(false);
    qp_trace::set_enabled(true);
    let a = DMatrix::from_fn(40, 30, |i, j| (i * 3 + j) as f64 * 0.01);
    let b = DMatrix::from_fn(30, 20, |i, j| (i + 2 * j) as f64 * 0.02);
    const ITEMS: usize = 16;
    let threads = Mutex::new(HashSet::new());
    let first_items = Barrier::new(2);
    {
        let _label = qp_par::LabelGuard::set("sumup");
        qp_par::for_each_index(ITEMS, |_| {
            // Each thread's first item waits for the other's, so the
            // worker runs GEMMs too.
            if threads.lock().unwrap().insert(std::thread::current().id()) {
                first_items.wait();
            }
            std::hint::black_box(a.par_matmul(&b).unwrap());
        });
    }
    qp_trace::set_enabled(false);

    let mut by_phase = Vec::new();
    for s in qp_trace::global_metrics().snapshot() {
        if s.key.name == "linalg.gemm.calls" {
            if let MetricValue::Counter(n) = s.value {
                by_phase.push((s.key.labels.clone(), n));
            }
        }
    }
    let sumup = vec![("phase".to_string(), "sumup".to_string())];
    assert_eq!(by_phase, vec![(sumup, ITEMS as u64)]);
}
