//! Fair-share job scheduling.
//!
//! Policy: each tenant accumulates cpu-seconds as its jobs run; when a
//! worker frees up it picks the pending job whose tenant has the *lowest*
//! cumulative usage (FIFO within a tenant, job-id order across ties — both
//! deterministic). A long-running job is preempted at its next iteration
//! boundary when (a) a tenant with strictly lower usage is waiting and (b)
//! the job has held the worker for at least one time slice. Preemption is
//! cooperative and checkpoint-shaped: the worker persists `QPCK` job state
//! and requeues, so the resumed job reproduces the uninterrupted result to
//! the bit.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A queued unit of work: job id + the tenant it bills to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Job id (admission order).
    pub job: u64,
    /// Fair-share accounting bucket.
    pub tenant: String,
}

#[derive(Default)]
struct SchedInner {
    pending: Vec<QueueEntry>,
    /// Cumulative cpu-seconds billed per tenant.
    usage: HashMap<String, f64>,
    /// Tenants currently holding a worker.
    running: HashMap<u64, String>,
    shutdown: bool,
}

/// The shared scheduler state workers and the admission path coordinate
/// through.
#[derive(Default)]
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
}

impl Scheduler {
    /// Fresh scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit a job to the pending queue and wake one worker.
    pub fn enqueue(&self, job: u64, tenant: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.pending.push(QueueEntry {
            job,
            tenant: tenant.to_string(),
        });
        drop(inner);
        self.cv.notify_one();
    }

    /// Worker side: block until a job is available (or shutdown), claim the
    /// fair-share pick, and mark it running. Returns `None` on shutdown.
    pub fn claim_next(&self) -> Option<QueueEntry> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(idx) = pick(&inner) {
                let entry = inner.pending.remove(idx);
                inner.usage.entry(entry.tenant.clone()).or_insert(0.0);
                inner.running.insert(entry.job, entry.tenant.clone());
                return Some(entry);
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Worker side: bill `secs` of work to `tenant` and release the running
    /// slot for `job`. Called whether the job finished, failed, or was
    /// preempted (a preempted job's partial slice still counts as usage —
    /// that is what keeps a requeue-loop from starving the other tenants).
    pub fn release(&self, job: u64, tenant: &str, secs: f64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.usage.entry(tenant.to_string()).or_insert(0.0) += secs;
        inner.running.remove(&job);
        drop(inner);
        self.cv.notify_one();
    }

    /// Should the running job for `tenant`, which has held its worker for
    /// `held` so far, yield at the next iteration boundary? True when a
    /// strictly less-served tenant is waiting and the slice is spent.
    pub fn should_preempt(&self, tenant: &str, held: Duration, slice: Duration) -> bool {
        if held < slice {
            return false;
        }
        let inner = self.inner.lock().unwrap();
        let mine = inner.usage.get(tenant).copied().unwrap_or(0.0) + held.as_secs_f64();
        inner.pending.iter().any(|e| {
            e.tenant != tenant && inner.usage.get(&e.tenant).copied().unwrap_or(0.0) < mine
        })
    }

    /// Cumulative usage per tenant (for the `stats` op).
    pub fn usage_snapshot(&self) -> Vec<(String, f64)> {
        let inner = self.inner.lock().unwrap();
        let mut v: Vec<_> = inner.usage.iter().map(|(t, &s)| (t.clone(), s)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Stop all workers: pending jobs stay queued (they are persisted by
    /// the server's state dir), blocked `claim_next` calls return `None`.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }

    /// Has shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.inner.lock().unwrap().shutdown
    }
}

/// The fair-share pick: pending entry whose tenant has minimal cumulative
/// usage; ties broken by job id (= admission order). Index into `pending`.
fn pick(inner: &SchedInner) -> Option<usize> {
    inner
        .pending
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let ua = inner.usage.get(&a.tenant).copied().unwrap_or(0.0);
            let ub = inner.usage.get(&b.tenant).copied().unwrap_or(0.0);
            ua.partial_cmp(&ub)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.job.cmp(&b.job))
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_tenant_fair_share_across() {
        let s = Scheduler::new();
        s.enqueue(1, "a");
        s.enqueue(2, "a");
        s.enqueue(3, "b");
        // Tenant "a" has burned an hour; "b" is fresh: b goes first.
        s.release(0, "a", 3600.0);
        assert_eq!(s.claim_next().unwrap().job, 3);
        assert_eq!(s.claim_next().unwrap().job, 1);
        assert_eq!(s.claim_next().unwrap().job, 2);
    }

    #[test]
    fn new_tenant_is_least_served() {
        let s = Scheduler::new();
        s.release(0, "veteran", 100.0);
        s.enqueue(1, "veteran");
        s.enqueue(2, "newcomer");
        assert_eq!(s.claim_next().unwrap().job, 2);
    }

    #[test]
    fn preemption_requires_spent_slice_and_hungrier_tenant() {
        let s = Scheduler::new();
        let slice = Duration::from_millis(100);
        // Nobody waiting: never preempt.
        assert!(!s.should_preempt("a", Duration::from_secs(10), slice));
        s.enqueue(1, "b");
        // Waiting tenant is hungrier, but slice not yet spent.
        assert!(!s.should_preempt("a", Duration::from_millis(10), slice));
        // Slice spent + hungrier waiter: yield.
        assert!(s.should_preempt("a", Duration::from_secs(10), slice));
        // Same tenant waiting on itself: no point yielding.
        let s2 = Scheduler::new();
        s2.enqueue(1, "a");
        assert!(!s2.should_preempt("a", Duration::from_secs(10), slice));
    }

    #[test]
    fn shutdown_unblocks_claims() {
        let s = std::sync::Arc::new(Scheduler::new());
        let s2 = s.clone();
        let h = std::thread::spawn(move || s2.claim_next());
        std::thread::sleep(Duration::from_millis(20));
        s.shutdown();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn preempted_partial_slice_counts_as_usage() {
        let s = Scheduler::new();
        s.enqueue(1, "a");
        let e = s.claim_next().unwrap();
        s.release(e.job, &e.tenant, 5.0);
        assert_eq!(s.usage_snapshot(), vec![("a".to_string(), 5.0)]);
    }
}
