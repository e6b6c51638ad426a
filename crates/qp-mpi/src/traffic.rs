//! Collective-traffic metering.
//!
//! The Fig. 10 experiments compare AllReduce *time* across implementations
//! and rank counts; on this substrate the time is produced by the
//! `qp-machine` cost model from exactly these records: which collective ran,
//! over how many ranks, with how many bytes per rank.

use parking_lot::Mutex;

/// The collective operations the runtime meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Plain N-rank AllReduce.
    AllReduce,
    /// One packed AllReduce carrying several fused payloads (§3.2.1).
    PackedAllReduce,
    /// The inter-node (leaders-only) AllReduce of the hierarchical scheme.
    LeaderAllReduce,
    /// A node-local barrier (§3.2.2's "light-weight local synchronizations").
    LocalBarrier,
    /// Broadcast.
    Broadcast,
    /// AllGather.
    AllGather,
    /// World barrier.
    Barrier,
}

impl CollectiveKind {
    /// Stable name used as the `kind` metric label and span tag.
    pub fn as_str(self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "AllReduce",
            CollectiveKind::PackedAllReduce => "PackedAllReduce",
            CollectiveKind::LeaderAllReduce => "LeaderAllReduce",
            CollectiveKind::LocalBarrier => "LocalBarrier",
            CollectiveKind::Broadcast => "Broadcast",
            CollectiveKind::AllGather => "AllGather",
            CollectiveKind::Barrier => "Barrier",
        }
    }
}

/// One metered collective call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficRecord {
    /// What ran.
    pub kind: CollectiveKind,
    /// How many ranks participated.
    pub ranks: usize,
    /// Payload bytes contributed per rank.
    pub bytes_per_rank: usize,
}

/// Thread-safe traffic log of one communicator world.
///
/// Every record is also counted in the process-global registry (per-kind
/// `mpi.collective.calls` / `mpi.collective.bytes` counters), so the
/// unified metrics dump carries the per-collective totals of every world.
pub struct TrafficLog {
    records: Mutex<Vec<TrafficRecord>>,
}

impl TrafficLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        TrafficLog {
            records: Mutex::new(Vec::new()),
        }
    }

    /// Record one collective (called once per collective, by the completing
    /// rank).
    pub fn record(&self, kind: CollectiveKind, ranks: usize, bytes_per_rank: usize) {
        self.records.lock().push(TrafficRecord {
            kind,
            ranks,
            bytes_per_rank,
        });
        let labels = [("kind", kind.as_str())];
        let reg = qp_trace::global_metrics();
        reg.counter("mpi.collective.calls", &labels).inc();
        reg.counter("mpi.collective.bytes", &labels)
            .add(bytes_per_rank as u64);
    }

    /// Snapshot all records.
    pub fn snapshot(&self) -> Vec<TrafficRecord> {
        self.records.lock().clone()
    }

    /// Calls of one kind.
    pub fn calls_of(&self, kind: CollectiveKind) -> usize {
        self.records
            .lock()
            .iter()
            .filter(|r| r.kind == kind)
            .count()
    }
}

impl Default for TrafficLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let log = TrafficLog::new();
        log.record(CollectiveKind::AllReduce, 8, 1024);
        log.record(CollectiveKind::LocalBarrier, 4, 0);
        assert_eq!(log.calls_of(CollectiveKind::AllReduce), 1);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].ranks, 8);
        assert_eq!(snap[0].bytes_per_rank, 1024);
        assert_eq!(snap[1].kind, CollectiveKind::LocalBarrier);
    }
}
