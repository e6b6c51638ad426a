//! World-level collectives built on [`Comm::exchange`].
//!
//! All reductions fold contributions in **fixed rank order**, so every
//! implementation path in this crate (baseline, packed, hierarchical)
//! produces bitwise-identical doubles — the equivalence the §3.2 experiments
//! rely on.

use crate::comm::{Comm, CommError};
use crate::traffic::CollectiveKind;
use crate::ReduceOp;

impl Comm {
    /// World barrier.
    pub fn barrier(&self) -> Result<(), CommError> {
        let _span = self.comm_span(CollectiveKind::Barrier, self.size(), 0);
        self.exchange("barrier", self.size(), self.rank(), Vec::new())?;
        if self.rank() == 0 {
            self.record(CollectiveKind::Barrier, self.size(), 0);
        }
        Ok(())
    }

    /// AllReduce: every rank contributes `data`, every rank receives the
    /// rank-ordered fold.
    pub fn allreduce(&self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>, CommError> {
        let _span = self.comm_span(CollectiveKind::AllReduce, self.size(), data.len() * 8);
        let table = self.exchange("allreduce", self.size(), self.rank(), data.to_vec())?;
        let out = fold_table(op, &table)?;
        if self.rank() == 0 {
            self.record(CollectiveKind::AllReduce, self.size(), data.len() * 8);
        }
        Ok(out)
    }

    /// Broadcast `data` from `root`; other ranks pass their (ignored) buffer
    /// length via an empty vector.
    pub fn broadcast(&self, root: usize, data: Vec<f64>) -> Result<Vec<f64>, CommError> {
        let _span = self.comm_span(CollectiveKind::Broadcast, self.size(), data.len() * 8);
        let payload = if self.rank() == root {
            data
        } else {
            Vec::new()
        };
        let table = self.exchange("broadcast", self.size(), self.rank(), payload)?;
        if self.rank() == 0 {
            self.record(
                CollectiveKind::Broadcast,
                self.size(),
                table[root].len() * 8,
            );
        }
        Ok(table[root].clone())
    }

    /// AllGather: concatenation of every rank's data, rank-ordered.
    pub fn allgather(&self, data: &[f64]) -> Result<Vec<f64>, CommError> {
        let _span = self.comm_span(CollectiveKind::AllGather, self.size(), data.len() * 8);
        let table = self.exchange("allgather", self.size(), self.rank(), data.to_vec())?;
        if self.rank() == 0 {
            self.record(CollectiveKind::AllGather, self.size(), data.len() * 8);
        }
        Ok(table.iter().flat_map(|v| v.iter().copied()).collect())
    }

    /// Reduce to `root` (other ranks receive an empty vector).
    pub fn reduce(&self, op: ReduceOp, root: usize, data: &[f64]) -> Result<Vec<f64>, CommError> {
        // Built on the same table exchange; only root folds.
        let _span = self.comm_span(CollectiveKind::AllReduce, self.size(), data.len() * 8);
        let table = self.exchange("reduce", self.size(), self.rank(), data.to_vec())?;
        if self.rank() == 0 {
            self.record(CollectiveKind::AllReduce, self.size(), data.len() * 8);
        }
        if self.rank() == root {
            fold_table(op, &table)
        } else {
            Ok(Vec::new())
        }
    }

    /// Node-local barrier — the "light-weight local synchronization" of
    /// §3.2.2, involving only the ranks of this rank's node.
    pub fn node_barrier(&self) -> Result<(), CommError> {
        let _span = self.comm_span(CollectiveKind::LocalBarrier, self.node_size(), 0);
        let key = format!("node_barrier@{}", self.node());
        self.exchange(&key, self.node_size(), self.local_rank(), Vec::new())?;
        if self.local_rank() == 0 {
            self.record(CollectiveKind::LocalBarrier, self.node_size(), 0);
        }
        Ok(())
    }

    /// AllReduce among node leaders only (local rank 0); non-leaders get an
    /// empty vector. Used by the hierarchical scheme's inter-node stage.
    pub fn leader_allreduce(&self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>, CommError> {
        if self.local_rank() != 0 {
            return Ok(Vec::new());
        }
        let _span = self.comm_span(
            CollectiveKind::LeaderAllReduce,
            self.n_nodes(),
            data.len() * 8,
        );
        let table = self.exchange(
            "leader_allreduce",
            self.n_nodes(),
            self.node(),
            data.to_vec(),
        )?;
        let out = fold_table(op, &table)?;
        if self.node() == 0 {
            self.record(
                CollectiveKind::LeaderAllReduce,
                self.n_nodes(),
                data.len() * 8,
            );
        }
        Ok(out)
    }
}

/// Fold a contribution table in rank order.
fn fold_table(op: ReduceOp, table: &[Vec<f64>]) -> Result<Vec<f64>, CommError> {
    let len = table[0].len();
    if table.iter().any(|v| v.len() != len) {
        return Err(CommError::Mismatch("allreduce buffer lengths differ"));
    }
    let mut out = table[0].clone();
    for row in &table[1..] {
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o = op.apply(*o, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_spmd;

    #[test]
    fn allreduce_sum_of_ranks() {
        let n = 8;
        let out = run_spmd(n, 4, |c| {
            c.allreduce(ReduceOp::Sum, &[c.rank() as f64, 1.0])
        })
        .unwrap();
        let expect = vec![(0..n).sum::<usize>() as f64, n as f64];
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn allreduce_max_min() {
        let out = run_spmd(5, 5, |c| {
            let mx = c.allreduce(ReduceOp::Max, &[c.rank() as f64])?;
            let mn = c.allreduce(ReduceOp::Min, &[c.rank() as f64])?;
            Ok((mx[0], mn[0]))
        })
        .unwrap();
        for (mx, mn) in out {
            assert_eq!(mx, 4.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn allreduce_is_deterministic_rank_order() {
        // Floating-point non-associativity: rank-ordered folding must yield
        // the exact same bits on every rank, every run.
        let vals: Vec<f64> = (0..16).map(|i| 0.1 * (i as f64) + 1e-13).collect();
        let runs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let vals = vals.clone();
                let out = run_spmd(16, 4, move |c| {
                    c.allreduce(ReduceOp::Sum, &[vals[c.rank()]])
                })
                .unwrap();
                out.into_iter().map(|v| v[0]).collect()
            })
            .collect();
        let reference = runs[0][0];
        for run in &runs {
            for &v in run {
                assert_eq!(v.to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = run_spmd(6, 3, |c| {
            let data = if c.rank() == 4 {
                vec![7.0, 8.0]
            } else {
                vec![]
            };
            c.broadcast(4, data)
        })
        .unwrap();
        for v in out {
            assert_eq!(v, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = run_spmd(4, 2, |c| c.allgather(&[c.rank() as f64 * 10.0])).unwrap();
        for v in out {
            assert_eq!(v, vec![0.0, 10.0, 20.0, 30.0]);
        }
    }

    #[test]
    fn reduce_only_root_receives() {
        let out = run_spmd(4, 2, |c| c.reduce(ReduceOp::Sum, 2, &[1.0])).unwrap();
        for (rank, v) in out.iter().enumerate() {
            if rank == 2 {
                assert_eq!(v, &vec![4.0]);
            } else {
                assert!(v.is_empty());
            }
        }
    }

    #[test]
    fn mismatched_lengths_error() {
        let out = run_spmd(2, 2, |c| {
            let data = vec![0.0; 1 + c.rank()];
            c.allreduce(ReduceOp::Sum, &data)
        });
        // The first rank to detect the mismatch reports it; a peer may
        // instead observe the resulting world poison as RankFailed.
        assert!(
            matches!(
                out,
                Err(CommError::Mismatch(_)) | Err(CommError::RankFailed)
            ),
            "{out:?}"
        );
    }

    #[test]
    fn leader_allreduce_spans_nodes() {
        let out = run_spmd(8, 4, |c| {
            c.leader_allreduce(ReduceOp::Sum, &[(c.node() + 1) as f64])
        })
        .unwrap();
        // Leaders (ranks 0 and 4) see 1 + 2 = 3; others empty.
        assert_eq!(out[0], vec![3.0]);
        assert_eq!(out[4], vec![3.0]);
        assert!(out[1].is_empty() && out[5].is_empty());
    }

    #[test]
    fn traffic_metering_counts_collectives() {
        run_spmd(4, 2, |c| {
            c.allreduce(ReduceOp::Sum, &[0.0; 100])?;
            c.barrier()?;
            c.node_barrier()?;
            // Both nodes must have *recorded* their local barriers before
            // rank 0 inspects the log.
            c.barrier()?;
            if c.rank() == 0 {
                let log = c.traffic();
                assert_eq!(log.calls_of(CollectiveKind::AllReduce), 1);
                assert_eq!(log.calls_of(CollectiveKind::Barrier), 2);
                // Two nodes -> two local barriers.
                assert_eq!(log.calls_of(CollectiveKind::LocalBarrier), 2);
                let snap = log.snapshot();
                let ar = snap
                    .iter()
                    .find(|r| r.kind == CollectiveKind::AllReduce)
                    .unwrap();
                assert_eq!(ar.bytes_per_rank, 800);
                assert_eq!(ar.ranks, 4);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn node_barrier_does_not_deadlock_partial_node() {
        run_spmd(5, 2, |c| {
            for _ in 0..10 {
                c.node_barrier()?;
            }
            Ok(())
        })
        .unwrap();
    }
}
