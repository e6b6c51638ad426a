//! Point-to-point messaging: `send`/`recv` with tag matching.
//!
//! The collectives cover the DFPT hot paths; point-to-point messaging is
//! the substrate for neighbour exchanges and the fault-injection drop
//! path. Semantics follow MPI:
//! `send` is asynchronous (buffered), `recv` blocks until a matching
//! `(source, tag)` message arrives; messages between one (source, dest, tag)
//! triple are non-overtaking (FIFO).

use crate::comm::{Comm, CommError};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One mailbox per (source, dest, tag).
type Key = (usize, usize, u64);

#[derive(Default)]
pub(crate) struct Mailboxes {
    state: Mutex<HashMap<Key, VecDeque<Vec<f64>>>>,
    cond: Condvar,
}

impl Mailboxes {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Mailboxes::default())
    }

    fn post(&self, key: Key, payload: Vec<f64>) {
        self.state.lock().entry(key).or_default().push_back(payload);
        self.cond.notify_all();
    }

    fn take(
        &self,
        key: Key,
        poisoned: &std::sync::atomic::AtomicBool,
        deadline: Duration,
    ) -> Result<Vec<f64>, CommError> {
        let start = Instant::now();
        let mut st = self.state.lock();
        loop {
            if let Some(queue) = st.get_mut(&key) {
                if let Some(payload) = queue.pop_front() {
                    return Ok(payload);
                }
            }
            if poisoned.load(Ordering::SeqCst) {
                return Err(CommError::RankFailed);
            }
            // Bounded wait: a failed sender that never poisoned the world
            // (crashed silently, or its message was dropped by fault
            // injection) must not hang this rank forever.
            let remaining = deadline
                .checked_sub(start.elapsed())
                .ok_or(CommError::Timeout)?;
            self.cond.wait_for(&mut st, remaining);
        }
    }

    pub(crate) fn notify_all(&self) {
        self.cond.notify_all();
    }
}

impl Comm {
    /// Send `data` to `dest` with `tag` (asynchronous, buffered).
    ///
    /// Fault injection may drop or corrupt the message in flight; a dropped
    /// message surfaces on the receiver as [`CommError::Timeout`].
    pub fn send(&self, dest: usize, tag: u64, mut data: Vec<f64>) -> Result<(), CommError> {
        if dest >= self.size() {
            return Err(CommError::Mismatch("send destination out of range"));
        }
        let mut span = qp_trace::SpanGuard::begin(self.rank(), qp_trace::Phase::Comm, "send");
        if span.is_recording() {
            span.arg("dest", dest)
                .arg("tag", tag)
                .arg("bytes", data.len() * 8);
        }
        if let Some(hook) = &self.opts().fault {
            if !hook.on_send(self.rank(), dest, tag, &mut data) {
                // Message lost on the wire: successful send on this side,
                // nothing delivered.
                if span.is_recording() {
                    span.arg("dropped", 1u64);
                }
                return Ok(());
            }
        }
        self.mailboxes().post((self.rank(), dest, tag), data);
        Ok(())
    }

    /// Receive the next message from `source` with `tag`, blocking up to the
    /// world's configured recv deadline (default 30 s; see
    /// [`crate::fault::SpmdOptions`]), then failing with
    /// [`CommError::Timeout`].
    pub fn recv(&self, source: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.recv_deadline(source, tag, self.opts().recv_timeout)
    }

    /// [`Comm::recv`] with an explicit per-call deadline.
    pub fn recv_deadline(
        &self,
        source: usize,
        tag: u64,
        deadline: Duration,
    ) -> Result<Vec<f64>, CommError> {
        if source >= self.size() {
            return Err(CommError::Mismatch("recv source out of range"));
        }
        let mut span = qp_trace::SpanGuard::begin(self.rank(), qp_trace::Phase::Comm, "recv");
        let payload =
            self.mailboxes()
                .take((source, self.rank(), tag), self.poison_flag(), deadline)?;
        if span.is_recording() {
            span.arg("source", source)
                .arg("tag", tag)
                .arg("bytes", payload.len() * 8);
        }
        Ok(payload)
    }

    /// Combined exchange with a partner (deadlock-free: send is buffered).
    pub fn sendrecv(
        &self,
        partner: usize,
        tag: u64,
        data: Vec<f64>,
    ) -> Result<Vec<f64>, CommError> {
        self.send(partner, tag, data)?;
        self.recv(partner, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_spmd;

    #[test]
    fn ping_pong() {
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0, 2.0, 3.0])?;
                c.recv(1, 8)
            } else {
                let got = c.recv(0, 7)?;
                c.send(0, 8, got.iter().map(|x| x * 10.0).collect())?;
                Ok(vec![])
            }
        })
        .unwrap();
        assert_eq!(out[0], vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn messages_are_fifo_per_channel() {
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 0 {
                for i in 0..20 {
                    c.send(1, 1, vec![i as f64])?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..20 {
                    got.push(c.recv(0, 1)?[0]);
                }
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(out[1], (0..20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn tags_do_not_cross() {
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![5.0])?;
                c.send(1, 6, vec![6.0])?;
                Ok(0.0)
            } else {
                // Receive in reverse tag order.
                let six = c.recv(0, 6)?[0];
                let five = c.recv(0, 5)?[0];
                Ok(six * 10.0 + five)
            }
        })
        .unwrap();
        assert_eq!(out[1], 65.0);
    }

    #[test]
    fn ring_shift() {
        let n = 5;
        let out = run_spmd(n, 5, move |c| {
            let next = (c.rank() + 1) % n;
            let prev = (c.rank() + n - 1) % n;
            c.send(next, 0, vec![c.rank() as f64])?;
            let got = c.recv(prev, 0)?;
            Ok(got[0])
        })
        .unwrap();
        for (rank, v) in out.iter().enumerate() {
            assert_eq!(*v, ((rank + n - 1) % n) as f64);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 0 {
                assert!(matches!(c.send(9, 0, vec![]), Err(CommError::Mismatch(_))));
                assert!(matches!(c.recv(9, 0), Err(CommError::Mismatch(_))));
            }
            Ok(())
        });
        out.unwrap();
    }

    #[test]
    fn failure_unblocks_recv() {
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 1 {
                c.inject_failure();
                return Err(CommError::RankFailed);
            }
            // Rank 0 blocks on a message that never comes.
            c.recv(1, 99)?;
            Ok(())
        });
        assert_eq!(out, Err(CommError::RankFailed));
    }

    #[test]
    fn recv_times_out_without_sender() {
        // A sender that dies without poisoning the world: the deadline, not
        // channel disconnection, must unblock the receiver.
        use crate::fault::SpmdOptions;
        use std::time::{Duration, Instant};
        let opts = SpmdOptions::default().with_timeout(Duration::from_millis(50));
        let start = Instant::now();
        let out = crate::comm::run_spmd_with(2, 2, opts, |c| {
            if c.rank() == 0 {
                c.recv(1, 42)?;
            }
            Ok(())
        });
        assert!(
            matches!(out, Err(CommError::Timeout) | Err(CommError::RankFailed)),
            "{out:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(10), "bounded unblock");
    }

    #[test]
    fn recv_deadline_is_per_call() {
        use std::time::Duration;
        let out = run_spmd(2, 2, |c| {
            if c.rank() == 0 {
                // No message for tag 7 ever arrives.
                let r = c.recv_deadline(1, 7, Duration::from_millis(30));
                assert_eq!(r, Err(CommError::Timeout));
            }
            Ok(())
        });
        // The timing-out rank returned Ok, so the world result is Ok.
        out.unwrap();
    }

    #[test]
    fn dropped_message_times_out_receiver() {
        use crate::fault::{FaultHook, SpmdOptions};
        use std::time::Duration;

        struct DropAll;
        impl FaultHook for DropAll {
            fn on_send(&self, _: usize, _: usize, _: u64, _: &mut Vec<f64>) -> bool {
                false
            }
        }
        let opts = SpmdOptions::with_fault(std::sync::Arc::new(DropAll))
            .with_timeout(Duration::from_millis(50));
        let out = crate::comm::run_spmd_with(2, 2, opts, |c| {
            if c.rank() == 1 {
                c.send(0, 3, vec![1.0])?;
                Ok(0.0)
            } else {
                c.recv(0, 3).map(|v| v[0])
            }
        });
        assert!(matches!(
            out,
            Err(CommError::Timeout) | Err(CommError::RankFailed)
        ));
    }

    #[test]
    fn corrupted_message_is_delivered_mutated() {
        use crate::fault::{FaultHook, SpmdOptions};

        struct FlipSign;
        impl FaultHook for FlipSign {
            fn on_send(&self, _: usize, _: usize, _: u64, data: &mut Vec<f64>) -> bool {
                for v in data.iter_mut() {
                    *v = -*v;
                }
                true
            }
        }
        let out = crate::comm::run_spmd_with(
            2,
            2,
            SpmdOptions::with_fault(std::sync::Arc::new(FlipSign)),
            |c| {
                if c.rank() == 0 {
                    c.send(1, 1, vec![2.0, 3.0])?;
                    Ok(vec![])
                } else {
                    c.recv(0, 1)
                }
            },
        )
        .unwrap();
        assert_eq!(out[1], vec![-2.0, -3.0]);
    }
}
