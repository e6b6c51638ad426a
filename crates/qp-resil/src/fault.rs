//! `QP_FAULT`: a seeded, deterministic fault plan in one spec string.
//!
//! Grammar (clauses separated by `;`, keys by `,`):
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := 'seed=' u64
//!          | 'crash:' rank=R|any , iter=K [, point=NAME]
//!          | 'stall:' rank=R|any , iter=K , ms=M [, point=NAME]
//! ```
//!
//! Both kinds act at [`Comm::fault_point`], the driver iteration boundary:
//! a crash kills the rank there, a stall holds it for `ms` milliseconds,
//! and a stall longer than the collective deadline surfaces on its peers
//! as a timeout.
//!
//! Examples:
//!
//! * `seed=1;crash:rank=1,iter=3` — rank 1 dies entering its 3rd
//!   driver iteration (any [`Comm::fault_point`]).
//! * `seed=7;crash:rank=any,iter=2,point=dfpt.iter` — a seed-chosen rank
//!   dies entering DFPT iteration 2.
//! * `seed=3;stall:rank=2,iter=3,ms=20;crash:rank=2,iter=5` — rank 2
//!   stalls 20 ms at iteration 3, then dies at iteration 5.
//!
//! Every clause fires **once per process** (the supervised restart must not
//! re-trigger the same crash), and every firing is appended to an event log
//! readable via [`FaultPlan::events`] — two runs of the same spec against
//! the same program produce identical logs, which is the reproducibility
//! contract the integration tests check.
//!
//! [`Comm::fault_point`]: qp_mpi::Comm::fault_point

use crate::{ResilError, Result};
use parking_lot::Mutex;
use qp_mpi::{FaultDecision, FaultHook};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A rank selector: explicit, or chosen from the seed once the world size
/// is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankSel {
    Rank(usize),
    Any,
}

#[derive(Debug, Clone, PartialEq)]
enum Clause {
    Crash {
        rank: RankSel,
        iter: u64,
        point: Option<String>,
    },
    Stall {
        rank: RankSel,
        iter: u64,
        ms: u64,
        point: Option<String>,
    },
}

#[derive(Default)]
struct PlanState {
    /// Per-clause resolved rank (`usize::MAX` until `rank=any` is bound).
    resolved: Vec<usize>,
    /// Per-clause one-shot flag.
    fired: Vec<bool>,
    /// Every fault that actually fired, in order.
    events: Vec<String>,
    bound: bool,
}

/// The deterministic fault plan: parsed once from a spec string, installed
/// into the `qp-mpi` runtime, shared (one `Arc`) across supervised
/// restarts so one-shot faults stay fired.
pub struct FaultPlan {
    seed: u64,
    clauses: Vec<Clause>,
    state: Mutex<PlanState>,
}

/// splitmix64: the seed→rank resolution function for `rank=any`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_kv(part: &str) -> Result<(&str, &str)> {
    part.split_once('=')
        .map(|(k, v)| (k.trim(), v.trim()))
        .ok_or_else(|| ResilError::Parse(format!("expected key=value, got `{part}`")))
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T> {
    v.parse()
        .map_err(|_| ResilError::Parse(format!("bad value for {key}: `{v}`")))
}

fn parse_rank(v: &str) -> Result<RankSel> {
    if v == "any" {
        Ok(RankSel::Any)
    } else {
        Ok(RankSel::Rank(parse_num("rank", v)?))
    }
}

fn take_key<'a>(kv: &mut HashMap<&'a str, &'a str>, head: &str, k: &str) -> Result<&'a str> {
    kv.remove(k)
        .ok_or_else(|| ResilError::Parse(format!("`{head}` clause missing `{k}=`")))
}

impl FaultPlan {
    /// Parse a `QP_FAULT` spec string.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let mut seed = 0u64;
        let mut clauses = Vec::new();
        for clause_str in spec.split(';') {
            let clause_str = clause_str.trim();
            if clause_str.is_empty() {
                continue;
            }
            if let Some(v) = clause_str.strip_prefix("seed=") {
                seed = parse_num("seed", v.trim())?;
                continue;
            }
            let (head, body) = clause_str.split_once(':').ok_or_else(|| {
                ResilError::Parse(format!("expected `kind:key=value,...`, got `{clause_str}`"))
            })?;
            let mut kv: HashMap<&str, &str> = HashMap::new();
            for part in body.split(',') {
                let (k, v) = parse_kv(part)?;
                if kv.insert(k, v).is_some() {
                    return Err(ResilError::Parse(format!(
                        "duplicate key `{k}` in `{clause_str}`"
                    )));
                }
            }
            let head = head.trim();
            let clause = match head {
                "crash" => Clause::Crash {
                    rank: parse_rank(take_key(&mut kv, head, "rank")?)?,
                    iter: parse_num("iter", take_key(&mut kv, head, "iter")?)?,
                    point: kv.remove("point").map(str::to_string),
                },
                "stall" => Clause::Stall {
                    rank: parse_rank(take_key(&mut kv, head, "rank")?)?,
                    iter: parse_num("iter", take_key(&mut kv, head, "iter")?)?,
                    ms: parse_num("ms", take_key(&mut kv, head, "ms")?)?,
                    point: kv.remove("point").map(str::to_string),
                },
                other => {
                    return Err(ResilError::Parse(format!("unknown fault kind `{other}`")));
                }
            };
            if !kv.is_empty() {
                let mut extra: Vec<&str> = kv.into_keys().collect();
                extra.sort_unstable();
                return Err(ResilError::Parse(format!(
                    "unknown key(s) {extra:?} in `{clause_str}`"
                )));
            }
            clauses.push(clause);
        }
        if clauses.is_empty() {
            return Err(ResilError::Parse("spec contains no fault clauses".into()));
        }
        let n = clauses.len();
        Ok(FaultPlan {
            seed,
            clauses,
            state: Mutex::new(PlanState {
                resolved: vec![usize::MAX; n],
                fired: vec![false; n],
                ..PlanState::default()
            }),
        })
    }

    /// Parse the `QP_FAULT` environment variable, if set.
    pub fn from_env() -> Result<Option<Arc<FaultPlan>>> {
        match std::env::var("QP_FAULT") {
            Ok(spec) if !spec.trim().is_empty() => Ok(Some(Arc::new(FaultPlan::parse(&spec)?))),
            _ => Ok(None),
        }
    }

    /// The seed in effect.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The log of every fault that fired so far, in firing order.
    pub fn events(&self) -> Vec<String> {
        self.state.lock().events.clone()
    }

    fn rank_matches(&self, st: &PlanState, idx: usize, sel: RankSel, rank: usize) -> bool {
        match sel {
            RankSel::Rank(r) => r == rank,
            RankSel::Any => st.resolved[idx] == rank,
        }
    }
}

impl FaultHook for FaultPlan {
    fn bind_world(&self, size: usize) {
        let mut st = self.state.lock();
        if st.bound || size == 0 {
            return;
        }
        st.bound = true;
        for (idx, clause) in self.clauses.iter().enumerate() {
            let (Clause::Crash { rank: sel, .. } | Clause::Stall { rank: sel, .. }) = clause;
            if *sel == RankSel::Any {
                st.resolved[idx] = (splitmix64(self.seed.wrapping_add(idx as u64)) as usize) % size;
            }
        }
    }

    fn at_point(&self, rank: usize, point: &str, index: u64) -> FaultDecision {
        let mut st = self.state.lock();
        for (idx, clause) in self.clauses.iter().enumerate() {
            if st.fired[idx] {
                continue;
            }
            match clause {
                Clause::Crash {
                    rank: sel,
                    iter,
                    point: pt,
                } if *iter == index
                    && pt.as_deref().is_none_or(|p| p == point)
                    && self.rank_matches(&st, idx, *sel, rank) =>
                {
                    st.fired[idx] = true;
                    st.events
                        .push(format!("crash rank={rank} point={point} iter={index}"));
                    return FaultDecision::Crash;
                }
                Clause::Stall {
                    rank: sel,
                    iter,
                    ms,
                    point: pt,
                } if *iter == index
                    && pt.as_deref().is_none_or(|p| p == point)
                    && self.rank_matches(&st, idx, *sel, rank) =>
                {
                    st.fired[idx] = true;
                    st.events.push(format!(
                        "stall rank={rank} point={point} iter={index} ms={ms}"
                    ));
                    return FaultDecision::Stall(Duration::from_millis(*ms));
                }
                _ => {}
            }
        }
        FaultDecision::Continue
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("clauses", &self.clauses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_fires_once_at_the_named_iteration() {
        let plan = FaultPlan::parse("seed=1;crash:rank=1,iter=3").unwrap();
        plan.bind_world(4);
        assert_eq!(plan.at_point(1, "dfpt.iter", 2), FaultDecision::Continue);
        assert_eq!(plan.at_point(0, "dfpt.iter", 3), FaultDecision::Continue);
        assert_eq!(plan.at_point(1, "dfpt.iter", 3), FaultDecision::Crash);
        // One-shot: the restarted run sails past iteration 3.
        assert_eq!(plan.at_point(1, "dfpt.iter", 3), FaultDecision::Continue);
        assert_eq!(plan.events(), vec!["crash rank=1 point=dfpt.iter iter=3"]);
    }

    #[test]
    fn point_filter_restricts_the_hook() {
        let plan = FaultPlan::parse("crash:rank=0,iter=2,point=dfpt.iter").unwrap();
        plan.bind_world(2);
        assert_eq!(plan.at_point(0, "scf.iter", 2), FaultDecision::Continue);
        assert_eq!(plan.at_point(0, "dfpt.iter", 2), FaultDecision::Crash);
    }

    #[test]
    fn any_rank_is_seed_deterministic() {
        let resolve = |seed: u64, size: usize| {
            let plan = FaultPlan::parse(&format!("seed={seed};crash:rank=any,iter=1")).unwrap();
            plan.bind_world(size);
            (0..size).find(|&r| plan.at_point(r, "x", 1) == FaultDecision::Crash)
        };
        let a = resolve(42, 8).expect("some rank crashes");
        let b = resolve(42, 8).expect("some rank crashes");
        assert_eq!(a, b, "same seed, same victim");
        // Different seeds eventually pick different victims.
        assert!(
            (0..32).any(|s| resolve(s, 8) != Some(a)),
            "seed must influence the victim"
        );
    }

    #[test]
    fn stall_returns_duration() {
        let plan = FaultPlan::parse("stall:rank=2,iter=3,ms=20").unwrap();
        assert_eq!(
            plan.at_point(2, "dfpt.iter", 3),
            FaultDecision::Stall(Duration::from_millis(20))
        );
    }

    #[test]
    fn multi_clause_specs_parse() {
        let plan =
            FaultPlan::parse("seed=3;stall:rank=2,iter=3,ms=20;crash:rank=2,iter=5").unwrap();
        assert_eq!(plan.seed(), 3);
        assert_eq!(
            plan.at_point(2, "dfpt.iter", 3),
            FaultDecision::Stall(Duration::from_millis(20))
        );
        assert_eq!(plan.at_point(2, "dfpt.iter", 5), FaultDecision::Crash);
        assert_eq!(plan.events().len(), 2);
    }

    #[test]
    fn malformed_specs_rejected() {
        for bad in [
            "",
            "frobnicate:rank=1",
            "crash:iter=3",
            "crash:rank=1",
            "crash:rank=x,iter=1",
            "crash:rank=1,iter=1,bogus=2",
            "drop:src=0,dst=1",
            "drop:src=0,dst=1,tag=9,nth=2",
            "corrupt:src=1,dst=0,tag=4,scale=-2.0",
            "seed=notanumber;crash:rank=1,iter=1",
            "crash rank=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
