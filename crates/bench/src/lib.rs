//! Shared workload generators and measurement helpers for the evaluation
//! harness (paper §7.2).
//!
//! Each figure binary (`fig12`–`fig15`, `table3`, `ablation_lca`) builds on
//! the generators here so that Peepul and Quark data types are always
//! driven through **identical** operation sequences with identical
//! timestamps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use peepul_core::{Mrdt, ReplicaId, Timestamp};
use peepul_types::or_set::{OrSetOp, OrSetQuery};
use peepul_types::queue::QueueOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic timestamp source shared by all workloads: a global tick
/// plus a replica id per branch (exactly what the store mints).
#[derive(Debug)]
pub struct Ticker {
    tick: u64,
}

impl Ticker {
    /// Starts at tick 0.
    pub fn new() -> Self {
        Ticker { tick: 0 }
    }

    /// Mints the next timestamp for `replica`.
    pub fn next(&mut self, replica: u32) -> Timestamp {
        self.tick += 1;
        Timestamp::new(self.tick, ReplicaId::new(replica))
    }
}

impl Default for Ticker {
    fn default() -> Self {
        Ticker::new()
    }
}

/// One Fig. 12 session: an LCA built by `n` random queue operations (75:25
/// enqueue:dequeue), then two divergent versions built by `n/2` further
/// operations each. Returns `(lca, a, b)`.
///
/// Generic over the queue implementation so the identical session drives
/// both Peepul's queue and Quark's.
pub fn queue_session<M>(n: usize, seed: u64) -> (M, M, M)
where
    M: Mrdt<Op = QueueOp<u64>>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ticker = Ticker::new();
    let mut value = 0u64;
    let mut op = |rng: &mut StdRng| {
        if rng.gen_bool(0.75) {
            value += 1;
            QueueOp::Enqueue(value)
        } else {
            QueueOp::Dequeue
        }
    };
    let mut lca = M::initial();
    for _ in 0..n {
        let o = op(&mut rng);
        lca = lca.apply(&o, ticker.next(0)).0;
    }
    let mut a = lca.clone();
    for _ in 0..n / 2 {
        let o = op(&mut rng);
        a = a.apply(&o, ticker.next(1)).0;
    }
    let mut b = lca.clone();
    for _ in 0..n / 2 {
        let o = op(&mut rng);
        b = b.apply(&o, ticker.next(2)).0;
    }
    (lca, a, b)
}

/// One Fig. 13 session: `n/2` LCA operations then `n/4` operations on each
/// branch, 50:50 add:remove over values in `0..1000`. Returns `(lca, a, b)`.
pub fn orset_session<M>(n: usize, seed: u64) -> (M, M, M)
where
    M: Mrdt<Op = OrSetOp<u64>>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ticker = Ticker::new();
    let op = |rng: &mut StdRng| {
        let x = rng.gen_range(0..1000u64);
        if rng.gen_bool(0.5) {
            OrSetOp::Add(x)
        } else {
            OrSetOp::Remove(x)
        }
    };
    let mut lca = M::initial();
    for _ in 0..n / 2 {
        let o = op(&mut rng);
        lca = lca.apply(&o, ticker.next(0)).0;
    }
    let mut a = lca.clone();
    for _ in 0..n / 4 {
        let o = op(&mut rng);
        a = a.apply(&o, ticker.next(1)).0;
    }
    let mut b = lca.clone();
    for _ in 0..n / 4 {
        let o = op(&mut rng);
        b = b.apply(&o, ticker.next(2)).0;
    }
    (lca, a, b)
}

/// Approximate in-memory footprint of a state, for the Fig. 15 space
/// series.
pub trait SpaceUsage {
    /// Rough heap bytes occupied by the state's payload.
    fn approx_bytes(&self) -> usize;
}

/// Bytes per stored `(u64 element, Timestamp)` pair in a flat list.
pub const PAIR_BYTES: usize = 8 + 8 + 4 + 4; // elem + tick + replica + padding

impl SpaceUsage for peepul_types::or_set::OrSet<u64> {
    fn approx_bytes(&self) -> usize {
        self.pair_count() * PAIR_BYTES
    }
}

impl SpaceUsage for peepul_types::or_set_space::OrSetSpace<u64> {
    fn approx_bytes(&self) -> usize {
        self.pair_count() * PAIR_BYTES
    }
}

impl SpaceUsage for peepul_types::or_set_spacetime::OrSetSpacetime<u64> {
    fn approx_bytes(&self) -> usize {
        // Tree node: entry + two child pointers + height + size.
        self.pair_count() * (PAIR_BYTES + 2 * 8 + 4 + 8)
    }
}

impl SpaceUsage for peepul_quark::QuarkOrSet<u64> {
    fn approx_bytes(&self) -> usize {
        self.pair_count() * PAIR_BYTES
    }
}

/// Outcome of one Fig. 14/15 run.
#[derive(Copy, Clone, Debug)]
pub struct OrSetRun {
    /// Total wall-clock time for the whole workload including merges.
    pub elapsed: std::time::Duration,
    /// Maximum pair count observed across the run (both branches).
    pub max_pairs: usize,
    /// Maximum approximate footprint observed across the run.
    pub max_bytes: usize,
}

/// The Fig. 14/15 workload: two branches from an empty set, operations
/// drawn 70% lookup / 20% add / 10% remove (values in `0..1000`),
/// alternating randomly between the branches, with a merge every 500
/// operations (after which both branches resume from the merged state).
/// Lookups ride the commit-free query path — they observe a branch without
/// transforming it, exactly as the redesigned store serves them.
pub fn orset_workload<M>(total_ops: usize, seed: u64) -> OrSetRun
where
    M: Mrdt<Op = OrSetOp<u64>, Query = OrSetQuery<u64>> + SpaceUsage,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ticker = Ticker::new();
    let start = std::time::Instant::now();
    let mut lca = M::initial();
    let mut a = lca.clone();
    let mut b = lca.clone();
    let mut max_pairs = 0usize;
    let mut max_bytes = 0usize;
    for i in 0..total_ops {
        let x = rng.gen_range(0..1000u64);
        let roll: f64 = rng.gen();
        let on_a = rng.gen_bool(0.5);
        if roll < 0.7 {
            // Query path: pure observation, no timestamp, no new state.
            let q = OrSetQuery::Lookup(x);
            std::hint::black_box(if on_a { a.query(&q) } else { b.query(&q) });
        } else {
            let op = if roll < 0.9 {
                OrSetOp::Add(x)
            } else {
                OrSetOp::Remove(x)
            };
            if on_a {
                a = a.apply(&op, ticker.next(1)).0;
            } else {
                b = b.apply(&op, ticker.next(2)).0;
            }
        }
        if i % 500 == 499 {
            let merged = M::merge(&lca, &a, &b);
            lca = merged.clone();
            a = merged.clone();
            b = merged;
        }
        if i % 100 == 0 {
            let bytes = a.approx_bytes() + b.approx_bytes();
            max_bytes = max_bytes.max(bytes);
            max_pairs = max_pairs.max(bytes / PAIR_BYTES);
        }
    }
    OrSetRun {
        elapsed: start.elapsed(),
        max_pairs,
        max_bytes,
    }
}

/// Times one closure invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (std::time::Duration, R) {
    let start = std::time::Instant::now();
    let r = f();
    (start.elapsed(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_quark::QuarkQueue;
    use peepul_types::or_set_space::OrSetSpace;
    use peepul_types::queue::Queue;

    #[test]
    fn queue_sessions_are_identical_across_implementations() {
        let (pl, pa, pb) = queue_session::<Queue<u64>>(200, 42);
        let (ql, qa, qb) = queue_session::<QuarkQueue<u64>>(200, 42);
        assert_eq!(pl.to_list(), ql.to_list());
        assert_eq!(pa.to_list(), qa.to_list());
        assert_eq!(pb.to_list(), qb.to_list());
    }

    #[test]
    fn queue_session_merges_agree() {
        let (pl, pa, pb) = queue_session::<Queue<u64>>(300, 7);
        let (ql, qa, qb) = queue_session::<QuarkQueue<u64>>(300, 7);
        let pm = Queue::merge(&pl, &pa, &pb);
        let qm = QuarkQueue::merge(&ql, &qa, &qb);
        assert_eq!(pm.to_list(), qm.to_list());
    }

    #[test]
    fn orset_workload_runs_and_reports() {
        let run = orset_workload::<OrSetSpace<u64>>(2000, 3);
        assert!(run.max_pairs > 0);
        assert!(run.max_bytes > 0);
    }

    #[test]
    fn ticker_is_strictly_increasing() {
        let mut t = Ticker::new();
        let a = t.next(0);
        let b = t.next(1);
        assert!(a < b);
    }
}
