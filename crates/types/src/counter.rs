//! Increment-only counter MRDT (paper, Table 3).
//!
//! The simplest certified data type: local increments, and a three-way
//! merge that adds the increments accumulated on both branches since the
//! lowest common ancestor.

use peepul_core::{AbstractOf, Certified, Mrdt, SimulationRelation, Specification, Timestamp};

/// Update operations of the increment-only counter.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CounterOp {
    /// Add one to the counter.
    Increment,
}

/// Queries of the increment-only counter.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CounterQuery {
    /// Observe the current count.
    Value,
}

/// Increment-only counter state.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::counter::{Counter, CounterOp, CounterQuery};
///
/// let ts = |t| Timestamp::new(t, ReplicaId::new(0));
/// let lca = Counter::initial();
/// let (a, _) = lca.apply(&CounterOp::Increment, ts(1));
/// let (b, _) = lca.apply(&CounterOp::Increment, ts(2));
/// let m = Counter::merge(&lca, &a, &b);
/// assert_eq!(m.query(&CounterQuery::Value), 2);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct Counter(u64);

impl Counter {
    /// The current count.
    pub fn count(self) -> u64 {
        self.0
    }
}

impl Mrdt for Counter {
    type Op = CounterOp;
    type Value = ();
    type Query = CounterQuery;
    type Output = u64;

    fn initial() -> Self {
        Counter(0)
    }

    fn apply(&self, op: &CounterOp, _t: Timestamp) -> (Self, ()) {
        match op {
            CounterOp::Increment => (Counter(self.0 + 1), ()),
        }
    }

    fn query(&self, q: &CounterQuery) -> u64 {
        match q {
            CounterQuery::Value => self.0,
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        // Each branch's count is lca.0 plus its local increments; summing
        // the two deltas on top of the ancestor merges without loss.
        Counter(a.0 + b.0 - lca.0)
    }
}

/// Specification `F_ctr`: a value query returns the number of visible
/// increments.
#[derive(Debug)]
pub struct CounterSpec;

impl Specification<Counter> for CounterSpec {
    fn spec(_op: &CounterOp, _state: &AbstractOf<Counter>) {}

    fn query(q: &CounterQuery, state: &AbstractOf<Counter>) -> u64 {
        match q {
            CounterQuery::Value => state
                .events()
                .filter(|e| matches!(e.op(), CounterOp::Increment))
                .count() as u64,
        }
    }
}

/// Simulation relation: the concrete count equals the number of increment
/// events in the abstract execution.
#[derive(Debug)]
pub struct CounterSim;

impl SimulationRelation<Counter> for CounterSim {
    fn holds(abs: &AbstractOf<Counter>, conc: &Counter) -> bool {
        let incs = abs
            .events()
            .filter(|e| matches!(e.op(), CounterOp::Increment))
            .count() as u64;
        conc.0 == incs
    }

    fn explain_failure(abs: &AbstractOf<Counter>, conc: &Counter) -> Option<String> {
        let incs = abs
            .events()
            .filter(|e| matches!(e.op(), CounterOp::Increment))
            .count() as u64;
        (conc.0 != incs).then(|| format!("concrete count {} but {} increment events", conc.0, incs))
    }
}

impl Certified for Counter {
    type Spec = CounterSpec;
    type Sim = CounterSim;
}

impl peepul_core::Wire for Counter {
    fn encode(&self, out: &mut Vec<u8>) {
        peepul_core::Wire::encode(&self.0, out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Counter(peepul_core::Wire::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;

    fn ts(tick: u64) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(0))
    }

    #[test]
    fn initial_counts_zero() {
        assert_eq!(Counter::initial().query(&CounterQuery::Value), 0);
    }

    #[test]
    fn increments_accumulate() {
        let mut c = Counter::initial();
        for i in 0..5 {
            let (next, ()) = c.apply(&CounterOp::Increment, ts(i + 1));
            c = next;
        }
        assert_eq!(c.count(), 5);
        assert_eq!(c.query(&CounterQuery::Value), 5);
    }

    #[test]
    fn merge_sums_divergent_increments() {
        let lca = Counter(10);
        let a = Counter(13); // +3 since lca
        let b = Counter(11); // +1 since lca
        assert_eq!(Counter::merge(&lca, &a, &b).count(), 14);
    }

    #[test]
    fn merge_with_unchanged_branch_is_identity() {
        let lca = Counter(4);
        let a = Counter(9);
        assert_eq!(Counter::merge(&lca, &a, &lca), a);
        assert_eq!(Counter::merge(&lca, &lca, &a), a);
    }

    #[test]
    fn merge_is_commutative() {
        let lca = Counter(2);
        let a = Counter(7);
        let b = Counter(3);
        assert_eq!(Counter::merge(&lca, &a, &b), Counter::merge(&lca, &b, &a));
    }

    #[test]
    fn query_spec_counts_visible_increments() {
        let i = AbstractOf::<Counter>::new()
            .perform(CounterOp::Increment, (), ts(1))
            .perform(CounterOp::Increment, (), ts(2));
        assert_eq!(CounterSpec::query(&CounterQuery::Value, &i), 2);
    }

    #[test]
    fn simulation_relates_count_to_events() {
        let i = AbstractOf::<Counter>::new()
            .perform(CounterOp::Increment, (), ts(1))
            .perform(CounterOp::Increment, (), ts(2));
        assert!(CounterSim::holds(&i, &Counter(2)));
        assert!(!CounterSim::holds(&i, &Counter(1)));
        assert!(CounterSim::explain_failure(&i, &Counter(1)).is_some());
        assert!(CounterSim::explain_failure(&i, &Counter(2)).is_none());
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::Wire;

    #[test]
    fn counter_wire_roundtrip() {
        let c = Counter(42);
        assert_eq!(Counter::from_wire(&c.to_wire()), Some(c));
        assert_eq!(c.max_tick(), 0);
    }
}
