//! Positive-negative counter MRDT (paper, Table 3).
//!
//! Tracks increments and decrements separately — the classic PN-counter
//! construction — so the three-way merge can add per-branch deltas without
//! conflating the two directions.

use peepul_core::{AbstractOf, Certified, Mrdt, SimulationRelation, Specification, Timestamp};

/// Operations of the PN counter.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PnCounterOp {
    /// Add one.
    Increment,
    /// Subtract one.
    Decrement,
}

/// Queries of the PN counter.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PnCounterQuery {
    /// Observe the current value (may be negative).
    Value,
}

/// PN-counter state: the totals of increments and decrements observed.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::pn_counter::{PnCounter, PnCounterOp};
///
/// let ts = |t| Timestamp::new(t, ReplicaId::new(0));
/// let lca = PnCounter::initial();
/// let (a, _) = lca.apply(&PnCounterOp::Increment, ts(1));
/// let (b, _) = lca.apply(&PnCounterOp::Decrement, ts(2));
/// let m = PnCounter::merge(&lca, &a, &b);
/// assert_eq!(m.value(), 0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct PnCounter {
    incs: u64,
    decs: u64,
}

impl PnCounter {
    /// The current value: increments minus decrements.
    pub fn value(self) -> i64 {
        self.incs as i64 - self.decs as i64
    }

    /// Total increments observed.
    pub fn increments(self) -> u64 {
        self.incs
    }

    /// Total decrements observed.
    pub fn decrements(self) -> u64 {
        self.decs
    }
}

impl Mrdt for PnCounter {
    type Op = PnCounterOp;
    type Value = ();
    type Query = PnCounterQuery;
    type Output = i64;

    fn initial() -> Self {
        PnCounter::default()
    }

    fn apply(&self, op: &PnCounterOp, _t: Timestamp) -> (Self, ()) {
        match op {
            PnCounterOp::Increment => (
                PnCounter {
                    incs: self.incs + 1,
                    ..*self
                },
                (),
            ),
            PnCounterOp::Decrement => (
                PnCounter {
                    decs: self.decs + 1,
                    ..*self
                },
                (),
            ),
        }
    }

    fn query(&self, q: &PnCounterQuery) -> i64 {
        match q {
            PnCounterQuery::Value => self.value(),
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        PnCounter {
            incs: a.incs + b.incs - lca.incs,
            decs: a.decs + b.decs - lca.decs,
        }
    }
}

/// Specification `F_pnctr`: a value query returns visible increments minus
/// visible decrements.
#[derive(Debug)]
pub struct PnCounterSpec;

impl Specification<PnCounter> for PnCounterSpec {
    fn spec(_op: &PnCounterOp, _state: &AbstractOf<PnCounter>) {}

    fn query(q: &PnCounterQuery, state: &AbstractOf<PnCounter>) -> i64 {
        match q {
            PnCounterQuery::Value => {
                let incs = state
                    .events()
                    .filter(|e| matches!(e.op(), PnCounterOp::Increment))
                    .count() as i64;
                let decs = state
                    .events()
                    .filter(|e| matches!(e.op(), PnCounterOp::Decrement))
                    .count() as i64;
                incs - decs
            }
        }
    }
}

/// Simulation relation: both components match the corresponding event
/// counts (strictly stronger than relating only the difference — relating
/// only `value()` would not be preserved by merge).
#[derive(Debug)]
pub struct PnCounterSim;

impl SimulationRelation<PnCounter> for PnCounterSim {
    fn holds(abs: &AbstractOf<PnCounter>, conc: &PnCounter) -> bool {
        let incs = abs
            .events()
            .filter(|e| matches!(e.op(), PnCounterOp::Increment))
            .count() as u64;
        let decs = abs
            .events()
            .filter(|e| matches!(e.op(), PnCounterOp::Decrement))
            .count() as u64;
        conc.incs == incs && conc.decs == decs
    }

    fn explain_failure(abs: &AbstractOf<PnCounter>, conc: &PnCounter) -> Option<String> {
        if Self::holds(abs, conc) {
            None
        } else {
            Some(format!(
                "concrete (incs={}, decs={}) does not match abstract event counts",
                conc.incs, conc.decs
            ))
        }
    }
}

impl Certified for PnCounter {
    type Spec = PnCounterSpec;
    type Sim = PnCounterSim;
}

impl peepul_core::Wire for PnCounter {
    fn encode(&self, out: &mut Vec<u8>) {
        peepul_core::Wire::encode(&self.incs, out);
        peepul_core::Wire::encode(&self.decs, out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let incs = peepul_core::Wire::decode(input)?;
        let decs = peepul_core::Wire::decode(input)?;
        Some(PnCounter { incs, decs })
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
    fn value_can_go_negative() {
        let c = PnCounter::initial();
        let (c, _) = c.apply(&PnCounterOp::Decrement, ts(1));
        let (c, _) = c.apply(&PnCounterOp::Decrement, ts(2));
        let (c, _) = c.apply(&PnCounterOp::Increment, ts(3));
        assert_eq!(c.value(), -1);
        assert_eq!(c.query(&PnCounterQuery::Value), -1);
    }

    #[test]
    fn merge_adds_both_directions_independently() {
        let lca = PnCounter { incs: 5, decs: 2 };
        let a = PnCounter { incs: 8, decs: 2 }; // +3 incs
        let b = PnCounter { incs: 5, decs: 6 }; // +4 decs
        let m = PnCounter::merge(&lca, &a, &b);
        assert_eq!(m, PnCounter { incs: 8, decs: 6 });
        assert_eq!(m.value(), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let lca = PnCounter { incs: 1, decs: 1 };
        let a = PnCounter { incs: 4, decs: 1 };
        let b = PnCounter { incs: 1, decs: 3 };
        assert_eq!(
            PnCounter::merge(&lca, &a, &b),
            PnCounter::merge(&lca, &b, &a)
        );
    }

    #[test]
    fn concurrent_inc_dec_cancel_out() {
        let lca = PnCounter::initial();
        let (a, _) = lca.apply(&PnCounterOp::Increment, ts(1));
        let (b, _) = lca.apply(&PnCounterOp::Decrement, ts(2));
        assert_eq!(PnCounter::merge(&lca, &a, &b).value(), 0);
    }

    #[test]
    fn query_spec_is_difference_of_event_counts() {
        let i = AbstractOf::<PnCounter>::new()
            .perform(PnCounterOp::Increment, (), ts(1))
            .perform(PnCounterOp::Decrement, (), ts(2))
            .perform(PnCounterOp::Decrement, (), ts(3));
        assert_eq!(PnCounterSpec::query(&PnCounterQuery::Value, &i), -1);
    }

    #[test]
    fn simulation_requires_componentwise_match() {
        let i = AbstractOf::<PnCounter>::new()
            .perform(PnCounterOp::Increment, (), ts(1))
            .perform(PnCounterOp::Decrement, (), ts(2));
        assert!(PnCounterSim::holds(&i, &PnCounter { incs: 1, decs: 1 }));
        // Same difference, wrong components: the coarser relation would
        // wrongly accept this.
        assert!(!PnCounterSim::holds(&i, &PnCounter { incs: 2, decs: 2 }));
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::Wire;

    #[test]
    fn pn_counter_wire_roundtrip() {
        let c = PnCounter { incs: 7, decs: 3 };
        assert_eq!(PnCounter::from_wire(&c.to_wire()), Some(c));
    }
}
