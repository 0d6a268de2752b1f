//! Last-writer-wins register MRDT (paper, Table 3).
//!
//! Stores one value; the write with the greatest timestamp wins, both
//! locally and across branches. Because store timestamps respect
//! happens-before (Ψ_ts), "latest timestamp" refines causal order and
//! breaks ties between concurrent writes deterministically.

use peepul_core::{AbstractOf, Certified, Mrdt, SimulationRelation, Specification, Timestamp};
use std::fmt;

/// Operations of the LWW register over values `T`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LwwOp<T> {
    /// Overwrite the register.
    Write(T),
}

/// Queries of the LWW register.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LwwQuery {
    /// Observe the contents (`None` when never written).
    Read,
}

/// Last-writer-wins register state.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::lww_register::{LwwRegister, LwwOp};
///
/// let lca: LwwRegister<String> = LwwRegister::initial();
/// let (a, _) = lca.apply(&LwwOp::Write("alpha".into()), Timestamp::new(1, ReplicaId::new(1)));
/// let (b, _) = lca.apply(&LwwOp::Write("beta".into()), Timestamp::new(2, ReplicaId::new(2)));
/// let m = LwwRegister::merge(&lca, &a, &b);
/// assert_eq!(m.get().map(String::as_str), Some("beta")); // later write wins
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LwwRegister<T> {
    value: Option<T>,
    time: Timestamp,
}

impl<T> LwwRegister<T> {
    /// The current contents, or `None` when never written.
    pub fn get(&self) -> Option<&T> {
        self.value.as_ref()
    }

    /// The timestamp of the winning write ([`Timestamp::MIN`] when never
    /// written).
    pub fn time(&self) -> Timestamp {
        self.time
    }
}

impl<T: fmt::Debug> fmt::Debug for LwwRegister<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LwwRegister({:?} @ {})", self.value, self.time)
    }
}

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for LwwRegister<T> {
    type Op = LwwOp<T>;
    type Value = ();
    type Query = LwwQuery;
    type Output = Option<T>;

    fn initial() -> Self {
        LwwRegister {
            value: None,
            time: Timestamp::MIN,
        }
    }

    fn apply(&self, op: &LwwOp<T>, t: Timestamp) -> (Self, ()) {
        match op {
            LwwOp::Write(v) => (
                LwwRegister {
                    value: Some(v.clone()),
                    time: t,
                },
                (),
            ),
        }
    }

    fn query(&self, q: &LwwQuery) -> Option<T> {
        match q {
            LwwQuery::Read => self.value.clone(),
        }
    }

    fn merge(_lca: &Self, a: &Self, b: &Self) -> Self {
        // Local writes only move a branch's timestamp forward, so both
        // branches are at or past the ancestor; the later of the two wins.
        if a.time >= b.time {
            a.clone()
        } else {
            b.clone()
        }
    }
}

/// Specification `F_lww`: a read returns the value of the greatest-timestamp
/// write event (or `None` when no write is visible).
#[derive(Debug)]
pub struct LwwSpec;

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Specification<LwwRegister<T>>
    for LwwSpec
{
    fn spec(_op: &LwwOp<T>, _state: &AbstractOf<LwwRegister<T>>) {}

    fn query(q: &LwwQuery, state: &AbstractOf<LwwRegister<T>>) -> Option<T> {
        match q {
            LwwQuery::Read => latest_write(state).map(|(_, v)| v),
        }
    }
}

fn latest_write<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
    state: &AbstractOf<LwwRegister<T>>,
) -> Option<(Timestamp, T)> {
    state
        .events()
        .map(|e| match e.op() {
            LwwOp::Write(v) => (e.time(), v.clone()),
        })
        .max_by_key(|(t, _)| *t)
}

/// Simulation relation: the register holds exactly the greatest-timestamp
/// visible write (value *and* timestamp).
#[derive(Debug)]
pub struct LwwSim;

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> SimulationRelation<LwwRegister<T>>
    for LwwSim
{
    fn holds(abs: &AbstractOf<LwwRegister<T>>, conc: &LwwRegister<T>) -> bool {
        match latest_write(abs) {
            Some((t, v)) => conc.time == t && conc.value.as_ref() == Some(&v),
            None => conc.value.is_none() && conc.time == Timestamp::MIN,
        }
    }

    fn explain_failure(abs: &AbstractOf<LwwRegister<T>>, conc: &LwwRegister<T>) -> Option<String> {
        if <Self as SimulationRelation<LwwRegister<T>>>::holds(abs, conc) {
            None
        } else {
            Some(format!(
                "register {conc:?} does not hold the latest visible write {:?}",
                latest_write(abs)
            ))
        }
    }
}

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for LwwRegister<T> {
    type Spec = LwwSpec;
    type Sim = LwwSim;
}

impl<T: peepul_core::Wire> peepul_core::Wire for LwwRegister<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
        self.time.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let value = peepul_core::Wire::decode(input)?;
        let time = peepul_core::Wire::decode(input)?;
        Some(LwwRegister { value, time })
    }

    fn max_tick(&self) -> u64 {
        self.time.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    #[test]
    fn starts_unwritten() {
        let r: LwwRegister<u32> = LwwRegister::initial();
        assert_eq!(r.get(), None);
        assert_eq!(r.query(&LwwQuery::Read), None);
    }

    #[test]
    fn local_writes_overwrite() {
        let r: LwwRegister<u32> = LwwRegister::initial();
        let (r, _) = r.apply(&LwwOp::Write(1), ts(1, 0));
        let (r, _) = r.apply(&LwwOp::Write(2), ts(2, 0));
        assert_eq!(r.get(), Some(&2));
    }

    #[test]
    fn merge_prefers_greater_timestamp() {
        let lca: LwwRegister<u32> = LwwRegister::initial();
        let (a, _) = lca.apply(&LwwOp::Write(10), ts(5, 1));
        let (b, _) = lca.apply(&LwwOp::Write(20), ts(3, 2));
        let m = LwwRegister::merge(&lca, &a, &b);
        assert_eq!(m.get(), Some(&10));
        assert_eq!(
            LwwRegister::merge(&lca, &b, &a),
            m,
            "merge must be commutative"
        );
    }

    #[test]
    fn merge_with_unwritten_branch_keeps_written_value() {
        let lca: LwwRegister<u32> = LwwRegister::initial();
        let (a, _) = lca.apply(&LwwOp::Write(10), ts(1, 1));
        assert_eq!(LwwRegister::merge(&lca, &a, &lca).get(), Some(&10));
        assert_eq!(LwwRegister::merge(&lca, &lca, &a).get(), Some(&10));
    }

    #[test]
    fn replica_id_breaks_concurrent_tick_ties_deterministically() {
        let lca: LwwRegister<String> = LwwRegister::initial();
        let (a, _) = lca.apply(&LwwOp::Write("a".into()), ts(1, 1));
        let (b, _) = lca.apply(&LwwOp::Write("b".into()), ts(1, 2));
        let m1 = LwwRegister::merge(&lca, &a, &b);
        let m2 = LwwRegister::merge(&lca, &b, &a);
        assert_eq!(m1, m2);
        assert_eq!(m1.get().map(String::as_str), Some("b"));
    }

    #[test]
    fn query_spec_returns_latest_visible_write() {
        let i = AbstractOf::<LwwRegister<u32>>::new()
            .perform(LwwOp::Write(1), (), ts(1, 0))
            .perform(LwwOp::Write(2), (), ts(2, 0));
        assert_eq!(LwwSpec::query(&LwwQuery::Read, &i), Some(2));
    }

    #[test]
    fn simulation_checks_value_and_time() {
        let i = AbstractOf::<LwwRegister<u32>>::new().perform(LwwOp::Write(1), (), ts(1, 0));
        let (good, _) = LwwRegister::<u32>::initial().apply(&LwwOp::Write(1), ts(1, 0));
        assert!(LwwSim::holds(&i, &good));
        let (stale_time, _) = LwwRegister::<u32>::initial().apply(&LwwOp::Write(1), ts(9, 0));
        assert!(!LwwSim::holds(&i, &stale_time));
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::{ReplicaId, Wire};

    #[test]
    fn lww_register_wire_roundtrip() {
        let r = LwwRegister {
            value: Some(String::from("v")),
            time: Timestamp::new(6, ReplicaId::new(2)),
        };
        assert_eq!(LwwRegister::from_wire(&r.to_wire()), Some(r.clone()));
        assert_eq!(r.max_tick(), 6);
        let empty: LwwRegister<String> = LwwRegister::initial();
        assert_eq!(LwwRegister::from_wire(&empty.to_wire()), Some(empty));
    }
}
