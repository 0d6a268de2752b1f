//! Grow-only set MRDT (paper, Table 3).
//!
//! Elements can only be added; the three-way merge is plain union (the
//! paper's `(l ∩ a ∩ b) ∪ (a − l) ∪ (b − l)` collapses to `a ∪ b` because a
//! grow-only branch always contains its ancestor).

use peepul_core::{
    diff_item_lists, AbstractOf, Certified, Delta, Mrdt, SimulationRelation, Specification,
    Timestamp, Wire,
};
use std::collections::BTreeSet;
use std::fmt;

/// Operations of the grow-only set over elements `T`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GSetOp<T> {
    /// Insert an element.
    Add(T),
}

/// Queries of the grow-only set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GSetQuery<T> {
    /// Membership test. Answered by [`GSetOutput::Present`].
    Lookup(T),
    /// Observe the whole set. Answered by [`GSetOutput::Elements`].
    Read,
}

/// Query answers of the grow-only set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GSetOutput<T> {
    /// Result of a membership test.
    Present(bool),
    /// The observed contents, in element order.
    Elements(Vec<T>),
}

/// Grow-only set state.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::g_set::{GSet, GSetOp};
///
/// let ts = |t| Timestamp::new(t, ReplicaId::new(0));
/// let lca: GSet<u32> = GSet::initial();
/// let (a, _) = lca.apply(&GSetOp::Add(1), ts(1));
/// let (b, _) = lca.apply(&GSetOp::Add(2), ts(2));
/// let m = GSet::merge(&lca, &a, &b);
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct GSet<T> {
    elems: BTreeSet<T>,
}

impl<T: Ord> GSet<T> {
    /// Number of distinct elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, x: &T) -> bool {
        self.elems.contains(x)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.elems.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for GSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.elems).finish()
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for GSet<T> {
    type Op = GSetOp<T>;
    type Value = ();
    type Query = GSetQuery<T>;
    type Output = GSetOutput<T>;

    fn initial() -> Self {
        GSet {
            elems: BTreeSet::new(),
        }
    }

    fn apply(&self, op: &GSetOp<T>, _t: Timestamp) -> (Self, ()) {
        match op {
            GSetOp::Add(x) => {
                let mut next = self.clone();
                next.elems.insert(x.clone());
                (next, ())
            }
        }
    }

    fn query(&self, q: &GSetQuery<T>) -> GSetOutput<T> {
        match q {
            GSetQuery::Lookup(x) => GSetOutput::Present(self.contains(x)),
            GSetQuery::Read => GSetOutput::Elements(self.elems.iter().cloned().collect()),
        }
    }

    fn merge(_lca: &Self, a: &Self, b: &Self) -> Self {
        GSet {
            elems: a.elems.union(&b.elems).cloned().collect(),
        }
    }

    fn diff(&self, parent: &Self) -> Delta {
        // Structural diff over the set's encoded elements: an element
        // inserted anywhere in sort order copies every survivor instead of
        // re-inserting the tail the way a byte splice would.
        diff_item_lists(&parent.elems, &self.elems, Wire::encode)
    }
}

/// Specification `F_gset`: reads see exactly the elements with a visible
/// `add` event.
#[derive(Debug)]
pub struct GSetSpec;

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Specification<GSet<T>>
    for GSetSpec
{
    fn spec(_op: &GSetOp<T>, _state: &AbstractOf<GSet<T>>) {}

    fn query(q: &GSetQuery<T>, state: &AbstractOf<GSet<T>>) -> GSetOutput<T> {
        let added = || {
            state
                .events()
                .map(|e| match e.op() {
                    GSetOp::Add(x) => x.clone(),
                })
                .collect::<BTreeSet<_>>()
        };
        match q {
            GSetQuery::Lookup(x) => GSetOutput::Present(added().contains(x)),
            GSetQuery::Read => GSetOutput::Elements(added().into_iter().collect()),
        }
    }
}

/// Simulation relation: the concrete set is exactly the set of added
/// elements in the abstract execution.
#[derive(Debug)]
pub struct GSetSim;

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> SimulationRelation<GSet<T>>
    for GSetSim
{
    fn holds(abs: &AbstractOf<GSet<T>>, conc: &GSet<T>) -> bool {
        let added: BTreeSet<T> = abs
            .events()
            .map(|e| match e.op() {
                GSetOp::Add(x) => x.clone(),
            })
            .collect();
        conc.elems == added
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for GSet<T> {
    type Spec = GSetSpec;
    type Sim = GSetSim;
}

impl<T: peepul_core::Wire + Ord> peepul_core::Wire for GSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.elems.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(GSet {
            elems: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.elems.max_tick()
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
    fn add_is_idempotent_in_effect() {
        let s: GSet<u32> = GSet::initial();
        let (s, _) = s.apply(&GSetOp::Add(1), ts(1));
        let (s, _) = s.apply(&GSetOp::Add(1), ts(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lookup_and_read_agree() {
        let s: GSet<u32> = GSet::initial();
        let (s, _) = s.apply(&GSetOp::Add(7), ts(1));
        assert_eq!(s.query(&GSetQuery::Lookup(7)), GSetOutput::Present(true));
        assert_eq!(s.query(&GSetQuery::Lookup(8)), GSetOutput::Present(false));
        assert_eq!(s.query(&GSetQuery::Read), GSetOutput::Elements(vec![7]));
    }

    #[test]
    fn merge_is_union() {
        let lca: GSet<u32> = GSet::initial();
        let (a, _) = lca.apply(&GSetOp::Add(1), ts(1));
        let (a, _) = a.apply(&GSetOp::Add(2), ts(2));
        let (b, _) = lca.apply(&GSetOp::Add(3), ts(3));
        let m = GSet::merge(&lca, &a, &b);
        assert_eq!(m.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let lca: GSet<u32> = GSet::initial();
        let (a, _) = lca.apply(&GSetOp::Add(1), ts(1));
        let (b, _) = lca.apply(&GSetOp::Add(2), ts(2));
        assert_eq!(GSet::merge(&lca, &a, &b), GSet::merge(&lca, &b, &a));
        assert_eq!(GSet::merge(&lca, &a, &a), a);
    }

    #[test]
    fn query_spec_collects_all_adds() {
        let i = AbstractOf::<GSet<u32>>::new()
            .perform(GSetOp::Add(2), (), ts(1))
            .perform(GSetOp::Add(1), (), ts(2));
        assert_eq!(
            GSetSpec::query(&GSetQuery::Read, &i),
            GSetOutput::Elements(vec![1, 2])
        );
        assert_eq!(
            GSetSpec::query(&GSetQuery::Lookup(2), &i),
            GSetOutput::Present(true)
        );
    }

    #[test]
    fn simulation_matches_adds() {
        let i = AbstractOf::<GSet<u32>>::new().perform(GSetOp::Add(5), (), ts(1));
        let (conc, _) = GSet::<u32>::initial().apply(&GSetOp::Add(5), ts(1));
        assert!(GSetSim::holds(&i, &conc));
        assert!(!GSetSim::holds(&i, &GSet::initial()));
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::Wire;

    #[test]
    fn g_set_wire_roundtrip() {
        let s = GSet {
            elems: [1u64, 2, 3].into_iter().collect(),
        };
        assert_eq!(GSet::from_wire(&s.to_wire()), Some(s));
    }
}
