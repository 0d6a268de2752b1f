//! Unoptimized observed-remove set MRDT (paper §2.1.1, Fig. 1).
//!
//! The baseline Peepul OR-set: a list of `(element, timestamp)` pairs in
//! which the *same element may appear several times* with different
//! timestamps (once per `add`). `add` appends in `O(1)`; `remove` deletes
//! every occurrence in `O(n)`; the three-way merge is
//! `(l ∩ a ∩ b) ∪ (a − l) ∪ (b − l)` on pair sets. The unique timestamp
//! attached by each `add` is what makes add-win: a concurrent `remove` can
//! only delete the pairs it has *observed*.
//!
//! The duplicate pairs are pure overhead — they are why this variant loses
//! to [`crate::or_set_space`] and [`crate::or_set_spacetime`] in Figs. 14
//! and 15 of the paper.

use peepul_core::{AbstractOf, Certified, Mrdt, SimulationRelation, Specification, Timestamp};
use std::collections::BTreeSet;
use std::fmt;

/// Update operations shared by all three OR-set variants (and the Quark
/// baseline).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OrSetOp<T> {
    /// Add an element (add-wins on conflict).
    Add(T),
    /// Remove every observed occurrence of an element.
    Remove(T),
}

/// Queries shared by all three OR-set variants (and the Quark baseline).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OrSetQuery<T> {
    /// Membership test. Answered by [`OrSetOutput::Present`].
    Lookup(T),
    /// Observe the whole set. Answered by [`OrSetOutput::Elements`].
    Read,
}

/// Query answers shared by all three OR-set variants (and the Quark
/// baseline).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OrSetOutput<T> {
    /// Result of a membership test.
    Present(bool),
    /// The observed distinct elements, in element order.
    Elements(Vec<T>),
}

/// The shared OR-set specification `F_orset` (§2.2.1): a read returns every
/// element for which some `add` event is not visible to any `remove` event
/// of the same element.
#[derive(Debug)]
pub struct OrSetSpec;

/// The abstract-execution type shared by all three OR-set variants (they
/// have identical operation and return-value types).
pub(crate) type OrSetAbstract<T> = peepul_core::AbstractState<OrSetOp<T>, ()>;

/// Is the `add` event `add_id` of element `x` *live* (unseen by any
/// `remove(x)`)?
pub(crate) fn add_is_live<T: PartialEq>(abs: &OrSetAbstract<T>, add_id: Timestamp, x: &T) -> bool {
    !abs.events()
        .any(|r| matches!(r.op(), OrSetOp::Remove(y) if y == x) && abs.vis(add_id, r.id()))
}

/// All live `(element, add-timestamp)` pairs of an abstract OR-set
/// execution.
pub(crate) fn live_adds<T: Clone + PartialEq>(abs: &OrSetAbstract<T>) -> Vec<(T, Timestamp)> {
    abs.events()
        .filter_map(|e| match e.op() {
            OrSetOp::Add(x) if add_is_live(abs, e.id(), x) => Some((x.clone(), e.id())),
            _ => None,
        })
        .collect()
}

/// One specification for every OR-set variant: they share operation,
/// query and return-value types, hence one abstract state.
impl<T, M> Specification<M> for OrSetSpec
where
    T: Ord + Clone,
    M: Mrdt<Op = OrSetOp<T>, Value = (), Query = OrSetQuery<T>, Output = OrSetOutput<T>>,
{
    fn spec(_op: &OrSetOp<T>, _state: &OrSetAbstract<T>) {}

    fn query(q: &OrSetQuery<T>, state: &OrSetAbstract<T>) -> OrSetOutput<T> {
        match q {
            OrSetQuery::Lookup(x) => {
                OrSetOutput::Present(live_adds(state).iter().any(|(y, _)| y == x))
            }
            OrSetQuery::Read => {
                let elems: BTreeSet<T> = live_adds(state).into_iter().map(|(x, _)| x).collect();
                OrSetOutput::Elements(elems.into_iter().collect())
            }
        }
    }
}

/// Unoptimized OR-set state: `(element, timestamp)` pairs with duplicates.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::or_set::{OrSet, OrSetOp, OrSetOutput, OrSetQuery};
///
/// let ts = |t, r| Timestamp::new(t, ReplicaId::new(r));
/// let (lca, _) = OrSet::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
/// // Branch a removes 1; branch b re-adds it concurrently.
/// let (a, _) = lca.apply(&OrSetOp::Remove(1), ts(2, 1));
/// let (b, _) = lca.apply(&OrSetOp::Add(1), ts(3, 2));
/// let m = OrSet::merge(&lca, &a, &b);
/// assert_eq!(m.query(&OrSetQuery::Lookup(1)), OrSetOutput::Present(true)); // add wins
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct OrSet<T> {
    /// Append-ordered `(element, add-timestamp)` pairs; an element may occur
    /// several times with distinct timestamps.
    pairs: Vec<(T, Timestamp)>,
}

impl<T: Ord> OrSet<T> {
    /// Number of stored pairs **including duplicates** — the quantity Fig.
    /// 13/15 of the paper track.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of distinct elements.
    pub fn len(&self) -> usize {
        self.pairs
            .iter()
            .map(|(x, _)| x)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Whether the set is observably empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test (`O(n)` list scan).
    pub fn contains(&self, x: &T) -> bool {
        self.pairs.iter().any(|(y, _)| y == x)
    }

    /// The distinct elements in order.
    pub fn elements(&self) -> Vec<T>
    where
        T: Clone,
    {
        let set: BTreeSet<&T> = self.pairs.iter().map(|(x, _)| x).collect();
        set.into_iter().cloned().collect()
    }

    fn pair_set(&self) -> BTreeSet<(T, Timestamp)>
    where
        T: Clone,
    {
        self.pairs.iter().cloned().collect()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.pairs).finish()
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for OrSet<T> {
    type Op = OrSetOp<T>;
    type Value = ();
    type Query = OrSetQuery<T>;
    type Output = OrSetOutput<T>;

    fn initial() -> Self {
        OrSet { pairs: Vec::new() }
    }

    fn apply(&self, op: &OrSetOp<T>, t: Timestamp) -> (Self, ()) {
        match op {
            OrSetOp::Add(x) => {
                let mut next = self.clone();
                next.pairs.push((x.clone(), t));
                (next, ())
            }
            OrSetOp::Remove(x) => {
                let next = OrSet {
                    pairs: self.pairs.iter().filter(|(y, _)| y != x).cloned().collect(),
                };
                (next, ())
            }
        }
    }

    fn query(&self, q: &OrSetQuery<T>) -> OrSetOutput<T> {
        match q {
            OrSetQuery::Lookup(x) => OrSetOutput::Present(self.contains(x)),
            OrSetQuery::Read => OrSetOutput::Elements(self.elements()),
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        let l = lca.pair_set();
        let sa = a.pair_set();
        let sb = b.pair_set();
        // (l ∩ a ∩ b) ∪ (a − l) ∪ (b − l)
        let mut pairs: Vec<(T, Timestamp)> = l
            .iter()
            .filter(|p| sa.contains(p) && sb.contains(p))
            .cloned()
            .collect();
        pairs.extend(sa.difference(&l).cloned());
        pairs.extend(sb.difference(&l).cloned());
        pairs.sort_by_key(|(_, t)| *t);
        pairs.dedup();
        OrSet { pairs }
    }

    fn observably_equal(&self, other: &Self) -> bool {
        // The list order of pairs is internal; clients only observe the
        // pair (multi)set through reads and lookups.
        self.pair_set() == other.pair_set()
    }
}

/// Simulation relation for the unoptimized OR-set (paper, relation (3)):
/// `(x, t) ∈ σ` iff an `add(x)` event at `t` exists that no `remove(x)`
/// event observed.
#[derive(Debug)]
pub struct OrSetSim;

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> SimulationRelation<OrSet<T>>
    for OrSetSim
{
    fn holds(abs: &AbstractOf<OrSet<T>>, conc: &OrSet<T>) -> bool {
        let live: BTreeSet<(T, Timestamp)> = live_adds(abs).into_iter().collect();
        conc.pair_set() == live
    }

    fn explain_failure(abs: &AbstractOf<OrSet<T>>, conc: &OrSet<T>) -> Option<String> {
        let live: BTreeSet<(T, Timestamp)> = live_adds(abs).into_iter().collect();
        (conc.pair_set() != live).then(|| {
            format!(
                "concrete pairs {:?} differ from live adds {:?}",
                conc.pair_set(),
                live
            )
        })
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for OrSet<T> {
    type Spec = OrSetSpec;
    type Sim = OrSetSim;
}

impl<T: peepul_core::Wire> peepul_core::Wire for OrSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pairs.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(OrSet {
            pairs: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.pairs.max_tick()
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
    fn duplicate_adds_accumulate_pairs() {
        let s: OrSet<u32> = OrSet::initial();
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(1, 0));
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(2, 0));
        assert_eq!(s.pair_count(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_deletes_all_occurrences() {
        let s: OrSet<u32> = OrSet::initial();
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(1, 0));
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(2, 0));
        let (s, _) = s.apply(&OrSetOp::Remove(1), ts(3, 0));
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_add_remove_add_wins() {
        let (lca, _) = OrSet::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Remove(1), ts(2, 1));
        let (b, _) = lca.apply(&OrSetOp::Add(1), ts(3, 2));
        let m = OrSet::merge(&lca, &a, &b);
        assert!(m.contains(&1));
        // Only the fresh pair survives: the observed pair was removed.
        assert_eq!(m.pair_count(), 1);
    }

    #[test]
    fn remove_on_both_branches_removes() {
        let (lca, _) = OrSet::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Remove(1), ts(2, 1));
        let (b, _) = lca.apply(&OrSetOp::Remove(1), ts(3, 2));
        assert!(OrSet::merge(&lca, &a, &b).is_empty());
    }

    #[test]
    fn merge_keeps_untouched_common_pairs() {
        let (lca, _) = OrSet::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Add(2), ts(2, 1));
        let (b, _) = lca.apply(&OrSetOp::Add(3), ts(3, 2));
        let m = OrSet::merge(&lca, &a, &b);
        assert_eq!(m.elements(), vec![1, 2, 3]);
    }

    #[test]
    fn merge_is_commutative_modulo_observation() {
        let (lca, _) = OrSet::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Add(2), ts(2, 1));
        let (b, _) = lca.apply(&OrSetOp::Remove(1), ts(3, 2));
        let m1 = OrSet::merge(&lca, &a, &b);
        let m2 = OrSet::merge(&lca, &b, &a);
        assert!(m1.observably_equal(&m2));
    }

    #[test]
    fn query_spec_add_wins_scenario() {
        let i = AbstractOf::<OrSet<u32>>::new().perform(OrSetOp::Add(1), (), ts(1, 0));
        // remove(1) sees the first add; a concurrent add(1) does not see the
        // remove.
        let ia = i.perform(OrSetOp::Remove(1), (), ts(2, 1));
        let ib = i.perform(OrSetOp::Add(1), (), ts(3, 2));
        let im = ia.merged(&ib);
        assert_eq!(
            <OrSetSpec as Specification<OrSet<u32>>>::query(&OrSetQuery::Read, &im),
            OrSetOutput::Elements(vec![1])
        );
        assert_eq!(
            <OrSetSpec as Specification<OrSet<u32>>>::query(&OrSetQuery::Lookup(1), &im),
            OrSetOutput::Present(true)
        );
    }

    #[test]
    fn simulation_matches_live_pairs() {
        let i = AbstractOf::<OrSet<u32>>::new()
            .perform(OrSetOp::Add(1), (), ts(1, 0))
            .perform(OrSetOp::Remove(1), (), ts(2, 0))
            .perform(OrSetOp::Add(2), (), ts(3, 0));
        let expect = OrSet {
            pairs: vec![(2, ts(3, 0))],
        };
        assert!(OrSetSim::holds(&i, &expect));
        let stale = OrSet {
            pairs: vec![(1, ts(1, 0)), (2, ts(3, 0))],
        };
        assert!(!OrSetSim::holds(&i, &stale));
        assert!(OrSetSim::explain_failure(&i, &stale).is_some());
    }

    #[test]
    fn observational_equality_ignores_pair_order() {
        let x = OrSet {
            pairs: vec![(1, ts(1, 0)), (2, ts(2, 0))],
        };
        let y = OrSet {
            pairs: vec![(2, ts(2, 0)), (1, ts(1, 0))],
        };
        assert!(x.observably_equal(&y));
        assert_ne!(x, y);
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::{ReplicaId, Wire};

    #[test]
    fn or_set_wire_roundtrip_preserves_pairs_and_ticks() {
        let ts = |t, r| Timestamp::new(t, ReplicaId::new(r));
        let s = OrSet {
            pairs: vec![(5u32, ts(9, 1)), (5, ts(2, 0)), (7, ts(4, 2))],
        };
        let back = OrSet::from_wire(&s.to_wire()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.max_tick(), 9);
    }
}
