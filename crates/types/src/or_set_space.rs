//! Space-efficient observed-remove set MRDT (paper §2.1.2, Fig. 2).
//!
//! Keeps **at most one** `(element, timestamp)` pair per element. Adding an
//! element that is already present does not insert a duplicate — it
//! *refreshes* the stored timestamp to the fresh one, which records the
//! effect of the duplicate add: a concurrent `remove`, which only observed
//! the old timestamp, can no longer delete the entry after merge.
//!
//! The merge (Fig. 2) combines five cases: pairs untouched everywhere;
//! pairs added on exactly one branch; and pairs added on both branches, of
//! which the one with the larger timestamp survives.

use crate::or_set::{live_adds, OrSetAbstract, OrSetSpec};
use peepul_core::wire::encode_len;
use peepul_core::{
    diff_item_lists, AbstractOf, Certified, Delta, Mrdt, SimulationRelation, Timestamp, Wire,
};
use std::collections::BTreeMap;
use std::fmt;
use std::iter::Peekable;

/// Space-efficient OR-set state: a duplicate-free association list of
/// `(element, latest-add-timestamp)` pairs.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::or_set_space::{OrSetSpace, OrSetOp};
///
/// let ts = |t, r| Timestamp::new(t, ReplicaId::new(r));
/// let (lca, _) = OrSetSpace::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
/// // Branch a re-adds 1 (timestamp refresh); branch b removes it.
/// let (a, _) = lca.apply(&OrSetOp::Add(1), ts(2, 1));
/// let (b, _) = lca.apply(&OrSetOp::Remove(1), ts(3, 2));
/// let m = OrSetSpace::merge(&lca, &a, &b);
/// assert!(m.contains(&1)); // the refreshed add survives the remove
/// assert_eq!(m.pair_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct OrSetSpace<T> {
    /// One `(element, timestamp)` pair per element, in insertion order —
    /// the list representation the paper measures in Fig. 14.
    pairs: Vec<(T, Timestamp)>,
}

pub use crate::or_set::{OrSetOp, OrSetOutput, OrSetQuery};

impl<T: Ord> OrSetSpace<T> {
    /// Number of stored pairs (equals the number of distinct elements).
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of distinct elements.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test (`O(n)` list scan).
    pub fn contains(&self, x: &T) -> bool {
        self.pairs.iter().any(|(y, _)| y == x)
    }

    /// The timestamp currently recorded for `x`, if present.
    pub fn time_of(&self, x: &T) -> Option<Timestamp> {
        self.pairs.iter().find(|(y, _)| y == x).map(|(_, t)| *t)
    }

    /// The distinct elements in order.
    pub fn elements(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut v: Vec<T> = self.pairs.iter().map(|(x, _)| x.clone()).collect();
        v.sort();
        v
    }

    fn as_map(&self) -> BTreeMap<T, Timestamp>
    where
        T: Clone,
    {
        self.pairs.iter().cloned().collect()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrSetSpace<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.pairs).finish()
    }
}

/// The Fig. 2 merge as one forward walk over three element-sorted,
/// duplicate-free `(element, timestamp)` sequences; shared with the
/// tree-backed [`crate::or_set_spacetime::OrSetSpacetime`], which feeds it
/// its trees' in-order iterators. The result is in element order.
pub(crate) fn merge_spaced<'a, T: Ord + Clone + 'a>(
    l: impl Iterator<Item = (&'a T, &'a Timestamp)>,
    a: impl Iterator<Item = (&'a T, &'a Timestamp)>,
    b: impl Iterator<Item = (&'a T, &'a Timestamp)>,
) -> Vec<(T, Timestamp)> {
    let (mut l, mut a, mut b) = (l.peekable(), a.peekable(), b.peekable());
    // Every merged pair comes from `a` or `b`, so this never regrows.
    let mut out = Vec::with_capacity(a.size_hint().0 + b.size_hint().0);
    loop {
        let heads = [l.peek(), a.peek(), b.peek()];
        let Some(x) = heads.into_iter().flatten().map(|&(x, _)| x).min() else {
            return out;
        };
        let (tl, ta, tb) = (time_at(&mut l, x), time_at(&mut a, x), time_at(&mut b, x));
        if let Some(t) = merged_time(tl, ta, tb) {
            out.push((x.clone(), t));
        }
    }
}

/// Takes the head of a sorted sequence if it is `x`'s pair.
fn time_at<'a, T: Ord + 'a>(
    side: &mut Peekable<impl Iterator<Item = (&'a T, &'a Timestamp)>>,
    x: &T,
) -> Option<Timestamp> {
    side.next_if(|&(y, _)| y == x).map(|(_, t)| *t)
}

/// Fig. 2 for one element, given its timestamp in the LCA and on each
/// branch. A pair the LCA does not hold is fresh (lines 9–10); of two
/// fresh pairs the larger timestamp wins (lines 11–14); with no fresh
/// pair the LCA's survives only where both branches kept it (line 8).
fn merged_time(
    l: Option<Timestamp>,
    a: Option<Timestamp>,
    b: Option<Timestamp>,
) -> Option<Timestamp> {
    let fresh = |side: Option<Timestamp>| side.filter(|_| side != l);
    match (fresh(a), fresh(b)) {
        (Some(ta), Some(tb)) => Some(ta.max(tb)),
        (Some(t), None) | (None, Some(t)) => Some(t),
        (None, None) => l.filter(|_| a == l && b == l),
    }
}

/// A state's pairs in element order: the list itself when it is already
/// sorted (as every merge leaves it), else a sorted view of references —
/// in practice a sorted prefix plus the pairs adds appended since, which
/// the run-detecting stable sort merges in linear time.
fn sorted_pairs<T: Ord>(pairs: &[(T, Timestamp)]) -> impl Iterator<Item = (&T, &Timestamp)> {
    let (view, in_order) = if pairs.is_sorted_by(|p, q| p.0 < q.0) {
        (Vec::new(), pairs)
    } else {
        let mut view: Vec<_> = pairs.iter().collect();
        view.sort_by(|p, q| p.0.cmp(&q.0));
        (view, &[][..])
    };
    view.into_iter().chain(in_order).map(|(x, t)| (x, t))
}

/// The abstract state both space-efficient variants simulate: each element
/// with a live add, mapped to the greatest timestamp among its live adds.
pub(crate) fn greatest_live_adds<T: Ord + Clone>(abs: &OrSetAbstract<T>) -> BTreeMap<T, Timestamp> {
    let mut greatest = BTreeMap::new();
    for (x, t) in live_adds(abs) {
        let slot = greatest.entry(x).or_insert(t);
        *slot = t.max(*slot);
    }
    greatest
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for OrSetSpace<T> {
    type Op = OrSetOp<T>;
    type Value = ();
    type Query = OrSetQuery<T>;
    type Output = OrSetOutput<T>;

    fn initial() -> Self {
        OrSetSpace { pairs: Vec::new() }
    }

    fn apply(&self, op: &OrSetOp<T>, t: Timestamp) -> (Self, ()) {
        match op {
            OrSetOp::Add(x) => {
                let mut next = self.clone();
                match next.pairs.iter_mut().find(|(y, _)| y == x) {
                    // Already present: refresh the timestamp in place.
                    Some(pair) => pair.1 = t,
                    None => next.pairs.push((x.clone(), t)),
                }
                (next, ())
            }
            OrSetOp::Remove(x) => {
                let next = OrSetSpace {
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
        let mut pairs = merge_spaced(
            sorted_pairs(&lca.pairs),
            sorted_pairs(&a.pairs),
            sorted_pairs(&b.pairs),
        );
        // The merged state is kept (branch heads, the state cache): hold
        // no spare capacity.
        pairs.shrink_to_fit();
        OrSetSpace { pairs }
    }

    fn observably_equal(&self, other: &Self) -> bool {
        self.as_map() == other.as_map()
    }

    fn diff(&self, parent: &Self) -> Delta {
        // Structural diff over the encoded `(element, timestamp)` pairs: a
        // remove in the middle of the insertion-ordered vector copies every
        // surviving pair; only refreshed or new pairs are inserted.
        diff_item_lists(&parent.pairs, &self.pairs, Wire::encode)
    }

    fn op_delta(&self, op: &OrSetOp<T>, next: &Self) -> Delta {
        // An add refreshes `x`'s pair in place or appends one; a remove
        // drops it. Encode the parent once, noting where `x`'s pair sits,
        // then copy around it: the script `diff` finds for the same pair.
        let (OrSetOp::Add(x) | OrSetOp::Remove(x)) = op;
        let mut base = Vec::new();
        encode_len(self.pairs.len(), &mut base);
        let mut at = None;
        for pair in &self.pairs {
            let start = base.len();
            pair.encode(&mut base);
            if at.is_none() && pair.0 == *x {
                at = Some((start, base.len()));
            }
        }
        // An absent element's add is appended after the last pair.
        let (start, end) = at.unwrap_or((base.len(), base.len()));

        let mut delta = Delta::default();
        if next.pairs.len() == self.pairs.len() {
            delta.push_copy(0, 8);
        } else {
            let mut prefix = Vec::new();
            encode_len(next.pairs.len(), &mut prefix);
            delta.push_insert(prefix);
        }
        delta.push_copy(8, (start - 8) as u64);
        if let Some(pair) = next.pairs.iter().find(|(y, _)| y == x) {
            let entry = pair.to_wire();
            if base[start..end] == entry[..] {
                delta.push_copy(start as u64, entry.len() as u64);
            } else {
                delta.push_insert(entry);
            }
        }
        delta.push_copy(end as u64, (base.len() - end) as u64);
        delta
    }
}

/// Simulation relation for the space-efficient OR-set (paper, relation
/// (4)). Three conjuncts:
///
/// 1. every concrete pair `(x, t)` corresponds to a live `add(x)` event at
///    `t`,
/// 2. that `t` is the **greatest** timestamp among live adds of `x`, and
/// 3. every element with a live add appears in the concrete state.
///
/// Duplicate-freedom follows from (2) but is asserted explicitly as an
/// implementation invariant.
#[derive(Debug)]
pub struct OrSetSpaceSim;

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> SimulationRelation<OrSetSpace<T>>
    for OrSetSpaceSim
{
    fn holds(abs: &AbstractOf<OrSetSpace<T>>, conc: &OrSetSpace<T>) -> bool {
        // No duplicate elements in the concrete list.
        if conc.pairs.len() != conc.as_map().len() {
            return false;
        }
        conc.as_map() == greatest_live_adds(abs)
    }

    fn explain_failure(abs: &AbstractOf<OrSetSpace<T>>, conc: &OrSetSpace<T>) -> Option<String> {
        if <Self as SimulationRelation<OrSetSpace<T>>>::holds(abs, conc) {
            None
        } else {
            Some(format!(
                "concrete pairs {:?} are not the greatest live adds per element",
                conc.pairs
            ))
        }
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for OrSetSpace<T> {
    type Spec = OrSetSpec;
    type Sim = OrSetSpaceSim;
}

impl<T: peepul_core::Wire> peepul_core::Wire for OrSetSpace<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pairs.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(OrSetSpace {
            pairs: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.pairs.max_tick()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use peepul_core::{ReplicaId, Specification};

    /// The Fig. 2 merge as it was first written, on element→timestamp maps:
    /// the oracle the walk in [`merge_spaced`] must equal.
    pub(crate) fn merge_spaced_oracle<T: Ord + Clone>(
        l: &BTreeMap<T, Timestamp>,
        a: &BTreeMap<T, Timestamp>,
        b: &BTreeMap<T, Timestamp>,
    ) -> Vec<(T, Timestamp)> {
        let mut out = BTreeMap::new();
        for (x, t) in l {
            if a.get(x) == Some(t) && b.get(x) == Some(t) {
                out.insert(x.clone(), *t);
            }
        }
        let fresh = |side: &BTreeMap<T, Timestamp>| {
            side.iter()
                .filter(|(x, t)| l.get(*x) != Some(*t))
                .map(|(x, t)| (x.clone(), *t))
                .collect::<BTreeMap<T, Timestamp>>()
        };
        let fa = fresh(a);
        let fb = fresh(b);
        for (x, ta) in &fa {
            match fb.get(x) {
                None => {
                    out.insert(x.clone(), *ta);
                }
                Some(tb) => {
                    out.insert(x.clone(), *ta.max(tb));
                }
            }
        }
        for (x, tb) in &fb {
            if !fa.contains_key(x) {
                out.insert(x.clone(), *tb);
            }
        }
        out.into_iter().collect()
    }

    /// A seeded `(lca, a, b)` triple of either space-efficient OR-set: an LCA
    /// built by adds in insertion order (some of them refreshes), sometimes
    /// empty and sometimes sorted by a merge; two branches of random adds and
    /// removes on top of it; sometimes one element added concurrently on both
    /// branches, and sometimes one side replaced by the empty set.
    pub(crate) fn random_triple<M: Mrdt<Op = OrSetOp<u32>>>(
        rng: &mut rand::rngs::StdRng,
        case: usize,
    ) -> (M, M, M) {
        use rand::Rng;
        let mut tick = 0;
        let mut apply = |s: &M, op: OrSetOp<u32>, r: u32| {
            tick += 1;
            s.apply(&op, Timestamp::new(tick, ReplicaId::new(r))).0
        };
        let mut lca = M::initial();
        if !case.is_multiple_of(4) {
            for _ in 0..rng.gen_range(0..30) {
                lca = apply(&lca, OrSetOp::Add(rng.gen_range(0..40)), 0);
            }
        }
        if case % 3 == 1 {
            lca = M::merge(&M::initial(), &lca, &M::initial());
        }
        let mut sides = [lca.clone(), lca.clone()];
        for (r, side) in (1..).zip(sides.iter_mut()) {
            for _ in 0..rng.gen_range(0..20) {
                let x = rng.gen_range(0..40);
                let op = if rng.gen_bool(0.6) {
                    OrSetOp::Add(x)
                } else {
                    OrSetOp::Remove(x)
                };
                *side = apply(side, op, r);
            }
        }
        if case.is_multiple_of(3) {
            let x = rng.gen_range(0..40);
            for (r, side) in (1..).zip(sides.iter_mut()) {
                *side = apply(side, OrSetOp::Add(x), r);
            }
        }
        if case.is_multiple_of(7) {
            sides[case % 2] = M::initial();
        }
        let [a, b] = sides;
        (lca, a, b)
    }

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    #[test]
    fn duplicate_add_refreshes_instead_of_duplicating() {
        let s: OrSetSpace<u32> = OrSetSpace::initial();
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(1, 0));
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(2, 0));
        assert_eq!(s.pair_count(), 1);
        assert_eq!(s.time_of(&1), Some(ts(2, 0)));
    }

    #[test]
    fn refresh_defeats_concurrent_remove() {
        let (lca, _) = OrSetSpace::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Add(1), ts(2, 1)); // refresh
        let (b, _) = lca.apply(&OrSetOp::Remove(1), ts(3, 2));
        let m = OrSetSpace::merge(&lca, &a, &b);
        assert_eq!(m.time_of(&1), Some(ts(2, 1)));
    }

    #[test]
    fn plain_remove_still_removes() {
        let (lca, _) = OrSetSpace::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Remove(1), ts(2, 1));
        let m = OrSetSpace::merge(&lca, &a, &lca);
        assert!(m.is_empty());
    }

    #[test]
    fn concurrent_adds_keep_larger_timestamp() {
        let lca = OrSetSpace::<u32>::initial();
        let (a, _) = lca.apply(&OrSetOp::Add(1), ts(1, 1));
        let (b, _) = lca.apply(&OrSetOp::Add(1), ts(2, 2));
        let m = OrSetSpace::merge(&lca, &a, &b);
        assert_eq!(m.pair_count(), 1);
        assert_eq!(m.time_of(&1), Some(ts(2, 2)));
        assert_eq!(
            OrSetSpace::merge(&lca, &b, &a).time_of(&1),
            Some(ts(2, 2)),
            "merge must be commutative"
        );
    }

    #[test]
    fn merge_never_produces_duplicates() {
        let (lca, _) = OrSetSpace::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Add(1), ts(2, 1));
        let (b, _) = lca.apply(&OrSetOp::Add(1), ts(3, 2));
        let m = OrSetSpace::merge(&lca, &a, &b);
        assert_eq!(m.pair_count(), 1);
        assert_eq!(m.time_of(&1), Some(ts(3, 2)));
    }

    #[test]
    fn untouched_elements_survive_merge() {
        let (lca, _) = OrSetSpace::<u32>::initial().apply(&OrSetOp::Add(9), ts(1, 0));
        let (a, _) = lca.apply(&OrSetOp::Add(2), ts(2, 1));
        let (b, _) = lca.apply(&OrSetOp::Add(3), ts(3, 2));
        let m = OrSetSpace::merge(&lca, &a, &b);
        assert_eq!(m.elements(), vec![2, 3, 9]);
        assert_eq!(m.time_of(&9), Some(ts(1, 0)));
    }

    #[test]
    fn merge_walk_equals_the_map_merge() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        for case in 0..400 {
            let (l, a, b) = random_triple::<OrSetSpace<u32>>(&mut rng, case);
            assert_eq!(
                OrSetSpace::merge(&l, &a, &b).pairs,
                merge_spaced_oracle(&l.as_map(), &a.as_map(), &b.as_map()),
                "lca={l:?} a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn op_delta_is_the_diff_script() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let mut s = OrSetSpace::<u32>::initial();
        for tick in 1..2000 {
            let x = rng.gen_range(0..30);
            let (op, t) = match rng.gen_range(0..5) {
                0..=2 => (OrSetOp::Add(x), ts(tick, rng.gen_range(0..3))),
                // Re-adding an element at its stored timestamp leaves the
                // state as it was.
                3 => (OrSetOp::Add(x), s.time_of(&x).unwrap_or(ts(tick, 0))),
                _ => (OrSetOp::Remove(x), ts(tick, 0)),
            };
            let (next, ()) = s.apply(&op, t);
            assert_eq!(s.op_delta(&op, &next), next.diff(&s), "{op:?} on {s:?}");
            s = next;
        }
    }

    #[test]
    fn simulation_requires_greatest_live_timestamp() {
        // Two concurrent adds of 1; the concrete state must keep the later.
        let i0 = AbstractOf::<OrSetSpace<u32>>::new();
        let ia = i0.perform(OrSetOp::Add(1), (), ts(1, 1));
        let ib = i0.perform(OrSetOp::Add(1), (), ts(2, 2));
        let im = ia.merged(&ib);
        let good = OrSetSpace {
            pairs: vec![(1, ts(2, 2))],
        };
        let stale = OrSetSpace {
            pairs: vec![(1, ts(1, 1))],
        };
        assert!(OrSetSpaceSim::holds(&im, &good));
        assert!(!OrSetSpaceSim::holds(&im, &stale));
    }

    #[test]
    fn simulation_rejects_duplicates() {
        let i = AbstractOf::<OrSetSpace<u32>>::new()
            .perform(OrSetOp::Add(1), (), ts(1, 0))
            .perform(OrSetOp::Add(1), (), ts(2, 0));
        let dup = OrSetSpace {
            pairs: vec![(1, ts(1, 0)), (1, ts(2, 0))],
        };
        assert!(!OrSetSpaceSim::holds(&i, &dup));
    }

    #[test]
    fn query_spec_matches_implementation_on_read() {
        let i = AbstractOf::<OrSetSpace<u32>>::new()
            .perform(OrSetOp::Add(1), (), ts(1, 0))
            .perform(OrSetOp::Remove(1), (), ts(2, 0))
            .perform(OrSetOp::Add(2), (), ts(3, 0));
        assert_eq!(
            <OrSetSpec as Specification<OrSetSpace<u32>>>::query(&OrSetQuery::Read, &i),
            OrSetOutput::Elements(vec![2])
        );
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::{ReplicaId, Wire};

    #[test]
    fn or_set_space_wire_roundtrip() {
        let ts = |t, r| Timestamp::new(t, ReplicaId::new(r));
        let s = OrSetSpace {
            pairs: vec![(1u32, ts(3, 1)), (2, ts(8, 0))],
        };
        assert_eq!(OrSetSpace::from_wire(&s.to_wire()), Some(s.clone()));
        assert_eq!(s.max_tick(), 8);
    }
}
