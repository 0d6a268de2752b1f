//! Generic MRDT map — the paper's `α-map` (§5.3) and grow-only map.
//!
//! [`MrdtMap<V>`] associates string keys with values that are themselves
//! MRDTs. Operations address one key and carry an operation of the nested
//! data type; the merge merges each key's value with the nested three-way
//! merge. Keys are never deleted (grow-only), so the paper's *G-map* is
//! this type as well (see [`crate::GMap`]).
//!
//! The interesting part is compositional certification (§5.4): the map's
//! specification and simulation relation *reuse* the nested type's, by
//! projecting the map's abstract execution onto the `set`-events of one key
//! ([`project`]). Certifying `MrdtMap<V>` therefore needs nothing beyond
//! `V`'s own certificate — plug in any [`Certified`] MRDT and the composite
//! is certified too, which is how the chat application of [`crate::chat`]
//! gets its proofs "for free".

use peepul_core::wire::encode_len;
use peepul_core::{
    diff_item_lists, AbstractOf, Certified, Delta, Mrdt, SimulationRelation, Specification,
    Timestamp, Wire,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Update operations of the α-map over a nested MRDT `V`.
///
/// `Set` fetches the value at the key (the nested initial state when the
/// key is absent), applies the nested update to it and stores the result,
/// returning the nested update's return value. Pure observations go through
/// [`MapQuery`] instead.
pub enum MapOp<V: Mrdt> {
    /// Apply a nested update at a key, storing the result.
    Set(String, V::Op),
}

impl<V: Mrdt> MapOp<V> {
    /// The addressed key.
    pub fn key(&self) -> &str {
        match self {
            MapOp::Set(k, _) => k,
        }
    }

    /// The nested operation.
    pub fn nested(&self) -> &V::Op {
        match self {
            MapOp::Set(_, o) => o,
        }
    }
}

// Manual impls: deriving would wrongly constrain `V` itself rather than
// `V::Op`.
impl<V: Mrdt> Clone for MapOp<V> {
    fn clone(&self) -> Self {
        match self {
            MapOp::Set(k, o) => MapOp::Set(k.clone(), o.clone()),
        }
    }
}

impl<V: Mrdt> fmt::Debug for MapOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapOp::Set(k, o) => write!(f, "set({k:?}, {o:?})"),
        }
    }
}

impl<V: Mrdt> PartialEq for MapOp<V>
where
    V::Op: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MapOp::Set(k1, o1), MapOp::Set(k2, o2)) => k1 == k2 && o1 == o2,
        }
    }
}

/// Queries of the α-map: a nested query routed to one key.
///
/// The addressed key's value — or the nested initial state when the key is
/// absent — answers the nested query; the map itself is never changed.
pub enum MapQuery<V: Mrdt> {
    /// Ask a nested query at a key.
    Get(String, V::Query),
}

impl<V: Mrdt> MapQuery<V> {
    /// The addressed key.
    pub fn key(&self) -> &str {
        match self {
            MapQuery::Get(k, _) => k,
        }
    }

    /// The nested query.
    pub fn nested(&self) -> &V::Query {
        match self {
            MapQuery::Get(_, q) => q,
        }
    }
}

impl<V: Mrdt> Clone for MapQuery<V> {
    fn clone(&self) -> Self {
        match self {
            MapQuery::Get(k, q) => MapQuery::Get(k.clone(), q.clone()),
        }
    }
}

impl<V: Mrdt> fmt::Debug for MapQuery<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapQuery::Get(k, q) => write!(f, "get({k:?}, {q:?})"),
        }
    }
}

/// The α-map state: a grow-only association of keys to nested MRDT states.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::counter::{Counter, CounterOp, CounterQuery};
/// use peepul_types::map::{MapOp, MapQuery, MrdtMap};
///
/// let ts = |t| Timestamp::new(t, ReplicaId::new(0));
/// let m: MrdtMap<Counter> = MrdtMap::initial();
/// let (m, _) = m.apply(&MapOp::Set("hits".into(), CounterOp::Increment), ts(1));
/// assert_eq!(m.query(&MapQuery::Get("hits".into(), CounterQuery::Value)), 1);
/// ```
pub struct MrdtMap<V> {
    entries: BTreeMap<String, V>,
}

impl<V: Mrdt> MrdtMap<V> {
    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has ever been set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` has been set.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// The nested state at `key`, if set.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.entries.get(key)
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// The paper's `δ(σ, k)`: the value bound at `key`, or the nested
    /// initial state when absent.
    pub fn value_or_initial(&self, key: &str) -> V {
        self.entries.get(key).cloned().unwrap_or_else(V::initial)
    }
}

impl<V: Clone> Clone for MrdtMap<V> {
    fn clone(&self) -> Self {
        MrdtMap {
            entries: self.entries.clone(),
        }
    }
}

impl<V: PartialEq> PartialEq for MrdtMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

/// The canonical codec: a length prefix followed by `(key, nested state)`
/// entries in ascending key order, each nested state in its own canonical
/// encoding — so the α-map composes codecs exactly as it composes
/// specifications (§5.4): any `Wire`-capable nested MRDT makes the map
/// storable, addressable and replicable with no extra code.
impl<V: Mrdt> peepul_core::Wire for MrdtMap<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(MrdtMap {
            entries: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.entries.max_tick()
    }
}

impl<V: fmt::Debug> fmt::Debug for MrdtMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries.iter()).finish()
    }
}

impl<V: Mrdt> Default for MrdtMap<V> {
    fn default() -> Self {
        MrdtMap {
            entries: BTreeMap::new(),
        }
    }
}

impl<V: Mrdt> Mrdt for MrdtMap<V> {
    type Op = MapOp<V>;
    type Value = V::Value;
    type Query = MapQuery<V>;
    type Output = V::Output;

    fn initial() -> Self {
        MrdtMap::default()
    }

    fn apply(&self, op: &MapOp<V>, t: Timestamp) -> (Self, V::Value) {
        let (nested_next, rval) = self.value_or_initial(op.key()).apply(op.nested(), t);
        match op {
            MapOp::Set(k, _) => {
                let mut next = self.clone();
                next.entries.insert(k.clone(), nested_next);
                (next, rval)
            }
        }
    }

    fn query(&self, q: &MapQuery<V>) -> V::Output {
        // `δ(σ, k)` answers: the bound value, or the nested initial state
        // for an absent key (so unknown keys report "empty", not an error).
        self.value_or_initial(q.key()).query(q.nested())
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        let keys: BTreeSet<&String> = lca
            .entries
            .keys()
            .chain(a.entries.keys())
            .chain(b.entries.keys())
            .collect();
        let entries = keys
            .into_iter()
            .map(|k| {
                let merged = V::merge(
                    &lca.value_or_initial(k),
                    &a.value_or_initial(k),
                    &b.value_or_initial(k),
                );
                (k.clone(), merged)
            })
            .collect();
        MrdtMap { entries }
    }

    fn observably_equal(&self, other: &Self) -> bool {
        // Same keys, and the nested values observationally equal per key.
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .all(|(k, v)| other.entries.get(k).is_some_and(|w| v.observably_equal(w)))
    }

    fn diff(&self, parent: &Self) -> Delta {
        // Structural diff over the encoded `(key, value)` entries: touching
        // one key re-encodes one entry, every untouched entry is copied
        // from the parent encoding wherever sort order moved it.
        diff_item_lists(&parent.entries, &self.entries, |(k, v), out| {
            k.encode(out);
            v.encode(out);
        })
    }

    fn op_delta(&self, op: &MapOp<V>, next: &Self) -> Delta {
        // `set(k, ·)` rewrites one entry: encode the parent once, noting
        // where `k`'s entry sits (or would be inserted), then copy around
        // it. The script is the one `diff` finds for the same pair.
        let MapOp::Set(k, _) = op;
        let Some(value) = next.entries.get(k) else {
            return next.diff(self);
        };
        let mut base = Vec::new();
        encode_len(self.entries.len(), &mut base);
        let (mut start, mut end) = (None, None);
        for (key, v) in &self.entries {
            if start.is_none() && key >= k {
                start = Some(base.len());
            }
            key.encode(&mut base);
            v.encode(&mut base);
            if key == k {
                end = Some(base.len());
            }
        }
        let start = start.unwrap_or(base.len());
        let end = end.unwrap_or(start);
        let mut entry = Vec::new();
        k.encode(&mut entry);
        value.encode(&mut entry);

        let mut delta = Delta::default();
        if end > start {
            delta.push_copy(0, start as u64);
        } else {
            let mut prefix = Vec::new();
            encode_len(next.entries.len(), &mut prefix);
            delta.push_insert(prefix);
            delta.push_copy(8, (start - 8) as u64);
        }
        if base[start..end] == entry[..] {
            delta.push_copy(start as u64, (end - start) as u64);
        } else {
            delta.push_insert(entry);
        }
        delta.push_copy(end as u64, (base.len() - end) as u64);
        delta
    }
}

/// The projection function of §5.4 (Fig. 9): reduces an α-map execution to
/// the nested-MRDT execution at one key, keeping exactly the `set(k, ·)`
/// events (with their nested operation, return value, timestamp, and the
/// restricted visibility relation).
pub fn project<V: Mrdt>(key: &str, abs: &AbstractOf<MrdtMap<V>>) -> AbstractOf<V> {
    abs.filter_map(|e| match e.op() {
        MapOp::Set(k, o) if k == key => Some((o.clone(), e.rval().clone())),
        MapOp::Set(_, _) => None,
    })
}

/// Specification of the α-map (§5.3): the answer at a key is the nested
/// specification evaluated on the projected execution,
/// `F_map(get/set(k, o), I) = F_V(o, project(k, I))`.
#[derive(Debug)]
pub struct MapSpec;

impl<V: Certified> Specification<MrdtMap<V>> for MapSpec {
    fn spec(op: &MapOp<V>, state: &AbstractOf<MrdtMap<V>>) -> V::Value {
        V::Spec::spec(op.nested(), &project(op.key(), state))
    }

    fn query(q: &MapQuery<V>, state: &AbstractOf<MrdtMap<V>>) -> V::Output {
        V::Spec::query(q.nested(), &project(q.key(), state))
    }
}

/// Simulation relation of the α-map (§5.3): a key is present iff some
/// `set` event addressed it, and the nested relation holds between each
/// key's projected execution and its stored value.
#[derive(Debug)]
pub struct MapSim;

impl<V: Certified> SimulationRelation<MrdtMap<V>> for MapSim {
    fn holds(abs: &AbstractOf<MrdtMap<V>>, conc: &MrdtMap<V>) -> bool {
        let set_keys: BTreeSet<String> = abs
            .events()
            .map(|e| match e.op() {
                MapOp::Set(k, _) => k.clone(),
            })
            .collect();
        if conc.entries.keys().cloned().collect::<BTreeSet<_>>() != set_keys {
            return false;
        }
        set_keys
            .iter()
            .all(|k| V::Sim::holds(&project(k, abs), &conc.value_or_initial(k)))
    }

    fn explain_failure(abs: &AbstractOf<MrdtMap<V>>, conc: &MrdtMap<V>) -> Option<String> {
        let set_keys: BTreeSet<String> = abs
            .events()
            .map(|e| match e.op() {
                MapOp::Set(k, _) => k.clone(),
            })
            .collect();
        let conc_keys: BTreeSet<String> = conc.entries.keys().cloned().collect();
        if conc_keys != set_keys {
            return Some(format!(
                "map domain {conc_keys:?} differs from set-event keys {set_keys:?}"
            ));
        }
        for k in &set_keys {
            if let Some(why) = V::Sim::explain_failure(&project(k, abs), &conc.value_or_initial(k))
            {
                return Some(format!("at key {k:?}: {why}"));
            }
        }
        None
    }
}

impl<V: Certified> Certified for MrdtMap<V>
where
    V::Op: PartialEq,
{
    type Spec = MapSpec;
    type Sim = MapSim;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{Counter, CounterOp, CounterQuery};
    use crate::g_set::{GSet, GSetOp, GSetOutput, GSetQuery};
    use peepul_core::ReplicaId;

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    fn set(k: &str, o: CounterOp) -> MapOp<Counter> {
        MapOp::Set(k.to_owned(), o)
    }

    fn get(k: &str) -> MapQuery<Counter> {
        MapQuery::Get(k.to_owned(), CounterQuery::Value)
    }

    #[test]
    fn set_creates_key_get_does_not() {
        let m: MrdtMap<Counter> = MrdtMap::initial();
        assert_eq!(m.query(&get("a")), 0);
        assert!(!m.contains_key("a"));
        let (m, _) = m.apply(&set("a", CounterOp::Increment), ts(2, 0));
        assert!(m.contains_key("a"));
    }

    #[test]
    fn nested_operations_compose() {
        let m: MrdtMap<Counter> = MrdtMap::initial();
        let (m, _) = m.apply(&set("a", CounterOp::Increment), ts(1, 0));
        let (m, _) = m.apply(&set("a", CounterOp::Increment), ts(2, 0));
        let (m, _) = m.apply(&set("b", CounterOp::Increment), ts(3, 0));
        assert_eq!(m.query(&get("a")), 2);
        assert_eq!(m.query(&get("b")), 1);
    }

    #[test]
    fn merge_merges_values_per_key() {
        let lca: MrdtMap<Counter> = MrdtMap::initial();
        let (lca, _) = lca.apply(&set("shared", CounterOp::Increment), ts(1, 0));
        let (a, _) = lca.apply(&set("shared", CounterOp::Increment), ts(2, 1));
        let (a, _) = a.apply(&set("only-a", CounterOp::Increment), ts(3, 1));
        let (b, _) = lca.apply(&set("shared", CounterOp::Increment), ts(4, 2));
        let m = MrdtMap::merge(&lca, &a, &b);
        assert_eq!(m.get("shared").map(|c| c.count()), Some(3));
        assert_eq!(m.get("only-a").map(|c| c.count()), Some(1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn merge_is_commutative_for_counter_values() {
        let lca: MrdtMap<Counter> = MrdtMap::initial();
        let (a, _) = lca.apply(&set("x", CounterOp::Increment), ts(1, 1));
        let (b, _) = lca.apply(&set("y", CounterOp::Increment), ts(2, 2));
        assert_eq!(MrdtMap::merge(&lca, &a, &b), MrdtMap::merge(&lca, &b, &a));
    }

    #[test]
    fn works_with_set_values_too() {
        let m: MrdtMap<GSet<u32>> = MrdtMap::initial();
        let (m, _) = m.apply(&MapOp::Set("s".into(), GSetOp::Add(1)), ts(1, 0));
        assert_eq!(
            m.query(&MapQuery::Get("s".into(), GSetQuery::Read)),
            GSetOutput::Elements(vec![1])
        );
    }

    #[test]
    fn projection_keeps_only_set_events_of_the_key() {
        let i = AbstractOf::<MrdtMap<Counter>>::new()
            .perform(set("a", CounterOp::Increment), (), ts(1, 0))
            .perform(set("b", CounterOp::Increment), (), ts(2, 0))
            .perform(set("a", CounterOp::Increment), (), ts(4, 0));
        let pa = project::<Counter>("a", &i);
        assert_eq!(pa.len(), 2);
        // Visibility survives projection.
        assert!(pa.vis(ts(1, 0), ts(4, 0)));
        let pb = project::<Counter>("b", &i);
        assert_eq!(pb.len(), 1);
    }

    #[test]
    fn query_spec_delegates_to_nested_spec() {
        let i = AbstractOf::<MrdtMap<Counter>>::new()
            .perform(set("a", CounterOp::Increment), (), ts(1, 0))
            .perform(set("a", CounterOp::Increment), (), ts(2, 0));
        assert_eq!(MapSpec::query(&get("a"), &i), 2);
        assert_eq!(MapSpec::query(&get("zzz"), &i), 0);
    }

    #[test]
    fn simulation_composes_nested_relations() {
        let i = AbstractOf::<MrdtMap<Counter>>::new().perform(
            set("a", CounterOp::Increment),
            (),
            ts(1, 0),
        );
        let (good, _) =
            MrdtMap::<Counter>::initial().apply(&set("a", CounterOp::Increment), ts(1, 0));
        assert!(MapSim::holds(&i, &good));
        // Wrong domain.
        assert!(!MapSim::holds(&i, &MrdtMap::initial()));
        // Right domain, wrong nested state.
        let mut bad = MrdtMap::<Counter>::initial();
        bad.entries.insert("a".into(), Counter::initial());
        assert!(!MapSim::holds(&i, &bad));
        assert!(MapSim::explain_failure(&i, &bad).is_some());
    }
}
