//! Space- **and** time-optimized observed-remove set MRDT (paper §7.1).
//!
//! Same conflict-resolution semantics as [`crate::or_set_space`] — one
//! timestamp-refreshed entry per element, add-wins — but stored in a
//! persistent height-balanced search tree ([`crate::avl::AvlMap`]) instead
//! of a list:
//!
//! * `add`, `remove`, `lookup` drop from `O(n)` to `O(log n)` — the source
//!   of the ≈5× speedup over OR-set-space in the paper's Fig. 14;
//! * `merge` walks the three trees' sorted entries in `O(n)` and rebuilds a
//!   perfectly balanced result.
//!
//! Because replicas may reach the same *contents* through different
//! insert/rebuild sequences, their tree **shapes** can differ while every
//! operation returns identical results. This is the paper's motivating
//! example for *convergence modulo observable behaviour* (Definition 3.5):
//! [`Mrdt::observably_equal`] compares contents, not shapes.

use crate::avl::AvlMap;
use crate::or_set::OrSetSpec;
use crate::or_set_space::{greatest_live_adds, merge_spaced};
use peepul_core::{AbstractOf, Certified, Mrdt, SimulationRelation, Timestamp};
use std::collections::BTreeMap;
use std::fmt;

pub use crate::or_set::{OrSetOp, OrSetOutput, OrSetQuery};

/// Tree-backed OR-set state.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::or_set_spacetime::{OrSetSpacetime, OrSetOp};
///
/// let ts = |t, r| Timestamp::new(t, ReplicaId::new(r));
/// let (lca, _) = OrSetSpacetime::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
/// let (a, _) = lca.apply(&OrSetOp::Add(1), ts(2, 1));    // refresh
/// let (b, _) = lca.apply(&OrSetOp::Remove(1), ts(3, 2)); // concurrent remove
/// let m = OrSetSpacetime::merge(&lca, &a, &b);
/// assert!(m.contains(&1)); // add wins
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct OrSetSpacetime<T> {
    tree: AvlMap<T, Timestamp>,
}

/// The canonical codec delegates to the backing tree's contents-only
/// encoding: observably equal sets — even with differently shaped trees —
/// produce identical bytes and one content address, and decoding yields
/// the canonical balanced shape. This is the codec face of *convergence
/// modulo observable behaviour* (Definition 3.5): the store deduplicates
/// converged-but-differently-shaped states into one stored object.
impl<T: peepul_core::Wire + Ord + Clone> peepul_core::Wire for OrSetSpacetime<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tree.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(OrSetSpacetime {
            tree: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.tree.max_tick()
    }
}

impl<T: Ord> OrSetSpacetime<T> {
    /// Number of stored entries (equals the number of distinct elements).
    pub fn pair_count(&self) -> usize {
        self.tree.len()
    }

    /// Number of distinct elements.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Membership test in `O(log n)` — this is where the variant earns its
    /// "time" suffix.
    pub fn contains(&self, x: &T) -> bool {
        self.tree.contains_key(x)
    }

    /// The timestamp currently recorded for `x`, if present.
    pub fn time_of(&self, x: &T) -> Option<Timestamp> {
        self.tree.get(x).copied()
    }

    /// Height of the backing tree (diagnostics / space accounting).
    pub fn tree_height(&self) -> u32 {
        self.tree.tree_height()
    }

    /// The distinct elements in ascending order.
    pub fn elements(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.tree.iter().map(|(k, _)| k.clone()).collect()
    }

    fn as_map(&self) -> BTreeMap<T, Timestamp>
    where
        T: Clone,
    {
        self.tree.iter().map(|(k, t)| (k.clone(), *t)).collect()
    }
}

impl<T: fmt::Debug + Ord> fmt::Debug for OrSetSpacetime<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OrSetSpacetime{:?}", self.tree)
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for OrSetSpacetime<T> {
    type Op = OrSetOp<T>;
    type Value = ();
    type Query = OrSetQuery<T>;
    type Output = OrSetOutput<T>;

    fn initial() -> Self {
        OrSetSpacetime {
            tree: AvlMap::new(),
        }
    }

    fn apply(&self, op: &OrSetOp<T>, t: Timestamp) -> (Self, ()) {
        match op {
            OrSetOp::Add(x) => (
                // Insert-or-refresh: one O(log n) path copy either way.
                OrSetSpacetime {
                    tree: self.tree.insert(x.clone(), t),
                },
                (),
            ),
            OrSetOp::Remove(x) => (
                OrSetSpacetime {
                    tree: self.tree.remove(x),
                },
                (),
            ),
        }
    }

    fn query(&self, q: &OrSetQuery<T>) -> OrSetOutput<T> {
        match q {
            OrSetQuery::Lookup(x) => OrSetOutput::Present(self.contains(x)),
            OrSetQuery::Read => OrSetOutput::Elements(self.elements()),
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        // Same five-case semantics as OR-set-space (Fig. 2), computed in
        // one walk over the three trees' in-order iterators, then rebuilt
        // as a perfectly balanced tree: O(n) total.
        OrSetSpacetime {
            tree: AvlMap::from_sorted(merge_spaced(lca.tree.iter(), a.tree.iter(), b.tree.iter())),
        }
    }

    fn observably_equal(&self, other: &Self) -> bool {
        // Contents only: replicas may converge to different tree shapes
        // (Definition 3.5).
        self.as_map() == other.as_map()
    }
}

/// Simulation relation for the tree-backed OR-set — the same relation as
/// the space-efficient list variant (each entry is the greatest live add of
/// its element), stated over the tree's contents.
#[derive(Debug)]
pub struct OrSetSpacetimeSim;

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug>
    SimulationRelation<OrSetSpacetime<T>> for OrSetSpacetimeSim
{
    fn holds(abs: &AbstractOf<OrSetSpacetime<T>>, conc: &OrSetSpacetime<T>) -> bool {
        // The backing tree must also be a valid AVL tree: representation
        // invariants are part of the refinement.
        if conc.tree.check_invariants().is_err() {
            return false;
        }
        conc.as_map() == greatest_live_adds(abs)
    }

    fn explain_failure(
        abs: &AbstractOf<OrSetSpacetime<T>>,
        conc: &OrSetSpacetime<T>,
    ) -> Option<String> {
        if let Err(e) = conc.tree.check_invariants() {
            return Some(format!("backing tree invariant broken: {e}"));
        }
        if <Self as SimulationRelation<OrSetSpacetime<T>>>::holds(abs, conc) {
            None
        } else {
            Some(format!(
                "tree contents {:?} are not the greatest live adds per element",
                conc.as_map()
            ))
        }
    }
}

impl<T: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for OrSetSpacetime<T> {
    type Spec = OrSetSpec;
    type Sim = OrSetSpacetimeSim;
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    #[test]
    fn add_remove_lookup_roundtrip() {
        let s: OrSetSpacetime<u32> = OrSetSpacetime::initial();
        let (s, _) = s.apply(&OrSetOp::Add(5), ts(1, 0));
        assert!(s.contains(&5));
        let (s, _) = s.apply(&OrSetOp::Remove(5), ts(2, 0));
        assert!(!s.contains(&5));
    }

    #[test]
    fn duplicate_add_refreshes_timestamp() {
        let s: OrSetSpacetime<u32> = OrSetSpacetime::initial();
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(1, 0));
        let (s, _) = s.apply(&OrSetOp::Add(1), ts(2, 0));
        assert_eq!(s.pair_count(), 1);
        assert_eq!(s.time_of(&1), Some(ts(2, 0)));
    }

    #[test]
    fn semantics_agree_with_list_variant() {
        use crate::or_set_space::OrSetSpace;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Drive both variants through the same random divergence + merge
        // and compare observable contents.
        let mut rng = StdRng::seed_from_u64(42);
        let mut tick = 0u64;
        let mut next = |r: u32| {
            tick += 1;
            ts(tick, r)
        };
        let mut lca_list = OrSetSpace::<u32>::initial();
        let mut lca_tree = OrSetSpacetime::<u32>::initial();
        for _ in 0..50 {
            let x = rng.gen_range(0..20);
            let t = next(0);
            lca_list = lca_list.apply(&OrSetOp::Add(x), t).0;
            lca_tree = lca_tree.apply(&OrSetOp::Add(x), t).0;
        }
        let (mut a_list, mut a_tree) = (lca_list.clone(), lca_tree.clone());
        let (mut b_list, mut b_tree) = (lca_list.clone(), lca_tree.clone());
        for _ in 0..100 {
            let x = rng.gen_range(0..20);
            let add = rng.gen_bool(0.5);
            let op = if add {
                OrSetOp::Add(x)
            } else {
                OrSetOp::Remove(x)
            };
            if rng.gen_bool(0.5) {
                let t = next(1);
                a_list = a_list.apply(&op, t).0;
                a_tree = a_tree.apply(&op, t).0;
            } else {
                let t = next(2);
                b_list = b_list.apply(&op, t).0;
                b_tree = b_tree.apply(&op, t).0;
            }
        }
        let m_list = OrSetSpace::merge(&lca_list, &a_list, &b_list);
        let m_tree = OrSetSpacetime::merge(&lca_tree, &a_tree, &b_tree);
        assert_eq!(m_list.elements(), m_tree.elements());
        for x in m_tree.elements() {
            assert_eq!(m_list.time_of(&x), m_tree.time_of(&x));
        }
    }

    #[test]
    fn merge_walk_equals_the_map_merge() {
        use crate::or_set_space::tests::{merge_spaced_oracle, random_triple};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        for case in 0..400 {
            let (l, a, b) = random_triple::<OrSetSpacetime<u32>>(&mut rng, case);
            let m = OrSetSpacetime::merge(&l, &a, &b);
            m.tree.check_invariants().unwrap();
            assert_eq!(
                m.tree.to_sorted_vec(),
                merge_spaced_oracle(&l.as_map(), &a.as_map(), &b.as_map()),
                "lca={l:?} a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn merge_produces_balanced_tree() {
        let mut lca = OrSetSpacetime::<u32>::initial();
        let mut tick = 0;
        for i in 0..256 {
            tick += 1;
            lca = lca.apply(&OrSetOp::Add(i), ts(tick, 0)).0;
        }
        let mut a = lca.clone();
        for i in 256..512 {
            tick += 1;
            a = a.apply(&OrSetOp::Add(i), ts(tick, 1)).0;
        }
        let m = OrSetSpacetime::merge(&lca, &a, &lca);
        assert_eq!(m.len(), 512);
        assert!(m.tree_height() <= 10, "height {}", m.tree_height());
        m.tree.check_invariants().unwrap();
    }

    #[test]
    fn converges_modulo_observable_behaviour_not_structurally() {
        // Build the same contents by insertion vs. by merge-rebuild; the
        // contents agree even if the shapes do not.
        let mut by_insert = OrSetSpacetime::<u32>::initial();
        for i in 0..64 {
            by_insert = by_insert.apply(&OrSetOp::Add(i), ts(i as u64 + 1, 0)).0;
        }
        let by_merge = OrSetSpacetime::merge(
            &OrSetSpacetime::initial(),
            &by_insert,
            &OrSetSpacetime::initial(),
        );
        assert!(by_insert.observably_equal(&by_merge));
        // Both are valid AVL trees regardless of shape.
        by_insert.tree.check_invariants().unwrap();
        by_merge.tree.check_invariants().unwrap();
    }

    #[test]
    fn wire_roundtrip_is_observational_and_canonical() {
        use peepul_core::Wire;
        let mut s = OrSetSpacetime::<u32>::initial();
        for i in 0..32u64 {
            s = s.apply(&OrSetOp::Add((i % 7) as u32), ts(i + 1, 0)).0;
        }
        let bytes = s.to_wire();
        let decoded = OrSetSpacetime::<u32>::from_wire(&bytes).unwrap();
        assert!(decoded.observably_equal(&s));
        assert_eq!(decoded.to_wire(), bytes, "canonical re-encode");
        decoded.tree.check_invariants().unwrap();
        // The receive-rule hook reports the largest embedded tick.
        assert_eq!(s.max_tick(), 32);
    }

    #[test]
    fn simulation_rejects_unbalanced_or_stale_tree() {
        let i = AbstractOf::<OrSetSpacetime<u32>>::new().perform(OrSetOp::Add(1), (), ts(1, 0));
        let (good, _) = OrSetSpacetime::<u32>::initial().apply(&OrSetOp::Add(1), ts(1, 0));
        assert!(OrSetSpacetimeSim::holds(&i, &good));
        assert!(!OrSetSpacetimeSim::holds(&i, &OrSetSpacetime::initial()));
    }
}
