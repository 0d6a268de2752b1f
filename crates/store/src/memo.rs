//! Merge memoization: caching three-way merges by content address.
//!
//! An MRDT merge is a pure function of `(σ_lca, σ_a, σ_b)`, so its result
//! is determined by the three states' content addresses. Recursive
//! virtual merges on criss-cross DAGs (Git's `merge-recursive` strategy,
//! which [`BranchStore`](crate::BranchStore) implements) repeatedly
//! re-derive the *same* base triples — every further merge between two
//! criss-crossing branches recomputes the virtual ancestors of the round
//! before. Caching by `(lca, left, right)` [`ObjectId`] triple turns
//! those recomputations — each O(state size) — into map lookups, and the
//! returned `Arc` shares the merged state's allocation with every commit
//! that reuses it.
//!
//! The cache is **interior-mutable** (a mutex around the map): memoized
//! merges are a pure-function cache, so warming or probing it is logically
//! a read. This is what lets `BranchStore::lca_state` and the commit-free
//! query path run against `&BranchStore` while still sharing cache hits
//! with real merges.
//!
//! The cache is *not* symmetric in `(left, right)`: merges are only
//! guaranteed commutative modulo observational equivalence (Definition
//! 3.4), not byte-identical, and the cache must never change which exact
//! state a schedule produces (the backend-equivalence property test
//! replays schedules with the cache on and off and demands identical
//! content addresses).

use crate::object::ObjectId;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Default bound on cached triples. Workloads that never repeat a triple
/// (e.g. a long two-branch gossip chain) would otherwise grow the cache —
/// and the `Arc`-pinned merged states behind it — linearly with history.
pub const DEFAULT_MEMO_CAPACITY: usize = 1024;

/// Hit/miss counters of a [`MergeMemo`], exposed for tests and the
/// benchmark (`store.memo.hit_ratio` on the criss-cross workload).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeCacheStats {
    /// Merges answered from the cache.
    pub hits: u64,
    /// Merges that had to run the data type's `merge`.
    pub misses: u64,
}

impl MergeCacheStats {
    /// `hits / (hits + misses)`, or 0 when no merges ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type MemoKey = (ObjectId, ObjectId, ObjectId);

/// One cached merge result. The result's own content address is cached
/// lazily alongside it (`None` until some caller needed it): the
/// recursive virtual-LCA path keys further merges by it, and recomputing
/// a SHA-256 over the whole state on every cache *hit* would claw back
/// much of what the cache saves.
struct MemoEntry<M> {
    state: Arc<M>,
    id: Option<ObjectId>,
}

struct MemoInner<M> {
    cache: HashMap<MemoKey, MemoEntry<M>>,
    /// Insertion order, for FIFO eviction once `capacity` is reached.
    order: VecDeque<MemoKey>,
    capacity: usize,
    stats: MergeCacheStats,
    enabled: bool,
}

/// A content-addressed cache of three-way merge results, bounded to
/// `capacity` triples with FIFO eviction (criss-cross re-derivations are
/// temporally clustered, so recency-ignorant eviction loses little).
pub struct MergeMemo<M> {
    inner: Mutex<MemoInner<M>>,
}

impl<M> MergeMemo<M> {
    /// Creates an enabled, empty cache with [`DEFAULT_MEMO_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// Creates an enabled, empty cache bounded to `capacity` triples
    /// (`0` disables caching outright).
    pub fn with_capacity(capacity: usize) -> Self {
        MergeMemo {
            inner: Mutex::new(MemoInner {
                cache: HashMap::new(),
                order: VecDeque::new(),
                capacity,
                stats: MergeCacheStats::default(),
                enabled: true,
            }),
        }
    }

    /// Enables or disables the cache; disabling clears it (and the
    /// subsequent merges count as misses).
    pub fn set_enabled(&self, enabled: bool) {
        let mut inner = self.inner.lock();
        inner.enabled = enabled;
        if !enabled {
            inner.cache.clear();
            inner.order.clear();
        }
    }

    /// Whether the cache is consulted at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.lock().enabled
    }

    /// The merged state for `(lca, left, right)`, computing and caching it
    /// via `merge` on a miss.
    ///
    /// The lock is **not** held while `merge` runs, so `merge` may
    /// recursively consult the same memo (recursive virtual merges do).
    /// Two racing misses on the same key both compute; the later insert
    /// overwrites the earlier one's `Arc` (the eviction queue records the
    /// key only once), and the two values are identical by purity, so
    /// which allocation survives is unobservable.
    pub fn merged(&self, key: MemoKey, merge: impl FnOnce() -> M) -> Arc<M> {
        {
            let mut inner = self.inner.lock();
            if inner.enabled {
                if let Some(hit) = inner.cache.get(&key) {
                    let hit = Arc::clone(&hit.state);
                    inner.stats.hits += 1;
                    return hit;
                }
            }
            inner.stats.misses += 1;
        }
        let computed = Arc::new(merge());
        self.insert(key, &computed, None);
        computed
    }

    /// Like [`MergeMemo::merged`], additionally returning the merged
    /// state's content address — cached with the entry, so a hit costs no
    /// re-hash of the state. The recursive virtual-LCA path uses this to
    /// key sub-merges without paying O(state) SHA-256 per level per hit.
    pub fn merged_with_id(&self, key: MemoKey, merge: impl FnOnce() -> M) -> (Arc<M>, ObjectId)
    where
        M: peepul_core::Wire,
    {
        {
            let mut inner = self.inner.lock();
            if inner.enabled {
                if let Some(hit) = inner.cache.get(&key) {
                    let state = Arc::clone(&hit.state);
                    let cached_id = hit.id;
                    inner.stats.hits += 1;
                    drop(inner);
                    // Backfill the id if an earlier `merged` call cached
                    // the entry without one.
                    let id = cached_id.unwrap_or_else(|| {
                        let id = crate::object::content_id(state.as_ref());
                        if let Some(entry) = self.inner.lock().cache.get_mut(&key) {
                            entry.id = Some(id);
                        }
                        id
                    });
                    return (state, id);
                }
            }
            inner.stats.misses += 1;
        }
        let computed = Arc::new(merge());
        let id = crate::object::content_id(computed.as_ref());
        self.insert(key, &computed, Some(id));
        (computed, id)
    }

    fn insert(&self, key: MemoKey, state: &Arc<M>, id: Option<ObjectId>) {
        let mut inner = self.inner.lock();
        if inner.enabled && inner.capacity > 0 {
            while inner.cache.len() >= inner.capacity {
                let oldest = inner.order.pop_front().expect("order tracks cache");
                inner.cache.remove(&oldest);
            }
            let entry = MemoEntry {
                state: Arc::clone(state),
                id,
            };
            if inner.cache.insert(key, entry).is_none() {
                inner.order.push_back(key);
            }
        }
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> MergeCacheStats {
        self.inner.lock().stats
    }

    /// Number of distinct cached triples.
    pub fn len(&self) -> usize {
        self.inner.lock().cache.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().cache.is_empty()
    }
}

impl<M> Default for MergeMemo<M> {
    fn default() -> Self {
        MergeMemo::new()
    }
}

impl<M> Clone for MergeMemo<M> {
    /// An independent cache holding the same entries (the merged states
    /// stay `Arc`-shared), eviction order, counters and enabled flag.
    fn clone(&self) -> Self {
        let inner = self.inner.lock();
        let cache = inner
            .cache
            .iter()
            .map(|(key, entry)| {
                let entry = MemoEntry {
                    state: Arc::clone(&entry.state),
                    id: entry.id,
                };
                (*key, entry)
            })
            .collect();
        MergeMemo {
            inner: Mutex::new(MemoInner {
                cache,
                order: inner.order.clone(),
                capacity: inner.capacity,
                stats: inner.stats,
                enabled: inner.enabled,
            }),
        }
    }
}

impl<M> fmt::Debug for MergeMemo<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "MergeMemo({} entries, {} hits, {} misses)",
            inner.cache.len(),
            inner.stats.hits,
            inner.stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::content_id;

    #[test]
    fn second_identical_merge_is_a_hit() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let key = (content_id(&0u8), content_id(&1u8), content_id(&2u8));
        let a = memo.merged(key, || 42);
        let b = memo.merged(key, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(memo.stats(), MergeCacheStats { hits: 1, misses: 1 });
        assert!((memo.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_order_matters() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let (l, a, b) = (content_id(&0u8), content_id(&1u8), content_id(&2u8));
        memo.merged((l, a, b), || 1);
        memo.merged((l, b, a), || 2);
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn disabling_clears_and_bypasses() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let key = (content_id(&0u8), content_id(&1u8), content_id(&2u8));
        memo.merged(key, || 1);
        memo.set_enabled(false);
        assert!(memo.is_empty());
        memo.merged(key, || 2);
        memo.merged(key, || 3);
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.stats().misses, 3);
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        assert_eq!(memo.stats().hit_rate(), 0.0);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let memo: MergeMemo<u64> = MergeMemo::with_capacity(2);
        let key = |i: u8| (content_id(&i), content_id(&i), content_id(&i));
        memo.merged(key(0), || 0);
        memo.merged(key(1), || 1);
        memo.merged(key(2), || 2); // cache {1, 2}: key(0) evicted (oldest)
        assert_eq!(memo.len(), 2);
        memo.merged(key(0), || 0); // miss — evicted; refilling drops key(1)
        assert_eq!(memo.stats().hits, 0);
        memo.merged(key(2), || panic!("must still be cached"));
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let memo: MergeMemo<u64> = MergeMemo::with_capacity(0);
        let key = (content_id(&0u8), content_id(&1u8), content_id(&2u8));
        memo.merged(key, || 1);
        memo.merged(key, || 2);
        assert_eq!(memo.stats().hits, 0);
        assert!(memo.is_empty());
    }

    #[test]
    fn shared_reference_probing_works() {
        // The point of interior mutability: a &MergeMemo can serve and warm
        // the cache.
        let memo: MergeMemo<u64> = MergeMemo::new();
        let r: &MergeMemo<u64> = &memo;
        let key = (content_id(&0u8), content_id(&1u8), content_id(&2u8));
        r.merged(key, || 9);
        r.merged(key, || panic!("hit expected"));
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn recursive_merge_does_not_deadlock() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let k1 = (content_id(&0u8), content_id(&1u8), content_id(&2u8));
        let k2 = (content_id(&3u8), content_id(&4u8), content_id(&5u8));
        let v = memo.merged(k1, || *memo.merged(k2, || 5) + 1);
        assert_eq!(*v, 6);
        assert_eq!(memo.len(), 2);
    }
}
