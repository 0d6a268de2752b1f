//! The store's two typed caches: merge memoization, and the bounded
//! cache of typed states a store keeps besides its branch heads.
//!
//! An MRDT merge is a pure function of `(σ_lca, σ_a, σ_b)`, so its result
//! is determined by the three states' content addresses. Recursive
//! virtual merges on criss-cross DAGs (Git's `merge-recursive` strategy,
//! which [`BranchStore`](crate::BranchStore) implements) repeatedly
//! re-derive the *same* base triples — every further merge between two
//! criss-crossing branches recomputes the virtual ancestors of the round
//! before. Caching by `(lca, left, right)` [`ObjectId`] triple turns
//! those recomputations — each O(state size) — into map lookups. The memo
//! holds typed states for **virtual** merges only: a real merge's result
//! is committed, so the memo keeps just its address, and the state lives
//! where every committed state lives — pinned as a branch head, then in
//! the state cache, then in the backend.
//!
//! Both caches are **interior-mutable** (a mutex around the map): filling
//! them is logically a read. This is what lets `BranchStore::lca_state`
//! and the commit-free query path run against `&BranchStore` while still
//! sharing cache hits with real merges.
//!
//! The memo is *not* symmetric in `(left, right)`: merges are only
//! guaranteed commutative modulo observational equivalence (Definition
//! 3.4), not byte-identical, and the cache must never change which exact
//! state a schedule produces (the backend-equivalence property test
//! replays schedules with the cache on and off and demands identical
//! content addresses).

use crate::object::ObjectId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on cached triples. Workloads that never repeat a triple
/// (e.g. a long two-branch gossip chain) would otherwise grow the cache —
/// and the `Arc`-pinned merged states behind it — linearly with history.
pub const DEFAULT_MEMO_CAPACITY: usize = 1024;

/// Bound on [`StateCache`]: the typed states kept besides the branch
/// heads. Replaying the merge shapes of the benchmark's criss-cross and
/// local-first workloads against the heads plus a FIFO of this size served
/// every merge-base read from memory (DESIGN §4).
const STATE_CACHE_CAPACITY: usize = 128;

/// A map bounded to `capacity` entries that evicts the oldest insertion
/// first — the one eviction policy of both store caches. Re-inserting a
/// present key replaces its value and keeps its place in the queue.
#[derive(Clone)]
struct Fifo<K, V> {
    map: HashMap<K, V>,
    /// Insertion order, for eviction.
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V> Fifo<K, V> {
    fn new(capacity: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Caches `value` under `key`, evicting the oldest entry when full;
    /// a no-op at capacity 0.
    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if !self.map.contains_key(&key) {
            self.evict_down_to(self.capacity - 1);
            self.order.push_back(key);
        }
        self.map.insert(key, value);
    }

    /// Re-bounds the map, evicting the oldest entries that no longer fit.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_down_to(capacity);
    }

    /// Keeps only the entries whose value passes `keep`.
    fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        self.map.retain(|_, v| keep(v));
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
    }

    /// Evicts the oldest entries until at most `len` remain.
    fn evict_down_to(&mut self, len: usize) {
        while self.map.len() > len {
            let oldest = self.order.pop_front().expect("order tracks the map");
            self.map.remove(&oldest);
        }
    }
}

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

/// A cached merge: the merged state's content address, and the typed
/// state itself when the merge was virtual. A real merge was committed,
/// so its typed state is found where every committed state is (a pinned
/// head, the [`StateCache`], the backend) and the memo keeps only its
/// address.
type Merged<M> = (Option<Arc<M>>, ObjectId);

struct MemoInner<M> {
    /// The address rides with every entry: the recursive virtual-LCA path
    /// keys further merges by it, and re-hashing the whole state on every
    /// hit would claw back much of what the cache saves.
    cache: Fifo<MemoKey, Merged<M>>,
    stats: MergeCacheStats,
}

/// A content-addressed cache of three-way merge results, bounded to
/// `capacity` triples with FIFO eviction (criss-cross re-derivations are
/// temporally clustered, so recency-ignorant eviction loses little).
pub struct MergeMemo<M> {
    inner: Mutex<MemoInner<M>>,
}

impl<M> MergeMemo<M> {
    /// Creates an empty cache bounded to [`DEFAULT_MEMO_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// Creates an empty cache bounded to `capacity` triples (`0` disables
    /// caching outright).
    pub fn with_capacity(capacity: usize) -> Self {
        MergeMemo {
            inner: Mutex::new(MemoInner {
                cache: Fifo::new(capacity),
                stats: MergeCacheStats::default(),
            }),
        }
    }

    /// The cache under its lock, recovered if a panicking holder poisoned
    /// it (DESIGN §10).
    fn inner(&self) -> MutexGuard<'_, MemoInner<M>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-bounds the cache to `capacity` triples, evicting the oldest
    /// entries that no longer fit. `0` is the one off switch: it empties
    /// the cache, and every later merge counts as a miss.
    pub fn set_capacity(&self, capacity: usize) {
        self.inner().cache.set_capacity(capacity);
    }

    /// The cached merge of `(lca, left, right)`, counting the lookup as a
    /// hit or a miss. The lock is released before the caller computes a
    /// missing merge, so a merge may recursively consult the same memo
    /// (recursive virtual merges do).
    pub(crate) fn get(&self, key: MemoKey) -> Option<Merged<M>> {
        let mut inner = self.inner();
        let found = inner.cache.get(&key).cloned();
        match found {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        found
    }

    /// Caches the merge of `key`: `state` is `Some` for a virtual merge
    /// and `None` for a committed one. Two racing misses on one key both
    /// compute and the later insert wins; the values are identical by
    /// purity, so which survives is unobservable.
    pub(crate) fn insert(&self, key: MemoKey, state: Option<Arc<M>>, id: ObjectId) {
        self.inner().cache.insert(key, (state, id));
    }

    /// Forgets the committed merges whose state is no longer `live` —
    /// garbage collection reclaimed them, so the address would lead
    /// nowhere. Virtual merges carry their state and stay.
    pub(crate) fn retain_live(&self, live: &HashSet<ObjectId>) {
        self.inner()
            .cache
            .retain(|(state, id)| state.is_some() || live.contains(id));
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> MergeCacheStats {
        self.inner().stats
    }

    /// Number of distinct cached triples.
    pub fn len(&self) -> usize {
        self.inner().cache.map.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<M> Default for MergeMemo<M> {
    fn default() -> Self {
        MergeMemo::new()
    }
}

impl<M> Clone for MergeMemo<M> {
    /// An independent cache holding the same entries (the merged states
    /// stay `Arc`-shared), eviction order, counters and capacity.
    fn clone(&self) -> Self {
        let inner = self.inner();
        MergeMemo {
            inner: Mutex::new(MemoInner {
                cache: inner.cache.clone(),
                stats: inner.stats,
            }),
        }
    }
}

impl<M> fmt::Debug for MergeMemo<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner();
        write!(
            f,
            "MergeMemo({} entries, {} hits, {} misses)",
            inner.cache.map.len(),
            inner.stats.hits,
            inner.stats.misses
        )
    }
}

struct StateInner<M> {
    states: Fifo<ObjectId, Arc<M>>,
    hits: u64,
    misses: u64,
}

/// The typed states a store keeps besides its branch heads, keyed by
/// state address and bounded to [`STATE_CACHE_CAPACITY`] with FIFO
/// eviction. Fed by head moves (the state a branch leaves) and by every
/// state the store decodes on ingest or on a miss; a state evicted from
/// here is resolved from the backend again when something asks for it.
///
/// Interior-mutable for the same reason as [`MergeMemo`]: filling it on
/// a miss is logically a read, so the LCA path stays `&self`.
pub(crate) struct StateCache<M> {
    inner: Mutex<StateInner<M>>,
}

impl<M> StateCache<M> {
    pub(crate) fn new() -> Self {
        StateCache {
            inner: Mutex::new(StateInner {
                states: Fifo::new(STATE_CACHE_CAPACITY),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The cache under its lock, recovered if a panicking holder poisoned
    /// it (DESIGN §10).
    fn inner(&self) -> MutexGuard<'_, StateInner<M>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached state under `id`, counting the lookup as a hit or a
    /// miss.
    pub(crate) fn get(&self, id: ObjectId) -> Option<Arc<M>> {
        let mut inner = self.inner();
        let found = inner.states.get(&id).cloned();
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    pub(crate) fn insert(&self, id: ObjectId, state: Arc<M>) {
        self.inner().states.insert(id, state);
    }

    /// The cached addresses, and the hit and miss counts since
    /// construction.
    pub(crate) fn snapshot(&self) -> (Vec<ObjectId>, u64, u64) {
        let inner = self.inner();
        let ids = inner.states.order.iter().copied().collect();
        (ids, inner.hits, inner.misses)
    }
}

impl<M> Clone for StateCache<M> {
    /// An independent cache holding the same `Arc`-shared states, order
    /// and counters.
    fn clone(&self) -> Self {
        let inner = self.inner();
        StateCache {
            inner: Mutex::new(StateInner {
                states: inner.states.clone(),
                hits: inner.hits,
                misses: inner.misses,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::content_id;

    fn key(i: u8) -> MemoKey {
        (content_id(&i), content_id(&(i + 1)), content_id(&(i + 2)))
    }

    /// Looks `key` up, caching `v` as a virtual merge on a miss — the
    /// shape of every virtual-LCA step.
    fn merged(memo: &MergeMemo<u64>, key: MemoKey, v: u64) -> Arc<u64> {
        if let Some((Some(state), _)) = memo.get(key) {
            return state;
        }
        let state = Arc::new(v);
        memo.insert(key, Some(Arc::clone(&state)), content_id(&v));
        state
    }

    #[test]
    fn second_identical_merge_is_a_hit() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let a = merged(&memo, key(0), 42);
        let b = merged(&memo, key(0), 43);
        assert!(Arc::ptr_eq(&a, &b), "the second lookup must not recompute");
        assert_eq!(memo.get(key(0)).unwrap().1, content_id(&42u64));
        assert_eq!(memo.stats(), MergeCacheStats { hits: 2, misses: 1 });
        assert!((memo.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn committed_merges_keep_only_their_address_until_collected() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let (stored, virt) = (content_id(&7u64), content_id(&8u64));
        memo.insert(key(0), None, stored);
        memo.insert(key(1), Some(Arc::new(8)), virt);
        assert_eq!(memo.get(key(0)), Some((None, stored)));
        memo.retain_live(&HashSet::new());
        assert_eq!(memo.get(key(0)), None, "its state was collected");
        assert_eq!(memo.get(key(1)), Some((Some(Arc::new(8)), virt)));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn key_order_matters() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        let (l, a, b) = key(0);
        merged(&memo, (l, a, b), 1);
        merged(&memo, (l, b, a), 2);
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn disabling_clears_and_bypasses() {
        let memo: MergeMemo<u64> = MergeMemo::new();
        merged(&memo, key(0), 1);
        memo.set_capacity(0);
        assert!(memo.is_empty());
        merged(&memo, key(0), 2);
        assert_eq!(*merged(&memo, key(0), 3), 3);
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
        merged(&memo, key(0), 0);
        merged(&memo, key(1), 1);
        merged(&memo, key(2), 2); // cache {1, 2}: key(0) evicted (oldest)
        assert_eq!(memo.len(), 2);
        merged(&memo, key(0), 0); // miss — evicted; refilling drops key(1)
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(*merged(&memo, key(2), 99), 2, "must still be cached");
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let memo: MergeMemo<u64> = MergeMemo::with_capacity(0);
        merged(&memo, key(0), 1);
        merged(&memo, key(0), 2);
        assert_eq!(memo.stats().hits, 0);
        assert!(memo.is_empty());
    }

    #[test]
    fn shared_reference_probing_works() {
        // The point of interior mutability: a &MergeMemo can serve and warm
        // the cache.
        let memo: MergeMemo<u64> = MergeMemo::new();
        let r: &MergeMemo<u64> = &memo;
        merged(r, key(0), 9);
        assert_eq!(*merged(r, key(0), 10), 9);
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn recursive_merge_does_not_deadlock() {
        // A miss leaves the lock released, so computing the missing merge
        // may consult the memo again — a virtual merge of virtual merges.
        let memo: MergeMemo<u64> = MergeMemo::new();
        assert!(memo.get(key(0)).is_none());
        let inner = merged(&memo, key(3), 5);
        memo.insert(key(0), Some(Arc::new(*inner + 1)), content_id(&6u64));
        assert_eq!(*merged(&memo, key(0), 0), 6);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn state_cache_keeps_the_newest_states_and_counts_lookups() {
        let cache: StateCache<u64> = StateCache::new();
        let id = |i: usize| content_id(&(i as u64));
        for i in 0..=STATE_CACHE_CAPACITY {
            cache.insert(id(i), Arc::new(i as u64));
        }
        assert_eq!(cache.get(id(0)), None, "the oldest state was evicted");
        assert_eq!(cache.get(id(1)).as_deref(), Some(&1));
        let (ids, hits, misses) = cache.snapshot();
        assert_eq!(ids.len(), STATE_CACHE_CAPACITY);
        assert_eq!((hits, misses), (1, 1));
    }
}
