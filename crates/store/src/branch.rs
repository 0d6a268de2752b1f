//! The user-facing branch store: an Irmin-style versioned database of one
//! MRDT object.
//!
//! Clients address branches through **typed handles** ([`BranchRef`],
//! [`BranchMut`], see [`handle`]): a handle is created from a branch name
//! exactly once — where a typo surfaces immediately as
//! [`StoreError::UnknownBranch`] — and everything else (`apply`, `read`,
//! `fork`, `merge_from`, `history`) hangs off the handle, infallibly
//! addressed. Every update is one `DO` step: one commit carrying one
//! timestamp. **Queries are commit-free**: [`BranchStore::read`] and
//! [`BranchRef::read`] answer from the branch head against `&self`,
//! minting no commit, no timestamp and no backend write. A batch that
//! wants one fsync is N applies over a backend whose flush policy defers
//! syncing (`FlushPolicy::Explicit`), then one [`BranchStore::flush`].
//!
//! The store tracks the commit DAG, mints unique happens-before-consistent
//! timestamps, finds the lowest common ancestor for every merge, and
//! invokes the data type's three-way merge (§2.1 of the paper).
//! Criss-cross histories with several maximal common ancestors are resolved
//! by *recursive virtual merges*, the strategy of Git's `merge-recursive` —
//! computed **without materialising virtual commits**
//! ([`CommitGraph::merge_bases_of`] works on leaf sets), which keeps the
//! whole LCA path `&self`-clean and the commit count equal to the number of
//! real versions.
//!
//! Since the backend refactor the store is generic over its persistence
//! layer: every state and commit it creates is *published* to a pluggable
//! [`Backend`] under its content address, and every branch head is a
//! backend ref — run it over [`MemoryBackend`] (default) or the on-disk
//! [`SegmentBackend`](crate::SegmentBackend) interchangeably. Merges are
//! memoized by `(lca, left, right)` content-address triple
//! ([`MergeMemo`]): recursive virtual merges on criss-cross DAGs re-derive
//! the same triples over and over, and the cache turns those repeated
//! O(state) merges into lookups.
//!
//! # Layout
//!
//! One module per layer the benchmark times as a `store.branch.*` row,
//! each decision made in exactly one of them:
//!
//! * this file — the **commit path**: the branch table, `do_fork` /
//!   `do_apply` / `do_merge`, `virtual_lca`, and the one head-move
//!   epilogue (`advance_head` / `create_branch`);
//! * `records` — commit- and state-record envelopes, the snapshot policy
//!   (form choice, chain bound) and the one delta-chain resolver;
//! * `ingest` — the replication surface: `commits_between`, the one
//!   `ingest_pack`, `track`;
//! * `gc` — liveness tracing, garbage collection, compaction;
//! * `reopen` — the typed cold start ([`BranchStore::open`]);
//! * [`handle`] — typed branch handles.

use crate::backend::{Backend, MemoryBackend};
use crate::dag::{CommitGraph, CommitId};
use crate::error::StoreError;
use crate::memo::{MergeCacheStats, MergeMemo, StateCache, DEFAULT_MEMO_CAPACITY};
use crate::metrics::StoreMetrics;
use crate::object::{canonical_bytes, content_id, content_id_of_bytes, ObjectId};
use peepul_core::{Delta, Mrdt, ReplicaId, Timestamp, Wire};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

mod gc;
pub mod handle;
mod ingest;
mod records;
mod reopen;

pub use handle::{BranchId, BranchMut, BranchRef};
pub use ingest::{IngestReport, PackState, TrackOutcome};
pub use records::{
    commit_record, parse_commit_record, parse_state_record, state_record_delta, state_record_full,
    CommitMeta, StateRecord, DEFAULT_SNAPSHOT_INTERVAL,
};

#[derive(Clone, Debug)]
struct BranchInfo<M> {
    head: CommitId,
    replica: ReplicaId,
    /// The interned validated name; handles clone this (cheap `Arc`).
    id: BranchId,
    /// The head's typed state, pinned: apply, read and both merge inputs
    /// use it without a lookup.
    state: Arc<M>,
}

/// A Git-like store replicating one MRDT object across branches.
///
/// # Example
///
/// ```
/// use peepul_store::BranchStore;
/// use peepul_types::counter::{Counter, CounterOp, CounterQuery};
///
/// # fn main() -> Result<(), peepul_store::StoreError> {
/// let mut store: BranchStore<Counter> = BranchStore::new("main");
/// let dev = store.branch_mut("main")?.fork("dev")?;
///
/// // Updates go through a mutable handle, one commit each.
/// let mut feature = store.branch_mut(&dev)?;
/// feature.apply(&CounterOp::Increment)?;
/// feature.apply(&CounterOp::Increment)?;
/// store.branch_mut("main")?.apply(&CounterOp::Increment)?;
/// store.branch_mut("main")?.merge_from(&dev)?;
///
/// // Queries are commit-free and need no `&mut`.
/// assert_eq!(store.read("main", &CounterQuery::Value)?, 3);
/// # Ok(())
/// # }
/// ```
///
/// Typed states are held only where something is likely to read them
/// again: each branch pins its head's state, and a bounded cache keeps
/// the most recent states heads left or reads resolved. Any other
/// commit's state is resolved from the backend on demand
/// ([`BranchStore::state_at`]), every delta link hash-checked.
///
/// Cloning forks the whole world: an independent store with the same
/// history, branches, clock, backend contents, merge memo and state
/// cache. States are `Arc`-shared, so the cost is the index vectors and
/// maps, not the payloads. The bounded-exhaustive checker branches its
/// depth-first search over the serving store this way.
#[derive(Clone)]
pub struct BranchStore<M: Mrdt, B: Backend = MemoryBackend> {
    /// The commit DAG; each commit's payload is its state's content
    /// address.
    graph: CommitGraph<ObjectId>,
    /// Content address of each *commit record*, indexed like the graph.
    commit_ids: Vec<ObjectId>,
    /// The `(tick, replica)` mint of each commit, indexed like the graph.
    /// Roots and merge commits mint `(0, 0)`; operation commits carry the
    /// timestamp of the event they landed — what the replication-aware
    /// linearizability witness observes.
    mints: Vec<Timestamp>,
    /// Commit content address → graph id (the fetch/ingest lookup).
    commit_index: HashMap<ObjectId, CommitId>,
    /// Every state address some commit carries — what the state readers
    /// check before they touch the backend (GC prunes it).
    state_index: HashSet<ObjectId>,
    branches: BTreeMap<String, BranchInfo<M>>,
    /// Global Lamport tick: unique and happens-before consistent because
    /// the store is the sole timestamp authority (Ψ_ts).
    tick: u64,
    next_replica: u32,
    backend: B,
    memo: MergeMemo<M>,
    /// The typed states kept besides the pinned heads.
    state_cache: StateCache<M>,
    /// Observability handles, attached by [`BranchStore::set_metrics`];
    /// `None` keeps every hot path at its uninstrumented cost.
    metrics: Option<Arc<StoreMetrics>>,
    /// Commit boundaries crossed ([`BranchStore::durability_point`]) —
    /// the denominator of the published fsync-coalesce ratio.
    boundaries: u64,
    /// Delta-stored state → its base state: the retention index GC closes
    /// over (a base must outlive every live delta resolving through it)
    /// and the chain-depth oracle `put_state` uses to bound chains at the
    /// snapshot interval.
    delta_deps: HashMap<ObjectId, ObjectId>,
    /// The delta-chain bound ([`BranchStore::set_snapshot_interval`]).
    snapshot_interval: u32,
}

impl<M: Mrdt> BranchStore<M> {
    /// Creates a store over the in-memory backend with a single branch
    /// holding the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `root_branch` is not a valid branch name (see
    /// [`BranchId`]); use [`BranchStore::with_backend`] for a fallible
    /// constructor.
    pub fn new(root_branch: impl Into<String>) -> Self {
        Self::with_backend(root_branch, MemoryBackend::new())
            .expect("the in-memory backend cannot fail and the name must be valid")
    }
}

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// Creates a store over an explicit backend with a single branch
    /// holding the initial state.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidBranchName`] if `root_branch` is not a legal
    /// name; [`StoreError::Io`] if publishing the root commit fails.
    pub fn with_backend(root_branch: impl Into<String>, backend: B) -> Result<Self, StoreError> {
        Self::with_backend_and_base(root_branch, backend, 0)
    }

    /// Creates a store like [`BranchStore::with_backend`], but minting
    /// replica ids starting at `replica_base` instead of 0.
    ///
    /// Timestamp uniqueness (Ψ_ts) holds *within* one store because it is
    /// the sole timestamp authority over its branches. Once several
    /// independent stores replicate into each other, their replica-id
    /// ranges must not overlap or two stores could mint the same
    /// `(tick, replica)` pair; a fleet assigns each store a disjoint base
    /// (`peepul-net`'s `Cluster` spaces them `2^16` apart).
    ///
    /// # Errors
    ///
    /// As [`BranchStore::with_backend`] — plus [`StoreError::Corrupt`]
    /// when the backend **already holds published refs**: creating a
    /// fresh store over an existing one would silently repoint its branch
    /// at a new initial root, orphaning the real history. Reopen such a
    /// backend with [`BranchStore::open`] instead (the two constructors
    /// refuse in opposite directions, so neither path can be mis-called
    /// into data loss).
    pub fn with_backend_and_base(
        root_branch: impl Into<String>,
        backend: B,
        replica_base: u32,
    ) -> Result<Self, StoreError> {
        let id = BranchId::new(&root_branch.into())?;
        if !backend.refs()?.is_empty() {
            return Err(StoreError::Corrupt(
                "backend already holds published refs; reopen it with BranchStore::open \
                 instead of creating a new store over it"
                    .into(),
            ));
        }
        let mut store = BranchStore::empty(backend, replica_base);
        let initial = M::initial();
        let root = store.commit(Vec::new(), None, &initial, (0, 0), diff_parent)?;
        store.create_branch(id, root, Arc::new(initial))?;
        Ok(store)
    }

    /// A store with no commits and no branches over `backend`, minting
    /// replica ids from `next_replica` — what both constructors and the
    /// reopen path start from.
    fn empty(backend: B, next_replica: u32) -> Self {
        BranchStore {
            graph: CommitGraph::new(),
            commit_ids: Vec::new(),
            mints: Vec::new(),
            commit_index: HashMap::new(),
            state_index: HashSet::new(),
            branches: BTreeMap::new(),
            tick: 0,
            next_replica,
            backend,
            memo: MergeMemo::new(),
            state_cache: StateCache::new(),
            metrics: None,
            boundaries: 0,
            delta_deps: HashMap::new(),
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
        }
    }

    /// Publishes a state + commit record to the backend, then appends the
    /// commit to the in-memory DAG. Backend first: a failed publish leaves
    /// the graph untouched (the orphaned object, if any, is harmless in a
    /// content-addressed store).
    ///
    /// `first_state` is the first parent's state (`None` exactly for a
    /// root). `delta` is the commit's delta source, called as
    /// `delta(first_state, state)`: an update commit passes its
    /// operation's [`Mrdt::op_delta`], every other commit [`diff_parent`].
    fn commit(
        &mut self,
        parents: Vec<CommitId>,
        first_state: Option<&M>,
        state: &M,
        mint: (u64, u32),
        delta: impl FnOnce(&M, &M) -> Delta,
    ) -> Result<CommitId, StoreError> {
        let canonical = canonical_bytes(state);
        let state_id = content_id_of_bytes(&canonical);
        // The (first) parent's state is the delta base; the delta is only
        // computed if `put_state` finds the chain bound allows one.
        let base = parents.first().map(|p| *self.graph.payload(*p));
        self.put_state(state_id, &canonical, base, || {
            let parent_state = first_state.expect("a base has a parent state");
            delta(parent_state, state).to_wire()
        })?;
        let parent_ids: Vec<ObjectId> =
            parents.iter().map(|p| self.commit_ids[p.index()]).collect();
        let record = commit_record(&parent_ids, state_id, mint.0, mint.1);
        let commit_oid = self.backend.put(&record)?;
        Ok(self.install_commit(parents, state_id, commit_oid, mint))
    }

    /// Appends an already-published commit to the in-memory structures:
    /// graph, id ledgers, and both lookup indexes. The backend holds the
    /// state bytes under `state_id` and the record bytes under
    /// `commit_oid` before this is called (by [`BranchStore::commit`], the
    /// ingest path, or — on reopen — by the segment file itself).
    fn install_commit(
        &mut self,
        parents: Vec<CommitId>,
        state_id: ObjectId,
        commit_oid: ObjectId,
        mint: (u64, u32),
    ) -> CommitId {
        let cid = if parents.is_empty() {
            self.graph.add_root(state_id)
        } else {
            self.graph
                .add_commit(parents, state_id)
                .expect("callers pass live parents")
        };
        self.commit_ids.push(commit_oid);
        self.mints
            .push(Timestamp::new(mint.0, ReplicaId::new(mint.1)));
        self.commit_index.insert(commit_oid, cid);
        self.state_index.insert(state_id);
        cid
    }

    /// Moves an existing branch to `head`, whose typed state is `state` —
    /// the one epilogue of every head move (apply, merge, fast-forward):
    /// backend ref first, then the table entry, then one durability
    /// point. The state the branch leaves enters the state cache: it is
    /// the likeliest base of the branch's next merge.
    pub(crate) fn advance_head(
        &mut self,
        branch: &str,
        head: CommitId,
        state: Arc<M>,
    ) -> Result<(), StoreError> {
        self.backend
            .set_ref(branch, self.commit_ids[head.index()])?;
        let info = self
            .branches
            .get_mut(branch)
            .expect("callers pass an existing branch");
        let left = std::mem::replace(&mut info.state, state);
        let left_id = *self.graph.payload(info.head);
        info.head = head;
        self.state_cache.insert(left_id, left);
        self.durability_point()
    }

    /// Creates branch `id` at `head` (root branch, fork, first track): the
    /// insert counterpart of [`BranchStore::advance_head`].
    fn create_branch(
        &mut self,
        id: BranchId,
        head: CommitId,
        state: Arc<M>,
    ) -> Result<(), StoreError> {
        self.backend.set_ref(&id, self.commit_ids[head.index()])?;
        self.insert_branch(id, head, state);
        self.durability_point()
    }

    /// Adds `id` to the branch table at `head`, pinning its typed `state`
    /// and minting its replica id.
    fn insert_branch(&mut self, id: BranchId, head: CommitId, state: Arc<M>) {
        let replica = ReplicaId::new(self.next_replica);
        self.next_replica += 1;
        let info = BranchInfo {
            head,
            replica,
            id,
            state,
        };
        self.branches.insert(info.id.to_string(), info);
    }

    /// Marks the end of one logical commit (an apply, a merge, a fork, an
    /// ingested pack): the backend schedules durability here per its
    /// flush policy — the group-commit seam that turns N record appends
    /// into at most one fsync.
    fn durability_point(&mut self) -> Result<(), StoreError> {
        self.boundaries += 1;
        self.backend.commit_boundary()
    }

    /// The branch names, sorted lexicographically.
    ///
    /// The order is **guaranteed deterministic** across backends and runs
    /// (branches live in an ordered map), so iteration-driven artefacts —
    /// convergence sweeps, test fixtures — are stable.
    pub fn branch_names(&self) -> Vec<&str> {
        self.branches.keys().map(String::as_str).collect()
    }

    /// Whether `branch` exists.
    pub fn has_branch(&self, branch: &str) -> bool {
        self.branches.contains_key(branch)
    }

    /// A validated, cheaply clonable identifier for an existing branch.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn branch_id(&self, branch: &str) -> Result<BranchId, StoreError> {
        self.info(branch).map(|i| i.id.clone())
    }

    /// A read-only handle to an existing branch — the typo check happens
    /// here, once; every method on the returned [`BranchRef`] is
    /// infallible.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn branch(&self, branch: &str) -> Result<BranchRef<'_, M, B>, StoreError> {
        let info = self.info(branch)?;
        Ok(BranchRef::new(
            self,
            info.id.clone(),
            info.head,
            info.replica,
            &info.state,
        ))
    }

    /// A mutable handle to an existing branch, for `apply`, `fork` and
    /// `merge_from`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn branch_mut(&mut self, branch: &str) -> Result<BranchMut<'_, M, B>, StoreError> {
        let id = self.info(branch)?.id.clone();
        Ok(BranchMut::new(self, id))
    }

    /// The replica id minting timestamps for `branch`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn replica_of(&self, branch: &str) -> Result<ReplicaId, StoreError> {
        self.info(branch).map(|i| i.replica)
    }

    fn info(&self, branch: &str) -> Result<&BranchInfo<M>, StoreError> {
        self.branches
            .get(branch)
            .ok_or_else(|| StoreError::UnknownBranch(branch.to_owned()))
    }

    /// The head commit of a branch.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn head(&self, branch: &str) -> Result<CommitId, StoreError> {
        self.info(branch).map(|i| i.head)
    }

    /// The content address of a branch's head *commit* (Merkle over the
    /// whole history) — what the backend ref for `branch` points at.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn head_id(&self, branch: &str) -> Result<ObjectId, StoreError> {
        Ok(self.commit_ids[self.head(branch)?.index()])
    }

    /// The content address of a branch's head *state*.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state_id(&self, branch: &str) -> Result<ObjectId, StoreError> {
        Ok(*self.graph.payload(self.head(branch)?))
    }

    /// The current state of a branch (cheap `Arc` clone of the pinned
    /// head state).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state(&self, branch: &str) -> Result<Arc<M>, StoreError> {
        self.info(branch).map(|i| Arc::clone(&i.state))
    }

    /// Answers a pure query against a branch's head state — the
    /// **commit-free read path**: no commit is minted, no timestamp
    /// consumed, no backend write issued, and no `&mut` access required.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn read(&self, branch: &str, q: &M::Query) -> Result<M::Output, StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let out = self.info(branch)?.state.query(q);
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            m.reads_total.inc();
            m.read_micros.observe_since(start);
        }
        Ok(out)
    }

    pub(crate) fn do_fork(&mut self, new: String, from: &str) -> Result<BranchId, StoreError> {
        let id = BranchId::new(&new)?;
        if self.branches.contains_key(&new) {
            return Err(StoreError::BranchExists(new));
        }
        let info = self.info(from)?;
        let (head, state) = (info.head, Arc::clone(&info.state));
        self.create_branch(id.clone(), head, state)?;
        Ok(id)
    }

    pub(crate) fn do_apply(&mut self, branch: &str, op: &M::Op) -> Result<M::Value, StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let info = self.info(branch)?;
        let (head, replica, state) = (info.head, info.replica, Arc::clone(&info.state));
        self.tick += 1;
        let t = Timestamp::new(self.tick, replica);
        let (next, value) = state.apply(op, t);
        let new_head = self.commit(
            vec![head],
            Some(&state),
            &next,
            (t.tick(), t.replica().as_u32()),
            |parent, next| parent.op_delta(op, next),
        )?;
        self.advance_head(branch, new_head, Arc::new(next))?;
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            m.commits_total.inc();
            m.commit_micros.observe(micros);
            m.trace("commit", branch, micros);
        }
        Ok(value)
    }

    /// The lowest-common-ancestor *state* of two branches, resolving
    /// multiple merge bases by recursive virtual merging.
    ///
    /// This is a **read**: virtual ancestors are computed on the fly from
    /// merge-base leaf sets ([`CommitGraph::merge_bases_of`]) instead of
    /// being committed into the graph, so the whole path works against
    /// `&self` — read-only callers no longer need `&mut BranchStore`. The
    /// interior-mutable [`MergeMemo`] still caches (and serves) the
    /// virtual merges by content-address triple, and a base's state is
    /// loaded like any other ([`BranchStore::state_at`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] for missing branches;
    /// [`StoreError::NoCommonAncestor`] for unrelated histories (impossible
    /// for branches forked from one root); the backend's errors when a
    /// base's state has to be resolved from it.
    pub fn lca_state(&self, b1: &str, b2: &str) -> Result<Arc<M>, StoreError> {
        let (c1, c2) = (self.head(b1)?, self.head(b2)?);
        let (lca, _, _) = self.virtual_lca(&[c1], &[c2])?;
        self.lca_typed(lca)
    }

    /// Recursive virtual merge of the merge bases of two virtual commits
    /// (each given by its real leaf set), exactly like git merge-recursive
    /// — but materialising nothing. Returns the LCA, its content address,
    /// and the leaf set describing the virtual ancestor.
    ///
    /// Criss-cross rounds re-derive the same `(lca, left, right)` triples,
    /// so these merges are where the memo pays. A typed input is loaded
    /// only when the memo misses: a hit needs nothing but addresses.
    #[allow(clippy::type_complexity)]
    fn virtual_lca(
        &self,
        left: &[CommitId],
        right: &[CommitId],
    ) -> Result<(Lca<M>, ObjectId, Vec<CommitId>), StoreError> {
        let bases = self.graph.merge_bases_of(left, right);
        let Some((&first, rest)) = bases.split_first() else {
            return Err(StoreError::NoCommonAncestor);
        };
        let mut sid = *self.graph.payload(first);
        let mut lca = Lca::Stored(sid);
        let mut leaves = vec![first];
        for &base in rest {
            let (sub, sub_sid, _) = self.virtual_lca(&leaves, &[base])?;
            let base_sid = *self.graph.payload(base);
            let key = (sub_sid, sid, base_sid);
            // The memo keeps the result's content address with the entry,
            // so repeated criss-cross derivations skip the merge, the
            // O(state) re-hash and loading the three inputs.
            lca = match self.memo.get(key) {
                Some((state, id)) => {
                    sid = id;
                    state.map_or(Lca::Stored(id), Lca::Virtual)
                }
                None => {
                    let merged = M::merge(
                        &*self.lca_typed(sub)?,
                        &*self.lca_typed(lca)?,
                        &*self.state_at(base)?,
                    );
                    let merged = Arc::new(merged);
                    sid = content_id(merged.as_ref());
                    self.memo.insert(key, Some(Arc::clone(&merged)), sid);
                    Lca::Virtual(merged)
                }
            };
            leaves.push(base);
        }
        Ok((lca, sid, leaves))
    }

    /// The typed state of a merge base `virtual_lca` returned.
    fn lca_typed(&self, lca: Lca<M>) -> Result<Arc<M>, StoreError> {
        match lca {
            Lca::Stored(id) => self.typed_state(id),
            Lca::Virtual(state) => Ok(state),
        }
    }

    pub(crate) fn do_merge(&mut self, into: &str, from: &str) -> Result<(), StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let (c_into, c_from) = (self.head(into)?, self.head(from)?);
        if self.graph.is_ancestor(c_from, c_into) {
            return Ok(()); // nothing new to integrate
        }
        let (lca, lca_sid, _) = self.virtual_lca(&[c_into], &[c_from])?;
        let (ours, theirs) = (self.state(into)?, self.state(from)?);
        let key = (
            lca_sid,
            *self.graph.payload(c_into),
            *self.graph.payload(c_from),
        );
        let merged = match self.memo.get(key) {
            Some((Some(state), _)) => state,
            Some((None, id)) => self.typed_state(id)?,
            None => Arc::new(M::merge(&*self.lca_typed(lca)?, &ours, &theirs)),
        };
        let new_head = self.commit(
            vec![c_into, c_from],
            Some(&ours),
            &merged,
            (0, 0),
            diff_parent,
        )?;
        // The result is committed now: the memo remembers its address
        // only, and its typed state lives where every head's does.
        self.memo.insert(key, None, *self.graph.payload(new_head));
        self.advance_head(into, new_head, merged)?;
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            m.merges_total.inc();
            m.merge_micros.observe(micros);
            m.trace("merge", into, micros);
        }
        Ok(())
    }

    /// Total number of commits. Every commit is a real version: virtual
    /// LCA ancestors are computed on the fly and never enter the graph.
    pub fn commit_count(&self) -> usize {
        self.graph.len()
    }

    /// Direct access to the underlying commit graph (read-only).
    ///
    /// Each commit's payload is its state's content address; the typed
    /// state is [`BranchStore::state_at`].
    pub fn graph(&self) -> &CommitGraph<ObjectId> {
        &self.graph
    }

    /// The persistence backend (read-only).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the persistence backend — for storage
    /// maintenance (forcing a rotation, injecting crash faults in tests).
    /// Writing objects or refs behind the store's back desynchronizes its
    /// in-memory graph; prefer the store-level methods
    /// ([`BranchStore::collect_garbage`],
    /// [`BranchStore::compact_storage`], [`BranchStore::flush`]) for
    /// anything the store models itself.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Flushes the backend to stable storage. Under
    /// `FlushPolicy::Explicit` this is the group commit: N applies
    /// followed by one `flush` cost one fsync.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.backend.flush()
    }

    /// Merge-cache hit/miss counters (for the bench pipeline).
    pub fn merge_cache_stats(&self) -> MergeCacheStats {
        self.memo.stats()
    }

    /// Enables or disables merge memoization: `false` sets the cache's
    /// capacity to 0 (clearing it), `true` restores
    /// [`DEFAULT_MEMO_CAPACITY`]. Used by the equivalence suite to check
    /// cached ≡ uncached.
    pub fn set_merge_cache(&self, enabled: bool) {
        self.memo
            .set_capacity(if enabled { DEFAULT_MEMO_CAPACITY } else { 0 });
    }

    /// Attaches (or detaches, with `None`) observability handles. With no
    /// metrics attached every hot path runs at its uninstrumented cost —
    /// the [`ObsConfig::disabled`](peepul_obs::ObsConfig::disabled)
    /// baseline `tests/obs_overhead.rs` gates against.
    pub fn set_metrics(&mut self, metrics: Option<Arc<StoreMetrics>>) {
        self.metrics = metrics;
    }

    /// The attached observability handles, if any.
    pub fn metrics(&self) -> Option<&Arc<StoreMetrics>> {
        self.metrics.as_ref()
    }

    /// Publishes the **pull-model** gauges — facts that live in other
    /// structures (merge-memo and state-cache counters, backend
    /// [`StorageInfo`](crate::StorageInfo), graph sizes) and would cost
    /// hot-path work to push on every operation. Callers invoke this
    /// right before rendering an exposition (the server's `Metrics`
    /// handler does, under its read lock). No-op without metrics.
    pub fn publish_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        let memo = self.memo.stats();
        m.memo_hits.set(memo.hits as i64);
        m.memo_misses.set(memo.misses as i64);
        m.memo_hit_permille.set((memo.hit_rate() * 1000.0) as i64);
        let info = self.backend.storage_info();
        m.fsyncs.set(info.fsyncs as i64);
        m.disk_bytes.set(info.disk_bytes as i64);
        m.segments.set(info.segments as i64);
        m.fsync_coalesce_permille.set(
            info.fsyncs
                .saturating_mul(1000)
                .checked_div(self.boundaries)
                .unwrap_or(0) as i64,
        );
        m.commit_count.set(self.graph.len() as i64);
        m.branches.set(self.branches.len() as i64);
        m.objects.set(self.backend.object_count() as i64);
        m.delta_states.set(self.delta_deps.len() as i64);
        let (cached, hits, misses) = self.state_cache.snapshot();
        let mut resident: HashSet<ObjectId> = cached.into_iter().collect();
        resident.extend(self.branches.values().map(|b| *self.graph.payload(b.head)));
        m.resident_states.set(resident.len() as i64);
        m.state_cache_hits.set(hits as i64);
        m.state_cache_misses.set(misses as i64);
    }
}

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// The content address of a commit's *record* (Merkle over history).
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this store's graph.
    pub fn commit_oid(&self, c: CommitId) -> ObjectId {
        self.commit_ids[c.index()]
    }

    /// The content address of a commit's *state*.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this store's graph.
    pub fn state_oid(&self, c: CommitId) -> ObjectId {
        *self.graph.payload(c)
    }

    /// Resolves a commit content address to its graph id, if this store
    /// has the commit.
    pub fn find_commit(&self, oid: ObjectId) -> Option<CommitId> {
        self.commit_index.get(&oid).copied()
    }

    /// Whether this store has the commit addressed by `oid`.
    pub fn has_commit(&self, oid: ObjectId) -> bool {
        self.commit_index.contains_key(&oid)
    }

    /// The store's current Lamport tick (the last timestamp minted).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the store's Lamport clock to at least `tick` — the
    /// **receive rule**: after ingesting remote state whose largest
    /// embedded tick is `tick`, later local operations mint timestamps
    /// that order after everything merged in (the cross-store half of
    /// Ψ_ts's happens-before consistency).
    pub fn observe_tick(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
    }

    /// **Mutation-testing surface — never call in production code.** Sets
    /// the Lamport clock to exactly `tick`, even *backwards*, bypassing
    /// the receive rule [`BranchStore::observe_tick`] enforces. The
    /// replication-mutant suite in `peepul-verify` uses this to enact a
    /// "broken receive rule" fault (ingest remote state, then forget its
    /// ticks) and prove the `Φ_ra` checker catches the resulting
    /// happens-before violation. Analogous to the segment engine's
    /// `CompactionFault` knob: a deliberate hole drilled for verification,
    /// kept on the store so the mutant exercises the *real* minting path.
    pub fn force_clock(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// The `(tick, replica)` timestamp commit `c` minted, as recorded in
    /// its commit record. Roots and merge commits mint the sentinel
    /// `(0, 0)` — they create no event; operation commits carry the
    /// timestamp of the single event they landed.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this store's graph.
    pub fn commit_mint(&self, c: CommitId) -> Timestamp {
        self.mints[c.index()]
    }

    /// The mints of every **operation** commit in `c`'s ancestry
    /// (`c` included), ascending — the set of events *visible* at `c`.
    ///
    /// Roots and merges (mint `(0, 0)`) are excluded: they create no
    /// event, so the remaining timestamps are exactly the abstract
    /// execution a branch head at `c` has observed. This is the witness
    /// the replication-aware linearizability checker records at every
    /// local operation, head movement and observation.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this store's graph.
    pub fn visible_mints(&self, c: CommitId) -> Vec<Timestamp> {
        let mut out: Vec<Timestamp> = self
            .graph
            .ancestors(c)
            .into_iter()
            .map(|a| self.mints[a.index()])
            .filter(|t| t.tick() > 0)
            .collect();
        out.sort_unstable();
        out
    }
}

/// A merge base as [`BranchStore::virtual_lca`] returns it: a stored
/// state (a real commit's, or a committed merge's the memo remembered),
/// loaded only if a merge needs it, or a virtual merge's typed result.
enum Lca<M> {
    Stored(ObjectId),
    Virtual(Arc<M>),
}

/// The delta source of a commit no single operation describes (root,
/// merge): diff the two whole states.
fn diff_parent<M: Mrdt>(parent: &M, state: &M) -> Delta {
    state.diff(parent)
}

impl<M: Mrdt, B: Backend> fmt::Debug for BranchStore<M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BranchStore({} branches, {} commits, tick {}, {} backend, {:?})",
            self.branches.len(),
            self.graph.len(),
            self.tick,
            self.backend.kind(),
            self.memo
        )
    }
}

#[cfg(test)]
mod tests;
