//! The user-facing branch store: an Irmin-style versioned database of one
//! MRDT object.
//!
//! Clients address branches through **typed handles** ([`BranchRef`],
//! [`BranchMut`], see [`handle`]): a handle is created from a branch name
//! exactly once — where a typo surfaces immediately as
//! [`StoreError::UnknownBranch`] — and everything else (`apply`, `read`,
//! `fork`, `merge_from`, `history`, transactions) hangs off the handle,
//! infallibly addressed. Updates commit new versions; **queries are
//! commit-free**: [`BranchStore::read`] and [`BranchRef::read`] answer from
//! the branch head against `&self`, minting no commit, no timestamp and no
//! backend write. Batched updates go through [`BranchMut::transaction`],
//! which stages any number of operations against a scratch state and
//! publishes **one** commit and one backend write for the whole batch.
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

use crate::backend::{Backend, MemoryBackend, SweepStats};
use crate::dag::{CommitGraph, CommitId};
use crate::error::StoreError;
use crate::memo::{MergeCacheStats, MergeMemo};
use crate::metrics::StoreMetrics;
use crate::object::{canonical_bytes, content_id_of_bytes, decode_canonical, ObjectId};
use peepul_core::{Delta, Mrdt, ReplicaId, Timestamp, Wire};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub mod handle;

pub use handle::{BranchId, BranchMut, BranchRef, Transaction};

#[derive(Clone, Debug)]
struct BranchInfo {
    head: CommitId,
    replica: ReplicaId,
    /// The interned validated name; handles clone this (cheap `Arc`).
    id: BranchId,
}

/// The decoded metadata of a commit record: everything that determines a
/// commit's content address besides the state bytes themselves.
///
/// `tick`/`replica` are the timestamp the commit's operation minted (zero
/// for roots and merges, whose content is already fully determined by
/// their parents and state). Without them, two *different* concurrent
/// operations on two replicas that happen to produce equal states from
/// equal parents — two counter increments, say — would collapse into one
/// commit identity and replication would silently drop one of them. With
/// them, commit addresses distinguish distinct events exactly the way Git
/// commits with equal trees are distinguished by their author timestamps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitMeta {
    /// Parent commit addresses, in order.
    pub parents: Vec<ObjectId>,
    /// The commit's state address.
    pub state: ObjectId,
    /// Lamport tick of the minting operation (0 for roots/merges).
    pub tick: u64,
    /// Replica id of the minting operation (0 for roots/merges).
    pub replica: u32,
}

/// Builds the deterministic byte encoding of a commit record: a tag, the
/// parents' commit addresses in order, the state's address, and the
/// minting timestamp. Hashing this yields the commit's own address, so
/// equal histories produce equal (Merkle) head ids on *any* backend — the
/// property the backend-equivalence suite checks, and the property fetch
/// negotiation relies on to identify common history between independent
/// stores.
pub fn commit_record(parents: &[ObjectId], state: ObjectId, tick: u64, replica: u32) -> Vec<u8> {
    let mut record = Vec::with_capacity(8 + 4 + 32 * (parents.len() + 1) + 12);
    record.extend_from_slice(b"commit\0");
    record.extend_from_slice(&(parents.len() as u32).to_le_bytes());
    for p in parents {
        record.extend_from_slice(p.as_bytes());
    }
    record.extend_from_slice(state.as_bytes());
    record.extend_from_slice(&tick.to_le_bytes());
    record.extend_from_slice(&replica.to_le_bytes());
    record
}

/// Parses a [`commit_record`] back into its [`CommitMeta`], or `None` when
/// the bytes are not a well-formed record. The inverse the fetch client
/// uses to learn a received commit's parents (to continue the graph walk)
/// and its state address (to request the state object).
pub fn parse_commit_record(bytes: &[u8]) -> Option<CommitMeta> {
    let rest = bytes.strip_prefix(b"commit\0".as_slice())?;
    let (len, mut rest) = rest.split_first_chunk::<4>()?;
    let n = u32::from_le_bytes(*len) as usize;
    let mut parents = Vec::with_capacity(n.min(rest.len() / 32));
    for _ in 0..n {
        let (id, tail) = rest.split_first_chunk::<32>()?;
        parents.push(ObjectId::from_bytes(*id));
        rest = tail;
    }
    let (state, rest) = rest.split_first_chunk::<32>()?;
    let (tick, rest) = rest.split_first_chunk::<8>()?;
    let (replica, rest) = rest.split_first_chunk::<4>()?;
    rest.is_empty().then(|| CommitMeta {
        parents,
        state: ObjectId::from_bytes(*state),
        tick: u64::from_le_bytes(*tick),
        replica: u32::from_le_bytes(*replica),
    })
}

/// Leading tag of a full state record: the rest is the state's canonical
/// encoding (which hashes to the record's address).
const STATE_FULL: u8 = 0;
/// Leading tag of a delta state record: a 32-byte base state address
/// followed by a [`peepul_core::Delta`] wire encoding. Resolving the
/// delta against the base's canonical bytes yields this state's canonical
/// bytes — which must hash to the record's address.
const STATE_DELTA: u8 = 1;

/// A parsed state record, borrowed from its envelope bytes.
///
/// Every state object in the backend is wrapped in a one-byte envelope:
/// either the full canonical encoding ([`StateRecord::Full`]) or a delta
/// against a parent state ([`StateRecord::Delta`]). The record lives
/// under the address `sha256(full canonical bytes)` regardless of which
/// form is stored — the delta form is a storage encoding, not an
/// identity; every resolution re-hashes the resolved bytes against the
/// address before trusting them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateRecord<'a> {
    /// The state's full canonical encoding (a snapshot).
    Full(&'a [u8]),
    /// An edit script against the base state's canonical encoding.
    Delta {
        /// Address of the base state this delta resolves against.
        base: ObjectId,
        /// [`peepul_core::Delta`] wire bytes.
        delta: &'a [u8],
    },
}

/// Wraps a state's canonical bytes in the full-snapshot envelope.
pub fn state_record_full(canonical: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(1 + canonical.len());
    record.push(STATE_FULL);
    record.extend_from_slice(canonical);
    record
}

/// Wraps a [`peepul_core::Delta`] wire encoding in the delta envelope
/// naming its base state.
pub fn state_record_delta(base: ObjectId, delta_wire: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(1 + 32 + delta_wire.len());
    record.push(STATE_DELTA);
    record.extend_from_slice(base.as_bytes());
    record.extend_from_slice(delta_wire);
    record
}

/// Parses a stored state record back into its envelope form, or `None`
/// when the bytes are not a well-formed record.
pub fn parse_state_record(bytes: &[u8]) -> Option<StateRecord<'_>> {
    let (tag, rest) = bytes.split_first()?;
    match *tag {
        STATE_FULL => Some(StateRecord::Full(rest)),
        STATE_DELTA => {
            let (base, delta) = rest.split_first_chunk::<32>()?;
            Some(StateRecord::Delta {
                base: ObjectId::from_bytes(*base),
                delta,
            })
        }
        _ => None,
    }
}

/// A resolved state record: the full canonical bytes plus how many delta
/// links were applied to reach them (0 when the record was a snapshot or
/// a cache hit).
type Resolved = (Arc<Vec<u8>>, u32);

/// Resolves a state address to its full canonical bytes by walking the
/// stored delta chain: read the record under `oid`, follow delta bases
/// until a full snapshot (or a `cache` hit), then apply the deltas back
/// down — re-hashing **every** link's resolved bytes against its address
/// before caching it, so a drifted or corrupted delta surfaces as
/// [`StoreError::Corrupt`] at the link that broke, never as a wrong
/// state. Newly discovered `delta → base` edges are recorded in `deps`
/// (the GC retention index). Returns `None` when `oid` is not stored.
///
/// Standalone so [`BranchStore::open`] can resolve while the store is
/// still under construction; chain length is bounded by the backend's
/// snapshot interval at write time, and a corrupted cyclic chain is
/// detected by the id-revisit guard rather than looping.
fn resolve_state_record<B: Backend>(
    backend: &B,
    oid: ObjectId,
    cache: &mut HashMap<ObjectId, Arc<Vec<u8>>>,
    deps: &mut HashMap<ObjectId, ObjectId>,
) -> Result<Option<Resolved>, StoreError> {
    if let Some(bytes) = cache.get(&oid) {
        return Ok(Some((Arc::clone(bytes), 0)));
    }
    // Walk up: the chain of (link id, delta wire bytes) pending resolution.
    let mut pending: Vec<(ObjectId, Vec<u8>)> = Vec::new();
    let mut walking = HashSet::new();
    let mut cursor = oid;
    let mut base_bytes: Arc<Vec<u8>> = loop {
        if !walking.insert(cursor) {
            return Err(StoreError::Corrupt(format!(
                "state {} sits on a cyclic delta chain",
                oid.short()
            )));
        }
        if let Some(bytes) = cache.get(&cursor) {
            break Arc::clone(bytes);
        }
        let Some(record) = backend.get(cursor)? else {
            return if pending.is_empty() {
                Ok(None)
            } else {
                Err(StoreError::Corrupt(format!(
                    "delta chain of state {} references missing base {}",
                    oid.short(),
                    cursor.short()
                )))
            };
        };
        match parse_state_record(&record) {
            Some(StateRecord::Full(canonical)) => {
                let bytes = Arc::new(canonical.to_vec());
                if content_id_of_bytes(&bytes) != cursor {
                    return Err(StoreError::Corrupt(format!(
                        "state snapshot {} does not hash to its address",
                        cursor.short()
                    )));
                }
                cache.insert(cursor, Arc::clone(&bytes));
                break bytes;
            }
            Some(StateRecord::Delta { base, delta }) => {
                pending.push((cursor, delta.to_vec()));
                deps.insert(cursor, base);
                cursor = base;
            }
            None => {
                return Err(StoreError::Corrupt(format!(
                    "object {} is not a state record",
                    cursor.short()
                )))
            }
        }
    };
    // Apply back down, verifying each link against its own address.
    let links = pending.len() as u32;
    while let Some((link, delta_wire)) = pending.pop() {
        let delta = Delta::from_wire(&delta_wire).ok_or_else(|| {
            StoreError::Corrupt(format!("state {} carries a malformed delta", link.short()))
        })?;
        let resolved = delta.apply(&base_bytes).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "delta of state {} does not apply to its base",
                link.short()
            ))
        })?;
        if content_id_of_bytes(&resolved) != link {
            return Err(StoreError::Corrupt(format!(
                "resolved delta chain of state {} does not hash to its address",
                link.short()
            )));
        }
        base_bytes = Arc::new(resolved);
        cache.insert(link, Arc::clone(&base_bytes));
    }
    Ok(Some((base_bytes, links)))
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
/// // Updates go through a mutable handle; a transaction batches them into
/// // one commit.
/// store.branch_mut(&dev)?.transaction(|tx| {
///     tx.apply(&CounterOp::Increment);
///     tx.apply(&CounterOp::Increment);
/// })?;
/// store.branch_mut("main")?.apply(&CounterOp::Increment)?;
/// store.branch_mut("main")?.merge_from(&dev)?;
///
/// // Queries are commit-free and need no `&mut`.
/// assert_eq!(store.read("main", &CounterQuery::Value)?, 3);
/// # Ok(())
/// # }
/// ```
pub struct BranchStore<M: Mrdt, B: Backend = MemoryBackend> {
    graph: CommitGraph<Arc<M>>,
    /// Content address of each commit's *state*, indexed like the graph.
    state_ids: Vec<ObjectId>,
    /// Content address of each *commit record*, indexed like the graph.
    commit_ids: Vec<ObjectId>,
    /// The `(tick, replica)` mint of each commit, indexed like the graph.
    /// Roots and merge commits mint `(0, 0)`; operation commits carry the
    /// timestamp of the event they landed — what the replication-aware
    /// linearizability witness observes.
    mints: Vec<Timestamp>,
    /// Commit content address → graph id (the fetch/ingest lookup).
    commit_index: HashMap<ObjectId, CommitId>,
    /// State content address → first commit carrying it (typed payload
    /// lookup for serving state objects to peers).
    state_index: HashMap<ObjectId, CommitId>,
    branches: BTreeMap<String, BranchInfo>,
    /// Global Lamport tick: unique and happens-before consistent because
    /// the store is the sole timestamp authority (Ψ_ts).
    tick: u64,
    next_replica: u32,
    backend: B,
    memo: MergeMemo<M>,
    /// Observability handles, attached by [`BranchStore::set_metrics`];
    /// `None` keeps every hot path at its uninstrumented cost.
    metrics: Option<Arc<StoreMetrics>>,
    /// Commit boundaries crossed ([`BranchStore::durability_point`]) —
    /// the denominator of the published fsync-coalesce ratio.
    boundaries: u64,
    /// Delta-stored state → its base state: the retention index GC closes
    /// over (a base must outlive every live delta resolving through it)
    /// and the chain-depth oracle commit uses to bound chains at the
    /// backend's snapshot interval.
    delta_deps: HashMap<ObjectId, ObjectId>,
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
        let root_branch = root_branch.into();
        let id = BranchId::new(&root_branch)?;
        if !backend.refs()?.is_empty() {
            return Err(StoreError::Corrupt(
                "backend already holds published refs; reopen it with BranchStore::open \
                 instead of creating a new store over it"
                    .into(),
            ));
        }
        let mut store = BranchStore {
            graph: CommitGraph::new(),
            state_ids: Vec::new(),
            commit_ids: Vec::new(),
            mints: Vec::new(),
            commit_index: HashMap::new(),
            state_index: HashMap::new(),
            branches: BTreeMap::new(),
            tick: 0,
            next_replica: replica_base + 1,
            backend,
            memo: MergeMemo::new(),
            metrics: None,
            boundaries: 0,
            delta_deps: HashMap::new(),
        };
        let root = store.commit(Vec::new(), Arc::new(M::initial()), (0, 0))?;
        store.set_head(&root_branch, root)?;
        store.branches.insert(
            root_branch,
            BranchInfo {
                head: root,
                replica: ReplicaId::new(replica_base),
                id,
            },
        );
        store.durability_point()?;
        Ok(store)
    }

    /// Reopens an **existing** store from the objects and refs a backend
    /// already holds — the typed cold-start path.
    ///
    /// Because the canonical encoding is decodable, a process restart is
    /// a full recovery, not a byte-level salvage: `open` walks every ref
    /// to its commit record, follows parent addresses through the Merkle
    /// graph, decodes each referenced state back to the typed `M`,
    /// rebuilds the [`CommitGraph`], both content-address indexes (so
    /// merges memoize and replication serves immediately), the branch
    /// table, and the Lamport clock (`observe_tick` over every recovered
    /// commit mint and every tick embedded in a recovered state). Every
    /// branch head is byte- and commit-identical to the pre-restart
    /// store: same head commit id, same state bytes, same query answers.
    ///
    /// Branch **replica ids** are reassigned deterministically
    /// (`replica_base + i` in sorted branch-name order; see
    /// [`BranchStore::open_with_base`]) rather than recovered — commit
    /// records carry the mints of *past* operations, not the assignment
    /// table. This is safe: the recovered Lamport clock exceeds every
    /// persisted tick, so post-reopen timestamps are fresh pairs
    /// regardless of which replica id a branch minted before the restart.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the backend has no refs (nothing was
    /// ever published — use [`BranchStore::with_backend`] to create a
    /// store), when a ref or parent points at a missing object, or when
    /// an object fails to parse/decode; [`StoreError::Io`] from the
    /// backend.
    pub fn open(backend: B) -> Result<Self, StoreError> {
        Self::open_with_base(backend, 0)
    }

    /// [`BranchStore::open`], minting post-reopen replica ids from
    /// `replica_base` — the reopen counterpart of
    /// [`BranchStore::with_backend_and_base`] for stores that live in a
    /// replicating fleet with disjoint id ranges.
    ///
    /// # Errors
    ///
    /// As [`BranchStore::open`].
    pub fn open_with_base(backend: B, replica_base: u32) -> Result<Self, StoreError> {
        let refs = backend.refs()?;
        if refs.is_empty() {
            return Err(StoreError::Corrupt(
                "cannot reopen: backend holds no refs (create a new store with with_backend)"
                    .into(),
            ));
        }

        // Phase 1: walk the Merkle graph from every ref, collecting each
        // reachable commit's metadata. Iterative — histories are deep.
        let mut metas: BTreeMap<ObjectId, CommitMeta> = BTreeMap::new();
        let mut stack: Vec<ObjectId> = refs.iter().map(|(_, oid)| *oid).collect();
        while let Some(oid) = stack.pop() {
            if metas.contains_key(&oid) {
                continue;
            }
            let bytes = backend.get(oid)?.ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "reachable commit {} missing from backend",
                    oid.short()
                ))
            })?;
            let meta = parse_commit_record(&bytes).ok_or_else(|| {
                StoreError::Corrupt(format!("object {} is not a commit record", oid.short()))
            })?;
            stack.extend(meta.parents.iter().copied());
            metas.insert(oid, meta);
        }

        // Phase 2: topological order, parents first (Kahn; deterministic
        // because the ready set is ordered by commit address).
        let mut children: HashMap<ObjectId, Vec<ObjectId>> = HashMap::new();
        let mut pending: HashMap<ObjectId, usize> = HashMap::new();
        for (oid, meta) in &metas {
            pending.insert(*oid, meta.parents.len());
            for p in &meta.parents {
                children.entry(*p).or_default().push(*oid);
            }
        }
        let mut ready: BTreeSet<ObjectId> = pending
            .iter()
            .filter(|(_, n)| **n == 0)
            .map(|(o, _)| *o)
            .collect();

        // Phase 3: decode states (each distinct state object once) and
        // install commits into the graph + indexes. Nothing is written:
        // the backend already holds every byte.
        let mut store = BranchStore {
            graph: CommitGraph::new(),
            state_ids: Vec::new(),
            commit_ids: Vec::new(),
            mints: Vec::new(),
            commit_index: HashMap::new(),
            state_index: HashMap::new(),
            branches: BTreeMap::new(),
            tick: 0,
            next_replica: replica_base,
            backend,
            memo: MergeMemo::new(),
            metrics: None,
            boundaries: 0,
            delta_deps: HashMap::new(),
        };
        let mut resolved: HashMap<ObjectId, Arc<Vec<u8>>> = HashMap::new();
        let mut typed: HashMap<ObjectId, Arc<M>> = HashMap::new();
        let mut installed = 0usize;
        while let Some(oid) = ready.pop_first() {
            let meta = &metas[&oid];
            let state = match typed.get(&meta.state) {
                Some(s) => Arc::clone(s),
                None => {
                    // Resolve the stored record (a snapshot, or a delta
                    // chain down to one) to full canonical bytes —
                    // hash-verified per link — then decode. The resolved
                    // cache persists across commits, so a chain of K
                    // deltas costs K applications for the whole reopen,
                    // not K per state.
                    let (bytes, _) = resolve_state_record(
                        &store.backend,
                        meta.state,
                        &mut resolved,
                        &mut store.delta_deps,
                    )?
                    .ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "commit {} references missing state {}",
                            oid.short(),
                            meta.state.short()
                        ))
                    })?;
                    let m: M = decode_canonical(&bytes).ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "state {} does not decode as typed state",
                            meta.state.short()
                        ))
                    })?;
                    store.tick = store.tick.max(m.max_tick());
                    let arc = Arc::new(m);
                    typed.insert(meta.state, Arc::clone(&arc));
                    arc
                }
            };
            store.tick = store.tick.max(meta.tick);
            let parent_cids: Vec<CommitId> =
                meta.parents.iter().map(|p| store.commit_index[p]).collect();
            store.install_commit(
                parent_cids,
                state,
                meta.state,
                oid,
                (meta.tick, meta.replica),
            );
            installed += 1;
            for child in children.get(&oid).into_iter().flatten() {
                let n = pending.get_mut(child).expect("child is a known commit");
                *n -= 1;
                if *n == 0 {
                    ready.insert(*child);
                }
            }
        }
        if installed != metas.len() {
            // Unreachable with honest SHA-256 (a parent cycle needs a hash
            // cycle), but never loop forever on a corrupted index.
            return Err(StoreError::Corrupt(
                "commit records form a cycle; backend index corrupt".into(),
            ));
        }

        // Phase 4: the branch table, from the refs (sorted by name).
        for (i, (name, oid)) in refs.iter().enumerate() {
            let id = BranchId::new(name)?;
            let head = store.commit_index[oid];
            store.branches.insert(
                name.clone(),
                BranchInfo {
                    head,
                    replica: ReplicaId::new(replica_base + i as u32),
                    id,
                },
            );
        }
        store.next_replica = replica_base + refs.len() as u32;
        Ok(store)
    }

    /// Publishes a state + commit record to the backend, then appends the
    /// commit to the in-memory DAG. Backend first: a failed publish leaves
    /// the graph untouched (the orphaned object, if any, is harmless in a
    /// content-addressed store).
    fn commit(
        &mut self,
        parents: Vec<CommitId>,
        state: Arc<M>,
        mint: (u64, u32),
    ) -> Result<CommitId, StoreError> {
        let canonical = canonical_bytes(state.as_ref());
        let state_id = content_id_of_bytes(&canonical);
        self.put_state(
            state_id,
            &canonical,
            state.as_ref(),
            parents.first().copied(),
        )?;
        let parent_ids: Vec<ObjectId> =
            parents.iter().map(|p| self.commit_ids[p.index()]).collect();
        let record = commit_record(&parent_ids, state_id, mint.0, mint.1);
        let commit_oid = self.backend.put(&record)?;
        Ok(self.install_commit(parents, state, state_id, commit_oid, mint))
    }

    /// Persists one state under its content address, choosing the storage
    /// form: a structural delta against the (first) parent's state when
    /// the backend's snapshot interval allows the chain to grow and the
    /// delta record is actually smaller, a full snapshot otherwise. The
    /// address is `sha256(canonical)` either way — the delta is a storage
    /// encoding, and every read re-verifies that hash after resolution.
    fn put_state(
        &mut self,
        state_id: ObjectId,
        canonical: &[u8],
        state: &M,
        parent: Option<CommitId>,
    ) -> Result<(), StoreError> {
        if self.backend.contains(state_id)? {
            // Interned: an equal state was stored before (under either
            // form). Route the no-op through `put_keyed` so the backend's
            // intern counters still see the sharing.
            return self
                .backend
                .put_keyed(state_id, &state_record_full(canonical));
        }
        if let Some(pc) = parent {
            let base_id = self.state_ids[pc.index()];
            // `base_id != state_id` is implied: an equal state would have
            // hit the intern check above. Check the chain bound before
            // paying for the diff.
            let interval = self.backend.snapshot_interval();
            if interval > 0 && self.chain_depth(base_id) + 1 < interval {
                let parent_state = self.graph.payload(pc).clone();
                let delta = state.diff(parent_state.as_ref());
                if self.try_put_delta(state_id, base_id, &delta.to_wire(), canonical.len())? {
                    return Ok(());
                }
            }
        }
        self.backend
            .put_keyed(state_id, &state_record_full(canonical))?;
        if let Some(m) = &self.metrics {
            m.full_states_total.inc();
        }
        Ok(())
    }

    /// Lands a state in delta form when the chain bound and the size test
    /// allow it: the chain through `base` must stay under the backend's
    /// snapshot interval (so every resolution is bounded by
    /// `interval - 1` links) and the delta record must actually be
    /// smaller than the full record. Returns `false` — nothing written —
    /// when either test fails; the caller stores a full snapshot instead.
    fn try_put_delta(
        &mut self,
        state_id: ObjectId,
        base_id: ObjectId,
        delta_wire: &[u8],
        canonical_len: usize,
    ) -> Result<bool, StoreError> {
        let interval = self.backend.snapshot_interval();
        if interval == 0 || self.chain_depth(base_id) + 1 >= interval {
            return Ok(false);
        }
        let record = state_record_delta(base_id, delta_wire);
        let full_record_len = 1 + canonical_len;
        if record.len() >= full_record_len {
            return Ok(false);
        }
        self.backend.put_keyed(state_id, &record)?;
        self.delta_deps.insert(state_id, base_id);
        if let Some(m) = &self.metrics {
            m.delta_states_total.inc();
            m.delta_bytes_total.add(record.len() as u64);
            m.delta_saved_bytes_total
                .add(full_record_len.saturating_sub(record.len()) as u64);
            m.delta_chain_len
                .observe(u64::from(self.chain_depth(state_id)));
        }
        Ok(true)
    }

    /// How many delta links sit between a stored state and its snapshot
    /// base (0 for a snapshot). Bounded by the snapshot interval at write
    /// time, so the walk is O(interval).
    fn chain_depth(&self, mut id: ObjectId) -> u32 {
        let mut depth = 0;
        while let Some(base) = self.delta_deps.get(&id) {
            depth += 1;
            id = *base;
        }
        depth
    }

    /// Appends an already-published commit to the in-memory structures:
    /// graph, id ledgers, and both lookup indexes. The backend holds the
    /// state bytes under `state_id` and the record bytes under
    /// `commit_oid` before this is called (by [`BranchStore::commit`], the
    /// ingest path, or — on reopen — by the segment file itself).
    fn install_commit(
        &mut self,
        parents: Vec<CommitId>,
        state: Arc<M>,
        state_id: ObjectId,
        commit_oid: ObjectId,
        mint: (u64, u32),
    ) -> CommitId {
        let cid = if parents.is_empty() {
            self.graph.add_root(state)
        } else {
            self.graph
                .add_commit(parents, state)
                .expect("callers pass live parents")
        };
        self.state_ids.push(state_id);
        self.commit_ids.push(commit_oid);
        self.mints
            .push(Timestamp::new(mint.0, ReplicaId::new(mint.1)));
        self.commit_index.insert(commit_oid, cid);
        self.state_index.entry(state_id).or_insert(cid);
        cid
    }

    /// Points the branch's backend ref at a commit (the in-memory
    /// `branches` entry is the caller's to update).
    fn set_head(&mut self, branch: &str, head: CommitId) -> Result<(), StoreError> {
        self.backend.set_ref(branch, self.commit_ids[head.index()])
    }

    /// Marks the end of one logical commit (an apply, a merge, a fork, a
    /// whole transaction, an ingested pack): the backend schedules
    /// durability here per its flush policy — the group-commit seam that
    /// turns N record appends into at most one fsync.
    pub(crate) fn durability_point(&mut self) -> Result<(), StoreError> {
        self.boundaries += 1;
        self.backend.commit_boundary()
    }

    /// The branch names, sorted lexicographically.
    ///
    /// The order is **guaranteed deterministic** across backends and runs
    /// (branches live in an ordered map), so iteration-driven artefacts —
    /// [`BranchStore::to_dot`] output, convergence sweeps, test fixtures —
    /// are stable.
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
        ))
    }

    /// A mutable handle to an existing branch, for `apply`, `fork`,
    /// `merge_from` and transactions.
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

    fn info(&self, branch: &str) -> Result<&BranchInfo, StoreError> {
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
        Ok(self.state_ids[self.head(branch)?.index()])
    }

    /// The current state of a branch (cheap `Arc` clone).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state(&self, branch: &str) -> Result<Arc<M>, StoreError> {
        Ok(self.graph.payload(self.head(branch)?).clone())
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
        let out = self.graph.payload(self.head(branch)?).query(q);
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
        let head = self.head(from)?;
        self.set_head(&new, head)?;
        let replica = ReplicaId::new(self.next_replica);
        self.next_replica += 1;
        self.branches.insert(
            new,
            BranchInfo {
                head,
                replica,
                id: id.clone(),
            },
        );
        self.durability_point()?;
        Ok(id)
    }

    pub(crate) fn do_apply(&mut self, branch: &str, op: &M::Op) -> Result<M::Value, StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let (head, replica) = {
            let info = self.info(branch)?;
            (info.head, info.replica)
        };
        self.tick += 1;
        let t = Timestamp::new(self.tick, replica);
        let (next, value) = self.graph.payload(head).apply(op, t);
        let new_head = self.commit(vec![head], Arc::new(next), (t.tick(), t.replica().as_u32()))?;
        self.set_head(branch, new_head)?;
        self.branches
            .get_mut(branch)
            .expect("branch checked above")
            .head = new_head;
        self.durability_point()?;
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
    /// virtual merges by content-address triple.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] for missing branches;
    /// [`StoreError::NoCommonAncestor`] for unrelated histories (impossible
    /// for branches forked from one root).
    pub fn lca_state(&self, b1: &str, b2: &str) -> Result<Arc<M>, StoreError> {
        let (c1, c2) = (self.head(b1)?, self.head(b2)?);
        let (state, _, _) = self.virtual_lca(&[c1], &[c2])?;
        Ok(state)
    }

    /// Recursive virtual merge of the merge bases of two virtual commits
    /// (each given by its real leaf set), exactly like git merge-recursive
    /// — but materialising nothing. Returns the LCA state, its content
    /// address, and the leaf set describing the virtual ancestor.
    ///
    /// Criss-cross rounds re-derive the same `(lca, left, right)` triples,
    /// so these merges are where the memo pays.
    #[allow(clippy::type_complexity)]
    fn virtual_lca(
        &self,
        left: &[CommitId],
        right: &[CommitId],
    ) -> Result<(Arc<M>, ObjectId, Vec<CommitId>), StoreError> {
        let bases = self.graph.merge_bases_of(left, right);
        let Some((&first, rest)) = bases.split_first() else {
            return Err(StoreError::NoCommonAncestor);
        };
        let mut state = self.graph.payload(first).clone();
        let mut sid = self.state_ids[first.index()];
        let mut leaves = vec![first];
        for &base in rest {
            let (sub_state, sub_sid, _) = self.virtual_lca(&leaves, &[base])?;
            let base_sid = self.state_ids[base.index()];
            // merged_with_id caches the result's content address with the
            // entry, so repeated criss-cross derivations skip both the
            // merge AND the O(state) re-hash.
            let (merged, merged_sid) = {
                let graph = &self.graph;
                let virt_state = Arc::clone(&state);
                self.memo.merged_with_id((sub_sid, sid, base_sid), move || {
                    M::merge(&sub_state, &virt_state, graph.payload(base))
                })
            };
            sid = merged_sid;
            state = merged;
            leaves.push(base);
        }
        Ok((state, sid, leaves))
    }

    pub(crate) fn do_merge(&mut self, into: &str, from: &str) -> Result<(), StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let (c_into, c_from) = (self.head(into)?, self.head(from)?);
        if self.graph.is_ancestor(c_from, c_into) {
            return Ok(()); // nothing new to integrate
        }
        let (lca_state, lca_sid, _) = self.virtual_lca(&[c_into], &[c_from])?;
        let key = (
            lca_sid,
            self.state_ids[c_into.index()],
            self.state_ids[c_from.index()],
        );
        let merged = {
            let graph = &self.graph;
            self.memo.merged(key, || {
                M::merge(&lca_state, graph.payload(c_into), graph.payload(c_from))
            })
        };
        let new_head = self.commit(vec![c_into, c_from], merged, (0, 0))?;
        self.set_head(into, new_head)?;
        self.branches
            .get_mut(into)
            .expect("branch checked above")
            .head = new_head;
        self.durability_point()?;
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
    pub fn graph(&self) -> &CommitGraph<Arc<M>> {
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

    /// Flushes the backend to stable storage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.backend.flush()
    }

    /// The backend objects reachable from the branch table: every branch
    /// head, every ancestor commit record, and the state each one
    /// references — the commit graph *is* the reachability index, so
    /// tracing is a parent walk, no backend reads.
    ///
    /// Everything else in the backend is garbage by construction:
    /// orphaned fork roots whose branch was never created, superseded
    /// scratch states, objects a rejected push transferred but never
    /// referenced.
    pub fn live_objects(&self) -> HashSet<ObjectId> {
        let mut live = HashSet::new();
        let mut stack: Vec<CommitId> = self.branches.values().map(|b| b.head).collect();
        let mut seen: HashSet<CommitId> = stack.iter().copied().collect();
        while let Some(c) = stack.pop() {
            live.insert(self.commit_ids[c.index()]);
            live.insert(self.state_ids[c.index()]);
            for &p in self.graph.parents(c) {
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        // A live delta-stored state pins its whole chain down to the full
        // snapshot: resolution reads every link, so a base must survive
        // even when no reachable commit carries it any more (the carrying
        // commits may be exactly what this sweep is discarding).
        let mut chain: Vec<ObjectId> = live.iter().copied().collect();
        while let Some(id) = chain.pop() {
            if let Some(base) = self.delta_deps.get(&id) {
                if live.insert(*base) {
                    chain.push(*base);
                }
            }
        }
        live
    }

    /// What a [`BranchStore::collect_garbage`] would reclaim, without
    /// reclaiming it — liveness traced by [`BranchStore::live_objects`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend read failure.
    pub fn sweep_stats(&self) -> Result<SweepStats, StoreError> {
        self.backend.sweep_stats(&self.live_objects())
    }

    /// Reference-tracing garbage collection: marks every object reachable
    /// from a branch head ([`BranchStore::live_objects`]) and has the
    /// backend reclaim the rest (for
    /// [`SegmentBackend`](crate::SegmentBackend): rotate, then compact the
    /// sealed files into one pack holding only live objects).
    ///
    /// Safe by construction: the store publishes state and commit bytes
    /// *before* the ref that makes them reachable, `&mut self` excludes
    /// concurrent writers mid-publish, and the trace runs over the
    /// in-memory graph — so no object reachable from a published ref can
    /// be classified dead.
    ///
    /// Collected commits take their Lamport mints with them: a later
    /// [`BranchStore::open`] recovers the clock as the maximum over
    /// *reachable* history (the live store's clock never moves
    /// backwards, so in-process timestamps stay unique either way).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn collect_garbage(&mut self) -> Result<SweepStats, StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let live = self.live_objects();
        let stats = self.backend.collect_garbage(&live)?;
        // Forget the collected addresses in the replication indexes too:
        // `ingest_pack` skips objects `has_commit` claims to know, and a
        // stale index entry would let a re-pushed collected commit land
        // without its bytes.
        self.commit_index.retain(|oid, _| live.contains(oid));
        self.state_index.retain(|oid, _| live.contains(oid));
        // Collected delta-stored states drop out of the retention index;
        // every surviving entry's base is in `live` (the closure in
        // `live_objects` put it there), so surviving chains stay whole.
        self.delta_deps.retain(|oid, _| live.contains(oid));
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            m.gc_sweeps_total.inc();
            m.gc_dead_objects_total.add(stats.dead_objects);
            m.gc_dead_bytes_total.add(stats.dead_bytes);
            m.gc_micros.observe(micros);
            m.trace("gc", "", stats.dead_objects);
        }
        Ok(stats)
    }

    /// Compacts backend storage for read efficiency without reclaiming
    /// anything (see [`Backend::compact`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn compact_storage(&mut self) -> Result<(), StoreError> {
        let before = self
            .metrics
            .as_ref()
            .map(|_| self.backend.storage_info().disk_bytes);
        self.backend.compact()?;
        if let (Some(m), Some(before)) = (&self.metrics, before) {
            let released = before.saturating_sub(self.backend.storage_info().disk_bytes);
            m.compactions_total.inc();
            m.compact_bytes_total.add(released);
            m.trace("compact", "", released);
        }
        Ok(())
    }

    /// Merge-cache hit/miss counters (for the bench pipeline).
    pub fn merge_cache_stats(&self) -> MergeCacheStats {
        self.memo.stats()
    }

    /// Enables or disables merge memoization (disabling clears the cache).
    /// Used by the equivalence suite to check cached ≡ uncached.
    pub fn set_merge_cache(&self, enabled: bool) {
        self.memo.set_enabled(enabled);
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
    /// structures (merge-memo counters, backend
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
    }
}

// ---------------------------------------------------------------------------
// Replication surface: graph walks, object ingest, tracking refs
// ---------------------------------------------------------------------------

/// What one [`BranchStore::ingest_pack`] landed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Previously unknown commits that entered the graph.
    pub commits: u64,
    /// Verified state objects the pack carried.
    pub states: u64,
    /// The largest Lamport tick the pack carried (mint ticks and ticks
    /// embedded in states); the store's clock has been advanced past it.
    pub max_tick: u64,
    /// State objects that arrived in delta form ([`PackState::Delta`]).
    pub delta_states: u64,
    /// Wire bytes the delta forms saved: resolved canonical size minus
    /// delta size, summed over every [`PackState::Delta`] received.
    pub delta_saved_bytes: u64,
}

/// A state object as it arrives in a pack: the full canonical bytes, or
/// a delta against a base state the receiver is expected to hold (its
/// `haves` proved it during negotiation). Either way the object's
/// identity is `id = sha256(full canonical bytes)` — a delta is verified
/// by resolving it and re-hashing before anything is written.
#[derive(Clone, Copy, Debug)]
pub enum PackState<'a> {
    /// Full canonical encoding; must hash to `id`.
    Full {
        /// Advertised content address.
        id: ObjectId,
        /// The canonical bytes.
        bytes: &'a [u8],
    },
    /// A [`peepul_core::Delta`] whose resolution against `base`'s
    /// canonical bytes must hash to `id`.
    Delta {
        /// Advertised content address of the *resolved* state.
        id: ObjectId,
        /// Address of the base state the delta applies to. Must be held
        /// by this store or appear earlier in the same pack.
        base: ObjectId,
        /// Delta wire bytes.
        delta: &'a [u8],
    },
}

impl PackState<'_> {
    /// The advertised content address of the (resolved) state.
    pub fn id(&self) -> ObjectId {
        match self {
            PackState::Full { id, .. } | PackState::Delta { id, .. } => *id,
        }
    }
}

/// What [`BranchStore::track`] did to the branch ref.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TrackOutcome {
    /// The branch did not exist and was created at the target commit.
    Created,
    /// The branch existed and its head was an ancestor of the target: the
    /// ref moved forward without minting a commit (a Git fast-forward).
    FastForwarded,
    /// The branch already pointed at the target.
    Unchanged,
    /// The branch has local history the target does not contain. [`track`]
    /// leaves the ref alone in this case; [`force_track`] moves it anyway.
    ///
    /// [`track`]: BranchStore::track
    /// [`force_track`]: BranchStore::force_track
    Diverged,
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
        self.state_ids[c.index()]
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

    /// The raw commit-record bytes stored under `oid`, or `None` when the
    /// store has no such commit. These bytes are what travels on the wire
    /// during a fetch; [`parse_commit_record`] reads them back.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Corrupt`] from the backend.
    pub fn commit_record_bytes(&self, oid: ObjectId) -> Result<Option<Vec<u8>>, StoreError> {
        if !self.has_commit(oid) {
            return Ok(None);
        }
        self.backend.get(oid)
    }

    /// The typed state stored under the state address `oid`, if any commit
    /// in this store carries it (cheap `Arc` clone).
    pub fn state_payload(&self, oid: ObjectId) -> Option<Arc<M>> {
        self.state_index
            .get(&oid)
            .map(|c| self.graph.payload(*c).clone())
    }

    /// The canonical bytes of the state stored under `oid`, if any commit
    /// carries it. A full snapshot costs one backend read; a delta-stored
    /// state is resolved through its chain (each link hash-verified, at
    /// most `snapshot_interval - 1` links). The returned bytes are exactly
    /// what travels in a fetch/push and hash to `oid` — the canonical
    /// encoding **is** the wire format, so serving costs zero re-encodes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Corrupt`] from the backend,
    /// including a delta chain that fails to resolve to bytes hashing to
    /// their address.
    pub fn state_bytes(&self, oid: ObjectId) -> Result<Option<Vec<u8>>, StoreError> {
        if !self.state_index.contains_key(&oid) {
            return Ok(None);
        }
        let mut cache = HashMap::new();
        let mut deps = HashMap::new();
        let Some((bytes, links)) = resolve_state_record(&self.backend, oid, &mut cache, &mut deps)?
        else {
            return Ok(None);
        };
        if let Some(m) = &self.metrics {
            if links > 0 {
                m.delta_resolves_total.inc();
            }
        }
        Ok(Some(bytes.as_ref().clone()))
    }

    /// The stored **delta form** of the state under `oid`: `Some((base,
    /// delta_wire))` when the backend holds it as a delta record, `None`
    /// when it is a full snapshot (or not held at all). The sync server
    /// uses this to ship O(delta) bytes when the peer's `haves` prove it
    /// holds `base` — the delta bytes go out exactly as stored, and the
    /// receiver re-hashes the resolution against `oid` before trusting it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Corrupt`] from the backend.
    pub fn state_stored_delta(
        &self,
        oid: ObjectId,
    ) -> Result<Option<(ObjectId, Vec<u8>)>, StoreError> {
        if !self.state_index.contains_key(&oid) {
            return Ok(None);
        }
        let Some(record) = self.backend.get(oid)? else {
            return Ok(None);
        };
        match parse_state_record(&record) {
            Some(StateRecord::Delta { base, delta }) => Ok(Some((base, delta.to_vec()))),
            Some(StateRecord::Full(_)) => Ok(None),
            None => Err(StoreError::Corrupt(format!(
                "object {} is not a state record",
                oid.short()
            ))),
        }
    }

    /// Verifies and lands a pack of commit records and canonical state
    /// objects — the single ingest path replication uses.
    ///
    /// Verification is one hash and (for states) one decode per object,
    /// against the bytes exactly as they arrived — there is no second
    /// serialization to cross-check because there is no second
    /// serialization:
    ///
    /// * each **state** object's bytes must hash to its advertised id and
    ///   decode as a canonical `M` (undecodable or non-canonical bytes
    ///   are corruption, same as a wrong hash);
    /// * each **commit** record's bytes must hash to its advertised id;
    ///   its parents must precede it (in the pack or the store) and its
    ///   state address must name a state verified above or already held.
    ///
    /// The whole pack is verified **before anything is written**, so a
    /// corrupt object anywhere leaves the store untouched. Verified
    /// state bytes are then published in their one-byte state-record
    /// envelope with [`Backend::put_keyed`] and commit records with
    /// [`Backend::put_known`] (no re-hash), the commits enter the graph
    /// parents-first, and the
    /// Lamport clock advances past every tick the pack carried (the
    /// receive rule). Already-known commits are skipped idempotently,
    /// and **only states referenced by a freshly ingested commit are
    /// persisted** — a peer cannot grow this store's append-only backend
    /// with valid-but-unreferenced state objects.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptObject`] on a hash mismatch;
    /// [`StoreError::Corrupt`] on undecodable objects, missing parents or
    /// unresolvable state references — for these verification failures
    /// nothing has been ingested. [`StoreError::Io`] from the backend
    /// during the landing phase can leave a *prefix* of the pack
    /// ingested; the store is still consistent (every landed commit is
    /// fully published, and the Lamport clock was advanced past the whole
    /// pack's ticks before landing began, so the receive rule holds for
    /// the prefix), and because ingest is idempotent and
    /// content-addressed, re-ingesting the same pack completes it.
    pub fn ingest_pack(
        &mut self,
        commits: &[(ObjectId, &[u8])],
        states: &[(ObjectId, &[u8])],
    ) -> Result<IngestReport, StoreError> {
        let full: Vec<PackState<'_>> = states
            .iter()
            .map(|(id, bytes)| PackState::Full { id: *id, bytes })
            .collect();
        self.ingest_pack_states(commits, &full)
    }

    /// [`BranchStore::ingest_pack`] for packs whose state objects may
    /// arrive in **delta form** ([`PackState::Delta`]) — the receiving
    /// half of delta sync. Deltas are resolved during verification
    /// (against a base held by this store or appearing earlier in the
    /// pack), and the resolved bytes must hash to the advertised id and
    /// decode canonically — exactly the checks full states get, so a
    /// drifted or hostile delta fails before anything is written.
    ///
    /// A verified delta state *lands* in delta form too, when its base is
    /// persisted and the chain bound allows — so an O(delta) fetch costs
    /// O(delta) disk as well as O(delta) wire. Otherwise the resolved
    /// snapshot is stored.
    ///
    /// # Errors
    ///
    /// As [`BranchStore::ingest_pack`]; additionally a delta that names a
    /// base neither held nor in the pack prefix, fails to apply, or
    /// resolves to bytes that do not hash to its advertised id is
    /// [`StoreError::Corrupt`] / [`StoreError::CorruptObject`] with
    /// nothing ingested.
    pub fn ingest_pack_states(
        &mut self,
        commits: &[(ObjectId, &[u8])],
        states: &[PackState<'_>],
    ) -> Result<IngestReport, StoreError> {
        // Phase 1: verify every state — resolve deltas, then one hash and
        // one decode per object, exactly as for full states. No writes.
        let mut typed: HashMap<ObjectId, Arc<M>> = HashMap::with_capacity(states.len());
        let mut resolved: HashMap<ObjectId, Vec<u8>> = HashMap::with_capacity(states.len());
        let mut max_tick = 0u64;
        let mut delta_states = 0u64;
        let mut delta_saved_bytes = 0u64;
        for s in states {
            let (id, bytes) = match *s {
                PackState::Full { id, bytes } => (id, bytes.to_vec()),
                PackState::Delta { id, base, delta } => {
                    let base_bytes = match resolved.get(&base) {
                        Some(b) => b.clone(),
                        None => self.state_bytes(base)?.ok_or_else(|| {
                            StoreError::Corrupt(format!(
                                "delta state {} references base {} that is neither in the pack \
                                 prefix nor in the store",
                                id.short(),
                                base.short()
                            ))
                        })?,
                    };
                    let d = Delta::from_wire(delta).ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "state {} carries a malformed delta",
                            id.short()
                        ))
                    })?;
                    let bytes = d.apply(&base_bytes).ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "delta of state {} does not apply to its base",
                            id.short()
                        ))
                    })?;
                    delta_states += 1;
                    delta_saved_bytes += (bytes.len() as u64).saturating_sub(delta.len() as u64);
                    (id, bytes)
                }
            };
            let actual = content_id_of_bytes(&bytes);
            if actual != id {
                return Err(StoreError::CorruptObject {
                    expected: id,
                    actual,
                });
            }
            let m: M = decode_canonical(&bytes).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "state object {} is not a canonical state encoding",
                    id.short()
                ))
            })?;
            max_tick = max_tick.max(m.max_tick());
            typed.insert(id, Arc::new(m));
            resolved.insert(id, bytes);
        }

        // Phase 2: verify every commit record — one hash, plus structural
        // checks against the store ∪ the pack prefix. Still no writes.
        let mut incoming: HashSet<ObjectId> = HashSet::new();
        let mut fresh: Vec<(ObjectId, CommitMeta, &[u8])> = Vec::new();
        for (id, bytes) in commits {
            let actual = content_id_of_bytes(bytes);
            if actual != *id {
                return Err(StoreError::CorruptObject {
                    expected: *id,
                    actual,
                });
            }
            if self.has_commit(*id) || incoming.contains(id) {
                continue; // idempotent re-ingest
            }
            let meta = parse_commit_record(bytes).ok_or_else(|| {
                StoreError::Corrupt(format!("malformed commit record {}", id.short()))
            })?;
            for p in &meta.parents {
                if !self.has_commit(*p) && !incoming.contains(p) {
                    return Err(StoreError::Corrupt(format!(
                        "ingest of {} before its parent {}",
                        id.short(),
                        p.short()
                    )));
                }
            }
            if !typed.contains_key(&meta.state) && !self.state_index.contains_key(&meta.state) {
                return Err(StoreError::Corrupt(format!(
                    "commit {} references state {} that is neither in the pack nor in the store",
                    id.short(),
                    meta.state.short()
                )));
            }
            max_tick = max_tick.max(meta.tick);
            incoming.insert(*id);
            fresh.push((*id, meta, bytes));
        }

        // Verification is complete: advance the Lamport clock *before*
        // landing, so even if a backend Io error strands a prefix of the
        // pack, every commit visible through the public API already had
        // its ticks observed (the receive rule holds for the prefix).
        self.observe_tick(max_tick);

        // Phase 3: land. Verified bytes go down without a second hash —
        // but only states some fresh commit pins: persisting unreferenced
        // (if valid) objects would let a peer grow the backend forever.
        // Pack order guarantees a delta's base (when it is in the pack)
        // lands before its dependants, so the `contains` check below sees
        // it; a base not pinned by any fresh commit simply fails the
        // check and the dependant lands as a snapshot.
        let mut needed: HashSet<ObjectId> = fresh.iter().map(|(_, m, _)| m.state).collect();
        for s in states {
            let id = s.id();
            if !needed.remove(&id) {
                continue;
            }
            let canonical = &resolved[&id];
            if let PackState::Delta { base, delta, .. } = *s {
                if self.backend.contains(base)?
                    && self.try_put_delta(id, base, delta, canonical.len())?
                {
                    continue;
                }
            }
            self.backend.put_keyed(id, &state_record_full(canonical))?;
            if let Some(m) = &self.metrics {
                m.full_states_total.inc();
            }
        }
        for (id, meta, bytes) in &fresh {
            let state = match typed.get(&meta.state) {
                Some(s) => Arc::clone(s),
                None => self
                    .state_payload(meta.state)
                    .expect("checked in phase 2: state is in pack or store"),
            };
            let parent_cids: Vec<CommitId> = meta
                .parents
                .iter()
                .map(|p| self.find_commit(*p).expect("checked in phase 2"))
                .collect();
            self.backend.put_known(*id, bytes)?;
            self.install_commit(
                parent_cids,
                state,
                meta.state,
                *id,
                (meta.tick, meta.replica),
            );
        }
        // One pack, one durability point — however many objects landed.
        self.durability_point()?;
        let report = IngestReport {
            commits: fresh.len() as u64,
            states: states.len() as u64,
            max_tick,
            delta_states,
            delta_saved_bytes,
        };
        if let Some(m) = &self.metrics {
            m.ingest_packs_total.inc();
            m.ingest_commits_total.add(report.commits);
            m.ingest_states_total.add(report.states);
            m.trace("ingest_pack", "", report.commits);
        }
        Ok(report)
    }

    /// The commits reachable from `wants` but not from `haves` — the
    /// object-negotiation walk of a fetch, answered entirely from the
    /// Merkle structure. Returned **parents before children**, so a
    /// receiver can ingest the list in order. Unknown ids on either side
    /// are ignored (a peer may advertise commits this store never saw).
    pub fn commits_between(&self, wants: &[ObjectId], haves: &[ObjectId]) -> Vec<CommitId> {
        let mut known: HashSet<CommitId> = HashSet::new();
        let mut stack: Vec<CommitId> = haves.iter().filter_map(|o| self.find_commit(*o)).collect();
        while let Some(c) = stack.pop() {
            if known.insert(c) {
                stack.extend(self.graph.parents(c).iter().copied());
            }
        }
        let mut missing: HashSet<CommitId> = HashSet::new();
        let mut stack: Vec<CommitId> = wants.iter().filter_map(|o| self.find_commit(*o)).collect();
        while let Some(c) = stack.pop() {
            if known.contains(&c) || !missing.insert(c) {
                continue;
            }
            stack.extend(self.graph.parents(c).iter().copied());
        }
        let mut out: Vec<CommitId> = missing.into_iter().collect();
        // Parents have strictly smaller generations, so ascending
        // generation order is a topological order.
        out.sort_by_key(|c| (self.graph.generation(*c), *c));
        out
    }

    /// Points branch `name` at an already-ingested commit, creating the
    /// branch or fast-forwarding it — how a fetch lands a remote head as a
    /// tracking branch, and how a pull fast-forwards instead of minting a
    /// redundant merge commit. Never moves a ref backwards or sideways:
    /// a diverged branch is reported as [`TrackOutcome::Diverged`] and left
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when `target` is not a commit of this store;
    /// [`StoreError::InvalidBranchName`] for an illegal new name;
    /// [`StoreError::Io`] if publishing the ref fails.
    pub fn track(&mut self, name: &str, target: ObjectId) -> Result<TrackOutcome, StoreError> {
        self.track_inner(name, target, false)
    }

    /// Like [`BranchStore::track`], but moves the ref even when the branch
    /// has diverged (discarding no commits — the old history stays in the
    /// graph). Fetch uses this for its own `remote/…` tracking refs, which
    /// mirror the peer and carry no local work.
    ///
    /// # Errors
    ///
    /// As [`BranchStore::track`].
    pub fn force_track(
        &mut self,
        name: &str,
        target: ObjectId,
    ) -> Result<TrackOutcome, StoreError> {
        self.track_inner(name, target, true)
    }

    fn track_inner(
        &mut self,
        name: &str,
        target: ObjectId,
        force: bool,
    ) -> Result<TrackOutcome, StoreError> {
        let head = self.find_commit(target).ok_or_else(|| {
            StoreError::Corrupt(format!("track target {} not ingested", target.short()))
        })?;
        match self.branches.get(name) {
            None => {
                let id = BranchId::new(name)?;
                self.set_head(name, head)?;
                let replica = ReplicaId::new(self.next_replica);
                self.next_replica += 1;
                self.branches
                    .insert(name.to_owned(), BranchInfo { head, replica, id });
                self.durability_point()?;
                Ok(TrackOutcome::Created)
            }
            Some(info) if info.head == head => Ok(TrackOutcome::Unchanged),
            Some(info) => {
                let fast_forward = self.graph.is_ancestor(info.head, head);
                if !fast_forward && !force {
                    return Ok(TrackOutcome::Diverged);
                }
                self.set_head(name, head)?;
                self.branches.get_mut(name).expect("branch checked").head = head;
                self.durability_point()?;
                Ok(if fast_forward {
                    TrackOutcome::FastForwarded
                } else {
                    TrackOutcome::Diverged
                })
            }
        }
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

impl<M: Mrdt, B: Backend + Clone> Clone for BranchStore<M, B> {
    /// Forks the whole world: an independent store with the same history,
    /// branches, clock, backend contents and merge memo. States are
    /// `Arc`-shared, so the cost is the index vectors and maps, not the
    /// payloads. The bounded-exhaustive checker branches its depth-first
    /// search over the serving store this way.
    fn clone(&self) -> Self {
        BranchStore {
            graph: self.graph.clone(),
            state_ids: self.state_ids.clone(),
            commit_ids: self.commit_ids.clone(),
            mints: self.mints.clone(),
            commit_index: self.commit_index.clone(),
            state_index: self.state_index.clone(),
            branches: self.branches.clone(),
            tick: self.tick,
            next_replica: self.next_replica,
            backend: self.backend.clone(),
            memo: self.memo.clone(),
            metrics: self.metrics.clone(),
            boundaries: self.boundaries,
            delta_deps: self.delta_deps.clone(),
        }
    }
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
mod tests {
    use super::*;
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};
    use peepul_types::or_set::{OrSet, OrSetOp, OrSetOutput, OrSetQuery};
    use peepul_types::queue::{Queue, QueueOp, QueueValue};

    #[test]
    fn fork_copies_state_and_mints_new_replica() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        assert_eq!(s.state("dev").unwrap().count(), 1);
        assert_ne!(s.replica_of("main").unwrap(), s.replica_of("dev").unwrap());
    }

    #[test]
    fn unknown_branch_errors_at_handle_creation() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        assert_eq!(
            s.branch_mut("nope").err(),
            Some(StoreError::UnknownBranch("nope".into()))
        );
        assert_eq!(
            s.branch("nope").err(),
            Some(StoreError::UnknownBranch("nope".into()))
        );
        assert!(matches!(
            s.branch_mut("main").unwrap().fork("main"),
            Err(StoreError::BranchExists(_))
        ));
    }

    #[test]
    fn invalid_branch_names_are_rejected() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        assert!(matches!(
            s.branch_mut("main").unwrap().fork(""),
            Err(StoreError::InvalidBranchName(_))
        ));
        assert!(matches!(
            s.branch_mut("main").unwrap().fork("bad\nname"),
            Err(StoreError::InvalidBranchName(_))
        ));
        assert!(matches!(
            BranchId::new("nul\0"),
            Err(StoreError::InvalidBranchName(_))
        ));
    }

    #[test]
    fn divergent_counters_merge_additively() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        for _ in 0..3 {
            s.branch_mut("main")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
        }
        for _ in 0..2 {
            s.branch_mut("dev")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
        }
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        assert_eq!(s.state("main").unwrap().count(), 5);
        // dev hasn't pulled yet.
        assert_eq!(s.state("dev").unwrap().count(), 2);
        s.branch_mut("dev").unwrap().merge_from("main").unwrap();
        assert_eq!(s.state("dev").unwrap().count(), 5);
    }

    #[test]
    fn merge_of_contained_history_is_noop() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let commits_before = s.commit_count();
        // dev is an ancestor of main: nothing to do.
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        assert_eq!(s.commit_count(), commits_before);
    }

    #[test]
    fn or_set_add_wins_through_the_store() {
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(1))
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Remove(1))
            .unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&OrSetOp::Add(1))
            .unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        // The lookup is a commit-free read.
        let commits = s.commit_count();
        let v = s.read("main", &OrSetQuery::Lookup(1)).unwrap();
        assert_eq!(v, OrSetOutput::Present(true));
        assert_eq!(s.commit_count(), commits);
    }

    #[test]
    fn criss_cross_merge_resolves_via_recursive_lca() {
        // Build the criss-cross: both branches add elements, merge into
        // each other (creating two merge commits with swapped parents),
        // diverge again, then merge. merge_bases yields two candidates and
        // the recursive virtual LCA must still produce a correct merge.
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("a");
        s.branch_mut("a").unwrap().apply(&OrSetOp::Add(0)).unwrap();
        s.branch_mut("a").unwrap().fork("b").unwrap();
        s.branch_mut("a").unwrap().apply(&OrSetOp::Add(1)).unwrap();
        s.branch_mut("b").unwrap().apply(&OrSetOp::Add(2)).unwrap();
        // Criss-cross: each pulls the other.
        s.branch_mut("a").unwrap().merge_from("b").unwrap();
        s.branch_mut("b").unwrap().merge_from("a").unwrap();
        // Diverge again.
        s.branch_mut("a").unwrap().apply(&OrSetOp::Add(3)).unwrap();
        s.branch_mut("b").unwrap().apply(&OrSetOp::Add(4)).unwrap();
        s.branch_mut("a").unwrap().merge_from("b").unwrap();
        let OrSetOutput::Elements(elems) = s.read("a", &OrSetQuery::Read).unwrap() else {
            panic!("read returns elements");
        };
        assert_eq!(elems, vec![0, 1, 2, 3, 4]);
    }

    /// Builds a *true* criss-cross: two merge commits with swapped parents
    /// created from the same pair of heads. Sequential `merge(a,b);
    /// merge(b,a)` cannot produce one (the second merge already sees the
    /// first's result), so the swapped merge goes through helper forks.
    /// Afterwards `merge_bases(x, y2)` yields two maximal candidates.
    fn criss_cross_store() -> BranchStore<OrSet<u32>> {
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("x");
        s.branch_mut("x").unwrap().apply(&OrSetOp::Add(0)).unwrap();
        s.branch_mut("x").unwrap().fork("y").unwrap();
        s.branch_mut("x").unwrap().apply(&OrSetOp::Add(1)).unwrap(); // x1
        s.branch_mut("y").unwrap().apply(&OrSetOp::Add(2)).unwrap(); // y1
        s.branch_mut("x").unwrap().fork("x-pin").unwrap();
        s.branch_mut("y").unwrap().fork("y2").unwrap();
        s.branch_mut("x").unwrap().merge_from("y").unwrap(); // m1 = (x1, y1)
        s.branch_mut("y2").unwrap().merge_from("x-pin").unwrap(); // m2 = (y1, x1) — the criss-cross
        s.branch_mut("x").unwrap().apply(&OrSetOp::Add(3)).unwrap();
        s.branch_mut("y2").unwrap().apply(&OrSetOp::Add(4)).unwrap();
        s
    }

    #[test]
    fn repeated_criss_cross_merges_hit_the_merge_cache() {
        let mut s = criss_cross_store();
        let (hx, hy) = (s.head("x").unwrap(), s.head("y2").unwrap());
        assert_eq!(s.graph().merge_bases(hx, hy).len(), 2, "need a criss-cross");

        // Building the criss-cross merged (lca, y1, x1) already; the
        // virtual merge of the two bases re-derives that exact triple, so
        // even the *first* LCA computation hits the cache.
        assert_eq!(s.merge_cache_stats().hits, 0);
        s.lca_state("x", "y2").unwrap();
        let after_first = s.merge_cache_stats();
        assert!(
            after_first.hits >= 1,
            "virtual base merge must hit: {after_first:?}"
        );
        // Recomputing the LCA re-derives the identical triple again.
        s.lca_state("x", "y2").unwrap();
        let after_second = s.merge_cache_stats();
        assert!(after_second.hits > after_first.hits, "{after_second:?}");
        // A real merge between the branches re-derives it again.
        s.branch_mut("x").unwrap().merge_from("y2").unwrap();
        let after_merge = s.merge_cache_stats();
        assert!(after_merge.hits > after_second.hits, "{after_merge:?}");
        assert!(after_merge.hit_rate() > 0.0);

        // Correctness is untouched by the cache.
        let OrSetOutput::Elements(elems) = s.read("x", &OrSetQuery::Read).unwrap() else {
            panic!("read returns elements");
        };
        assert_eq!(elems, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lca_state_needs_no_mut_and_mints_no_commit() {
        let s = criss_cross_store();
        let commits = s.commit_count();
        // Shared reference only: the signature itself is the proof that no
        // &mut is needed.
        let shared: &BranchStore<OrSet<u32>> = &s;
        let lca = shared.lca_state("x", "y2").unwrap();
        assert!(lca.contains(&0) && lca.contains(&1) && lca.contains(&2));
        assert_eq!(shared.commit_count(), commits, "LCA reads mint no commits");
    }

    #[test]
    fn probe_branches_reuse_the_cached_base_merge() {
        let mut s = criss_cross_store();
        // Fork probes off the x side; each merge with y2 recomputes the
        // same two-base virtual merge — only the first is a miss.
        for i in 0..4 {
            s.branch_mut("x")
                .unwrap()
                .fork(format!("probe-{i}"))
                .unwrap();
        }
        for i in 0..4 {
            s.branch_mut(&format!("probe-{i}"))
                .unwrap()
                .merge_from("y2")
                .unwrap();
        }
        let stats = s.merge_cache_stats();
        assert!(
            stats.hits >= 3,
            "probes must share the base merge: {stats:?}"
        );
    }

    #[test]
    fn cached_and_uncached_merges_produce_identical_heads() {
        let run = |cache: bool| {
            let mut s: BranchStore<OrSet<u32>> = BranchStore::new("a");
            s.set_merge_cache(cache);
            s.branch_mut("a").unwrap().fork("b").unwrap();
            for round in 0..5u32 {
                s.branch_mut("a")
                    .unwrap()
                    .apply(&OrSetOp::Add(round))
                    .unwrap();
                s.branch_mut("b")
                    .unwrap()
                    .apply(&OrSetOp::Add(round + 100))
                    .unwrap();
                s.branch_mut("a").unwrap().merge_from("b").unwrap();
                s.branch_mut("b").unwrap().merge_from("a").unwrap();
            }
            (s.head_id("a").unwrap(), s.state_id("b").unwrap())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn backend_refs_track_branch_heads() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        assert_eq!(
            s.backend().get_ref("main").unwrap(),
            Some(s.head_id("main").unwrap())
        );
        assert_eq!(
            s.backend().get_ref("dev").unwrap(),
            Some(s.head_id("dev").unwrap())
        );
        // Every published state is retrievable and integrity-checked.
        let sid = s.state_id("dev").unwrap();
        assert!(s.backend().contains(sid).unwrap());
    }

    #[test]
    fn converged_branches_share_one_state_object() {
        let mut s: BranchStore<Counter> = BranchStore::new("x");
        s.branch_mut("x").unwrap().fork("y").unwrap();
        s.branch_mut("x")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("y")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("x").unwrap().merge_from("y").unwrap();
        s.branch_mut("y").unwrap().merge_from("x").unwrap();
        // Equal states intern to one content address in the backend.
        assert_eq!(s.state_id("x").unwrap(), s.state_id("y").unwrap());
    }

    #[test]
    fn queue_fifo_across_branches() {
        let mut s: BranchStore<Queue<String>> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Enqueue("job-1".into()))
            .unwrap();
        s.branch_mut("main").unwrap().fork("worker").unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Enqueue("job-2".into()))
            .unwrap();
        let v = s
            .branch_mut("worker")
            .unwrap()
            .apply(&QueueOp::Dequeue)
            .unwrap();
        assert!(matches!(v, QueueValue::Dequeued(Some((_, job))) if job == "job-1"));
        s.branch_mut("main").unwrap().merge_from("worker").unwrap();
        // job-1 consumed on worker; only job-2 remains on main.
        let v = s
            .branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Dequeue)
            .unwrap();
        assert!(matches!(v, QueueValue::Dequeued(Some((_, job))) if job == "job-2"));
    }

    #[test]
    fn history_grows_with_operations() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let h = s.branch("main").unwrap().history();
        assert_eq!(h.len(), 3); // root + 2 DO commits
        assert_eq!(
            h.last().copied(),
            s.branch("main").unwrap().history().last().copied()
        );
    }

    #[test]
    fn timestamps_are_unique_across_branches() {
        // Indirectly observable through the OR-set's stored pairs.
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(1))
            .unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&OrSetOp::Add(2))
            .unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        let main_state = s.state("main").unwrap();
        assert_eq!(main_state.pair_count(), 2);
    }

    #[test]
    fn branch_names_are_sorted_lexicographically() {
        let mut s: BranchStore<Counter> = BranchStore::new("zeta");
        s.branch_mut("zeta").unwrap().fork("alpha").unwrap();
        s.branch_mut("zeta").unwrap().fork("mu").unwrap();
        s.branch_mut("alpha").unwrap().fork("beta").unwrap();
        assert_eq!(s.branch_names(), vec!["alpha", "beta", "mu", "zeta"]);
        let mut sorted = s.branch_names();
        sorted.sort_unstable();
        assert_eq!(s.branch_names(), sorted, "branch_names is always sorted");
    }

    #[test]
    fn open_rebuilds_typed_state_from_a_reopened_backend() {
        // A full session with forks, concurrent ops and a criss-cross.
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(0))
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(1))
            .unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&OrSetOp::Add(2))
            .unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        s.branch_mut("dev").unwrap().merge_from("main").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&OrSetOp::Remove(0))
            .unwrap();

        // "Restart": a fresh store over the same persisted objects/refs.
        let reopened: BranchStore<OrSet<u32>> = BranchStore::open(s.backend().clone()).unwrap();

        assert_eq!(reopened.branch_names(), s.branch_names());
        assert_eq!(reopened.commit_count(), s.commit_count());
        assert_eq!(reopened.tick(), s.tick(), "Lamport clock recovered");
        for b in s.branch_names() {
            assert_eq!(reopened.head_id(b).unwrap(), s.head_id(b).unwrap());
            assert_eq!(reopened.state_id(b).unwrap(), s.state_id(b).unwrap());
            assert_eq!(
                reopened.read(b, &OrSetQuery::Read).unwrap(),
                s.read(b, &OrSetQuery::Read).unwrap(),
                "typed queries answer identically after reopen"
            );
        }
        // The reopened store is fully live: updates, merges, LCA search.
        let mut reopened = reopened;
        reopened
            .branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(9))
            .unwrap();
        reopened
            .branch_mut("dev")
            .unwrap()
            .merge_from("main")
            .unwrap();
        let OrSetOutput::Elements(elems) = reopened.read("dev", &OrSetQuery::Read).unwrap() else {
            panic!("read returns elements");
        };
        assert!(elems.contains(&9));
    }

    #[test]
    fn open_of_an_empty_backend_is_refused() {
        let err = BranchStore::<Counter>::open(MemoryBackend::new()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
    }

    #[test]
    fn creating_over_a_used_backend_is_refused() {
        // The mirror-image guard: `with_backend` on a backend that already
        // holds refs would repoint the existing branch at a fresh root —
        // apparent data loss. It must refuse and direct callers to `open`.
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let used = s.backend().clone();
        let err = BranchStore::<Counter>::with_backend("main", used.clone()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        // The refused backend is untouched and still reopens faithfully.
        let reopened: BranchStore<Counter> = BranchStore::open(used).unwrap();
        assert_eq!(reopened.state("main").unwrap().count(), 1);
    }

    #[test]
    fn ingest_pack_verifies_before_writing_anything() {
        let mut src: BranchStore<Counter> = BranchStore::new("main");
        src.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        src.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let head = src.head_id("main").unwrap();

        let mut dst: BranchStore<Counter> = BranchStore::new("main");
        let missing = src.commits_between(&[head], &[dst.head_id("main").unwrap()]);
        let commit_bytes: Vec<(ObjectId, Vec<u8>)> = missing
            .iter()
            .map(|c| {
                let oid = src.commit_oid(*c);
                (oid, src.commit_record_bytes(oid).unwrap().unwrap())
            })
            .collect();
        let state_bytes: Vec<(ObjectId, Vec<u8>)> = missing
            .iter()
            .map(|c| {
                let sid = src.state_oid(*c);
                (sid, src.state_bytes(sid).unwrap().unwrap())
            })
            .collect();
        let commits: Vec<(ObjectId, &[u8])> = commit_bytes
            .iter()
            .map(|(o, b)| (*o, b.as_slice()))
            .collect();
        let states: Vec<(ObjectId, &[u8])> = state_bytes
            .iter()
            .map(|(o, b)| (*o, b.as_slice()))
            .collect();

        // A flipped byte anywhere in a state fails the whole pack and
        // leaves the store untouched.
        let before_objects = dst.backend().object_count();
        let before_commits = dst.commit_count();
        let mut corrupt = state_bytes.clone();
        corrupt[0].1[0] ^= 0xff;
        let corrupt_states: Vec<(ObjectId, &[u8])> =
            corrupt.iter().map(|(o, b)| (*o, b.as_slice())).collect();
        let err = dst.ingest_pack(&commits, &corrupt_states).unwrap_err();
        assert!(matches!(err, StoreError::CorruptObject { .. }));
        assert_eq!(dst.backend().object_count(), before_objects);
        assert_eq!(dst.commit_count(), before_commits);

        // The honest pack lands with one decode + one hash per object,
        // and re-ingest is idempotent.
        let report = dst.ingest_pack(&commits, &states).unwrap();
        assert_eq!(report.commits, 2);
        assert_eq!(report.states, 2);
        assert!(dst.has_commit(head));
        assert_eq!(dst.tick(), 2, "receive rule ran");
        let again = dst.ingest_pack(&commits, &states).unwrap();
        assert_eq!(again.commits, 0);
        dst.track("main", head).unwrap();
        assert_eq!(dst.state("main").unwrap().count(), 2);
    }

    #[test]
    fn commit_record_parse_roundtrip() {
        let a = crate::object::content_id(&1u8);
        let b = crate::object::content_id(&2u8);
        let s = crate::object::content_id(&3u8);
        let bytes = commit_record(&[a, b], s, 7, 9);
        let meta = parse_commit_record(&bytes).unwrap();
        assert_eq!(
            meta,
            CommitMeta {
                parents: vec![a, b],
                state: s,
                tick: 7,
                replica: 9
            }
        );
        let root = parse_commit_record(&commit_record(&[], s, 0, 0)).unwrap();
        assert!(root.parents.is_empty());
        assert_eq!(parse_commit_record(b"not a commit"), None);
        assert_eq!(parse_commit_record(&bytes[..bytes.len() - 1]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(parse_commit_record(&trailing), None);
        // Distinct mints ⇒ distinct commit identities, even for identical
        // parents and state — the property multi-store replication needs.
        assert_ne!(bytes, commit_record(&[a, b], s, 8, 9));
        assert_ne!(bytes, commit_record(&[a, b], s, 7, 10));
    }

    #[test]
    fn replication_surface_walks_and_ingests() {
        // Build a small history on one store, replay it object-by-object
        // into a fresh store through the public ingest surface, and check
        // the Merkle heads agree.
        let mut src: BranchStore<Counter> = BranchStore::new("main");
        src.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        src.branch_mut("main").unwrap().fork("dev").unwrap();
        src.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        src.branch_mut("main").unwrap().merge_from("dev").unwrap();
        let head = src.head_id("main").unwrap();

        let mut dst: BranchStore<Counter> = BranchStore::new("main");
        let missing = src.commits_between(&[head], &[dst.head_id("main").unwrap()]);
        // Both stores share the root commit (same initial state), so only
        // the two DO commits and the merge commit are missing.
        assert_eq!(missing.len(), 3);
        let root = src.graph().ids().next().unwrap();
        assert!(!missing.contains(&root));
        // Replay commit-by-commit (each its own one-commit pack), proving
        // the parents-first contract and idempotence of the ingest path.
        for c in missing {
            let oid = src.commit_oid(c);
            let record = src.commit_record_bytes(oid).unwrap().unwrap();
            let meta = parse_commit_record(&record).unwrap();
            let state_bytes = src.state_bytes(meta.state).unwrap().unwrap();
            let commits = [(oid, record.as_slice())];
            let states = [(meta.state, state_bytes.as_slice())];
            let report = dst.ingest_pack(&commits, &states).unwrap();
            assert_eq!(report.commits, 1);
            assert!(dst.has_commit(oid));
            // Idempotent.
            let again = dst.ingest_pack(&commits, &states).unwrap();
            assert_eq!(again.commits, 0);
        }
        assert!(dst.has_commit(head));
        assert_eq!(dst.track("tracking", head).unwrap(), TrackOutcome::Created);
        assert_eq!(dst.head_id("tracking").unwrap(), head);
        assert_eq!(dst.state("tracking").unwrap().count(), 2);
        // Fast-forward "main" (still at the shared root) onto the head.
        assert_eq!(
            dst.track("main", head).unwrap(),
            TrackOutcome::FastForwarded
        );
        assert_eq!(dst.track("main", head).unwrap(), TrackOutcome::Unchanged);
    }

    #[test]
    fn ingest_rejects_corrupt_and_orphaned_commits() {
        let mut src: BranchStore<Counter> = BranchStore::new("main");
        src.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        src.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let head = src.head("main").unwrap();
        let parent = src.graph().parents(head)[0];
        let head_oid = src.commit_oid(head);

        let record = src.commit_record_bytes(head_oid).unwrap().unwrap();
        let meta = parse_commit_record(&record).unwrap();
        assert_eq!(meta.parents, vec![src.commit_oid(parent)]);

        let mut dst: BranchStore<Counter> = BranchStore::new("main");
        let record_bytes = src.commit_record_bytes(head_oid).unwrap().unwrap();
        let state_bytes = src.state_bytes(meta.state).unwrap().unwrap();
        // Wrong bytes for the advertised state id → CorruptObject with
        // both ids, before anything is written.
        let wrong_state = Counter::initial();
        let err = dst
            .ingest_pack(
                &[(head_oid, record_bytes.as_slice())],
                &[(meta.state, canonical_bytes(&wrong_state).as_slice())],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::CorruptObject { expected, .. } if expected == meta.state
        ));
        // Right state but the parent was never ingested → Corrupt.
        let err = dst
            .ingest_pack(
                &[(head_oid, record_bytes.as_slice())],
                &[(meta.state, state_bytes.as_slice())],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        // Tracking an unknown commit is refused.
        assert!(dst.track("t", head_oid).is_err());
    }

    #[test]
    fn diverged_track_is_refused_unless_forced() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let dev_head = s.head_id("dev").unwrap();
        let main_head = s.head_id("main").unwrap();
        assert_eq!(s.track("main", dev_head).unwrap(), TrackOutcome::Diverged);
        assert_eq!(s.head_id("main").unwrap(), main_head, "ref untouched");
        assert_eq!(
            s.force_track("main", dev_head).unwrap(),
            TrackOutcome::Diverged
        );
        assert_eq!(s.head_id("main").unwrap(), dev_head, "forced move");
    }

    #[test]
    fn observe_tick_implements_the_receive_rule() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        assert_eq!(s.tick(), 1);
        s.observe_tick(100);
        assert_eq!(s.tick(), 100);
        s.observe_tick(5); // never rewinds
        assert_eq!(s.tick(), 100);
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        assert_eq!(s.tick(), 101, "next op orders after everything observed");
    }

    #[test]
    fn replica_bases_separate_fleet_id_ranges() {
        let a: BranchStore<Counter> =
            BranchStore::with_backend_and_base("main", MemoryBackend::new(), 0x1_0000).unwrap();
        assert_eq!(a.replica_of("main").unwrap(), ReplicaId::new(0x1_0000));
        let b: BranchStore<Counter> = BranchStore::new("main");
        assert_eq!(b.replica_of("main").unwrap(), ReplicaId::new(0));
        // Same initial state ⇒ same root commit on both stores, so fleets
        // with disjoint replica ranges still share history.
        assert_eq!(a.head_id("main").unwrap(), b.head_id("main").unwrap());
    }

    #[test]
    fn read_answers_queries_without_commits() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let commits = s.commit_count();
        for _ in 0..100 {
            assert_eq!(s.read("main", &CounterQuery::Value).unwrap(), 1);
        }
        assert_eq!(s.commit_count(), commits);
        assert_eq!(
            s.read("nope", &CounterQuery::Value),
            Err(StoreError::UnknownBranch("nope".into()))
        );
    }
}

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// Renders the commit DAG with branch heads in Graphviz DOT format —
    /// `git log --graph` for this store. Pipe through `dot -Tsvg` to
    /// visualise criss-cross histories. Branch heads render in sorted name
    /// order, so the output is deterministic across backends and runs.
    pub fn to_dot(&self) -> String {
        let heads: std::collections::BTreeMap<String, crate::dag::CommitId> = self
            .branches
            .iter()
            .map(|(name, info)| (name.clone(), info.head))
            .collect();
        crate::dot::render(&self.graph, |state| format!("{state:?}"), &heads)
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use peepul_types::counter::{Counter, CounterOp};

    #[test]
    fn branch_store_renders_to_dot() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        let dot = s.to_dot();
        assert!(dot.contains("\"main\""));
        assert!(dot.contains("\"dev\""));
        assert!(dot.contains("Counter"));
    }
}
