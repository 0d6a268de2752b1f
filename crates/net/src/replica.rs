//! Replicas and remotes: the client and server halves of the sync
//! protocol.
//!
//! A [`Replica`] owns its own [`BranchStore`] — its own commit graph, its
//! own backend, its own Lamport clock. Nothing is shared with any peer:
//! the only way state moves between replicas is as verified
//! content-addressed objects over a [`Transport`], which is what makes
//! partitions, lag and independent crashes expressible.
//!
//! A [`Remote`] is a named link to a peer (name + transport), like a Git
//! remote. The three client operations mirror Git's:
//!
//! * [`Replica::fetch`] — negotiate and transfer the objects this store
//!   lacks, verify every one against its content address, and land the
//!   remote head as a `remote/<name>/<branch>` tracking branch (under
//!   [`TRACKING_PREFIX`]);
//! * [`Replica::pull`] — fetch, then integrate: fast-forward when the
//!   local branch is strictly behind, otherwise a real three-way merge
//!   through the store's typed-handle path (LCA search, merge memo and
//!   all);
//! * [`Replica::push`] — send the peer the pack a fetch from this replica
//!   would hand it, built against the heads the peer advertised, and ask
//!   it to fast-forward its branch; refused if the peer has diverged.
//!
//! Both directions build packs with the same two functions: one walks
//! the commits the receiver's heads do not reach, the other picks their
//! states and ships each as a delta against a base the receiver holds
//! when the store has one. Both directions land packs through the same
//! verified ingest.
//!
//! [`Replica::sync`] composes them into the one routine that brings two
//! replicas together — pull every branch, then push every branch. The
//! daemon's peer round and [`Cluster::converge`](crate::Cluster::converge)
//! both run it.
//!
//! Replication operations **never hold the local store lock across a
//! transport request** — locks are taken per phase. Two replicas pulling
//! from each other concurrently therefore cannot deadlock: each thread
//! holds at most one replica lock at any instant.
//!
//! `Replica` is the store's **only writer**: every mutation is one of its
//! methods — [`Replica::apply`] (DO), [`Replica::fork`] (CREATEBRANCH),
//! [`Replica::merge`] (MERGE), the replication paths, and
//! [`Replica::flush`] — and each emits what the attached
//! [`HistoryObserver`] must witness. No raw `&mut BranchStore` leaves
//! this module, so no write can slip past the witness.
//!
//! The store sits behind an `RwLock`, not a mutex: pure observations
//! take the shared read lock and run concurrently with each other — the
//! store's commit-free query path needs only `&self`. There are three
//! read paths: [`Replica::read`] (a query, witnessed as an observation
//! when an observer is attached), the unwitnessed accessors
//! ([`Replica::state`], [`Replica::head_id`], [`Replica::with_store_read`]
//! and friends), and the read-only protocol requests
//! `FetchRefs`/`Want`/`GetStatesDelta`. Mutations take the
//! exclusive write lock. A server answering many sessions over one
//! replica therefore serializes writes but never serializes reads behind
//! them.

use crate::error::NetError;
use crate::message::{PackedObject, Request, Response, StateTransfer};
use crate::metrics::NetMetrics;
use crate::observer::{HistoryObserver, ReplicationMutation};
use crate::transport::Transport;
use peepul_core::{Mrdt, ReplicaId, Timestamp, Wire};
use peepul_store::sha256::Sha256;
use peepul_store::{
    parse_commit_record, Backend, BranchStore, IngestReport, ObjectId, PackState, StoreError,
    StoreMetrics, SweepStats, TrackOutcome,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The namespace of tracking branches: a fetch lands the peer `p`'s
/// branch `b` as `remote/p/b`. Branches under it are never synced onward,
/// and the service layer refuses client reads and writes under it.
pub const TRACKING_PREFIX: &str = "remote/";

/// The observer/mutation/metrics slot shared by every clone of a replica
/// handle.
#[derive(Clone)]
struct Hooks<M: Mrdt> {
    observer: Option<Arc<dyn HistoryObserver<M>>>,
    mutation: ReplicationMutation,
    metrics: Option<Arc<NetMetrics>>,
}

impl<M: Mrdt> Default for Hooks<M> {
    fn default() -> Self {
        Hooks {
            observer: None,
            mutation: ReplicationMutation::None,
            metrics: None,
        }
    }
}

/// One independent replica: a name plus exclusive ownership of a
/// [`BranchStore`] (and through it, a backend).
///
/// `Replica` is a cheaply clonable *handle* (an `Arc` around the store):
/// clones address the same replica. That is how a replica is shared with
/// the transports serving it to peers ([`ChannelTransport`] holds one,
/// [`TcpServer`] holds one) while application threads keep using it
/// locally.
///
/// It is also the store's only writer: outside this crate a replica's
/// store is reachable only through `&BranchStore`
/// ([`Replica::with_store_read`]), which cannot mint, so every DO, fork
/// and merge goes through a method that reports to the observer. There
/// is no raw write handle to take:
///
/// ```compile_fail,E0599
/// use peepul_net::Replica;
/// use peepul_store::{BranchStore, MemoryBackend};
/// use peepul_types::counter::Counter;
///
/// type Store = BranchStore<Counter, MemoryBackend>;
/// let raw_write: fn(&Replica<Counter, MemoryBackend>, fn(&mut Store)) = Replica::with_store;
/// ```
///
/// [`ChannelTransport`]: crate::transport::ChannelTransport
/// [`TcpServer`]: crate::tcp::TcpServer
pub struct Replica<M: Mrdt, B: Backend> {
    store: Arc<RwLock<BranchStore<M, B>>>,
    name: Arc<str>,
    hooks: Arc<RwLock<Hooks<M>>>,
}

impl<M: Mrdt, B: Backend> Clone for Replica<M, B> {
    fn clone(&self) -> Self {
        Replica {
            store: Arc::clone(&self.store),
            name: Arc::clone(&self.name),
            hooks: Arc::clone(&self.hooks),
        }
    }
}

impl<M: Mrdt, B: Backend> Replica<M, B> {
    /// Wraps a store as a named replica.
    ///
    /// **The caller owns replica-id disjointness**: independent stores
    /// that will replicate into each other must mint timestamps from
    /// disjoint replica-id ranges
    /// ([`BranchStore::with_backend_and_base`]), or two of them can mint
    /// the same `(tick, replica)` pair — and two concurrent operations
    /// with coincidentally equal states would then collapse into one
    /// commit identity and be deduplicated away by sync. Prefer
    /// [`Replica::open`], which derives a disjoint base from the
    /// replica's name; use `new` when you constructed the store with an
    /// explicit base yourself (as [`Cluster`](crate::Cluster) does).
    pub fn new(name: impl Into<String>, store: BranchStore<M, B>) -> Self {
        Replica {
            store: Arc::new(RwLock::new(store)),
            name: Arc::from(name.into()),
            hooks: Arc::new(RwLock::new(Hooks::default())),
        }
    }

    /// Builds a replica **and its store** — creating a fresh store over
    /// an empty backend, or performing the **typed reopen**
    /// ([`BranchStore::open`]) when the backend already holds published
    /// refs, so a durable replica survives a process restart with its
    /// full history, Lamport clock and `root_branch` intact. Either way
    /// the store's replica-id base is derived from the replica's name
    /// (first four bytes of `sha256(name)`): replicas with distinct
    /// names get pseudo-randomly spread, almost-surely disjoint id
    /// ranges without any coordination — the safe default for
    /// independent peers. (Fleets wanting guaranteed disjointness assign
    /// explicit bases; see [`Cluster`](crate::Cluster).)
    ///
    /// # Errors
    ///
    /// As [`BranchStore::with_backend_and_base`] /
    /// [`BranchStore::open_with_base`]; additionally
    /// [`StoreError::UnknownBranch`] when a reopened backend does not
    /// contain `root_branch` (the backend belongs to a different
    /// replica).
    pub fn open(
        name: impl Into<String>,
        root_branch: impl Into<String>,
        backend: B,
    ) -> Result<Self, StoreError> {
        let name = name.into();
        let root_branch = root_branch.into();
        let digest = Sha256::digest(name.as_bytes());
        let base = u32::from_be_bytes(digest[..4].try_into().expect("4 bytes"));
        let store = if backend.refs()?.is_empty() {
            BranchStore::with_backend_and_base(root_branch, backend, base)?
        } else {
            let store = BranchStore::open_with_base(backend, base)?;
            if !store.has_branch(&root_branch) {
                return Err(StoreError::UnknownBranch(root_branch));
            }
            store
        };
        Ok(Replica::new(name, store))
    }

    // The lock accessors: the one place this handle applies the workspace
    // poison policy (DESIGN §10).
    fn read_store(&self) -> RwLockReadGuard<'_, BranchStore<M, B>> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_store(&self) -> RwLockWriteGuard<'_, BranchStore<M, B>> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The hooks one operation runs under: a single read of the slot.
    fn hooks(&self) -> Hooks<M> {
        self.hooks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn hooks_mut(&self) -> RwLockWriteGuard<'_, Hooks<M>> {
        self.hooks.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The replica's name (used in peers' tracking-branch names and
    /// diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `f` with the store under the **shared read lock**: any number
    /// of readers run concurrently, and none of the store's mutating or
    /// commit-minting paths are reachable through `&BranchStore`.
    pub fn with_store_read<R>(&self, f: impl FnOnce(&BranchStore<M, B>) -> R) -> R {
        f(&self.read_store())
    }

    /// Answers a pure query against a local branch head (commit-free,
    /// under the shared read lock — concurrent with other readers). When
    /// an observer is attached, the observation (query, output, visible
    /// event set) is emitted under the same read lock — the probe side of
    /// the `Φ_ra` witness.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn read(&self, branch: &str, q: &M::Query) -> Result<M::Output, StoreError> {
        let observer = self.hooks().observer;
        let store = self.read_store();
        let out = store.read(branch, q)?;
        if let Some(obs) = &observer {
            let visible = store.visible_mints(store.head(branch)?);
            obs.observed(&self.name, q, &out, &visible);
        }
        Ok(out)
    }

    /// A local branch's current state (cheap `Arc` clone).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state(&self, branch: &str) -> Result<Arc<M>, StoreError> {
        self.read_store().state(branch)
    }

    /// The content address of a local branch's head *state* — what the
    /// convergence suites compare across replicas (byte-identical
    /// canonical states ⇒ equal ids, on any backend).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state_id(&self, branch: &str) -> Result<ObjectId, StoreError> {
        self.read_store().state_id(branch)
    }

    /// The content address of a local branch's head *commit*.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn head_id(&self, branch: &str) -> Result<ObjectId, StoreError> {
        self.read_store().head_id(branch)
    }

    /// Number of distinct objects in this replica's backend.
    pub fn object_count(&self) -> usize {
        self.read_store().backend().object_count()
    }

    /// Attaches a [`HistoryObserver`] that will receive one witness event
    /// per replication-visible transition: local operations through
    /// [`Replica::apply`], pack ingests (fetches and served pushes), head
    /// moves (pulls, served pushes and [`Replica::merge`]), and
    /// observations through [`Replica::read`].
    /// Shared by every clone of this handle; replaces any previous
    /// observer.
    pub fn set_observer(&self, observer: Arc<dyn HistoryObserver<M>>) {
        self.hooks_mut().observer = Some(observer);
    }

    /// **Mutation-testing surface — never call in production code.**
    /// Enacts a deliberate replication fault (see
    /// [`ReplicationMutation`]) on this replica's fetch/pull/apply paths,
    /// so the `Φ_ra` kill-gate can prove each fault is caught. Shared by
    /// every clone of this handle.
    pub fn set_replication_mutation(&self, mutation: ReplicationMutation) {
        self.hooks_mut().mutation = mutation;
    }

    /// Attaches (or detaches, with `None`) the store's and the
    /// replication layer's metrics. The store metrics live in the store
    /// itself; the net metrics have the same shared-by-every-clone
    /// semantics as [`Replica::set_observer`]: fetches, pushes and served
    /// pushes through any clone of this handle update them.
    pub fn set_metrics(&self, store: Option<Arc<StoreMetrics>>, net: Option<Arc<NetMetrics>>) {
        self.write_store().set_metrics(store);
        self.hooks_mut().metrics = net;
    }

    /// Applies one local operation to `branch` (the paper's DO). When an
    /// observer is attached, the minted event (timestamp, return value,
    /// visible set) is emitted **under the same write lock** as the
    /// commit, so the per-replica witness order matches the store's
    /// mutation order exactly.
    ///
    /// # Errors
    ///
    /// As [`BranchStore::branch_mut`] + apply.
    pub fn apply(&self, branch: &str, op: &M::Op) -> Result<M::Value, StoreError> {
        let hooks = self.hooks();
        let mut store = self.write_store();
        let value = store.branch_mut(branch)?.apply(op)?;
        if let Some(obs) = &hooks.observer {
            let head = store.head(branch)?;
            let t = store.commit_mint(head);
            let mut past = store.visible_mints(head);
            past.retain(|&e| e != t);
            if hooks.mutation == ReplicationMutation::DropVisibilityEdge {
                // Claim the latest foreign event in the ancestry was never
                // observed (no-op while the ancestry is all-local).
                if let Some(i) = past.iter().rposition(|e| e.replica() != t.replica()) {
                    past.remove(i);
                }
            }
            obs.local_op(&self.name, t, op, &value, &past);
        }
        Ok(value)
    }

    /// Creates branch `to` at `from`'s head (the paper's CREATEBRANCH).
    ///
    /// A fork mints nothing and emits nothing: it adds no event, and it
    /// moves no existing head — the new branch sees exactly the events
    /// `from` already made visible.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if `from` does not exist;
    /// [`StoreError::BranchExists`] if `to` does.
    pub fn fork(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.write_store().branch_mut(from)?.fork(to)?;
        Ok(())
    }

    /// Merges branch `from` into branch `into` (the paper's MERGE). When
    /// the head of `into` moves and an observer is attached, its new
    /// visible set is emitted under the same write lock as the merge.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if either branch does not exist;
    /// merge-time store errors.
    pub fn merge(&self, into: &str, from: &str) -> Result<(), StoreError> {
        let hooks = self.hooks();
        self.merge_witnessed(&mut self.write_store(), &hooks, into, from)?;
        Ok(())
    }

    /// Persists every commit landed so far to stable storage — the
    /// group-commit point of a coalesced or explicit
    /// [`FlushPolicy`](peepul_store::FlushPolicy). Changes no head, so it
    /// emits nothing.
    ///
    /// # Errors
    ///
    /// Backend I/O errors.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.write_store().flush()
    }

    /// Points `branch` at `target`, a commit the store holds, like
    /// `git reset` (creating the branch if it is absent). Not a transition
    /// of the paper's store: the commits only the old head reached are
    /// stranded until [`Replica::collect_garbage`]. An attached observer
    /// sees the new visible set as a head move.
    ///
    /// # Errors
    ///
    /// As [`BranchStore::force_track`]: [`StoreError::Corrupt`] when
    /// `target` is not a commit of this store.
    pub fn reset(&self, branch: &str, target: ObjectId) -> Result<(), StoreError> {
        let hooks = self.hooks();
        let store = &mut *self.write_store();
        store.force_track(branch, target)?;
        self.witness_head(store, &hooks, branch)
    }

    /// Reference-tracing garbage collection
    /// ([`BranchStore::collect_garbage`]). Changes no head, so it emits
    /// nothing.
    ///
    /// # Errors
    ///
    /// Backend I/O errors.
    pub fn collect_garbage(&self) -> Result<SweepStats, StoreError> {
        self.write_store().collect_garbage()
    }

    /// Folds sealed storage into packs ([`BranchStore::compact_storage`]).
    /// Changes no head, so it emits nothing.
    ///
    /// # Errors
    ///
    /// Backend I/O errors.
    pub fn compact_storage(&self) -> Result<(), StoreError> {
        self.write_store().compact_storage()
    }

    /// Seals the backend's active storage file ([`Backend::rotate`]).
    /// Changes no head, so it emits nothing.
    ///
    /// # Errors
    ///
    /// Backend I/O errors.
    pub fn rotate(&self) -> Result<(), StoreError> {
        self.write_store().backend_mut().rotate()
    }

    /// The one MERGE step, under a held write lock: merges `from` into
    /// `into` and, if the head moved, emits its new visible set. Returns
    /// whether the head moved. [`Replica::merge`] and a diverged
    /// [`Replica::pull`] both run it.
    fn merge_witnessed(
        &self,
        store: &mut BranchStore<M, B>,
        hooks: &Hooks<M>,
        into: &str,
        from: &str,
    ) -> Result<bool, StoreError> {
        let before = store.head_id(into)?;
        store.branch_mut(into)?.merge_from(from)?;
        let moved = store.head_id(into)? != before;
        if moved {
            self.witness_head(store, hooks, into)?;
        }
        Ok(moved)
    }

    /// Emits `branch`'s current visible set as a head move, if an
    /// observer is attached.
    fn witness_head(
        &self,
        store: &BranchStore<M, B>,
        hooks: &Hooks<M>,
        branch: &str,
    ) -> Result<(), StoreError> {
        if let Some(obs) = &hooks.observer {
            obs.head_advanced(&self.name, &store.visible_mints(store.head(branch)?));
        }
        Ok(())
    }

    /// The one pack ingest, under a held write lock — what a fetch and a
    /// served push both run. The store verifies every object with one
    /// hash (and every state with one decode, each delta resolved against
    /// its base first) and applies the Lamport receive rule itself; a
    /// corrupt object fails the whole pack before anything is written.
    /// Then the pack must have led to `head`, the receive-side pack
    /// metrics are recorded, and the events the pack newly introduced are
    /// emitted (`learned`), in pack order.
    fn ingest_witnessed(
        &self,
        store: &mut BranchStore<M, B>,
        hooks: &Hooks<M>,
        commits: &[PackedObject],
        states: &[StateTransfer],
        head: ObjectId,
    ) -> Result<IngestReport, NetError> {
        let mut learned = match hooks.observer {
            Some(_) => fresh_pack_events(store, commits),
            None => Vec::new(),
        };
        let records: Vec<(ObjectId, &[u8])> =
            commits.iter().map(|p| (p.id, p.bytes.as_slice())).collect();
        let transfers: Vec<PackState<'_>> = states
            .iter()
            .map(|t| match t {
                StateTransfer::Full { state } => PackState::Full {
                    id: state.id,
                    bytes: &state.bytes,
                },
                StateTransfer::Delta { id, base, delta } => PackState::Delta {
                    id: *id,
                    base: *base,
                    delta,
                },
            })
            .collect();
        let counts = store.ingest_pack(&records, &transfers)?;
        if !store.has_commit(head) {
            return Err(NetError::Protocol(format!(
                "head {} is neither in the pack nor in the store",
                head.short()
            )));
        }
        if let Some(m) = &hooks.metrics {
            m.pack_objects_in_total
                .add((commits.len() + states.len()) as u64);
            m.pack_bytes_in_total.add(pack_bytes(commits, states));
            m.delta_states_in_total.add(counts.delta_states);
            m.delta_bytes_saved_total.add(counts.delta_saved_bytes);
        }
        if let Some(obs) = &hooks.observer {
            if hooks.mutation == ReplicationMutation::ReorderedPackIngest {
                learned.reverse();
            }
            if !learned.is_empty() {
                obs.learned(&self.name, &learned);
            }
        }
        Ok(counts)
    }
}

impl<M: Mrdt, B: Backend> Replica<M, B> {
    /// Serves one protocol request against this replica's store — the
    /// server half of fetch and push. Errors are folded into
    /// [`Response::Error`] so a misbehaving client cannot poison the
    /// serving replica.
    ///
    /// Read-only requests (`FetchRefs`, `Want`, `GetStatesDelta`) are
    /// served under the shared read lock and run concurrently; only
    /// `Push` takes the write lock.
    pub fn handle(&self, req: Request) -> Response {
        let served = match req {
            Request::FetchRefs => self
                .read_store()
                .backend()
                .refs()
                .map(|refs| Response::Refs { refs })
                .map_err(NetError::from),
            Request::Want { wants, haves } => commit_pack(&self.read_store(), &wants, &haves)
                .map(|commits| Response::Commits { commits }),
            Request::GetStatesDelta { ids, haves } => {
                let metrics = self.hooks().metrics;
                state_pack(&self.read_store(), &ids, &haves, metrics.as_deref())
                    .map(|states| Response::StatesDelta { states })
            }
            Request::Push {
                branch,
                head,
                commits,
                states,
            } => self.serve_push(&branch, head, &commits, &states),
        };
        match served {
            Ok(r) => r,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    /// Byte-level [`Replica::handle`]: decodes a request frame, serves it,
    /// encodes the response. What transports call.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let resp = match Request::from_wire(frame) {
            Some(req) => self.handle(req),
            None => Response::Error {
                message: "undecodable request frame".into(),
            },
        };
        resp.to_wire()
    }

    /// Downloads everything `branch` has that this replica lacks and lands
    /// the remote head as the tracking branch `remote/<remote>/<branch>`.
    ///
    /// The negotiation is Git's in miniature (see [`crate::message`]):
    /// refs, then one want/have exchange answered from the Merkle
    /// structure, then exactly the state objects this replica is missing.
    /// **Every received object is verified against its content address
    /// before it enters the store**; a corrupt transfer fails with
    /// [`StoreError::CorruptObject`] and changes nothing.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownRemoteBranch`] when the remote does not advertise
    /// `branch`; transport errors; [`NetError::Store`] on verification or
    /// ingest failure.
    pub fn fetch<T: Transport>(
        &self,
        remote: &mut Remote<T>,
        branch: &str,
    ) -> Result<FetchStats, NetError> {
        let hooks = self.hooks();
        let start = hooks.metrics.as_ref().map(|_| std::time::Instant::now());
        let rt0 = remote.round_trips;
        let tracking_branch = format!("{TRACKING_PREFIX}{}/{branch}", remote.name());
        let refs = remote.refs()?;
        let head = refs
            .iter()
            .find(|(name, _)| name == branch)
            .map(|(_, oid)| *oid)
            .ok_or_else(|| NetError::UnknownRemoteBranch(branch.to_owned()))?;

        // Phase 1 (local read lock only): what do we already have?
        let (haves, up_to_date) = self.with_store_read(|s| -> Result<_, StoreError> {
            let haves: Vec<ObjectId> = s.backend().refs()?.into_iter().map(|(_, o)| o).collect();
            Ok((haves, s.has_commit(head)))
        })?;
        if up_to_date {
            self.write_store().force_track(&tracking_branch, head)?;
            let stats = FetchStats {
                round_trips: remote.round_trips - rt0,
                commits_received: 0,
                states_received: 0,
                delta_states_received: 0,
                state_bytes_received: 0,
                tracking_branch,
                up_to_date: true,
            };
            if let (Some(m), Some(start)) = (&hooks.metrics, start) {
                m.fetches_total.inc();
                m.round_trips_total.add(stats.round_trips);
                m.fetch_micros.observe_since(start);
            }
            return Ok(stats);
        }

        // Phase 2 (no local lock): one want/have round resolves the whole
        // missing commit subgraph, parents first.
        let commits = remote.want(&[head], &haves)?;

        // Phase 3 (local read lock only): which state objects do we lack?
        let mut need: Vec<ObjectId> = Vec::new();
        self.with_store_read(|s| {
            let mut seen = HashSet::new();
            for pc in &commits {
                if let Some(meta) = parse_commit_record(&pc.bytes) {
                    if seen.insert(meta.state) && !s.has_state(meta.state) {
                        need.push(meta.state);
                    }
                }
            }
        });

        // Phase 4 (no local lock): transfer them — delta-aware. The
        // `haves` from phase 1 double as the proof of which bases this
        // replica holds, so the peer can answer with O(delta) transfers;
        // every delta is resolved and re-hashed during ingest.
        let states = if need.is_empty() {
            Vec::new()
        } else {
            remote.get_states_delta(&need, &haves)?
        };

        // Phase 5 (local lock only): verify + ingest + land the tracking
        // branch.
        let counts = {
            let store = &mut *self.write_store();
            let pre_tick = store.tick();
            let counts = self.ingest_witnessed(store, &hooks, &commits, &states, head)?;
            store.force_track(&tracking_branch, head)?;
            if hooks.mutation == ReplicationMutation::BrokenReceiveRule {
                // Pretend the ingested events never advanced our clock.
                store.force_clock(pre_tick);
            }
            counts
        };
        let stats = FetchStats {
            round_trips: remote.round_trips - rt0,
            commits_received: counts.commits,
            states_received: counts.states,
            delta_states_received: counts.delta_states,
            state_bytes_received: pack_bytes(&[], &states),
            tracking_branch,
            up_to_date: false,
        };
        if let (Some(m), Some(start)) = (&hooks.metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            m.fetches_total.inc();
            m.round_trips_total.add(stats.round_trips);
            m.fetch_micros.observe(micros);
            m.trace("fetch", remote.name(), micros);
        }
        Ok(stats)
    }

    /// Fetches `branch` from the remote and integrates it into the local
    /// branch of the same name: fast-forward when the local branch is
    /// strictly behind (no redundant merge commit), a real three-way merge
    /// through the typed-handle path when both sides have new work, and
    /// branch creation when this replica never had the branch.
    ///
    /// # Errors
    ///
    /// As [`Replica::fetch`], plus merge-time store errors.
    pub fn pull<T: Transport>(
        &self,
        remote: &mut Remote<T>,
        branch: &str,
    ) -> Result<PullReport, NetError> {
        let fetch = self.fetch(remote, branch)?;
        let hooks = self.hooks();
        let store = &mut *self.write_store();
        let target = store.head_id(&fetch.tracking_branch)?;
        let outcome = match store.track(branch, target)? {
            TrackOutcome::Created => PullOutcome::Created,
            TrackOutcome::Unchanged => PullOutcome::UpToDate,
            TrackOutcome::FastForwarded => PullOutcome::FastForwarded,
            TrackOutcome::Diverged
                if hooks.mutation == ReplicationMutation::SkipDivergenceCheck =>
            {
                // Skip the three-way merge: jump straight to the remote
                // head, silently discarding local unmerged events.
                store.force_track(branch, target)?;
                PullOutcome::FastForwarded
            }
            TrackOutcome::Diverged => {
                let tracking = &fetch.tracking_branch;
                if self.merge_witnessed(store, &hooks, branch, tracking)? {
                    PullOutcome::Merged
                } else {
                    PullOutcome::UpToDate // remote history already contained
                }
            }
        };
        if matches!(outcome, PullOutcome::Created | PullOutcome::FastForwarded) {
            self.witness_head(store, &hooks, branch)?;
        }
        Ok(PullReport { fetch, outcome })
    }

    /// Sends the peer the pack that fast-forwards its `branch` to this
    /// replica's head of the same name — the pack a fetch from this
    /// replica would receive, with the peer's advertised heads as the
    /// *haves*: the commits those heads do not reach and the states the
    /// peer lacks, each delta-stored state as its delta when the peer
    /// holds the base. Two round trips: refs, then the push. Like
    /// `git push`: refused with [`NetError::PushRejected`] when the peer's
    /// branch has local history the pushed head does not contain — pull,
    /// merge, push again.
    ///
    /// # Errors
    ///
    /// [`NetError::PushRejected`] on divergence; transport and store
    /// errors as for fetch.
    pub fn push<T: Transport>(
        &self,
        remote: &mut Remote<T>,
        branch: &str,
    ) -> Result<PushReport, NetError> {
        let metrics = self.hooks().metrics;
        let start = metrics.as_ref().map(|_| std::time::Instant::now());
        let rt0 = remote.round_trips;
        let haves: Vec<ObjectId> = remote.refs()?.into_iter().map(|(_, o)| o).collect();
        let (head, commits, states) = self.with_store_read(|s| -> Result<_, NetError> {
            let head = s.head_id(branch)?;
            let commits = commit_pack(s, &[head], &haves)?;
            let ids: Vec<ObjectId> = commits
                .iter()
                .filter_map(|c| s.find_commit(c.id))
                .map(|c| s.state_oid(c))
                .collect();
            let states = state_pack(s, &ids, &haves, metrics.as_deref())?;
            Ok((head, commits, states))
        })?;

        let (commits_sent, states_sent) = (commits.len() as u64, states.len() as u64);
        let bytes_out = pack_bytes(&commits, &states);
        let created = remote.push_pack(branch, head, commits, states)?;
        let report = PushReport {
            round_trips: remote.round_trips - rt0,
            commits_sent,
            states_sent,
            created,
        };
        if let (Some(m), Some(start)) = (&metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            m.pushes_total.inc();
            m.round_trips_total.add(report.round_trips);
            m.pack_objects_out_total.add(commits_sent + states_sent);
            m.pack_bytes_out_total.add(bytes_out);
            m.push_micros.observe(micros);
            m.trace("push", remote.name(), micros);
        }
        Ok(report)
    }

    /// Brings this replica and the peer together in one pass, the way Git
    /// does: pull every branch the peer advertises (tracking branches
    /// excepted), then push every local branch whose head the peer does
    /// not already advertise. Pulls merge; pushes only fast-forward.
    ///
    /// A failure on one branch never stops the pass: it is recorded in
    /// [`SyncReport::errors`] and the next branch goes ahead. A refused
    /// push is resolved by the next sync's pull and merge.
    ///
    /// # Errors
    ///
    /// Only when the peer's refs cannot be read (the peer is unreachable);
    /// every later failure lands in the report.
    pub fn sync<T: Transport>(&self, remote: &mut Remote<T>) -> Result<SyncReport, NetError> {
        let advertised = remote.refs()?;
        let mut report = SyncReport::default();
        for (branch, _) in &advertised {
            if branch.starts_with(TRACKING_PREFIX) {
                continue;
            }
            match self.pull(remote, branch) {
                Ok(pull) if pull.outcome == PullOutcome::UpToDate => {}
                Ok(_) => report.pulled.push(branch.clone()),
                Err(e) => report.errors.push((branch.clone(), e)),
            }
        }
        let locals: Vec<(String, ObjectId)> = self.with_store_read(|s| {
            s.branch_names()
                .into_iter()
                .filter(|b| !b.starts_with(TRACKING_PREFIX))
                .filter_map(|b| Some((b.to_owned(), s.head_id(b).ok()?)))
                .collect()
        });
        for (branch, head) in locals {
            if advertised.iter().any(|(b, id)| *b == branch && *id == head) {
                continue; // the peer already has this very head
            }
            match self.push(remote, &branch) {
                Ok(_) => report.pushed.push(branch),
                Err(e) => report.errors.push((branch, e)),
            }
        }
        Ok(report)
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for Replica<M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Replica({:?}, {:?})", &*self.name, &*self.read_store())
    }
}

/// What a fetch transferred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchStats {
    /// Transport round trips this fetch used (3 for a cold fetch: refs,
    /// want/have, states; 1 when already up to date).
    pub round_trips: u64,
    /// Commit records ingested (previously unknown commits only).
    pub commits_received: u64,
    /// State objects ingested.
    pub states_received: u64,
    /// Of those, how many crossed the wire in delta form.
    pub delta_states_received: u64,
    /// State payload bytes that actually crossed the wire (full canonical
    /// bytes for full transfers, delta bytes for delta transfers) — the
    /// numerator of a bytes-per-op measurement.
    pub state_bytes_received: u64,
    /// The tracking branch the remote head landed on.
    pub tracking_branch: String,
    /// Whether this replica already had the remote head.
    pub up_to_date: bool,
}

impl FetchStats {
    /// Total objects this fetch added to the local store.
    pub fn objects_received(&self) -> u64 {
        self.commits_received + self.states_received
    }
}

/// How a pull integrated the fetched head into the local branch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PullOutcome {
    /// The local branch did not exist and now tracks the remote head.
    Created,
    /// The local branch was strictly behind and fast-forwarded (no merge
    /// commit minted).
    FastForwarded,
    /// Both sides had new work; a three-way merge commit was created.
    Merged,
    /// The remote had nothing new.
    UpToDate,
}

/// The result of a [`Replica::pull`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PullReport {
    /// The transfer half.
    pub fetch: FetchStats,
    /// The integration half.
    pub outcome: PullOutcome,
}

/// The result of a [`Replica::push`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushReport {
    /// Transport round trips this push used (2: refs, then the push).
    pub round_trips: u64,
    /// Commit records uploaded.
    pub commits_sent: u64,
    /// State objects uploaded, full or as deltas: the states the pushed
    /// commits carry, less those carried by commits the peer's
    /// advertised heads reach.
    pub states_sent: u64,
    /// Whether the peer created the branch (as opposed to fast-forwarding
    /// it).
    pub created: bool,
}

/// What one [`Replica::sync`] moved, and what failed on the way.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Branches whose local head a pull moved (created, fast-forwarded or
    /// merged).
    pub pulled: Vec<String>,
    /// Branches whose head a push moved on the peer.
    pub pushed: Vec<String>,
    /// Per-branch failures, in the order met; the pass went on past each.
    pub errors: Vec<(String, NetError)>,
}

impl SyncReport {
    /// Whether the sync moved a head on either side.
    pub fn moved(&self) -> bool {
        !self.pulled.is_empty() || !self.pushed.is_empty()
    }
}

/// A named link to a peer replica — Git's "remote": a name this replica
/// files the peer's branches under, plus the transport that reaches it.
#[derive(Debug)]
pub struct Remote<T> {
    name: String,
    transport: T,
    round_trips: u64,
}

impl<T: Transport> Remote<T> {
    /// Names a transport. The name becomes the `remote/<name>/…` prefix
    /// ([`TRACKING_PREFIX`]) of tracking branches created by fetches
    /// through this remote.
    pub fn new(name: impl Into<String>, transport: T) -> Self {
        Remote {
            name: name.into(),
            transport,
            round_trips: 0,
        }
    }

    /// The remote's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total request/response round trips performed through this remote.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        self.round_trips += 1;
        let frame = self.transport.request(&req.to_wire())?;
        Response::from_frame(&frame)
    }

    /// `FetchRefs`: the peer's branch heads.
    ///
    /// # Errors
    ///
    /// Transport errors; [`NetError::Protocol`] on a mismatched response.
    pub fn refs(&mut self) -> Result<Vec<(String, ObjectId)>, NetError> {
        match self.call(&Request::FetchRefs)? {
            Response::Refs { refs } => Ok(refs),
            r => Err(unexpected("Refs", &r)),
        }
    }

    /// `Want`: the commit records reachable from `wants` but not `haves`.
    ///
    /// # Errors
    ///
    /// As [`Remote::refs`].
    pub fn want(
        &mut self,
        wants: &[ObjectId],
        haves: &[ObjectId],
    ) -> Result<Vec<PackedObject>, NetError> {
        let req = Request::Want {
            wants: wants.to_vec(),
            haves: haves.to_vec(),
        };
        match self.call(&req)? {
            Response::Commits { commits } => Ok(commits),
            r => Err(unexpected("Commits", &r)),
        }
    }

    /// `GetStatesDelta`: the peer's state objects under `ids`, each
    /// possibly as a delta against a base reachable from `haves` (or
    /// served earlier in the same reply). The caller resolves and
    /// hash-verifies every delta on ingest.
    ///
    /// # Errors
    ///
    /// As [`Remote::refs`].
    pub fn get_states_delta(
        &mut self,
        ids: &[ObjectId],
        haves: &[ObjectId],
    ) -> Result<Vec<StateTransfer>, NetError> {
        let req = Request::GetStatesDelta {
            ids: ids.to_vec(),
            haves: haves.to_vec(),
        };
        match self.call(&req)? {
            Response::StatesDelta { states } => Ok(states),
            r => Err(unexpected("StatesDelta", &r)),
        }
    }

    /// `Push`: upload a pack (commit records parents first, then states
    /// in the order a `GetStatesDelta` reply carries them) and
    /// fast-forward the peer's branch. Returns whether the branch was
    /// created.
    ///
    /// # Errors
    ///
    /// [`NetError::PushRejected`] when the peer denies the update; other
    /// errors as [`Remote::refs`].
    pub fn push_pack(
        &mut self,
        branch: &str,
        head: ObjectId,
        commits: Vec<PackedObject>,
        states: Vec<StateTransfer>,
    ) -> Result<bool, NetError> {
        let req = Request::Push {
            branch: branch.to_owned(),
            head,
            commits,
            states,
        };
        match self.call(&req)? {
            Response::Pushed { created } => Ok(created),
            Response::PushDenied => Err(NetError::PushRejected),
            r => Err(unexpected("Pushed", &r)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    let kind = match got {
        Response::Refs { .. } => "Refs",
        Response::Commits { .. } => "Commits",
        Response::StatesDelta { .. } => "StatesDelta",
        Response::Pushed { .. } => "Pushed",
        Response::PushDenied => "PushDenied",
        Response::Error { .. } => "Error",
    };
    NetError::Protocol(format!("expected {wanted} response, got {kind}"))
}

/// The commit half of every pack: the commit records reachable from
/// `wants` but not from `haves`, parents first. A served `Want` answers
/// with it, and a push sends it.
fn commit_pack<M: Mrdt, B: Backend>(
    store: &BranchStore<M, B>,
    wants: &[ObjectId],
    haves: &[ObjectId],
) -> Result<Vec<PackedObject>, NetError> {
    store
        .commits_between(wants, haves)
        .into_iter()
        .map(|c| {
            let id = store.commit_oid(c);
            let bytes = store
                .commit_record_bytes(id)?
                .ok_or_else(|| NetError::Protocol("indexed commit missing".into()))?;
            Ok(PackedObject { id, bytes })
        })
        .collect()
}

/// The state half of every pack: the states under `ids` (parents first,
/// like pack order) for a receiver that holds the history reachable from
/// `haves`. A state that receiver holds, or that is already in the pack,
/// is skipped. A state goes out as its stored delta record — O(delta)
/// bytes, zero re-encodes — when the receiver provably holds the base: it
/// is carried by a commit reachable from `haves`, or it went earlier in
/// this pack. A served `GetStatesDelta` answers with it, and a push sends
/// it.
fn state_pack<M: Mrdt, B: Backend>(
    store: &BranchStore<M, B>,
    ids: &[ObjectId],
    haves: &[ObjectId],
    metrics: Option<&NetMetrics>,
) -> Result<Vec<StateTransfer>, NetError> {
    let mut available: HashSet<ObjectId> = store
        .commits_between(haves, &[])
        .into_iter()
        .map(|c| store.state_oid(c))
        .collect();
    let mut states = Vec::with_capacity(ids.len());
    for &id in ids {
        if available.contains(&id) {
            continue;
        }
        match store.state_stored_delta(id)? {
            Some((base, delta)) if available.contains(&base) => {
                if let Some(m) = metrics {
                    m.delta_states_out_total.inc();
                }
                states.push(StateTransfer::Delta { id, base, delta });
            }
            _ => match store.state_bytes(id)? {
                Some(bytes) => states.push(StateTransfer::Full {
                    state: PackedObject { id, bytes },
                }),
                None => continue,
            },
        }
        available.insert(id);
    }
    Ok(states)
}

/// Bytes a pack's objects occupy on the wire: each commit record, and
/// each state's full bytes or delta script. The pack-bytes metrics and
/// [`FetchStats::state_bytes_received`] count this.
fn pack_bytes(commits: &[PackedObject], states: &[StateTransfer]) -> u64 {
    let commits: usize = commits.iter().map(|c| c.bytes.len()).sum();
    let states: usize = states
        .iter()
        .map(|t| match t {
            StateTransfer::Full { state } => state.bytes.len(),
            StateTransfer::Delta { delta, .. } => delta.len(),
        })
        .sum();
    (commits + states) as u64
}

/// Whether accepting `head` on `branch` would be refused as diverged —
/// answered **before** anything is ingested, by walking `head`'s
/// ancestry through the pack's commit records and, where the walk
/// reaches commits the store already knows, through the local graph.
///
/// Without this pre-check a denied push still landed its transferred
/// objects: every retry of a diverged hammering client grew the backend
/// with commits no ref would ever reach (reclaimable only by GC). The
/// walk is read-only and costs at most one record parse per pack commit.
fn push_would_diverge<M: Mrdt, B: Backend>(
    store: &BranchStore<M, B>,
    branch: &str,
    head: ObjectId,
    commits: &[PackedObject],
) -> Result<bool, NetError> {
    let Ok(local) = store.head_id(branch) else {
        return Ok(false); // no such branch: the push would create it
    };
    let local_cid = store.find_commit(local);
    let pack: std::collections::HashMap<ObjectId, &[u8]> =
        commits.iter().map(|p| (p.id, p.bytes.as_slice())).collect();
    let mut stack = vec![head];
    let mut seen: HashSet<ObjectId> = HashSet::new();
    while let Some(oid) = stack.pop() {
        if !seen.insert(oid) {
            continue;
        }
        if oid == local {
            return Ok(false); // fast-forward (or no-op): contains our head
        }
        if let Some(cid) = store.find_commit(oid) {
            // Store-known subtree: answer from the local graph instead of
            // walking record by record.
            if local_cid.is_some_and(|l| store.graph().is_ancestor(l, cid)) {
                return Ok(false);
            }
            continue;
        }
        if let Some(bytes) = pack.get(&oid) {
            // Unverified bytes — fine for a conservative pre-check: the
            // real ingest re-verifies everything before landing. A record
            // that does not even parse cannot make the push acceptable.
            if let Some(meta) = parse_commit_record(bytes) {
                stack.extend(meta.parents);
            }
        }
        // Neither local nor in the pack: this line of ancestry cannot
        // contain our head (ingest would reject such a pack anyway).
    }
    Ok(true)
}

impl<M: Mrdt, B: Backend> Replica<M, B> {
    /// The mutating server side of [`Replica::handle`]: `Push` is the one
    /// request that changes the serving store, so it alone takes the write
    /// lock. When an observer is attached, an accepted push emits the
    /// ingested events (`learned`) and — if the branch head actually moved
    /// — the new visible set (`head_advanced`), under the same write lock
    /// as the ingest itself.
    fn serve_push(
        &self,
        branch: &str,
        head: ObjectId,
        commits: &[PackedObject],
        states: &[StateTransfer],
    ) -> Result<Response, NetError> {
        let hooks = self.hooks();
        let store = &mut *self.write_store();
        // Refuse a diverged push *before* ingesting its objects, or
        // every denied push leaks its pack into the backend.
        if push_would_diverge(store, branch, head, commits)? {
            if let Some(m) = &hooks.metrics {
                m.push_denied_total.inc();
            }
            return Ok(Response::PushDenied);
        }
        self.ingest_witnessed(store, &hooks, commits, states, head)?;
        let outcome = store.track(branch, head)?;
        if matches!(outcome, TrackOutcome::Created | TrackOutcome::FastForwarded) {
            self.witness_head(store, &hooks, branch)?;
        }
        if let Some(m) = &hooks.metrics {
            match outcome {
                TrackOutcome::Diverged => m.push_denied_total.inc(),
                _ => {
                    m.serve_pushes_total.inc();
                    m.trace("serve_push", branch, commits.len() as u64);
                }
            }
        }
        match outcome {
            TrackOutcome::Created => Ok(Response::Pushed { created: true }),
            TrackOutcome::FastForwarded | TrackOutcome::Unchanged => {
                Ok(Response::Pushed { created: false })
            }
            TrackOutcome::Diverged => Ok(Response::PushDenied),
        }
    }
}

/// The operation events a pack would newly introduce to `store`, in pack
/// (parents-first) order: commits the store does not yet have, parsed for
/// their minted `(tick, replica)`, roots and merges (tick 0) excluded.
/// Read-only — called *before* the ingest whose learn set it predicts.
fn fresh_pack_events<M: Mrdt, B: Backend>(
    store: &BranchStore<M, B>,
    commits: &[PackedObject],
) -> Vec<Timestamp> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut out = Vec::new();
    for pc in commits {
        if !seen.insert(pc.id) || store.has_commit(pc.id) {
            continue;
        }
        if let Some(meta) = parse_commit_record(&pc.bytes) {
            if meta.tick > 0 {
                out.push(Timestamp::new(meta.tick, ReplicaId::new(meta.replica)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use peepul_store::MemoryBackend;
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};

    /// The regression the minted-timestamp commit identity exists for:
    /// two independent replicas built the *recommended* way apply one
    /// concurrent increment each — both must survive replication even
    /// though the states (and parents) coincide.
    #[test]
    fn open_derives_disjoint_bases_so_concurrent_ops_never_collapse() {
        let a: Replica<Counter, _> = Replica::open("a", "main", MemoryBackend::new()).unwrap();
        let b: Replica<Counter, _> = Replica::open("b", "main", MemoryBackend::new()).unwrap();
        let base = |r: &Replica<Counter, MemoryBackend>| {
            r.with_store_read(|s| s.replica_of("main").unwrap().as_u32())
        };
        assert_ne!(base(&a), base(&b), "name-derived bases must differ");

        a.apply("main", &CounterOp::Increment).unwrap();
        b.apply("main", &CounterOp::Increment).unwrap();
        assert_ne!(
            a.head_id("main").unwrap(),
            b.head_id("main").unwrap(),
            "distinct concurrent events must have distinct commit ids"
        );

        let mut remote = Remote::new("b", ChannelTransport::connect(b.clone()));
        a.pull(&mut remote, "main").unwrap();
        assert_eq!(a.read("main", &CounterQuery::Value).unwrap(), 2);
    }

    /// One sync does both directions: the initiator pulls the branch it
    /// lacks and merges the diverged `main`, then pushes the merge back,
    /// so both sides end on the same heads; a second sync moves nothing.
    #[test]
    fn one_sync_pulls_and_pushes_until_both_sides_agree() {
        let a: Replica<Counter, _> = Replica::open("a", "main", MemoryBackend::new()).unwrap();
        let b: Replica<Counter, _> = Replica::open("b", "main", MemoryBackend::new()).unwrap();
        a.apply("main", &CounterOp::Increment).unwrap();
        b.apply("main", &CounterOp::Increment).unwrap();
        b.fork("main", "feature").unwrap();
        b.apply("feature", &CounterOp::Increment).unwrap();

        let mut to_b = Remote::new("b", ChannelTransport::connect(b.clone()));
        let report = a.sync(&mut to_b).unwrap();
        assert_eq!(report.pulled, ["feature", "main"]);
        assert_eq!(report.pushed, ["main"], "feature is already on b");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        for branch in ["main", "feature"] {
            assert_eq!(a.head_id(branch).unwrap(), b.head_id(branch).unwrap());
        }
        assert_eq!(b.read("main", &CounterQuery::Value).unwrap(), 2);
        assert!(
            !b.with_store_read(|s| s.has_branch("remote/a/main")),
            "a push lands no tracking branch on the peer"
        );

        let again = a.sync(&mut to_b).unwrap();
        assert_eq!(again, SyncReport::default(), "nothing left to move");
    }

    /// The service-layer contract: the read path takes the *shared* lock,
    /// so a reader holding it does not block another reader. If reads
    /// were exclusive, the second `read` below would wait out the full
    /// hold and trip the elapsed assertion.
    #[test]
    fn reads_run_concurrently_with_reads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};

        let r: Replica<Counter, _> = Replica::open("a", "main", MemoryBackend::new()).unwrap();
        r.apply("main", &CounterOp::Increment).unwrap();

        let holding = std::sync::Arc::new(AtomicBool::new(false));
        let held = std::sync::Arc::clone(&holding);
        let holder = {
            let r = r.clone();
            std::thread::spawn(move || {
                r.with_store_read(|s| {
                    held.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(600));
                    s.commit_count()
                })
            })
        };
        while !holding.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let start = Instant::now();
        assert_eq!(r.read("main", &CounterQuery::Value).unwrap(), 1);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "a concurrent reader must not wait for the read-lock holder"
        );
        holder.join().unwrap();
    }

    /// The poison policy (DESIGN §10): a panic under the store's write
    /// lock does not wedge the replica; later reads and writes recover
    /// the lock and see the last committed state.
    #[test]
    fn store_lock_recovers_from_a_panicking_holder() {
        let r: Replica<Counter, _> = Replica::open("a", "main", MemoryBackend::new()).unwrap();
        r.apply("main", &CounterOp::Increment).unwrap();
        let holder = r.clone();
        let panicked = std::thread::spawn(move || {
            let _store = holder.write_store();
            panic!("handler bug under the write lock")
        })
        .join();
        assert!(panicked.is_err(), "the holder thread must have panicked");
        assert_eq!(r.read("main", &CounterQuery::Value).unwrap(), 1);
        r.apply("main", &CounterOp::Increment).unwrap();
        assert_eq!(r.read("main", &CounterQuery::Value).unwrap(), 2);
    }
}
