//! Replicas and remotes: the client and server halves of the sync
//! protocol.
//!
//! A [`Replica`] owns its own [`BranchStore`] — its own commit graph, its
//! own backend, its own Lamport clock. Nothing is shared with any peer:
//! the only way state moves between replicas is as verified
//! content-addressed objects over a [`Transport`]. That is the difference
//! between this module and the old single-store thread simulation, and it
//! is what makes partitions, lag and independent crashes expressible.
//!
//! A [`Remote`] is a named link to a peer (name + transport), like a Git
//! remote. The three client operations mirror Git's:
//!
//! * [`Replica::fetch`] — negotiate and transfer the objects this store
//!   lacks, verify every one against its content address, and land the
//!   remote head as a `remote/<name>/<branch>` tracking branch;
//! * [`Replica::pull`] — fetch, then integrate: fast-forward when the
//!   local branch is strictly behind, otherwise a real three-way merge
//!   through the store's typed-handle path (LCA search, merge memo and
//!   all);
//! * [`Replica::push`] — upload the peer's missing objects and ask it to
//!   fast-forward its branch; refused if the peer has diverged.
//!
//! Replication operations **never hold the local store lock across a
//! transport request** — locks are taken per phase. Two replicas pulling
//! from each other concurrently therefore cannot deadlock: each thread
//! holds at most one replica lock at any instant.
//!
//! The store sits behind an `RwLock`, not a mutex: pure observations
//! ([`Replica::read`], [`Replica::state`], the read-only protocol
//! requests `FetchRefs`/`Want`/`GetStatesDelta`/`HaveObjects`) take the shared
//! read lock and run concurrently with each other — the store's
//! commit-free query path needs only `&self` — while mutations (applies,
//! merges, ingest, `Push`) take the exclusive write lock. A server
//! answering many sessions over one replica therefore serializes writes
//! but never serializes reads behind them.

use crate::error::NetError;
use crate::message::{PackedObject, Request, Response, StateTransfer};
use crate::metrics::NetMetrics;
use crate::observer::{HistoryObserver, ReplicationMutation};
use crate::transport::Transport;
use parking_lot::RwLock;
use peepul_core::{Mrdt, ReplicaId, Timestamp, Wire};
use peepul_store::sha256::Sha256;
use peepul_store::{
    parse_commit_record, Backend, BranchStore, IngestReport, ObjectId, PackState, StoreError,
    TrackOutcome,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// The observer/mutation/metrics slot shared by every clone of a replica
/// handle.
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

    /// The replica's name (used in peers' tracking-branch names and
    /// diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `f` with the store under the **exclusive write lock**. The
    /// closure must not block on another replica's lock (transports do
    /// not — see the module docs).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut BranchStore<M, B>) -> R) -> R {
        f(&mut self.store.write())
    }

    /// Runs `f` with the store under the **shared read lock**: any number
    /// of readers run concurrently, and none of the store's mutating or
    /// commit-minting paths are reachable through `&BranchStore`.
    pub fn with_store_read<R>(&self, f: impl FnOnce(&BranchStore<M, B>) -> R) -> R {
        f(&self.store.read())
    }

    /// Answers a pure query against a local branch head (commit-free,
    /// under the shared read lock — concurrent with other readers).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn read(&self, branch: &str, q: &M::Query) -> Result<M::Output, StoreError> {
        self.store.read().read(branch, q)
    }

    /// A local branch's current state (cheap `Arc` clone).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state(&self, branch: &str) -> Result<Arc<M>, StoreError> {
        self.store.read().state(branch)
    }

    /// The content address of a local branch's head *state* — what the
    /// convergence suites compare across replicas (byte-identical
    /// canonical states ⇒ equal ids, on any backend).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn state_id(&self, branch: &str) -> Result<ObjectId, StoreError> {
        self.store.read().state_id(branch)
    }

    /// The content address of a local branch's head *commit*.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn head_id(&self, branch: &str) -> Result<ObjectId, StoreError> {
        self.store.read().head_id(branch)
    }

    /// Number of distinct objects in this replica's backend.
    pub fn object_count(&self) -> usize {
        self.store.read().backend().object_count()
    }

    /// Attaches a [`HistoryObserver`] that will receive one witness event
    /// per replication-visible transition: local operations through
    /// [`Replica::apply`], pack ingests (fetches and served pushes), head
    /// integrations, and observations through [`Replica::read_observed`].
    /// Shared by every clone of this handle; replaces any previous
    /// observer.
    pub fn set_observer(&self, observer: Arc<dyn HistoryObserver<M>>) {
        self.hooks.write().observer = Some(observer);
    }

    /// Detaches the observer, if any.
    pub fn clear_observer(&self) {
        self.hooks.write().observer = None;
    }

    /// **Mutation-testing surface — never call in production code.**
    /// Enacts a deliberate replication fault (see
    /// [`ReplicationMutation`]) on this replica's fetch/pull/apply paths,
    /// so the `Φ_ra` kill-gate can prove each fault is caught. Shared by
    /// every clone of this handle.
    pub fn set_replication_mutation(&self, mutation: ReplicationMutation) {
        self.hooks.write().mutation = mutation;
    }

    fn hooks_snapshot(&self) -> (Option<Arc<dyn HistoryObserver<M>>>, ReplicationMutation) {
        let h = self.hooks.read();
        (h.observer.clone(), h.mutation)
    }

    /// Attaches (or detaches, with `None`) replication metrics — same
    /// shared-by-every-clone semantics as [`Replica::set_observer`].
    /// Fetches, pushes and served pushes through any clone of this
    /// handle update the attached counters.
    pub fn set_net_metrics(&self, metrics: Option<Arc<NetMetrics>>) {
        self.hooks.write().metrics = metrics;
    }

    fn net_metrics(&self) -> Option<Arc<NetMetrics>> {
        self.hooks.read().metrics.clone()
    }

    /// Applies one local operation to `branch` — the witness-observed
    /// counterpart of `with_store(|s| s.branch_mut(branch)?.apply(op))`.
    /// When an observer is attached, the minted event (timestamp, return
    /// value, visible set) is emitted **under the same write lock** as
    /// the commit, so the per-replica witness order matches the store's
    /// mutation order exactly.
    ///
    /// # Errors
    ///
    /// As [`BranchStore::branch_mut`] + apply.
    pub fn apply(&self, branch: &str, op: &M::Op) -> Result<M::Value, StoreError> {
        let (observer, mutation) = self.hooks_snapshot();
        let mut store = self.store.write();
        let value = store.branch_mut(branch)?.apply(op)?;
        if let Some(obs) = &observer {
            let head = store.head(branch)?;
            let t = store.commit_mint(head);
            let mut past = store.visible_mints(head);
            past.retain(|&e| e != t);
            if mutation == ReplicationMutation::DropVisibilityEdge {
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

    /// Answers a pure query like [`Replica::read`], additionally emitting
    /// the observation (query, output, visible event set) to the attached
    /// observer — the probe side of the `Φ_ra` witness. Runs under the
    /// shared read lock.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if the branch does not exist.
    pub fn read_observed(&self, branch: &str, q: &M::Query) -> Result<M::Output, StoreError> {
        let (observer, _) = self.hooks_snapshot();
        let store = self.store.read();
        let out = store.read(branch, q)?;
        if let Some(obs) = &observer {
            let visible = store.visible_mints(store.head(branch)?);
            obs.observed(&self.name, q, &out, &visible);
        }
        Ok(out)
    }
}

impl<M: Mrdt, B: Backend> Replica<M, B> {
    /// Serves one protocol request against this replica's store — the
    /// server half of fetch and push. Errors are folded into
    /// [`Response::Error`] so a misbehaving client cannot poison the
    /// serving replica.
    ///
    /// Read-only requests (`FetchRefs`, `Want`, `GetStatesDelta`,
    /// `HaveObjects`) are served under the shared read lock and run
    /// concurrently; only `Push` takes the write lock.
    pub fn handle(&self, req: Request) -> Response {
        let served = match req {
            Request::Push { .. } => self.serve_push(req),
            _ => serve_read(&self.store.read(), req, self.net_metrics().as_ref()),
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
        let metrics = self.net_metrics();
        let start = metrics.as_ref().map(|_| std::time::Instant::now());
        let rt0 = remote.round_trips;
        let tracking_branch = format!("remote/{}/{branch}", remote.name());
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
            self.with_store(|s| s.force_track(&tracking_branch, head))?;
            let stats = FetchStats {
                round_trips: remote.round_trips - rt0,
                commits_received: 0,
                states_received: 0,
                delta_states_received: 0,
                state_bytes_received: 0,
                tracking_branch,
                up_to_date: true,
            };
            if let (Some(m), Some(start)) = (&metrics, start) {
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
                    if seen.insert(meta.state) && s.state_payload(meta.state).is_none() {
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
        let (observer, mutation) = self.hooks_snapshot();
        let counts = self.with_store(|s| -> Result<IngestReport, NetError> {
            let pre_tick = s.tick();
            let mut learned = if observer.is_some() {
                fresh_pack_events(s, &commits)
            } else {
                Vec::new()
            };
            let transfers = states.iter().map(|t| match t {
                StateTransfer::Full { state } => PackState::Full {
                    id: state.id,
                    bytes: &state.bytes,
                },
                StateTransfer::Delta { id, base, delta } => PackState::Delta {
                    id: *id,
                    base: *base,
                    delta,
                },
            });
            let counts = ingest_pack(s, &commits, transfers)?;
            if !s.has_commit(head) {
                return Err(NetError::Protocol(format!(
                    "peer advertised head {} but did not send it",
                    head.short()
                )));
            }
            s.force_track(&tracking_branch, head)?;
            if mutation == ReplicationMutation::BrokenReceiveRule {
                // Pretend the ingested events never advanced our clock.
                s.force_clock(pre_tick);
            }
            if let Some(obs) = &observer {
                if mutation == ReplicationMutation::ReorderedPackIngest {
                    learned.reverse();
                }
                if !learned.is_empty() {
                    obs.learned(&self.name, &learned);
                }
            }
            Ok(counts)
        })?;
        let state_bytes: u64 = states
            .iter()
            .map(|t| match t {
                StateTransfer::Full { state } => state.bytes.len() as u64,
                StateTransfer::Delta { delta, .. } => delta.len() as u64,
            })
            .sum();
        let stats = FetchStats {
            round_trips: remote.round_trips - rt0,
            commits_received: counts.commits,
            states_received: counts.states,
            delta_states_received: counts.delta_states,
            state_bytes_received: state_bytes,
            tracking_branch,
            up_to_date: false,
        };
        if let (Some(m), Some(start)) = (&metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            let bytes: u64 =
                commits.iter().map(|o| o.bytes.len() as u64).sum::<u64>() + state_bytes;
            m.fetches_total.inc();
            m.round_trips_total.add(stats.round_trips);
            m.pack_objects_in_total
                .add(commits.len() as u64 + states.len() as u64);
            m.pack_bytes_in_total.add(bytes);
            m.delta_states_in_total.add(counts.delta_states);
            m.delta_bytes_saved_total.add(counts.delta_saved_bytes);
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
        let (observer, mutation) = self.hooks_snapshot();
        let outcome = self.with_store(|s| -> Result<PullOutcome, StoreError> {
            let target = s.head_id(&fetch.tracking_branch)?;
            let outcome = match s.track(branch, target)? {
                TrackOutcome::Created => PullOutcome::Created,
                TrackOutcome::Unchanged => PullOutcome::UpToDate,
                TrackOutcome::FastForwarded => PullOutcome::FastForwarded,
                TrackOutcome::Diverged if mutation == ReplicationMutation::SkipDivergenceCheck => {
                    // Skip the three-way merge: jump straight to the remote
                    // head, silently discarding local unmerged events.
                    s.force_track(branch, target)?;
                    PullOutcome::FastForwarded
                }
                TrackOutcome::Diverged => {
                    let before = s.head_id(branch)?;
                    let tracking = fetch.tracking_branch.clone();
                    s.branch_mut(branch)?.merge_from(tracking)?;
                    if s.head_id(branch)? == before {
                        PullOutcome::UpToDate // remote history already contained
                    } else {
                        PullOutcome::Merged
                    }
                }
            };
            if let Some(obs) = &observer {
                if !matches!(outcome, PullOutcome::UpToDate) {
                    let visible = s.visible_mints(s.head(branch)?);
                    obs.head_advanced(&self.name, &visible);
                }
            }
            Ok(outcome)
        })?;
        Ok(PullReport { fetch, outcome })
    }

    /// Uploads everything the peer lacks to fast-forward its `branch` to
    /// this replica's head of the same name. Like `git push`: refused with
    /// [`NetError::PushRejected`] when the peer's branch has local history
    /// the pushed head does not contain — pull, merge, push again.
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
        let metrics = self.net_metrics();
        let start = metrics.as_ref().map(|_| std::time::Instant::now());
        let rt0 = remote.round_trips;
        let refs = remote.refs()?;
        let server_heads: Vec<ObjectId> = refs.iter().map(|(_, o)| *o).collect();

        let (head, commits, state_ids) = self.with_store_read(|s| -> Result<_, NetError> {
            let head = s.head_id(branch).map_err(NetError::Store)?;
            let missing = s.commits_between(&[head], &server_heads);
            let mut commits = Vec::with_capacity(missing.len());
            let mut state_ids = Vec::new();
            let mut seen = HashSet::new();
            for c in missing {
                let oid = s.commit_oid(c);
                let bytes = s
                    .commit_record_bytes(oid)?
                    .ok_or_else(|| NetError::Protocol("own commit missing".into()))?;
                commits.push(PackedObject { id: oid, bytes });
                let sid = s.state_oid(c);
                if seen.insert(sid) {
                    state_ids.push(sid);
                }
            }
            Ok((head, commits, state_ids))
        })?;

        // Don't upload states the peer already stores (converged histories
        // share state objects even when commits differ).
        let peer_has = if state_ids.is_empty() {
            Vec::new()
        } else {
            remote.have_objects(&state_ids)?
        };
        let need: Vec<ObjectId> = state_ids
            .iter()
            .zip(peer_has.iter().chain(std::iter::repeat(&false)))
            .filter(|(_, has)| !**has)
            .map(|(id, _)| *id)
            .collect();
        let states = self.with_store_read(|s| -> Result<Vec<PackedObject>, NetError> {
            need.iter()
                .map(|id| {
                    // Canonical bytes straight from the backend — the
                    // storage format is the wire format.
                    let bytes = s
                        .state_bytes(*id)?
                        .ok_or_else(|| NetError::Protocol("own state missing".into()))?;
                    Ok(PackedObject { id: *id, bytes })
                })
                .collect()
        })?;

        let (commits_sent, states_sent) = (commits.len() as u64, states.len() as u64);
        let bytes_out: u64 = commits.iter().map(|o| o.bytes.len() as u64).sum::<u64>()
            + states.iter().map(|o| o.bytes.len() as u64).sum::<u64>();
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
}

impl<M: Mrdt, B: Backend> fmt::Debug for Replica<M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Replica({:?}, {:?})", &*self.name, &*self.store.read())
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
    /// Transport round trips this push used.
    pub round_trips: u64,
    /// Commit records uploaded.
    pub commits_sent: u64,
    /// State objects uploaded (after the have-negotiation filtered out
    /// what the peer already stored).
    pub states_sent: u64,
    /// Whether the peer created the branch (as opposed to fast-forwarding
    /// it).
    pub created: bool,
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
    /// Names a transport. The name becomes the `remote/<name>/…` prefix of
    /// tracking branches created by fetches through this remote.
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

    /// `HaveObjects`: per-id presence on the peer.
    ///
    /// # Errors
    ///
    /// As [`Remote::refs`].
    pub fn have_objects(&mut self, ids: &[ObjectId]) -> Result<Vec<bool>, NetError> {
        let req = Request::HaveObjects { ids: ids.to_vec() };
        match self.call(&req)? {
            Response::Haves { haves } => Ok(haves),
            r => Err(unexpected("Haves", &r)),
        }
    }

    /// `Push`: upload a pack and fast-forward the peer's branch. Returns
    /// whether the branch was created.
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
        states: Vec<PackedObject>,
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
        Response::Haves { .. } => "Haves",
        Response::Pushed { .. } => "Pushed",
        Response::PushDenied => "PushDenied",
        Response::Error { .. } => "Error",
    };
    NetError::Protocol(format!("expected {wanted} response, got {kind}"))
}

/// Verifies and lands a pack of commit records + state objects by
/// delegating to the store's single ingest path
/// ([`BranchStore::ingest_pack`]) — the one adapter both directions use:
/// a fetch maps its delta-aware [`StateTransfer`]s onto [`PackState`], a
/// push its full [`PackedObject`]s.
///
/// Since the codec unification there is nothing format-specific left to
/// do here: the bytes on the wire *are* the canonical storage bytes, so
/// the store verifies each object with one hash (and each state with one
/// decode, resolving every delta against its base first), publishes the
/// verified bytes without re-hashing, and applies the Lamport receive
/// rule itself. A corrupt object fails the whole pack before anything is
/// written.
fn ingest_pack<'a, M: Mrdt, B: Backend>(
    store: &mut BranchStore<M, B>,
    commits: &[PackedObject],
    states: impl Iterator<Item = PackState<'a>>,
) -> Result<IngestReport, NetError> {
    let commits: Vec<(ObjectId, &[u8])> =
        commits.iter().map(|p| (p.id, p.bytes.as_slice())).collect();
    let states: Vec<PackState<'a>> = states.collect();
    Ok(store.ingest_pack(&commits, &states)?)
}

/// The read-only server side of [`Replica::handle`] — everything a peer
/// can ask without changing this store, served from `&BranchStore` so any
/// number of these run concurrently under the shared read lock.
fn serve_read<M: Mrdt, B: Backend>(
    store: &BranchStore<M, B>,
    req: Request,
    metrics: Option<&Arc<NetMetrics>>,
) -> Result<Response, NetError> {
    match req {
        Request::FetchRefs => Ok(Response::Refs {
            refs: store.backend().refs()?,
        }),
        Request::Want { wants, haves } => {
            let missing = store.commits_between(&wants, &haves);
            let mut commits = Vec::with_capacity(missing.len());
            for c in missing {
                let id = store.commit_oid(c);
                let bytes = store
                    .commit_record_bytes(id)?
                    .ok_or_else(|| NetError::Protocol("indexed commit missing".into()))?;
                commits.push(PackedObject { id, bytes });
            }
            Ok(Response::Commits { commits })
        }
        Request::GetStatesDelta { ids, haves } => {
            // A state may go out as its stored delta record — O(delta)
            // bytes, zero re-encodes — when the requester provably holds
            // the base: it is carried by a commit reachable from the
            // request's `haves`, or it was served earlier in this very
            // reply (request order is parents-first, like pack order).
            let mut available: HashSet<ObjectId> = store
                .commits_between(&haves, &[])
                .into_iter()
                .map(|c| store.state_oid(c))
                .collect();
            let mut states = Vec::with_capacity(ids.len());
            for id in ids {
                match store.state_stored_delta(id)? {
                    Some((base, delta)) if available.contains(&base) => {
                        if let Some(m) = metrics {
                            m.delta_states_out_total.inc();
                        }
                        states.push(StateTransfer::Delta { id, base, delta });
                        available.insert(id);
                    }
                    _ => {
                        if let Some(bytes) = store.state_bytes(id)? {
                            states.push(StateTransfer::Full {
                                state: PackedObject { id, bytes },
                            });
                            available.insert(id);
                        }
                    }
                }
            }
            Ok(Response::StatesDelta { states })
        }
        Request::HaveObjects { ids } => {
            let haves = ids
                .into_iter()
                .map(|id| store.backend().contains(id))
                .collect::<Result<Vec<bool>, StoreError>>()?;
            Ok(Response::Haves { haves })
        }
        Request::Push { .. } => Err(NetError::Protocol(
            "push dispatched to the read-only path".into(),
        )),
    }
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
    fn serve_push(&self, req: Request) -> Result<Response, NetError> {
        let Request::Push {
            branch,
            head,
            commits,
            states,
        } = req
        else {
            return serve_read(&self.store.read(), req, self.net_metrics().as_ref());
        };
        let (observer, mutation) = self.hooks_snapshot();
        let metrics = self.net_metrics();
        let store = &mut *self.store.write();
        // Refuse a diverged push *before* ingesting its objects, or
        // every denied push leaks its pack into the backend.
        if push_would_diverge(store, &branch, head, &commits)? {
            if let Some(m) = &metrics {
                m.push_denied_total.inc();
            }
            return Ok(Response::PushDenied);
        }
        let mut learned = if observer.is_some() {
            fresh_pack_events(store, &commits)
        } else {
            Vec::new()
        };
        let full = states.iter().map(|p| PackState::Full {
            id: p.id,
            bytes: &p.bytes,
        });
        ingest_pack(store, &commits, full)?;
        if !store.has_commit(head) {
            return Err(NetError::Protocol(format!(
                "pushed head {} not contained in pack or store",
                head.short()
            )));
        }
        let outcome = store.track(&branch, head)?;
        if let Some(obs) = &observer {
            if mutation == ReplicationMutation::ReorderedPackIngest {
                learned.reverse();
            }
            if !learned.is_empty() {
                obs.learned(&self.name, &learned);
            }
            if matches!(outcome, TrackOutcome::Created | TrackOutcome::FastForwarded) {
                let visible = store.visible_mints(store.head(&branch)?);
                obs.head_advanced(&self.name, &visible);
            }
        }
        if let Some(m) = &metrics {
            let bytes: u64 = commits.iter().map(|o| o.bytes.len() as u64).sum::<u64>()
                + states.iter().map(|o| o.bytes.len() as u64).sum::<u64>();
            match outcome {
                TrackOutcome::Diverged => m.push_denied_total.inc(),
                _ => {
                    m.serve_pushes_total.inc();
                    m.pack_objects_in_total
                        .add(commits.len() as u64 + states.len() as u64);
                    m.pack_bytes_in_total.add(bytes);
                    m.trace("serve_push", &branch, commits.len() as u64);
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
            r.with_store(|s| s.replica_of("main").unwrap().as_u32())
        };
        assert_ne!(base(&a), base(&b), "name-derived bases must differ");

        a.with_store(|s| s.branch_mut("main").unwrap().apply(&CounterOp::Increment))
            .unwrap();
        b.with_store(|s| s.branch_mut("main").unwrap().apply(&CounterOp::Increment))
            .unwrap();
        assert_ne!(
            a.head_id("main").unwrap(),
            b.head_id("main").unwrap(),
            "distinct concurrent events must have distinct commit ids"
        );

        let mut remote = Remote::new("b", ChannelTransport::connect(b.clone()));
        a.pull(&mut remote, "main").unwrap();
        assert_eq!(a.read("main", &CounterQuery::Value).unwrap(), 2);
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
        r.with_store(|s| s.branch_mut("main").unwrap().apply(&CounterOp::Increment))
            .unwrap();

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
}
