//! The replication surface `peepul-net` is built on: the want/have graph
//! walk ([`BranchStore::commits_between`]), the one verified pack ingest
//! ([`BranchStore::ingest_pack`]) and tracking / fast-forward refs
//! ([`BranchStore::track`]).

use super::records::{
    check_address, parse_commit_record, resolve_state_record, CommitMeta, StateRecord,
};
use super::{BranchId, BranchStore};
use crate::backend::Backend;
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::{decode_canonical, ObjectId};
use peepul_core::Mrdt;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

impl<'a> PackState<'a> {
    /// The advertised content address of the (resolved) state.
    pub fn id(&self) -> ObjectId {
        match self {
            PackState::Full { id, .. } | PackState::Delta { id, .. } => *id,
        }
    }

    /// The same object as the state record it would be stored as — the
    /// form the resolver verifies.
    fn record(&self) -> StateRecord<'a> {
        match *self {
            PackState::Full { bytes, .. } => StateRecord::Full(bytes),
            PackState::Delta { base, delta, .. } => StateRecord::Delta { base, delta },
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
    /// The typed state stored under the state address `oid`, if any commit
    /// in this store carries it (cheap `Arc` clone).
    pub fn state_payload(&self, oid: ObjectId) -> Option<Arc<M>> {
        self.state_index
            .get(&oid)
            .map(|c| self.graph.payload(*c).clone())
    }

    /// Verifies and lands a pack of commit records and state objects —
    /// the single ingest path replication uses. State objects arrive as
    /// full canonical bytes ([`PackState::Full`]) or in **delta form**
    /// ([`PackState::Delta`], the receiving half of delta sync).
    ///
    /// Verification is one hash and (for states) one decode per object,
    /// against the bytes exactly as they arrived — there is no second
    /// serialization to cross-check because there is no second
    /// serialization:
    ///
    /// * each **state** object must resolve to bytes that hash to its
    ///   advertised id and decode as a canonical `M` (undecodable or
    ///   non-canonical bytes are corruption, same as a wrong hash). A
    ///   delta is resolved by the store's one chain resolver against a
    ///   base held by this store or appearing earlier in the pack, so a
    ///   drifted or hostile delta fails exactly like a wrong full state;
    /// * each **commit** record's bytes must hash to its advertised id;
    ///   its parents must precede it (in the pack or the store) and its
    ///   state address must name a state verified above or already held.
    ///
    /// The whole pack is verified **before anything is written**, so a
    /// corrupt object anywhere leaves the store untouched. Verified
    /// states are then published in their one-byte state-record envelope
    /// with [`Backend::put_keyed`] — a delta state *lands* in delta form
    /// too when its base is persisted and the chain bound allows, so an
    /// O(delta) fetch costs O(delta) disk as well as O(delta) wire — and
    /// commit records with [`Backend::put_known`] (no re-hash), the
    /// commits enter the graph parents-first, and the Lamport clock
    /// advances past every tick the pack carried (the receive rule).
    /// Already-known commits are skipped idempotently, and **only states
    /// referenced by a freshly ingested commit are persisted** — a peer
    /// cannot grow this store's append-only backend with
    /// valid-but-unreferenced state objects.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptObject`] on a hash mismatch;
    /// [`StoreError::Corrupt`] on undecodable objects, missing parents,
    /// unresolvable state references, or a delta that is malformed, names
    /// a base neither held nor in the pack prefix, or fails to apply — for
    /// these verification failures nothing has been ingested.
    /// [`StoreError::Io`] from the backend during the landing phase can
    /// leave a *prefix* of the pack ingested; the store is still
    /// consistent (every landed commit is fully published, and the Lamport
    /// clock was advanced past the whole pack's ticks before landing
    /// began, so the receive rule holds for the prefix), and because
    /// ingest is idempotent and content-addressed, re-ingesting the same
    /// pack completes it.
    pub fn ingest_pack(
        &mut self,
        commits: &[(ObjectId, &[u8])],
        states: &[PackState<'_>],
    ) -> Result<IngestReport, StoreError> {
        // Phase 1: verify every state — resolve it (a full state is a
        // chain of length 0), which hashes it, then one decode. No writes.
        let mut typed: HashMap<ObjectId, Arc<M>> = HashMap::with_capacity(states.len());
        let mut resolved: HashMap<ObjectId, Arc<Vec<u8>>> = HashMap::with_capacity(states.len());
        let mut max_tick = 0u64;
        let mut delta_states = 0u64;
        let mut delta_saved_bytes = 0u64;
        for s in states {
            let id = s.id();
            // Scratch `deps`: a pack delta is not stored yet (and may land
            // as a snapshot), so its edge must not enter the GC index.
            let (bytes, _) = resolve_state_record(
                &self.backend,
                id,
                Some(s.record()),
                &mut resolved,
                &mut HashMap::new(),
            )?
            .expect("a supplied record resolves or errors");
            if let PackState::Delta { delta, .. } = s {
                delta_states += 1;
                delta_saved_bytes += (bytes.len() as u64).saturating_sub(delta.len() as u64);
            }
            let m: M = decode_canonical(&bytes).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "state object {} is not a canonical state encoding",
                    id.short()
                ))
            })?;
            max_tick = max_tick.max(m.max_tick());
            typed.insert(id, Arc::new(m));
        }

        // Phase 2: verify every commit record — one hash, plus structural
        // checks against the store ∪ the pack prefix. Still no writes.
        let mut incoming: HashSet<ObjectId> = HashSet::new();
        let mut fresh: Vec<(ObjectId, CommitMeta, &[u8])> = Vec::new();
        for (id, bytes) in commits {
            check_address(*id, bytes)?;
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
            let (base, delta) = match *s {
                PackState::Delta { base, delta, .. } if self.backend.contains(base)? => {
                    (Some(base), delta)
                }
                _ => (None, &[][..]),
            };
            self.put_state(id, &resolved[&id], base, || delta.to_vec())?;
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
        let Some(info) = self.branches.get(name) else {
            self.create_branch(BranchId::new(name)?, head)?;
            return Ok(TrackOutcome::Created);
        };
        if info.head == head {
            return Ok(TrackOutcome::Unchanged);
        }
        let fast_forward = self.graph.is_ancestor(info.head, head);
        if fast_forward || force {
            self.advance_head(name, head)?;
        }
        Ok(if fast_forward {
            TrackOutcome::FastForwarded
        } else {
            TrackOutcome::Diverged
        })
    }
}
