//! The record layer: what a commit and a state look like as stored bytes,
//! which form a state is stored in, and how a stored (or received) form is
//! turned back into verified canonical bytes.
//!
//! Everything the store knows about the **snapshot policy** lives here:
//! [`DEFAULT_SNAPSHOT_INTERVAL`], the chain bound and size test in
//! `put_state`, and the one resolver (`resolve_state_record`) that every
//! consumer — [`BranchStore::open`], [`BranchStore::state_bytes`],
//! [`BranchStore::ingest_pack`] and a typed read that misses the state
//! cache ([`BranchStore::state_at`]) — walks a delta chain through.

use super::BranchStore;
use crate::backend::Backend;
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::{content_id_of_bytes, decode_canonical, ObjectId};
use peepul_core::{Delta, Mrdt, Wire};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Default delta-chain bound `K`: a full snapshot state is written at
/// least every `K` commits, so resolving any stored state costs at most
/// `K − 1` delta applications. See [`BranchStore::set_snapshot_interval`].
pub const DEFAULT_SNAPSHOT_INTERVAL: u32 = 16;

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

/// The content-address check every stored or received object passes
/// before it is trusted: `bytes` must hash to `expected`.
pub(super) fn check_address(expected: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
    let actual = content_id_of_bytes(bytes);
    if actual == expected {
        Ok(())
    } else {
        Err(StoreError::CorruptObject { expected, actual })
    }
}

/// Decodes the verified canonical bytes of state `id` as a typed `M`;
/// bytes that do not decode (or are not canonical) are corruption, the
/// same as a wrong hash.
pub(super) fn decode_state<M: Mrdt>(id: ObjectId, bytes: &[u8]) -> Result<M, StoreError> {
    decode_canonical(bytes).ok_or_else(|| {
        StoreError::Corrupt(format!(
            "state {} does not decode as a canonical typed state",
            id.short()
        ))
    })
}

/// A resolved state record: the full canonical bytes plus how many delta
/// links were applied to reach them (0 when the record was a snapshot or
/// a cache hit).
type Resolved = (Arc<Vec<u8>>, u32);

/// Resolves a state address to its full canonical bytes by walking the
/// delta chain: take the record for `oid` (`supplied` when the caller
/// brought it — a pack's state object, not stored yet — otherwise read
/// from the backend), follow delta bases until a full snapshot (or a
/// `cache` hit), then apply the deltas back down — re-hashing **every**
/// link's resolved bytes against its address before caching it, so a
/// drifted or corrupted delta surfaces as [`StoreError::CorruptObject`]
/// at the link that broke, never as a wrong state. Newly discovered
/// `delta → base` edges are recorded in `deps` (the GC retention index).
/// Returns `None` when `oid` is neither supplied nor stored.
///
/// The **only** delta resolver: standalone so [`BranchStore::open`] can
/// resolve while the store is still under construction; chain length is
/// bounded by the snapshot interval at write time, and a corrupted cyclic
/// chain is detected by the id-revisit guard rather than looping.
pub(super) fn resolve_state_record<B: Backend>(
    backend: &B,
    oid: ObjectId,
    mut supplied: Option<StateRecord<'_>>,
    cache: &mut HashMap<ObjectId, Arc<Vec<u8>>>,
    deps: &mut HashMap<ObjectId, ObjectId>,
) -> Result<Option<Resolved>, StoreError> {
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
        let stored;
        let record = match supplied.take() {
            Some(record) => record,
            None => {
                if let Some(bytes) = cache.get(&cursor) {
                    break Arc::clone(bytes);
                }
                let Some(bytes) = backend.get(cursor)? else {
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
                stored = bytes;
                parse_state_record(&stored).ok_or_else(|| {
                    StoreError::Corrupt(format!("object {} is not a state record", cursor.short()))
                })?
            }
        };
        match record {
            StateRecord::Full(canonical) => {
                check_address(cursor, canonical)?;
                let bytes = Arc::new(canonical.to_vec());
                cache.insert(cursor, Arc::clone(&bytes));
                break bytes;
            }
            StateRecord::Delta { base, delta } => {
                pending.push((cursor, delta.to_vec()));
                deps.insert(cursor, base);
                cursor = base;
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
        check_address(link, &resolved)?;
        base_bytes = Arc::new(resolved);
        cache.insert(link, Arc::clone(&base_bytes));
    }
    Ok(Some((base_bytes, links)))
}

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// Sets the delta-chain bound `K` for states stored from now on: a
    /// full snapshot is written at least every `K` commits, the rest as
    /// deltas against their parent state, so cold reads and reopen resolve
    /// at most `K − 1` links. `0` stores every state full — the reference
    /// arm the equivalence and size suites compare delta storage against.
    /// The default is [`DEFAULT_SNAPSHOT_INTERVAL`]; already-stored
    /// records keep their form (any interval reads any store).
    pub fn set_snapshot_interval(&mut self, interval: u32) {
        self.snapshot_interval = interval;
    }

    /// Persists one state under its content address, choosing the storage
    /// form — the one place the snapshot policy is applied, for committed
    /// and ingested states alike. The state lands as a delta against
    /// `base` when the chain through `base` stays under the snapshot
    /// interval (so every resolution is bounded by `interval - 1` links)
    /// and the delta record is actually smaller; as a full snapshot
    /// otherwise. `delta_wire` is only called once the chain bound has
    /// passed, so a commit pays for its delta only when it can be used.
    /// The address is `sha256(canonical)` either way — the delta is a
    /// storage encoding, and every read re-verifies that hash after
    /// resolution.
    pub(super) fn put_state(
        &mut self,
        state_id: ObjectId,
        canonical: &[u8],
        base: Option<ObjectId>,
        delta_wire: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), StoreError> {
        if self.backend.contains(state_id)? {
            // Interned: an equal state was stored before (under either
            // form). Route the no-op through `put_keyed` so the backend's
            // intern counters still see the sharing.
            return self
                .backend
                .put_keyed(state_id, &state_record_full(canonical));
        }
        let full_record_len = 1 + canonical.len();
        if let Some(base_id) = base {
            // `base_id != state_id` is implied: an equal state would have
            // hit the intern check above.
            let interval = self.snapshot_interval;
            if interval > 0 && self.chain_depth(base_id) + 1 < interval {
                let record = state_record_delta(base_id, &delta_wire());
                if record.len() < full_record_len {
                    self.backend.put_keyed(state_id, &record)?;
                    self.delta_deps.insert(state_id, base_id);
                    if let Some(m) = &self.metrics {
                        m.delta_states_total.inc();
                        m.delta_bytes_total.add(record.len() as u64);
                        m.delta_saved_bytes_total
                            .add((full_record_len - record.len()) as u64);
                        m.delta_chain_len
                            .observe(u64::from(self.chain_depth(state_id)));
                    }
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

    /// The canonical bytes of the state stored under `oid`, if any commit
    /// carries it. A full snapshot costs one backend read; a delta-stored
    /// state is resolved through its chain (each link hash-verified, at
    /// most `snapshot_interval - 1` links). The returned bytes are exactly
    /// what travels in a fetch/push and hash to `oid` — the canonical
    /// encoding **is** the wire format, so serving costs zero re-encodes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Corrupt`] from the backend;
    /// [`StoreError::CorruptObject`] for a snapshot or delta chain that
    /// fails to resolve to bytes hashing to their address.
    pub fn state_bytes(&self, oid: ObjectId) -> Result<Option<Vec<u8>>, StoreError> {
        if !self.has_state(oid) {
            return Ok(None);
        }
        let resolved = resolve_state_record(
            &self.backend,
            oid,
            None,
            &mut HashMap::new(),
            &mut HashMap::new(),
        )?;
        Ok(resolved.map(|(bytes, links)| {
            if let (Some(m), true) = (&self.metrics, links > 0) {
                m.delta_resolves_total.inc();
            }
            bytes.as_ref().clone()
        }))
    }

    /// Whether some commit of this store carries the state addressed by
    /// `oid` (and garbage collection has not reclaimed it).
    pub fn has_state(&self, oid: ObjectId) -> bool {
        self.state_index.contains(&oid)
    }

    /// The typed state of commit `c` — the one typed accessor for a
    /// commit that is not a branch head (a head's state is
    /// [`BranchStore::state`]). Served from memory when a branch head or
    /// the state cache holds it; otherwise resolved from the backend
    /// through the one delta resolver (every link hash-checked), decoded,
    /// and cached.
    ///
    /// # Errors
    ///
    /// [`StoreError::Collected`] when garbage collection reclaimed the
    /// state; [`StoreError::Io`] / [`StoreError::Corrupt`] /
    /// [`StoreError::CorruptObject`] when resolving it from the backend
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to this store's graph.
    pub fn state_at(&self, c: CommitId) -> Result<Arc<M>, StoreError> {
        self.typed_state(*self.graph.payload(c))
    }

    /// The typed state stored under `sid`: a pinned head's, a cached one,
    /// or — on a miss — resolved from the backend, decoded and cached.
    pub(crate) fn typed_state(&self, sid: ObjectId) -> Result<Arc<M>, StoreError> {
        if !self.has_state(sid) {
            return Err(StoreError::Collected(sid));
        }
        let graph = &self.graph;
        if let Some(head) = self
            .branches
            .values()
            .find(|b| *graph.payload(b.head) == sid)
        {
            return Ok(Arc::clone(&head.state));
        }
        if let Some(state) = self.state_cache.get(sid) {
            return Ok(state);
        }
        let (bytes, _) = resolve_state_record(
            &self.backend,
            sid,
            None,
            &mut HashMap::new(),
            &mut HashMap::new(),
        )?
        .ok_or_else(|| {
            StoreError::Corrupt(format!("state {} is missing from the backend", sid.short()))
        })?;
        let state = Arc::new(decode_state::<M>(sid, &bytes)?);
        self.state_cache.insert(sid, Arc::clone(&state));
        Ok(state)
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
        if !self.has_state(oid) {
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
}
