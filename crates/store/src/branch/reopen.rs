//! Typed reopen: rebuilding a live [`BranchStore`] from the objects and
//! refs a backend already holds.

use super::records::{
    decode_state, parse_commit_record, parse_state_record, resolve_state_record, CommitMeta,
    StateRecord,
};
use super::{BranchId, BranchStore};
use crate::backend::Backend;
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::ObjectId;
use peepul_core::Mrdt;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// Reopens an **existing** store from the objects and refs a backend
    /// already holds — the typed cold-start path.
    ///
    /// Because the canonical encoding is decodable, a process restart is
    /// a full recovery, not a byte-level salvage: `open` walks every ref
    /// to its commit record, follows parent addresses through the Merkle
    /// graph, and rebuilds the [`CommitGraph`](crate::CommitGraph), both
    /// content-address indexes (so merges memoize and replication serves
    /// immediately), the branch table and the Lamport clock. Every branch
    /// head is byte- and commit-identical to the pre-restart store: same
    /// head commit id, same state bytes, same query answers.
    ///
    /// What is checked **at open**:
    /// * every reachable commit record parses, and its parents are present;
    /// * every **head** state is resolved through its delta chain, each
    ///   link hash-checked against its address, and decoded to the typed
    ///   `M` — the one typed state per branch that stays in memory;
    /// * every other state's record envelope is parsed (the one-byte
    ///   snapshot-or-delta tag and the delta's base), which rebuilds the
    ///   delta-chain index garbage collection and the chain bound need,
    ///   and refuses a missing record, a missing base or a cyclic chain.
    ///
    /// A non-head state's bytes are hash-checked and decoded **at first
    /// read** ([`BranchStore::state_at`], [`BranchStore::state_bytes`]),
    /// by the same resolver: a corrupted state off every head's chain
    /// costs that read a [`StoreError::CorruptObject`], never a wrong
    /// state.
    ///
    /// The clock is the maximum of every recovered commit's mint and every
    /// tick embedded in a head state. By Lamport's receive rule that
    /// covers every non-head state too: each tick a state embeds was
    /// minted by an operation commit in that state's own ancestry, and
    /// every such commit is recovered. The heads' term covers a head
    /// whose state arrived without its mints: a root commit a peer
    /// published with the `(0, 0)` mint, which
    /// [`BranchStore::ingest_pack`] accepts.
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
    /// store), when a ref or parent points at a missing object, when an
    /// object fails to parse or a head state to decode, or when a delta
    /// chain names a missing base or is cyclic;
    /// [`StoreError::CorruptObject`] when a head state's snapshot or
    /// delta-chain link does not resolve to bytes hashing to its address;
    /// [`StoreError::Io`] from the backend.
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

        // Phase 3: install commits parents-first, recover the clock from
        // their mints, and index every state's delta chain from its
        // record envelope. Nothing is written: the backend already holds
        // every byte.
        let mut store = BranchStore::empty(backend, replica_base);
        let mut installed = 0usize;
        while let Some(oid) = ready.pop_first() {
            let meta = &metas[&oid];
            store.tick = store.tick.max(meta.tick);
            let parent_cids: Vec<CommitId> =
                meta.parents.iter().map(|p| store.commit_index[p]).collect();
            store.install_commit(parent_cids, meta.state, oid, (meta.tick, meta.replica));
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
        index_delta_chains(&store.backend, &metas, &mut store.delta_deps)?;

        // Phase 4: the branch table, from the refs (sorted by name). Only
        // a head's state is resolved — every link hash-checked — and
        // decoded; every other state waits for its first read.
        let mut heads: HashMap<ObjectId, Arc<M>> = HashMap::new();
        for (name, oid) in &refs {
            let sid = metas[oid].state;
            let state = match heads.get(&sid) {
                Some(state) => Arc::clone(state),
                None => {
                    let (bytes, _) = resolve_state_record(
                        &store.backend,
                        sid,
                        None,
                        &mut HashMap::new(),
                        &mut HashMap::new(),
                    )?
                    .ok_or_else(|| {
                        StoreError::Corrupt(format!("head state {} is missing", sid.short()))
                    })?;
                    let state = Arc::new(decode_state::<M>(sid, &bytes)?);
                    store.tick = store.tick.max(state.max_tick());
                    heads.insert(sid, Arc::clone(&state));
                    state
                }
            };
            store.insert_branch(BranchId::new(name)?, store.commit_index[oid], state);
        }
        Ok(store)
    }
}

/// Reads the envelope of every state a commit in `metas` carries, and of
/// every delta base below one, recording each `delta → base` edge in
/// `deps` — the GC retention index and `put_state`'s chain-depth oracle.
/// Refuses a missing record, a record that is not a state record, a delta
/// whose base is missing and a cyclic chain. Nothing is hashed or
/// decoded: each state is read once, and full verification waits for its
/// first read through the resolver.
fn index_delta_chains<B: Backend>(
    backend: &B,
    metas: &BTreeMap<ObjectId, CommitMeta>,
    deps: &mut HashMap<ObjectId, ObjectId>,
) -> Result<(), StoreError> {
    let mut closed: HashSet<ObjectId> = HashSet::new();
    for (commit, meta) in metas {
        let mut walking: HashSet<ObjectId> = HashSet::new();
        let mut cursor = meta.state;
        while !closed.contains(&cursor) {
            if !walking.insert(cursor) {
                return Err(StoreError::Corrupt(format!(
                    "state {} sits on a cyclic delta chain",
                    meta.state.short()
                )));
            }
            let Some(bytes) = backend.get(cursor)? else {
                return Err(StoreError::Corrupt(if cursor == meta.state {
                    format!(
                        "commit {} references missing state {}",
                        commit.short(),
                        cursor.short()
                    )
                } else {
                    format!(
                        "delta chain of state {} references missing base {}",
                        meta.state.short(),
                        cursor.short()
                    )
                }));
            };
            match parse_state_record(&bytes) {
                Some(StateRecord::Full(_)) => break,
                Some(StateRecord::Delta { base, .. }) => {
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
        }
        closed.extend(walking);
    }
    Ok(())
}
