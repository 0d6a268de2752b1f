//! Typed reopen: rebuilding a live [`BranchStore`] from the objects and
//! refs a backend already holds.

use super::records::{decode_state, parse_commit_record, resolve_state_record, CommitMeta};
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
    /// graph, resolves and hash-checks every referenced state and decodes
    /// it back to the typed `M`, rebuilds the
    /// [`CommitGraph`](crate::CommitGraph), both content-address indexes
    /// (so merges memoize and replication serves immediately), the branch
    /// table with each head's typed state, and the Lamport clock
    /// (`observe_tick` over every recovered commit mint and every tick
    /// embedded in a recovered state). Only the heads' typed states stay
    /// in memory; any other state is resolved again when something reads
    /// it ([`BranchStore::state_at`]). Every
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
    /// an object fails to parse/decode; [`StoreError::CorruptObject`] when
    /// a state snapshot or a delta-chain link does not resolve to bytes
    /// hashing to its address; [`StoreError::Io`] from the backend.
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

        // Phase 3: resolve and decode states (each distinct state object
        // once) and install commits into the graph + indexes. Nothing is
        // written: the backend already holds every byte. Only the heads'
        // typed states are kept. A resolved buffer is kept while some
        // commit not yet installed names it as its first parent's state —
        // the base the commit path stored its delta against — so chains
        // resolve one link per state and the buffers held follow the
        // history's width, not its length.
        let head_states: HashSet<ObjectId> = refs.iter().map(|(_, oid)| metas[oid].state).collect();
        let mut waiting: HashMap<ObjectId, usize> = HashMap::new();
        for meta in metas.values() {
            if let Some(first) = meta.parents.first() {
                *waiting.entry(metas[first].state).or_default() += 1;
            }
        }
        let mut store = BranchStore::empty(backend, replica_base);
        let mut resolved: HashMap<ObjectId, Arc<Vec<u8>>> = HashMap::new();
        let mut decoded: HashSet<ObjectId> = HashSet::new();
        let mut heads: HashMap<ObjectId, Arc<M>> = HashMap::new();
        let mut installed = 0usize;
        while let Some(oid) = ready.pop_first() {
            let meta = &metas[&oid];
            if decoded.insert(meta.state) {
                // Resolve the stored record (a snapshot, or a delta chain
                // down to one) to full canonical bytes — hash-verified
                // per link — then decode.
                let (bytes, _) = resolve_state_record(
                    &store.backend,
                    meta.state,
                    None,
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
                let state: M = decode_state(meta.state, &bytes)?;
                store.tick = store.tick.max(state.max_tick());
                if head_states.contains(&meta.state) {
                    heads.insert(meta.state, Arc::new(state));
                }
            }
            if let Some(first) = meta.parents.first() {
                let n = waiting.get_mut(&metas[first].state).expect("counted above");
                *n -= 1;
            }
            // Drop every buffer no waiting commit needs: the one this
            // commit consumed, its own if nothing builds on it, and any
            // link a chain walk cached on the way.
            resolved.retain(|sid, _| waiting.get(sid).is_some_and(|n| *n > 0));
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

        // Phase 4: the branch table, from the refs (sorted by name).
        for (name, oid) in &refs {
            let head = store.commit_index[oid];
            let state = Arc::clone(&heads[&metas[oid].state]);
            store.insert_branch(BranchId::new(name)?, head, state);
        }
        Ok(store)
    }
}
