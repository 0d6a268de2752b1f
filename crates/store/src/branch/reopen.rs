//! Typed reopen: rebuilding a live [`BranchStore`] from the objects and
//! refs a backend already holds.

use super::records::{parse_commit_record, resolve_state_record, CommitMeta};
use super::{BranchId, BranchStore};
use crate::backend::Backend;
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::{decode_canonical, ObjectId};
use peepul_core::Mrdt;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// Reopens an **existing** store from the objects and refs a backend
    /// already holds — the typed cold-start path.
    ///
    /// Because the canonical encoding is decodable, a process restart is
    /// a full recovery, not a byte-level salvage: `open` walks every ref
    /// to its commit record, follows parent addresses through the Merkle
    /// graph, decodes each referenced state back to the typed `M`,
    /// rebuilds the [`CommitGraph`](crate::CommitGraph), both content-address indexes (so
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

        // Phase 3: decode states (each distinct state object once) and
        // install commits into the graph + indexes. Nothing is written:
        // the backend already holds every byte.
        let mut store = BranchStore::empty(backend, replica_base);
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
        for (name, oid) in &refs {
            let head = store.commit_index[oid];
            store.insert_branch(BranchId::new(name)?, head);
        }
        Ok(store)
    }
}
