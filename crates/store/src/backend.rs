//! Pluggable object persistence: the [`Backend`] trait and the in-memory
//! reference implementation.
//!
//! The paper runs its certified MRDTs on Irmin, a content-addressed store
//! with *pluggable backends* (in-memory, on-disk, Git). This module is the
//! workspace's version of that seam: a backend stores immutable byte
//! objects addressed by the SHA-256 of their content, plus a mutable
//! namespace of refs (branch heads), exactly Git's object-store/refs
//! split. [`BranchStore`](crate::BranchStore) publishes every state and
//! commit it creates through a backend, so the same branch-and-merge
//! semantics runs unchanged over [`MemoryBackend`] or the append-only
//! on-disk [`SegmentBackend`](crate::SegmentBackend).
//!
//! Object bytes are the value's canonical encoding
//! ([`canonical_bytes`](crate::object::canonical_bytes)), which hashes to
//! its [`ObjectId`] — every stored object is integrity-checkable against
//! its own address.

use crate::error::StoreError;
use crate::object::ObjectId;
use crate::sha256::Sha256;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Interning counters a backend keeps for the dedup the content
/// addressing bought (Irmin/Git-style structural sharing).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Total `put` calls.
    pub puts: u64,
    /// `put` calls that found the object already stored (deduplicated).
    pub dedup_hits: u64,
}

/// What a garbage-collection sweep found (and, for
/// [`Backend::collect_garbage`], reclaimed): stored objects partitioned
/// against a caller-supplied live set.
///
/// `dead` objects are those present in the backend but absent from the
/// live set — orphaned forks, superseded scratch states, the leftovers of
/// a rejected push. `live_bytes` is the denominator of *disk
/// amplification* (bytes on disk ÷ live bytes), the storage-health metric
/// the sustained-write bench gates on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Stored objects in the live set.
    pub live_objects: u64,
    /// Stored objects *not* in the live set (reclaimable).
    pub dead_objects: u64,
    /// Payload bytes of the live objects.
    pub live_bytes: u64,
    /// Payload bytes of the dead objects.
    pub dead_bytes: u64,
}

/// Storage-engine facts an operator asks for first — what `serve-status`
/// reports and the observability registry publishes as gauges. Volatile
/// backends return the [`Default`] (zeros, `"volatile"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageInfo {
    /// Total bytes currently on disk (all segment files).
    pub disk_bytes: u64,
    /// Number of storage files (active + sealed segments + packs).
    pub segments: u64,
    /// Fsyncs issued since open.
    pub fsyncs: u64,
    /// Human-readable durability/flush policy
    /// (`"volatile"`, `"per-commit"`, `"coalesced:5ms"`, `"explicit"`,
    /// `"none"`).
    pub flush: String,
}

impl Default for StorageInfo {
    fn default() -> Self {
        StorageInfo {
            disk_bytes: 0,
            segments: 0,
            fsyncs: 0,
            flush: "volatile".to_string(),
        }
    }
}

/// Abstract object persistence: content-addressed immutable objects plus
/// named mutable refs.
///
/// Implementations must guarantee:
///
/// * `put(bytes)` returns `sha256(bytes)` and is idempotent — putting the
///   same bytes twice stores one object;
/// * `get(id)` returns exactly the bytes that were put (or `None`);
/// * refs are last-writer-wins by `set_ref` order;
/// * once `put`/`set_ref` returns `Ok`, the write is *published*:
///   subsequent reads through the same backend observe it, and a
///   persistent backend recovers a **prefix** of the publish order after
///   a crash — never a reordering or a gap. *When* the prefix is forced
///   to stable storage is governed by the backend's flush policy (see
///   [`FlushPolicy`](crate::FlushPolicy) and [`Backend::commit_boundary`]);
///   under the per-commit default every completed commit boundary is
///   durable.
///
/// The trait is object-safe; `Box<dyn Backend + Send + Sync>` implements it too,
/// which is how the test harness drives every suite over both backends.
pub trait Backend: fmt::Debug {
    /// Stores `bytes` under their content address and returns it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn put(&mut self, bytes: &[u8]) -> Result<ObjectId, StoreError>;

    /// Stores `bytes` whose content address `id` the **caller has already
    /// computed and verified** (`id == sha256(bytes)`) — the ingest hot
    /// path, which has just hash-checked every received object and must
    /// not pay a second SHA-256 per store. Implementations may trust `id`
    /// (they debug-assert it); a caller that lies corrupts its own store,
    /// exactly as if it had scribbled on the segment file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn put_known(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        let computed = self.put(bytes)?;
        debug_assert_eq!(computed, id, "put_known caller must pass sha256(bytes)");
        Ok(())
    }

    /// Stores `bytes` under a **caller-chosen** address `id` that is *not*
    /// the hash of `bytes` — the delta-storage path, where a state's
    /// content address is the sha256 of its full canonical encoding but
    /// the stored record is a wrapped delta against a parent state
    /// (`peepul-store`'s state-record envelope). The caller owns the
    /// integrity argument: it must be able to resolve the stored record
    /// back to bytes hashing to `id` and re-verify that hash on every
    /// resolution, which is exactly what
    /// [`BranchStore`](crate::BranchStore)'s chain resolution does.
    /// Idempotent per `id`: a second `put_keyed` under a stored address is
    /// a dedup no-op.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn put_keyed(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError>;

    /// Fetches the bytes stored under `id`, or `None` if absent.
    ///
    /// For a content-addressed object ([`Backend::put`]/
    /// [`Backend::put_known`]) these are bytes hashing to `id`; for a
    /// keyed record ([`Backend::put_keyed`]) they are the record exactly
    /// as the caller stored it, which the caller verifies by resolving.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure; [`StoreError::Corrupt`] if the
    /// stored bytes match neither `id` as content hash nor a keyed record
    /// stored under `id`.
    fn get(&self, id: ObjectId) -> Result<Option<Vec<u8>>, StoreError>;

    /// Whether an object is stored under `id`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure.
    fn contains(&self, id: ObjectId) -> Result<bool, StoreError>;

    /// Points the ref `name` at `id` (creating or overwriting it).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn set_ref(&mut self, name: &str, id: ObjectId) -> Result<(), StoreError>;

    /// The current target of ref `name`, or `None`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure.
    fn get_ref(&self, name: &str) -> Result<Option<ObjectId>, StoreError>;

    /// All refs, sorted by name.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure.
    fn refs(&self) -> Result<Vec<(String, ObjectId)>, StoreError>;

    /// Number of distinct objects stored.
    fn object_count(&self) -> usize;

    /// Interning/dedup counters.
    fn stats(&self) -> BackendStats;

    /// Forces any buffered writes to stable storage (no-op for volatile
    /// backends).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn flush(&mut self) -> Result<(), StoreError>;

    /// Signals that the writes since the last boundary form one logical
    /// commit (one `apply`, one merge, one ingested pack). Persistent
    /// backends schedule durability here per their flush policy — one
    /// fsync per *commit* (or fewer, under a coalesced/explicit policy),
    /// never one per record. The default is a full [`Backend::flush`],
    /// which is always correct.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn commit_boundary(&mut self) -> Result<(), StoreError> {
        self.flush()
    }

    /// Partitions the stored objects against `live` without reclaiming
    /// anything — a dry run of [`Backend::collect_garbage`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure.
    fn sweep_stats(&self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError>;

    /// Reclaims every stored object **not** in `live`, returning the
    /// sweep that was applied. The caller owns the liveness argument:
    /// [`BranchStore::collect_garbage`](crate::BranchStore::collect_garbage)
    /// traces `live` from the branch refs through the commit graph, so
    /// anything reachable from a published head is never passed as dead.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn collect_garbage(&mut self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError>;

    /// Reorganizes storage for read efficiency without dropping anything
    /// (for [`SegmentBackend`](crate::SegmentBackend): fold sealed
    /// segments into one packed file). Volatile backends no-op.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn compact(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Seals the storage file being appended to and starts a fresh one
    /// (for [`SegmentBackend`](crate::SegmentBackend): a new segment).
    /// Backends without files no-op.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on persistence failure.
    fn rotate(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    /// A short human-readable backend name (`"memory"`, `"segment"`).
    fn kind(&self) -> &'static str;

    /// Storage-engine facts for status reporting and observability.
    /// The default describes a volatile backend: no disk, no fsyncs.
    fn storage_info(&self) -> StorageInfo {
        StorageInfo::default()
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn put(&mut self, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        (**self).put(bytes)
    }

    fn put_known(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).put_known(id, bytes)
    }

    fn put_keyed(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).put_keyed(id, bytes)
    }

    fn get(&self, id: ObjectId) -> Result<Option<Vec<u8>>, StoreError> {
        (**self).get(id)
    }

    fn contains(&self, id: ObjectId) -> Result<bool, StoreError> {
        (**self).contains(id)
    }

    fn set_ref(&mut self, name: &str, id: ObjectId) -> Result<(), StoreError> {
        (**self).set_ref(name, id)
    }

    fn get_ref(&self, name: &str) -> Result<Option<ObjectId>, StoreError> {
        (**self).get_ref(name)
    }

    fn refs(&self) -> Result<Vec<(String, ObjectId)>, StoreError> {
        (**self).refs()
    }

    fn object_count(&self) -> usize {
        (**self).object_count()
    }

    fn stats(&self) -> BackendStats {
        (**self).stats()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        (**self).flush()
    }

    fn commit_boundary(&mut self) -> Result<(), StoreError> {
        (**self).commit_boundary()
    }

    fn sweep_stats(&self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError> {
        (**self).sweep_stats(live)
    }

    fn collect_garbage(&mut self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError> {
        (**self).collect_garbage(live)
    }

    fn compact(&mut self) -> Result<(), StoreError> {
        (**self).compact()
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        (**self).rotate()
    }

    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn storage_info(&self) -> StorageInfo {
        (**self).storage_info()
    }
}

/// The interning in-memory backend: a `HashMap` object heap plus a
/// `BTreeMap` of refs.
///
/// Equal contents intern to one allocation, and [`BackendStats`] records
/// how much the dedup saved.
///
/// # Example
///
/// ```
/// use peepul_store::backend::{Backend, MemoryBackend};
///
/// let mut b = MemoryBackend::new();
/// let id = b.put(b"hello").unwrap();
/// assert_eq!(b.put(b"hello").unwrap(), id); // deduplicated
/// assert_eq!(b.object_count(), 1);
/// assert_eq!(b.get(id).unwrap().as_deref(), Some(&b"hello"[..]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemoryBackend {
    objects: HashMap<ObjectId, Arc<[u8]>>,
    refs: BTreeMap<String, ObjectId>,
    stats: BackendStats,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }
}

impl Backend for MemoryBackend {
    fn put(&mut self, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        let id = ObjectId::from_bytes(Sha256::digest(bytes));
        self.put_known(id, bytes)?;
        Ok(id)
    }

    fn put_known(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        debug_assert_eq!(
            id,
            ObjectId::from_bytes(Sha256::digest(bytes)),
            "put_known caller must pass sha256(bytes)"
        );
        self.stats.puts += 1;
        match self.objects.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => self.stats.dedup_hits += 1,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Arc::from(bytes));
            }
        }
        Ok(())
    }

    fn put_keyed(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        self.stats.puts += 1;
        match self.objects.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => self.stats.dedup_hits += 1,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Arc::from(bytes));
            }
        }
        Ok(())
    }

    fn get(&self, id: ObjectId) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.objects.get(&id).map(|b| b.to_vec()))
    }

    fn contains(&self, id: ObjectId) -> Result<bool, StoreError> {
        Ok(self.objects.contains_key(&id))
    }

    fn set_ref(&mut self, name: &str, id: ObjectId) -> Result<(), StoreError> {
        self.refs.insert(name.to_owned(), id);
        Ok(())
    }

    fn get_ref(&self, name: &str) -> Result<Option<ObjectId>, StoreError> {
        Ok(self.refs.get(name).copied())
    }

    fn refs(&self) -> Result<Vec<(String, ObjectId)>, StoreError> {
        Ok(self.refs.iter().map(|(n, i)| (n.clone(), *i)).collect())
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn commit_boundary(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn sweep_stats(&self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError> {
        let mut stats = SweepStats::default();
        for (id, bytes) in &self.objects {
            if live.contains(id) {
                stats.live_objects += 1;
                stats.live_bytes += bytes.len() as u64;
            } else {
                stats.dead_objects += 1;
                stats.dead_bytes += bytes.len() as u64;
            }
        }
        Ok(stats)
    }

    fn collect_garbage(&mut self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError> {
        let stats = self.sweep_stats(live)?;
        self.objects.retain(|id, _| live.contains(id));
        Ok(stats)
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::content_id;

    #[test]
    fn put_is_content_addressed_and_idempotent() {
        let mut b = MemoryBackend::new();
        let id1 = b.put(b"abc").unwrap();
        let id2 = b.put(b"abc").unwrap();
        let id3 = b.put(b"abd").unwrap();
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
        assert_eq!(b.object_count(), 2);
        assert_eq!(
            b.stats(),
            BackendStats {
                puts: 3,
                dedup_hits: 1
            }
        );
    }

    #[test]
    fn put_agrees_with_content_id_on_canonical_bytes() {
        use crate::object::canonical_bytes;
        let mut b = MemoryBackend::new();
        let value = vec![9u64, 8, 7];
        let id = b.put(&canonical_bytes(&value)).unwrap();
        assert_eq!(id, content_id(&value));
    }

    #[test]
    fn refs_are_last_writer_wins() {
        let mut b = MemoryBackend::new();
        let a = b.put(b"a").unwrap();
        let c = b.put(b"c").unwrap();
        b.set_ref("main", a).unwrap();
        b.set_ref("main", c).unwrap();
        b.set_ref("dev", a).unwrap();
        assert_eq!(b.get_ref("main").unwrap(), Some(c));
        assert_eq!(
            b.refs().unwrap(),
            vec![("dev".into(), a), ("main".into(), c)]
        );
    }

    #[test]
    fn get_missing_is_none() {
        let b = MemoryBackend::new();
        assert_eq!(b.get(content_id(&0u8)).unwrap(), None);
        assert!(!b.contains(content_id(&0u8)).unwrap());
        assert_eq!(b.get_ref("nope").unwrap(), None);
    }

    #[test]
    fn memory_collect_garbage_retains_only_live() {
        let mut b = MemoryBackend::new();
        let keep = b.put(b"keep").unwrap();
        let drop_ = b.put(b"drop").unwrap();
        let live: HashSet<ObjectId> = [keep].into_iter().collect();

        let dry = b.sweep_stats(&live).unwrap();
        assert_eq!((dry.live_objects, dry.dead_objects), (1, 1));
        assert_eq!(b.object_count(), 2, "sweep_stats is a dry run");

        let swept = b.collect_garbage(&live).unwrap();
        assert_eq!(swept, dry);
        assert_eq!(b.object_count(), 1);
        assert!(b.contains(keep).unwrap());
        assert!(!b.contains(drop_).unwrap());
    }

    #[test]
    fn boxed_backend_delegates() {
        let mut b: Box<dyn Backend + Send + Sync> = Box::new(MemoryBackend::new());
        let id = b.put(b"boxed").unwrap();
        assert!(b.contains(id).unwrap());
        assert_eq!(b.kind(), "memory");
    }
}
