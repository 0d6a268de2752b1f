//! The multi-segment on-disk storage engine.
//!
//! A data directory holds a **manifest** plus an ordered set of data
//! files — append-only *segments* and read-optimized *packs*:
//!
//! ```text
//! dir/
//!   manifest            the authoritative, atomically swapped file list
//!   pack-0007.pack      compacted cold data (≤1 per store)
//!   segment-0008.seg    sealed segment (append-only, full)
//!   segment-0009.seg    the ACTIVE segment — the only file ever written
//! ```
//!
//! **Segment format** (unchanged since the single-file engine):
//!
//! ```text
//! segment := MAGIC record*
//! MAGIC   := "PEEPULS1"                     (8 bytes)
//! record  := kind:u8 len:u32le payload[len] check[8]
//! kind 1  := object  — payload is the object bytes; its address is
//!                      sha256(payload)
//! kind 2  := ref     — payload is name_len:u16le name[name_len] id[32]
//! check   := first 8 bytes of sha256(payload)
//! ```
//!
//! **Pack format** — produced by compaction, never appended to. Object
//! payloads are stored back to back; a footer-addressed offset index is
//! loaded at open without touching (or hashing) a single payload byte,
//! so reopening a many-gigabyte pack costs O(index):
//!
//! ```text
//! pack   := "PEEPULP1" payload* index footer
//! index  := obj_count:u32le (id[32] offset:u64le len:u32le)*
//!           ref_count:u32le (name_len:u16le name id[32])*
//! footer := index_offset:u64le index_len:u64le check[8]
//!           (check = first 8 bytes of sha256(index))
//! ```
//!
//! # Lifecycle: rotation, compaction, GC
//!
//! Appends go to the active segment only. When it would exceed
//! [`SegmentOptions::max_segment_bytes`] it is **rotated**: fsynced,
//! sealed, and a fresh `segment-NNNN.seg` becomes active via a manifest
//! swap. **Compaction** folds every sealed file (segments and the
//! previous pack) into one new pack — optionally dropping objects not in
//! a caller-supplied live set, which is how
//! [`Backend::collect_garbage`] reclaims unreachable objects. Every
//! transition publishes by *atomic manifest swap* (write `manifest.tmp`,
//! fsync, rename): a crash at any intermediate point leaves either the
//! old or the new manifest, both of which describe a complete, valid
//! store. Data files not listed by the manifest are leftovers of an
//! interrupted rotation/compaction and are deleted at open.
//!
//! # Crash safety and group commit
//!
//! Within the active segment the contract is append-only + torn-tail
//! truncation: [`SegmentBackend::open`] replays records in order and
//! truncates at the first torn or corrupt one, so the surviving store is
//! always a *prefix* of the published history. Sealed files are fsynced
//! before the manifest lists them and are required to be fully valid.
//!
//! *When* bytes reach stable storage is governed by
//! [`SegmentOptions::flush`] ([`FlushPolicy`]): appends themselves never
//! fsync; the store signals logical commit boundaries through
//! [`Backend::commit_boundary`], so one commit (or one ingested pack)
//! costs one fsync instead of one per record — and coalesced or
//! explicit policies amortise even that across commits. The prefix
//! property holds under every policy; the policy only bounds how much
//! acknowledged-but-unsynced tail a power loss may cost.

use crate::backend::{Backend, BackendStats, StorageInfo, SweepStats};
use crate::error::StoreError;
use crate::object::ObjectId;
use crate::sha256::Sha256;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const MAGIC: &[u8; 8] = b"PEEPULS1";
const PACK_MAGIC: &[u8; 8] = b"PEEPULP1";
const MANIFEST_MAGIC: &str = "PEEPULM1";
const MANIFEST: &str = "manifest";
const MANIFEST_TMP: &str = "manifest.tmp";
const PACK_TMP: &str = "pack.tmp";
const KIND_OBJECT: u8 = 1;
const KIND_REF: u8 = 2;
/// A keyed record ([`Backend::put_keyed`]): the payload is the advertised
/// 32-byte `ObjectId` followed by the caller's record bytes, which do
/// *not* hash to the id (the delta-storage envelope). Self-describing so
/// crash replay and pack compaction recover the address without help
/// from any index.
const KIND_KEYED: u8 = 3;
/// kind + len prefix.
const HEADER_LEN: u64 = 1 + 4;
/// Truncated-sha256 payload checksum suffix.
const CHECK_LEN: u64 = 8;
/// index_offset + index_len + check.
const PACK_FOOTER_LEN: u64 = 8 + 8 + 8;

/// When appended records are fsynced to stable storage.
///
/// Appends themselves never sync; the policy is consulted at every
/// logical commit boundary ([`Backend::commit_boundary`]). An explicit
/// [`Backend::flush`] always syncs, under every policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Fsync at every commit boundary: one sync per commit (never one
    /// per record). The durable default.
    PerCommit,
    /// Group commit: sync at a commit boundary only when `max_delay` has
    /// elapsed since the last sync, batching many commits into one fsync.
    /// A crash can lose at most the commits acknowledged within the
    /// window (their prefix ordering is still preserved).
    Coalesced {
        /// Upper bound on how long an acknowledged commit may stay
        /// unsynced before the next boundary forces a sync.
        max_delay: Duration,
    },
    /// Never sync at commit boundaries; only [`Backend::flush`] (and
    /// rotation/compaction, which always seal durably) write stable
    /// storage. For callers that schedule their own sync points.
    Explicit,
}

/// Tuning knobs for a [`SegmentBackend`].
#[derive(Copy, Clone, Debug)]
pub struct SegmentOptions {
    /// Master switch for fsync. With `false` no sync is ever issued
    /// (tests/benchmarks where durability across power loss is not the
    /// point — publish ordering and the on-disk layout are unaffected).
    pub durable: bool,
    /// When commit boundaries reach stable storage. Ignored when
    /// `durable` is `false`.
    pub flush: FlushPolicy,
    /// Rotate the active segment once it would exceed this many bytes. A
    /// single record larger than the cap still lands (in a fresh segment
    /// of its own).
    pub max_segment_bytes: u64,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            durable: true,
            flush: FlushPolicy::PerCommit,
            max_segment_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Crash points inside [`SegmentBackend::compact`], for fault-injection
/// tests (`tests/crash_reopen.rs`). After a faulted call the on-disk
/// state is exactly what a crash at that point would leave; the
/// in-memory backend is stale and must be dropped without further use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompactionFault {
    /// Crash after writing `pack.tmp`, before renaming it into place.
    AfterTempWrite,
    /// Crash after the pack rename, before the manifest swap — the pack
    /// exists but no manifest lists it.
    AfterPackRename,
    /// Crash after the manifest swap, before the superseded files are
    /// deleted — the stale files linger unlisted.
    AfterManifestSwap,
}

/// Where an object's bytes live: data file slot + offset + length.
#[derive(Copy, Clone, Debug)]
struct Location {
    slot: u32,
    offset: u64,
    len: u32,
}

/// One manifest-listed data file.
#[derive(Debug)]
struct StoreFile {
    name: String,
    path: PathBuf,
    file: File,
    /// Valid data bytes: for a segment, the append cursor (everything
    /// before it is replayed-valid); for a pack, the full file length.
    len: u64,
}

/// The multi-segment on-disk backend: rotated append-only segments plus
/// compacted packs, described by an atomically swapped manifest, with an
/// in-memory offset index over all of them.
///
/// # Example
///
/// ```
/// use peepul_store::backend::Backend;
/// use peepul_store::segment::SegmentBackend;
///
/// let dir = std::env::temp_dir().join(format!("peepul-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let id = {
///     let mut b = SegmentBackend::open(&dir).unwrap();
///     b.put(b"durable bytes").unwrap()
/// };
/// // Reopen from disk: the object and its integrity survive.
/// let b = SegmentBackend::open(&dir).unwrap();
/// assert_eq!(b.get(id).unwrap().as_deref(), Some(&b"durable bytes"[..]));
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct SegmentBackend {
    dir: PathBuf,
    /// Manifest order; the last entry is always the active segment.
    files: Vec<StoreFile>,
    /// ObjectId → where its payload bytes live.
    index: HashMap<ObjectId, Location>,
    refs: BTreeMap<String, ObjectId>,
    options: SegmentOptions,
    stats: BackendStats,
    /// Next file number for `segment-NNNN.seg` / `pack-NNNN.pack`.
    seq: u32,
    fsyncs: u64,
    /// Unsynced appends exist in the active segment.
    dirty: bool,
    last_sync: Instant,
}

impl SegmentBackend {
    /// Opens (or creates) the store under directory `dir` with default
    /// (durable, per-commit) options.
    ///
    /// Reads the manifest, loads every listed pack's offset index,
    /// replays every listed segment (truncating a torn tail of the
    /// active segment only), and deletes unlisted leftover data files
    /// from interrupted rotations/compactions. Only names this engine
    /// writes are ever deleted; any other file in `dir` is left alone.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
    /// if the manifest or a sealed file is invalid.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, SegmentOptions::default())
    }

    /// [`SegmentBackend::open`] with explicit [`SegmentOptions`].
    ///
    /// # Errors
    ///
    /// As [`SegmentBackend::open`].
    pub fn open_with(dir: impl AsRef<Path>, options: SegmentOptions) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut backend = SegmentBackend {
            dir,
            files: Vec::new(),
            index: HashMap::new(),
            refs: BTreeMap::new(),
            options,
            stats: BackendStats::default(),
            seq: 0,
            fsyncs: 0,
            dirty: false,
            last_sync: Instant::now(),
        };

        let manifest_path = backend.dir.join(MANIFEST);
        if !manifest_path.exists() {
            backend.initialize()?;
        }
        let names = backend.read_manifest()?;
        let last = names.len().saturating_sub(1);
        for (slot, name) in names.iter().enumerate() {
            if name.ends_with(".pack") {
                if slot == last {
                    return Err(StoreError::Corrupt(
                        "manifest must end with the active segment, not a pack".into(),
                    ));
                }
                backend.load_pack(name)?;
            } else {
                backend.load_segment(name, slot == last)?;
            }
        }
        backend.seq = names
            .iter()
            .filter_map(|n| parse_file_seq(n))
            .max()
            .map_or(0, |n| n + 1);
        backend.remove_unlisted(&names);
        Ok(backend)
    }

    /// First open of a directory: create an empty segment, then publish
    /// the initial manifest.
    fn initialize(&mut self) -> Result<(), StoreError> {
        let first = segment_name(0);
        let mut f = File::create(self.dir.join(&first))?;
        f.write_all(MAGIC)?;
        if self.options.durable {
            f.sync_all()?;
            self.fsyncs += 1;
        }
        self.write_manifest(&[first])
    }

    /// Parses the manifest: magic line then one data-file name per line.
    fn read_manifest(&self) -> Result<Vec<String>, StoreError> {
        let text = std::fs::read_to_string(self.dir.join(MANIFEST))?;
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the manifest magic",
                self.dir.join(MANIFEST).display()
            )));
        }
        let names: Vec<String> = lines.filter(|l| !l.is_empty()).map(str::to_owned).collect();
        if names.is_empty() {
            return Err(StoreError::Corrupt("manifest lists no data files".into()));
        }
        for n in &names {
            if n.contains('/') || n.contains('\\') || !(n.ends_with(".seg") || n.ends_with(".pack"))
            {
                return Err(StoreError::Corrupt(format!(
                    "manifest lists illegal data file name {n:?}"
                )));
            }
        }
        Ok(names)
    }

    /// Atomically publishes a new file list: write `manifest.tmp`, fsync
    /// it, rename over `manifest`, fsync the directory. A crash leaves
    /// either the old or the new manifest, never a torn one.
    fn write_manifest(&mut self, names: &[String]) -> Result<(), StoreError> {
        let mut text = String::from(MANIFEST_MAGIC);
        for n in names {
            text.push('\n');
            text.push_str(n);
        }
        text.push('\n');
        let tmp = self.dir.join(MANIFEST_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            if self.options.durable {
                f.sync_all()?;
                self.fsyncs += 1;
            }
        }
        std::fs::rename(&tmp, self.dir.join(MANIFEST))?;
        self.sync_dir()
    }

    fn sync_dir(&mut self) -> Result<(), StoreError> {
        if self.options.durable {
            File::open(&self.dir)?.sync_all()?;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Deletes data files the manifest does not list — leftovers of a
    /// rotation or compaction that crashed before its manifest swap (or
    /// after it, before the victim files were deleted). Only the names
    /// this engine writes qualify, so a foreign `*.seg` survives. Best
    /// effort.
    fn remove_unlisted(&self, listed: &[String]) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = (parse_file_seq(name).is_some() || name == PACK_TMP)
                && !listed.iter().any(|l| l == name);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Opens and replays one listed segment, publishing its records into
    /// the index/refs. Only the active (last-listed) segment may carry a
    /// torn tail — it is truncated away; a torn *sealed* segment was
    /// fsynced before the manifest listed it, so damage there is real
    /// corruption.
    fn load_segment(&mut self, name: &str, active: bool) -> Result<(), StoreError> {
        let path = self.dir.join(name);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(false)
            .open(&path)
            .map_err(|e| {
                StoreError::Corrupt(format!("manifest lists missing segment {name}: {e}"))
            })?;
        let file_len = file.metadata()?.len();
        let mut magic = [0u8; 8];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut magic)
            .map_err(|_| StoreError::Corrupt(format!("segment {name} shorter than its magic")))?;
        if &magic != MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the segment magic",
                path.display()
            )));
        }

        let slot = self.files.len() as u32;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut pos = 0usize;
        let mut valid_end = MAGIC.len() as u64;
        while pos < bytes.len() {
            let Some(record) = parse_record(&bytes[pos..]) else {
                break; // torn or corrupt tail
            };
            let payload_offset = valid_end + HEADER_LEN;
            match record {
                Record::Object(payload) => {
                    let id = ObjectId::from_bytes(Sha256::digest(&payload));
                    self.index.entry(id).or_insert(Location {
                        slot,
                        offset: payload_offset,
                        len: payload.len() as u32,
                    });
                }
                Record::Keyed(payload) => {
                    // The advertised address leads the payload; the
                    // location spans the whole payload (id included) so a
                    // later read can re-derive which case it holds.
                    let mut id = [0u8; 32];
                    id.copy_from_slice(&payload[..32]);
                    self.index
                        .entry(ObjectId::from_bytes(id))
                        .or_insert(Location {
                            slot,
                            offset: payload_offset,
                            len: payload.len() as u32,
                        });
                }
                Record::Ref(name, id) => {
                    self.refs.insert(name, id);
                }
            }
            let record_len = HEADER_LEN + record_payload_len(&bytes[pos..]) as u64 + CHECK_LEN;
            pos += record_len as usize;
            valid_end += record_len;
        }
        if valid_end < file_len {
            if !active {
                return Err(StoreError::Corrupt(format!(
                    "sealed segment {name} has a torn tail at byte {valid_end}"
                )));
            }
            // Drop the active segment's torn tail so future appends never
            // interleave with garbage.
            file.set_len(valid_end)?;
            if self.options.durable {
                file.sync_data()?;
                self.fsyncs += 1;
            }
        }
        self.files.push(StoreFile {
            name: name.to_owned(),
            path,
            file,
            len: valid_end,
        });
        Ok(())
    }

    /// Opens one listed pack: reads the footer, loads and
    /// checksum-verifies the offset index, publishes its entries and ref
    /// table. No payload byte is read or hashed here.
    fn load_pack(&mut self, name: &str) -> Result<(), StoreError> {
        let path = self.dir.join(name);
        let mut file = File::open(&path)
            .map_err(|e| StoreError::Corrupt(format!("manifest lists missing pack {name}: {e}")))?;
        let file_len = file.metadata()?.len();
        if file_len < MAGIC.len() as u64 + PACK_FOOTER_LEN {
            return Err(StoreError::Corrupt(format!("pack {name} too short")));
        }
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != PACK_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the pack magic",
                path.display()
            )));
        }
        let mut footer = [0u8; PACK_FOOTER_LEN as usize];
        file.seek(SeekFrom::Start(file_len - PACK_FOOTER_LEN))?;
        file.read_exact(&mut footer)?;
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        if index_offset < MAGIC.len() as u64
            || index_offset
                .checked_add(index_len)
                .is_none_or(|end| end != file_len - PACK_FOOTER_LEN)
        {
            return Err(StoreError::Corrupt(format!(
                "pack {name} footer describes an impossible index"
            )));
        }
        let mut ix = vec![0u8; index_len as usize];
        file.seek(SeekFrom::Start(index_offset))?;
        file.read_exact(&mut ix)?;
        if Sha256::digest(&ix)[..CHECK_LEN as usize] != footer[16..24] {
            return Err(StoreError::Corrupt(format!(
                "pack {name} index fails its checksum"
            )));
        }

        let slot = self.files.len() as u32;
        let mut cur = ix.as_slice();
        let obj_count = take_u32(&mut cur)
            .ok_or_else(|| StoreError::Corrupt(format!("pack {name} index truncated")))?;
        for _ in 0..obj_count {
            let (id, offset, len) = take_obj_entry(&mut cur)
                .ok_or_else(|| StoreError::Corrupt(format!("pack {name} index truncated")))?;
            if offset
                .checked_add(len as u64)
                .is_none_or(|end| end > index_offset)
            {
                return Err(StoreError::Corrupt(format!(
                    "pack {name} index entry points outside the payload area"
                )));
            }
            self.index
                .entry(id)
                .or_insert(Location { slot, offset, len });
        }
        let ref_count = take_u32(&mut cur)
            .ok_or_else(|| StoreError::Corrupt(format!("pack {name} index truncated")))?;
        for _ in 0..ref_count {
            let (ref_name, id) = take_ref_entry(&mut cur)
                .ok_or_else(|| StoreError::Corrupt(format!("pack {name} ref table truncated")))?;
            self.refs.insert(ref_name, id);
        }
        self.files.push(StoreFile {
            name: name.to_owned(),
            path,
            file,
            len: file_len,
        });
        Ok(())
    }

    fn active(&self) -> &StoreFile {
        self.files
            .last()
            .expect("a store always has an active segment")
    }

    fn active_mut(&mut self) -> &mut StoreFile {
        self.files
            .last_mut()
            .expect("a store always has an active segment")
    }

    /// Appends one framed record to the active segment (rotating first if
    /// it would overflow); returns the payload's file location. No fsync
    /// here — durability is scheduled by [`Backend::commit_boundary`] /
    /// [`Backend::flush`] per the [`FlushPolicy`].
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<Location, StoreError> {
        let record_len = HEADER_LEN + payload.len() as u64 + CHECK_LEN;
        if self.active().len > MAGIC.len() as u64
            && self.active().len + record_len > self.options.max_segment_bytes
        {
            self.rotate()?;
        }
        let mut record = Vec::with_capacity(payload.len() + (HEADER_LEN + CHECK_LEN) as usize);
        record.push(kind);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(payload);
        record.extend_from_slice(&Sha256::digest(payload)[..CHECK_LEN as usize]);
        let slot = (self.files.len() - 1) as u32;
        let active = self.active_mut();
        let offset = active.len + HEADER_LEN;
        active.file.seek(SeekFrom::Start(active.len))?;
        active.file.write_all(&record)?;
        active.len += record_len;
        self.dirty = true;
        Ok(Location {
            slot,
            offset,
            len: payload.len() as u32,
        })
    }

    /// Fsyncs the active segment if it has unsynced appends (and the
    /// store is durable). The one place data syncs happen.
    fn sync_active(&mut self) -> Result<(), StoreError> {
        if !self.dirty {
            return Ok(());
        }
        if self.options.durable {
            self.active().file.sync_data()?;
            self.fsyncs += 1;
        }
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn rotate_inner(&mut self, publish: bool) -> Result<(), StoreError> {
        // Seal durably: everything in the old segment must be on disk
        // before the manifest promotes a successor.
        self.sync_active()?;
        let name = segment_name(self.seq);
        self.seq += 1;
        let path = self.dir.join(&name);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(MAGIC)?;
        if self.options.durable {
            file.sync_all()?;
            self.fsyncs += 1;
        }
        if !publish {
            return Ok(()); // fault injection: crash before the manifest swap
        }
        let mut names: Vec<String> = self.files.iter().map(|f| f.name.clone()).collect();
        names.push(name.clone());
        self.write_manifest(&names)?;
        self.files.push(StoreFile {
            name,
            path,
            file,
            len: MAGIC.len() as u64,
        });
        Ok(())
    }

    /// Fault injection for crash tests: performs the first half of a
    /// rotation (seal + create the successor segment) and then "crashes"
    /// before the manifest swap. The backend must be dropped afterwards.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    #[doc(hidden)]
    pub fn crash_mid_rotation(&mut self) -> Result<(), StoreError> {
        self.rotate_inner(false)
    }

    /// Compacts every sealed file into one pack, keeping only objects in
    /// `live` (or all of them when `None`), then publishes the new
    /// two-file list (pack + active segment) and deletes the victims.
    /// `fault` optionally aborts mid-way to simulate a crash.
    fn compact_inner(
        &mut self,
        live: Option<&HashSet<ObjectId>>,
        fault: Option<CompactionFault>,
    ) -> Result<(), StoreError> {
        if self.files.len() < 2 {
            return Ok(()); // only the active segment: nothing sealed to fold
        }
        // The pack bakes in the *current* ref table, which may point at
        // objects whose records sit unsynced in the active segment; seal
        // them first so a post-compaction crash cannot leave a pack ref
        // dangling.
        self.sync_active()?;

        let active_slot = (self.files.len() - 1) as u32;
        let mut survivors: Vec<(ObjectId, Location)> = self
            .index
            .iter()
            .filter(|(id, loc)| loc.slot != active_slot && live.is_none_or(|l| l.contains(*id)))
            .map(|(id, loc)| (*id, *loc))
            .collect();
        // Preserve write locality: keep the victims' physical order.
        survivors.sort_by_key(|(_, loc)| (loc.slot, loc.offset));

        // Write pack.tmp: payloads back to back, then the offset index +
        // ref table, then the footer. Fsynced before it can be published.
        let tmp = self.dir.join(PACK_TMP);
        let mut new_locations: Vec<(ObjectId, u64, u32)> = Vec::with_capacity(survivors.len());
        {
            let mut out = std::io::BufWriter::new(File::create(&tmp)?);
            out.write_all(PACK_MAGIC)?;
            let mut offset = MAGIC.len() as u64;
            for (id, loc) in &survivors {
                let bytes = self.read_location(*loc)?;
                out.write_all(&bytes)?;
                new_locations.push((*id, offset, loc.len));
                offset += loc.len as u64;
            }
            let mut ix = Vec::new();
            ix.extend_from_slice(&(new_locations.len() as u32).to_le_bytes());
            for (id, off, len) in &new_locations {
                ix.extend_from_slice(id.as_bytes());
                ix.extend_from_slice(&off.to_le_bytes());
                ix.extend_from_slice(&len.to_le_bytes());
            }
            ix.extend_from_slice(&(self.refs.len() as u32).to_le_bytes());
            for (name, id) in &self.refs {
                ix.extend_from_slice(&ref_name_len(name)?.to_le_bytes());
                ix.extend_from_slice(name.as_bytes());
                ix.extend_from_slice(id.as_bytes());
            }
            out.write_all(&ix)?;
            out.write_all(&offset.to_le_bytes())?;
            out.write_all(&(ix.len() as u64).to_le_bytes())?;
            out.write_all(&Sha256::digest(&ix)[..CHECK_LEN as usize])?;
            let f = out
                .into_inner()
                .map_err(|e| StoreError::Io(e.to_string()))?;
            if self.options.durable {
                f.sync_all()?;
                self.fsyncs += 1;
            }
        }
        if fault == Some(CompactionFault::AfterTempWrite) {
            return Ok(());
        }

        let pack_name = pack_name(self.seq);
        self.seq += 1;
        let pack_path = self.dir.join(&pack_name);
        std::fs::rename(&tmp, &pack_path)?;
        self.sync_dir()?;
        if fault == Some(CompactionFault::AfterPackRename) {
            return Ok(());
        }

        let active_name = self.active().name.clone();
        self.write_manifest(&[pack_name.clone(), active_name])?;
        if fault == Some(CompactionFault::AfterManifestSwap) {
            return Ok(());
        }

        // Published: the victims are garbage now.
        let active = self.files.pop().expect("active segment exists");
        for victim in self.files.drain(..) {
            let _ = std::fs::remove_file(&victim.path);
        }
        let pack_len = std::fs::metadata(&pack_path)?.len();
        self.files.push(StoreFile {
            name: pack_name,
            path: pack_path,
            file: File::open(self.files_pack_reopen_path())?,
            len: pack_len,
        });
        self.files.push(active);

        // Re-point the index: survivors now live in the pack (slot 0),
        // active-segment objects keep their offsets in slot 1, and
        // anything compaction dropped leaves the index entirely.
        let mut index = HashMap::with_capacity(new_locations.len());
        for (id, offset, len) in new_locations {
            index.insert(
                id,
                Location {
                    slot: 0,
                    offset,
                    len,
                },
            );
        }
        for (id, loc) in &self.index {
            if loc.slot == active_slot {
                index.insert(
                    *id,
                    Location {
                        slot: 1,
                        offset: loc.offset,
                        len: loc.len,
                    },
                );
            }
        }
        self.index = index;
        Ok(())
    }

    /// The freshly renamed pack's path (helper so `compact_inner` can
    /// reopen it after the rename without re-deriving the name).
    fn files_pack_reopen_path(&self) -> PathBuf {
        // The pack was renamed to pack_name(seq - 1) just above.
        self.dir.join(pack_name(self.seq - 1))
    }

    /// Fault injection for crash tests: runs compaction up to (and
    /// including) `fault`, then "crashes". The backend must be dropped
    /// afterwards — its in-memory state intentionally reflects the
    /// pre-crash process.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    #[doc(hidden)]
    pub fn compact_with_fault(&mut self, fault: CompactionFault) -> Result<(), StoreError> {
        self.compact_inner(None, Some(fault))
    }

    /// Reads payload bytes at a location (no hash verification — callers
    /// verify where the contract requires it).
    fn read_location(&self, loc: Location) -> Result<Vec<u8>, StoreError> {
        let store_file = &self.files[loc.slot as usize];
        let mut buf = vec![0u8; loc.len as usize];
        // NB: `try_clone` shares one file cursor — this read moves it.
        // Safe because `append` always seeks before writing (and only
        // ever writes the active segment).
        let mut reader = store_file.file.try_clone()?;
        reader.seek(SeekFrom::Start(loc.offset))?;
        reader.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active segment's file path (the only file appends touch) —
    /// what crash tests truncate.
    pub fn active_path(&self) -> PathBuf {
        self.active().path.clone()
    }

    /// The manifest-listed data file names, in replay order (packs
    /// first, active segment last).
    pub fn file_names(&self) -> Vec<String> {
        self.files.iter().map(|f| f.name.clone()).collect()
    }

    /// Total valid data bytes across every manifest-listed file — the
    /// numerator of disk amplification (bytes on disk / live bytes).
    pub fn disk_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.len).sum()
    }

    /// Number of fsync calls issued over this backend's lifetime (data,
    /// manifest and directory syncs alike). Always 0 when the store is
    /// not durable. The bench pipeline divides this by commits to gate
    /// group commit.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    fn sweep_stats_inner(&self, live: &HashSet<ObjectId>) -> SweepStats {
        let mut stats = SweepStats::default();
        for (id, loc) in &self.index {
            if live.contains(id) {
                stats.live_objects += 1;
                stats.live_bytes += loc.len as u64;
            } else {
                stats.dead_objects += 1;
                stats.dead_bytes += loc.len as u64;
            }
        }
        stats
    }
}

impl Drop for SegmentBackend {
    /// Best-effort final sync so a clean shutdown under a coalesced or
    /// explicit [`FlushPolicy`] does not discard acknowledged commits.
    fn drop(&mut self) {
        let _ = self.sync_active();
    }
}

fn segment_name(seq: u32) -> String {
    format!("segment-{seq:04}.seg")
}

fn pack_name(seq: u32) -> String {
    format!("pack-{seq:04}.pack")
}

/// The NNNN out of `segment-NNNN.seg` / `pack-NNNN.pack`.
fn parse_file_seq(name: &str) -> Option<u32> {
    let digits = name
        .strip_prefix("segment-")
        .or_else(|| name.strip_prefix("pack-"))?;
    let digits = digits
        .strip_suffix(".seg")
        .or_else(|| digits.strip_suffix(".pack"))?;
    digits.parse().ok()
}

fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    let (head, rest) = cur.split_first_chunk::<4>()?;
    *cur = rest;
    Some(u32::from_le_bytes(*head))
}

fn take_obj_entry(cur: &mut &[u8]) -> Option<(ObjectId, u64, u32)> {
    let (id, rest) = cur.split_first_chunk::<32>()?;
    let (off, rest) = rest.split_first_chunk::<8>()?;
    let (len, rest) = rest.split_first_chunk::<4>()?;
    *cur = rest;
    Some((
        ObjectId::from_bytes(*id),
        u64::from_le_bytes(*off),
        u32::from_le_bytes(*len),
    ))
}

fn take_ref_entry(cur: &mut &[u8]) -> Option<(String, ObjectId)> {
    let (len, rest) = cur.split_first_chunk::<2>()?;
    let name_len = u16::from_le_bytes(*len) as usize;
    if rest.len() < name_len + 32 {
        return None;
    }
    let name = String::from_utf8(rest[..name_len].to_vec()).ok()?;
    let (id, rest2) = rest[name_len..].split_first_chunk::<32>()?;
    *cur = rest2;
    Some((name, ObjectId::from_bytes(*id)))
}

enum Record {
    Object(Vec<u8>),
    /// Keyed payload: 32-byte advertised id ++ caller record bytes.
    Keyed(Vec<u8>),
    Ref(String, ObjectId),
}

/// Payload length claimed by the record header at `bytes[0..]`, assuming
/// at least a full header is present.
fn record_payload_len(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]])
}

/// The `u16` length prefix a ref record (and a pack's ref table) frames
/// `name` with. A longer name cannot be framed — a wrapped prefix would
/// read back as a torn record and take every later record with it — so
/// it is refused here, whatever validated (or did not validate) it above.
fn ref_name_len(name: &str) -> Result<u16, StoreError> {
    u16::try_from(name.len()).map_err(|_| StoreError::InvalidBranchName(name.to_owned()))
}

/// Parses and checksum-verifies one record at `bytes[0..]`. `None` on a
/// torn (incomplete) or corrupt record.
fn parse_record(bytes: &[u8]) -> Option<Record> {
    if bytes.len() < (HEADER_LEN + CHECK_LEN) as usize {
        return None;
    }
    let kind = bytes[0];
    let len = record_payload_len(bytes) as usize;
    let payload_start = HEADER_LEN as usize;
    let check_start = payload_start.checked_add(len)?;
    let record_end = check_start.checked_add(CHECK_LEN as usize)?;
    if bytes.len() < record_end {
        return None;
    }
    let payload = &bytes[payload_start..check_start];
    if Sha256::digest(payload)[..CHECK_LEN as usize] != bytes[check_start..record_end] {
        return None;
    }
    match kind {
        KIND_OBJECT => Some(Record::Object(payload.to_vec())),
        KIND_KEYED => {
            if payload.len() < 32 {
                return None;
            }
            Some(Record::Keyed(payload.to_vec()))
        }
        KIND_REF => {
            if payload.len() < 2 {
                return None;
            }
            let name_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
            if payload.len() != 2 + name_len + 32 {
                return None;
            }
            let name = String::from_utf8(payload[2..2 + name_len].to_vec()).ok()?;
            let mut id = [0u8; 32];
            id.copy_from_slice(&payload[2 + name_len..]);
            Some(Record::Ref(name, ObjectId::from_bytes(id)))
        }
        _ => None,
    }
}

impl Backend for SegmentBackend {
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
        if self.index.contains_key(&id) {
            self.stats.dedup_hits += 1;
            return Ok(());
        }
        let loc = self.append(KIND_OBJECT, bytes)?;
        // Publish only after the write succeeded.
        self.index.insert(id, loc);
        Ok(())
    }

    fn put_keyed(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), StoreError> {
        self.stats.puts += 1;
        if self.index.contains_key(&id) {
            self.stats.dedup_hits += 1;
            return Ok(());
        }
        let mut payload = Vec::with_capacity(32 + bytes.len());
        payload.extend_from_slice(id.as_bytes());
        payload.extend_from_slice(bytes);
        let loc = self.append(KIND_KEYED, &payload)?;
        self.index.insert(id, loc);
        Ok(())
    }

    fn get(&self, id: ObjectId) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(&loc) = self.index.get(&id) else {
            return Ok(None);
        };
        let mut buf = self.read_location(loc)?;
        // Keyed record: the payload carries the advertised address up
        // front. Checked first, so a state read pays no SHA-256 over bytes
        // the resolver re-verifies anyway (a content-addressed object
        // starting with its own sha256 is not constructible).
        if buf.starts_with(id.as_bytes()) {
            buf.drain(..32);
            return Ok(Some(buf));
        }
        // Content-addressed object: the bytes hash to their address.
        if ObjectId::from_bytes(Sha256::digest(&buf)) == id {
            return Ok(Some(buf));
        }
        Err(StoreError::Corrupt(format!(
            "object {id} bytes neither hash to their address nor form a keyed record"
        )))
    }

    fn contains(&self, id: ObjectId) -> Result<bool, StoreError> {
        Ok(self.index.contains_key(&id))
    }

    fn set_ref(&mut self, name: &str, id: ObjectId) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(2 + name.len() + 32);
        payload.extend_from_slice(&ref_name_len(name)?.to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(id.as_bytes());
        self.append(KIND_REF, &payload)?;
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
        self.index.len()
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.sync_active()
    }

    fn commit_boundary(&mut self) -> Result<(), StoreError> {
        match self.options.flush {
            FlushPolicy::PerCommit => self.sync_active(),
            FlushPolicy::Coalesced { max_delay } => {
                if self.dirty && self.last_sync.elapsed() >= max_delay {
                    self.sync_active()
                } else {
                    Ok(())
                }
            }
            FlushPolicy::Explicit => Ok(()),
        }
    }

    fn sweep_stats(&self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError> {
        Ok(self.sweep_stats_inner(live))
    }

    fn collect_garbage(&mut self, live: &HashSet<ObjectId>) -> Result<SweepStats, StoreError> {
        let stats = self.sweep_stats_inner(live);
        // Seal the active segment so *all* objects sit in sealed files,
        // then fold those into one pack keeping only the live set. The
        // dead bytes vanish with the victim files.
        self.rotate()?;
        self.compact_inner(Some(live), None)?;
        Ok(stats)
    }

    fn compact(&mut self) -> Result<(), StoreError> {
        self.compact_inner(None, None)
    }

    /// Seals the active segment and opens a fresh one: fsync the old,
    /// create `segment-NNNN.seg`, publish the extended file list by
    /// manifest swap. A crash anywhere in between recovers to a valid
    /// store (the unlisted new file is deleted at open). No-op when the
    /// active segment is empty.
    ///
    /// Called automatically when an append would overflow
    /// [`SegmentOptions::max_segment_bytes`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    fn rotate(&mut self) -> Result<(), StoreError> {
        if self.active().len <= MAGIC.len() as u64 {
            return Ok(());
        }
        self.rotate_inner(true)
    }

    fn kind(&self) -> &'static str {
        "segment"
    }

    fn storage_info(&self) -> StorageInfo {
        let flush = if !self.options.durable {
            "none".to_string()
        } else {
            match self.options.flush {
                FlushPolicy::PerCommit => "per-commit".to_string(),
                FlushPolicy::Coalesced { max_delay } => {
                    format!("coalesced:{}ms", max_delay.as_millis())
                }
                FlushPolicy::Explicit => "explicit".to_string(),
            }
        };
        StorageInfo {
            disk_bytes: self.disk_bytes(),
            segments: self.files.len() as u64,
            fsyncs: self.fsyncs,
            flush,
        }
    }
}

impl fmt::Debug for SegmentBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SegmentBackend({} objects, {} refs, {} files, {} bytes, {})",
            self.index.len(),
            self.refs.len(),
            self.files.len(),
            self.disk_bytes(),
            self.dir.display()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("peepul-segment-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick() -> SegmentOptions {
        SegmentOptions {
            durable: false,
            ..SegmentOptions::default()
        }
    }

    /// Tiny cap so a handful of puts exercises rotation.
    fn tiny() -> SegmentOptions {
        SegmentOptions {
            durable: false,
            max_segment_bytes: 256,
            ..SegmentOptions::default()
        }
    }

    #[test]
    fn put_get_roundtrip_and_dedup() {
        let dir = scratch("roundtrip");
        let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
        let id = b.put(b"payload").unwrap();
        assert_eq!(b.put(b"payload").unwrap(), id);
        assert_eq!(b.object_count(), 1);
        assert_eq!(b.stats().dedup_hits, 1);
        assert_eq!(b.get(id).unwrap().as_deref(), Some(&b"payload"[..]));
        assert!(b.contains(id).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A keyed record (a state, addressed by its canonical bytes' hash
    /// rather than the stored payload's) and a content-addressed object
    /// read back identically from the active segment and from a pack.
    #[test]
    fn keyed_and_content_addressed_records_read_back_from_segment_and_pack() {
        let dir = scratch("keyed");
        let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
        let keyed = ObjectId::from_bytes(Sha256::digest(b"canonical state"));
        b.put_keyed(keyed, b"stored delta record").unwrap();
        let object = b.put(b"commit record").unwrap();
        let read_both = |b: &SegmentBackend| {
            assert_eq!(
                b.get(keyed).unwrap().as_deref(),
                Some(&b"stored delta record"[..])
            );
            assert_eq!(
                b.get(object).unwrap().as_deref(),
                Some(&b"commit record"[..])
            );
        };
        read_both(&b);
        b.rotate().unwrap();
        b.compact().unwrap();
        assert!(b.file_names()[0].ends_with(".pack"));
        read_both(&b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_restores_objects_and_refs() {
        let dir = scratch("reopen");
        let (id_a, id_b) = {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            let a = b.put(b"first").unwrap();
            let c = b.put(b"second").unwrap();
            b.set_ref("main", a).unwrap();
            b.set_ref("main", c).unwrap();
            b.set_ref("dev", a).unwrap();
            (a, c)
        };
        let b = SegmentBackend::open_with(&dir, quick()).unwrap();
        assert_eq!(b.get(id_a).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(b.get(id_b).unwrap().as_deref(), Some(&b"second"[..]));
        // Last writer wins across the replay.
        assert_eq!(b.get_ref("main").unwrap(), Some(id_b));
        assert_eq!(b.get_ref("dev").unwrap(), Some(id_a));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a ref name of 65 536 bytes or more used to wrap the
    /// record's `u16` length prefix; the next open read the record as a
    /// torn tail and truncated **every later record** of the segment.
    #[test]
    fn oversized_ref_name_is_refused_and_loses_nothing_later() {
        let dir = scratch("long-ref");
        let (a, c) = {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            let a = b.put(b"a").unwrap();
            b.set_ref("main", a).unwrap();
            let long = "x".repeat(70_000);
            assert!(matches!(
                b.set_ref(&long, a),
                Err(StoreError::InvalidBranchName(_))
            ));
            // The longest frameable name still lands.
            b.set_ref(&long[..usize::from(u16::MAX)], a).unwrap();
            let c = b.put(b"c").unwrap();
            b.set_ref("main", c).unwrap();
            b.flush().unwrap();
            (a, c)
        };
        let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
        assert!(b.contains(a).unwrap() && b.contains(c).unwrap());
        assert_eq!(b.get_ref("main").unwrap(), Some(c));
        assert_eq!(b.refs().unwrap().len(), 2);
        // The pack's ref table frames names the same way (GC rotates,
        // then folds the sealed segment into a pack).
        b.collect_garbage(&[a, c].into_iter().collect()).unwrap();
        drop(b);
        let b = SegmentBackend::open_with(&dir, quick()).unwrap();
        assert_eq!(b.get_ref("main").unwrap(), Some(c));
        assert_eq!(b.refs().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_on_reopen() {
        let dir = scratch("torn");
        let (id_good, file) = {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            let good = b.put(b"published before the crash").unwrap();
            b.put(b"the record a crash will tear").unwrap();
            (good, b.active_path())
        };
        // Tear the last record: chop 3 bytes off its checksum.
        let len = std::fs::metadata(&file).unwrap().len();
        let f = OpenOptions::new().write(true).open(&file).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let b = SegmentBackend::open_with(&dir, quick()).unwrap();
        assert!(b.contains(id_good).unwrap());
        assert_eq!(b.object_count(), 1);
        // The file was truncated back to the last good record.
        assert_eq!(std::fs::metadata(&file).unwrap().len(), b.disk_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_after_torn_reopen_are_clean() {
        let dir = scratch("torn-append");
        let (id_good, file) = {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            let good = b.put(b"keep me").unwrap();
            b.put(b"tear me").unwrap();
            (good, b.active_path())
        };
        let len = std::fs::metadata(&file).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&file)
            .unwrap()
            .set_len(len - 1)
            .unwrap();

        let id_new = {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            b.put(b"written after recovery").unwrap()
        };
        let b = SegmentBackend::open_with(&dir, quick()).unwrap();
        assert!(b.contains(id_good).unwrap());
        assert!(b.contains(id_new).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let dir = scratch("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("segment-0000.seg"), b"NOTPEEPL extra").unwrap();
        std::fs::write(dir.join(MANIFEST), "PEEPULM1\nsegment-0000.seg\n").unwrap();
        assert!(matches!(
            SegmentBackend::open_with(&dir, quick()),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_store_seg_survives_open() {
        // A `store.seg` is not a name this engine writes: neither the
        // first open nor a reopen may adopt, rename or sweep it.
        let dir = scratch("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let foreign = dir.join("store.seg");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(b"someone else's bytes");
        std::fs::write(&foreign, &bytes).unwrap();
        for round in 0..2 {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            assert_eq!(b.object_count(), round, "only our own records load");
            b.put(format!("ours {round}").as_bytes()).unwrap();
            drop(b);
            assert_eq!(std::fs::read(&foreign).unwrap(), bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_rotate_at_the_size_cap_and_reopen_across_segments() {
        let dir = scratch("rotate");
        let mut ids = Vec::new();
        {
            let mut b = SegmentBackend::open_with(&dir, tiny()).unwrap();
            for i in 0..40u32 {
                ids.push(b.put(format!("object number {i:06}").as_bytes()).unwrap());
            }
            b.set_ref("main", ids[39]).unwrap();
            assert!(
                b.file_names().len() > 2,
                "40 records over a 256-byte cap must rotate: {:?}",
                b.file_names()
            );
        }
        let b = SegmentBackend::open_with(&dir, tiny()).unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                b.get(*id).unwrap().as_deref(),
                Some(format!("object number {i:06}").as_bytes()),
                "object {i} must survive rotation + reopen"
            );
        }
        assert_eq!(b.get_ref("main").unwrap(), Some(ids[39]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_sealed_segments_into_one_pack() {
        let dir = scratch("compact");
        let mut ids = Vec::new();
        {
            let mut b = SegmentBackend::open_with(&dir, tiny()).unwrap();
            for i in 0..30u32 {
                ids.push(b.put(format!("compactable {i:06}").as_bytes()).unwrap());
            }
            b.set_ref("main", ids[29]).unwrap();
            let before = b.file_names().len();
            assert!(before > 2);
            b.compact().unwrap();
            let names = b.file_names();
            assert_eq!(names.len(), 2, "pack + active: {names:?}");
            assert!(names[0].ends_with(".pack"));
            assert!(names[1].ends_with(".seg"));
            // Everything still readable through the pack.
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(
                    b.get(*id).unwrap().as_deref(),
                    Some(format!("compactable {i:06}").as_bytes())
                );
            }
            // Writes continue to work after compaction.
            let extra = b.put(b"post-compaction append").unwrap();
            assert!(b.contains(extra).unwrap());
        }
        // And the pack index replays on reopen without a payload scan.
        let b = SegmentBackend::open_with(&dir, tiny()).unwrap();
        for id in &ids {
            assert!(b.contains(*id).unwrap());
        }
        assert_eq!(b.get_ref("main").unwrap(), Some(ids[29]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collect_garbage_reclaims_dead_objects_and_bytes() {
        let dir = scratch("gc");
        let mut b = SegmentBackend::open_with(&dir, tiny()).unwrap();
        let live: Vec<ObjectId> = (0..10u32)
            .map(|i| b.put(format!("live object {i:04}").as_bytes()).unwrap())
            .collect();
        let dead: Vec<ObjectId> = (0..20u32)
            .map(|i| {
                b.put(format!("dead weight {i:04} {}", "x".repeat(64)).as_bytes())
                    .unwrap()
            })
            .collect();
        b.set_ref("main", live[9]).unwrap();
        let before = b.disk_bytes();

        let live_set: HashSet<ObjectId> = live.iter().copied().collect();
        let stats = b.collect_garbage(&live_set).unwrap();
        assert_eq!(stats.live_objects, 10);
        assert_eq!(stats.dead_objects, 20);
        assert!(stats.dead_bytes > stats.live_bytes);

        assert!(b.disk_bytes() < before, "GC must shrink the disk footprint");
        assert_eq!(b.object_count(), 10);
        for id in &live {
            assert!(b.contains(*id).unwrap());
        }
        for id in &dead {
            assert!(!b.contains(*id).unwrap());
            assert_eq!(b.get(*id).unwrap(), None);
        }
        assert_eq!(b.get_ref("main").unwrap(), Some(live[9]));

        // Survives reopen.
        drop(b);
        let b = SegmentBackend::open_with(&dir, tiny()).unwrap();
        assert_eq!(b.object_count(), 10);
        for id in &live {
            assert!(b.contains(*id).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unlisted_leftover_files_are_swept_at_open() {
        let dir = scratch("leftovers");
        let id = {
            let mut b = SegmentBackend::open_with(&dir, quick()).unwrap();
            b.put(b"real data").unwrap()
        };
        // Fake crash debris: an orphan segment, an orphan pack, a tmp.
        std::fs::write(dir.join("segment-0099.seg"), MAGIC).unwrap();
        std::fs::write(dir.join("pack-0099.pack"), b"junk").unwrap();
        std::fs::write(dir.join(PACK_TMP), b"junk").unwrap();

        let b = SegmentBackend::open_with(&dir, quick()).unwrap();
        assert!(b.contains(id).unwrap());
        assert!(!dir.join("segment-0099.seg").exists());
        assert!(!dir.join("pack-0099.pack").exists());
        assert!(!dir.join(PACK_TMP).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_policy_counts_no_data_fsyncs_until_flush() {
        let dir = scratch("explicit");
        let mut b = SegmentBackend::open_with(
            &dir,
            SegmentOptions {
                durable: true,
                flush: FlushPolicy::Explicit,
                ..SegmentOptions::default()
            },
        )
        .unwrap();
        let after_open = b.fsync_count();
        for i in 0..50u32 {
            b.put(format!("no sync yet {i}").as_bytes()).unwrap();
            b.commit_boundary().unwrap();
        }
        assert_eq!(
            b.fsync_count(),
            after_open,
            "explicit policy must not sync at commit boundaries"
        );
        b.flush().unwrap();
        assert_eq!(b.fsync_count(), after_open + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_commit_policy_syncs_once_per_boundary_not_per_record() {
        let dir = scratch("percommit");
        let mut b = SegmentBackend::open_with(
            &dir,
            SegmentOptions {
                durable: true,
                ..SegmentOptions::default()
            },
        )
        .unwrap();
        let base = b.fsync_count();
        // Three records, one boundary — the shape of one commit.
        b.put(b"state bytes").unwrap();
        b.put(b"commit bytes").unwrap();
        let id = b.put(b"ref target").unwrap();
        b.set_ref("main", id).unwrap();
        b.commit_boundary().unwrap();
        assert_eq!(
            b.fsync_count(),
            base + 1,
            "group commit: 4 records, 1 fsync"
        );
        // An untouched boundary is free.
        b.commit_boundary().unwrap();
        assert_eq!(b.fsync_count(), base + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_flush_syncs_at_the_first_boundary_past_max_delay() {
        let dir = scratch("coalesced");
        let max_delay = Duration::from_millis(50);
        let mut b = SegmentBackend::open_with(
            &dir,
            SegmentOptions {
                durable: true,
                flush: FlushPolicy::Coalesced { max_delay },
                ..SegmentOptions::default()
            },
        )
        .unwrap();
        let base = b.fsync_count();
        for i in 0..20u32 {
            // Restart the window so this boundary lands inside it however
            // slowly the host runs.
            b.last_sync = Instant::now();
            b.put(format!("inside the window {i}").as_bytes()).unwrap();
            b.commit_boundary().unwrap();
        }
        assert_eq!(
            b.fsync_count(),
            base,
            "boundaries inside the window must not sync"
        );
        std::thread::sleep(max_delay);
        b.commit_boundary().unwrap();
        assert_eq!(
            b.fsync_count(),
            base + 1,
            "the first boundary past the window syncs once"
        );
        b.commit_boundary().unwrap();
        assert_eq!(b.fsync_count(), base + 1, "nothing unsynced is left");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
