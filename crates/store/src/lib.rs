//! A Git-like replicated branch store for MRDTs — the workspace's stand-in
//! for Irmin (the OCaml distributed database the paper runs Peepul on).
//!
//! The store realises the system model of the paper's §2.1 and §3:
//!
//! * versioned states in **branches** with explicit three-way **merges**
//!   ([`BranchStore`]), addressed through validated **typed handles**
//!   ([`BranchRef`], [`BranchMut`], [`BranchId`]) with a **commit-free
//!   query path** ([`BranchStore::read`]); every update is one `DO` step,
//!   one commit with one timestamp,
//! * a commit **DAG** with Git-style merge-base computation, including
//!   recursive virtual LCAs for criss-cross histories ([`dag`]),
//! * a **timestamp service** that is unique and happens-before consistent
//!   (the store property Ψ_ts): one Lamport tick per store
//!   ([`BranchStore::tick`], advanced by every operation and by
//!   [`BranchStore::observe_tick`]) paired with per-branch replica ids,
//! * **content addressing** of states by SHA-256, implemented from scratch
//!   ([`sha256`], [`object`]),
//! * **pluggable persistence backends** behind the [`Backend`] trait —
//!   the interning in-memory store and a crash-safe multi-segment
//!   on-disk engine with rotation, compaction, group commit
//!   ([`FlushPolicy`]) and reference-tracing GC ([`backend`],
//!   [`segment`]) — every state/commit the branch store creates is
//!   published under its content address,
//! * **merge memoization** keyed by `(lca, left, right)` content-address
//!   triples, which recursive virtual merges on criss-cross histories
//!   repeatedly re-derive ([`memo`]),
//! * the **replication surface** the `peepul-net` sync protocol is built
//!   on: commit-graph walks for want/have negotiation
//!   ([`BranchStore::commits_between`]), hash-verified pack ingest
//!   ([`BranchStore::ingest_pack`] — one hash + one decode per object,
//!   verified bytes stored as received), tracking/fast-forward refs
//!   ([`BranchStore::track`]) and the Lamport receive rule
//!   ([`BranchStore::observe_tick`]).
//!
//! # Example
//!
//! ```
//! use peepul_store::BranchStore;
//! use peepul_types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery, OrSetSpace};
//!
//! # fn main() -> Result<(), peepul_store::StoreError> {
//! let mut store: BranchStore<OrSetSpace<String>> = BranchStore::new("main");
//! store.branch_mut("main")?.apply(&OrSetOp::Add("milk".into()))?;
//! let phone = store.branch_mut("main")?.fork("phone")?;
//! // The phone removes milk while the laptop re-adds it…
//! store.branch_mut(&phone)?.apply(&OrSetOp::Remove("milk".into()))?;
//! store.branch_mut("main")?.apply(&OrSetOp::Add("milk".into()))?;
//! store.branch_mut("main")?.merge_from(&phone)?;
//! // …and the add wins. The lookup is a commit-free read on `&store`.
//! let v = store.read("main", &OrSetQuery::Lookup("milk".into()))?;
//! assert_eq!(v, OrSetOutput::Present(true));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod branch;
pub mod dag;
pub mod dot;
pub mod error;
pub mod memo;
pub mod metrics;
pub mod object;
pub mod segment;
pub mod sha256;

pub use backend::{Backend, BackendStats, MemoryBackend, StorageInfo, SweepStats};
pub use branch::{
    commit_record, parse_commit_record, parse_state_record, state_record_delta, state_record_full,
    BranchId, BranchMut, BranchRef, BranchStore, CommitMeta, IngestReport, PackState, StateRecord,
    TrackOutcome, DEFAULT_SNAPSHOT_INTERVAL,
};
pub use dag::{CommitGraph, CommitId};
pub use error::StoreError;
pub use memo::{MergeCacheStats, MergeMemo};
pub use metrics::StoreMetrics;
pub use object::{canonical_bytes, content_id, content_id_of_bytes, decode_canonical, ObjectId};
pub use segment::{CompactionFault, FlushPolicy, SegmentBackend, SegmentOptions};
