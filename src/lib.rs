//! **Peepul** — certified mergeable replicated data types in Rust.
//!
//! A production-grade reproduction of *“Certified Mergeable Replicated
//! Data Types”* (PLDI 2022): efficient purely functional data structures
//! promoted to replicated data types by a three-way merge, running on a
//! Git-like branch-and-merge store, with an executable certification
//! harness that checks the paper's proof obligations on every explored
//! execution.
//!
//! # Workspace map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | the formal model: [`core::Mrdt`], abstract executions, specifications, simulation relations, proof obligations |
//! | [`types`] | the certified data types: counters, flags, registers, sets, logs, maps, three OR-sets, the replicated queue, the chat app |
//! | [`store`] | the Git-like store: branches, commit DAG, recursive LCAs, Lamport timestamps, SHA-256 content addressing, pluggable backends (in-memory + on-disk segment), merge memoization, the formal LTS |
//! | [`net`] | true multi-store replication: the `Transport` abstraction (in-process channels + TCP), Git-style fetch/push negotiation with hash-verified ingest, one pull-then-push `sync` routine, replicated clusters with fault injection |
//! | [`verify`] | the certification harness: bounded-exhaustive + randomized obligation checking |
//! | [`obs`] | the observability spine: atomic metrics registry, fixed-bucket latency histograms, Prometheus-style exposition, bounded trace ring |
//! | [`quark`] | the evaluation baseline: relational-reification merges à la Quark (OOPSLA 2019) |
//!
//! # Quickstart
//!
//! The public API separates **updates** (state-transforming operations,
//! addressed through typed branch handles, batchable into transactions)
//! from **queries** (pure observations, served commit-free from `&store`):
//!
//! ```
//! use peepul::store::BranchStore;
//! use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery, OrSetSpace};
//!
//! # fn main() -> Result<(), peepul::store::StoreError> {
//! // A replicated shopping list with add-wins conflict resolution.
//! let mut db: BranchStore<OrSetSpace<String>> = BranchStore::new("laptop");
//! db.branch_mut("laptop")?.apply(&OrSetOp::Add("milk".into()))?;
//!
//! // `fork` returns a validated BranchId — typos fail here, not mid-merge.
//! let phone = db.branch_mut("laptop")?.fork("phone")?;
//!
//! // Concurrently: the phone checks milk off; the laptop batches a
//! // shopping trip into ONE commit with a transaction.
//! db.branch_mut(&phone)?.apply(&OrSetOp::Remove("milk".into()))?;
//! db.branch_mut("laptop")?.transaction(|tx| {
//!     tx.apply(&OrSetOp::Add("milk".into()));
//!     tx.apply(&OrSetOp::Add("eggs".into()));
//! })?;
//!
//! db.branch_mut("laptop")?.merge_from(&phone)?;
//!
//! // Reads are commit-free: `&db`, no commit minted, no backend write.
//! let v = db.read("laptop", &OrSetQuery::Lookup("milk".into()))?;
//! assert_eq!(v, OrSetOutput::Present(true)); // add wins
//! # Ok(())
//! # }
//! ```
//!
//! # Certification
//!
//! Every data type carries its declarative specification `F_τ` and
//! replication-aware simulation relation `R_sim`; the harness checks the
//! Table 2 obligations (`Φ_do`, `Φ_merge`, `Φ_spec`, `Φ_con`) on
//! bounded-exhaustive and randomized store executions:
//!
//! ```
//! use peepul::types::pn_counter::{PnCounter, PnCounterOp, PnCounterQuery};
//! use peepul::verify::{BoundedChecker, BoundedConfig};
//!
//! let stats = BoundedChecker::<PnCounter>::new(BoundedConfig {
//!     max_steps: 3,
//!     max_branches: 2,
//!     alphabet: vec![PnCounterOp::Increment, PnCounterOp::Decrement],
//!     queries: vec![PnCounterQuery::Value],
//! })
//! .run()
//! .expect("every execution satisfies every obligation");
//! assert!(stats.obligations.total() > 0);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for the reproduction of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use peepul_core as core;
pub use peepul_net as net;
pub use peepul_obs as obs;
pub use peepul_quark as quark;
pub use peepul_store as store;
pub use peepul_types as types;
pub use peepul_verify as verify;

/// The most commonly used items, for glob import.
///
/// The exported name set is pinned by the `tests/api_surface.rs` golden
/// test — changing it is an API decision, not an accident.
///
/// ```
/// use peepul::prelude::*;
///
/// let mut db: BranchStore<Counter> = BranchStore::new("main");
/// db.branch_mut("main")
///     .unwrap()
///     .apply(&peepul::types::counter::CounterOp::Increment)
///     .unwrap();
/// ```
pub mod prelude {
    pub use peepul_core::{
        AbstractOf, AbstractState, Certified, Mrdt, ReplicaId, SimulationRelation, Specification,
        Timestamp, Wire,
    };
    pub use peepul_net::{
        ChannelTransport, Cluster, FaultInjector, FrameServer, FrameService, HistoryObserver,
        NetError, NetMetrics, Remote, Replica, ReplicationMutation, TcpServer, TcpTransport,
        Transport,
    };
    pub use peepul_obs::{Obs, ObsConfig};
    pub use peepul_store::{
        Backend, BranchId, BranchMut, BranchRef, BranchStore, CommitMeta, FlushPolicy,
        MemoryBackend, SegmentBackend, SegmentOptions, StorageInfo, StoreError, StoreMetrics,
        SweepStats, TrackOutcome, Transaction,
    };
    pub use peepul_types::{
        Chat, Counter, EwFlag, EwFlagSpace, GMap, GSet, LwwRegister, MergeableLog, MrdtMap, OrSet,
        OrSetSpace, OrSetSpacetime, PnCounter, Queue,
    };
    pub use peepul_verify::{
        BoundedChecker, BoundedConfig, FleetConfig, HistoryRecorder, RaLinOptions, Runner,
        WitnessHistory,
    };
}
