//! Golden test of the exported `peepul::prelude` surface — an offline
//! stand-in for `cargo-public-api` (the build container has no registry
//! access to install it).
//!
//! The `surface!` macro below does two jobs at once for every listed name:
//!
//! 1. **imports** it from `peepul::prelude`, so a renamed or removed
//!    export breaks this test at *compile* time;
//! 2. **stringifies** it into a list whose sortedness and size are
//!    asserted, so the golden stays reviewable and size changes are
//!    deliberate.
//!
//! Known limitation of the offline stand-in: removals and renames are
//! caught at compile time, but a *new* prelude export ships without
//! failing this test (detecting additions needs reflection over the
//! module, which `cargo-public-api` does and a test cannot) — keeping
//! additions in sync here is a review convention, aided by the pinned
//! count below. The deprecated string-addressed `BranchStore` shims of the
//! 0.2 release are gone (their one-release grace window closed with the
//! `peepul-net` release); the replication surface (`Replica`, `Remote`,
//! transports, `Wire`, `TrackOutcome`) is part of the golden instead. The codec unification added `CommitMeta` (the parsed
//! commit record, used by both the reopen path and fetch negotiation) and
//! removed the `Hash`-stream machinery from `peepul::store`
//! (`Sha256Hasher` is gone; `canonical_bytes`/`content_id` now take
//! `Wire`, the single canonical codec every `Mrdt` carries). The service
//! layer added `FrameServer`/`FrameService` — the shared accept-loop
//! machinery the `peepul-server` daemon is built on. The storage engine
//! added `FlushPolicy` (group commit: who decides when appends reach the
//! platter) and `SweepStats` (what reference-tracing GC found and freed).
//! Replication certification (Φ_ra) added `HistoryObserver` and
//! `ReplicationMutation` on the net side (witness recording and the
//! mutant kill-gate's fault switch) and `FleetConfig`, `HistoryRecorder`
//! and `WitnessHistory` on the verify side (the recorded fleet execution
//! and its replication-aware linearizability check). The
//! observability spine added `Obs`/`ObsConfig` (the shared handle and its
//! knobs), the per-subsystem attach points `StoreMetrics`/`NetMetrics`,
//! and `StorageInfo` (the backend's self-description behind the
//! `serve-status` disk fields). `AntiEntropy` left the golden when
//! `Replica::sync` became the one routine that brings two replicas
//! together: the daemon's peer round and `Cluster::converge` both run it.
//! The transaction handle left it when every update commit became one
//! `DO` with one timestamp; a batch is N `apply`s under
//! `FlushPolicy::Explicit` plus one `flush`. The `Φ_ra` checker's options
//! struct left it (61 → 60, a deliberate edit) when `check_ra_lin` came
//! to take the type's `MergePolicy`: its two switches were only ever both
//! on (`General`) or both off (`PaperEnvelope`).

macro_rules! surface {
    ($($name:ident),* $(,)?) => {
        #[allow(unused_imports)]
        use peepul::prelude::{$($name),*};

        fn surface_names() -> Vec<&'static str> {
            vec![$(stringify!($name)),*]
        }
    };
}

// The golden list: every name `peepul::prelude` exports, sorted.
surface![
    AbstractOf,
    AbstractState,
    Backend,
    BoundedChecker,
    BoundedConfig,
    BranchId,
    BranchMut,
    BranchRef,
    BranchStore,
    Certified,
    ChannelTransport,
    Chat,
    Cluster,
    CommitMeta,
    Counter,
    EwFlag,
    EwFlagSpace,
    FaultInjector,
    FleetConfig,
    FlushPolicy,
    FrameServer,
    FrameService,
    GMap,
    GSet,
    HistoryObserver,
    HistoryRecorder,
    LwwRegister,
    MemoryBackend,
    MergeableLog,
    Mrdt,
    MrdtMap,
    NetError,
    NetMetrics,
    Obs,
    ObsConfig,
    OrSet,
    OrSetSpace,
    OrSetSpacetime,
    PnCounter,
    Queue,
    Remote,
    Replica,
    ReplicaId,
    ReplicationMutation,
    Runner,
    SegmentBackend,
    SegmentOptions,
    SimulationRelation,
    Specification,
    StorageInfo,
    StoreError,
    StoreMetrics,
    SweepStats,
    TcpServer,
    TcpTransport,
    Timestamp,
    TrackOutcome,
    Transport,
    Wire,
    WitnessHistory,
];

#[test]
fn prelude_surface_matches_golden() {
    let golden = surface_names();
    let mut sorted = golden.clone();
    sorted.sort_unstable();
    assert_eq!(
        golden, sorted,
        "keep the golden list sorted so diffs stay reviewable"
    );
    assert_eq!(
        golden.len(),
        60,
        "prelude surface changed size — update the golden list *and* the \
         expected count deliberately"
    );
}

/// Key signatures of the redesigned API, pinned structurally: if a
/// signature drifts (e.g. `read` starts needing `&mut`, or `lca_state`
/// regresses to `&mut self`), this stops compiling.
#[test]
fn pinned_signatures_still_hold() {
    use peepul::prelude::*;
    use peepul::types::counter::{Counter, CounterOp, CounterQuery};

    // read and lca_state take &self.
    let _read: fn(&BranchStore<Counter>, &str, &CounterQuery) -> Result<u64, StoreError> =
        |s, b, q| s.read(b, q);
    fn _lca(
        s: &BranchStore<Counter>,
        a: &str,
        b: &str,
    ) -> Result<std::sync::Arc<Counter>, StoreError> {
        s.lca_state(a, b)
    }
    // branch (read handle) takes &self; branch_mut takes &mut self.
    fn _branch<'s>(
        s: &'s BranchStore<Counter>,
        b: &str,
    ) -> Result<BranchRef<'s, Counter, MemoryBackend>, StoreError> {
        s.branch(b)
    }
    fn _branch_mut<'s>(
        s: &'s mut BranchStore<Counter>,
        b: &str,
    ) -> Result<BranchMut<'s, Counter, MemoryBackend>, StoreError> {
        s.branch_mut(b)
    }
    // BranchId construction is fallible (validation) and cheap to clone.
    let id: BranchId = BranchId::new("main").unwrap();
    let _ = id.clone();
    // The typed reopen path: a cold backend comes back as a typed store.
    fn _open(b: MemoryBackend) -> Result<BranchStore<Counter>, StoreError> {
        BranchStore::open(b)
    }
    fn _open_based(b: MemoryBackend) -> Result<BranchStore<Counter>, StoreError> {
        BranchStore::open_with_base(b, 7)
    }
    // A replica's DO, CREATEBRANCH, MERGE, flush and witnessed read all
    // take &self: one handle, shared by every clone, is the only writer.
    type R = Replica<Counter, MemoryBackend>;
    let _apply: fn(&R, &str, &CounterOp) -> Result<(), StoreError> = |r, b, op| r.apply(b, op);
    let _fork: fn(&R, &str, &str) -> Result<(), StoreError> = |r, from, to| r.fork(from, to);
    let _merge: fn(&R, &str, &str) -> Result<(), StoreError> = |r, into, from| r.merge(into, from);
    let _flush: fn(&R) -> Result<(), StoreError> = |r| r.flush();
    let _replica_read: fn(&R, &str, &CounterQuery) -> Result<u64, StoreError> =
        |r, b, q| r.read(b, q);
}
