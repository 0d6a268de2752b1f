//! Storage-engine observability: the [`StoreMetrics`] bundle a
//! [`BranchStore`](crate::BranchStore) updates when one is attached.
//!
//! Handles are resolved from the shared `peepul-obs` registry once, at
//! [`Obs::attach`](peepul_obs::Obs::attach) time; the hot paths then pay one `Option`
//! branch plus a few relaxed atomic operations per instrumented
//! operation — the cost `tests/obs_overhead.rs` gates below 5 %. Facts
//! that already live elsewhere (merge-memo counters, the backend's
//! [`StorageInfo`](crate::StorageInfo)) are *pulled* into gauges by
//! [`BranchStore::publish_gauges`](crate::BranchStore::publish_gauges)
//! at exposition time instead of being pushed on every operation.

use peepul_obs::{Counter, EventRing, Gauge, Histogram, Registry, Subsystem, TraceLevel};
use std::sync::Arc;

/// Metric handles for one store, resolved from a registry.
///
/// All durations are microseconds. Field docs name the exposition
/// metric each handle feeds.
#[derive(Debug)]
pub struct StoreMetrics {
    /// `peepul_store_commits_total` — operation commits (`apply`).
    pub commits_total: Counter,
    /// `peepul_store_commit_micros` — `apply` latency.
    pub commit_micros: Histogram,
    /// `peepul_store_merges_total` — merge commits landed.
    pub merges_total: Counter,
    /// `peepul_store_merge_micros` — merge latency (LCA + 3-way + commit).
    pub merge_micros: Histogram,
    /// `peepul_store_txn_micros` — whole-transaction commit latency.
    pub txn_micros: Histogram,
    /// `peepul_store_reads_total` — commit-free queries answered.
    pub reads_total: Counter,
    /// `peepul_store_read_micros` — query latency.
    pub read_micros: Histogram,
    /// `peepul_store_ingest_packs_total` — packs ingested.
    pub ingest_packs_total: Counter,
    /// `peepul_store_ingest_commits_total` — fresh commits landed by ingest.
    pub ingest_commits_total: Counter,
    /// `peepul_store_ingest_states_total` — state objects packs carried.
    pub ingest_states_total: Counter,
    /// `peepul_store_gc_sweeps_total` — garbage collections run.
    pub gc_sweeps_total: Counter,
    /// `peepul_store_gc_dead_objects_total` — objects reclaimed by GC.
    pub gc_dead_objects_total: Counter,
    /// `peepul_store_gc_dead_bytes_total` — bytes reclaimed by GC.
    pub gc_dead_bytes_total: Counter,
    /// `peepul_store_gc_micros` — GC latency.
    pub gc_micros: Histogram,
    /// `peepul_store_compactions_total` — storage compactions run.
    pub compactions_total: Counter,
    /// `peepul_store_compact_bytes_total` — disk bytes released by
    /// compaction (pre-size minus post-size, when it shrank).
    pub compact_bytes_total: Counter,
    /// `peepul_store_commit_count` — commits in the DAG (gauge,
    /// published).
    pub commit_count: Gauge,
    /// `peepul_store_branches` — branches in the table (gauge, published).
    pub branches: Gauge,
    /// `peepul_store_objects` — objects in the backend (gauge, published).
    pub objects: Gauge,
    /// `peepul_store_memo_hits` / `peepul_store_memo_misses` — merge-memo
    /// counters (gauges, published from
    /// [`MergeCacheStats`](crate::MergeCacheStats)).
    pub memo_hits: Gauge,
    /// See [`StoreMetrics::memo_hits`].
    pub memo_misses: Gauge,
    /// `peepul_store_memo_hit_permille` — cache hit rate × 1000 (gauge,
    /// published; the registry is integer-valued).
    pub memo_hit_permille: Gauge,
    /// `peepul_store_fsyncs_total` — backend fsyncs (gauge, published
    /// from [`StorageInfo`](crate::StorageInfo); monotone but sourced
    /// externally).
    pub fsyncs: Gauge,
    /// `peepul_store_fsync_coalesce_permille` — fsyncs per 1000 commit
    /// boundaries (gauge, published): 1000 means one fsync per commit,
    /// lower means group commit is coalescing.
    pub fsync_coalesce_permille: Gauge,
    /// `peepul_store_disk_bytes` — bytes on disk (gauge, published).
    pub disk_bytes: Gauge,
    /// `peepul_store_segments` — storage files (gauge, published).
    pub segments: Gauge,
    /// `peepul_store_delta_states_total` — states persisted in delta
    /// form (the delta hit count; see
    /// [`StoreMetrics::full_states_total`] for the misses).
    pub delta_states_total: Counter,
    /// `peepul_store_full_states_total` — states persisted as full
    /// snapshots (interval boundaries, merge bases with no smaller
    /// delta, ingests without a held base).
    pub full_states_total: Counter,
    /// `peepul_store_delta_bytes_total` — bytes of delta records
    /// written.
    pub delta_bytes_total: Counter,
    /// `peepul_store_delta_saved_bytes_total` — bytes *not* written
    /// because a delta record replaced a full record.
    pub delta_saved_bytes_total: Counter,
    /// `peepul_store_delta_resolves_total` — reads that resolved a
    /// delta chain (≥ 1 link) to serve full canonical bytes.
    pub delta_resolves_total: Counter,
    /// `peepul_store_delta_chain_len` — chain length (links to the
    /// snapshot) of each delta record at write time.
    pub delta_chain_len: Histogram,
    /// `peepul_store_delta_states` — delta-stored states currently live
    /// (gauge, published; the GC retention index size).
    pub delta_states: Gauge,
    /// `peepul_store_resident_states` — typed states held in memory:
    /// the pinned branch heads and the state cache (gauge, published).
    pub resident_states: Gauge,
    /// `peepul_store_state_cache_hits` — typed reads of a non-head state
    /// the state cache answered (gauge, published).
    pub state_cache_hits: Gauge,
    /// `peepul_store_state_cache_misses` — typed reads of a non-head
    /// state the cache could not answer, each resolved from the backend
    /// (gauge, published): the count behind a slow merge.
    pub state_cache_misses: Gauge,
    /// The trace ring commit/merge/GC events are recorded into.
    pub ring: Arc<EventRing>,
}

impl StoreMetrics {
    /// Resolves every handle from `registry`, recording trace events
    /// into `ring`; passed to [`Obs::attach`](peepul_obs::Obs::attach).
    pub fn register(registry: &Arc<Registry>, ring: Arc<EventRing>) -> Arc<StoreMetrics> {
        Arc::new(StoreMetrics {
            commits_total: registry.counter("peepul_store_commits_total"),
            commit_micros: registry.histogram("peepul_store_commit_micros"),
            merges_total: registry.counter("peepul_store_merges_total"),
            merge_micros: registry.histogram("peepul_store_merge_micros"),
            txn_micros: registry.histogram("peepul_store_txn_micros"),
            reads_total: registry.counter("peepul_store_reads_total"),
            read_micros: registry.histogram("peepul_store_read_micros"),
            ingest_packs_total: registry.counter("peepul_store_ingest_packs_total"),
            ingest_commits_total: registry.counter("peepul_store_ingest_commits_total"),
            ingest_states_total: registry.counter("peepul_store_ingest_states_total"),
            gc_sweeps_total: registry.counter("peepul_store_gc_sweeps_total"),
            gc_dead_objects_total: registry.counter("peepul_store_gc_dead_objects_total"),
            gc_dead_bytes_total: registry.counter("peepul_store_gc_dead_bytes_total"),
            gc_micros: registry.histogram("peepul_store_gc_micros"),
            compactions_total: registry.counter("peepul_store_compactions_total"),
            compact_bytes_total: registry.counter("peepul_store_compact_bytes_total"),
            commit_count: registry.gauge("peepul_store_commit_count"),
            branches: registry.gauge("peepul_store_branches"),
            objects: registry.gauge("peepul_store_objects"),
            memo_hits: registry.gauge("peepul_store_memo_hits"),
            memo_misses: registry.gauge("peepul_store_memo_misses"),
            memo_hit_permille: registry.gauge("peepul_store_memo_hit_permille"),
            fsyncs: registry.gauge("peepul_store_fsyncs_total"),
            fsync_coalesce_permille: registry.gauge("peepul_store_fsync_coalesce_permille"),
            disk_bytes: registry.gauge("peepul_store_disk_bytes"),
            segments: registry.gauge("peepul_store_segments"),
            delta_states_total: registry.counter("peepul_store_delta_states_total"),
            full_states_total: registry.counter("peepul_store_full_states_total"),
            delta_bytes_total: registry.counter("peepul_store_delta_bytes_total"),
            delta_saved_bytes_total: registry.counter("peepul_store_delta_saved_bytes_total"),
            delta_resolves_total: registry.counter("peepul_store_delta_resolves_total"),
            delta_chain_len: registry.histogram("peepul_store_delta_chain_len"),
            delta_states: registry.gauge("peepul_store_delta_states"),
            resident_states: registry.gauge("peepul_store_resident_states"),
            state_cache_hits: registry.gauge("peepul_store_state_cache_hits"),
            state_cache_misses: registry.gauge("peepul_store_state_cache_misses"),
            ring,
        })
    }

    /// Records a store trace event at [`TraceLevel::Info`].
    #[inline]
    pub(crate) fn trace(&self, kind: &'static str, label: &str, value: u64) {
        self.ring
            .record(Subsystem::Store, TraceLevel::Info, kind, label, value);
    }
}
