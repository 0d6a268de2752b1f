//! Replication-layer observability: the [`NetMetrics`] bundle a
//! [`Replica`](crate::Replica) updates when one is attached (via
//! [`Replica::set_metrics`](crate::Replica::set_metrics)).
//!
//! Handles are resolved from the shared `peepul-obs` registry once at
//! attach time, exactly like the store's `StoreMetrics`: the replication
//! paths then pay one `Option` check plus relaxed atomic updates per
//! fetch/push. Anti-entropy round duration and per-peer replication lag
//! are *fleet* facts, measured where the fleet loop runs (the server's
//! sync thread), not here.

use peepul_obs::{Counter, EventRing, Histogram, Registry, Subsystem, TraceLevel};
use std::sync::Arc;

/// Metric handles for one replica's replication traffic.
///
/// All durations are microseconds. Field docs name the exposition
/// metric each handle feeds. "in" counts objects/bytes this replica
/// ingested from peers (fetches and served pushes); "out" counts what it
/// uploaded.
#[derive(Debug)]
pub struct NetMetrics {
    /// `peepul_net_fetches_total` — fetches completed.
    pub fetches_total: Counter,
    /// `peepul_net_fetch_micros` — whole-fetch latency (all phases).
    pub fetch_micros: Histogram,
    /// `peepul_net_pushes_total` — pushes completed (accepted by peer).
    pub pushes_total: Counter,
    /// `peepul_net_push_micros` — whole-push latency.
    pub push_micros: Histogram,
    /// `peepul_net_serve_pushes_total` — peer pushes this replica accepted.
    pub serve_pushes_total: Counter,
    /// `peepul_net_push_denied_total` — peer pushes refused (divergence).
    pub push_denied_total: Counter,
    /// `peepul_net_round_trips_total` — transport request/response pairs.
    pub round_trips_total: Counter,
    /// `peepul_net_pack_objects_in_total` — pack objects received.
    pub pack_objects_in_total: Counter,
    /// `peepul_net_pack_bytes_in_total` — pack payload bytes received.
    pub pack_bytes_in_total: Counter,
    /// `peepul_net_pack_objects_out_total` — pack objects uploaded.
    pub pack_objects_out_total: Counter,
    /// `peepul_net_pack_bytes_out_total` — pack payload bytes uploaded.
    pub pack_bytes_out_total: Counter,
    /// `peepul_net_delta_states_in_total` — state objects received in
    /// delta form (the delta-sync hit count; fulls received through the
    /// delta path are the misses).
    pub delta_states_in_total: Counter,
    /// `peepul_net_delta_states_out_total` — state objects sent in
    /// delta form (served to fetches and pushed).
    pub delta_states_out_total: Counter,
    /// `peepul_net_delta_bytes_saved_total` — wire bytes *not*
    /// transferred because a delta replaced the full encoding (resolved
    /// size minus delta size, counted at the receiver where the
    /// resolution happens).
    pub delta_bytes_saved_total: Counter,
    /// The trace ring fetch/push events are recorded into.
    pub ring: Arc<EventRing>,
}

impl NetMetrics {
    /// Resolves every handle from `registry`, recording trace events
    /// into `ring`; passed to [`Obs::attach`](peepul_obs::Obs::attach).
    pub fn register(registry: &Arc<Registry>, ring: Arc<EventRing>) -> Arc<NetMetrics> {
        Arc::new(NetMetrics {
            fetches_total: registry.counter("peepul_net_fetches_total"),
            fetch_micros: registry.histogram("peepul_net_fetch_micros"),
            pushes_total: registry.counter("peepul_net_pushes_total"),
            push_micros: registry.histogram("peepul_net_push_micros"),
            serve_pushes_total: registry.counter("peepul_net_serve_pushes_total"),
            push_denied_total: registry.counter("peepul_net_push_denied_total"),
            round_trips_total: registry.counter("peepul_net_round_trips_total"),
            pack_objects_in_total: registry.counter("peepul_net_pack_objects_in_total"),
            pack_bytes_in_total: registry.counter("peepul_net_pack_bytes_in_total"),
            pack_objects_out_total: registry.counter("peepul_net_pack_objects_out_total"),
            pack_bytes_out_total: registry.counter("peepul_net_pack_bytes_out_total"),
            delta_states_in_total: registry.counter("peepul_net_delta_states_in_total"),
            delta_states_out_total: registry.counter("peepul_net_delta_states_out_total"),
            delta_bytes_saved_total: registry.counter("peepul_net_delta_bytes_saved_total"),
            ring,
        })
    }

    /// Records a net trace event at [`TraceLevel::Info`].
    #[inline]
    pub(crate) fn trace(&self, kind: &'static str, label: &str, value: u64) {
        self.ring
            .record(Subsystem::Net, TraceLevel::Info, kind, label, value);
    }
}
