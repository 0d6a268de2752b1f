//! Service-layer observability: the [`ServerMetrics`] bundle the daemon
//! updates when its [`Obs`](peepul_obs::Obs) spine is enabled.
//!
//! Request latencies are per-request-type summaries
//! (`peepul_server_request_micros{kind="put"}`), resolved once at attach
//! time; per-tenant op counters and per-peer replication-lag gauges are
//! minted on demand from the shared registry because their label sets
//! (tenants, peers) are only known at runtime — the minted handles are
//! cached by the callers (the session caches its tenant counter at
//! `Hello`, the sync thread caches one gauge per configured peer).

use crate::service::ServiceRequest;
use peepul_obs::{
    escape_label_value, Counter, EventRing, Gauge, Histogram, Registry, Subsystem, TraceLevel,
};
use std::sync::Arc;

/// The service request kinds, in tag order — the `kind` label values of
/// `peepul_server_request_micros`.
pub const REQUEST_KINDS: [&str; 10] = [
    "hello",
    "get",
    "put",
    "query",
    "fork",
    "merge",
    "branches",
    "status",
    "metrics",
    "trace-dump",
];

/// The index of a request's kind in [`REQUEST_KINDS`].
pub fn request_kind(req: &ServiceRequest) -> usize {
    match req {
        ServiceRequest::Hello { .. } => 0,
        ServiceRequest::Get { .. } => 1,
        ServiceRequest::Put { .. } => 2,
        ServiceRequest::Query { .. } => 3,
        ServiceRequest::Fork { .. } => 4,
        ServiceRequest::Merge { .. } => 5,
        ServiceRequest::Branches => 6,
        ServiceRequest::Status => 7,
        ServiceRequest::Metrics => 8,
        ServiceRequest::TraceDump => 9,
    }
}

/// Metric handles for the daemon's service traffic and fleet syncing.
#[derive(Debug)]
pub struct ServerMetrics {
    /// `peepul_server_requests_total` — service frames answered.
    pub requests_total: Counter,
    /// `peepul_server_request_micros{kind="..."}` — per-request-type
    /// latency, parallel to [`REQUEST_KINDS`].
    request_micros: Vec<Histogram>,
    /// `peepul_net_sync_rounds_total` — anti-entropy rounds completed.
    pub sync_rounds_total: Counter,
    /// `peepul_net_sync_round_micros` — whole-round duration (all peers).
    pub sync_round_micros: Histogram,
    /// The registry per-tenant counters and per-peer gauges are minted
    /// from.
    registry: Arc<Registry>,
    /// The trace ring request/sync events are recorded into.
    pub ring: Arc<EventRing>,
}

impl ServerMetrics {
    /// Resolves every fixed handle from `registry`, recording trace
    /// events into `ring`; passed to [`Obs::attach`](peepul_obs::Obs::attach).
    pub fn register(registry: &Arc<Registry>, ring: Arc<EventRing>) -> Arc<ServerMetrics> {
        Arc::new(ServerMetrics {
            requests_total: registry.counter("peepul_server_requests_total"),
            request_micros: REQUEST_KINDS
                .iter()
                .map(|kind| {
                    registry.histogram(&format!("peepul_server_request_micros{{kind=\"{kind}\"}}"))
                })
                .collect(),
            sync_rounds_total: registry.counter("peepul_net_sync_rounds_total"),
            sync_round_micros: registry.histogram("peepul_net_sync_round_micros"),
            registry: Arc::clone(registry),
            ring,
        })
    }

    /// Records one answered request: `kind` indexes [`REQUEST_KINDS`].
    pub fn observe_request(&self, kind: usize, micros: u64) {
        self.requests_total.inc();
        self.request_micros[kind].observe(micros);
        self.ring.record(
            Subsystem::Server,
            TraceLevel::Debug,
            "request",
            REQUEST_KINDS[kind],
            micros,
        );
    }

    /// The op counter for one tenant
    /// (`peepul_server_tenant_ops_total{tenant="..."}`) — minted on first
    /// use, cached by the session.
    pub fn tenant_ops(&self, tenant: &str) -> Counter {
        self.registry.counter(&format!(
            "peepul_server_tenant_ops_total{{tenant=\"{}\"}}",
            escape_label_value(tenant)
        ))
    }

    /// The replication-lag gauge for one peer
    /// (`peepul_net_lag_ticks{peer="..."}`): how many Lamport ticks the
    /// newest event this node has observed from the peer trails its own
    /// clock.
    pub fn peer_lag(&self, peer: &str) -> Gauge {
        self.registry.gauge(&format!(
            "peepul_net_lag_ticks{{peer=\"{}\"}}",
            escape_label_value(peer)
        ))
    }

    /// Records a server trace event at [`TraceLevel::Info`].
    #[inline]
    pub(crate) fn trace(&self, kind: &'static str, label: &str, value: u64) {
        self.ring
            .record(Subsystem::Server, TraceLevel::Info, kind, label, value);
    }
}
