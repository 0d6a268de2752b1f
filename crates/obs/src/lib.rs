//! Observability spine for the peepul workspace: metrics + tracing with
//! zero dependencies and no locks on the hot path.
//!
//! Two facilities, bundled behind one cheap handle ([`Obs`]):
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s, callback gauges
//!   and log2-bucket latency [`Histogram`]s, rendered on demand as a
//!   Prometheus-style text exposition ([`Registry::render`], parsed back
//!   by [`parse_exposition`]);
//! * an [`EventRing`] — a lock-free bounded ring of structured trace
//!   events (subsystem, kind, label, value, timestamp) with a per-
//!   [`Subsystem`] [`TraceLevel`], dumpable as JSONL
//!   ([`EventRing::dump_jsonl`]).
//!
//! # Design constraints
//!
//! The handles are designed so that instrumented hot paths pay only
//! atomic increments: metric handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are `Arc`-shared slots resolved **once** at attach
//! time — the registry's interior lock is touched only at registration
//! and exposition, never per operation. The event ring is a per-slot
//! seqlock built entirely from atomics (this crate contains no `unsafe`),
//! so producers never block each other or the snapshot reader. The
//! workspace-wide overhead budget — enforced by `tests/obs_overhead.rs`
//! in CI — is a **< 5 %** commit-throughput delta between a fully
//! instrumented store and [`ObsConfig::disabled`].
//!
//! # Metric naming scheme
//!
//! `peepul_<subsystem>_<what>[_<unit>][{label="v"}]`, e.g.
//! `peepul_store_commit_micros`, `peepul_net_lag_ticks{peer="b"}`,
//! `peepul_server_requests_total{kind="put"}`. Counters end in `_total`;
//! durations are histograms in microseconds ending in `_micros`; gauges
//! carry a bare unit. Labels are baked into the registry name — the
//! registry itself is label-agnostic, and [`parse_exposition`] splits
//! them back out.

#![forbid(unsafe_code)]

mod expo;
mod registry;
mod ring;

pub use expo::{parse_exposition, Sample};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use ring::{EventRing, Subsystem, TraceEvent, TraceLevel};

use std::sync::Arc;

/// Configuration for an [`Obs`] spine: whether instrumentation is live,
/// how many trace events the ring retains, and the initial per-subsystem
/// trace levels.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Master switch. When `false`, consumers should not attach metric
    /// handles at all ([`Obs::enabled`] reports this), so hot paths pay
    /// literally nothing — the contract `tests/obs_overhead.rs` measures
    /// against.
    pub enabled: bool,
    /// Event-ring capacity in slots; `0` disables tracing entirely.
    pub ring_capacity: usize,
    /// Initial trace level for every [`Subsystem`].
    pub level: TraceLevel,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            ring_capacity: 4096,
            level: TraceLevel::Info,
        }
    }
}

impl ObsConfig {
    /// The all-off configuration: no metrics attached, a zero-capacity
    /// ring, every subsystem at [`TraceLevel::Off`]. `tests/obs_overhead.rs`
    /// gates the instrumented build against exactly this baseline.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 0,
            level: TraceLevel::Off,
        }
    }
}

/// The bundled observability handle a process threads through its
/// subsystems: one shared [`Registry`] and one shared [`EventRing`].
///
/// Cloning is cheap (two `Arc` bumps); every subsystem holds its own
/// clone. Construct one per process with [`Obs::new`], or
/// [`Obs::disabled`] for an inert spine that consumers skip attaching.
#[derive(Clone)]
pub struct Obs {
    registry: Arc<Registry>,
    ring: Arc<EventRing>,
    enabled: bool,
}

impl Obs {
    /// Builds a spine from `config`.
    pub fn new(config: ObsConfig) -> Self {
        let ring = EventRing::new(config.ring_capacity);
        for sub in Subsystem::ALL {
            ring.set_level(sub, config.level);
        }
        Obs {
            registry: Arc::new(Registry::new()),
            ring: Arc::new(ring),
            enabled: config.enabled,
        }
    }

    /// The inert spine: [`ObsConfig::disabled`] applied.
    pub fn disabled() -> Self {
        Obs::new(ObsConfig::disabled())
    }

    /// Whether instrumentation should be attached at all. Consumers
    /// check this once at construction and skip attaching their metric
    /// structs when `false`.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared trace-event ring.
    pub fn ring(&self) -> &Arc<EventRing> {
        &self.ring
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::default())
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled)
            .field("metrics", &self.registry.len())
            .field("ring_capacity", &self.ring.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spine_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        assert_eq!(obs.ring().capacity(), 0);
        obs.ring()
            .record(Subsystem::Store, TraceLevel::Info, "commit", "main", 1);
        assert_eq!(obs.ring().recorded(), 0);
    }

    #[test]
    fn default_spine_records() {
        let obs = Obs::default();
        assert!(obs.enabled());
        let c = obs.registry().counter("peepul_test_total");
        c.inc();
        obs.ring()
            .record(Subsystem::Net, TraceLevel::Info, "fetch", "peer-a", 7);
        assert_eq!(obs.ring().recorded(), 1);
        let text = obs.registry().render();
        assert!(text.contains("peepul_test_total 1"));
    }
}
