//! Observability spine for the peepul workspace: metrics + tracing with
//! zero dependencies.
//!
//! Two facilities, bundled behind one cheap handle ([`Obs`]):
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s, callback gauges
//!   and log2-bucket latency [`Histogram`]s, rendered on demand as a
//!   Prometheus-style text exposition ([`Registry::render`], parsed back
//!   by [`parse_exposition`]);
//! * an [`EventRing`] — a bounded window of structured trace events
//!   (subsystem, kind, label, value, timestamp) at or above one
//!   [`TraceLevel`], dumpable as JSONL ([`EventRing::dump_jsonl`]).
//!
//! # Design constraints
//!
//! Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! `Arc`-shared slots resolved **once**, by [`Obs::attach`], and then
//! updated with atomic operations only — the registry's interior lock is
//! touched only at registration and exposition, never per operation. The
//! event ring takes one uncontended mutex per recorded event. The
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
//! them back out. A label value minted at runtime goes through
//! [`escape_label_value`] first.

#![forbid(unsafe_code)]

mod expo;
mod registry;
mod ring;

pub use expo::{escape_label_value, parse_exposition, Sample};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use ring::{EventRing, Subsystem, TraceEvent, TraceLevel};

use std::sync::Arc;

/// Configuration for an [`Obs`] spine: whether instrumentation is live,
/// how many trace events the ring retains, and the ring's trace level.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Master switch. When `false`, [`Obs::attach`] attaches no metric
    /// handles at all, so hot paths pay literally nothing — the contract
    /// `tests/obs_overhead.rs` measures against.
    pub enabled: bool,
    /// Event-ring capacity in events; `0` disables tracing entirely.
    pub ring_capacity: usize,
    /// The ring's trace level, shared by every [`Subsystem`].
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
    /// ring at [`TraceLevel::Off`]. `tests/obs_overhead.rs` gates the
    /// instrumented build against exactly this baseline.
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
/// [`Obs::disabled`] for an inert spine that attaches nothing.
#[derive(Clone)]
pub struct Obs {
    registry: Arc<Registry>,
    ring: Arc<EventRing>,
    enabled: bool,
}

impl Obs {
    /// Builds a spine from `config`.
    pub fn new(config: ObsConfig) -> Self {
        Obs {
            registry: Arc::new(Registry::new()),
            ring: Arc::new(EventRing::new(config.ring_capacity, config.level)),
            enabled: config.enabled,
        }
    }

    /// The inert spine: [`ObsConfig::disabled`] applied.
    pub fn disabled() -> Self {
        Obs::new(ObsConfig::disabled())
    }

    /// Whether instrumentation is attached at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches one subsystem's metric bundle: `register` resolves every
    /// handle from the shared registry once and keeps the ring its trace
    /// events go to. `None` when the spine is disabled, so an
    /// instrumented hot path then pays one `Option` check.
    pub fn attach<T>(
        &self,
        register: impl FnOnce(&Arc<Registry>, Arc<EventRing>) -> T,
    ) -> Option<T> {
        self.enabled
            .then(|| register(&self.registry, Arc::clone(&self.ring)))
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
        assert!(obs.attach(|_, _| ()).is_none());
        assert_eq!(obs.ring().capacity(), 0);
        obs.ring()
            .record(Subsystem::Store, TraceLevel::Info, "commit", "main", 1);
        assert_eq!(obs.ring().recorded(), 0);
    }

    #[test]
    fn default_spine_records() {
        let obs = Obs::default();
        assert!(obs.enabled());
        let c = obs
            .attach(|registry, _| registry.counter("peepul_test_total"))
            .unwrap();
        c.inc();
        obs.ring()
            .record(Subsystem::Net, TraceLevel::Info, "fetch", "peer-a", 7);
        assert_eq!(obs.ring().recorded(), 1);
        let text = obs.registry().render();
        assert!(text.contains("peepul_test_total 1"));
    }
}
