//! The metrics registry: named counters, gauges, callback gauges and
//! log2-bucket histograms, rendered as a Prometheus-style exposition.
//!
//! Handles returned by the registry ([`Counter`], [`Gauge`],
//! [`Histogram`]) are `Arc`-shared slots: consumers resolve them once at
//! attach time and then update them with plain atomic operations — the
//! registry's interior lock is only taken at registration and at
//! [`Registry::render`] time, never on a hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// A monotonically increasing `u64` metric.
///
/// Cloning shares the underlying slot; a default-constructed counter is
/// a free-standing slot not attached to any registry (useful as an inert
/// placeholder).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed instantaneous value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` (for `i >= 1`) holds observations
/// in `[2^(i-1), 2^i - 1]`; bucket 0 holds exactly `0`. 64 value buckets
/// plus the zero bucket cover the full `u64` range.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket latency histogram with log2 buckets.
///
/// Observations are whole numbers (the workspace convention is
/// microseconds for durations). Quantiles are answered from the bucket
/// counts: [`Histogram::quantile`] returns the **upper bound** of the
/// bucket containing the requested rank, so the estimate is conservative
/// (never below the true percentile) and at most one power of two above
/// it.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// The bucket index for an observed value: 0 for 0, otherwise
/// `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records the microseconds elapsed since `start`.
    #[inline]
    pub fn observe_since(&self, start: Instant) {
        self.observe(start.elapsed().as_micros() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the upper bound
    /// of the first bucket whose cumulative count reaches rank
    /// `ceil(q * count)`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank is 1-based: q=0 still needs the first observation's bucket.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// A registered metric slot.
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    GaugeFn(Arc<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) | Entry::GaugeFn(_) => "gauge",
            Entry::Histogram(_) => "summary",
        }
    }
}

/// A process-wide table of named metrics.
///
/// Names follow the workspace scheme described in the [crate docs]
/// (crate): `peepul_<subsystem>_<what>[_<unit>]`, with any labels baked
/// into the name (`peepul_net_lag_ticks{peer="b"}`). Registration is
/// get-or-create: asking twice for the same name returns handles to the
/// same slot, so independent subsystems can share a metric without
/// coordination.
///
/// # Panics
///
/// Registering a name that already exists **as a different kind**
/// (e.g. asking for a counter where a gauge lives) panics: that is a
/// naming-scheme bug, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    // The table under its lock, recovered if a panicking holder (say, a
    // kind-mismatch panic mid-registration) poisoned it (DESIGN §10).
    fn entries(&self) -> RwLockReadGuard<'_, BTreeMap<String, Entry>> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn entries_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Entry>> {
        self.entries.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        extract: impl Fn(&Entry) -> Option<T>,
        make: impl FnOnce() -> (T, Entry),
    ) -> T {
        let check = |e: &Entry| -> T {
            match extract(e) {
                Some(t) => t,
                None => panic!("metric {name:?} already registered as a {}", e.kind()),
            }
        };
        if let Some(e) = self.entries().get(name) {
            return check(e);
        }
        let mut entries = self.entries_mut();
        if let Some(e) = entries.get(name) {
            return check(e);
        }
        let (handle, entry) = make();
        entries.insert(name.to_string(), entry);
        handle
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            |e| match e {
                Entry::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::default();
                (c.clone(), Entry::Counter(c))
            },
        )
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            |e| match e {
                Entry::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::default();
                (g.clone(), Entry::Gauge(g))
            },
        )
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            |e| match e {
                Entry::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::default();
                (h.clone(), Entry::Histogram(h))
            },
        )
    }

    /// Registers (or replaces) a **callback gauge**: `f` is evaluated at
    /// every [`Registry::render`]. This is the bridge for values that
    /// already live elsewhere — connection stats, uptime, derived ratios
    /// — so they appear in the same exposition without a second
    /// side-channel.
    ///
    /// Unlike the slot-based kinds, re-registering a callback gauge
    /// replaces the previous callback (the newest closure owns the
    /// freshest captures); registering over a slot-based kind panics.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        let mut entries = self.entries_mut();
        if let Some(e) = entries.get(name) {
            if !matches!(e, Entry::GaugeFn(_)) {
                panic!("metric {name:?} already registered as a {}", e.kind());
            }
        }
        entries.insert(name.to_string(), Entry::GaugeFn(Arc::new(f)));
    }

    /// Renders every metric as Prometheus-style text exposition.
    ///
    /// Counters and gauges render as single samples; histograms render
    /// as summaries (`{quantile="0.5"|"0.95"|"0.99"}` plus `_count` and
    /// `_sum`). One `# TYPE` line is emitted per distinct base name
    /// (label variants of one family share it). The output round-trips
    /// through [`parse_exposition`](crate::parse_exposition).
    pub fn render(&self) -> String {
        let entries = self.entries();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, entry) in entries.iter() {
            let base = base_name(name);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} {}\n", entry.kind()));
                last_base = base.to_string();
            }
            match entry {
                Entry::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Entry::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Entry::GaugeFn(f) => {
                    out.push_str(&format!("{name} {}\n", fmt_f64(f())));
                }
                Entry::Histogram(h) => {
                    for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        let labeled = with_label(name, &format!("quantile=\"{qs}\""));
                        out.push_str(&format!("{labeled} {}\n", h.quantile(q)));
                    }
                    out.push_str(&format!("{} {}\n", with_suffix(name, "_count"), h.count()));
                    out.push_str(&format!("{} {}\n", with_suffix(name, "_sum"), h.sum()));
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("len", &self.len())
            .finish()
    }
}

/// The metric family name: everything before the label block.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Merges one `k="v"` pair into a possibly-labeled metric name.
fn with_label(name: &str, label: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{{{label},{}", &name[..i], &name[i + 1..]),
        None => format!("{name}{{{label}}}"),
    }
}

/// Appends a suffix to the family name, keeping any label block.
fn with_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{suffix}{}", &name[..i], &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// Formats an `f64` sample: integral values print without a trailing
/// `.0` so counters bridged through callbacks look like counters.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("peepul_x_total");
        c.add(3);
        r.counter("peepul_x_total").inc();
        assert_eq!(c.get(), 4, "same name returns the same slot");
        let g = r.gauge("peepul_x_active");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("peepul_x_total");
        r.gauge("peepul_x_total");
    }

    #[test]
    fn kind_mismatch_panic_leaves_the_registry_usable() {
        let r = Registry::new();
        r.counter("x").inc();
        let mismatch =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.gauge_fn("x", || 1.0)));
        assert!(mismatch.is_err(), "registering over a counter panics");
        assert!(r.render().contains("x 1\n"));
        r.counter("y").inc();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn gauge_fn_renders_live_values() {
        let r = Registry::new();
        let v = Arc::new(AtomicU64::new(41));
        let v2 = v.clone();
        r.gauge_fn("peepul_x_live", move || v2.load(Ordering::Relaxed) as f64);
        v.store(42, Ordering::Relaxed);
        assert!(r.render().contains("peepul_x_live 42\n"));
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn labeled_names_render_correctly() {
        let r = Registry::new();
        r.counter("peepul_srv_req_total{kind=\"get\"}").inc();
        r.histogram("peepul_srv_req_micros{kind=\"get\"}")
            .observe(5);
        let text = r.render();
        assert!(text.contains("peepul_srv_req_total{kind=\"get\"} 1\n"));
        assert!(text.contains("peepul_srv_req_micros{quantile=\"0.5\",kind=\"get\"} "));
        assert!(text.contains("peepul_srv_req_micros_count{kind=\"get\"} 1\n"));
        assert!(text.contains("# TYPE peepul_srv_req_micros summary\n"));
    }
}
