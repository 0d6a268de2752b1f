//! A bounded ring of structured trace events.
//!
//! The ring is a window of plain [`TraceEvent`]s behind one `Mutex`: it
//! keeps the newest `capacity` events and overwrites the oldest when
//! full — tracing is a window onto recent behaviour, not a durable log.
//! An overwritten event's label buffer is reused for the new one, so
//! steady-state recording does not allocate. The lock is held for a few
//! field stores per event and recovered if a panicking holder poisoned
//! it (DESIGN §10).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// The subsystem an event or metric originates from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The storage engine (`peepul-store`).
    Store,
    /// The replication layer (`peepul-net`).
    Net,
    /// The service daemon (`peepul-server`).
    Server,
}

impl Subsystem {
    /// The lowercase name used in metric names and JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Store => "store",
            Subsystem::Net => "net",
            Subsystem::Server => "server",
        }
    }
}

impl std::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How much a ring traces. Ordered: a ring set to [`TraceLevel::Info`]
/// records `Info` events and drops `Debug` ones.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing.
    Off = 0,
    /// Record operational milestones (commits, merges, sync rounds).
    Info = 1,
    /// Record fine-grained detail (per-request, per-object).
    Debug = 2,
}

/// One trace event, as returned by [`EventRing::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Wall-clock microseconds since the Unix epoch at record time.
    pub ts_micros: u64,
    /// Originating subsystem.
    pub subsystem: Subsystem,
    /// Event kind (e.g. `"commit"`, `"fetch"`, `"request"`).
    pub kind: &'static str,
    /// Free-form context: branch, peer, tenant, or request name.
    pub label: String,
    /// Event payload — a duration in microseconds or a size, by kind.
    pub value: u64,
}

/// The retained events, oldest first, and the count ever accepted.
#[derive(Default)]
struct Window {
    events: VecDeque<TraceEvent>,
    recorded: u64,
}

/// The bounded trace ring: the newest `capacity` structured trace events
/// at or above one [`TraceLevel`], overwritten oldest-first.
pub struct EventRing {
    capacity: usize,
    level: TraceLevel,
    window: Mutex<Window>,
}

impl EventRing {
    /// A ring retaining up to `capacity` events at or above `level`; a
    /// zero capacity or [`TraceLevel::Off`] disables recording.
    pub fn new(capacity: usize, level: TraceLevel) -> Self {
        EventRing {
            capacity,
            level,
            window: Mutex::default(),
        }
    }

    /// The window under its lock, recovered if a panicking holder
    /// poisoned it (DESIGN §10).
    fn window(&self) -> MutexGuard<'_, Window> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events accepted since construction (including ones since
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.window().recorded
    }

    /// Records one event if the ring's level admits `level`.
    pub fn record(
        &self,
        sub: Subsystem,
        level: TraceLevel,
        kind: &'static str,
        label: &str,
        value: u64,
    ) {
        if self.capacity == 0 || level == TraceLevel::Off || level > self.level {
            return;
        }
        let ts_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut w = self.window();
        w.recorded += 1;
        let mut buf = if w.events.len() == self.capacity {
            w.events.pop_front().map(|e| e.label).unwrap_or_default()
        } else {
            String::new()
        };
        buf.clear();
        buf.push_str(label);
        w.events.push_back(TraceEvent {
            ts_micros,
            subsystem: sub,
            kind,
            label: buf,
            value,
        });
    }

    /// The current window of events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.window().events.iter().cloned().collect()
    }

    /// Renders the current window as JSONL (one event object per line),
    /// the `--trace-dump` file format.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&format!(
                "{{\"ts_micros\":{},\"subsystem\":\"{}\",\"kind\":\"{}\",\"label\":\"{}\",\"value\":{}}}\n",
                e.ts_micros,
                e.subsystem,
                json_escape(e.kind),
                json_escape(&e.label),
                e.value
            ));
        }
        out
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .field("level", &self.level)
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info_ring(cap: usize) -> EventRing {
        EventRing::new(cap, TraceLevel::Info)
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let r = info_ring(8);
        for i in 0..5u64 {
            r.record(Subsystem::Store, TraceLevel::Info, "commit", "main", i);
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 5);
        assert_eq!(
            events.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(events
            .iter()
            .all(|e| e.kind == "commit" && e.label == "main"));
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let r = info_ring(4);
        for i in 0..10u64 {
            r.record(
                Subsystem::Net,
                TraceLevel::Info,
                "fetch",
                &format!("peer-{i}"),
                i,
            );
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "ring keeps the newest window"
        );
        assert_eq!(
            events[0].label, "peer-6",
            "a reused label buffer holds the new label"
        );
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn levels_filter_per_subsystem() {
        let r = info_ring(8);
        r.record(Subsystem::Store, TraceLevel::Info, "commit", "main", 1);
        r.record(Subsystem::Net, TraceLevel::Info, "fetch", "peer", 2);
        r.record(Subsystem::Store, TraceLevel::Debug, "read", "main", 3);
        let values: Vec<u64> = r.snapshot().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![1, 2], "an Info ring filters Debug events");

        let off = EventRing::new(8, TraceLevel::Off);
        for sub in [Subsystem::Store, Subsystem::Net, Subsystem::Server] {
            off.record(sub, TraceLevel::Info, "commit", "main", 1);
        }
        assert!(off.snapshot().is_empty(), "an Off ring records nothing");
        assert_eq!(off.recorded(), 0);
    }

    #[test]
    fn jsonl_escapes_and_shapes() {
        let r = info_ring(4);
        r.record(Subsystem::Server, TraceLevel::Info, "request", "a\"b", 9);
        let dump = r.dump_jsonl();
        assert_eq!(dump.lines().count(), 1);
        assert!(dump.contains("\"subsystem\":\"server\""));
        assert!(dump.contains("\"label\":\"a\\\"b\""));
        assert!(dump.contains("\"value\":9"));
    }

    #[test]
    fn concurrent_producers_keep_ring_consistent() {
        use std::sync::Arc;
        let r = Arc::new(info_ring(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.record(Subsystem::Store, TraceLevel::Info, "op", "b", t * 1000 + i);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            assert!(r.snapshot().len() <= 64);
        }
        for t in threads {
            t.join().unwrap();
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 64, "no write is lost to a racing producer");
        assert_eq!(r.recorded(), 4000);
    }
}
