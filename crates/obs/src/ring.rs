//! A lock-free bounded ring of structured trace events.
//!
//! Producers claim slots with a `fetch_add` on the head cursor and
//! publish through a per-slot **seqlock built from atomics only** (no
//! `unsafe`): a slot's sequence word is odd while a writer owns it and
//! `2 * generation` once published. The ring overwrites oldest events
//! when full — tracing is a window onto recent behaviour, not a durable
//! log — and a snapshot reader never blocks a producer: a slot caught
//! mid-write is simply skipped.
//!
//! Events are plain integers in the ring (timestamp, packed ids, value);
//! the human-readable `kind` and `label` strings are interned into side
//! tables so recording costs no allocation for already-seen strings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// The subsystem an event or metric originates from; each has an
/// independent [`TraceLevel`].
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
    /// All subsystems, for iteration.
    pub const ALL: [Subsystem; 3] = [Subsystem::Store, Subsystem::Net, Subsystem::Server];

    /// The lowercase name used in metric names and JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Store => "store",
            Subsystem::Net => "net",
            Subsystem::Server => "server",
        }
    }

    fn index(self) -> usize {
        match self {
            Subsystem::Store => 0,
            Subsystem::Net => 1,
            Subsystem::Server => 2,
        }
    }

    fn from_index(i: u64) -> Subsystem {
        match i {
            0 => Subsystem::Store,
            1 => Subsystem::Net,
            _ => Subsystem::Server,
        }
    }
}

impl std::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How much a subsystem traces. Ordered: a ring set to [`TraceLevel::Info`]
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

impl TraceLevel {
    fn from_u8(v: u8) -> TraceLevel {
        match v {
            0 => TraceLevel::Off,
            1 => TraceLevel::Info,
            _ => TraceLevel::Debug,
        }
    }
}

/// One decoded trace event, as returned by [`EventRing::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Wall-clock microseconds since the Unix epoch at record time.
    pub ts_micros: u64,
    /// Originating subsystem.
    pub subsystem: Subsystem,
    /// Event kind (e.g. `"commit"`, `"fetch"`, `"request"`).
    pub kind: String,
    /// Free-form context: branch, peer, tenant, or request name.
    pub label: String,
    /// Event payload — a duration in microseconds or a size, by kind.
    pub value: u64,
}

/// A published slot: `seq` is `0` when never written, odd while a writer
/// owns it, and `2 * generation` once generation `generation`'s event is
/// readable. All fields are atomics so readers can race writers without
/// `unsafe`; the seq double-check makes torn reads detectable.
struct Slot {
    seq: AtomicU64,
    ts_micros: AtomicU64,
    /// Packed `subsystem << 48 | kind_id << 32 | label_id`.
    meta: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts_micros: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// Interner for `&'static str` event kinds; the id fits the packed meta
/// word's 16-bit field. Kinds are few (one per instrumented code path),
/// so lookup is a linear scan under a read lock.
#[derive(Default)]
struct KindTable(Table<Vec<&'static str>>);

/// An interner's lock: its guards recover the table if a panicking holder
/// poisoned it (DESIGN §10).
#[derive(Default)]
struct Table<T>(RwLock<T>);

impl<T> Table<T> {
    fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl KindTable {
    fn intern(&self, kind: &'static str) -> u16 {
        if let Some(i) = self.0.read().iter().position(|k| *k == kind) {
            return i as u16;
        }
        let mut table = self.0.write();
        if let Some(i) = table.iter().position(|k| *k == kind) {
            return i as u16;
        }
        if table.len() >= u16::MAX as usize {
            return 0;
        }
        table.push(kind);
        (table.len() - 1) as u16
    }

    fn resolve(&self, id: u16) -> String {
        self.0
            .read()
            .get(id as usize)
            .copied()
            .unwrap_or("?")
            .to_string()
    }
}

/// Interner for dynamic labels (branch names, peers, tenants). The read
/// path is a `HashMap` hit under a read lock; only a never-seen label
/// takes the write lock.
#[derive(Default)]
struct LabelTable(Table<LabelInner>);

#[derive(Default)]
struct LabelInner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl LabelTable {
    fn intern(&self, label: &str) -> u32 {
        if let Some(&i) = self.0.read().index.get(label) {
            return i;
        }
        let mut inner = self.0.write();
        if let Some(&i) = inner.index.get(label) {
            return i;
        }
        if inner.names.len() >= u32::MAX as usize {
            return 0;
        }
        let id = inner.names.len() as u32;
        inner.names.push(label.to_string());
        inner.index.insert(label.to_string(), id);
        id
    }

    fn resolve(&self, id: u32) -> String {
        self.0
            .read()
            .names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| "?".to_string())
    }
}

/// The lock-free bounded trace ring: a fixed-capacity buffer of
/// structured trace events, overwritten oldest-first, readable without
/// stopping writers.
pub struct EventRing {
    slots: Vec<Slot>,
    /// Next global write position; slot = `pos % capacity`,
    /// generation = `pos / capacity + 1`.
    head: AtomicU64,
    /// Events accepted (level passed and a slot claim was attempted).
    recorded: AtomicU64,
    /// Writes abandoned because a newer generation already claimed the
    /// slot — distinct from routine overwrite of old events.
    lost: AtomicU64,
    levels: [AtomicU8; 3],
    kinds: KindTable,
    labels: LabelTable,
}

impl EventRing {
    /// A ring retaining up to `capacity` events; `0` disables recording.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            levels: [AtomicU8::new(0), AtomicU8::new(0), AtomicU8::new(0)],
            kinds: KindTable::default(),
            labels: LabelTable::default(),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sets `sub`'s trace level.
    pub fn set_level(&self, sub: Subsystem, level: TraceLevel) {
        self.levels[sub.index()].store(level as u8, Ordering::Relaxed);
    }

    /// `sub`'s current trace level.
    pub fn level(&self, sub: Subsystem) -> TraceLevel {
        TraceLevel::from_u8(self.levels[sub.index()].load(Ordering::Relaxed))
    }

    /// Whether an event at `level` from `sub` would be recorded — the
    /// cheap pre-check callers use before assembling label strings.
    #[inline]
    pub fn enabled(&self, sub: Subsystem, level: TraceLevel) -> bool {
        !self.slots.is_empty()
            && level != TraceLevel::Off
            && self.levels[sub.index()].load(Ordering::Relaxed) >= level as u8
    }

    /// Total events accepted since construction (including ones since
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Writes abandoned to a racing newer writer (not routine ring
    /// overwrite) — nonzero only under extreme producer contention.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Records one event if `sub`'s level admits `level`.
    pub fn record(
        &self,
        sub: Subsystem,
        level: TraceLevel,
        kind: &'static str,
        label: &str,
        value: u64,
    ) {
        if !self.enabled(sub, level) {
            return;
        }
        let kind_id = self.kinds.intern(kind) as u64;
        let label_id = self.labels.intern(label) as u64;
        let meta = ((sub.index() as u64) << 48) | (kind_id << 32) | label_id;
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        self.recorded.fetch_add(1, Ordering::Relaxed);

        let cap = self.slots.len() as u64;
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos % cap) as usize];
        let generation = pos / cap + 1;
        let writing = 2 * generation - 1;
        // Claim the slot unless a *newer* generation already has it (a
        // racing producer lapped us); publishing a stale event over a
        // newer one would reorder the window.
        let mut seq = slot.seq.load(Ordering::Acquire);
        loop {
            if seq >= writing {
                self.lost.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match slot
                .seq
                .compare_exchange(seq, writing, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(actual) => seq = actual,
            }
        }
        slot.ts_micros.store(ts, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(2 * generation, Ordering::Release);
    }

    /// Decodes the current window of events, oldest first. Slots caught
    /// mid-write are skipped, so a snapshot under fire is consistent but
    /// possibly one event short per racing writer.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let cap = self.slots.len() as u64;
        let mut events: Vec<(u64, TraceEvent)> = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let ts = slot.ts_micros.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue;
            }
            let generation = s1 / 2;
            let pos = (generation - 1) * cap + idx as u64;
            events.push((
                pos,
                TraceEvent {
                    ts_micros: ts,
                    subsystem: Subsystem::from_index(meta >> 48),
                    kind: self.kinds.resolve(((meta >> 32) & 0xFFFF) as u16),
                    label: self.labels.resolve((meta & 0xFFFF_FFFF) as u32),
                    value,
                },
            ));
        }
        events.sort_by_key(|(pos, _)| *pos);
        events.into_iter().map(|(_, e)| e).collect()
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
                json_escape(&e.kind),
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
            .field("capacity", &self.capacity())
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
        let r = EventRing::new(cap);
        for sub in Subsystem::ALL {
            r.set_level(sub, TraceLevel::Info);
        }
        r
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
            r.record(Subsystem::Net, TraceLevel::Info, "fetch", "peer", i);
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "ring keeps the newest window"
        );
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn levels_filter_per_subsystem() {
        let r = info_ring(8);
        r.set_level(Subsystem::Net, TraceLevel::Off);
        r.record(Subsystem::Store, TraceLevel::Info, "commit", "main", 1);
        r.record(Subsystem::Net, TraceLevel::Info, "fetch", "peer", 2);
        r.record(Subsystem::Store, TraceLevel::Debug, "read", "main", 3);
        let events = r.snapshot();
        assert_eq!(events.len(), 1, "net is off and store debug is filtered");
        assert_eq!(events[0].value, 1);
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
            let _ = r.snapshot();
        }
        for t in threads {
            t.join().unwrap();
        }
        let events = r.snapshot();
        assert!(events.len() <= 64);
        assert!(!events.is_empty());
        assert_eq!(r.recorded(), 4000);
    }
}
