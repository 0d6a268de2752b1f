//! Golden vectors for the canonical codec — the drift tripwire.
//!
//! Since the codec unification the `Wire` encoding is simultaneously the
//! **storage format** (what `SegmentBackend` persists and
//! `BranchStore::open` decodes), the **wire format** (what replication
//! transfers) and the **content-address preimage** (`sha256(bytes)`).
//! A silent change to any encoder therefore corrupts on-disk stores *and*
//! breaks cross-version replication at once. This test pins the exact
//! bytes of a representative value of **all 14 types** against fixtures
//! checked into `tests/fixtures/codec/`, and CI runs it as a dedicated
//! step: any encoding drift fails the build until the change is made
//! deliberately (re-bless with `PEEPUL_BLESS_CODEC=1 cargo test --test
//! codec_golden` and review the fixture diff like any other breaking
//! change — it invalidates every existing segment file).
//!
//! Each fixture is the lowercase hex of the canonical encoding. The test
//! also decodes the fixture back and re-encodes it, so the vectors prove
//! decodability, not just stability.

use peepul::core::{Delta, Mrdt, ReplicaId, Timestamp, Wire};
use peepul::types::avl::AvlMap;
use peepul::types::chat::{Chat, ChatOp};
use peepul::types::counter::{Counter, CounterOp};
use peepul::types::ew_flag::{EwFlag, EwFlagOp, EwFlagSpace};
use peepul::types::g_set::{GSet, GSetOp};
use peepul::types::log::{LogOp, MergeableLog};
use peepul::types::lww_register::{LwwOp, LwwRegister};
use peepul::types::map::{MapOp, MrdtMap};
use peepul::types::or_set::{OrSet, OrSetOp};
use peepul::types::or_set_space::OrSetSpace;
use peepul::types::or_set_spacetime::OrSetSpacetime;
use peepul::types::pn_counter::{PnCounter, PnCounterOp};
use peepul::types::queue::{Queue, QueueOp};
use std::path::PathBuf;

fn ts(tick: u64, r: u32) -> Timestamp {
    Timestamp::new(tick, ReplicaId::new(r))
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/codec")
        .join(format!("{name}.hex"))
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(s: &str) -> Vec<u8> {
    let s = s.trim();
    assert!(s.len().is_multiple_of(2), "fixture must be whole bytes");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("fixture is hex"))
        .collect()
}

/// Pins `value`'s canonical encoding against its fixture (or writes the
/// fixture when blessing), and proves the fixture decodes + re-encodes
/// byte-identically.
fn golden<T: Wire + std::fmt::Debug>(name: &str, value: &T) {
    let bytes = value.to_wire();
    let path = fixture_path(name);
    if std::env::var_os("PEEPUL_BLESS_CODEC").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, to_hex(&bytes) + "\n").unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing codec fixture {} ({e}); generate with \
             PEEPUL_BLESS_CODEC=1 cargo test --test codec_golden",
            path.display()
        )
    });
    assert_eq!(
        to_hex(&bytes),
        fixture.trim(),
        "{name}: canonical encoding drifted from the golden vector — this \
         breaks every existing segment file and cross-version replication; \
         if intentional, re-bless the fixture and say so in the PR"
    );
    // The vector is decodable and canonical, not just stable.
    let decoded = T::from_wire(&from_hex(&fixture))
        .unwrap_or_else(|| panic!("{name}: golden bytes no longer decode"));
    assert_eq!(decoded.to_wire(), bytes, "{name}: re-encode drifted");
}

/// Pins the wire encoding of `child.diff(parent)` against a fixture —
/// since delta sync the delta script is a storage *and* transfer format
/// (`SegmentBackend` persists it inside delta state records, `StatesDelta`
/// replies ship it), so it gets the same drift tripwire as the canonical
/// encoding — and proves the pinned delta still *resolves*: applying it to
/// the parent reproduces the child's canonical bytes exactly (the
/// content-address preimage, so a drift here breaks hash verification).
fn golden_delta<M: Mrdt>(name: &str, parent: &M, child: &M) {
    let delta = child.diff(parent);
    let bytes = delta.to_wire();
    let path = fixture_path(name);
    if std::env::var_os("PEEPUL_BLESS_CODEC").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, to_hex(&bytes) + "\n").unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing codec fixture {} ({e}); generate with \
             PEEPUL_BLESS_CODEC=1 cargo test --test codec_golden",
            path.display()
        )
    });
    assert_eq!(
        to_hex(&bytes),
        fixture.trim(),
        "{name}: delta encoding drifted from the golden vector — this breaks \
         every delta-stored segment file and in-flight delta sync; if \
         intentional, re-bless the fixture and say so in the PR"
    );
    let pinned = Delta::from_wire(&from_hex(&fixture))
        .unwrap_or_else(|| panic!("{name}: golden delta bytes no longer decode"));
    let resolved = M::apply_delta(parent, &pinned)
        .unwrap_or_else(|| panic!("{name}: golden delta no longer applies to its base"));
    assert_eq!(
        resolved.to_wire(),
        child.to_wire(),
        "{name}: resolved delta drifted from the child's canonical bytes"
    );
}

/// Pins the update deltas `state.op_delta(op, child)` of `ops`, applied
/// one after another from `parent`, as one `Vec<Delta>` fixture through
/// [`golden`]. For the types that override [`Mrdt::op_delta`] these are
/// what an update commit stores and what replication ships, so they get
/// the same tripwire as `golden_delta`, and each pinned delta must still
/// resolve to its child's canonical bytes.
fn golden_op_deltas<M: Mrdt>(name: &str, parent: &M, ops: &[M::Op], first_tick: u64) {
    let mut deltas = Vec::new();
    let mut state = parent.clone();
    for (i, op) in ops.iter().enumerate() {
        let child = state.apply(op, ts(first_tick + i as u64, 1)).0;
        let delta = state.op_delta(op, &child);
        let resolved = M::apply_delta(&state, &delta)
            .unwrap_or_else(|| panic!("{name}: op-delta {i} does not apply to its base"));
        assert_eq!(
            resolved.to_wire(),
            child.to_wire(),
            "{name}: op-delta {i} does not resolve to the child's canonical bytes"
        );
        deltas.push(delta);
        state = child;
    }
    golden(name, &deltas);
}

/// Applies `ops` sequentially with deterministic timestamps.
fn build<M: Mrdt>(ops: &[M::Op]) -> M {
    let mut state = M::initial();
    for (i, op) in ops.iter().enumerate() {
        state = state.apply(op, ts(i as u64 + 1, (i % 3) as u32)).0;
    }
    state
}

#[test]
fn counter_golden() {
    golden("counter", &build::<Counter>(&[CounterOp::Increment; 3]));
}

#[test]
fn pn_counter_golden() {
    golden(
        "pn_counter",
        &build::<PnCounter>(&[
            PnCounterOp::Increment,
            PnCounterOp::Increment,
            PnCounterOp::Decrement,
        ]),
    );
}

#[test]
fn ew_flag_golden() {
    golden(
        "ew_flag",
        &build::<EwFlag>(&[EwFlagOp::Enable, EwFlagOp::Disable, EwFlagOp::Enable]),
    );
}

#[test]
fn ew_flag_space_golden() {
    golden(
        "ew_flag_space",
        &build::<EwFlagSpace>(&[EwFlagOp::Enable, EwFlagOp::Disable, EwFlagOp::Enable]),
    );
}

#[test]
fn lww_register_golden() {
    golden(
        "lww_register",
        &build::<LwwRegister<u32>>(&[LwwOp::Write(7), LwwOp::Write(1_000_000)]),
    );
}

#[test]
fn g_set_golden() {
    golden(
        "g_set",
        &build::<GSet<u32>>(&[GSetOp::Add(3), GSetOp::Add(1), GSetOp::Add(3)]),
    );
}

#[test]
fn g_map_golden() {
    golden(
        "g_map",
        &build::<MrdtMap<Counter>>(&[
            MapOp::Set("hits".into(), CounterOp::Increment),
            MapOp::Set("misses".into(), CounterOp::Increment),
            MapOp::Set("hits".into(), CounterOp::Increment),
        ]),
    );
}

#[test]
fn log_golden() {
    golden(
        "log",
        &build::<MergeableLog<u32>>(&[LogOp::Append(10), LogOp::Append(20)]),
    );
}

#[test]
fn or_set_golden() {
    golden(
        "or_set",
        &build::<OrSet<u32>>(&[
            OrSetOp::Add(5),
            OrSetOp::Add(5),
            OrSetOp::Remove(5),
            OrSetOp::Add(9),
        ]),
    );
}

#[test]
fn or_set_space_golden() {
    golden(
        "or_set_space",
        &build::<OrSetSpace<u32>>(&[OrSetOp::Add(5), OrSetOp::Add(5), OrSetOp::Add(2)]),
    );
}

#[test]
fn or_set_spacetime_golden() {
    golden(
        "or_set_spacetime",
        &build::<OrSetSpacetime<u32>>(&[OrSetOp::Add(5), OrSetOp::Add(2), OrSetOp::Add(8)]),
    );
}

#[test]
fn queue_golden() {
    golden(
        "queue",
        &build::<Queue<u32>>(&[
            QueueOp::Enqueue(1),
            QueueOp::Enqueue(2),
            QueueOp::Dequeue,
            QueueOp::Enqueue(3),
        ]),
    );
}

#[test]
fn chat_golden() {
    golden(
        "chat",
        &build::<Chat>(&[
            ChatOp::Send("#rust".into(), "hello".into()),
            ChatOp::Send("#rust".into(), "world".into()),
            ChatOp::Send("#ocaml".into(), "mergeable".into()),
        ]),
    );
}

#[test]
fn avl_map_golden() {
    let map: AvlMap<u32, u64> = [(2u32, 20u64), (1, 10), (3, 30)].into_iter().collect();
    golden("avl_map", &map);
}

#[test]
fn counter_delta_golden() {
    let parent = build::<Counter>(&[CounterOp::Increment; 2]);
    let child = parent.apply(&CounterOp::Increment, ts(3, 0)).0;
    golden_delta("counter_delta", &parent, &child);
}

#[test]
fn or_set_space_delta_golden() {
    let parent = build::<OrSetSpace<u32>>(&[OrSetOp::Add(5), OrSetOp::Add(5), OrSetOp::Add(2)]);
    let child = parent.apply(&OrSetOp::Add(9), ts(4, 1)).0;
    golden_delta("or_set_space_delta", &parent, &child);
}

#[test]
fn log_delta_golden() {
    let parent = build::<MergeableLog<u32>>(&[LogOp::Append(10), LogOp::Append(20)]);
    let child = parent.apply(&LogOp::Append(30), ts(3, 2)).0;
    golden_delta("log_delta", &parent, &child);
}

#[test]
fn g_map_delta_golden() {
    let parent = build::<MrdtMap<Counter>>(&[
        MapOp::Set("hits".into(), CounterOp::Increment),
        MapOp::Set("misses".into(), CounterOp::Increment),
    ]);
    let child = parent
        .apply(&MapOp::Set("hits".into(), CounterOp::Increment), ts(3, 2))
        .0;
    golden_delta("g_map_delta", &parent, &child);
}

#[test]
fn g_map_op_delta_golden() {
    let parent = build::<MrdtMap<Counter>>(&[
        MapOp::Set("hits".into(), CounterOp::Increment),
        MapOp::Set("misses".into(), CounterOp::Increment),
    ]);
    // One overwrite, then one new key between the two existing ones.
    golden_op_deltas(
        "g_map_op_delta",
        &parent,
        &[
            MapOp::Set("hits".into(), CounterOp::Increment),
            MapOp::Set("lookups".into(), CounterOp::Increment),
        ],
        3,
    );
}

#[test]
fn or_set_space_op_delta_golden() {
    let parent = build::<OrSetSpace<u32>>(&[OrSetOp::Add(5), OrSetOp::Add(2), OrSetOp::Add(7)]);
    // A refresh in place, an append, a remove from the middle and a
    // remove of an absent element.
    golden_op_deltas(
        "or_set_space_op_delta",
        &parent,
        &[
            OrSetOp::Add(2),
            OrSetOp::Add(9),
            OrSetOp::Remove(2),
            OrSetOp::Remove(4),
        ],
        4,
    );
}

/// A queue with entries in both lists: `front` holds 2 and 3 after the
/// dequeue reversed the rear, `rear` holds 4.
fn two_list_queue() -> Queue<u32> {
    build::<Queue<u32>>(&[
        QueueOp::Enqueue(1),
        QueueOp::Enqueue(2),
        QueueOp::Enqueue(3),
        QueueOp::Dequeue,
        QueueOp::Enqueue(4),
    ])
}

#[test]
fn queue_op_delta_enqueue_golden() {
    golden_op_deltas(
        "queue_op_delta_enqueue",
        &two_list_queue(),
        &[QueueOp::Enqueue(5)],
        6,
    );
}

#[test]
fn queue_op_delta_dequeue_golden() {
    golden_op_deltas(
        "queue_op_delta_dequeue",
        &two_list_queue(),
        &[QueueOp::Dequeue],
        6,
    );
}

/// The commit record format is pinned too: it is the other half of what a
/// segment file contains, and fetch negotiation parses it.
#[test]
fn commit_record_golden() {
    use peepul::store::{commit_record, content_id, parse_commit_record};
    let a = content_id(&1u8);
    let s = content_id(&2u8);
    let record = commit_record(&[a], s, 7, 9);
    let path = fixture_path("commit_record");
    if std::env::var_os("PEEPUL_BLESS_CODEC").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, to_hex(&record) + "\n").unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing codec fixture {} ({e}); generate with \
             PEEPUL_BLESS_CODEC=1 cargo test --test codec_golden",
            path.display()
        )
    });
    assert_eq!(to_hex(&record), fixture.trim(), "commit record drifted");
    assert!(parse_commit_record(&from_hex(&fixture)).is_some());
}
