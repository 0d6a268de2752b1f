//! Integration tests spanning the store, data types and content-addressing
//! layers — every store-driven scenario runs against **both** persistence
//! backends (in-memory and on-disk segment) through the shared harness in
//! `tests/common`.

mod common;

use common::{for_each_backend, BackendFactory};
use peepul::core::{Delta, DeltaOp};
use peepul::prelude::*;
use peepul::store::{
    content_id, state_record_delta, CommitId, ObjectId, PackState, DEFAULT_SNAPSHOT_INTERVAL,
};
use peepul::types::chat::ChatOp;
use peepul::types::counter::CounterOp;
use peepul::types::g_set::GSetOp;
use peepul::types::lww_register::LwwOp;
use peepul::types::map::MapOp;
use peepul::types::or_set;
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery};
use peepul::types::queue::{QueueOp, QueueValue};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

type Db<M> = BranchStore<M, Box<dyn Backend + Send + Sync>>;

/// The server's key-value type.
type Kv = MrdtMap<LwwRegister<String>>;

fn open<M: Mrdt>(make: &mut BackendFactory<'_>, root: &str) -> Db<M> {
    BranchStore::with_backend(root, make()).expect("open store")
}

/// The state record the backend holds for `branch`'s head state.
fn head_record<M: Mrdt>(db: &Db<M>, branch: &str) -> Vec<u8> {
    let oid = db.state_id(branch).unwrap();
    db.backend()
        .get(oid)
        .unwrap()
        .expect("head state is stored")
}

/// The canonical bytes of each commit's state, recorded by the test while
/// the commit was its branch's head.
type Recorded = BTreeMap<CommitId, Vec<u8>>;

/// Records `branch`'s head state.
fn record_head<M: Mrdt>(db: &Db<M>, branch: &str, recorded: &mut Recorded) {
    let head = db.head(branch).unwrap();
    recorded.insert(head, db.state(branch).unwrap().to_wire());
}

/// Applies `ops` to `main` one commit each, recording every head. The
/// load is stored as full snapshots, so the next commit opens a fresh
/// delta chain however long the load was.
fn bulk_load<M: Mrdt>(
    db: &mut Db<M>,
    ops: impl IntoIterator<Item = M::Op>,
    recorded: &mut Recorded,
) {
    db.set_snapshot_interval(0);
    for op in ops {
        db.branch_mut("main").unwrap().apply(&op).unwrap();
        record_head(db, "main", recorded);
    }
    db.set_snapshot_interval(DEFAULT_SNAPSHOT_INTERVAL);
}

/// Every stored state record resolves, through its delta chain, to the
/// canonical bytes of the state its commit carried as a head — bytes the
/// test recorded, not ones the store's own resolver produced.
fn assert_every_state_resolves<M: Mrdt>(db: &Db<M>, recorded: &Recorded, kind: &str) {
    assert_eq!(
        recorded.len(),
        db.commit_count(),
        "{kind}: every commit was recorded as a head"
    );
    for (c, bytes) in recorded {
        let resolved = db.state_bytes(db.state_oid(*c)).unwrap();
        assert_eq!(resolved.as_ref(), Some(bytes), "{kind}: state of {c:?}");
    }
}

/// Bytes a delta script inserts literally (the rest it copies).
fn inserted_bytes(delta: &Delta) -> usize {
    delta
        .ops
        .iter()
        .map(|op| match op {
            DeltaOp::Insert(bytes) => bytes.len(),
            DeltaOp::Copy { .. } => 0,
        })
        .sum()
}

#[test]
fn chat_over_the_store_reaches_every_replica() {
    for_each_backend("chat", |kind, make| {
        let mut db: Db<Chat> = open(make, "alice");
        db.branch_mut("alice")
            .unwrap()
            .apply(&ChatOp::Send("#general".into(), "hello".into()))
            .unwrap();
        db.branch_mut("alice").unwrap().fork("bob").unwrap();
        db.branch_mut("bob")
            .unwrap()
            .apply(&ChatOp::Send("#general".into(), "hi back".into()))
            .unwrap();
        db.branch_mut("alice")
            .unwrap()
            .apply(&ChatOp::Send("#random".into(), "elsewhere".into()))
            .unwrap();
        db.branch_mut("alice").unwrap().merge_from("bob").unwrap();
        db.branch_mut("bob").unwrap().merge_from("alice").unwrap();

        let alice = db.state("alice").unwrap();
        let bob = db.state("bob").unwrap();
        assert_eq!(alice.channels(), vec!["#general", "#random"], "{kind}");
        assert_eq!(alice.messages("#general").len(), 2, "{kind}");
        assert!(alice.observably_equal(&bob), "{kind}");
        // Reverse chronological within the channel.
        let msgs = alice.messages("#general");
        assert!(msgs[0].0 > msgs[1].0, "{kind}");
    });
}

#[test]
fn nested_map_of_sets_over_the_store() {
    type Inventory = MrdtMap<GSet<String>>;
    for_each_backend("nested-map", |kind, make| {
        let mut db: Db<Inventory> = open(make, "hq");
        db.branch_mut("hq")
            .unwrap()
            .apply(&MapOp::Set("fruits".into(), GSetOp::Add("apple".into())))
            .unwrap();
        db.branch_mut("hq").unwrap().fork("warehouse").unwrap();
        db.branch_mut("warehouse")
            .unwrap()
            .apply(&MapOp::Set("fruits".into(), GSetOp::Add("banana".into())))
            .unwrap();
        db.branch_mut("hq")
            .unwrap()
            .apply(&MapOp::Set("tools".into(), GSetOp::Add("hammer".into())))
            .unwrap();
        db.branch_mut("hq")
            .unwrap()
            .merge_from("warehouse")
            .unwrap();
        let state = db.state("hq").unwrap();
        assert_eq!(
            state.keys().collect::<Vec<_>>(),
            vec!["fruits", "tools"],
            "{kind}"
        );
        let fruits = state.get("fruits").unwrap();
        assert!(
            fruits.contains(&"apple".to_owned()) && fruits.contains(&"banana".to_owned()),
            "{kind}"
        );
    });
}

#[test]
fn queue_at_least_once_via_store_merges() {
    for_each_backend("queue-alo", |kind, make| {
        let mut db: Db<Queue<u32>> = open(make, "main");
        db.branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Enqueue(1))
            .unwrap();
        db.branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Enqueue(2))
            .unwrap();
        db.branch_mut("main").unwrap().fork("w1").unwrap();
        db.branch_mut("main").unwrap().fork("w2").unwrap();

        let a = db
            .branch_mut("w1")
            .unwrap()
            .apply(&QueueOp::Dequeue)
            .unwrap();
        let b = db
            .branch_mut("w2")
            .unwrap()
            .apply(&QueueOp::Dequeue)
            .unwrap();
        // Concurrent dequeues observed the same head: at-least-once.
        assert_eq!(a, b, "{kind}");

        db.branch_mut("main").unwrap().merge_from("w1").unwrap();
        db.branch_mut("main").unwrap().merge_from("w2").unwrap();
        // Element 1 was consumed (twice); only 2 remains.
        match db
            .branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Dequeue)
            .unwrap()
        {
            QueueValue::Dequeued(Some((_, v))) => assert_eq!(v, 2, "{kind}"),
            other => panic!("{kind}: expected element 2, got {other:?}"),
        }
        match db
            .branch_mut("main")
            .unwrap()
            .apply(&QueueOp::Dequeue)
            .unwrap()
        {
            QueueValue::Dequeued(None) => {}
            other => panic!("{kind}: expected empty, got {other:?}"),
        }
    });
}

#[test]
fn deep_branch_topology_converges() {
    // A chain of forks with interleaved merges: main → f1 → f2 → f3; each
    // adds its own element; merges flow back up the chain and down again.
    for_each_backend("deep-topology", |kind, make| {
        let mut db: Db<OrSetSpace<u32>> = open(make, "main");
        db.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(0))
            .unwrap();
        db.branch_mut("main").unwrap().fork("f1").unwrap();
        db.branch_mut("f1").unwrap().fork("f2").unwrap();
        db.branch_mut("f2").unwrap().fork("f3").unwrap();
        db.branch_mut("f1")
            .unwrap()
            .apply(&OrSetOp::Add(1))
            .unwrap();
        db.branch_mut("f2")
            .unwrap()
            .apply(&OrSetOp::Add(2))
            .unwrap();
        db.branch_mut("f3")
            .unwrap()
            .apply(&OrSetOp::Add(3))
            .unwrap();
        db.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Remove(0))
            .unwrap();

        for b in ["f1", "f2", "f3"] {
            db.branch_mut("main").unwrap().merge_from(b).unwrap();
        }
        for b in ["f1", "f2", "f3"] {
            db.branch_mut(b).unwrap().merge_from("main").unwrap();
        }
        let main = db.state("main").unwrap();
        assert_eq!(main.elements(), vec![1, 2, 3], "{kind}");
        for b in ["f1", "f2", "f3"] {
            assert!(db.state(b).unwrap().observably_equal(&main), "{kind}");
        }
    });
}

#[test]
fn repeated_criss_cross_merges_stay_correct() {
    for_each_backend("criss-cross", |kind, make| {
        let mut db: Db<GSet<u32>> = open(make, "a");
        db.branch_mut("a").unwrap().fork("b").unwrap();
        for round in 0..5u32 {
            db.branch_mut("a")
                .unwrap()
                .apply(&GSetOp::Add(round * 2))
                .unwrap();
            db.branch_mut("b")
                .unwrap()
                .apply(&GSetOp::Add(round * 2 + 1))
                .unwrap();
            // Criss-cross every round.
            db.branch_mut("a").unwrap().merge_from("b").unwrap();
            db.branch_mut("b").unwrap().merge_from("a").unwrap();
        }
        let a = db.state("a").unwrap();
        let b = db.state("b").unwrap();
        assert_eq!(a.len(), 10, "{kind}");
        assert!(a.observably_equal(&b), "{kind}");
    });
}

#[test]
fn true_criss_cross_exercises_the_merge_memo() {
    // Sequential `merge(a, b); merge(b, a)` never yields two merge bases
    // (the second merge already sees the first), so the swapped merge
    // goes through pinned forks. Each probe branch off `x` then merges
    // `y2`, re-deriving the identical virtual base merge — the triple the
    // memo exists to remember.
    for_each_backend("criss-cross-memo", |kind, make| {
        let mut db: Db<OrSetSpace<u32>> = open(make, "x");
        let add = |db: &mut Db<OrSetSpace<u32>>, branch: &str, v: u32| {
            db.branch_mut(branch)
                .unwrap()
                .apply(&OrSetOp::Add(v))
                .unwrap();
        };
        add(&mut db, "x", 0);
        db.branch_mut("x").unwrap().fork("y").unwrap();
        add(&mut db, "x", 1);
        add(&mut db, "y", 2);
        db.branch_mut("x").unwrap().fork("x-pin").unwrap();
        db.branch_mut("y").unwrap().fork("y2").unwrap();
        db.branch_mut("x").unwrap().merge_from("y").unwrap();
        db.branch_mut("y2").unwrap().merge_from("x-pin").unwrap();
        add(&mut db, "x", 3);
        add(&mut db, "y2", 4);
        let (hx, hy) = (db.head("x").unwrap(), db.head("y2").unwrap());
        assert_eq!(db.graph().merge_bases(hx, hy).len(), 2, "{kind}");

        for p in 0..4 {
            let probe = format!("probe-{p}");
            db.branch_mut("x").unwrap().fork(&probe).unwrap();
            db.branch_mut(&probe).unwrap().merge_from("y2").unwrap();
            assert_eq!(
                db.state(&probe).unwrap().elements(),
                vec![0, 1, 2, 3, 4],
                "{kind}"
            );
        }
        let stats = db.merge_cache_stats();
        assert!(stats.hits > 0, "{kind}: memo never hit: {stats:?}");
    });
}

#[test]
fn content_addressing_interns_equal_states() {
    // Replicas that converge produce equal states; on *any* backend they
    // intern to a single state object with one content address.
    for_each_backend("interning", |kind, make| {
        let mut db: Db<Counter> = open(make, "x");
        db.branch_mut("x").unwrap().fork("y").unwrap();
        db.branch_mut("x")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        db.branch_mut("y")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        db.branch_mut("x").unwrap().merge_from("y").unwrap();
        db.branch_mut("y").unwrap().merge_from("x").unwrap();
        assert_eq!(
            db.state_id("x").unwrap(),
            content_id(&*db.state("y").unwrap()),
            "{kind}: converged states share one content address"
        );
        // The backend's dedup counters saw the sharing.
        assert!(db.backend().stats().dedup_hits > 0, "{kind}");
    });
}

#[test]
fn content_ids_discriminate_distinct_states() {
    let a = {
        let (s, _) =
            Counter::initial().apply(&CounterOp::Increment, Timestamp::new(1, ReplicaId::new(0)));
        s
    };
    assert_ne!(content_id(&Counter::initial()), content_id(&a));
}

#[test]
fn or_set_add_wins_end_to_end() {
    for_each_backend("add-wins", |kind, make| {
        let mut db: Db<OrSetSpace<String>> = open(make, "main");
        db.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add("doc".into()))
            .unwrap();
        db.branch_mut("main").unwrap().fork("offline").unwrap();
        // Offline device re-adds (refresh); main removes.
        db.branch_mut("offline")
            .unwrap()
            .apply(&OrSetOp::Add("doc".into()))
            .unwrap();
        db.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Remove("doc".into()))
            .unwrap();
        db.branch_mut("main")
            .unwrap()
            .merge_from("offline")
            .unwrap();
        assert_eq!(
            db.read("main", &OrSetQuery::Lookup("doc".into())).unwrap(),
            OrSetOutput::Present(true),
            "{kind}"
        );
    });
}

#[test]
fn history_records_every_transition() {
    for_each_backend("history", |kind, make| {
        let mut db: Db<Counter> = open(make, "main");
        for _ in 0..5 {
            db.branch_mut("main")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
        }
        db.branch_mut("main").unwrap().fork("dev").unwrap();
        db.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        db.branch_mut("main").unwrap().merge_from("dev").unwrap();
        // root + 5 DOs + 1 DO on dev + 1 merge = 8 commits in main's history.
        assert_eq!(db.branch("main").unwrap().history().len(), 8, "{kind}");
    });
}

#[test]
fn backend_refs_and_objects_mirror_the_store() {
    for_each_backend("refs-mirror", |kind, make| {
        let mut db: Db<Counter> = open(make, "main");
        db.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        db.branch_mut("main").unwrap().fork("dev").unwrap();
        db.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        db.branch_mut("main").unwrap().merge_from("dev").unwrap();
        // Every branch head is a published ref pointing at a stored commit.
        for branch in db.branch_names().into_iter().map(str::to_owned) {
            let head = db.head_id(&branch).unwrap();
            assert_eq!(
                db.backend().get_ref(&branch).unwrap(),
                Some(head),
                "{kind}: ref {branch}"
            );
            assert!(db.backend().contains(head).unwrap(), "{kind}");
            let state = db.state_id(&branch).unwrap();
            assert!(db.backend().contains(state).unwrap(), "{kind}");
        }
    });
}

#[test]
fn queue_update_commits_store_one_entry_not_the_queue() {
    // 1 000 entries split across both lists: 500 in `front` (the first
    // dequeue reversed the rear into it) and 500 in `rear`. Diffing the
    // whole encodings re-inserts a whole list for either update; the
    // operation's delta inserts one length prefix and at most one entry.
    for_each_backend("queue-op-delta", |kind, make| {
        let mut db: Db<Queue<u64>> = open(make, "main");
        let mut recorded = Recorded::new();
        record_head(&db, "main", &mut recorded);
        let load = (0..501)
            .map(QueueOp::Enqueue)
            .chain([QueueOp::Dequeue])
            .chain((501..1001).map(QueueOp::Enqueue));
        bulk_load(&mut db, load, &mut recorded);
        assert_eq!(db.state("main").unwrap().len(), 1000, "{kind}");
        for op in [QueueOp::Enqueue(1001), QueueOp::Dequeue] {
            db.branch_mut("main").unwrap().apply(&op).unwrap();
            record_head(&db, "main", &mut recorded);
            // A delta record: tag, base id, and a script of at most four
            // instructions (8 + 3 × 17 + 29 bytes) — not the 10 KB list.
            let record = head_record(&db, "main");
            assert_eq!(record[0], 1, "{kind}: {op:?} is stored as a delta");
            assert!(
                record.len() < 128,
                "{kind}: {op:?} stored {} bytes",
                record.len()
            );
        }
        assert_every_state_resolves(&db, &recorded, kind);
    });
}

#[test]
fn kv_put_stores_the_record_diff_would() {
    for_each_backend("kv-op-delta", |kind, make| {
        let mut db: Db<Kv> = open(make, "main");
        let mut recorded = Recorded::new();
        record_head(&db, "main", &mut recorded);
        let put = |k: String, v: &str| MapOp::Set(k, LwwOp::Write(v.to_owned()));
        let load = (0..512).map(|i| put(format!("key-{i:04}"), "v0"));
        bulk_load(&mut db, load, &mut recorded);
        // An overwrite, then a new key in the middle of the order.
        for key in ["key-0100", "key-0100x"] {
            let parent = db.state("main").unwrap();
            let parent_id = db.state_id("main").unwrap();
            db.branch_mut("main")
                .unwrap()
                .apply(&put(key.to_owned(), "v1"))
                .unwrap();
            record_head(&db, "main", &mut recorded);
            let child = db.state("main").unwrap();
            let expected = state_record_delta(parent_id, &child.diff(&parent).to_wire());
            assert_eq!(head_record(&db, "main"), expected, "{kind}: put {key}");
        }
        assert_every_state_resolves(&db, &recorded, kind);
    });
}

/// Calls of [`DiffCounted::diff`] — only `update_commits_never_diff`
/// uses the type, so no other test moves it.
static DIFFS: AtomicUsize = AtomicUsize::new(0);

/// A counter whose `diff` counts its calls and whose `op_delta` does not
/// call `diff`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct DiffCounted(u64);

impl Wire for DiffCounted {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(DiffCounted(u64::decode(input)?))
    }
}

impl Mrdt for DiffCounted {
    type Op = ();
    type Value = ();
    type Query = ();
    type Output = u64;

    fn initial() -> Self {
        DiffCounted(0)
    }

    fn apply(&self, _op: &(), _t: Timestamp) -> (Self, ()) {
        (DiffCounted(self.0 + 1), ())
    }

    fn query(&self, _q: &()) -> u64 {
        self.0
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        DiffCounted(a.0 + b.0 - lca.0)
    }

    fn diff(&self, parent: &Self) -> Delta {
        DIFFS.fetch_add(1, Ordering::SeqCst);
        Delta::splice(&parent.to_wire(), &self.to_wire())
    }

    fn op_delta(&self, _op: &(), next: &Self) -> Delta {
        Delta::splice(&self.to_wire(), &next.to_wire())
    }
}

#[test]
fn update_commits_never_diff() {
    for_each_backend("never-diff", |kind, make| {
        DIFFS.store(0, Ordering::SeqCst);
        let mut db: Db<DiffCounted> = open(make, "main");
        db.branch_mut("main").unwrap().fork("dev").unwrap();
        for i in 0..100 {
            let branch = if i % 2 == 0 { "main" } else { "dev" };
            db.branch_mut(branch).unwrap().apply(&()).unwrap();
        }
        assert_eq!(DIFFS.load(Ordering::SeqCst), 0, "{kind}: applies diffed");
        db.branch_mut("main").unwrap().merge_from("dev").unwrap();
        assert_eq!(
            DIFFS.load(Ordering::SeqCst),
            1,
            "{kind}: one merge, one diff"
        );
        assert_eq!(db.read("main", &()).unwrap(), 100, "{kind}");
    });
}

/// Live [`Resident`] instances — only
/// `typed_residency_is_bounded_by_the_cache_not_the_history` uses the
/// type, so no other test moves it.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// One live [`Resident`]: counted when made, cloned or decoded, and
/// uncounted when dropped.
#[derive(Debug)]
struct Live;

impl Live {
    fn new() -> Self {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Live
    }
}

impl Clone for Live {
    fn clone(&self) -> Self {
        Live::new()
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl PartialEq for Live {
    fn eq(&self, _: &Live) -> bool {
        true
    }
}

/// A counter whose typed instances are counted while they live.
#[derive(Clone, PartialEq, Debug)]
struct Resident(u64, Live);

impl Resident {
    fn new(n: u64) -> Self {
        Resident(n, Live::new())
    }
}

impl Wire for Resident {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Resident::new(u64::decode(input)?))
    }
}

impl Mrdt for Resident {
    type Op = ();
    type Value = ();
    type Query = ();
    type Output = u64;

    fn initial() -> Self {
        Resident::new(0)
    }

    fn apply(&self, _op: &(), _t: Timestamp) -> (Self, ()) {
        (Resident::new(self.0 + 1), ())
    }

    fn query(&self, _q: &()) -> u64 {
        self.0
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        Resident::new(a.0 + b.0 - lca.0)
    }
}

/// Typed states a store may hold: the state cache (128), one pinned head
/// per branch (2), and a few in flight.
const RESIDENT_BOUND: usize = 128 + 2 + 4;

fn segment_at(path: &std::path::Path) -> SegmentBackend {
    SegmentBackend::open_with(
        path,
        SegmentOptions {
            durable: false,
            ..SegmentOptions::default()
        },
    )
    .expect("open segment backend")
}

/// 2 000 applies over two branches on `source`; then the same history
/// reopened, then ingested cold into a store over `cold`. At each moment
/// the live typed states stay under [`RESIDENT_BOUND`], however long the
/// history.
fn check_residency<B: Backend>(
    kind: &str,
    source: B,
    cold: B,
    reopen: impl FnOnce(BranchStore<Resident, B>) -> BranchStore<Resident, B>,
) {
    let live = || LIVE.load(Ordering::SeqCst);
    let mut db = BranchStore::with_backend("main", source).unwrap();
    db.branch_mut("main").unwrap().fork("dev").unwrap();
    for i in 0..2000 {
        let branch = if i % 2 == 0 { "main" } else { "dev" };
        db.branch_mut(branch).unwrap().apply(&()).unwrap();
    }
    assert!(live() <= RESIDENT_BOUND, "{kind}: {} after applies", live());

    let heads = [db.head_id("main").unwrap(), db.head_id("dev").unwrap()];
    let mut commits = Vec::new();
    let mut states = Vec::new();
    for c in db.commits_between(&heads, &[]) {
        let oid = db.commit_oid(c);
        commits.push((oid, db.commit_record_bytes(oid).unwrap().unwrap()));
        let sid = db.state_oid(c);
        states.push((sid, db.state_bytes(sid).unwrap().unwrap()));
    }

    let reopened = reopen(db);
    assert_eq!(reopened.read("main", &()).unwrap(), 1000, "{kind}");
    assert!(live() <= RESIDENT_BOUND, "{kind}: {} after open", live());
    drop(reopened);
    assert_eq!(live(), 0, "{kind}: a dropped store leaves no state behind");

    let mut db: BranchStore<Resident, B> = BranchStore::with_backend("main", cold).unwrap();
    let commits: Vec<(ObjectId, &[u8])> = commits.iter().map(|(o, b)| (*o, &b[..])).collect();
    let states: Vec<PackState<'_>> = states
        .iter()
        .map(|(id, bytes)| PackState::Full { id: *id, bytes })
        .collect();
    db.ingest_pack(&commits, &states).unwrap();
    db.track("main", heads[0]).unwrap();
    db.track("dev", heads[1]).unwrap();
    assert_eq!(db.read("dev", &()).unwrap(), 1000, "{kind}");
    assert!(live() <= RESIDENT_BOUND, "{kind}: {} after ingest", live());
}

#[test]
fn typed_residency_is_bounded_by_the_cache_not_the_history() {
    check_residency("memory", MemoryBackend::new(), MemoryBackend::new(), |db| {
        BranchStore::open(db.backend().clone()).unwrap()
    });
    let scratch = common::Scratch::new("residency");
    let (source, cold) = (scratch.path().join("source"), scratch.path().join("cold"));
    check_residency(
        "segment",
        segment_at(&source),
        segment_at(&cold),
        |mut db| {
            db.flush().unwrap();
            drop(db);
            BranchStore::open(segment_at(&source)).unwrap()
        },
    );
}

/// Forks at S_X, commits 300 times on each side — long enough for S_X to
/// leave the state cache — optionally reopens, and merges: the merged
/// state must be `merge(S_X, main, dev)` of the states the test captured.
fn check_merge_past_the_cache<B: Backend>(
    kind: &str,
    backend: B,
    reopen: impl FnOnce(BranchStore<OrSetSpace<u32>, B>) -> BranchStore<OrSetSpace<u32>, B>,
) {
    let mut db = BranchStore::with_backend("main", backend).unwrap();
    for v in 0..8 {
        db.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(v))
            .unwrap();
    }
    db.branch_mut("main").unwrap().fork("dev").unwrap();
    let s_x = db.state("main").unwrap();
    for i in 0..300 {
        let (ours, theirs) = match i % 3 {
            0 => (OrSetOp::Remove(i % 8), OrSetOp::Add(1000 + i)),
            _ => (OrSetOp::Add(100 + i), OrSetOp::Remove((i + 1) % 8)),
        };
        db.branch_mut("main").unwrap().apply(&ours).unwrap();
        db.branch_mut("dev").unwrap().apply(&theirs).unwrap();
    }
    let (a, b) = (db.state("main").unwrap(), db.state("dev").unwrap());
    let expected = content_id(&OrSetSpace::merge(&s_x, &a, &b));
    let mut db = reopen(db);
    db.branch_mut("main").unwrap().merge_from("dev").unwrap();
    assert_eq!(db.state_id("main").unwrap(), expected, "{kind}");
}

#[test]
fn a_merge_whose_base_left_the_cache_resolves_it() {
    check_merge_past_the_cache("memory", MemoryBackend::new(), |db| db);
    check_merge_past_the_cache("memory, reopened", MemoryBackend::new(), |db| {
        BranchStore::open(db.backend().clone()).unwrap()
    });
    let scratch = common::Scratch::new("merge-past-cache");
    let (live, reopened) = (scratch.path().join("live"), scratch.path().join("reopened"));
    check_merge_past_the_cache("segment", segment_at(&live), |db| db);
    check_merge_past_the_cache("segment, reopened", segment_at(&reopened), |mut db| {
        db.flush().unwrap();
        drop(db);
        BranchStore::open(segment_at(&reopened)).unwrap()
    });
}

/// Interprets a byte as an OR-set update, covering add/remove conflicts.
fn or_set_op_of(byte: u8) -> or_set::OrSetOp<u8> {
    let x = byte % 8;
    if byte % 3 == 0 {
        or_set::OrSetOp::Remove(x)
    } else {
        or_set::OrSetOp::Add(x)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads never perturb the store: interleaving arbitrary reads between
    /// updates changes neither the commit count, the head addresses nor
    /// the backend. The reads run through a `&BranchStore` binding, which
    /// itself proves the read path needs no `&mut`.
    #[test]
    fn reads_are_side_effect_free(
        raw in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        for_each_backend("read-pure", |kind, make| {
            let mut noisy: Db<OrSet<u8>> = open(make, "main");
            let mut quiet: Db<OrSet<u8>> = open(make, "main");
            for byte in &raw {
                let op = or_set_op_of(*byte);
                noisy.branch_mut("main").unwrap().apply(&op).unwrap();
                quiet.branch_mut("main").unwrap().apply(&op).unwrap();
                // Hammer the read path on one store only.
                let shared: &Db<OrSet<u8>> = &noisy;
                let puts = shared.backend().stats().puts;
                for x in 0..4u8 {
                    shared.read("main", &or_set::OrSetQuery::Lookup(x)).unwrap();
                    shared.branch("main").unwrap().read(&or_set::OrSetQuery::Read);
                }
                assert_eq!(
                    shared.backend().stats().puts,
                    puts,
                    "{kind}: reads published to the backend"
                );
            }
            assert_eq!(
                noisy.commit_count(),
                quiet.commit_count(),
                "{kind}: reads minted commits"
            );
            assert_eq!(
                noisy.head_id("main").unwrap(),
                quiet.head_id("main").unwrap(),
                "{kind}: reads changed the head"
            );
        });
    }

    /// `Kv`'s update delta is byte-for-byte the script `diff` finds, and
    /// resolves to the child. Keys come from a small alphabet, so new keys
    /// land at the front, in the middle and at the end of the order, and
    /// existing keys are overwritten (sometimes with the value they hold).
    #[test]
    fn kv_op_delta_is_diff(ops in proptest::collection::vec((0u8..24, 0u8..3), 1..60)) {
        let mut state = Kv::initial();
        for (tick, (k, v)) in ops.into_iter().enumerate() {
            let op = MapOp::Set(format!("k{k:02}"), LwwOp::Write(format!("v{v}")));
            let t = Timestamp::new(tick as u64 / 2 + 1, ReplicaId::new(0));
            let next = state.apply(&op, t).0;
            let delta = state.op_delta(&op, &next);
            prop_assert_eq!(&delta, &next.diff(&state));
            prop_assert_eq!(delta.apply(&state.to_wire()), Some(next.to_wire()));
            state = next;
        }
    }

    /// `Queue`'s update delta resolves to the child for every op shape:
    /// enqueue onto an empty queue and onto a non-empty rear, a dequeue
    /// from a non-empty front, one that triggers `norm`, and one on an
    /// empty queue. Outside the two fallbacks it inserts one length
    /// prefix and at most one entry.
    #[test]
    fn queue_op_delta_resolves(ops in proptest::collection::vec(0u8..5, 1..80)) {
        let mut state: Queue<u64> = Queue::initial();
        // Lengths of the two lists, tracked beside the queue: a dequeue
        // with an empty front falls back (a `norm`, or an empty queue).
        let (mut front, mut rear) = (0usize, 0usize);
        for (tick, k) in ops.into_iter().enumerate() {
            let op = if k < 3 { QueueOp::Enqueue(u64::from(k)) } else { QueueOp::Dequeue };
            let t = Timestamp::new(tick as u64 + 1, ReplicaId::new(0));
            let next = state.apply(&op, t).0;
            let delta = state.op_delta(&op, &next);
            prop_assert_eq!(delta.apply(&state.to_wire()), Some(next.to_wire()));
            let fallback = match op {
                QueueOp::Enqueue(_) => {
                    rear += 1;
                    false
                }
                QueueOp::Dequeue => {
                    let fallback = front == 0;
                    if fallback {
                        (front, rear) = (rear, 0);
                    }
                    front = front.saturating_sub(1);
                    fallback
                }
            };
            prop_assert_eq!(front + rear, next.len());
            if !fallback {
                // One length prefix and at most one 20-byte entry.
                prop_assert!(inserted_bytes(&delta) <= 8 + 20, "{:?}: {:?}", op, delta);
            }
            state = next;
        }
    }
}
