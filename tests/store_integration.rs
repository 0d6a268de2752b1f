//! Integration tests spanning the store, data types and content-addressing
//! layers — every store-driven scenario runs against **both** persistence
//! backends (in-memory and on-disk segment) through the shared harness in
//! `tests/common`.

mod common;

use common::{for_each_backend, BackendFactory};
use peepul::core::{Delta, DeltaOp};
use peepul::prelude::*;
use peepul::store::{content_id, state_record_delta};
use peepul::types::chat::ChatOp;
use peepul::types::counter::CounterOp;
use peepul::types::g_set::GSetOp;
use peepul::types::lww_register::LwwOp;
use peepul::types::map::MapOp;
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery};
use peepul::types::queue::{QueueOp, QueueValue};
use proptest::prelude::*;
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

/// Every stored state record resolves, through its delta chain, to the
/// canonical bytes of the state its commit carries.
fn assert_every_state_resolves<M: Mrdt>(db: &Db<M>, kind: &str) {
    for c in db.graph().ids() {
        let bytes = db.state_bytes(db.state_oid(c)).unwrap();
        assert_eq!(
            bytes,
            Some(db.graph().payload(c).to_wire()),
            "{kind}: state of {c:?}"
        );
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
        db.branch_mut("main")
            .unwrap()
            .transaction(|tx| {
                for v in 0..501 {
                    tx.apply(&QueueOp::Enqueue(v));
                }
                tx.apply(&QueueOp::Dequeue);
                for v in 501..1001 {
                    tx.apply(&QueueOp::Enqueue(v));
                }
            })
            .unwrap();
        assert_eq!(db.state("main").unwrap().len(), 1000, "{kind}");
        for op in [QueueOp::Enqueue(1001), QueueOp::Dequeue] {
            db.branch_mut("main").unwrap().apply(&op).unwrap();
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
        assert_every_state_resolves(&db, kind);
    });
}

#[test]
fn kv_put_stores_the_record_diff_would() {
    for_each_backend("kv-op-delta", |kind, make| {
        let mut db: Db<Kv> = open(make, "main");
        let put = |k: String, v: &str| MapOp::Set(k, LwwOp::Write(v.to_owned()));
        db.branch_mut("main")
            .unwrap()
            .transaction(|tx| {
                for i in 0..512 {
                    tx.apply(&put(format!("key-{i:04}"), "v0"));
                }
            })
            .unwrap();
        // An overwrite, then a new key in the middle of the order.
        for key in ["key-0100", "key-0100x"] {
            let parent = db.state("main").unwrap();
            let parent_id = db.state_id("main").unwrap();
            db.branch_mut("main")
                .unwrap()
                .apply(&put(key.to_owned(), "v1"))
                .unwrap();
            let child = db.state("main").unwrap();
            let expected = state_record_delta(parent_id, &child.diff(&parent).to_wire());
            assert_eq!(head_record(&db, "main"), expected, "{kind}: put {key}");
        }
        assert_every_state_resolves(&db, kind);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
