//! Integration tests spanning the store, data types and content-addressing
//! layers — every store-driven scenario runs against **both** persistence
//! backends (in-memory and on-disk segment) through the shared harness in
//! `tests/common`.

mod common;

use common::{for_each_backend, BackendFactory};
use peepul::prelude::*;
use peepul::store::content_id;
use peepul::types::chat::ChatOp;
use peepul::types::counter::CounterOp;
use peepul::types::g_set::GSetOp;
use peepul::types::map::MapOp;
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery};
use peepul::types::queue::{QueueOp, QueueValue};

type Db<M> = BranchStore<M, Box<dyn Backend + Send + Sync>>;

fn open<M: Mrdt>(make: &mut BackendFactory<'_>, root: &str) -> Db<M> {
    BranchStore::with_backend(root, make()).expect("open store")
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
