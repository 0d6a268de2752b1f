//! Tier-1 canary: the fastest end-to-end exercise of the store.
//!
//! One fork/apply/merge round-trip through [`BranchStore`] for three
//! representative data types — a delta-merge counter, an add-wins OR-set
//! and the replicated queue. If this file fails, nothing deeper (the
//! certification harness, the convergence properties, the benchmarks) is
//! worth reading; it is deliberately free of randomness and finishes in
//! milliseconds.

use peepul::prelude::*;
use peepul::types::counter::{CounterOp, CounterQuery};
use peepul::types::or_set::{OrSetOp, OrSetOutput, OrSetQuery};
use peepul::types::queue::{QueueOp, QueueValue};

#[test]
fn counter_fork_apply_merge() {
    let mut db: BranchStore<Counter> = BranchStore::new("main");
    db.branch_mut("main")
        .unwrap()
        .apply(&CounterOp::Increment)
        .unwrap();
    let feature = db.branch_mut("main").unwrap().fork("feature").unwrap();

    // Concurrent increments on both branches.
    db.branch_mut("main")
        .unwrap()
        .apply(&CounterOp::Increment)
        .unwrap();
    let mut on_feature = db.branch_mut(&feature).unwrap();
    on_feature.apply(&CounterOp::Increment).unwrap();
    on_feature.apply(&CounterOp::Increment).unwrap();

    db.branch_mut("main").unwrap().merge_from(&feature).unwrap();
    // 1 shared + 1 on main + 2 on feature: the delta merge loses nothing.
    assert_eq!(db.read("main", &CounterQuery::Value).unwrap(), 4);
}

#[test]
fn or_set_add_wins_across_merge() {
    let mut db: BranchStore<OrSetSpace<String>> = BranchStore::new("laptop");
    db.branch_mut("laptop")
        .unwrap()
        .apply(&OrSetOp::Add("milk".into()))
        .unwrap();
    db.branch_mut("laptop").unwrap().fork("phone").unwrap();

    // Concurrently: phone removes, laptop re-adds — add must win.
    db.branch_mut("phone")
        .unwrap()
        .apply(&OrSetOp::Remove("milk".into()))
        .unwrap();
    db.branch_mut("laptop")
        .unwrap()
        .apply(&OrSetOp::Add("milk".into()))
        .unwrap();

    db.branch_mut("laptop")
        .unwrap()
        .merge_from("phone")
        .unwrap();
    let v = db
        .read("laptop", &OrSetQuery::Lookup("milk".into()))
        .unwrap();
    assert_eq!(v, OrSetOutput::Present(true));

    // And the removal of a non-re-added element does stick.
    db.branch_mut("phone")
        .unwrap()
        .apply(&OrSetOp::Add("eggs".into()))
        .unwrap();
    db.branch_mut("laptop")
        .unwrap()
        .merge_from("phone")
        .unwrap();
    db.branch_mut("laptop")
        .unwrap()
        .apply(&OrSetOp::Remove("eggs".into()))
        .unwrap();
    db.branch_mut("laptop").unwrap().fork("tablet").unwrap();
    db.branch_mut("laptop")
        .unwrap()
        .merge_from("tablet")
        .unwrap();
    let v = db
        .read("laptop", &OrSetQuery::Lookup("eggs".into()))
        .unwrap();
    assert_eq!(v, OrSetOutput::Present(false));
}

#[test]
fn queue_merge_interleaves_in_timestamp_order() {
    let mut db: BranchStore<Queue<u32>> = BranchStore::new("a");
    db.branch_mut("a")
        .unwrap()
        .apply(&QueueOp::Enqueue(1))
        .unwrap();
    db.branch_mut("a").unwrap().fork("b").unwrap();

    // Divergent enqueues: a gets 2, then b gets 3 (later Lamport time).
    db.branch_mut("a")
        .unwrap()
        .apply(&QueueOp::Enqueue(2))
        .unwrap();
    db.branch_mut("b")
        .unwrap()
        .apply(&QueueOp::Enqueue(3))
        .unwrap();
    // b consumes the shared head concurrently.
    let v = db
        .branch_mut("b")
        .unwrap()
        .apply(&QueueOp::Dequeue)
        .unwrap();
    match v {
        QueueValue::Dequeued(Some(entry)) => assert_eq!(entry.1, 1),
        other => panic!("expected to dequeue the shared head, got {other:?}"),
    }

    db.branch_mut("a").unwrap().merge_from("b").unwrap();
    // After the merge: 1 was dequeued on b (dequeues win), and the
    // concurrent enqueues appear in timestamp order.
    let first = db
        .branch_mut("a")
        .unwrap()
        .apply(&QueueOp::Dequeue)
        .unwrap();
    let second = db
        .branch_mut("a")
        .unwrap()
        .apply(&QueueOp::Dequeue)
        .unwrap();
    let drained = db
        .branch_mut("a")
        .unwrap()
        .apply(&QueueOp::Dequeue)
        .unwrap();
    match (first, second) {
        (QueueValue::Dequeued(Some(x)), QueueValue::Dequeued(Some(y))) => {
            assert_eq!(
                (x.1, y.1),
                (2, 3),
                "merge must keep both branches' enqueues in order"
            );
        }
        other => panic!("expected two dequeues, got {other:?}"),
    }
    assert_eq!(
        drained,
        QueueValue::Dequeued(None),
        "queue must then be empty"
    );
}

/// The three types above, driven through the same fork/apply/merge shape by
/// one generic function — guards the `Mrdt`-generic store path itself
/// (monomorphization differences can't hide here).
#[test]
fn generic_store_round_trip_for_three_types() {
    fn round_trip<M: Mrdt>(ops: &[M::Op]) -> BranchStore<M> {
        let mut db: BranchStore<M> = BranchStore::new("root");
        db.branch_mut("root").unwrap().fork("left").unwrap();
        db.branch_mut("root").unwrap().fork("right").unwrap();
        for (i, op) in ops.iter().enumerate() {
            let branch = if i % 2 == 0 { "left" } else { "right" };
            db.branch_mut(branch).unwrap().apply(op).unwrap();
        }
        db.branch_mut("left").unwrap().merge_from("right").unwrap();
        db.branch_mut("right").unwrap().merge_from("left").unwrap();
        let l = db.state("left").unwrap();
        let r = db.state("right").unwrap();
        assert!(
            l.observably_equal(&r),
            "left/right disagree after bidirectional merge"
        );
        db
    }

    round_trip::<Counter>(&[CounterOp::Increment; 6]);
    round_trip::<OrSetSpace<u32>>(&[
        OrSetOp::Add(1),
        OrSetOp::Add(2),
        OrSetOp::Remove(1),
        OrSetOp::Add(3),
    ]);
    round_trip::<Queue<u32>>(&[
        QueueOp::Enqueue(10),
        QueueOp::Enqueue(20),
        QueueOp::Dequeue,
        QueueOp::Enqueue(30),
    ]);
}
