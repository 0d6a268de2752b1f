//! A replicated work queue with at-least-once consumption (paper §6).
//!
//! A producer enqueues jobs; two workers on separate branches dequeue
//! concurrently. Because the queue deliberately provides *at-least-once*
//! semantics (like Amazon SQS or RabbitMQ), concurrent dequeues on
//! different branches may hand the same job to both workers — and a job
//! dequeued on either branch disappears everywhere after the merge. The
//! example finishes by replaying the paper's Fig. 11 worked merge.
//!
//! Run with: `cargo run --example work_queue`

use peepul::store::{Backend, BranchStore, StoreError};
use peepul::types::queue::{Queue, QueueOp, QueueValue};

fn dequeue(
    db: &mut BranchStore<Queue<String>>,
    worker: &str,
) -> Result<Option<String>, StoreError> {
    match db.branch_mut(worker)?.apply(&QueueOp::Dequeue)? {
        QueueValue::Dequeued(Some((_, job))) => Ok(Some(job)),
        QueueValue::Dequeued(None) => Ok(None),
        QueueValue::Ack => unreachable!("dequeue returns Dequeued"),
    }
}

fn main() -> Result<(), StoreError> {
    let mut db: BranchStore<Queue<String>> = BranchStore::new("producer");
    // The producer submits the morning batch, one commit per job.
    let mut producer = db.branch_mut("producer")?;
    for i in 1..=4 {
        producer.apply(&QueueOp::Enqueue(format!("job-{i}")))?;
    }

    // Two workers clone the queue and start pulling independently.
    let worker_a = db.branch_mut("producer")?.fork("worker-a")?;
    let worker_b = db.branch_mut("producer")?.fork("worker-b")?;

    let a1 = dequeue(&mut db, "worker-a")?;
    let b1 = dequeue(&mut db, "worker-b")?;
    println!("worker-a got {a1:?}; worker-b got {b1:?}");
    // Both saw the same head — at-least-once delivery in action.
    assert_eq!(a1, b1);
    assert_eq!(a1.as_deref(), Some("job-1"));

    let a2 = dequeue(&mut db, "worker-a")?;
    println!("worker-a also got {a2:?}");

    // Sync everyone. Jobs consumed on *either* branch vanish everywhere.
    db.branch_mut("producer")?.merge_from(&worker_a)?;
    db.branch_mut("producer")?.merge_from(&worker_b)?;
    db.branch_mut(&worker_a)?.merge_from("producer")?;
    db.branch_mut(&worker_b)?.merge_from("producer")?;

    let remaining: Vec<String> = db
        .state("producer")?
        .to_list()
        .into_iter()
        .map(|(_, j)| j)
        .collect();
    println!("remaining after sync: {remaining:?}");
    assert_eq!(remaining, vec!["job-3".to_owned(), "job-4".to_owned()]);

    // ----- The paper's Fig. 11, replayed through the store -----
    let mut fig: BranchStore<Queue<u32>> = BranchStore::new("lca");
    for v in 1..=5 {
        fig.branch_mut("lca")?.apply(&QueueOp::Enqueue(v))?;
    }
    fig.branch_mut("lca")?.fork("a")?;
    fig.branch_mut("lca")?.fork("b")?;
    // Submission order fixes the (concurrent) enqueues' timestamps: the
    // figure has 6 and 7 older than 8 and 9, so b posts first.
    fig.branch_mut("a")?.apply(&QueueOp::Dequeue)?;
    fig.branch_mut("a")?.apply(&QueueOp::Dequeue)?;
    fig.branch_mut("b")?.apply(&QueueOp::Dequeue)?;
    fig.branch_mut("b")?.apply(&QueueOp::Enqueue(6))?;
    fig.branch_mut("b")?.apply(&QueueOp::Enqueue(7))?;
    fig.branch_mut("a")?.apply(&QueueOp::Enqueue(8))?;
    fig.branch_mut("a")?.apply(&QueueOp::Enqueue(9))?;
    fig.branch_mut("a")?.merge_from("b")?;
    let merged: Vec<u32> = fig
        .state("a")?
        .to_list()
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    println!("figure 11 merge: {merged:?}");
    assert_eq!(merged, vec![3, 4, 5, 6, 7, 8, 9]);

    // The stores content-address every state; the dedup and merge-cache
    // counters show what the structural sharing bought.
    let dedup = db.backend().stats();
    println!(
        "producer store: {} puts, {} deduplicated; merge cache {:?}",
        dedup.puts,
        dedup.dedup_hits,
        db.merge_cache_stats()
    );
    Ok(())
}
