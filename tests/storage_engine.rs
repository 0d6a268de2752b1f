//! Property tests for the multi-segment storage engine: GC, rotation and
//! compaction are *unobservable* at the store level.
//!
//! Any schedule of commits, forks, merges, flushed batches, stranded
//! history, GC, segment rotation and compaction — drawn by
//! `proptest_support::schedules_with` over the lifecycle arms and run by
//! the one schedule interpreter, `Step::run_on` — must leave a
//! `SegmentBackend` store byte-identical to a `MemoryBackend` store fed
//! the same schedule: same Merkle head and state address per branch,
//! same query answers, same ref table, same Lamport tick. And a store
//! that ran GC + compaction must reopen from disk as exactly the store
//! that was dropped: same branch table, same per-branch history depth,
//! same tick, same answers.
//!
//! Two deterministic engine budgets ride along: post-GC disk
//! amplification stays under 2×, and group commit under the explicit
//! flush policy issues at most a fifth of per-commit's fsyncs.

mod common;

use common::{observe, or_set_schedules, Observation, Scratch};
use peepul::prelude::*;
use peepul::store::SegmentOptions;
use peepul::types::counter::{Counter, CounterOp};
use peepul::types::or_set_space::{OrSetOp, OrSetSpace};
use peepul::verify::proptest_support::Arms;
use peepul::verify::{Schedule, Step};
use proptest::prelude::*;

/// A tiny rotation cap so schedules of a few dozen steps span many
/// segments — rotation and compaction run for real, not vacuously.
fn tiny() -> SegmentOptions {
    SegmentOptions {
        durable: false,
        max_segment_bytes: 512,
        ..SegmentOptions::default()
    }
}

/// The tail every reopen check runs: a final GC and compaction, then
/// one published commit on `b0` — collected stranded commits may have
/// carried the clock's high-water mark, and a reachable top mint makes
/// the reopened clock land exactly on the live one.
fn gc_then_publish() -> Schedule<OrSetOp<u8>> {
    let publish = Step::Do {
        node: 0,
        branch: 0,
        op: OrSetOp::Add(99),
    };
    [
        Step::Collect { node: 0 },
        Step::Compact { node: 0 },
        publish,
    ]
    .into_iter()
    .collect()
}

/// Runs `schedules` on a fresh store over `backend`, replica 0 of a fleet
/// of one.
fn run<B: Backend>(schedules: &[&Schedule<OrSetOp<u8>>], backend: B) -> Cluster<OrSetSpace<u8>, B> {
    let fleet = Cluster::replicated(vec![backend]).expect("open store");
    for schedule in schedules {
        schedule.run_on(&fleet).unwrap();
    }
    fleet
}

/// [`observe`] on the store of a fleet of one.
fn observe_fleet<B: Backend>(fleet: &Cluster<OrSetSpace<u8>, B>) -> Observation {
    fleet.node(0).unwrap().with_store_read(observe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any commit/fork/merge/GC/rotation/compaction interleaving is
    /// byte-identical across backends: the storage engine's lifecycle
    /// machinery never changes what the store holds.
    #[test]
    fn segment_lifecycle_is_unobservable_across_backends(
        schedule in or_set_schedules(Arms::LIFECYCLE, 1..40),
    ) {
        let scratch = Scratch::new("engine-equivalence");
        let mem = run(&[&schedule], MemoryBackend::new());
        let seg_backend = SegmentBackend::open_with(scratch.path().join("replay"), tiny()).unwrap();
        let seg = run(&[&schedule], seg_backend);
        prop_assert_eq!(observe_fleet(&mem), observe_fleet(&seg));
    }

    /// GC safety for delta chains: after any schedule and a final GC +
    /// compaction pass, every state reachable from a branch head still
    /// resolves from disk — GC never collects a snapshot base that a
    /// live delta record references — and the GC'd, compacted store
    /// reopens as a fixed point: a second GC pass collects nothing and
    /// nothing observable changes.
    #[test]
    fn gc_never_strands_a_live_delta_chain(
        schedule in or_set_schedules(Arms::LIFECYCLE, 1..40),
    ) {
        let scratch = Scratch::new("engine-delta-gc");
        let dir = scratch.path().join("db");
        let truth = {
            let backend = SegmentBackend::open_with(&dir, tiny()).unwrap();
            let fleet = run(&[&schedule, &gc_then_publish()], backend);
            // `state_bytes` re-walks the stored record chain and
            // hash-verifies every link, so a collected base fails loudly.
            fleet.node(0).unwrap().with_store_read(|db| {
                for name in db.branch_names() {
                    let head = db.head_id(name).unwrap();
                    for c in db.commits_between(&[head], &[]) {
                        let oid = db.state_oid(c);
                        prop_assert!(
                            db.state_bytes(oid).unwrap().is_some(),
                            "live state {oid:?} must resolve after GC"
                        );
                        if let Some((base, _)) = db.state_stored_delta(oid).unwrap() {
                            prop_assert!(
                                db.backend().contains(base).unwrap(),
                                "snapshot base {base:?} was collected while live delta {oid:?} references it"
                            );
                        }
                    }
                }
                observe(db)
            })
        };
        let mut reopened: BranchStore<OrSetSpace<u8>, _> =
            BranchStore::open(SegmentBackend::open_with(&dir, tiny()).unwrap()).unwrap();
        prop_assert_eq!(observe(&reopened), truth.clone());
        let sweep = reopened.collect_garbage().unwrap();
        prop_assert_eq!(sweep.dead_objects, 0, "second GC after reopen must find nothing");
        reopened.compact_storage().unwrap();
        prop_assert_eq!(observe(&reopened), truth);
    }

    /// A store that ran GC + compaction reopens from disk as exactly the
    /// store that was dropped: branch table, per-branch history depth,
    /// Lamport tick, ref table and query answers all recover.
    #[test]
    fn open_after_gc_and_compaction_recovers_the_store(
        schedule in or_set_schedules(Arms::LIFECYCLE, 1..30),
    ) {
        let scratch = Scratch::new("engine-reopen");
        let dir = scratch.path().join("db");
        let (truth, depths) = {
            let backend = SegmentBackend::open_with(&dir, tiny()).unwrap();
            let fleet = run(&[&schedule, &gc_then_publish()], backend);
            fleet.node(0).unwrap().with_store_read(|db| {
                let depths: Vec<usize> = db
                    .branch_names()
                    .iter()
                    .map(|b| db.branch(b).unwrap().history().len())
                    .collect();
                (observe(db), depths)
            })
        };
        let reopened: BranchStore<OrSetSpace<u8>, _> =
            BranchStore::open(SegmentBackend::open_with(&dir, tiny()).unwrap()).unwrap();
        prop_assert_eq!(observe(&reopened), truth);
        let reopened_depths: Vec<usize> = reopened
            .branch_names()
            .iter()
            .map(|b| reopened.branch(b).unwrap().history().len())
            .collect();
        prop_assert_eq!(reopened_depths, depths, "per-branch history depth");
    }
}

/// After stranding every other commit, GC + flush must leave less than
/// 2 bytes on disk per live byte: the sweep really reclaims the garbage.
#[test]
fn post_gc_disk_amplification_stays_under_two() {
    let scratch = Scratch::new("engine-gc-amplification");
    let schedule: Schedule<OrSetOp<u8>> = (0..200u8)
        .flat_map(|value| {
            [
                Step::Do {
                    node: 0,
                    branch: 0,
                    op: OrSetOp::Add(value),
                },
                Step::Strand {
                    node: 0,
                    from: 0,
                    op: OrSetOp::Add(value),
                },
            ]
        })
        .collect();
    let backend = SegmentBackend::open_with(scratch.path().join("db"), tiny()).unwrap();
    let fleet = run(&[&schedule], backend);
    let db = fleet.node(0).unwrap();
    let stats = db.collect_garbage().unwrap();
    db.flush().unwrap();
    let disk_bytes = db.with_store_read(|db| db.backend().disk_bytes());
    assert!(stats.dead_objects > 0, "the schedule must strand garbage");
    assert!(
        disk_bytes < 2 * stats.live_bytes,
        "post-GC amplification: {disk_bytes} disk bytes over {} live bytes",
        stats.live_bytes
    );
}

/// Group commit is the mechanism, not the wall clock: for the same
/// durable commit load, `Explicit` with a flush every 128 commits issues
/// at most a fifth of the fsyncs `PerCommit` does.
#[test]
fn explicit_flush_every_128_needs_a_fifth_of_per_commit_fsyncs() {
    const COMMITS: u32 = 256;
    let scratch = Scratch::new("engine-group-commit");
    let fsyncs = |flush: FlushPolicy, batch: u32| {
        let options = SegmentOptions {
            durable: true,
            flush,
            ..SegmentOptions::default()
        };
        let dir = scratch.path().join(format!("batch-{batch}"));
        let backend = SegmentBackend::open_with(dir, options).unwrap();
        let mut db: BranchStore<Counter, _> = BranchStore::with_backend("main", backend).unwrap();
        let at_start = db.backend().fsync_count();
        for i in 0..COMMITS {
            db.branch_mut("main")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
            if (i + 1) % batch == 0 {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();
        db.backend().fsync_count() - at_start
    };
    let per_commit = fsyncs(FlushPolicy::PerCommit, 1);
    let grouped = fsyncs(FlushPolicy::Explicit, 128);
    assert!(
        per_commit >= u64::from(COMMITS),
        "PerCommit syncs every commit: {per_commit} fsyncs for {COMMITS} commits"
    );
    assert!(
        grouped * 5 <= per_commit,
        "group commit: {grouped} fsyncs grouped vs {per_commit} per-commit"
    );
}
