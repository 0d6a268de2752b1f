//! Property tests for the multi-segment storage engine: GC, rotation and
//! compaction are *unobservable* at the store level.
//!
//! Any interleaving of commits, forks, merges, flushed batches, stranded
//! history, GC, segment rotation and compaction must leave a
//! `SegmentBackend` store byte-identical to a `MemoryBackend` store fed
//! the same schedule — same Merkle head and state address per branch,
//! same query answers, same ref table, same Lamport tick. And a store
//! that ran GC + compaction must reopen from disk as exactly the store
//! that was dropped: same branch table, same per-branch history depth,
//! same tick, same answers.
//!
//! Two deterministic engine budgets ride along: post-GC disk
//! amplification stays under 2×, and group commit under the explicit
//! flush policy issues at most a fifth of per-commit's fsyncs.

mod common;

use common::Scratch;
use peepul::prelude::*;
use peepul::store::{
    Backend, FlushPolicy, MemoryBackend, ObjectId, SegmentBackend, SegmentOptions,
};
use peepul::types::counter::{Counter, CounterOp};
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery, OrSetSpace};
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

/// One step of a randomized schedule, interpreted over a growing set of
/// branches (`index % live-branch-count` picks targets, so every
/// generated schedule is valid by construction).
#[derive(Clone, Debug)]
enum Step {
    Fork {
        from: u8,
    },
    Add {
        branch: u8,
        value: u8,
    },
    Remove {
        branch: u8,
        value: u8,
    },
    Merge {
        into: u8,
        from: u8,
    },
    /// A batch of applies closed by one `flush` — the group-commit path.
    Batch {
        branch: u8,
        values: Vec<u8>,
    },
    /// Garbage maker: fork a scratch branch, commit on it, then repoint
    /// its ref back to the fork base — the scratch commit is stranded.
    Strand {
        from: u8,
        value: u8,
    },
    /// Reference-tracing GC over whatever is stranded right now.
    Gc,
    /// Seal the active segment (no-op on the in-memory store).
    Rotate,
    /// Fold sealed files into a pack (no-op on the in-memory store).
    Compact,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        1 => (any::<u8>(),).prop_map(|(from,)| Step::Fork { from }),
        4 => (any::<u8>(), 0u8..16).prop_map(|(branch, value)| Step::Add { branch, value }),
        2 => (any::<u8>(), 0u8..16).prop_map(|(branch, value)| Step::Remove { branch, value }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(into, from)| Step::Merge { into, from }),
        2 => (any::<u8>(), proptest::collection::vec(0u8..16, 1..5))
            .prop_map(|(branch, values)| Step::Batch { branch, values }),
        2 => (any::<u8>(), 0u8..16).prop_map(|(from, value)| Step::Strand { from, value }),
        1 => Just(Step::Gc),
        1 => Just(Step::Rotate),
        1 => Just(Step::Compact),
    ]
}

/// Everything observable about a store after a replay: per-branch
/// `(name, head address, state address, elements)`, the backend ref
/// table, and the Lamport tick.
type Observation = (
    Vec<(String, ObjectId, ObjectId, Vec<u8>)>,
    Vec<(String, ObjectId)>,
    u64,
);

fn observe<B: Backend>(db: &BranchStore<OrSetSpace<u8>, B>) -> Observation {
    let branches = db
        .branch_names()
        .iter()
        .map(|b| {
            let OrSetOutput::Elements(e) = db.read(b, &OrSetQuery::Read).unwrap() else {
                panic!("read returns elements")
            };
            (
                b.to_string(),
                db.head_id(b).unwrap(),
                db.state_id(b).unwrap(),
                e,
            )
        })
        .collect();
    (branches, db.backend().refs().unwrap(), db.tick())
}

/// Replays `schedule` over `backend`. `rotate` is the backend-specific
/// interpretation of [`Step::Rotate`] (a real seal for segments, nothing
/// for memory).
fn replay<B: Backend>(
    schedule: &[Step],
    backend: B,
    rotate: impl Fn(&mut BranchStore<OrSetSpace<u8>, B>),
) -> BranchStore<OrSetSpace<u8>, B> {
    let mut db: BranchStore<OrSetSpace<u8>, B> =
        BranchStore::with_backend("b0", backend).expect("open store");
    let mut branches = vec!["b0".to_owned()];
    let pick = |branches: &[String], i: u8| branches[i as usize % branches.len()].clone();
    for (n, step) in schedule.iter().enumerate() {
        match step {
            Step::Fork { from } => {
                let name = format!("b{}", n + 1);
                db.branch_mut(&pick(&branches, *from))
                    .unwrap()
                    .fork(&name)
                    .unwrap();
                branches.push(name);
            }
            Step::Add { branch, value } => {
                db.branch_mut(&pick(&branches, *branch))
                    .unwrap()
                    .apply(&OrSetOp::Add(*value))
                    .unwrap();
            }
            Step::Remove { branch, value } => {
                db.branch_mut(&pick(&branches, *branch))
                    .unwrap()
                    .apply(&OrSetOp::Remove(*value))
                    .unwrap();
            }
            Step::Merge { into, from } => {
                let (into, from) = (pick(&branches, *into), pick(&branches, *from));
                if into != from {
                    db.branch_mut(&into).unwrap().merge_from(&from).unwrap();
                }
            }
            Step::Batch { branch, values } => {
                let mut b = db.branch_mut(&pick(&branches, *branch)).unwrap();
                for v in values {
                    b.apply(&OrSetOp::Add(*v)).unwrap();
                }
                db.flush().unwrap();
            }
            Step::Strand { from, value } => {
                let src = pick(&branches, *from);
                let name = format!("strand{n}");
                db.branch_mut(&src).unwrap().fork(&name).unwrap();
                db.branch_mut(&name)
                    .unwrap()
                    .apply(&OrSetOp::Add(*value))
                    .unwrap();
                let base = db.head_id(&src).unwrap();
                db.force_track(&name, base).unwrap();
                branches.push(name);
            }
            Step::Gc => {
                db.collect_garbage().unwrap();
            }
            Step::Rotate => rotate(&mut db),
            Step::Compact => {
                db.compact_storage().unwrap();
            }
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any commit/fork/merge/GC/rotation/compaction interleaving is
    /// byte-identical across backends: the storage engine's lifecycle
    /// machinery never changes what the store holds.
    #[test]
    fn segment_lifecycle_is_unobservable_across_backends(
        schedule in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let scratch = Scratch::new("engine-equivalence");
        let mem = replay(&schedule, MemoryBackend::new(), |_| {});
        let seg_backend = SegmentBackend::open_with(scratch.path().join("replay"), tiny()).unwrap();
        let seg = replay(&schedule, seg_backend, |db| db.backend_mut().rotate().unwrap());
        prop_assert_eq!(observe(&mem), observe(&seg));
    }

    /// GC safety for delta chains: after any schedule and a final GC +
    /// compaction pass, every state reachable from a branch head still
    /// resolves from disk — GC never collects a snapshot base that a
    /// live delta record references — and the GC'd, compacted store
    /// reopens as a fixed point: a second GC pass collects nothing and
    /// nothing observable changes.
    #[test]
    fn gc_never_strands_a_live_delta_chain(
        schedule in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let scratch = Scratch::new("engine-delta-gc");
        let dir = scratch.path().join("db");
        let truth = {
            let backend = SegmentBackend::open_with(&dir, tiny()).unwrap();
            let mut db = replay(&schedule, backend, |db| db.backend_mut().rotate().unwrap());
            db.collect_garbage().unwrap();
            db.compact_storage().unwrap();
            // One published commit after the final GC, as in the reopen
            // test below: collected stranded commits may have carried the
            // clock's high-water mark, and a reachable top mint makes the
            // reopened clock land exactly on the live one.
            db.branch_mut("b0").unwrap().apply(&OrSetOp::Add(99)).unwrap();
            // `state_bytes` re-walks the stored record chain and
            // hash-verifies every link, so a collected base fails loudly.
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
            observe(&db)
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
        schedule in proptest::collection::vec(step_strategy(), 1..30),
    ) {
        let scratch = Scratch::new("engine-reopen");
        let dir = scratch.path().join("db");
        let (truth, depths) = {
            let backend = SegmentBackend::open_with(&dir, tiny()).unwrap();
            let mut db = replay(&schedule, backend, |db| db.backend_mut().rotate().unwrap());
            db.collect_garbage().unwrap();
            db.compact_storage().unwrap();
            // One more published commit AFTER the final GC: its mint is
            // the clock's high-water mark and it is reachable, so the
            // reopened clock must land exactly on the live one.
            db.branch_mut("b0").unwrap().apply(&OrSetOp::Add(99)).unwrap();
            let depths: Vec<usize> = db
                .branch_names()
                .iter()
                .map(|b| db.branch(b).unwrap().history().len())
                .collect();
            (observe(&db), depths)
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
    let schedule: Vec<Step> = (0..200u8)
        .flat_map(|value| {
            [
                Step::Add { branch: 0, value },
                Step::Strand { from: 0, value },
            ]
        })
        .collect();
    let backend = SegmentBackend::open_with(scratch.path().join("db"), tiny()).unwrap();
    let mut db = replay(&schedule, backend, |_| {});
    let stats = db.collect_garbage().unwrap();
    db.flush().unwrap();
    let disk_bytes = db.backend().disk_bytes();
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
