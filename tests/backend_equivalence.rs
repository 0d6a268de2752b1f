//! Property test: the choice of persistence backend — and the merge
//! cache — is *unobservable*.
//!
//! Any fork/apply/merge schedule replayed on the in-memory backend and on
//! the on-disk segment backend must produce byte-identical branch heads:
//! the same Merkle commit address, the same state address, and the same
//! backend ref table. Likewise a schedule replayed with merge memoization
//! on and off must produce identical addresses — the cache may only ever
//! save work, never change a result.

mod common;

use common::Scratch;
use peepul::prelude::*;
use peepul::store::{
    Backend, MemoryBackend, ObjectId, SegmentBackend, SegmentOptions, DEFAULT_SNAPSHOT_INTERVAL,
};
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery, OrSetSpace};
use proptest::prelude::*;

/// One step of a randomized schedule, interpreted over a growing set of
/// branches (`branch % live-branch-count` picks the target, so every
/// generated schedule is valid by construction).
#[derive(Clone, Debug)]
enum Step {
    Fork { from: u8 },
    Add { branch: u8, value: u8 },
    Remove { branch: u8, value: u8 },
    Merge { into: u8, from: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        1 => (any::<u8>(),).prop_map(|(from,)| Step::Fork { from }),
        4 => (any::<u8>(), 0u8..16).prop_map(|(branch, value)| Step::Add { branch, value }),
        2 => (any::<u8>(), 0u8..16).prop_map(|(branch, value)| Step::Remove { branch, value }),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(into, from)| Step::Merge { into, from }),
    ]
}

/// Per-branch `(name, head commit address, head state address, elements)`.
type BranchHeads = Vec<(String, ObjectId, ObjectId, Vec<u8>)>;
/// The backend's final ref table.
type RefTable = Vec<(String, ObjectId)>;

/// Replays `schedule` on a store over `backend`, returning every branch's
/// head addresses and query answer, the backend's final ref table, and
/// the store's Lamport tick.
fn replay<B: Backend>(schedule: &[Step], backend: B, cache: bool) -> (BranchHeads, RefTable, u64) {
    replay_at_interval(schedule, backend, cache, DEFAULT_SNAPSHOT_INTERVAL)
}

/// [`replay`] with an explicit delta snapshot interval (`0` stores every
/// state full).
fn replay_at_interval<B: Backend>(
    schedule: &[Step],
    backend: B,
    cache: bool,
    snapshot_interval: u32,
) -> (BranchHeads, RefTable, u64) {
    let mut db: BranchStore<OrSetSpace<u8>, B> =
        BranchStore::with_backend("b0", backend).expect("open store");
    db.set_merge_cache(cache);
    db.set_snapshot_interval(snapshot_interval);
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
        }
    }
    let heads = branches
        .iter()
        .map(|b| {
            let OrSetOutput::Elements(e) = db.read(b, &OrSetQuery::Read).unwrap() else {
                panic!("read returns elements")
            };
            (
                b.clone(),
                db.head_id(b).unwrap(),
                db.state_id(b).unwrap(),
                e,
            )
        })
        .collect();
    (heads, db.backend().refs().unwrap(), db.tick())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-memory and on-disk replays of the same schedule are
    /// byte-identical: same Merkle head per branch, same state address,
    /// same ref table.
    #[test]
    fn backends_produce_byte_identical_heads(
        schedule in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let scratch = Scratch::new("equivalence");
        let mem = replay(&schedule, MemoryBackend::new(), true);
        let seg_backend = SegmentBackend::open_with(
            scratch.path().join("replay"),
            SegmentOptions { durable: false, ..SegmentOptions::default() },
        ).unwrap();
        let seg = replay(&schedule, seg_backend, true);
        prop_assert_eq!(&mem, &seg);
    }

    /// Delta-record storage is unobservable: the same schedule replayed
    /// on a full-snapshot store (`set_snapshot_interval(0)`, every state
    /// persisted as its full canonical bytes) and on a delta-storing
    /// store (the default interval) produces identical heads, state
    /// addresses, ref tables, query answers and Lamport tick — the delta
    /// encoding changes what a state record *costs*, never what it
    /// *means*, and the content address stays the hash of the full
    /// canonical bytes either way.
    #[test]
    fn delta_stored_equals_full_stored(
        schedule in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let full = replay_at_interval(&schedule, MemoryBackend::new(), true, 0);
        let delta = replay(&schedule, MemoryBackend::new(), true);
        prop_assert_eq!(&full, &delta);
    }

    /// Memoized and uncached replays of the same schedule are identical —
    /// the merge cache must never change what a schedule produces.
    #[test]
    fn memoized_merges_equal_uncached_merges(
        schedule in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let cached = replay(&schedule, MemoryBackend::new(), true);
        let uncached = replay(&schedule, MemoryBackend::new(), false);
        prop_assert_eq!(&cached, &uncached);
    }
}

/// The segment replay also survives a close/reopen: reopening the same
/// directory finds every head object and ref the first process published.
#[test]
fn segment_replay_survives_reopen() {
    let scratch = Scratch::new("replay-reopen");
    let dir = scratch.path().join("db");
    let schedule: Vec<Step> = (0..12u8)
        .map(|i| match i % 4 {
            0 => Step::Fork { from: i },
            1 | 2 => Step::Add {
                branch: i,
                value: i,
            },
            _ => Step::Merge {
                into: i,
                from: i.wrapping_add(1),
            },
        })
        .collect();
    let (heads, refs, _) = replay(
        &schedule,
        SegmentBackend::open_with(
            &dir,
            SegmentOptions {
                durable: false,
                ..SegmentOptions::default()
            },
        )
        .unwrap(),
        true,
    );
    // A fresh process reopens the directory: all published objects and
    // refs are there, integrity-checked.
    let reopened = SegmentBackend::open(&dir).unwrap();
    assert_eq!(reopened.refs().unwrap(), refs);
    for (branch, head, state, _) in &heads {
        assert_eq!(
            reopened.get_ref(branch).unwrap().as_ref(),
            Some(head),
            "{branch}"
        );
        assert!(reopened.get(*head).unwrap().is_some());
        assert!(reopened.get(*state).unwrap().is_some());
    }
}
