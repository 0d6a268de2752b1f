//! Property test: the choice of persistence backend — and the merge
//! cache — is *unobservable*.
//!
//! Any fork/apply/merge schedule (drawn by `proptest_support::schedules_with`
//! and run by the one schedule interpreter, `Step::run_on`) on the
//! in-memory backend and on the on-disk segment backend must produce
//! byte-identical branch heads:
//! the same Merkle commit address, the same state address, and the same
//! backend ref table. Likewise a schedule replayed with merge memoization
//! on and off must produce identical addresses — the cache may only ever
//! save work, never change a result.

mod common;

use common::{observe, or_set_schedules, Observation, Scratch};
use peepul::prelude::*;
use peepul::store::{SegmentOptions, DEFAULT_SNAPSHOT_INTERVAL};
use peepul::types::or_set_space::{OrSetOp, OrSetSpace};
use peepul::verify::proptest_support::Arms;
use peepul::verify::{Schedule, Step};
use proptest::prelude::*;

/// Fork/apply/merge schedules at this suite's weights.
const ARMS: Arms = Arms {
    merge: 3,
    apply: 6,
    ..Arms::STORE
};

/// A fresh store over `backend` with the merge cache on or off and an
/// explicit delta snapshot interval (`0` stores every state full).
fn store<B: Backend>(
    backend: B,
    cache: bool,
    snapshot_interval: u32,
) -> BranchStore<OrSetSpace<u8>, B> {
    let mut db = BranchStore::with_backend("b0", backend).expect("open store");
    db.set_merge_cache(cache);
    db.set_snapshot_interval(snapshot_interval);
    db
}

/// Runs `schedule` on `db` as replica 0 of a fleet of one and reads
/// what it left observable.
fn outcome<B: Backend>(
    schedule: &Schedule<OrSetOp<u8>>,
    db: BranchStore<OrSetSpace<u8>, B>,
) -> Observation {
    let fleet = Cluster::from_stores(vec![db]);
    schedule.run_on(&fleet).unwrap();
    fleet.node(0).unwrap().with_store_read(observe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-memory and on-disk runs of the same schedule are
    /// byte-identical: same Merkle head per branch, same state address,
    /// same ref table.
    #[test]
    fn backends_produce_byte_identical_heads(schedule in or_set_schedules(ARMS, 1..40)) {
        let scratch = Scratch::new("equivalence");
        let mem = outcome(&schedule, store(MemoryBackend::new(), true, DEFAULT_SNAPSHOT_INTERVAL));
        let seg_backend = SegmentBackend::open_with(
            scratch.path().join("replay"),
            SegmentOptions { durable: false, ..SegmentOptions::default() },
        ).unwrap();
        let seg = outcome(&schedule, store(seg_backend, true, DEFAULT_SNAPSHOT_INTERVAL));
        prop_assert_eq!(&mem, &seg);
    }

    /// Delta-record storage is unobservable: the same schedule run on a
    /// full-snapshot store (`set_snapshot_interval(0)`, every state
    /// persisted as its full canonical bytes) and on a delta-storing
    /// store (the default interval) produces identical heads, state
    /// addresses, ref tables, query answers and Lamport tick — the delta
    /// encoding changes what a state record *costs*, never what it
    /// *means*, and the content address stays the hash of the full
    /// canonical bytes either way.
    #[test]
    fn delta_stored_equals_full_stored(schedule in or_set_schedules(ARMS, 1..40)) {
        let full = outcome(&schedule, store(MemoryBackend::new(), true, 0));
        let delta = outcome(&schedule, store(MemoryBackend::new(), true, DEFAULT_SNAPSHOT_INTERVAL));
        prop_assert_eq!(&full, &delta);
    }

    /// Memoized and uncached runs of the same schedule are identical —
    /// the merge cache must never change what a schedule produces.
    #[test]
    fn memoized_merges_equal_uncached_merges(schedule in or_set_schedules(ARMS, 1..40)) {
        let cached = outcome(&schedule, store(MemoryBackend::new(), true, DEFAULT_SNAPSHOT_INTERVAL));
        let uncached = outcome(&schedule, store(MemoryBackend::new(), false, DEFAULT_SNAPSHOT_INTERVAL));
        prop_assert_eq!(&cached, &uncached);
    }
}

/// The segment run also survives a close/reopen: reopening the same
/// directory finds every head object and ref the first process published.
#[test]
fn segment_replay_survives_reopen() {
    let scratch = Scratch::new("replay-reopen");
    let dir = scratch.path().join("db");
    // Rounds of four: a fork, two adds, a merge, over the live branches.
    let schedule: Schedule<OrSetOp<u8>> = (0..12usize)
        .map(|i| {
            let n = 2 + i / 4; // branches once this round's fork ran
            match i % 4 {
                0 => Step::CreateBranch {
                    node: 0,
                    from: i % (n - 1),
                },
                1 | 2 => Step::Do {
                    node: 0,
                    branch: i % n,
                    op: OrSetOp::Add(i as u8),
                },
                _ => Step::Merge {
                    node: 0,
                    into: i % n,
                    from: (i + 1) % n,
                },
            }
        })
        .collect();
    let backend = SegmentBackend::open_with(
        &dir,
        SegmentOptions {
            durable: false,
            ..SegmentOptions::default()
        },
    )
    .unwrap();
    let (heads, refs, _) = outcome(&schedule, store(backend, true, DEFAULT_SNAPSHOT_INTERVAL));
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
