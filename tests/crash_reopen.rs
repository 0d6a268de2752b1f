//! Crash-reopen torture for the on-disk segment backend — at the byte
//! level **and** at the typed level.
//!
//! The backend's durability contract is write → fsync → publish: once a
//! `put`/`set_ref` returns, a crash must not lose it. We simulate a crash
//! mid-write by truncating the segment file at **every possible offset**
//! inside the final record and at arbitrary earlier tail offsets, then
//! reopen and assert that every record fully written before the
//! truncation point is intact and integrity-checked.
//!
//! Since the codec unification the same torture runs one layer up:
//! `BranchStore::open` must rebuild **typed** state from whatever prefix
//! survived — heads, commit graph, Lamport clock and query answers all
//! equal to the last fully published state before the cut
//! (`typed_reopen_at_every_truncation_point_serves_the_published_prefix`).
//! The `reopen_recovers_the_clock_*` tests pin where `open`'s Lamport
//! clock comes from: every recovered commit's mint and every head state's
//! embedded ticks, each of which some history needs.

mod common;

use common::Scratch;
use peepul::prelude::*;
use peepul::store::segment::CompactionFault;
use peepul::store::{Backend, ObjectId, SegmentBackend, SegmentOptions};
use peepul::types::counter::{Counter, CounterOp, CounterQuery};
use peepul::types::or_set_space::{OrSetOp, OrSetQuery, OrSetSpace};

fn quick() -> SegmentOptions {
    SegmentOptions {
        durable: false,
        ..SegmentOptions::default()
    }
}

/// `quick()` with a tiny rotation cap, so a handful of puts spreads the
/// store across several segments.
fn tiny_segments() -> SegmentOptions {
    SegmentOptions {
        durable: false,
        max_segment_bytes: 256,
        ..SegmentOptions::default()
    }
}

/// Writes `count` objects one at a time, recording the active-segment
/// length after each publish. Returns `(ids, lengths)` with `lengths[i]`
/// = bytes in the active segment once object `i` was published.
fn publish_objects(dir: &std::path::Path, count: usize) -> (Vec<ObjectId>, Vec<u64>) {
    let mut backend = SegmentBackend::open_with(dir, quick()).unwrap();
    let active = backend.active_path();
    let mut ids = Vec::new();
    let mut lengths = Vec::new();
    for i in 0..count {
        let payload = format!("object payload number {i}, padded {}", "x".repeat(i * 7));
        ids.push(backend.put(payload.as_bytes()).unwrap());
        lengths.push(std::fs::metadata(&active).unwrap().len());
    }
    (ids, lengths)
}

/// The single data segment of a fresh `quick()` store — the rotation cap
/// is far above what these sessions write, so nothing ever rotates.
fn active_file(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join("segment-0000.seg")
}

fn truncate(file: &std::path::Path, len: u64) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(file)
        .unwrap()
        .set_len(len)
        .unwrap();
}

#[test]
fn every_truncation_point_preserves_published_records() {
    let scratch = Scratch::new("crash-every-offset");
    let dir = scratch.path().join("db");
    let (ids, lengths) = publish_objects(&dir, 6);
    let file = active_file(&dir);
    let full = *lengths.last().unwrap();

    // Walk backwards over every byte of the file, killing the tail there.
    for cut in (9..=full).rev() {
        truncate(&file, cut);
        let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
        for (i, id) in ids.iter().enumerate() {
            if lengths[i] <= cut {
                // Fully written before the crash point: must be intact…
                let bytes = backend
                    .get(*id)
                    .unwrap_or_else(|e| panic!("cut {cut}, object {i}: {e}"))
                    .unwrap_or_else(|| panic!("cut {cut}: object {i} lost"));
                assert_eq!(
                    ObjectId::from_bytes(peepul::store::sha256::Sha256::digest(&bytes)),
                    *id
                );
            } else {
                // …anything torn is dropped, never served corrupt.
                assert!(backend.get(*id).unwrap().is_none(), "cut {cut}, object {i}");
            }
        }
    }
}

#[test]
fn reopen_after_crash_continues_the_log() {
    let scratch = Scratch::new("crash-continue");
    let dir = scratch.path().join("db");
    let (ids, lengths) = publish_objects(&dir, 4);
    let file = active_file(&dir);

    // Crash in the middle of object 3's record.
    truncate(&file, lengths[2] + (lengths[3] - lengths[2]) / 2);

    // The reopened backend recovers 0..=2, drops 3, and keeps appending.
    let mut backend = SegmentBackend::open_with(&dir, quick()).unwrap();
    assert_eq!(backend.object_count(), 3);
    assert!(!backend.contains(ids[3]).unwrap());
    let replacement = backend.put(b"written by the restarted process").unwrap();
    drop(backend);

    let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
    for id in &ids[..3] {
        assert!(backend.contains(*id).unwrap());
    }
    assert!(backend.contains(replacement).unwrap());
}

#[test]
fn typed_reopen_at_every_truncation_point_serves_the_published_prefix() {
    let scratch = Scratch::new("typed-reopen-every-offset");
    let dir = scratch.path().join("db");
    let file = active_file(&dir);

    // Build a session one publish at a time, recording after each apply
    // the on-disk length, the head commit id, and the expected count —
    // the "last published prefix" ground truth for every cut point.
    let mut checkpoints: Vec<(u64, ObjectId, u64)> = Vec::new();
    {
        let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
        let mut db: BranchStore<Counter, _> = BranchStore::with_backend("main", backend).unwrap();
        checkpoints.push((
            std::fs::metadata(&file).unwrap().len(),
            db.head_id("main").unwrap(),
            0,
        ));
        for i in 1..=6u64 {
            db.branch_mut("main")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
            checkpoints.push((
                std::fs::metadata(&file).unwrap().len(),
                db.head_id("main").unwrap(),
                i,
            ));
        }
    }
    let base = checkpoints.first().unwrap().0;
    let full = checkpoints.last().unwrap().0;

    // Kill the tail at every byte offset and reopen **as typed state**:
    // the recovered head commit, query answer and Lamport clock must be
    // exactly those of the longest fully-published prefix.
    for cut in (base..=full).rev() {
        truncate(&file, cut);
        let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
        let db: BranchStore<Counter, _> =
            BranchStore::open(backend).unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
        let (_, head, count) = checkpoints
            .iter()
            .rev()
            .find(|(len, _, _)| *len <= cut)
            .expect("the root publish is below every cut");
        assert_eq!(db.head_id("main").unwrap(), *head, "cut {cut}: head");
        assert_eq!(
            db.read("main", &CounterQuery::Value).unwrap(),
            *count,
            "cut {cut}: typed query"
        );
        assert_eq!(db.tick(), *count, "cut {cut}: Lamport clock");
    }
}

#[test]
fn typed_reopen_at_every_offset_inside_delta_and_snapshot_records() {
    let scratch = Scratch::new("typed-reopen-delta-offsets");
    let dir = scratch.path().join("db");
    let file = active_file(&dir);

    // Snapshot every 3 commits: a chat-log session (each append grows
    // the state by a fat message, so the delta record is always the
    // smaller encoding) then writes both O(delta) state records and
    // periodic full snapshots, and the truncation sweep below cuts
    // through every byte of both kinds.
    let opts = || SegmentOptions {
        durable: false,
        ..SegmentOptions::default()
    };
    type Log = peepul::types::log::MergeableLog<String>;
    let query = peepul::types::log::LogQuery::Read;
    let mut checkpoints: Vec<(u64, ObjectId, usize, u64)> = Vec::new();
    {
        let backend = SegmentBackend::open_with(&dir, opts()).unwrap();
        let mut db: BranchStore<Log, _> = BranchStore::with_backend("main", backend).unwrap();
        db.set_snapshot_interval(3);
        let mut deltas = 0;
        for i in 0..8u32 {
            db.branch_mut("main")
                .unwrap()
                .apply(&peepul::types::log::LogOp::Append(format!(
                    "chat message number {i}, padded {}",
                    "x".repeat(40)
                )))
                .unwrap();
            checkpoints.push((
                std::fs::metadata(&file).unwrap().len(),
                db.head_id("main").unwrap(),
                db.read("main", &query).unwrap().len(),
                db.tick(),
            ));
            if db
                .state_stored_delta(db.state_id("main").unwrap())
                .unwrap()
                .is_some()
            {
                deltas += 1;
            }
        }
        assert!(deltas >= 4, "the session must actually store deltas");
        assert!(deltas < 8, "interval 3 must force periodic snapshots");
    }
    let base = checkpoints.first().unwrap().0;
    let full = checkpoints.last().unwrap().0;

    // Kill the tail at every byte offset — inside delta records and
    // snapshot records alike — and reopen as typed state: the recovered
    // head, elements and clock are exactly those of the longest fully
    // published prefix, and every surviving state's record chain still
    // resolves from disk.
    for cut in (base..=full).rev() {
        truncate(&file, cut);
        let backend = SegmentBackend::open_with(&dir, opts()).unwrap();
        let db: BranchStore<Log, _> =
            BranchStore::open(backend).unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
        let (_, head, len, tick) = checkpoints
            .iter()
            .rev()
            .find(|(l, _, _, _)| *l <= cut)
            .expect("the root publish is below every cut");
        assert_eq!(db.head_id("main").unwrap(), *head, "cut {cut}: head");
        assert_eq!(
            db.read("main", &query).unwrap().len(),
            *len,
            "cut {cut}: typed query"
        );
        assert_eq!(db.tick(), *tick, "cut {cut}: Lamport clock");
        for c in db.commits_between(&[*head], &[]) {
            let oid = db.state_oid(c);
            assert!(
                db.state_bytes(oid).unwrap().is_some(),
                "cut {cut}: surviving state {oid:?} must resolve"
            );
        }
    }
}

#[test]
fn typed_reopen_recovers_multi_branch_stores_after_a_torn_tail() {
    let scratch = Scratch::new("typed-reopen-branches");
    let dir = scratch.path().join("db");

    // A multi-branch OR-set session, recording what each head looked like
    // the moment it was published (head commit id → elements).
    let mut published: Vec<(ObjectId, Vec<u32>)> = Vec::new();
    {
        let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
        let mut db: BranchStore<OrSetSpace<u32>, _> =
            BranchStore::with_backend("main", backend).unwrap();
        let snap = |db: &BranchStore<OrSetSpace<u32>, SegmentBackend>, b: &str| {
            let peepul::types::or_set_space::OrSetOutput::Elements(e) =
                db.read(b, &OrSetQuery::Read).unwrap()
            else {
                panic!("read returns elements")
            };
            (db.head_id(b).unwrap(), e)
        };
        published.push(snap(&db, "main"));
        db.branch_mut("main").unwrap().fork("dev").unwrap();
        for i in 0..4 {
            db.branch_mut("main")
                .unwrap()
                .apply(&OrSetOp::Add(i))
                .unwrap();
            published.push(snap(&db, "main"));
            db.branch_mut("dev")
                .unwrap()
                .apply(&OrSetOp::Add(i + 100))
                .unwrap();
            published.push(snap(&db, "dev"));
        }
        db.branch_mut("main").unwrap().merge_from("dev").unwrap();
        published.push(snap(&db, "main"));
    }

    // Crash mid-record, then reopen as typed state. Whatever head each
    // surviving ref points at, the typed store must answer queries exactly
    // as it did when that head was live.
    let file = active_file(&dir);
    truncate(&file, std::fs::metadata(&file).unwrap().len() - 5);
    let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
    let db: BranchStore<OrSetSpace<u32>, _> = BranchStore::open(backend).unwrap();
    assert!(!db.branch_names().is_empty());
    for b in db.branch_names() {
        let head = db.head_id(b).unwrap();
        let expected = published
            .iter()
            .find(|(h, _)| *h == head)
            .unwrap_or_else(|| panic!("{b}: recovered head {} was never published", head.short()));
        let peepul::types::or_set_space::OrSetOutput::Elements(e) =
            db.read(b, &OrSetQuery::Read).unwrap()
        else {
            panic!("read returns elements")
        };
        assert_eq!(e, expected.1, "{b}: typed state matches publish-time");
    }
}

#[test]
fn branch_store_heads_survive_crash_reopen() {
    let scratch = Scratch::new("crash-store");
    let dir = scratch.path().join("db");

    // A full store session: commits and ref updates interleaved.
    let (heads, seg_len) = {
        let backend = SegmentBackend::open_with(&dir, quick()).unwrap();
        let mut db: BranchStore<Counter, _> = BranchStore::with_backend("main", backend).unwrap();
        db.branch_mut("main").unwrap().fork("dev").unwrap();
        for _ in 0..5 {
            db.branch_mut("main")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
            db.branch_mut("dev")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
        }
        db.branch_mut("main").unwrap().merge_from("dev").unwrap();
        (db.backend().refs().unwrap(), db.backend().disk_bytes())
    };

    // Crash: tear off the last 5 bytes (mid-record), then reopen.
    let file = active_file(&dir);
    truncate(&file, std::fs::metadata(&file).unwrap().len() - 5);
    let reopened = SegmentBackend::open_with(&dir, quick()).unwrap();

    // The torn record was the *only* loss: every published commit — in
    // particular every branch head the refs point at — is intact.
    for (branch, head) in &heads {
        // The last ref write may itself have been the torn record; if the
        // ref survived, the commit it points at must be retrievable.
        if let Some(id) = reopened.get_ref(branch).unwrap() {
            assert!(
                reopened.get(id).unwrap().is_some(),
                "{branch}: surviving ref points at a lost commit"
            );
            if id == *head {
                assert!(reopened.get(*head).unwrap().is_some());
            }
        }
    }
    assert!(reopened.disk_bytes() <= seg_len);
    assert!(reopened.object_count() > 0);
}

/// Drives a typed session across several tiny segments and returns the
/// ground truth a crash-recovery must reproduce: per-branch head ids and
/// counter values, plus the store tick.
type SessionTruth = (Vec<(String, ObjectId, u64)>, u64);

fn multi_segment_session(dir: &std::path::Path) -> BranchStore<Counter, SegmentBackend> {
    let backend = SegmentBackend::open_with(dir, tiny_segments()).unwrap();
    let mut db: BranchStore<Counter, _> = BranchStore::with_backend("main", backend).unwrap();
    db.branch_mut("main").unwrap().fork("dev").unwrap();
    for _ in 0..8 {
        db.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        db.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
    }
    db.branch_mut("main").unwrap().merge_from("dev").unwrap();
    assert!(
        db.backend().file_names().len() > 2,
        "the session must span several segments: {:?}",
        db.backend().file_names()
    );
    db
}

fn truth_of(db: &BranchStore<Counter, SegmentBackend>) -> SessionTruth {
    let branches = db
        .branch_names()
        .iter()
        .map(|b| {
            (
                b.to_string(),
                db.head_id(b).unwrap(),
                db.read(b, &CounterQuery::Value).unwrap(),
            )
        })
        .collect();
    (branches, db.tick())
}

fn assert_recovers_exactly(dir: &std::path::Path, truth: &SessionTruth) {
    let backend = SegmentBackend::open_with(dir, tiny_segments()).unwrap();
    let db: BranchStore<Counter, _> = BranchStore::open(backend).unwrap();
    assert_eq!(truth_of(&db), *truth, "recovered store differs from truth");
}

#[test]
fn reopen_after_crash_mid_rotation_recovers_everything() {
    let scratch = Scratch::new("crash-mid-rotation");
    let dir = scratch.path().join("db");
    let truth = {
        let mut db = multi_segment_session(&dir);
        let t = truth_of(&db);
        // Crash between creating the successor segment and the manifest
        // swap: the new file exists on disk but no manifest lists it.
        db.backend_mut().crash_mid_rotation().unwrap();
        t
    };
    assert_recovers_exactly(&dir, &truth);
    // The orphaned successor was swept at reopen.
    let segs = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".seg"))
        .count();
    let listed = SegmentBackend::open_with(&dir, tiny_segments())
        .unwrap()
        .file_names()
        .len();
    assert_eq!(segs, listed, "unlisted rotation debris must be deleted");
}

#[test]
fn reopen_after_crash_mid_compaction_recovers_at_every_fault_point() {
    for fault in [
        CompactionFault::AfterTempWrite,
        CompactionFault::AfterPackRename,
        CompactionFault::AfterManifestSwap,
    ] {
        let scratch = Scratch::new("crash-mid-compaction");
        let dir = scratch.path().join("db");
        let truth = {
            let mut db = multi_segment_session(&dir);
            let t = truth_of(&db);
            db.backend_mut().compact_with_fault(fault).unwrap();
            t
        };
        // Whatever manifest the crash left (pre- or post-swap), reopen
        // serves exactly the published session — and a second, completed
        // compaction still reaches the packed steady state.
        assert_recovers_exactly(&dir, &truth);
        let backend = SegmentBackend::open_with(&dir, tiny_segments()).unwrap();
        let mut db: BranchStore<Counter, _> = BranchStore::open(backend).unwrap();
        db.compact_storage().unwrap();
        assert_eq!(db.backend().file_names().len(), 2, "fault {fault:?}");
        assert_eq!(truth_of(&db), truth, "fault {fault:?}: post-compaction");
    }
}

#[test]
fn gc_then_reopen_recovers_graph_tick_and_branches() {
    let scratch = Scratch::new("crash-gc-reopen");
    let dir = scratch.path().join("db");
    let (branches_before, commits_before) = {
        let mut db = multi_segment_session(&dir);
        // Strand some history: work on a scratch branch, then repoint its
        // ref back at main's head — the scratch commits stay in the
        // graph but no ref reaches them, so GC must reclaim them.
        db.branch_mut("main").unwrap().fork("scratch").unwrap();
        for _ in 0..4 {
            db.branch_mut("scratch")
                .unwrap()
                .apply(&CounterOp::Increment)
                .unwrap();
        }
        let main_head = db.head_id("main").unwrap();
        db.force_track("scratch", main_head).unwrap();
        let commit_count = db.commit_count();
        let swept = db.collect_garbage().unwrap();
        assert!(swept.dead_objects > 0, "stranded commits must be dead");
        (truth_of(&db).0, commit_count)
    };

    // Reopen once: this is the post-GC ground truth (branch heads and
    // values are untouched by GC; the Lamport clock recovers as the max
    // over *reachable* history — the stranded mints are gone with their
    // commits, which is exactly what GC promised).
    let truth = {
        let backend = SegmentBackend::open_with(&dir, tiny_segments()).unwrap();
        let db: BranchStore<Counter, _> = BranchStore::open(backend).unwrap();
        assert_eq!(truth_of(&db).0, branches_before, "GC altered a branch");
        assert!(
            db.commit_count() < commits_before,
            "the stranded commits must not come back at reopen"
        );
        truth_of(&db)
    };
    // And reopen is a fixed point: graph, tick and branch table are
    // stable across further reopens of the GC'd + compacted store.
    assert_recovers_exactly(&dir, &truth);
}

/// CI's cross-run storage-format stability gate. When
/// `PEEPUL_FIXTURE_DIR` is set (the crash job points it at a directory
/// held in `actions/cache`, keyed on the storage-engine sources), this
/// test either builds a deterministic multi-segment fixture there or —
/// when the cache restored one from an *earlier CI run* — reopens it
/// and checks the known truth. A cached fixture that no longer opens
/// means the on-disk format changed without changing the cache key's
/// source files. Locally (env unset) the test is a no-op.
#[test]
fn cached_fixture_reopens_across_ci_runs() {
    let Ok(dir) = std::env::var("PEEPUL_FIXTURE_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    const INCREMENTS: u64 = 42;
    if dir.join("manifest").exists() {
        // Restored from cache: yesterday's bytes must open today.
        let backend = SegmentBackend::open_with(&dir, tiny_segments()).unwrap();
        let db: BranchStore<Counter, _> = BranchStore::open(backend).unwrap();
        assert_eq!(
            db.read("main", &CounterQuery::Value).unwrap(),
            INCREMENTS,
            "cached fixture decodes to the wrong value — storage format drifted"
        );
        assert!(
            db.backend().file_names().len() > 2,
            "fixture lost its segments"
        );
        return;
    }
    let backend = SegmentBackend::open_with(&dir, tiny_segments()).unwrap();
    let mut db: BranchStore<Counter, _> = BranchStore::with_backend("main", backend).unwrap();
    for _ in 0..INCREMENTS {
        db.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
    }
    db.flush().unwrap();
    assert!(
        db.backend().file_names().len() > 2,
        "fixture must span segments"
    );
}

/// Two branches, two merges, six operations: `main` runs ops 0, 1, 3
/// and 5, `dev` runs ops 2 and 4, and each merges the other once.
fn forked_history<M: Mrdt>(ops: [M::Op; 6]) -> BranchStore<M> {
    let mut store: BranchStore<M> = BranchStore::new("main");
    let [a0, a1, a2, a3, a4, a5] = ops;
    let apply = |store: &mut BranchStore<M>, branch: &str, op: &M::Op| {
        store.branch_mut(branch).unwrap().apply(op).unwrap();
    };
    apply(&mut store, "main", &a0);
    apply(&mut store, "main", &a1);
    store.branch_mut("main").unwrap().fork("dev").unwrap();
    apply(&mut store, "dev", &a2);
    apply(&mut store, "main", &a3);
    store.branch_mut("main").unwrap().merge_from("dev").unwrap();
    apply(&mut store, "dev", &a4);
    store.branch_mut("dev").unwrap().merge_from("main").unwrap();
    apply(&mut store, "main", &a5);
    store
}

/// Reopens `store`'s backend and checks the recovered Lamport clock
/// against every commit: at or past its mint and every tick its state
/// embeds. Then the same for a store seeded by a peer's root commit that
/// carries `store`'s richest head state under the `(0, 0)` mint, so only
/// the state itself knows its ticks.
fn assert_clock_recovered<M: Mrdt>(store: &BranchStore<M>) {
    fn check<M: Mrdt>(reopened: &BranchStore<M>, case: &str) {
        for c in reopened.graph().ids() {
            let embedded = reopened.state_at(c).unwrap().max_tick();
            let minted = reopened.commit_mint(c).tick();
            assert!(
                reopened.tick() >= minted.max(embedded),
                "{case}: clock {} behind commit {c:?} (mint {minted}, state {embedded})",
                reopened.tick()
            );
        }
    }
    let reopened = BranchStore::<M>::open(store.backend().clone()).unwrap();
    assert_eq!(reopened.tick(), store.tick(), "history: clock recovered");
    check(&reopened, "history");

    let richest = store
        .branch_names()
        .into_iter()
        .map(|b| store.state(b).unwrap())
        .max_by_key(|s| s.max_tick())
        .unwrap();
    assert!(richest.max_tick() > 0);
    let bytes = peepul::store::canonical_bytes(&*richest);
    let sid = peepul::store::content_id_of_bytes(&bytes);
    let root = peepul::store::commit_record(&[], sid, 0, 0);
    let root_id = peepul::store::content_id_of_bytes(&root);
    let mut seeded: BranchStore<M> = BranchStore::new("main");
    let state = peepul::store::PackState::Full {
        id: sid,
        bytes: &bytes,
    };
    seeded.ingest_pack(&[(root_id, &root)], &[state]).unwrap();
    seeded.track("seed", root_id).unwrap();
    let reopened = BranchStore::<M>::open(seeded.backend().clone()).unwrap();
    assert_eq!(
        reopened.tick(),
        richest.max_tick(),
        "seeded: clock recovered"
    );
    check(&reopened, "seeded");
}

#[test]
fn reopen_recovers_the_clock_past_a_queues_dequeues() {
    use peepul::types::queue::QueueOp::{Dequeue, Enqueue};
    let store = forked_history::<Queue<u64>>([
        Enqueue(1),
        Enqueue(2),
        Enqueue(3),
        Dequeue,
        Dequeue,
        Dequeue,
    ]);
    // The last dequeue's mint is the largest tick, and no state holds it.
    let embedded = ["main", "dev"].map(|b| store.state(b).unwrap().max_tick());
    assert!(embedded.iter().all(|t| *t < store.tick()), "{embedded:?}");
    assert_clock_recovered(&store);
}

#[test]
fn reopen_recovers_the_clock_past_an_or_sets_removes() {
    use peepul::types::or_set::OrSetOp::{Add, Remove};
    let store =
        forked_history::<OrSet<u64>>([Add(1), Add(2), Add(3), Remove(2), Remove(3), Remove(1)]);
    let embedded = ["main", "dev"].map(|b| store.state(b).unwrap().max_tick());
    assert!(embedded.iter().all(|t| *t < store.tick()), "{embedded:?}");
    assert_clock_recovered(&store);
}

#[test]
fn reopen_recovers_the_clock_of_lww_registers_and_maps() {
    use peepul::types::lww_register::LwwOp::Write;
    use peepul::types::map::MapOp::Set;
    assert_clock_recovered(&forked_history::<LwwRegister<u64>>([
        Write(1),
        Write(2),
        Write(3),
        Write(4),
        Write(5),
        Write(6),
    ]));
    let set = |k: &str, v: &str| Set(k.to_owned(), Write(v.to_owned()));
    assert_clock_recovered(&forked_history::<MrdtMap<LwwRegister<String>>>([
        set("a", "1"),
        set("b", "2"),
        set("a", "3"),
        set("c", "4"),
        set("b", "5"),
        set("a", "6"),
    ]));
}
