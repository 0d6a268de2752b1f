//! The kill test for the store's single delta resolver
//! (`branch/records.rs::resolve_state_record`): a hand-built backend with a
//! snapshot, an honest delta link and one *broken interior* link, resolved
//! through all three consumers — `BranchStore::open` (which resolves and
//! hash-checks each branch head's chain, and reads only the record
//! envelope of every other state), `state_bytes` of a descendant, and
//! `ingest_pack` of the same link as a `PackState::Delta`.
//!
//! A broken link *on* a head's chain fails `open`; one *off* every head's
//! chain passes `open` and fails the first read that reaches it. Either
//! way the error is the broken link's, never a wrong state. The envelope
//! pass also rebuilds the delta-chain index, so a store reopened mid-chain
//! keeps its chain bound and its garbage collection keeps every base.

use peepul_core::{Delta, Wire};
use peepul_store::{
    state_record_delta, Backend, BranchStore, MemoryBackend, ObjectId, PackState, StoreError,
};
use peepul_types::g_set::{GSet, GSetOp};
use peepul_types::log::{LogOp, MergeableLog};

type Log = MergeableLog<String>;

fn append(store: &mut BranchStore<Log>, i: u32) {
    append_to(store, "main", i);
}

fn append_to(store: &mut BranchStore<Log>, branch: &str, i: u32) {
    store
        .branch_mut(branch)
        .unwrap()
        .apply(&LogOp::Append(format!(
            "message {i}, padded so a delta record is the smaller form {}",
            "x".repeat(40)
        )))
        .unwrap();
}

/// A copy of `honest`'s backend in which the record under `victim` is
/// replaced by a delta record `(base, delta_wire)`.
fn tampered(
    honest: &BranchStore<Log>,
    victim: ObjectId,
    base: ObjectId,
    delta_wire: &[u8],
) -> MemoryBackend {
    let mut backend = MemoryBackend::new();
    for id in honest.live_objects() {
        let record = if id == victim {
            state_record_delta(base, delta_wire)
        } else {
            honest.backend().get(id).unwrap().unwrap()
        };
        backend.put_keyed(id, &record).unwrap();
    }
    for (name, head) in honest.backend().refs().unwrap() {
        backend.set_ref(&name, head).unwrap();
    }
    backend
}

#[test]
fn a_broken_interior_delta_link_is_refused_by_every_consumer() {
    // s0 (a snapshot: its delta against the empty root is no smaller) ←
    // s1 ← s2 ← s3: three honest delta links. The receiver is the same
    // store frozen after s1, so it holds s2's base.
    let mut honest: BranchStore<Log> = BranchStore::new("main");
    append(&mut honest, 0);
    append(&mut honest, 1);
    let receiver = honest.clone();
    append(&mut honest, 2);
    append(&mut honest, 3);

    let history = honest.branch("main").unwrap().history(); // newest first
    let [s3, s2, s1, s0] = [0, 1, 2, 3].map(|i| honest.state_oid(history[i]));
    let c2 = honest.commit_oid(history[1]);
    let c2_record = honest.commit_record_bytes(c2).unwrap().unwrap();
    let (base, honest_wire) = honest.state_stored_delta(s2).unwrap().unwrap();
    assert_eq!(base, s1, "s2 is stored as a delta against s1");
    assert!(honest.state_stored_delta(s3).unwrap().is_some());
    assert!(honest.state_stored_delta(s1).unwrap().is_some());
    assert!(honest.state_stored_delta(s0).unwrap().is_none());

    // Drifted: well-framed, applies cleanly to s1's bytes, but resolves to
    // s3's (perfectly decodable) bytes instead of s2's.
    let drifted = Delta::splice(
        &honest.state_bytes(s1).unwrap().unwrap(),
        &honest.state_bytes(s3).unwrap().unwrap(),
    )
    .to_wire();
    let missing = peepul_store::content_id(&"no such state".to_string());

    type Check = fn(&StoreError, ObjectId) -> bool;
    let table: [(&str, ObjectId, &[u8], Check); 4] = [
        ("drifted link", s1, &drifted, |e, link| {
            matches!(e, StoreError::CorruptObject { expected, .. } if *expected == link)
                && e.to_string().contains("does not hash to its address")
        }),
        (
            "missing base",
            missing,
            &honest_wire,
            |e, _| matches!(e, StoreError::Corrupt(m) if m.contains("missing base")),
        ),
        (
            "cyclic chain",
            s2,
            &honest_wire,
            |e, _| matches!(e, StoreError::Corrupt(m) if m.contains("cyclic delta chain")),
        ),
        (
            "malformed delta",
            s1,
            &[0xff, 0xff, 0xff],
            |e, _| matches!(e, StoreError::Corrupt(m) if m.contains("malformed delta")),
        ),
    ];

    for (case, base, delta_wire, is_expected) in table {
        let backend = tampered(&honest, s2, base, delta_wire);

        // Consumer 1: the typed reopen resolves head s3, whose chain runs
        // through s2.
        let err = BranchStore::<Log>::open(backend.clone()).unwrap_err();
        assert!(is_expected(&err, s2), "{case}: open said: {err}");

        // Consumer 2: serving a descendant walks through the broken link.
        let mut serving = honest.clone();
        *serving.backend_mut() = backend;
        let err = serving.state_bytes(s3).unwrap_err();
        assert!(is_expected(&err, s2), "{case}: state_bytes said: {err}");

        // Consumer 3: the same link arriving in a pack.
        let mut dst = receiver.clone();
        let (objects, commits) = (dst.backend().object_count(), dst.commit_count());
        let pack_state = PackState::Delta {
            id: s2,
            base,
            delta: delta_wire,
        };
        let err = dst
            .ingest_pack(&[(c2, c2_record.as_slice())], &[pack_state])
            .unwrap_err();
        assert!(is_expected(&err, s2), "{case}: ingest_pack said: {err}");
        assert_eq!(dst.backend().object_count(), objects, "{case}: no write");
        assert_eq!(dst.commit_count(), commits, "{case}: no commit");
    }

    // Control: the honest link passes all three.
    let backend = tampered(&honest, s2, s1, &honest_wire);
    let reopened = BranchStore::<Log>::open(backend).unwrap();
    assert_eq!(
        reopened.state_bytes(s3).unwrap(),
        honest.state_bytes(s3).unwrap()
    );
    let mut dst = receiver.clone();
    let pack_state = PackState::Delta {
        id: s2,
        base: s1,
        delta: &honest_wire,
    };
    let report = dst
        .ingest_pack(&[(c2, c2_record.as_slice())], &[pack_state])
        .unwrap();
    assert_eq!((report.commits, report.delta_states), (1, 1));
    assert!(dst.state_stored_delta(s2).unwrap().is_some());
}

#[test]
fn a_drifted_state_off_every_heads_chain_fails_its_first_read_not_open() {
    // main: s0 ← s1 ← s3 ← m (the merge), side: s1 ← t2. Once side
    // fast-forwards to m, both heads resolve through m's chain, and t2
    // sits off it.
    let mut honest: BranchStore<Log> = BranchStore::new("main");
    append(&mut honest, 0);
    append(&mut honest, 1);
    honest.branch_mut("main").unwrap().fork("side").unwrap();
    append_to(&mut honest, "side", 2);
    let c2 = honest.head("side").unwrap();
    append(&mut honest, 3);
    honest
        .branch_mut("main")
        .unwrap()
        .merge_from("side")
        .unwrap();
    let merged = honest.head_id("main").unwrap();
    honest.track("side", merged).unwrap();

    let t2 = honest.state_oid(c2);
    let s1 = honest.state_oid(honest.graph().parents(c2)[0]);
    let s3 = honest.state_oid(honest.graph().parents(honest.head("main").unwrap())[0]);
    let drifted = Delta::splice(
        &honest.state_bytes(s1).unwrap().unwrap(),
        &honest.state_bytes(s3).unwrap().unwrap(),
    )
    .to_wire();
    let reopened = BranchStore::<Log>::open(tampered(&honest, t2, s1, &drifted)).unwrap();

    for branch in ["main", "side"] {
        assert_eq!(reopened.head_id(branch), honest.head_id(branch));
        assert_eq!(reopened.state(branch), honest.state(branch));
        let sid = reopened.state_id(branch).unwrap();
        assert_eq!(reopened.state_bytes(sid), honest.state_bytes(sid));
    }
    let is_t2s =
        |e: StoreError| matches!(e, StoreError::CorruptObject { expected, .. } if expected == t2);
    let c2 = reopened.find_commit(honest.commit_oid(c2)).unwrap();
    assert!(is_t2s(reopened.state_at(c2).unwrap_err()));
    assert!(is_t2s(reopened.state_bytes(t2).unwrap_err()));
    // Nothing wrong was cached: the second read fails the same way.
    assert!(is_t2s(reopened.state_at(c2).unwrap_err()));
}

/// Delta links between `id` and its snapshot, walked through the stored
/// records.
fn chain_links<M: peepul_core::Mrdt>(store: &BranchStore<M>, mut id: ObjectId) -> u32 {
    let mut links = 0;
    while let Some((base, _)) = store.state_stored_delta(id).unwrap() {
        links += 1;
        id = base;
    }
    links
}

#[test]
fn a_store_reopened_mid_chain_keeps_every_chain_under_the_bound() {
    const K: u32 = 4;
    // main: s0 ← s1 ← s2 (head, two links deep); side: s1 ← t2 ← t3 and
    // a snapshot t4, so t2 and t3 sit mid-chain off every head's chain.
    let mut store: BranchStore<Log> = BranchStore::new("main");
    store.set_snapshot_interval(K);
    append(&mut store, 0);
    append(&mut store, 1);
    store.branch_mut("main").unwrap().fork("side").unwrap();
    for i in 2..5 {
        append_to(&mut store, "side", 10 + i);
    }
    append(&mut store, 2);
    let t2 = store
        .graph()
        .parents(store.graph().parents(store.head("side").unwrap())[0])[0];
    assert_eq!(chain_links(&store, store.state_id("main").unwrap()), 2);
    assert_eq!(chain_links(&store, store.state_oid(t2)), 2);
    assert_eq!(chain_links(&store, store.state_id("side").unwrap()), 0);

    let mut reopened = BranchStore::<Log>::open(store.backend().clone()).unwrap();
    reopened.set_snapshot_interval(K);
    reopened.track("probe", store.commit_oid(t2)).unwrap();
    for i in 0..K {
        append_to(&mut reopened, "main", 20 + i);
        append_to(&mut reopened, "probe", 30 + i);
    }
    for c in reopened.graph().ids() {
        let links = chain_links(&reopened, reopened.state_oid(c));
        assert!(links < K, "commit {c:?} resolves through {links} links");
    }
}

#[test]
fn collecting_garbage_after_reopen_keeps_every_delta_base() {
    let add = |store: &mut BranchStore<GSet<String>>, branch: &str, e: &str| {
        let e = format!(
            "element {e}, padded so a delta record is the smaller form {}",
            "x".repeat(40)
        );
        store
            .branch_mut(branch)
            .unwrap()
            .apply(&GSetOp::Add(e))
            .unwrap();
    };
    // x stores {A, B} as a delta against {A}; y reaches the same {A, B}
    // from {B}, so y's commit carries x's delta record. y then runs to a
    // snapshot, so {A, B} sits off every head's chain, and x moves back
    // to the root, so no reachable commit carries {A}.
    let mut store: BranchStore<GSet<String>> = BranchStore::new("main");
    store.set_snapshot_interval(4);
    let root = store.head_id("main").unwrap();
    for branch in ["x", "y"] {
        store.branch_mut("main").unwrap().fork(branch).unwrap();
    }
    add(&mut store, "x", "A");
    let a = store.state_id("x").unwrap();
    add(&mut store, "x", "B");
    let ab = store.state_id("x").unwrap();
    for e in ["B", "A", "C", "D", "E"] {
        add(&mut store, "y", e);
    }
    assert_eq!(store.state_stored_delta(ab).unwrap().unwrap().0, a);
    assert_eq!(chain_links(&store, store.state_id("y").unwrap()), 0);
    store.force_track("x", root).unwrap();

    let mut reopened = BranchStore::<GSet<String>>::open(store.backend().clone()).unwrap();
    assert!(!reopened.has_state(a));
    let stats = reopened.collect_garbage().unwrap();
    assert!(stats.dead_objects > 0, "x's stranded commits are collected");
    for c in reopened.graph().ids() {
        let sid = reopened.state_oid(c);
        if let Some((base, _)) = reopened.state_stored_delta(sid).unwrap() {
            assert!(
                reopened.backend().contains(base).unwrap(),
                "base of {sid} collected"
            );
        }
        let before = store.find_commit(reopened.commit_oid(c)).unwrap();
        assert_eq!(
            reopened.state_at(c).unwrap(),
            store.state_at(before).unwrap()
        );
    }
}
