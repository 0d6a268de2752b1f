//! The kill test for the store's single delta resolver
//! (`branch/records.rs::resolve_state_record`): a hand-built backend with a
//! snapshot, an honest delta link and one *broken interior* link, resolved
//! through all three consumers — `BranchStore::open`, `state_bytes` of a
//! descendant, and `ingest_pack` of the same link as a `PackState::Delta`.

use peepul_core::{Delta, Wire};
use peepul_store::{
    state_record_delta, Backend, BranchStore, MemoryBackend, ObjectId, PackState, StoreError,
};
use peepul_types::log::{LogOp, MergeableLog};

type Log = MergeableLog<String>;

fn append(store: &mut BranchStore<Log>, i: u32) {
    store
        .branch_mut("main")
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

        // Consumer 1: the typed reopen resolves every reachable state.
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
