//! Digest goldens: content addresses that no change to the hash may move.
//!
//! Every state and commit is stored, shipped and verified under
//! `sha256(canonical bytes)`, so a SHA-256 implementation that differs
//! from the reference in even one block breaks every existing segment
//! file and every cross-version pull. `codec_golden` pins the bytes; this
//! test pins the addresses of those bytes, of one multi-block state, of
//! the head of a fixed branch-and-merge history and of the head state of a
//! criss-cross OR-set history, whose merges have several merge bases. The expected values were
//! produced by the plain scalar compress, so whichever compress the host
//! selects must reproduce them exactly.

use peepul::core::{Mrdt, ReplicaId, Timestamp};
use peepul::store::{canonical_bytes, content_id, content_id_of_bytes, BranchStore};
use peepul::types::or_set_space::{OrSetOp, OrSetSpace};
use peepul::types::queue::{Queue, QueueOp};
use std::path::PathBuf;

/// `content_id_of_bytes` of each `tests/fixtures/codec/*.hex` fixture.
#[rustfmt::skip]
const FIXTURE_IDS: &[(&str, &str)] = &[
    ("avl_map", "312b1204bd280b273d8622117a500161689e2848427e24cbe6f407c18cebc2d6"),
    ("chat", "accbd8f6999cf00cb95cb068617cafa58b4873f0187ee1adf202ad93f93216c3"),
    ("commit_record", "04b5520909bcacd57d6f6a532ad10c6c54b32440878372de6c65b4dc404db2fd"),
    ("counter", "35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b"),
    ("counter_delta", "acfaa086c8f4a3d266f73105599e6586da1e1264ee09e611c08da12a46e85c11"),
    ("ew_flag", "13f2b2dc384b50c7cf4ca051699b57dd3805912688394bd05e9d51df1cc7bc15"),
    ("ew_flag_space", "2b95a414d880e7cefcefcd0f3c3f106f73877ce5a638cc7527a00537191551b8"),
    ("g_map", "c413b5a24fb7b10bf5a354a4ba2003e880eb5d08f7bf5aa65f0f3368e5d363e8"),
    ("g_map_delta", "26e34c97300762dc7e5d5cd2bb16cdefaab97653c1bdbbb511161300355aa67d"),
    ("g_map_op_delta", "13b59ab2013f262e1098a83403284ad839e0211e7923c0eaf49fff6100ef4993"),
    ("g_set", "7d882e1cd8f1f0b5929481976c2259c82b58eceee353c6f08fdf1798b65a4b18"),
    ("log", "c767f4e068e9b8d878928c7db09992cab8dce6244ac3613ad0d4914f8d2344a9"),
    ("log_delta", "1ef2efee61eb7f252115502c473943fa35c4c2a0332fd4007f8bcb01b0d1d9ab"),
    ("lww_register", "040aacd27a7246b4fe26d1c7f86032309bcea1e30f386b7afaa094ca73b773be"),
    ("or_set", "71b0311f58a5f909a854e9ecf7728cb6950b7f81ff498b76e1f659ac144b7d06"),
    ("or_set_space", "d0fda6f7e4aa041076c9699170b3b560e1c4596fb8832d8b55f6a36afcd901c9"),
    ("or_set_space_delta", "2e92ca3024f6107657a0fed46f22e589fbe264020285bc5c7c46830f5132ebe3"),
    ("or_set_space_op_delta", "ab37d080730d6898181a0598920d94c40fa7eb267402561845433994b57a08ec"),
    ("or_set_spacetime", "e9011fb866ba5b84caaf05660eb7f25e0c12df2077a8e1ddd41ba3f059756bd3"),
    ("pn_counter", "66c313335fc249aefd7420b063da1bbd123fa61351b9517955aa2623eba94038"),
    ("queue", "916c5a81675a638d6ab751823035979d11a8d63f8a949fa707113b6a4187a8ef"),
    ("queue_op_delta_dequeue", "f8ea68666d4699b6b34cdeff3115362eff2b2d10285ca986c80ee5d0a0867e0e"),
    ("queue_op_delta_enqueue", "d5c0991446e6cc2a94ab7432d462b3a7b68bdeb2142c6f82bb9440599c7b742e"),
];

/// `content_id` of [`resident_queue`].
const RESIDENT_QUEUE_ID: &str = "3a488da27112aad7728a070e112469b802db6af71c0d820f63f4a56f08dbdacd";

/// `head_id("main")` after [`twenty_step_history`].
const HISTORY_HEAD_ID: &str = "cadce6142883cae7dac1098f5b46c09b13c47e50541fbf05b282700a6874bc45";

/// `state_id("b0")` after [`crisscross_history`].
const CRISSCROSS_STATE_ID: &str =
    "41d7fddae37c42a22348cfbf6caa5dcd9defed43cb694852df5b17da2dd9cb2d";

fn from_hex(s: &str) -> Vec<u8> {
    let s = s.trim();
    assert!(s.len().is_multiple_of(2), "fixture must be whole bytes");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("fixture is hex"))
        .collect()
}

/// A 1 000-entry queue enqueued at fixed timestamps, like the benchmark's
/// resident `local_first_ops` queue: 20 016 bytes, 313 compressed blocks.
fn resident_queue() -> Queue<u64> {
    let mut q = Queue::initial();
    for i in 0..1000u64 {
        q = q
            .apply(
                &QueueOp::Enqueue(i),
                Timestamp::new(i + 1, ReplicaId::new(0)),
            )
            .0;
    }
    q
}

/// Twenty store steps on two branches: updates on both, a fork, and
/// merges each way, so the head commit covers merge commits too.
fn twenty_step_history() -> BranchStore<Queue<u64>> {
    let mut store: BranchStore<Queue<u64>> = BranchStore::new("main");
    let mut main = store.branch_mut("main").unwrap();
    for v in 0..6 {
        main.apply(&QueueOp::Enqueue(v)).unwrap();
    }
    main.fork("peer").unwrap();
    for step in 0..13u64 {
        let (on, from) = if step % 2 == 0 {
            ("main", "peer")
        } else {
            ("peer", "main")
        };
        let mut b = store.branch_mut(on).unwrap();
        match step % 4 {
            3 => b.merge_from(from).unwrap(),
            2 => drop(b.apply(&QueueOp::Dequeue).unwrap()),
            _ => drop(b.apply(&QueueOp::Enqueue(100 + step)).unwrap()),
        }
    }
    store
}

/// Six branches forked from a 40-element root, then six cycles: each
/// branch applies four seeded adds or removes, then each merges from a
/// partner that rotates with the cycle, in branch order, so a branch
/// often merges from one that has just merged from it. Returns the store
/// and how many of its merges had more than one merge base.
fn crisscross_history() -> (BranchStore<OrSetSpace<u64>>, usize) {
    let names: Vec<String> = (0..6).map(|b| format!("b{b}")).collect();
    let mut store: BranchStore<OrSetSpace<u64>> = BranchStore::new(&names[0]);
    let mut root = store.branch_mut(&names[0]).unwrap();
    for e in 0..40 {
        root.apply(&OrSetOp::Add(2 * e)).unwrap();
    }
    for name in &names[1..] {
        root.fork(name).unwrap();
    }
    let mut x = 45u64; // a linear congruential stream
    let mut multi_base = 0;
    for cycle in 0..6 {
        for name in &names {
            let mut branch = store.branch_mut(name).unwrap();
            for _ in 0..4 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let e = (x >> 33) % 80;
                let op = if (x >> 32) & 1 == 0 {
                    OrSetOp::Add(e)
                } else {
                    OrSetOp::Remove(e)
                };
                branch.apply(&op).unwrap();
            }
        }
        for (b, name) in names.iter().enumerate() {
            let partner = &names[(b + 1 + cycle % 5) % 6];
            let heads = (store.head(name).unwrap(), store.head(partner).unwrap());
            if store.graph().merge_bases(heads.0, heads.1).len() > 1 {
                multi_base += 1;
            }
            store.branch_mut(name).unwrap().merge_from(partner).unwrap();
        }
    }
    (store, multi_base)
}

#[test]
fn codec_fixture_content_ids_are_pinned() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hex"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let pinned: Vec<&str> = FIXTURE_IDS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "every codec fixture has a pinned digest");
    for (name, want) in FIXTURE_IDS {
        let hex = std::fs::read_to_string(dir.join(format!("{name}.hex"))).unwrap();
        let got = content_id_of_bytes(&from_hex(&hex)).to_string();
        assert_eq!(&got, want, "{name}: content address drifted");
    }
}

#[test]
fn multi_block_state_id_is_pinned() {
    let q = resident_queue();
    let len = canonical_bytes(&q).len();
    assert!(len >= 20_000, "state is only {len} bytes");
    assert_eq!(content_id(&q).to_string(), RESIDENT_QUEUE_ID);
}

#[test]
fn branch_history_head_id_is_pinned() {
    let store = twenty_step_history();
    assert_eq!(
        store.commit_count(),
        20,
        "root commit plus nineteen: the fork makes none"
    );
    assert_eq!(store.head_id("main").unwrap().to_string(), HISTORY_HEAD_ID);
}

#[test]
fn crisscross_merge_state_id_is_pinned() {
    let (store, multi_base) = crisscross_history();
    assert!(multi_base > 0, "no merge had several merge bases");
    assert_eq!(
        store.state_id("b0").unwrap().to_string(),
        CRISSCROSS_STATE_ID
    );
}
