//! Shared harness running integration suites against **every** backend.
//!
//! A test written as `fn body(make: &mut BackendFactory)` constructs each
//! of its stores through the factory and is executed once per backend:
//! the interning [`MemoryBackend`] and the on-disk [`SegmentBackend`]
//! (each store in its own scratch directory, fsync off — durability
//! ordering is exercised by `tests/crash_reopen.rs`, not here). A failure
//! message names the backend that broke.

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use peepul::store::{
    Backend, BranchStore, MemoryBackend, ObjectId, SegmentBackend, SegmentOptions,
};
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery, OrSetSpace};
use peepul::verify::proptest_support::{schedules_with, Arms};
use peepul::verify::Schedule;
use proptest::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Produces a fresh backend per store the test builds.
pub type BackendFactory<'a> = dyn FnMut() -> Box<dyn Backend + Send + Sync> + 'a;

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir; removed (best
/// effort) by [`Scratch::drop`].
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("peepul-test-{}-{tag}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch dir");
        Scratch { root }
    }

    pub fn path(&self) -> &std::path::Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // On a failing test, leave the scratch directory behind as the
        // post-crash evidence — CI uploads it as an artifact.
        if std::thread::panicking() {
            eprintln!("test panicked; keeping scratch dir {}", self.root.display());
            return;
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Runs `test` once per backend kind. `tag` isolates the on-disk scratch
/// space per test.
pub fn for_each_backend(tag: &str, mut test: impl FnMut(&str, &mut BackendFactory<'_>)) {
    {
        let mut make: Box<dyn FnMut() -> Box<dyn Backend + Send + Sync>> =
            Box::new(|| Box::new(MemoryBackend::new()));
        test("memory", &mut *make);
    }
    {
        let scratch = Scratch::new(tag);
        let mut n = 0u32;
        let mut make: Box<dyn FnMut() -> Box<dyn Backend + Send + Sync>> = Box::new(|| {
            n += 1;
            Box::new(
                SegmentBackend::open_with(
                    scratch.path().join(n.to_string()),
                    SegmentOptions {
                        durable: false,
                        ..SegmentOptions::default()
                    },
                )
                .expect("open segment backend"),
            )
        });
        test("segment", &mut *make);
    }
}

/// Schedules of `draws` draws at `arms`' weights for one store of
/// [`OrSetSpace<u8>`], adds twice as likely as removes, with no cap on
/// the branch count — the storage property tests' workload.
pub fn or_set_schedules(
    arms: Arms,
    draws: Range<usize>,
) -> impl Strategy<Value = Schedule<OrSetOp<u8>>> {
    let op = (0u8..3, 0u8..16).prop_map(|(k, x)| match k {
        0 | 1 => OrSetOp::Add(x),
        _ => OrSetOp::Remove(x),
    });
    schedules_with(arms, op, draws, usize::MAX)
}

/// Everything observable about a store of [`OrSetSpace<u8>`] after a
/// run: per-branch `(name, head address, state address, elements)`, the
/// backend ref table, and the Lamport tick.
pub type Observation = (
    Vec<(String, ObjectId, ObjectId, Vec<u8>)>,
    Vec<(String, ObjectId)>,
    u64,
);

/// Reads the [`Observation`] of `db`.
pub fn observe<B: Backend>(db: &BranchStore<OrSetSpace<u8>, B>) -> Observation {
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
