//! The frozen workload sizes. One **round** of a workload is a fresh
//! set-up, a measured phase of exactly these operation counts, the cold
//! starts and the correctness checks; a run repeats rounds (each in a
//! fresh process, with a seed derived from `--seed` and the round index)
//! until `--seconds` is used up and reports medians over rounds.
//!
//! Calibrated once on the 2-vCPU reference box so that a round of every
//! workload lasts 2.5–4 s and peaks under 1 GB, which lets a run of
//! `RUN_SECONDS` take the median of seven or more rounds; see README.md.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_220_613;

/// `kv_durable_put`.
#[derive(Clone, Copy, Debug)]
pub struct KvSizes {
    /// Distinct keys preloaded and then overwritten.
    pub keys: u32,
    /// Bytes per value.
    pub value_bytes: usize,
    /// Measured overwrite puts.
    pub puts: u32,
    /// Every n-th put is followed by a checked get of the same key.
    pub check_every: u32,
}

/// `sync_pull`.
#[derive(Clone, Copy, Debug)]
pub struct SyncSizes {
    /// Distinct keys on the origin.
    pub keys: u32,
    /// Bytes per value.
    pub value_bytes: usize,
    /// Commits preloaded on the origin before any pull.
    pub commits: u32,
    /// Incremental rounds: `puts_per_pull` origin puts, then one pull.
    pub incr_pulls: u32,
    /// Origin puts between two incremental pulls.
    pub puts_per_pull: u32,
}

/// `merge_crisscross`.
#[derive(Clone, Copy, Debug)]
pub struct MergeSizes {
    /// Elements added before the branches fork.
    pub elements: u32,
    /// Branches, all forked from the first.
    pub branches: usize,
    /// Cycles of (ops on every branch, then one merge per branch).
    pub cycles: u32,
    /// Add/remove ops per branch per cycle.
    pub ops_per_branch: u32,
}

/// `local_first_ops`.
#[derive(Clone, Copy, Debug)]
pub struct LocalSizes {
    /// Elements enqueued before the measured phase.
    pub resident: u32,
    /// Measured steps on `main` (reads and updates).
    pub ops: u32,
    /// A peer sync (peer ops, merge both ways) happens every n steps.
    pub sync_every: u32,
    /// Updates the peer applies before each sync.
    pub peer_ops: u32,
}

/// Sizes of all four workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `kv_durable_put`.
    pub kv: KvSizes,
    /// `sync_pull`.
    pub sync: SyncSizes,
    /// `merge_crisscross`.
    pub merge: MergeSizes,
    /// `local_first_ops`.
    pub local: LocalSizes,
}

impl Sizes {
    /// The sizes every reported number is measured at.
    pub const fn full() -> Self {
        Sizes {
            kv: KvSizes {
                keys: 512,
                value_bytes: 64,
                puts: 2000,
                check_every: 8,
            },
            sync: SyncSizes {
                keys: 256,
                value_bytes: 64,
                commits: 1500,
                incr_pulls: 200,
                puts_per_pull: 8,
            },
            merge: MergeSizes {
                elements: 1000,
                branches: 6,
                cycles: 100,
                ops_per_branch: 4,
            },
            local: LocalSizes {
                resident: 1000,
                ops: 10_000,
                sync_every: 500,
                peer_ops: 20,
            },
        }
    }

    /// Every count divided by `div` (state sizes too): 20 for `--check`, 1
    /// for the full sizes.
    pub fn scaled(div: u32) -> Self {
        let f = Self::full();
        let d = |n: u32| (n / div.max(1)).max(1);
        Sizes {
            kv: KvSizes {
                keys: d(f.kv.keys),
                puts: d(f.kv.puts).max(f.kv.check_every),
                ..f.kv
            },
            sync: SyncSizes {
                keys: d(f.sync.keys),
                commits: d(f.sync.commits),
                incr_pulls: d(f.sync.incr_pulls),
                ..f.sync
            },
            merge: MergeSizes {
                elements: d(f.merge.elements),
                cycles: d(f.merge.cycles),
                ..f.merge
            },
            local: LocalSizes {
                resident: d(f.local.resident),
                ops: d(f.local.ops),
                sync_every: d(f.local.sync_every),
                ..f.local
            },
        }
    }
}
