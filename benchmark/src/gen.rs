//! The workload generator: a **pure function of the seed**. The system
//! under test receives only what is generated here; no other randomness
//! enters a run.

use crate::sizes::{KvSizes, LocalSizes, MergeSizes};

/// SplitMix64 — small, fast, and fully specified, so a seed names the same
/// op stream on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the phases of
    /// one workload do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias at these sizes is < 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed of round `round` of a run started with `--seed seed`.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    Rng::new(seed, 0x5EED + u64::from(round)).next_u64()
}

/// One `put`, and whether a checked `get` of the same key follows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvPut {
    /// Key index; rendered by [`kv_key`].
    pub key: u32,
    /// The value written (fixed length, printable).
    pub value: String,
    /// Whether the driver reads the key back right after.
    pub check: bool,
}

/// Fixed-width key text, so every key costs the same bytes.
pub fn kv_key(index: u32) -> String {
    format!("key-{index:06}")
}

fn kv_value(rng: &mut Rng, len: usize) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
    let mut s = String::with_capacity(len);
    let mut bits = 0u64;
    for i in 0..len {
        if i % 10 == 0 {
            bits = rng.next_u64();
        }
        s.push(char::from(ALPHABET[(bits & 63) as usize]));
        bits >>= 6;
    }
    s
}

/// One put per key, in key order: the preload of both KV workloads.
pub fn kv_preload(seed: u64, keys: u32, value_bytes: usize) -> Vec<KvPut> {
    let mut rng = Rng::new(seed, 1);
    (0..keys)
        .map(|key| KvPut {
            key,
            value: kv_value(&mut rng, value_bytes),
            check: false,
        })
        .collect()
}

/// `n` uniform overwrites over `keys` keys; every `check_every`-th is
/// followed by a checked get (`0` = never). `stream` separates the phases
/// that draw puts (measured phase, origin history, incremental rounds).
pub fn kv_puts(
    seed: u64,
    stream: u64,
    keys: u32,
    value_bytes: usize,
    n: u32,
    check_every: u32,
) -> Vec<KvPut> {
    let mut rng = Rng::new(seed, 2 + stream);
    (1..=n)
        .map(|i| KvPut {
            key: rng.below(u64::from(keys)) as u32,
            value: kv_value(&mut rng, value_bytes),
            check: check_every != 0 && i % check_every == 0,
        })
        .collect()
}

/// The measured puts of `kv_durable_put`.
pub fn kv_measured(seed: u64, sz: &KvSizes) -> Vec<KvPut> {
    kv_puts(seed, 0, sz.keys, sz.value_bytes, sz.puts, sz.check_every)
}

/// An OR-set update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOp {
    /// Add the element.
    Add(u64),
    /// Remove the element.
    Remove(u64),
}

/// One cycle of `merge_crisscross`: the ops each branch applies, then the
/// branch each one merges from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeCycle {
    /// `ops[b]` is applied to branch `b`.
    pub ops: Vec<Vec<SetOp>>,
    /// Branch `b` then merges from branch `partner[b]`.
    pub partner: Vec<usize>,
}

/// Elements live in `0..2·elements`: the preload adds the even half, and
/// the cycles add or remove uniformly over the whole range, so the set
/// stays near `elements` and both adds and removes take effect.
pub fn merge_preload(sz: &MergeSizes) -> Vec<SetOp> {
    (0..u64::from(sz.elements))
        .map(|i| SetOp::Add(2 * i))
        .collect()
}

/// The cycles of `merge_crisscross`. The partner rotates with the cycle
/// index, and the merges of one cycle run in branch order, so a branch
/// merges from a partner that has just merged from its own — the
/// criss-cross shape with several merge bases.
pub fn merge_cycles(seed: u64, sz: &MergeSizes) -> Vec<MergeCycle> {
    let mut rng = Rng::new(seed, 10);
    let universe = 2 * u64::from(sz.elements);
    (0..sz.cycles as usize)
        .map(|cycle| MergeCycle {
            ops: (0..sz.branches)
                .map(|_| {
                    (0..sz.ops_per_branch)
                        .map(|_| {
                            let e = rng.below(universe);
                            if rng.below(2) == 0 {
                                SetOp::Add(e)
                            } else {
                                SetOp::Remove(e)
                            }
                        })
                        .collect()
                })
                .collect(),
            partner: (0..sz.branches)
                .map(|b| (b + 1 + cycle % (sz.branches - 1)) % sz.branches)
                .collect(),
        })
        .collect()
}

/// A queue update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueUpdate {
    /// Enqueue the value.
    Enqueue(u64),
    /// Dequeue the head.
    Dequeue,
}

/// One step of `local_first_ops` on `main`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalStep {
    /// Commit-free read of the head.
    Peek,
    /// An update committed on `main`.
    Update(QueueUpdate),
    /// The peer applies these updates, then the two branches merge both ways.
    PeerSync(Vec<QueueUpdate>),
}

fn queue_update(rng: &mut Rng) -> QueueUpdate {
    if rng.below(2) == 0 {
        QueueUpdate::Enqueue(rng.next_u64() >> 16)
    } else {
        QueueUpdate::Dequeue
    }
}

/// The steps of `local_first_ops`: half reads, a quarter enqueues, a
/// quarter dequeues, and a peer sync after every `sync_every` steps.
pub fn local_steps(seed: u64, sz: &LocalSizes) -> Vec<LocalStep> {
    let mut rng = Rng::new(seed, 20);
    let mut steps = Vec::with_capacity(sz.ops as usize + (sz.ops / sz.sync_every) as usize);
    for i in 1..=sz.ops {
        steps.push(if rng.below(2) == 0 {
            LocalStep::Peek
        } else {
            LocalStep::Update(queue_update(&mut rng))
        });
        if i % sz.sync_every == 0 {
            steps.push(LocalStep::PeerSync(
                (0..sz.peer_ops).map(|_| queue_update(&mut rng)).collect(),
            ));
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::Sizes;

    /// Everything the generator can emit for one seed, as bytes.
    fn stream(seed: u64) -> Vec<u8> {
        let sz = Sizes::scaled(20);
        format!(
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            kv_preload(seed, sz.kv.keys, sz.kv.value_bytes),
            kv_measured(seed, &sz.kv),
            kv_puts(
                seed,
                1,
                sz.sync.keys,
                sz.sync.value_bytes,
                sz.sync.commits,
                0
            ),
            merge_cycles(seed, &sz.merge),
            local_steps(seed, &sz.local),
            round_seed(seed, 3),
        )
        .into_bytes()
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(stream(7), stream(7), "same seed, same bytes");
        assert_ne!(stream(7), stream(8), "another seed, another stream");
    }

    #[test]
    fn values_and_keys_have_fixed_width() {
        let puts = kv_puts(1, 0, 512, 64, 100, 8);
        assert!(puts.iter().all(|p| p.value.len() == 64 && p.key < 512));
        assert_eq!(puts.iter().filter(|p| p.check).count(), 12);
        assert_eq!(kv_key(7).len(), kv_key(511).len());
    }

    #[test]
    fn partners_rotate_and_never_self_merge() {
        let sz = Sizes::full().merge;
        for c in merge_cycles(3, &sz) {
            for (b, p) in c.partner.iter().enumerate() {
                assert_ne!(b, *p);
            }
        }
    }
}
