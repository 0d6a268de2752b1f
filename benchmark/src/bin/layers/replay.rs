//! Attribution by replay. A served `put` or a `merge_from` is one opaque
//! call from outside, so the traced pass mirrors the workload's op stream
//! on a **shadow** `BranchStore` and, on every 8th operation of a kind,
//! times each stage function alone on the very same (parent, child)
//! states the commit is about to produce: type `apply`/`merge`/`query`,
//! canonical encode and decode, sha256, delta diff and apply, and (for
//! the durable workload) segment append and fsync. Every call is a span;
//! stage medians are the spans' self times grouped by name.

use crate::api::*;
use peepul_benchmark::gen::{self, LocalStep, QueueUpdate, SetOp};
use peepul_benchmark::procinfo;
use peepul_benchmark::sizes::{KvSizes, LocalSizes, MergeSizes, SyncSizes};
use peepul_benchmark::trace::Tracer;
use peepul_benchmark::{err, Res};
use std::collections::BTreeMap;
use std::path::Path;

/// The recorder of the traced pass.
pub struct Replay {
    /// Spans of every call into a layer.
    pub tr: Tracer,
    /// Samples that are not times: bytes, base counts, shares.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    op: u64,
    seen: [u64; 3],
}

/// Stage functions are timed on every n-th operation of a kind.
const SAMPLE_EVERY: u64 = 8;

/// The kinds of operation sampled separately, so that a fixed pattern of
/// kinds in the op stream cannot alias with the sampling period.
#[derive(Clone, Copy)]
enum Kind {
    Update,
    Read,
    Merge,
}

impl Replay {
    /// A recorder writing its spans into `tr`.
    pub fn new(tr: Tracer) -> Self {
        Replay {
            tr,
            counts: BTreeMap::new(),
            op: 0,
            seen: [0; 3],
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// The id of the next operation and whether its stages are timed.
    fn next_op(&mut self, kind: Kind) -> (u64, bool) {
        self.op += 1;
        let seen = &mut self.seen[kind as usize];
        *seen += 1;
        let sampled = *seen == SAMPLE_EVERY;
        if sampled {
            *seen = 0;
        }
        (self.op, sampled)
    }
}

/// What the stage pass of one update produced, for the stages that need
/// the stored form (segment append).
struct Staged {
    child_id: ObjectId,
    parent_id: ObjectId,
    delta_wire: Vec<u8>,
}

/// Times every stage of committing `child` on top of `parent`; returns the
/// child's content address and its delta in wire form.
fn commit_stages<M: Mrdt>(rp: &mut Replay, op: u64, parent: &M, child: &M) -> (ObjectId, Vec<u8>) {
    let (bytes, _) = rp
        .tr
        .time("core.wire.encode", op, || canonical_bytes(child));
    let (child_id, _) = rp
        .tr
        .time("store.sha256", op, || content_id_of_bytes(&bytes));
    let (delta, _) = rp.tr.time("core.delta.diff", op, || child.diff(parent));
    let delta_wire = delta.to_wire();
    let (resolved, _) = rp
        .tr
        .time("core.delta.apply", op, || M::apply_delta(parent, &delta));
    let (decoded, _) = rp
        .tr
        .time("core.wire.decode", op, || decode_canonical::<M>(&bytes));
    debug_assert!(resolved.as_ref() == Some(child) && decoded.as_ref() == Some(child));
    std::hint::black_box((resolved, decoded));
    rp.count("core.wire.state_bytes", bytes.len() as f64);
    rp.count("core.delta.bytes", delta_wire.len() as f64);
    (child_id, delta_wire)
}

/// One update on the shadow store; on a sampled op, its stages first.
fn update<M: Mrdt, B: Backend>(
    rp: &mut Replay,
    store: &mut BranchStore<M, B>,
    branch: &str,
    op: &M::Op,
) -> Res<Option<Staged>> {
    let (id, sampled) = rp.next_op(Kind::Update);
    let staged = if sampled {
        let parent = store.state(branch).map_err(err("state"))?;
        let replica = store.replica_of(branch).map_err(err("replica_of"))?;
        let t = Timestamp::new(store.tick() + 1, replica);
        let ((child, _), _) = rp.tr.time("types.apply", id, || parent.apply(op, t));
        let (child_id, delta_wire) = commit_stages(rp, id, &*parent, &child);
        Some(Staged {
            child_id,
            parent_id: store.state_id(branch).map_err(err("state_id"))?,
            delta_wire,
        })
    } else {
        None
    };
    let mut b = store.branch_mut(branch).map_err(err("branch_mut"))?;
    let (value, _) = rp.tr.time("store.branch.apply", id, || b.apply(op));
    value.map_err(err("apply"))?;
    Ok(staged)
}

/// One commit-free read; on a sampled op, the type's own query first.
fn read<M: Mrdt, B: Backend>(
    rp: &mut Replay,
    store: &BranchStore<M, B>,
    branch: &str,
    q: &M::Query,
) -> Res<()> {
    let (id, sampled) = rp.next_op(Kind::Read);
    if sampled {
        let state = store.state(branch).map_err(err("state"))?;
        let (out, _) = rp.tr.time("types.query", id, || state.query(q));
        std::hint::black_box(out);
    }
    let (out, _) = rp
        .tr
        .time("store.branch.read", id, || store.read(branch, q));
    out.map(|_| ()).map_err(err("read"))
}

/// One merge on the shadow store. The merge-base search is timed on every
/// merge; the type's merge and the commit stages on sampled ones. Memo
/// statistics are summed over the *unsampled* merges only, because the
/// sampled ones resolve the LCA state once more and would warm the memo.
fn merge<M: Mrdt, B: Backend>(
    rp: &mut Replay,
    store: &mut BranchStore<M, B>,
    into: &str,
    from: &str,
) -> Res<()> {
    let (id, sampled) = rp.next_op(Kind::Merge);
    let (h1, h2) = (
        store.head(into).map_err(err("head"))?,
        store.head(from).map_err(err("head"))?,
    );
    let (bases, _) = rp.tr.time("store.dag.merge_bases", id, || {
        store.graph().merge_bases(h1, h2)
    });
    rp.count("store.dag.bases_per_merge", bases.len() as f64);
    if sampled {
        let lca = store.lca_state(into, from).map_err(err("lca_state"))?;
        let a = store.state(into).map_err(err("state"))?;
        let b = store.state(from).map_err(err("state"))?;
        let (merged, _) = rp.tr.time("types.merge", id, || M::merge(&lca, &a, &b));
        commit_stages(rp, id, &*a, &merged);
    }
    let before = store.merge_cache_stats();
    let mut b = store.branch_mut(into).map_err(err("branch_mut"))?;
    let (res, _) = rp.tr.time("store.branch.merge", id, || b.merge_from(from));
    res.map_err(err("merge_from"))?;
    if !sampled {
        let after = store.merge_cache_stats();
        rp.count("memo.hits", (after.hits - before.hits) as f64);
        rp.count("memo.misses", (after.misses - before.misses) as f64);
    }
    Ok(())
}

/// Facts read off a finished shadow store: the cost of serving one state
/// record with its delta chain resolved, and the share of states stored
/// as deltas.
pub fn store_facts<M: Mrdt, B: Backend>(rp: &mut Replay, store: &BranchStore<M, B>) -> Res<()> {
    let commits: Vec<_> = store.graph().ids().collect();
    let step = (commits.len() / 64).max(1);
    for (i, c) in commits.iter().step_by(step).enumerate() {
        let oid = store.state_oid(*c);
        let (bytes, _) = rp.tr.time("store.branch.state_bytes", i as u64, || {
            store.state_bytes(oid)
        });
        bytes.map_err(err("state_bytes"))?;
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut deltas = 0usize;
    for c in &commits {
        let oid = store.state_oid(*c);
        if seen.insert(*oid.as_bytes()) {
            let stored = store
                .state_stored_delta(oid)
                .map_err(err("state_stored_delta"))?;
            deltas += usize::from(stored.is_some());
        }
    }
    rp.count(
        "store.branch.delta_state_share",
        deltas as f64 / seen.len().max(1) as f64,
    );
    Ok(())
}

/// Cold `BranchStore::open` over a copy of a memory backend, ms.
fn open_memory<M: Mrdt>(rp: &mut Replay, backend: MemoryBackend, name: &'static str) -> Res<f64> {
    let (store, us) = rp.tr.time(name, 0, || BranchStore::<M, _>::open(backend));
    store.map_err(err("open"))?;
    Ok(us / 1e3)
}

/// Resident memory the shadow store retained per commit, kB.
fn rss_per_commit(rp: &mut Replay, rss_before_kb: u64, commits: usize) {
    let grown = procinfo::rss_kb().saturating_sub(rss_before_kb);
    rp.count(
        "store.branch.rss_kb_per_commit",
        grown as f64 / commits.max(1) as f64,
    );
}

// ---------------------------------------------------------------- Kv

/// The value type of `Kv`.
type Reg = LwwRegister<String>;

fn kv_op(p: &gen::KvPut) -> MapOp<Reg> {
    MapOp::Set(gen::kv_key(p.key), LwwOp::Write(p.value.clone()))
}

fn kv_query(key: u32) -> MapQuery<Reg> {
    MapQuery::Get(gen::kv_key(key), LwwQuery::Read)
}

/// The shadow of `kv_durable_put`: the same preload and puts on a
/// `BranchStore<Kv, SegmentBackend>` (same backend kind, same flush
/// policy, no server), with the segment stages timed on a second scratch
/// backend. Halfway, the data dir is copied, so that reopening can be
/// timed at N and N/2 commits.
pub fn kv(rp: &mut Replay, seed: u64, sz: &KvSizes, dir: &Path) -> Res<()> {
    let open = |d: &Path| {
        SegmentBackend::open_with(d, SegmentOptions::default()).map_err(err("open segment"))
    };
    let (full, half) = (dir.join("shadow"), dir.join("shadow-half"));
    let mut store: BranchStore<Kv, _> =
        BranchStore::with_backend("main", open(&full)?).map_err(err("create shadow store"))?;
    let mut stage = open(&dir.join("stage"))?;
    for p in gen::kv_preload(seed, sz.keys, sz.value_bytes) {
        let mut b = store.branch_mut("main").map_err(err("branch_mut"))?;
        b.apply(&kv_op(&p)).map_err(err("preload"))?;
    }

    let rss_before = procinfo::rss_kb();
    let commits_before = store.commit_count();
    let info_before = store.backend().storage_info();
    let measured = gen::kv_measured(seed, sz);
    for (i, p) in measured.iter().enumerate() {
        let parent_commit = store.head_id("main").map_err(err("head_id"))?;
        let staged = update(rp, &mut store, "main", &kv_op(p))?;
        if let Some(s) = staged {
            // What a commit appends: the state record, the commit record
            // and the ref; then the commit boundary syncs.
            let record = state_record_delta(s.parent_id, &s.delta_wire);
            let commit = commit_record(&[parent_commit], s.child_id, store.tick(), 0);
            let (res, _) = rp.tr.time("store.segment.append", i as u64, || {
                stage.put_keyed(s.child_id, &record)?;
                let id = stage.put(&commit)?;
                stage.set_ref("main", id)
            });
            res.map_err(err("segment append"))?;
            let (res, _) = rp
                .tr
                .time("store.segment.fsync", i as u64, || stage.commit_boundary());
            res.map_err(err("segment fsync"))?;
        }
        if p.check {
            read(rp, &store, "main", &kv_query(p.key))?;
        }
        if i + 1 == measured.len() / 2 {
            store.flush().map_err(err("flush"))?;
            copy_dir(&full, &half)?;
        }
    }
    let info = store.backend().storage_info();
    let ops = measured.len() as f64;
    rp.count(
        "store.segment.fsyncs_per_op",
        (info.fsyncs - info_before.fsyncs) as f64 / ops,
    );
    rp.count(
        "store.segment.bytes_per_op",
        (info.disk_bytes - info_before.disk_bytes) as f64 / ops,
    );
    rss_per_commit(rp, rss_before, store.commit_count() - commits_before);
    store_facts(rp, &store)?;
    drop((store, stage));

    let mut open_ms = [0.0; 2];
    for (slot, d) in [&half, &full].into_iter().enumerate() {
        let (backend, _) = rp.tr.time("store.segment.open", slot as u64, || open(d));
        let backend = backend?;
        let (reopened, us) = rp.tr.time("store.branch.open", slot as u64, || {
            BranchStore::<Kv, _>::open(backend)
        });
        reopened.map_err(err("typed reopen"))?;
        open_ms[slot] = us / 1e3;
    }
    rp.count("store.branch.open_ms", open_ms[1]);
    rp.count("store.branch.open_scaling", open_ms[1] / open_ms[0]);
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(err("create copy dir"))?;
    for entry in std::fs::read_dir(from).map_err(err("read dir"))? {
        let entry = entry.map_err(err("read dir entry"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err("copy file"))?;
    }
    Ok(())
}

/// The shadow of the `sync_pull` origin: its history replayed on a memory
/// backend, for the commit stages of the `Kv` state at 256 keys.
pub fn sync_origin(rp: &mut Replay, seed: u64, sz: &SyncSizes) -> Res<()> {
    let mut store: BranchStore<Kv, MemoryBackend> = BranchStore::new("main");
    let rss_before = procinfo::rss_kb();
    let history = gen::kv_puts(seed, 1, sz.keys, sz.value_bytes, sz.commits, 0);
    let mut half = None;
    for (i, p) in history.iter().enumerate() {
        update(rp, &mut store, "main", &kv_op(p))?;
        if i + 1 == history.len() / 2 {
            half = Some(store.backend().clone());
        }
    }
    rss_per_commit(rp, rss_before, store.commit_count());
    store_facts(rp, &store)?;
    open_scaling::<Kv>(rp, half, store.backend().clone())
}

fn open_scaling<M: Mrdt>(
    rp: &mut Replay,
    half: Option<MemoryBackend>,
    full: MemoryBackend,
) -> Res<()> {
    let half_ms = match half {
        Some(b) => open_memory::<M>(rp, b, "store.branch.open.half")?,
        None => 0.0,
    };
    let full_ms = open_memory::<M>(rp, full, "store.branch.open")?;
    rp.count("store.branch.open_ms", full_ms);
    if half_ms > 0.0 {
        rp.count("store.branch.open_scaling", full_ms / half_ms);
    }
    Ok(())
}

// ---------------------------------------------------------------- OrSetSpace

fn set_op(op: SetOp) -> OrSetOp<u64> {
    match op {
        SetOp::Add(e) => OrSetOp::Add(e),
        SetOp::Remove(e) => OrSetOp::Remove(e),
    }
}

/// The shadow of `merge_crisscross`. Returns the store, for the cold
/// clone probes.
pub fn merge_crisscross(
    rp: &mut Replay,
    seed: u64,
    sz: &MergeSizes,
) -> Res<BranchStore<OrSetSpace<u64>, MemoryBackend>> {
    let names: Vec<String> = (0..sz.branches).map(|b| format!("b{b}")).collect();
    let mut store: BranchStore<OrSetSpace<u64>, MemoryBackend> = BranchStore::new(&names[0]);
    {
        let mut root = store.branch_mut(&names[0]).map_err(err("branch_mut"))?;
        for op in gen::merge_preload(sz) {
            root.apply(&set_op(op)).map_err(err("preload"))?;
        }
        for name in &names[1..] {
            root.fork(name).map_err(err("fork"))?;
        }
    }
    let rss_before = procinfo::rss_kb();
    let commits_before = store.commit_count();
    let cycles = gen::merge_cycles(seed, sz);
    let mut half = None;
    for (i, cycle) in cycles.iter().enumerate() {
        for (b, ops) in cycle.ops.iter().enumerate() {
            for op in ops {
                update(rp, &mut store, &names[b], &set_op(*op))?;
                let (SetOp::Add(e) | SetOp::Remove(e)) = op;
                read(rp, &store, &names[b], &OrSetQuery::Lookup(*e))?;
            }
        }
        for (b, partner) in cycle.partner.iter().enumerate() {
            merge(rp, &mut store, &names[b], &names[*partner])?;
        }
        if i + 1 == cycles.len() / 2 {
            half = Some(store.backend().clone());
        }
    }
    rss_per_commit(rp, rss_before, store.commit_count() - commits_before);
    store_facts(rp, &store)?;
    open_scaling::<OrSetSpace<u64>>(rp, half, store.backend().clone())?;
    Ok(store)
}

// ---------------------------------------------------------------- Queue

fn queue_op(u: QueueUpdate) -> QueueOp<u64> {
    match u {
        QueueUpdate::Enqueue(v) => QueueOp::Enqueue(v),
        QueueUpdate::Dequeue => QueueOp::Dequeue,
    }
}

/// The shadow of `local_first_ops`. Returns the store, for the cold clone
/// probes.
pub fn local_first_ops(
    rp: &mut Replay,
    seed: u64,
    sz: &LocalSizes,
) -> Res<BranchStore<Queue<u64>, MemoryBackend>> {
    let mut store: BranchStore<Queue<u64>, MemoryBackend> = BranchStore::new("main");
    {
        let mut main = store.branch_mut("main").map_err(err("branch_mut"))?;
        for i in 0..u64::from(sz.resident) {
            main.apply(&QueueOp::Enqueue(i)).map_err(err("preload"))?;
        }
        main.fork("peer").map_err(err("fork"))?;
    }
    let rss_before = procinfo::rss_kb();
    let commits_before = store.commit_count();
    let steps = gen::local_steps(seed, sz);
    let mut half = None;
    for (i, step) in steps.iter().enumerate() {
        match step {
            LocalStep::Peek => read(rp, &store, "main", &QueueQuery::Peek)?,
            LocalStep::Update(u) => {
                update(rp, &mut store, "main", &queue_op(*u))?;
            }
            LocalStep::PeerSync(updates) => {
                for u in updates {
                    update(rp, &mut store, "peer", &queue_op(*u))?;
                }
                merge(rp, &mut store, "peer", "main")?;
                merge(rp, &mut store, "main", "peer")?;
            }
        }
        if i + 1 == steps.len() / 2 {
            half = Some(store.backend().clone());
        }
    }
    rss_per_commit(rp, rss_before, store.commit_count() - commits_before);
    store_facts(rp, &store)?;
    open_scaling::<Queue<u64>>(rp, half, store.backend().clone())?;
    Ok(store)
}
