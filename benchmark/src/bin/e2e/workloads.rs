//! The four workloads. One call runs one **round**: a fresh set-up, the
//! measured phase at the frozen size, the cold starts and every
//! correctness check. Shared with the `layers` bin (included there by
//! path), so the traced pass drives exactly the code measured here; every
//! `peepul_*` item comes from the including bin's `api.rs`.
//!
//! No sleeps or timers in any measured phase: each is a closed loop on
//! one thread (the server adds its own serving thread), and the next
//! operation starts when the previous one has returned.

use crate::api::*;
use peepul_benchmark::gen::{self, KvPut, LocalStep, QueueUpdate, SetOp};
use peepul_benchmark::report::{Metric, RunResult};
use peepul_benchmark::sizes::{KvSizes, LocalSizes, MergeSizes, Sizes, SyncSizes};
use peepul_benchmark::trace::Tracer;
use peepul_benchmark::{err, Res};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the set-up, seconds.
    pub setup_s: f64,
    /// Time base of `ops_per_s`, seconds (see README.md per workload).
    pub phase_s: f64,
    /// Wall time of the whole measured phase, seconds (for the tracing
    /// overhead ratio).
    pub wall_s: f64,
    /// Operations counted for `ops_per_s`.
    pub ops: u64,
    /// Latency samples of the workload's primary operation, µs.
    pub op_us: Vec<f64>,
    /// Stored or transferred bytes per operation.
    pub bytes_per_op: f64,
    /// The cold start, ms.
    pub cold_ms: f64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Largest peak RSS among child processes of this round, kB.
    pub child_peak_rss_kb: u64,
    /// `kv_durable_put`: the server's own metrics exposition before and
    /// after the measured phase.
    pub exposition: (String, String),
}

impl Round {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: wrong result: {what}");
        }
    }
}

/// Runs one round of `workload` in `dir` (created, and removed on success).
pub fn run_round(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    tr: &mut Tracer,
) -> Res<Round> {
    std::fs::create_dir_all(dir).map_err(err("create scratch dir"))?;
    let round = match workload {
        "kv_durable_put" => kv_durable_put(seed, &sizes.kv, dir, tr),
        "sync_pull" => sync_pull(seed, &sizes.sync, dir, tr),
        "merge_crisscross" => merge_crisscross(seed, &sizes.merge, tr),
        "local_first_ops" => local_first_ops(seed, &sizes.local, tr),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if round.failed == 0 {
        // Kept on failure, for the post-mortem.
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(round)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A server on an ephemeral loopback port over the segment store in `data`.
fn server(name: &str, data: &Path, options: SegmentOptions) -> Res<Server<SegmentBackend>> {
    let backend = SegmentBackend::open_with(data, options).map_err(err("open segment backend"))?;
    Server::spawn(ServerConfig::new(name), "127.0.0.1:0", backend).map_err(err("spawn server"))
}

/// A durable server: `SegmentOptions::default()` is fsync per commit and a
/// full snapshot every 16 commits.
pub fn durable_server(name: &str, data: &Path) -> Res<Server<SegmentBackend>> {
    server(name, data, SegmentOptions::default())
}

/// Set-ups load their initial state in-process and without fsync. The
/// set-up is not what a workload measures, and a set-up made of durable
/// puts over the wire moved by a quarter between two sets of runs of one
/// commit, with the host's fsync and wake-up cost; built this way
/// `setup_s` is the program's own work and still shows work moved into it.
fn bulk_load() -> SegmentOptions {
    SegmentOptions {
        durable: false,
        ..SegmentOptions::default()
    }
}

/// The `Kv` update a `put` of `p` makes.
fn kv_set(p: &KvPut) -> <Kv as Mrdt>::Op {
    MapOp::Set(gen::kv_key(p.key), LwwOp::Write(p.value.clone()))
}

fn put(client: &mut ServiceClient, p: &KvPut) -> bool {
    client
        .put("main", gen::kv_key(p.key), p.value.as_str())
        .is_ok()
}

// ---------------------------------------------------------------- kv_durable_put

fn kv_durable_put(seed: u64, sz: &KvSizes, dir: &Path, tr: &mut Tracer) -> Res<Round> {
    let mut r = Round::default();
    let data = dir.join("data");
    let measured = gen::kv_measured(seed, sz);

    // Set-up: bulk-load the keys, then open the store durably and serve it.
    let t = Instant::now();
    let mut expect = vec![String::new(); sz.keys as usize];
    {
        let backend =
            SegmentBackend::open_with(&data, bulk_load()).map_err(err("open segment backend"))?;
        let loader: Replica<Kv, _> =
            Replica::open("bench", "main", backend).map_err(err("open loader"))?;
        for p in gen::kv_preload(seed, sz.keys, sz.value_bytes) {
            r.check(loader.apply("main", &kv_set(&p)).is_ok(), "preload");
            expect[p.key as usize] = p.value;
        }
    }
    let mut server = durable_server("bench", &data)?;
    let mut client = ServiceClient::connect(server.addr()).map_err(err("connect"))?;
    r.setup_s = t.elapsed().as_secs_f64();

    let exposition_before = client.metrics().map_err(err("metrics"))?;
    let disk_before = dir_bytes(&data);
    let t = Instant::now();
    for (i, p) in measured.iter().enumerate() {
        let (ok, us) = tr.time("e2e.put", i as u64, || put(&mut client, p));
        r.op_us.push(us);
        r.check(ok, "put");
        expect[p.key as usize].clone_from(&p.value);
        if p.check {
            let (got, _) = tr.time("e2e.get", i as u64, || {
                client.get("main", gen::kv_key(p.key))
            });
            r.check(
                got.ok().flatten().as_deref() == Some(p.value.as_str()),
                "read-your-write",
            );
        }
    }
    r.wall_s = t.elapsed().as_secs_f64();
    r.phase_s = r.wall_s;
    r.ops = u64::from(sz.puts);
    r.exposition = (exposition_before, client.metrics().map_err(err("metrics"))?);
    drop(client);
    server.shutdown();
    drop(server);
    r.bytes_per_op = (dir_bytes(&data) - disk_before) as f64 / f64::from(sz.puts);

    // A cold restart in a fresh process of this binary, which also
    // re-reads every key against the last acknowledged value.
    let expect_path = dir.join("expected.txt");
    std::fs::write(&expect_path, expect.join("\n")).map_err(err("write expected values"))?;
    let (child, _) = tr.time("e2e.reopen", 0, || reopen_in_child(&data, &expect_path));
    let child = child?;
    r.cold_ms = child
        .value("open_ms")
        .ok_or("reopen child printed no open_ms")?;
    r.child_peak_rss_kb = child.value("peak_rss_kb").unwrap_or(0.0) as u64;
    r.attempted += child.attempted;
    r.failed += child.failed;
    Ok(r)
}

/// Runs this binary again as `--reopen <data> --expect <file>` and reads
/// the result line it prints: `failed` is the keys that came back wrong,
/// the metrics are `open_ms` and the child's own `peak_rss_kb`.
fn reopen_in_child(data: &Path, expect: &Path) -> Res<RunResult> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let out = std::process::Command::new(exe)
        .arg("--reopen")
        .arg(data)
        .arg("--expect")
        .arg(expect)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(err("spawn reopen child"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .filter(|_| out.status.success())
        .and_then(RunResult::parse)
        .ok_or_else(|| "reopen child failed".to_owned())
}

/// `--reopen <data dir> --expect <file>`: the restart child of
/// `kv_durable_put`. Both bins answer it, because the round that spawns it
/// runs in either. `None` when the arguments ask for something else.
pub fn reopen_child_main(args: &peepul_benchmark::args::Args) -> Option<Res<()>> {
    let data = args.get("reopen")?;
    Some((|| {
        let expect = args.get("expect").ok_or("--reopen needs --expect")?;
        let result = reopen_child(Path::new(data), Path::new(expect))?;
        println!("{}", result.to_json_line()?);
        Ok(())
    })())
}

/// Cold-starts the store found in `data`, then reads every key back over
/// the wire.
fn reopen_child(data: &Path, expect: &Path) -> Res<RunResult> {
    let expected = std::fs::read_to_string(expect).map_err(err("read expected values"))?;
    let t = Instant::now();
    let mut server = durable_server("bench", data)?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut client = ServiceClient::connect(server.addr()).map_err(err("connect"))?;
    let mut wrong = 0;
    for (key, want) in expected.lines().enumerate() {
        let got = client.get("main", gen::kv_key(key as u32));
        if got.ok().flatten().as_deref() != Some(want) {
            wrong += 1;
        }
    }
    drop(client);
    server.shutdown();
    Ok(RunResult {
        correct: wrong == 0,
        attempted: expected.lines().count() as u64,
        failed: wrong,
        metrics: vec![
            Metric::new("open_ms", open_ms, "ms"),
            Metric::new(
                "peak_rss_kb",
                peepul_benchmark::procinfo::peak_rss_kb() as f64,
                "kB",
            ),
        ],
    })
}

// ---------------------------------------------------------------- sync_pull

/// The origin of `sync_pull`: a server over a segment store whose `main`
/// holds `commits` overwrites of `keys` keys. It never fsyncs: this
/// workload measures serving and ingesting, `kv_durable_put` the flush.
pub fn sync_origin(
    seed: u64,
    sz: &SyncSizes,
    data: &Path,
    r: &mut Round,
) -> Res<(Server<SegmentBackend>, ServiceClient)> {
    let server = server("origin", data, bulk_load())?;
    for p in gen::kv_puts(seed, 1, sz.keys, sz.value_bytes, sz.commits, 0) {
        r.check(
            server.replica().apply("main", &kv_set(&p)).is_ok(),
            "origin preload",
        );
    }
    let client = ServiceClient::connect(server.addr()).map_err(err("connect"))?;
    Ok((server, client))
}

/// A fresh, empty, memory-backed replica.
fn fresh_replica<M: Mrdt>(root: &str) -> Res<Replica<M, MemoryBackend>> {
    Replica::open("receiver", root, MemoryBackend::new()).map_err(err("open replica"))
}

fn sync_pull(seed: u64, sz: &SyncSizes, dir: &Path, tr: &mut Tracer) -> Res<Round> {
    let mut r = Round::default();
    let t = Instant::now();
    let (mut server, mut client) = sync_origin(seed, sz, &dir.join("origin"), &mut r)?;
    r.setup_s = t.elapsed().as_secs_f64();
    let origin_state = |server: &Server<SegmentBackend>| server.replica().state_id("main").ok();

    // Cold: a fresh replica pulls the whole history.
    let replica = fresh_replica::<Kv>("main")?;
    let transport = TcpTransport::connect(server.addr()).map_err(err("connect"))?;
    let mut remote = Remote::new("origin", transport);
    let (report, us) = tr.time("e2e.pull.cold", 0, || replica.pull(&mut remote, "main"));
    let report = report.map_err(err("cold pull"))?;
    r.cold_ms = us / 1e3;
    r.check(
        replica.state_id("main").ok() == origin_state(&server),
        "cold pull state id",
    );
    r.bytes_per_op =
        report.fetch.state_bytes_received as f64 / report.fetch.commits_received.max(1) as f64;

    // Incremental: origin commits, then the warm replica catches up.
    let puts = gen::kv_puts(
        seed,
        2,
        sz.keys,
        sz.value_bytes,
        sz.incr_pulls * sz.puts_per_pull,
        0,
    );
    let t = Instant::now();
    for (i, batch) in puts.chunks(sz.puts_per_pull as usize).enumerate() {
        for p in batch {
            r.check(put(&mut client, p), "origin put");
        }
        let (report, us) = tr.time("e2e.pull.incr", i as u64, || {
            replica.pull(&mut remote, "main")
        });
        let report = report.map_err(err("incremental pull"))?;
        r.op_us.push(us);
        r.phase_s += us / 1e6;
        r.ops += report.fetch.commits_received;
        r.check(
            replica.state_id("main").ok() == origin_state(&server),
            "incremental pull state id",
        );
    }
    r.wall_s = t.elapsed().as_secs_f64();
    drop(client);
    server.shutdown();
    Ok(r)
}

// ---------------------------------------------------------------- in-process stores

/// Bytes the store's backend holds (live and dead objects alike).
fn stored_bytes<M: Mrdt>(store: &BranchStore<M, MemoryBackend>) -> Res<u64> {
    let s = store.sweep_stats().map_err(err("sweep_stats"))?;
    Ok(s.live_bytes + s.dead_bytes)
}

/// Cold start of an embedded store: a fresh replica clones `branch` with
/// its whole history through the in-process channel transport.
fn cold_clone<M: Mrdt>(
    store: BranchStore<M, MemoryBackend>,
    branch: &str,
    r: &mut Round,
    tr: &mut Tracer,
) -> Res<Replica<M, MemoryBackend>> {
    let origin = Replica::new("origin", store);
    let replica = fresh_replica::<M>(branch)?;
    let mut remote = Remote::new("origin", ChannelTransport::connect(origin.clone()));
    let (report, us) = tr.time("e2e.pull.cold", 0, || replica.pull(&mut remote, branch));
    report.map_err(err("cold clone"))?;
    r.cold_ms = us / 1e3;
    r.check(
        replica.state_id(branch).ok() == origin.state_id(branch).ok(),
        "cold clone state id",
    );
    Ok(origin)
}

// ---------------------------------------------------------------- merge_crisscross

fn set_op(op: SetOp) -> OrSetOp<u64> {
    match op {
        SetOp::Add(e) => OrSetOp::Add(e),
        SetOp::Remove(e) => OrSetOp::Remove(e),
    }
}

fn merge_crisscross(seed: u64, sz: &MergeSizes, tr: &mut Tracer) -> Res<Round> {
    let mut r = Round::default();
    let names: Vec<String> = (0..sz.branches).map(|b| format!("b{b}")).collect();
    let cycles = gen::merge_cycles(seed, sz);

    let t = Instant::now();
    let mut store: BranchStore<OrSetSpace<u64>, MemoryBackend> = BranchStore::new(&names[0]);
    {
        let mut root = store.branch_mut(&names[0]).map_err(err("root branch"))?;
        for op in gen::merge_preload(sz) {
            r.check(root.apply(&set_op(op)).is_ok(), "preload add");
        }
        for name in &names[1..] {
            r.check(root.fork(name).is_ok(), "fork");
        }
    }
    r.setup_s = t.elapsed().as_secs_f64();

    let bytes_before = stored_bytes(&store)?;
    let commits_before = store.commit_count();
    let t = Instant::now();
    let mut op_id = 0u64;
    for cycle in &cycles {
        for (b, ops) in cycle.ops.iter().enumerate() {
            let mut branch = store.branch_mut(&names[b]).map_err(err("branch"))?;
            for op in ops {
                op_id += 1;
                let (res, _) = tr.time("e2e.apply", op_id, || branch.apply(&set_op(*op)));
                r.check(res.is_ok(), "apply");
            }
        }
        for (b, partner) in cycle.partner.iter().enumerate() {
            op_id += 1;
            let mut branch = store.branch_mut(&names[b]).map_err(err("branch"))?;
            let (res, us) = tr.time("e2e.merge", op_id, || branch.merge_from(&names[*partner]));
            r.op_us.push(us);
            r.check(res.is_ok(), "merge");
        }
    }
    r.wall_s = t.elapsed().as_secs_f64();
    r.phase_s = r.wall_s;
    r.ops = op_id;
    let commits = (store.commit_count() - commits_before).max(1);
    r.bytes_per_op = (stored_bytes(&store)? - bytes_before) as f64 / commits as f64;

    converge(&mut store, &names, &mut r)?;
    cold_clone(store, &names[0], &mut r, tr)?;
    Ok(r)
}

/// A final all-pairs merge (everything into the first branch, then the
/// first into everything) must leave every branch on one state id.
fn converge<M: Mrdt>(
    store: &mut BranchStore<M, MemoryBackend>,
    names: &[String],
    r: &mut Round,
) -> Res<()> {
    for other in &names[1..] {
        let mut first = store.branch_mut(&names[0]).map_err(err("branch"))?;
        r.check(first.merge_from(other).is_ok(), "final merge");
    }
    for other in &names[1..] {
        let mut branch = store.branch_mut(other).map_err(err("branch"))?;
        r.check(branch.merge_from(&names[0]).is_ok(), "final merge");
    }
    let want = store.state_id(&names[0]).ok();
    for other in &names[1..] {
        r.check(
            store.state_id(other).ok() == want,
            "branches converge to one state id",
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- local_first_ops

fn queue_op(u: QueueUpdate) -> QueueOp<u64> {
    match u {
        QueueUpdate::Enqueue(v) => QueueOp::Enqueue(v),
        QueueUpdate::Dequeue => QueueOp::Dequeue,
    }
}

/// Tallies what must be left in the queue: enqueues, and the distinct
/// entries any branch dequeued (two branches may both dequeue one entry
/// before they merge; it leaves the queue once).
#[derive(Default)]
struct QueueTally {
    enqueued: u64,
    dequeued: std::collections::BTreeSet<(u64, u32)>,
}

impl QueueTally {
    fn record(&mut self, update: QueueUpdate, value: &QueueValue<u64>) {
        match (update, value) {
            (QueueUpdate::Enqueue(_), _) => self.enqueued += 1,
            (QueueUpdate::Dequeue, QueueValue::Dequeued(Some((t, _)))) => {
                self.dequeued.insert((t.tick(), t.replica().as_u32()));
            }
            (QueueUpdate::Dequeue, _) => {}
        }
    }
}

fn local_first_ops(seed: u64, sz: &LocalSizes, tr: &mut Tracer) -> Res<Round> {
    let mut r = Round::default();
    let names = ["main".to_owned(), "peer".to_owned()];
    let steps = gen::local_steps(seed, sz);
    let mut tally = QueueTally::default();

    let t = Instant::now();
    let mut store: BranchStore<Queue<u64>, MemoryBackend> = BranchStore::new("main");
    {
        let mut main = store.branch_mut("main").map_err(err("main branch"))?;
        for i in 0..u64::from(sz.resident) {
            let update = QueueUpdate::Enqueue(i);
            match main.apply(&queue_op(update)) {
                Ok(v) => tally.record(update, &v),
                Err(_) => r.check(false, "preload enqueue"),
            }
        }
        r.check(main.fork("peer").is_ok(), "fork");
    }
    r.setup_s = t.elapsed().as_secs_f64();

    let bytes_before = stored_bytes(&store)?;
    let commits_before = store.commit_count();
    let t = Instant::now();
    for (i, step) in steps.iter().enumerate() {
        let op_id = i as u64;
        match step {
            LocalStep::Peek => {
                let (res, _) = tr.time("e2e.read", op_id, || store.read("main", &QueueQuery::Peek));
                r.check(res.is_ok(), "peek");
                r.ops += 1;
            }
            LocalStep::Update(update) => {
                let mut main = store.branch_mut("main").map_err(err("main branch"))?;
                let (res, us) = tr.time("e2e.apply", op_id, || main.apply(&queue_op(*update)));
                r.op_us.push(us);
                r.ops += 1;
                match res {
                    Ok(v) => {
                        r.attempted += 1;
                        tally.record(*update, &v);
                    }
                    Err(_) => r.check(false, "update"),
                }
            }
            LocalStep::PeerSync(updates) => {
                let mut peer = store.branch_mut("peer").map_err(err("peer branch"))?;
                for update in updates {
                    match peer.apply(&queue_op(*update)) {
                        Ok(v) => {
                            r.attempted += 1;
                            tally.record(*update, &v);
                        }
                        Err(_) => r.check(false, "peer update"),
                    }
                }
                let (res, _) = tr.time("e2e.merge", op_id, || peer.merge_from("main"));
                r.check(res.is_ok(), "merge into peer");
                let mut main = store.branch_mut("main").map_err(err("main branch"))?;
                let (res, _) = tr.time("e2e.merge", op_id, || main.merge_from("peer"));
                r.check(res.is_ok(), "merge into main");
            }
        }
    }
    r.wall_s = t.elapsed().as_secs_f64();
    r.phase_s = r.wall_s;
    let commits = (store.commit_count() - commits_before).max(1);
    r.bytes_per_op = (stored_bytes(&store)? - bytes_before) as f64 / commits as f64;

    converge(&mut store, &names, &mut r)?;
    let origin = cold_clone(store, "main", &mut r, tr)?;

    // The queue must hold exactly what was enqueued and never dequeued.
    let mut left = 0u64;
    while let Ok(QueueValue::Dequeued(Some(_))) = origin.apply("main", &QueueOp::Dequeue) {
        left += 1;
    }
    r.check(
        left == tally.enqueued - tally.dequeued.len() as u64,
        "queue length equals enqueues minus distinct dequeues",
    );
    Ok(r)
}

/// Where a round of `workload` keeps its scratch data: under the
/// benchmark's own `out/` (a real filesystem, so fsync is not free as it
/// may be on a tmpfs `/tmp`).
pub fn round_dir(out: &Path, workload: &str, round: u32) -> PathBuf {
    out.join(format!("{workload}-{}-{round}", std::process::id()))
}
