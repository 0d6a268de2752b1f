//! The traced pass: every `per_layer` metric of `BENCHMARK.json` for one
//! workload per invocation.
//!
//! ```text
//! layers --workload <name> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! Three steps. (1) The op stream is replayed on a shadow store with
//! every stage function timed alone (`replay.rs`); it goes first so that
//! the memory the shadow retains per commit is read off a fresh heap.
//! (2) The workload's own rounds — the code the end-to-end bin measures —
//! run in pairs on one seed, with span recording off and on, the order
//! alternating from pair to pair; the ratio of their measured-phase wall
//! times is the tracing overhead. (3) Probes cover the layers a shadow
//! store does not reach (`probes.rs`). All spans go to
//! `out/trace-<workload>.jsonl`.
//!
//! A metric of a layer the workload bypasses is reported as 0: the layer
//! did no work there, which is the prediction a later change is held to.

mod api;
mod probes;
mod replay;
#[path = "../e2e/workloads.rs"]
mod workloads;

use api::*;
use peepul_benchmark::args::Args;
use peepul_benchmark::catalog::{self, PER_LAYER};
use peepul_benchmark::report::{Metric, RunResult};
use peepul_benchmark::sizes::{Sizes, DEFAULT_SEED};
use peepul_benchmark::trace::Tracer;
use peepul_benchmark::{err, gen, paths, stats, Res};
use replay::Replay;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    match Args::from_env().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The per-layer values of one run; every catalogue name starts at 0.
struct Table(BTreeMap<&'static str, f64>);

impl Table {
    fn new() -> Self {
        Table(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => unreachable!("{name} is not a per-layer metric of the catalogue"),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// What the paired rounds of step 1 measured.
struct Rounds {
    attempted: u64,
    failed: u64,
    /// Primary-op latencies of the traced rounds, µs, ascending.
    op_us: Vec<f64>,
    overhead_ratio: f64,
    /// `kv_durable_put`: expositions around the last traced round's phase.
    exposition: (String, String),
}

fn paired_rounds(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    budget: Duration,
    tr: &mut Tracer,
) -> Res<Rounds> {
    let start = Instant::now();
    let out = paths::out_dir();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut rounds = Rounds {
        attempted: 0,
        failed: 0,
        op_us: Vec::new(),
        overhead_ratio: 0.0,
        exposition: Default::default(),
    };
    let mut index = 0;
    while index == 0 || start.elapsed() < budget {
        let round_seed = gen::round_seed(seed, index);
        let dir = workloads::round_dir(&out, workload, index);
        let go = |tr: &mut Tracer| workloads::run_round(workload, round_seed, sizes, &dir, tr);
        let (plain, traced) = if index % 2 == 0 {
            let plain = go(&mut Tracer::off())?;
            (plain, go(tr)?)
        } else {
            let traced = go(tr)?;
            (go(&mut Tracer::off())?, traced)
        };
        plain_s.push(plain.wall_s);
        traced_s.push(traced.wall_s);
        rounds.attempted += plain.attempted + traced.attempted;
        rounds.failed += plain.failed + traced.failed;
        rounds.op_us.extend(traced.op_us);
        rounds.exposition = traced.exposition;
        index += 1;
    }
    rounds.op_us = stats::sorted(std::mem::take(&mut rounds.op_us));
    rounds.overhead_ratio = stats::median(&traced_s) / stats::median(&plain_s);
    Ok(rounds)
}

fn run(args: &Args) -> Res<()> {
    if let Some(done) = workloads::reopen_child_main(args) {
        return done;
    }
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !catalog::is_workload(workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if args.parsed("trace", 1u8)? == 0 {
        return Err("the untraced pass is the `e2e` bin (run.sh picks it)".into());
    }
    let seed = args.seed(DEFAULT_SEED)?;
    let seconds = args.parsed("seconds", f64::from(catalog::RUN_SECONDS))?;
    let sizes = Sizes::scaled(args.parsed("scale", 1)?);
    let out = paths::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let mut table = Table::new();
    let scratch = workloads::round_dir(&out, workload, u32::MAX);
    std::fs::create_dir_all(&scratch).map_err(err("create scratch"))?;
    let replay_seed = gen::round_seed(seed, 0);
    let mut rp = Replay::new(Tracer::on());
    match workload {
        "kv_durable_put" => replay::kv(&mut rp, replay_seed, &sizes.kv, &scratch)?,
        "sync_pull" => replay::sync_origin(&mut rp, replay_seed, &sizes.sync)?,
        "merge_crisscross" => {
            let store = replay::merge_crisscross(&mut rp, replay_seed, &sizes.merge)?;
            embedded_layers(&mut rp.tr, &mut table, store, "b0")?;
        }
        _ => {
            let store = replay::local_first_ops(&mut rp, replay_seed, &sizes.local)?;
            embedded_layers(&mut rp.tr, &mut table, store, "main")?;
        }
    }

    // The paired rounds get half the time; replay and probes are fixed work.
    let budget = Duration::from_secs_f64(seconds.max(0.0) / 2.0);
    let rounds = paired_rounds(workload, seed, &sizes, budget, &mut rp.tr)?;

    let stage_sum: StageSum = match workload {
        "kv_durable_put" => kv_layers(&mut rp, &mut table, replay_seed, &sizes, &scratch, &rounds)?,
        "sync_pull" => sync_layers(&mut rp, &mut table, replay_seed, &sizes, &scratch)?,
        "merge_crisscross" => &["store.dag.merge_bases_us", "types.merge_us"],
        _ => &["types.apply_us"],
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let Replay { tr, counts, .. } = rp;

    // Stage medians are span self times by name.
    let own = tr.self_times_us();
    let med = |span: &str| own.get(span).map_or(0.0, |v| stats::median(v));
    let count = |name: &str| counts.get(name).map_or(0.0, |v| stats::median(v));
    let total = |name: &str| counts.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    for (metric, span) in [
        ("types.apply_us", "types.apply"),
        ("types.query_us", "types.query"),
        ("types.merge_us", "types.merge"),
        ("core.wire.encode_us", "core.wire.encode"),
        ("core.wire.decode_us", "core.wire.decode"),
        ("core.delta.diff_us", "core.delta.diff"),
        ("core.delta.apply_us", "core.delta.apply"),
        ("store.sha256.us_per_state", "store.sha256"),
        ("store.branch.apply_us", "store.branch.apply"),
        ("store.branch.read_us", "store.branch.read"),
        ("store.branch.merge_us", "store.branch.merge"),
        ("store.branch.state_bytes_us", "store.branch.state_bytes"),
        ("store.dag.merge_bases_us", "store.dag.merge_bases"),
        ("store.segment.append_us", "store.segment.append"),
        ("store.segment.fsync_us", "store.segment.fsync"),
    ] {
        table.set(metric, med(span));
    }
    for name in [
        "core.wire.state_bytes",
        "core.delta.bytes",
        "store.branch.open_ms",
        "store.branch.open_scaling",
        "store.branch.delta_state_share",
        "store.branch.rss_kb_per_commit",
        "store.segment.fsyncs_per_op",
        "store.segment.bytes_per_op",
    ] {
        table.set(name, count(name));
    }
    table.set("store.segment.open_ms", med("store.segment.open") / 1e3);
    if table.get("store.sha256.us_per_state") > 0.0 {
        // bytes per µs is MB/s
        table.set(
            "store.sha256.mb_per_s",
            table.get("core.wire.state_bytes") / table.get("store.sha256.us_per_state"),
        );
    }
    if let Some(bases) = counts.get("store.dag.bases_per_merge") {
        table.set(
            "store.dag.bases_per_merge",
            bases.iter().sum::<f64>() / bases.len() as f64,
        );
        let probes = total("memo.hits") + total("memo.misses");
        let merges = counts.get("memo.hits").map_or(1, Vec::len).max(1);
        table.set("store.memo.probes", probes / merges as f64);
        if probes > 0.0 {
            table.set("store.memo.hit_ratio", total("memo.hits") / probes);
        }
    }

    // What the stages explain of the end-to-end median.
    let p50 = stats::quantile(&rounds.op_us, 0.5);
    let commit_stages = [
        "core.wire.encode_us",
        "store.sha256.us_per_state",
        "core.delta.diff_us",
    ];
    let explained: f64 = if workload == "sync_pull" {
        // One incremental pull: three round trips, then two objects
        // (commit and state) verified and ingested per origin commit. The
        // origin ships the stored deltas as they are, so it resolves no
        // chain here.
        let n = f64::from(sizes.sync.puts_per_pull);
        3.0 * table.get("net.tcp.echo_rtt_us")
            + 2.0 * n * table.get("store.branch.ingest_us_per_object")
    } else {
        stage_sum
            .iter()
            .chain(&commit_stages)
            .map(|name| table.get(name))
            .sum()
    };
    table.set("trace.unexplained_share", 1.0 - explained / p50);
    table.set("trace.overhead_ratio", rounds.overhead_ratio);
    table.set("trace.spans", tr.spans().len() as f64);
    if workload == "kv_durable_put" {
        table.set("server.put.p99_us", stats::quantile(&rounds.op_us, 0.99));
        table.set(
            "server.put.over_store_us",
            p50 - table.get("net.tcp.echo_rtt_us") - table.get("store.branch.apply_us"),
        );
    }

    let trace_path = out.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&trace_path, tr.to_jsonl())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let result = RunResult {
        correct: rounds.failed == 0,
        attempted: rounds.attempted,
        failed: rounds.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric::new(m.name, table.get(m.name), m.unit))
            .collect(),
    };
    println!("{}", result.to_json_line()?);
    Ok(())
}

type StageSum = &'static [&'static str];

/// `kv_durable_put`: the segment-backed shadow, the bare round trip, and
/// the daemon's own request path.
fn kv_layers(
    rp: &mut Replay,
    table: &mut Table,
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
    rounds: &Rounds,
) -> Res<StageSum> {
    let mut echo = probes::echo_server()?;
    echo_metrics(&mut rp.tr, table, &echo)?;

    let mut server = workloads::durable_server("probe", &scratch.join("probe"))?;
    let mut client = ServiceClient::connect(server.addr()).map_err(err("connect"))?;
    for p in gen::kv_preload(seed, sizes.kv.keys, sizes.kv.value_bytes) {
        client
            .put("main", gen::kv_key(p.key), p.value)
            .map_err(err("probe preload"))?;
    }
    drop(client);
    // Ten pairs of blocks; a block is 1 000 requests at full size.
    let (get_rtt, over_echo) = probes::get_over_echo_us(
        &mut rp.tr,
        echo.addr(),
        server.addr(),
        sizes.kv.keys,
        10,
        sizes.kv.puts / 2,
    )?;
    server.shutdown();
    echo.shutdown();
    table.set("server.get.rtt_us", get_rtt);
    table.set("server.get.over_echo_us", over_echo);
    table.set(
        "server.put.handler_us",
        probes::put_handler_us(&rounds.exposition.0, &rounds.exposition.1)?,
    );
    Ok(&[
        "net.tcp.echo_rtt_us",
        "types.apply_us",
        "store.segment.append_us",
        "store.segment.fsync_us",
    ])
}

fn echo_metrics(tr: &mut Tracer, table: &mut Table, echo: &FrameServer) -> Res<()> {
    table.set(
        "net.tcp.echo_rtt_us",
        probes::echo_rtt_us(tr, "net.tcp.echo", echo.addr(), 64, 2000)?,
    );
    table.set(
        "net.tcp.echo_rtt_64k_us",
        probes::echo_rtt_us(tr, "net.tcp.echo_64k", echo.addr(), 64 * 1024, 200)?,
    );
    Ok(())
}

fn cold_fetch_metrics(table: &mut Table, cold: &probes::ColdFetch, codec: (f64, f64)) {
    table.set("net.message.encode_us", codec.0);
    table.set("net.message.decode_us", codec.1);
    table.set("net.replica.round_trips", cold.round_trips);
    table.set("net.replica.fetch_ms", cold.fetch_ms);
    table.set("net.replica.integrate_ms", cold.integrate_ms);
    table.set("net.replica.delta_states_share", cold.delta_states_share);
    table.set("net.replica.objects_per_s", cold.objects_per_s);
    table.set(
        "store.branch.ingest_us_per_object",
        cold.ingest_us_per_object,
    );
}

/// `sync_pull`: the commit stages of the origin's history on a memory
/// shadow, then a real durable origin for the socket, the protocol codec,
/// the state-record serving cost and a traced cold fetch.
fn sync_layers(
    rp: &mut Replay,
    table: &mut Table,
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
) -> Res<StageSum> {
    let mut echo = probes::echo_server()?;
    echo_metrics(&mut rp.tr, table, &echo)?;
    echo.shutdown();

    let mut unused = workloads::Round::default();
    let (mut server, client) =
        workloads::sync_origin(seed, &sizes.sync, &scratch.join("origin"), &mut unused)?;
    drop(client);
    server
        .replica()
        .with_store_read(|store| replay::store_facts(rp, store))?;
    let connect = || TcpTransport::connect(server.addr()).map_err(err("connect"));
    let codec = probes::message_codec_us(&mut rp.tr, &mut connect()?, "main", 5)?;
    let cold = probes::cold_fetch::<Kv, _>(&mut rp.tr, connect()?, "main")?;
    server.shutdown();
    cold_fetch_metrics(table, &cold, codec);
    Ok(&[])
}

/// The two embedded workloads: protocol codec and a traced cold fetch of
/// the replayed store through the in-process channel transport.
fn embedded_layers<M: Mrdt>(
    tr: &mut Tracer,
    table: &mut Table,
    store: BranchStore<M, MemoryBackend>,
    branch: &str,
) -> Res<()> {
    let origin = Replica::new("origin", store);
    let connect = || ChannelTransport::connect(origin.clone());
    let codec = probes::message_codec_us(tr, &mut connect(), branch, 5)?;
    let cold = probes::cold_fetch::<M, _>(tr, connect(), branch)?;
    cold_fetch_metrics(table, &cold, codec);
    Ok(())
}
