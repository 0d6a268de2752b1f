//! The end-to-end benchmark: tracing off, every `end_to_end` metric of
//! `BENCHMARK.json` for one workload per invocation.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> [--trace 0]
//! e2e --check                      every workload at 1/20 size, all assertions
//! e2e --repeat <n> [--vary-seed]   the suite n times, spread per metric
//! e2e --print-benchmark-json       the text BENCHMARK.json must hold
//! ```
//!
//! A run repeats **rounds** until `--seconds` is used up. Each round is a
//! fresh process of this binary (`--round <i>`), so its peak RSS is its
//! own and no allocator state leaks from one round into the next; the run
//! reports the median over rounds.

mod api;
mod workloads;

use peepul_benchmark::args::Args;
use peepul_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use peepul_benchmark::report::{Metric, RunResult};
use peepul_benchmark::sizes::{Sizes, DEFAULT_SEED};
use peepul_benchmark::trace::Tracer;
use peepul_benchmark::{err, gen, paths, procinfo, stats, Res};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Round;

fn main() -> ExitCode {
    match Args::from_env().and_then(|args| dispatch(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &Args) -> Res<()> {
    if let Some(done) = workloads::reopen_child_main(args) {
        return done;
    }
    if args.has("print-benchmark-json") {
        print!("{}", catalog::benchmark_json());
        return Ok(());
    }
    if args.has("check") {
        return check(args);
    }
    let seed = args.seed(DEFAULT_SEED)?;
    if args.has("repeat") {
        return repeat(args.parsed("repeat", 3)?, seed, args.has("vary-seed"));
    }
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !catalog::is_workload(workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if args.has("round") {
        let scale = args.parsed("scale", 1)?;
        return round_child(workload, seed, args.parsed("round", 0)?, scale);
    }
    if args.parsed("trace", 0u8)? != 0 {
        return Err("the traced pass is the `layers` bin (run.sh picks it)".into());
    }
    let seconds = args.parsed("seconds", f64::from(catalog::RUN_SECONDS))?;
    let result = run(workload, seed, seconds)?;
    println!("{}", result.to_json_line()?);
    Ok(())
}

// ---------------------------------------------------------------- one round, in a child

/// The end-to-end metrics of one round, in catalogue order.
fn round_result(round: &Round) -> RunResult {
    let op_us = stats::sorted(round.op_us.clone());
    let peak_kb = procinfo::peak_rss_kb().max(round.child_peak_rss_kb);
    let value = |metric: &str| match metric {
        "setup_s" => round.setup_s,
        "op_p50_us" => stats::quantile(&op_us, 0.50),
        "op_p95_us" => stats::quantile(&op_us, 0.95),
        "ops_per_s" => round.ops as f64 / round.phase_s,
        "bytes_per_op" => round.bytes_per_op,
        "cold_start_ms" => round.cold_ms,
        "peak_rss_mb" => peak_kb as f64 / 1024.0,
        other => unreachable!("metric {other} is not in the catalogue"),
    };
    RunResult {
        correct: round.failed == 0,
        attempted: round.attempted,
        failed: round.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| Metric::new(m.name, value(m.name), m.unit))
            .collect(),
    }
}

/// `--round <i>`: one round in this process; prints its result line.
fn round_child(workload: &str, seed: u64, round: u32, scale: u32) -> Res<()> {
    let dir = workloads::round_dir(&paths::out_dir(), workload, round);
    let result = workloads::run_round(
        workload,
        gen::round_seed(seed, round),
        &Sizes::scaled(scale),
        &dir,
        &mut Tracer::off(),
    )?;
    println!("{}", round_result(&result).to_json_line()?);
    Ok(())
}

fn round_in_child(workload: &str, seed: u64, round: u32) -> Res<RunResult> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--round", &round.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(err("spawn round"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .filter(|_| out.status.success())
        .and_then(RunResult::parse)
        .ok_or_else(|| format!("round {round} of {workload} failed"))
}

// ---------------------------------------------------------------- one run

fn run(workload: &str, seed: u64, seconds: f64) -> Res<RunResult> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < budget {
        rounds.push(round_in_child(workload, seed, rounds.len() as u32)?);
    }
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    Ok(RunResult {
        correct: failed == 0,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let used = if m.count {
                    rounds.len().min(catalog::COUNT_ROUNDS)
                } else {
                    rounds.len()
                };
                let values: Vec<f64> = rounds[..used].iter().map(|r| r.metrics[k].value).collect();
                Metric::new(m.name, stats::median(&values), m.unit)
            })
            .collect(),
    })
}

// ---------------------------------------------------------------- --check

/// Asserts that `result` carries exactly the metrics `wanted` names, each
/// once, finite, with its unit.
fn check_metrics(
    what: &str,
    result: &RunResult,
    wanted: &[(&'static str, &'static str)],
) -> Res<()> {
    for (name, unit) in wanted {
        if !catalog::valid_name(name) {
            return Err(format!("{what}: name {name:?} violates [A-Za-z0-9_.-]+"));
        }
        let found: Vec<&Metric> = result.metrics.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [m] if m.value.is_finite() && m.unit == *unit => {}
            [m] => return Err(format!("{what}: {name} = {} {}", m.value, m.unit)),
            _ => return Err(format!("{what}: {name} printed {} times", found.len())),
        }
    }
    if result.metrics.len() != wanted.len() {
        return Err(format!(
            "{what}: prints metrics BENCHMARK.json does not name"
        ));
    }
    if !result.correct || result.failed != 0 || result.attempted == 0 {
        return Err(format!(
            "{what}: {} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    Ok(())
}

fn check(args: &Args) -> Res<()> {
    const SCALE: u32 = 20;
    let seed = args.seed(DEFAULT_SEED)?;
    let start = Instant::now();
    let committed =
        std::fs::read_to_string(paths::benchmark_json()).map_err(err("read BENCHMARK.json"))?;
    if committed != catalog::benchmark_json() {
        return Err("BENCHMARK.json differs from the catalogue (src/catalog.rs)".into());
    }
    let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let layers_exe = std::env::current_exe()
        .map_err(err("current_exe"))?
        .with_file_name("layers");
    for w in &WORKLOADS {
        let dir = workloads::round_dir(&paths::out_dir(), w.name, 0);
        let round = workloads::run_round(
            w.name,
            gen::round_seed(seed, 0),
            &Sizes::scaled(SCALE),
            &dir,
            &mut Tracer::off(),
        )?;
        let result = round_result(&round);
        let line = result.to_json_line()?;
        let reread = RunResult::parse(&line).ok_or("result line does not parse")?;
        check_metrics(&format!("{} (end to end)", w.name), &reread, &e2e)?;
        if let Some(zero) = reread.metrics.iter().find(|m| m.value == 0.0) {
            return Err(format!("{}: end-to-end metric {} is 0", w.name, zero.name));
        }

        let out = Command::new(&layers_exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args(["--seed", &seed.to_string()])
            .args(["--scale", &SCALE.to_string(), "--seconds", "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", layers_exe.display()))?;
        if !out.status.success() {
            return Err(format!("{}: traced pass failed", w.name));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let traced = text
            .lines()
            .last()
            .and_then(RunResult::parse)
            .ok_or_else(|| format!("{}: traced pass printed no result", w.name))?;
        check_metrics(&format!("{} (per layer)", w.name), &traced, &layers)?;
        eprintln!(
            "check: {} ok ({} operations and checks, {} per-layer metrics)",
            w.name,
            result.attempted + traced.attempted,
            traced.metrics.len()
        );
    }
    eprintln!("check: passed in {:.1} s", start.elapsed().as_secs_f64());
    Ok(())
}

// ---------------------------------------------------------------- --repeat

fn repeat(n: u32, seed: u64, vary_seed: bool) -> Res<()> {
    let seconds = f64::from(catalog::RUN_SECONDS);
    println!(
        "{n} runs per workload, {} s each, seed {seed}{}, {} hardware threads",
        catalog::RUN_SECONDS,
        if vary_seed {
            " + run index"
        } else {
            " on every run"
        },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!();
    println!("| workload | metric | unit | median | q1 | q3 | min | max | IQR / median | max dev from median | bound |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..n {
            let run_seed = if vary_seed { seed + u64::from(i) } else { seed };
            let result = run(w.name, run_seed, seconds)?;
            if !result.correct {
                return Err(format!("{}: {} operations failed", w.name, result.failed));
            }
            runs.push(result);
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[k].value).collect();
            let s = stats::sorted(values.clone());
            let median = stats::median(&values);
            let (q1, q3) = stats::quartiles_exclusive(&values);
            let max_dev = s
                .iter()
                .map(|v| (v - median).abs() / median)
                .fold(0.0, f64::max);
            println!(
                "| {} | {} | {} | {:.6} | {:.6} | {:.6} | {:.6} | {:.6} | {:.2}% | {:.2}% | {:.0}% |",
                w.name,
                m.name,
                m.unit,
                median,
                q1,
                q3,
                s[0],
                s[s.len() - 1],
                stats::iqr_share(&values) * 100.0,
                max_dev * 100.0,
                m.bound * 100.0,
            );
        }
    }
    Ok(())
}
