//! The instrumentation budget: the full `peepul-obs` spine (counters,
//! latency histograms, trace ring — everything the daemon enables by
//! default) costs under 5 % of the commit throughput of a store attached
//! to `Obs::disabled()`.
//!
//! The only wall-clock gate in the suite, so it is `#[ignore]`d and CI
//! runs it optimized and alone:
//! `cargo test --release --test obs_overhead -- --ignored`

use peepul::obs::Obs;
use peepul::prelude::*;
use peepul::store::StoreMetrics;
use peepul::types::lww_register::LwwOp;
use peepul::types::map::MapOp;
use peepul_server::Kv;
use std::time::Instant;

const COMMITS: u32 = 4_096;
const ROUNDS: u32 = 6;

/// One round of the daemon's `put` shape against a fresh store carrying
/// the given spine: one `MapOp::Set` commit per iteration over 512
/// rotating keys. Returns the seconds the commits took.
fn commit_round(obs: &Obs) -> f64 {
    let mut s: BranchStore<Kv> = BranchStore::new("main");
    s.set_metrics(obs.attach(StoreMetrics::register));
    let keys: Vec<String> = (0..512).map(|k| format!("key-{k}")).collect();
    let start = Instant::now();
    let mut main = s.branch_mut("main").unwrap();
    for i in 0..COMMITS {
        let key = keys[i as usize % keys.len()].clone();
        main.apply(&MapOp::Set(key, LwwOp::Write(format!("value-{i}"))))
            .unwrap();
    }
    start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn instrumentation_costs_under_five_percent_of_commit_throughput() {
    let enabled = Obs::new(ObsConfig::default());
    let disabled = Obs::disabled();

    // Untimed warm-up pair: the first store of a process pays one-off page
    // faults and allocator growth that would otherwise land on one side.
    commit_round(&disabled);
    commit_round(&enabled);

    // Alternate which configuration runs first each round and gate on the
    // median of the per-round paired overheads: a real overhead shifts
    // every pair, while a burst of host noise shifts one.
    let mut overheads: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let (secs_off, secs_on) = if round % 2 == 0 {
                let off = commit_round(&disabled);
                (off, commit_round(&enabled))
            } else {
                let on = commit_round(&enabled);
                (commit_round(&disabled), on)
            };
            // Same commit count on both sides, so the throughput loss
            // relative to the disabled rate is 1 - secs_off / secs_on.
            (1.0 - secs_off / secs_on) * 100.0
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    let mid = overheads.len() / 2;
    let overhead_pct = (overheads[mid - 1] + overheads[mid]) / 2.0;
    println!("per-round overheads {overheads:.2?}%: median {overhead_pct:.2}%");
    assert!(
        overhead_pct < 5.0,
        "instrumentation overhead {overhead_pct:.2}% is not below the 5% budget"
    );
}
