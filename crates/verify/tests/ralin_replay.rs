//! Deterministic failure replay: a `Φ_ra` failure prints the seed of the
//! failing fleet run, and `PEEPUL_REPLAY=<seed>` re-runs exactly that
//! schedule — the fleet's op stream is a pure function of the seed, so
//! the counterexample reproduces byte-for-byte.
//!
//! This lives in its own test binary (and is a single `#[test]`) because
//! it sets the `PEEPUL_REPLAY` process environment variable: sharing a
//! process with other tests would race their reads of it.

use peepul_net::ReplicationMutation;
use peepul_types::counter::{Counter, CounterOp, CounterQuery};
use peepul_verify::suite::{ra_lin_type, RaLinSummary};
use peepul_verify::FleetConfig;

/// Extracts the `{seed}` out of a "… re-run with PEEPUL_REPLAY={seed}"
/// failure message.
fn printed_seed(failure: &str) -> u64 {
    let tail = failure
        .split("PEEPUL_REPLAY=")
        .nth(1)
        .expect("failure names the replay seed");
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("replay seed parses")
}

/// The failure body: everything after the run/seed preamble and before
/// the replay hint — i.e. the counterexample itself, independent of
/// which run index tripped it.
fn failure_body(failure: &str) -> &str {
    let start = failure.find("): ").expect("preamble") + 3;
    let end = failure.find(" — re-run").expect("replay hint");
    &failure[start..end]
}

/// `runs` counter fleet runs of the `fleet` shape, through the suite path.
fn ra_lin_counter(fleet: &FleetConfig, runs: usize) -> RaLinSummary {
    let probes = [CounterQuery::Value];
    ra_lin_type::<Counter>("counter", fleet, runs, |_| CounterOp::Increment, &probes)
}

#[test]
fn printed_seed_replays_the_exact_failure() {
    // Force a failure through the real suite path by enacting a
    // replication mutant across the fleet runs.
    let config = FleetConfig {
        replicas: 4,
        ops_per_replica: 8,
        gossip_every: 2,
        loss_per_mille: 100,
        partition_one: true,
        mutation: ReplicationMutation::DropVisibilityEdge,
        ..FleetConfig::default()
    };
    let first = ra_lin_counter(&config, 6);
    let first_failure = first.failure.expect("mutated fleet must fail Φ_ra");
    assert!(
        first_failure.contains("re-run with PEEPUL_REPLAY="),
        "failure must print a replay seed: {first_failure}"
    );
    let seed = printed_seed(&first_failure);

    // Re-run with the printed seed. Shift the suite's base seed so only
    // the env var can steer the run back to the failing schedule, and
    // give it a single run: replay mode must need no sweep.
    std::env::set_var("PEEPUL_REPLAY", seed.to_string());
    let replay = ra_lin_counter(
        &FleetConfig {
            seed: config.seed.wrapping_add(1_000_000),
            ..config.clone()
        },
        1,
    );
    std::env::remove_var("PEEPUL_REPLAY");

    let replay_failure = replay.failure.expect("replay must reproduce the failure");
    assert_eq!(printed_seed(&replay_failure), seed);
    assert_eq!(
        failure_body(&replay_failure),
        failure_body(&first_failure),
        "replayed counterexample must match the original byte-for-byte"
    );

    // And the seed really is the schedule: a healthy (unmutated) replay
    // of the same seed certifies, so the failure is the mutant's, not
    // the schedule's.
    std::env::set_var("PEEPUL_REPLAY", seed.to_string());
    let healthy = ra_lin_counter(
        &FleetConfig {
            mutation: ReplicationMutation::None,
            ..config
        },
        1,
    );
    std::env::remove_var("PEEPUL_REPLAY");
    assert!(healthy.passed(), "{:?}", healthy.failure);
}
