//! Deterministic replay of the Table-2 random pass: a random-run failure
//! prints the seed of the failing run, and `PEEPUL_REPLAY=<seed>` re-runs
//! exactly that schedule — the schedule is drawn from an `StdRng` seeded
//! with the run's seed, so the counterexample reproduces byte-for-byte.
//!
//! This lives in its own test binary (and is a single `#[test]`) because
//! it sets the `PEEPUL_REPLAY` process environment variable: sharing a
//! process with other tests would race their reads of it.

use peepul_core::{
    AbstractOf, Certified, Mrdt, SimulationRelation, Specification, Timestamp, Wire,
};
use peepul_types::counter::{CounterOp, CounterQuery};
use peepul_verify::suite::{certify_type, SuiteConfig};
use peepul_verify::{MergePolicy, Snapshot};

/// A counter whose merge drops one increment when both sides incremented
/// at least twice since their common ancestor. The shortest execution
/// that shows it takes six steps (a fork, two `DO`s on each branch, a
/// merge): deeper than the bounded pass below explores, so only the
/// random pass can find it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct LossyCounter(u64);

impl Wire for LossyCounter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(LossyCounter(Wire::decode(input)?))
    }
}

impl Mrdt for LossyCounter {
    type Op = CounterOp;
    type Value = ();
    type Query = CounterQuery;
    type Output = u64;
    fn initial() -> Self {
        LossyCounter(0)
    }
    fn apply(&self, _op: &CounterOp, _t: Timestamp) -> (Self, ()) {
        (LossyCounter(self.0 + 1), ())
    }
    fn query(&self, _q: &CounterQuery) -> u64 {
        self.0
    }
    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        let (da, db) = (a.0.saturating_sub(lca.0), b.0.saturating_sub(lca.0));
        // BUG: one increment is lost when both sides did two or more.
        LossyCounter(lca.0 + da + db - u64::from(da >= 2 && db >= 2))
    }
}

struct LossySpec;
impl Specification<LossyCounter> for LossySpec {
    fn spec(_op: &CounterOp, _abs: &AbstractOf<LossyCounter>) {}
    fn query(_q: &CounterQuery, abs: &AbstractOf<LossyCounter>) -> u64 {
        abs.events().count() as u64
    }
}

struct LossySim;
impl SimulationRelation<LossyCounter> for LossySim {
    fn holds(abs: &AbstractOf<LossyCounter>, conc: &LossyCounter) -> bool {
        conc.0 == abs.events().count() as u64
    }
}

impl Certified for LossyCounter {
    type Spec = LossySpec;
    type Sim = LossySim;
}

/// Certifies the lossy counter; its failure text, if any.
fn certify(config: &SuiteConfig) -> Option<String> {
    certify_type::<LossyCounter, _>(
        "lossy counter",
        config,
        MergePolicy::General,
        vec![CounterOp::Increment],
        vec![CounterQuery::Value],
        |_| CounterOp::Increment,
        |_: &[(String, Snapshot<LossyCounter>)]| Ok(()),
    )
    .failure
}

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
/// the replay hint — the counterexample itself, independent of which run
/// index tripped it.
fn failure_body(failure: &str) -> &str {
    let start = failure.find("): ").expect("preamble") + 3;
    let end = failure.find(" — re-run").expect("replay hint");
    &failure[start..end]
}

#[test]
fn printed_seed_replays_the_exact_random_pass_failure() {
    let config = SuiteConfig {
        bounded_steps: 2,
        bounded_branches: 2,
        random_runs: 8,
        random_steps: 40,
        random_branches: 3,
        ..SuiteConfig::default()
    };
    let first = certify(&config).expect("the lossy merge must fail certification");
    assert!(
        first.starts_with("random run") && first.contains("re-run with PEEPUL_REPLAY="),
        "the random pass must find the bug and print a replay seed: {first}"
    );
    let seed = printed_seed(&first);

    // Re-run with the printed seed. Shift the suite's base seed so only
    // the env var can steer the run back to the failing schedule, and
    // give it a single run: replay mode must need no sweep.
    std::env::set_var("PEEPUL_REPLAY", seed.to_string());
    let replay = certify(&SuiteConfig {
        random_runs: 1,
        seed: config.seed.wrapping_add(1_000_000),
        ..config
    });
    std::env::remove_var("PEEPUL_REPLAY");

    let replay = replay.expect("replay must reproduce the failure");
    assert_eq!(printed_seed(&replay), seed);
    assert_eq!(
        failure_body(&replay),
        failure_body(&first),
        "replayed counterexample must match the original byte-for-byte"
    );
}
