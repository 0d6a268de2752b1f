//! Nightly-depth certification runs.
//!
//! The PR gate certifies every data type at the `SuiteConfig::default()`
//! budget (bounded depth 4, 2 branches, 20 random runs — fractions of a
//! second per type). These tests re-run the same obligations at bounds the
//! PR gate cannot afford: deeper exhaustive exploration, a third branch
//! (criss-cross merges only appear with ≥3 branches) and an order of
//! magnitude more random executions.
//!
//! They are `#[ignore]`d so `cargo test` stays fast; the scheduled CI job
//! runs them with:
//!
//! ```sh
//! cargo test -q -p peepul-verify --release -- --ignored
//! ```

use peepul_verify::suite::{certify_all, SuiteConfig};

fn assert_all_pass(config: &SuiteConfig, label: &str) {
    let mut failures = Vec::new();
    for s in certify_all(config) {
        assert!(
            s.obligations.total() > 0,
            "{label}: {} checked no obligations — vacuous run",
            s.name
        );
        if !s.passed() {
            failures.push(format!("{}: {}", s.name, s.failure.unwrap()));
        }
    }
    assert!(
        failures.is_empty(),
        "{label} failures:\n{}",
        failures.join("\n")
    );
}

/// Deeper exhaustive pass: depth 6 on two branches reaches executions with
/// three concurrent operations per branch plus a merge and its re-check.
#[test]
#[ignore = "nightly: ~minutes of bounded-exhaustive exploration"]
fn certify_all_exhaustive_depth_6() {
    assert_all_pass(
        &SuiteConfig {
            bounded_steps: 6,
            bounded_branches: 2,
            random_runs: 0,
            ..SuiteConfig::default()
        },
        "depth 6 / 2 branches",
    );
}

/// Third branch: the smallest setting where criss-cross histories (and so
/// recursive virtual LCAs) occur inside the exhaustive envelope.
#[test]
#[ignore = "nightly: ~minutes of bounded-exhaustive exploration"]
fn certify_all_exhaustive_3_branches() {
    assert_all_pass(
        &SuiteConfig {
            bounded_steps: 5,
            bounded_branches: 3,
            random_runs: 0,
            ..SuiteConfig::default()
        },
        "depth 5 / 3 branches",
    );
}

/// Long-haul randomized pass: 100 seeded executions of 300 steps over up
/// to 5 branches per data type — the scale knob the bounded pass lacks.
/// Obligation checking grows superlinearly with execution length, so this
/// is ~20x the PR-gate random budget (20 runs of 150 steps) in wall-clock.
#[test]
#[ignore = "nightly: long randomized certification"]
fn certify_all_random_long_haul() {
    assert_all_pass(
        &SuiteConfig {
            bounded_steps: 3,
            bounded_branches: 2,
            random_runs: 100,
            random_steps: 300,
            random_branches: 5,
            ..SuiteConfig::default()
        },
        "random long-haul",
    );
}
