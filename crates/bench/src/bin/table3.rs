//! **Table 3** — certification effort per MRDT: this workspace's analogue
//! of the paper's verification-effort table.
//!
//! The paper reports, per data type: lines of implementation, lines of
//! proof, number of auxiliary lemmas, and F*/Z3 verification time. The
//! executable-certification analogue reports: lines of implementation
//! (including the specification and simulation relation — the "proof
//! text" of this methodology), the number of proof-obligation instances
//! checked, the number of executions explored exhaustively, and the
//! certification wall-clock time.
//!
//! Run: `cargo run --release -p peepul-bench --bin table3`

use peepul_verify::suite::{certify_all, SuiteConfig};
use peepul_verify::MergePolicy;

/// Source text of each data type module, captured at compile time so the
/// line accounting can never drift from the code being certified.
const SOURCES: &[(&str, &str)] = &[
    (
        "Increment-only counter",
        include_str!("../../../types/src/counter.rs"),
    ),
    (
        "PN counter",
        include_str!("../../../types/src/pn_counter.rs"),
    ),
    (
        "Enable-wins flag",
        include_str!("../../../types/src/ew_flag.rs"),
    ),
    (
        "Enable-wins flag (space)",
        include_str!("../../../types/src/ew_flag.rs"),
    ),
    (
        "LWW register",
        include_str!("../../../types/src/lww_register.rs"),
    ),
    ("G-set", include_str!("../../../types/src/g_set.rs")),
    (
        "G-map (α-map of counters)",
        include_str!("../../../types/src/map.rs"),
    ),
    ("Mergeable log", include_str!("../../../types/src/log.rs")),
    ("OR-set", include_str!("../../../types/src/or_set.rs")),
    (
        "OR-set-space",
        include_str!("../../../types/src/or_set_space.rs"),
    ),
    (
        "OR-set-spacetime",
        include_str!("../../../types/src/or_set_spacetime.rs"),
    ),
    (
        "Replicated queue",
        include_str!("../../../types/src/queue.rs"),
    ),
    (
        "IRC chat (map of logs)",
        include_str!("../../../types/src/chat.rs"),
    ),
];

/// Counts non-blank, non-test lines of a module (tests are effort too, but
/// the paper's "lines of code" excludes its test harness).
fn loc(source: &str) -> usize {
    let mut lines = 0;
    for line in source.lines() {
        if line.contains("#[cfg(test)]") {
            break; // test module is always last, by convention
        }
        if !line.trim().is_empty() {
            lines += 1;
        }
    }
    lines
}

fn main() {
    let config = SuiteConfig {
        bounded_steps: 4,
        bounded_branches: 2,
        random_runs: 20,
        random_steps: 150,
        random_branches: 4,
        ..SuiteConfig::default()
    };
    println!("# Table 3 analogue: certification effort per MRDT");
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>10} {:>9} {:>8}",
        "MRDT",
        "LoC",
        "exhaustive",
        "transitions",
        "obligations",
        "time (s)",
        "envelope",
        "verdict"
    );
    println!("{}", "-".repeat(104));
    let mut failures = 0;
    for s in certify_all(&config) {
        let lines = SOURCES
            .iter()
            .find(|(n, _)| *n == s.name)
            .map(|(_, src)| loc(src))
            .unwrap_or(0);
        println!(
            "{:<28} {:>6} {:>12} {:>12} {:>12} {:>10.3} {:>9} {:>8}",
            s.name,
            lines,
            s.bounded_executions,
            s.bounded_transitions + s.random_transitions,
            s.obligations.total(),
            s.total_time().as_secs_f64(),
            match s.policy {
                MergePolicy::General => "general",
                MergePolicy::PaperEnvelope => "paper",
            },
            if s.passed() { "PASS" } else { "FAIL" }
        );
        if let Some(f) = &s.failure {
            failures += 1;
            println!("    counterexample: {f}");
        }
    }
    println!("{}", "-".repeat(104));
    println!("# LoC = non-blank, non-test lines of the module, *including* its");
    println!("# specification and simulation relation (the 'proof text' here).");
    println!("# envelope 'paper' = certified relative to the paper's strong Ψ_lca");
    println!("# store assumption (see DESIGN.md §9.1).");
    if failures > 0 {
        std::process::exit(1);
    }
}
