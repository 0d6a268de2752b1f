//! Runs the certification harness over every data type in the library and
//! prints the effort/cost table (the workspace's Table 3 analogue).
//!
//! Run with: `cargo run --release --example certify_all`

use peepul::verify::suite::{certify_all, SuiteConfig};

fn main() {
    let config = SuiteConfig {
        bounded_steps: 4,
        bounded_branches: 2,
        random_runs: 10,
        random_steps: 120,
        random_branches: 4,
        ..SuiteConfig::default()
    };
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10} {:>9} {:>8}",
        "MRDT", "exhaustive", "transitions", "obligations", "time (ms)", "envelope", "verdict"
    );
    println!("{}", "-".repeat(96));
    let mut all_passed = true;
    for s in certify_all(&config) {
        println!(
            "{:<28} {:>10} {:>12} {:>12} {:>10} {:>9} {:>8}",
            s.name,
            s.bounded_executions,
            s.bounded_transitions + s.random_transitions,
            s.obligations.total(),
            s.total_time().as_millis(),
            match s.policy {
                peepul::verify::MergePolicy::General => "general",
                peepul::verify::MergePolicy::PaperEnvelope => "paper",
            },
            if s.passed() { "PASS" } else { "FAIL" }
        );
        if let Some(f) = &s.failure {
            all_passed = false;
            println!("    counterexample: {f}");
        }
    }
    println!("{}", "-".repeat(96));
    println!(
        "envelope 'paper' = certified relative to the paper's strong Ψ_lca store assumption;\n\
         see DESIGN.md §9 — the space-optimized types cannot merge correctly outside it."
    );
    if all_passed {
        println!(
            "every data type certified: Φ_do ∧ Φ_merge ∧ Φ_spec ∧ Φ_con on all explored executions"
        );
    } else {
        std::process::exit(1);
    }
}
