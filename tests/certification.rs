//! End-to-end certification: the full suite over every data type, plus
//! direct obligation-level checks on paper scenarios.

mod common;

use common::Scratch;
use peepul::store::{SegmentBackend, SegmentOptions};
use peepul::types::or_set::{OrSet, OrSetOp as SetOp, OrSetQuery as SetQuery};
use peepul::types::or_set_space::{OrSetOp, OrSetQuery, OrSetSpace};
use peepul::types::queue::{Queue, QueueOp};
use peepul::verify::proptest_support::{schedules_with, Arms};
use peepul::verify::suite::{certify_all, SuiteConfig};
use peepul::verify::{MergePolicy, Runner, Schedule, Step};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_config() -> SuiteConfig {
    SuiteConfig {
        bounded_steps: 3,
        bounded_branches: 2,
        random_runs: 4,
        random_steps: 80,
        random_branches: 4,
        ..SuiteConfig::default()
    }
}

#[test]
fn every_data_type_certifies() {
    for summary in certify_all(&quick_config()) {
        assert!(
            summary.passed(),
            "{} failed certification: {:?}",
            summary.name,
            summary.failure
        );
        assert!(summary.obligations.phi_do > 0, "{}", summary.name);
        assert!(summary.obligations.phi_merge > 0, "{}", summary.name);
        assert!(summary.obligations.phi_spec > 0, "{}", summary.name);
    }
}

#[test]
fn space_optimized_types_are_certified_relative_to_the_envelope() {
    let summaries = certify_all(&quick_config());
    let by_name = |n: &str| {
        summaries
            .iter()
            .find(|s| s.name == n)
            .unwrap_or_else(|| panic!("missing summary {n}"))
    };
    for name in [
        "OR-set-space",
        "OR-set-spacetime",
        "Enable-wins flag (space)",
    ] {
        assert_eq!(by_name(name).policy, MergePolicy::PaperEnvelope, "{name}");
    }
    for name in ["OR-set", "Replicated queue", "Mergeable log"] {
        assert_eq!(by_name(name).policy, MergePolicy::General, "{name}");
        assert_eq!(by_name(name).skipped_merges, 0, "{name}");
    }
}

/// The §2.1.2 motivating scenario, as a certified execution: duplicate add
/// refreshing the timestamp defeats a concurrent remove.
#[test]
fn paper_section_2_1_2_scenario_certifies() {
    let schedule: Schedule<OrSetOp<u32>> = [
        Step::Do {
            node: 0,
            branch: 0,
            op: OrSetOp::Add(7),
        },
        Step::CreateBranch { node: 0, from: 0 },
        Step::Do {
            node: 0,
            branch: 0,
            op: OrSetOp::Add(7), // refresh on b0
        },
        Step::Do {
            node: 0,
            branch: 1,
            op: OrSetOp::Remove(7), // concurrent remove on b1
        },
        Step::Merge {
            node: 0,
            into: 0,
            from: 1,
        },
    ]
    .into_iter()
    .collect();
    let mut runner: Runner<OrSetSpace<u32>> =
        Runner::new().with_queries(vec![OrSetQuery::Lookup(7)]);
    runner
        .run_schedule(&schedule)
        .expect("the refresh-vs-remove scenario satisfies all obligations");
    // The Lookup(7) probe fired after every DO and after the merge, and
    // Φ_spec checked it answered Present(true) post-merge — the value the
    // specification demands (the refresh-add is unseen by the remove).
    assert!(runner.report().phi_spec >= 4);
}

/// Fig. 11's execution as a certified schedule, including the queue axioms
/// implicitly via Φ_spec on every dequeue.
#[test]
fn paper_figure_11_certifies() {
    let mut steps: Vec<Step<QueueOp<u32>>> = (1..=5)
        .map(|v| Step::Do {
            node: 0,
            branch: 0,
            op: QueueOp::Enqueue(v),
        })
        .collect();
    steps.push(Step::CreateBranch { node: 0, from: 0 }); // b1 = A
    steps.push(Step::CreateBranch { node: 0, from: 0 }); // b2 = B
    steps.extend([
        Step::Do {
            node: 0,
            branch: 1,
            op: QueueOp::Dequeue,
        },
        Step::Do {
            node: 0,
            branch: 1,
            op: QueueOp::Dequeue,
        },
        Step::Do {
            node: 0,
            branch: 2,
            op: QueueOp::Dequeue,
        },
        Step::Do {
            node: 0,
            branch: 2,
            op: QueueOp::Enqueue(6),
        },
        Step::Do {
            node: 0,
            branch: 2,
            op: QueueOp::Enqueue(7),
        },
        Step::Do {
            node: 0,
            branch: 1,
            op: QueueOp::Enqueue(8),
        },
        Step::Do {
            node: 0,
            branch: 1,
            op: QueueOp::Enqueue(9),
        },
        Step::Merge {
            node: 0,
            into: 1,
            from: 2,
        },
    ]);
    let schedule: Schedule<QueueOp<u32>> = steps.into_iter().collect();
    let mut runner: Runner<Queue<u32>> = Runner::new();
    runner.run_schedule(&schedule).expect("Fig. 11 certifies");
    let report = runner.report();
    assert_eq!(report.phi_merge, 1);
    assert_eq!(report.phi_do, 12);
}

/// The certifying runner is generic over the backend: a seeded random
/// schedule certifies on an on-disk segment store, rotating through many
/// segment files, exactly as it does in memory.
#[test]
fn or_set_certifies_on_a_segment_store() {
    let scratch = Scratch::new("certify-segment");
    let dir = scratch.path().join("db");
    let options = SegmentOptions {
        durable: false,
        max_segment_bytes: 2048,
        ..SegmentOptions::default()
    };
    let backend = SegmentBackend::open_with(&dir, options).unwrap();
    let mut runner: Runner<OrSet<u32>, SegmentBackend> = Runner::with_backend(backend)
        .unwrap()
        .with_queries(vec![SetQuery::Lookup(1), SetQuery::Read]);
    let op = (0u8..3, 0u32..6).prop_map(|(k, x)| match k {
        0 | 1 => SetOp::Add(x),
        _ => SetOp::Remove(x),
    });
    let schedule = schedules_with(Arms::STORE, op, 120, 4)
        .generate(&mut StdRng::seed_from_u64(SuiteConfig::default().seed));
    runner
        .run_schedule(&schedule)
        .expect("OR-set certifies on disk");
    let report = runner.report();
    assert!(report.phi_do > 0 && report.phi_merge > 0, "{report:?}");
    let segments = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("seg".as_ref()))
        .count();
    assert!(
        segments > 1,
        "the run rotated through {segments} segment file(s)"
    );
}
