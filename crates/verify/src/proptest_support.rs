//! `proptest` strategies for schedules — the one random schedule drawer.
//!
//! The property tests draw their cases from these strategies, and so does
//! the certified random pass of [`crate::suite`]: it draws run `i` with
//! [`schedules_with`] over [`Arms::STORE`] from an `StdRng` seeded with
//! the run's seed, so every random schedule goes through one
//! `normalize`. The vendored proptest does not shrink: a failing case is
//! printed as generated, and every property draws its cases from a fixed
//! per-test seed, so a failure comes back on every run. Available to
//! downstream data type authors too.

use crate::schedule::{Schedule, Step};
use proptest::collection::SizeRange;
use proptest::prelude::*;
use std::fmt::Debug;

/// How often [`schedules_with`] draws each kind of step, as relative
/// weights; an arm of weight 0 is never drawn. Every drawn step runs on
/// replica 0.
#[derive(Clone, Copy, Debug)]
pub struct Arms {
    /// `CREATEBRANCH` off any branch.
    pub create: u32,
    /// `MERGE` of two distinct branches.
    pub merge: u32,
    /// `DO` on any branch.
    pub apply: u32,
    /// A batch: one to four `DO`s on one branch, then `FLUSH`.
    pub batch: u32,
    /// `STRAND` off any branch.
    pub strand: u32,
    /// `COLLECT`.
    pub collect: u32,
    /// `ROTATE`.
    pub rotate: u32,
    /// `COMPACT`.
    pub compact: u32,
}

impl Arms {
    /// The store arms alone, as [`schedules`] draws them.
    pub const STORE: Arms = Arms {
        create: 1,
        merge: 2,
        apply: 7,
        batch: 0,
        strand: 0,
        collect: 0,
        rotate: 0,
        compact: 0,
    };

    /// The store arms beside every lifecycle arm.
    pub const LIFECYCLE: Arms = Arms {
        create: 1,
        merge: 2,
        apply: 6,
        batch: 2,
        strand: 2,
        collect: 1,
        rotate: 1,
        compact: 1,
    };
}

/// Strategy for one draw: a step — or a batch of steps — whose branch
/// indices may exceed the branch count; [`normalize`] wraps them.
fn draw<Op: Debug + Clone + 'static>(
    arms: Arms,
    op: impl Strategy<Value = Op> + Clone + 'static,
) -> impl Strategy<Value = Vec<Step<Op>>> {
    let index = || any::<u8>().prop_map(usize::from);
    let just = |step: Step<Op>| Just(vec![step]);
    prop_oneof![
        arms.create => index().prop_map(|from| vec![Step::CreateBranch { node: 0, from }]),
        arms.merge => (index(), index()).prop_map(|(into, from)| {
            vec![Step::Merge { node: 0, into, from }]
        }),
        arms.apply => (index(), op.clone()).prop_map(|(branch, op)| {
            vec![Step::Do { node: 0, branch, op }]
        }),
        arms.batch => (index(), proptest::collection::vec(op.clone(), 1..5)).prop_map(
            |(branch, ops)| {
                ops.into_iter()
                    .map(|op| Step::Do { node: 0, branch, op })
                    .chain([Step::Flush { node: 0 }])
                    .collect()
            }
        ),
        arms.strand => (index(), op).prop_map(|(from, op)| {
            vec![Step::Strand { node: 0, from, op }]
        }),
        arms.collect => just(Step::Collect { node: 0 }),
        arms.rotate => just(Step::Rotate { node: 0 }),
        arms.compact => just(Step::Compact { node: 0 }),
    ]
}

/// Turns drawn steps into a well-formed schedule: branch references are
/// wrapped modulo the live branch count, branch creation respects
/// `max_branches`, and self-merges are dropped.
fn normalize<Op>(draws: Vec<Vec<Step<Op>>>, max_branches: usize) -> Schedule<Op> {
    let mut steps: Vec<_> = draws.into_iter().flatten().collect();
    let mut branches = 1usize;
    steps.retain_mut(|step| {
        let n = branches;
        match step {
            Step::CreateBranch { from, .. } | Step::Strand { from, .. } => {
                *from %= n;
                branches += usize::from(n < max_branches);
                n < max_branches
            }
            Step::Do { branch, .. } => {
                *branch %= n;
                true
            }
            Step::Merge { into, from, .. } => {
                (*into, *from) = (*into % n, *from % n);
                into != from
            }
            _ => true,
        }
    });
    Schedule { steps }
}

/// A strategy producing well-formed schedules for one store of up to
/// `max_steps` steps over at most `max_branches` branches, drawing the
/// store arms as [`Arms::STORE`] weighs them and `DO` operations from
/// `op`.
///
/// # Example
///
/// ```
/// use proptest::prelude::*;
/// use peepul_verify::proptest_support::schedules;
/// use peepul_verify::Runner;
/// use peepul_types::g_set::{GSet, GSetOp};
///
/// proptest!(|(schedule in schedules((0u32..8).prop_map(GSetOp::Add), 20, 3))| {
///     let mut runner: Runner<GSet<u32>> = Runner::new();
///     prop_assert!(runner.run_schedule(&schedule).is_ok());
/// });
/// ```
pub fn schedules<Op: Debug + Clone + 'static>(
    op: impl Strategy<Value = Op> + Clone + 'static,
    max_steps: usize,
    max_branches: usize,
) -> impl Strategy<Value = Schedule<Op>> {
    schedules_with(Arms::STORE, op, 0..=max_steps, max_branches)
}

/// [`schedules`] with explicit arm weights and a range of draws (a batch
/// is one draw of several steps).
pub fn schedules_with<Op: Debug + Clone + 'static>(
    arms: Arms,
    op: impl Strategy<Value = Op> + Clone + 'static,
    draws: impl Into<SizeRange>,
    max_branches: usize,
) -> impl Strategy<Value = Schedule<Op>> {
    proptest::collection::vec(draw(arms, op), draws)
        .prop_map(move |draws| normalize(draws, max_branches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use peepul_types::or_set::{OrSet, OrSetOp, OrSetQuery};
    use peepul_types::pn_counter::{PnCounter, PnCounterOp, PnCounterQuery};

    fn or_set_op() -> impl Strategy<Value = OrSetOp<u32>> + Clone {
        (0u8..3, 0u32..5).prop_map(|(k, x)| match k {
            0 | 1 => OrSetOp::Add(x),
            _ => OrSetOp::Remove(x),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1))]

        /// 64 schedules per case: each is well-formed, merges occur but
        /// never a self-merge, and some fork from a branch other than
        /// the root.
        #[test]
        fn generated_schedules_are_well_formed(
            batch in proptest::collection::vec(schedules(0u32..4, 40, 4), 64),
            lifecycle in proptest::collection::vec(
                schedules_with(Arms::LIFECYCLE, 0u32..4, 1..40, 64), 64,
            ),
        ) {
            for s in batch.iter().chain(&lifecycle) {
                prop_assert!(s.is_well_formed(1));
                prop_assert!(s.steps.iter().all(|step| match step {
                    Step::Merge { into, from, .. } => into != from,
                    _ => true,
                }));
            }
            prop_assert!(batch
                .iter()
                .any(|s| s.steps.iter().any(|step| matches!(step, Step::Merge { .. }))));
            prop_assert!(batch.iter().all(|s| s
                .steps
                .iter()
                .filter(|step| matches!(step, Step::CreateBranch { .. }))
                .count()
                < 4));
            prop_assert!(batch.iter().any(|s| s
                .steps
                .iter()
                .any(|step| matches!(step, Step::CreateBranch { from, .. } if *from > 0))));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pn_counter_certifies_on_arbitrary_schedules(
            schedule in schedules((0u8..2).prop_map(|k| match k {
                0 => PnCounterOp::Increment,
                _ => PnCounterOp::Decrement,
            }), 25, 3)
        ) {
            let mut runner: Runner<PnCounter> =
                Runner::new().with_queries(vec![PnCounterQuery::Value]);
            prop_assert!(runner.run_schedule(&schedule).is_ok());
        }

        /// Over the store arms, and over the lifecycle arms too (which
        /// owe only Φ_con).
        #[test]
        fn or_set_certifies_on_arbitrary_schedules(
            schedule in schedules(or_set_op(), 20, 3),
            lifecycle in schedules_with(Arms::LIFECYCLE, or_set_op(), 1..20, 3),
        ) {
            for schedule in [schedule, lifecycle] {
                let mut runner: Runner<OrSet<u32>> = Runner::new()
                    .with_queries(vec![OrSetQuery::Lookup(1), OrSetQuery::Read]);
                prop_assert!(runner.run_schedule(&schedule).is_ok());
            }
        }
    }
}
