//! Property test: the declarative queue axioms of §6.2 (`AddRem`, `Empty`,
//! `FIFO_1`, `FIFO_2`) hold on the final abstract state of **every** branch
//! of arbitrary certified executions — the paper's first formal declarative
//! specification of a distributed queue, checked wholesale.

use peepul::types::queue::{axioms, Queue, QueueOp};
use peepul::verify::proptest_support::schedules;
use peepul::verify::Runner;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_axioms_hold_on_arbitrary_executions(
        schedule in schedules((0u8..3, 0u8..50).prop_map(|(k, v)| match k {
            0 | 1 => QueueOp::Enqueue(v),
            _ => QueueOp::Dequeue,
        }), 30, 3)
    ) {
        let mut runner: Runner<Queue<u8>> = Runner::new();
        // Certification already checks Φ_do/Φ_merge/Φ_spec/Φ_con…
        prop_assert!(runner.run_schedule(&schedule).is_ok());
        // …and on top, every branch's abstract history satisfies the
        // declarative axioms.
        for (branch, snap) in runner.snapshots() {
            prop_assert!(
                axioms::add_rem(&snap.abstract_state),
                "AddRem violated on {branch}"
            );
            prop_assert!(
                axioms::empty(&snap.abstract_state),
                "Empty violated on {branch}"
            );
            prop_assert!(
                axioms::fifo1(&snap.abstract_state),
                "FIFO_1 violated on {branch}"
            );
            prop_assert!(
                axioms::fifo2(&snap.abstract_state),
                "FIFO_2 violated on {branch}"
            );
        }
    }
}
