//! Property test of the `Φ_codec` standing obligation over **all 14
//! types**: for randomly reached states, `decode(encode(σ))` is
//! observably equal to `σ` and re-encodes to the identical bytes.
//!
//! The certification runner already checks the same round-trip at every
//! state a bounded or randomized pass explores; this suite is the
//! adversarially-seeded version — it drives each data type through random
//! divergence and a three-way merge, checking the codec at *every*
//! intermediate state. The vendored proptest does not shrink: a failing
//! operation sequence is printed as generated, drawn from a fixed
//! per-test seed, so it comes back on every run. Because the canonical encoding is the storage format, the
//! wire format and the content-address preimage all at once, a failure
//! here means stores could not reopen and replicas could not verify — the
//! highest-stakes property in the workspace.

use peepul_core::{Mrdt, ReplicaId, Timestamp, Wire};
use peepul_types::avl::AvlMap;
use peepul_types::chat::{Chat, ChatOp};
use peepul_types::counter::{Counter, CounterOp};
use peepul_types::ew_flag::{EwFlag, EwFlagOp, EwFlagSpace};
use peepul_types::g_set::{GSet, GSetOp};
use peepul_types::log::{LogOp, MergeableLog};
use peepul_types::lww_register::{LwwOp, LwwRegister};
use peepul_types::map::{MapOp, MrdtMap};
use peepul_types::or_set::{OrSet, OrSetOp};
use peepul_types::or_set_space::OrSetSpace;
use peepul_types::or_set_spacetime::OrSetSpacetime;
use peepul_types::pn_counter::{PnCounter, PnCounterOp};
use peepul_types::queue::{Queue, QueueOp};
use proptest::prelude::*;

fn ts(tick: u64, r: u32) -> Timestamp {
    Timestamp::new(tick, ReplicaId::new(r))
}

/// Asserts the codec laws on one state: decodability, observational
/// round-trip, canonical (byte-identical) re-encode.
fn assert_roundtrip<M: Mrdt>(state: &M) {
    let bytes = state.to_wire();
    let decoded =
        M::from_wire(&bytes).unwrap_or_else(|| panic!("{state:?}: canonical bytes did not decode"));
    assert!(
        decoded.observably_equal(state),
        "decode(encode(σ)) ≠ σ: {decoded:?} vs {state:?}"
    );
    assert_eq!(decoded.to_wire(), bytes, "re-encode must be byte-identical");
}

/// Drives `ops` through a fork/apply/merge shape — half the operations on
/// each of two branches diverging from a common ancestor, then the
/// three-way merge — checking the codec at every state reached.
fn certify_codec<M: Mrdt>(ops: Vec<(bool, M::Op)>) {
    let mut lca = M::initial();
    assert_roundtrip(&lca);
    let mut tick = 0u64;
    // A short shared prefix so the LCA is not always σ0.
    for (_, op) in ops.iter().take(ops.len() / 4) {
        tick += 1;
        lca = lca.apply(op, ts(tick, 0)).0;
        assert_roundtrip(&lca);
    }
    let (mut a, mut b) = (lca.clone(), lca.clone());
    for (left, op) in ops.iter().skip(ops.len() / 4) {
        tick += 1;
        if *left {
            a = a.apply(op, ts(tick, 1)).0;
            assert_roundtrip(&a);
        } else {
            b = b.apply(op, ts(tick, 2)).0;
            assert_roundtrip(&b);
        }
    }
    assert_roundtrip(&M::merge(&lca, &a, &b));
}

/// `(branch, op)` pairs for a type whose random op is derived from a byte.
fn op_stream<Op: std::fmt::Debug + Clone>(
    f: impl Fn(u8, u8) -> Op + Clone + 'static,
) -> impl Strategy<Value = Vec<(bool, Op)>> {
    proptest::collection::vec(
        (any::<bool>(), any::<u8>(), any::<u8>()).prop_map(move |(l, k, x)| (l, f(k, x))),
        0..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn counter_codec(ops in op_stream(|_, _| CounterOp::Increment)) {
        certify_codec::<Counter>(ops);
    }

    #[test]
    fn pn_counter_codec(ops in op_stream(|k, _| if k % 2 == 0 {
        PnCounterOp::Increment
    } else {
        PnCounterOp::Decrement
    })) {
        certify_codec::<PnCounter>(ops);
    }

    #[test]
    fn ew_flag_codec(ops in op_stream(|k, _| if k % 2 == 0 {
        EwFlagOp::Enable
    } else {
        EwFlagOp::Disable
    })) {
        certify_codec::<EwFlag>(ops);
    }

    #[test]
    fn ew_flag_space_codec(ops in op_stream(|k, _| if k % 2 == 0 {
        EwFlagOp::Enable
    } else {
        EwFlagOp::Disable
    })) {
        certify_codec::<EwFlagSpace>(ops);
    }

    #[test]
    fn lww_register_codec(ops in op_stream(|_, x| LwwOp::Write(u32::from(x)))) {
        certify_codec::<LwwRegister<u32>>(ops);
    }

    #[test]
    fn g_set_codec(ops in op_stream(|_, x| GSetOp::Add(u32::from(x % 16)))) {
        certify_codec::<GSet<u32>>(ops);
    }

    #[test]
    fn g_map_codec(ops in op_stream(|k, _| {
        MapOp::Set(format!("k{}", k % 4), CounterOp::Increment)
    })) {
        certify_codec::<MrdtMap<Counter>>(ops);
    }

    #[test]
    fn log_codec(ops in op_stream(|_, x| LogOp::Append(u32::from(x)))) {
        certify_codec::<MergeableLog<u32>>(ops);
    }

    #[test]
    fn or_set_codec(ops in op_stream(|k, x| if k % 3 == 0 {
        OrSetOp::Remove(u32::from(x % 8))
    } else {
        OrSetOp::Add(u32::from(x % 8))
    })) {
        certify_codec::<OrSet<u32>>(ops);
    }

    #[test]
    fn or_set_space_codec(ops in op_stream(|k, x| if k % 3 == 0 {
        OrSetOp::Remove(u32::from(x % 8))
    } else {
        OrSetOp::Add(u32::from(x % 8))
    })) {
        certify_codec::<OrSetSpace<u32>>(ops);
    }

    #[test]
    fn or_set_spacetime_codec(ops in op_stream(|k, x| if k % 3 == 0 {
        OrSetOp::Remove(u32::from(x % 8))
    } else {
        OrSetOp::Add(u32::from(x % 8))
    })) {
        // The tree-backed set is the one type with representation freedom:
        // decode yields the canonical balanced shape, and observational
        // equality (not structural) is the round-trip law — exactly what
        // `certify_codec` checks.
        certify_codec::<OrSetSpacetime<u32>>(ops);
    }

    #[test]
    fn queue_codec(ops in op_stream(|k, x| if k % 3 == 0 {
        QueueOp::Dequeue
    } else {
        QueueOp::Enqueue(u32::from(x))
    })) {
        certify_codec::<Queue<u32>>(ops);
    }

    #[test]
    fn chat_codec(ops in op_stream(|k, x| {
        ChatOp::Send(format!("#c{}", k % 3), format!("m{x}"))
    })) {
        certify_codec::<Chat>(ops);
    }

    /// The 14th type: the AVL map itself (the container under
    /// OR-set-spacetime, not an MRDT). Contents round-trip exactly; the
    /// decoded shape is the canonical balanced one; re-encode is
    /// byte-identical.
    #[test]
    fn avl_map_codec(entries in proptest::collection::vec((any::<u16>(), any::<u32>()), 0..64)) {
        let map: AvlMap<u16, u32> = entries.iter().cloned().collect();
        let bytes = map.to_wire();
        let decoded = AvlMap::<u16, u32>::from_wire(&bytes).expect("canonical bytes decode");
        prop_assert!(decoded.check_invariants().is_ok());
        prop_assert_eq!(decoded.to_sorted_vec(), map.to_sorted_vec());
        prop_assert_eq!(decoded.to_wire(), bytes);
    }
}
