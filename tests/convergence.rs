//! Cross-crate convergence properties: randomized divergence + merge for
//! every data type, checked with proptest.
//!
//! These are the classic RDT laws, stated modulo observational
//! equivalence (paper, Definition 3.5):
//!
//! * merge commutativity: `merge(l, a, b) ∼ merge(l, b, a)`,
//! * merge idempotence: `merge(l, a, a) ∼ a`,
//! * merge with an unchanged branch keeps the other's changes,
//! * full pairwise sync makes all replicas observationally equal.

mod common;

use common::for_each_backend;
use peepul::prelude::*;
use peepul::types::counter::CounterOp;
use peepul::types::ew_flag::EwFlagOp;
use peepul::types::log::LogOp;
use peepul::types::lww_register::LwwOp;
use peepul::types::or_set::OrSetOp;
use peepul::types::pn_counter::PnCounterOp;
use peepul::types::queue::QueueOp;
use proptest::prelude::*;

/// Applies a sequence of (replica, op) pairs starting from a common state,
/// returning the LCA and the two divergent branches, with timestamps
/// minted like the store does (global tick, per-branch replica id).
fn diverge<M: Mrdt>(base_ops: &[M::Op], a_ops: &[M::Op], b_ops: &[M::Op]) -> (M, M, M) {
    let mut tick = 0u64;
    let mut next = |r: u32| {
        tick += 1;
        Timestamp::new(tick, ReplicaId::new(r))
    };
    let mut lca = M::initial();
    for op in base_ops {
        lca = lca.apply(op, next(0)).0;
    }
    let mut a = lca.clone();
    for op in a_ops {
        a = a.apply(op, next(1)).0;
    }
    let mut b = lca.clone();
    for op in b_ops {
        b = b.apply(op, next(2)).0;
    }
    (lca, a, b)
}

/// The three merge laws for one generated instance.
fn merge_laws<M: Mrdt>(lca: &M, a: &M, b: &M) {
    let ab = M::merge(lca, a, b);
    let ba = M::merge(lca, b, a);
    assert!(
        ab.observably_equal(&ba),
        "merge not commutative: {ab:?} vs {ba:?}"
    );
    // Idempotence: merging a branch with an identical copy. The store's
    // LCA of two identical branches is that very state (intersection of
    // equal histories), so the law is merge(a, a, a) ∼ a — NOT
    // merge(l, a, a), which pairs states with an LCA the store would never
    // supply (and which delta-style merges like the counter's rightly
    // reject).
    let aa = M::merge(a, a, a);
    assert!(
        aa.observably_equal(a),
        "merge not idempotent: {aa:?} vs {a:?}"
    );
    let al = M::merge(lca, a, lca);
    assert!(
        al.observably_equal(a),
        "merge with unchanged branch lost changes: {al:?} vs {a:?}"
    );
}

fn orset_op_strategy() -> impl Strategy<Value = OrSetOp<u8>> {
    (0u8..8, 0u8..3).prop_map(|(x, kind)| match kind {
        0 => OrSetOp::Add(x),
        1 => OrSetOp::Remove(x),
        _ => OrSetOp::Add(x.wrapping_add(1)),
    })
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp<u8>> {
    (0u8..100, proptest::bool::ANY).prop_map(|(v, enq)| {
        if enq {
            QueueOp::Enqueue(v)
        } else {
            QueueOp::Dequeue
        }
    })
}

fn flag_op_strategy() -> impl Strategy<Value = EwFlagOp> {
    prop_oneof![Just(EwFlagOp::Enable), Just(EwFlagOp::Disable)]
}

fn log_op_strategy() -> impl Strategy<Value = LogOp<u8>> {
    (0u8..100).prop_map(LogOp::Append)
}

fn lww_op_strategy() -> impl Strategy<Value = LwwOp<u8>> {
    (0u8..100).prop_map(LwwOp::Write)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counter_merge_laws(
        n_base in 0usize..10, n_a in 0usize..10, n_b in 0usize..10
    ) {
        let base = vec![CounterOp::Increment; n_base];
        let a = vec![CounterOp::Increment; n_a];
        let b = vec![CounterOp::Increment; n_b];
        let (lca, sa, sb) = diverge::<Counter>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
        let merged = Counter::merge(&lca, &sa, &sb);
        prop_assert_eq!(merged.count(), (n_base + n_a + n_b) as u64);
    }

    #[test]
    fn pn_counter_merge_laws(
        incs_a in 0usize..8, decs_a in 0usize..8, incs_b in 0usize..8
    ) {
        let mut a_ops = vec![PnCounterOp::Increment; incs_a];
        a_ops.extend(vec![PnCounterOp::Decrement; decs_a]);
        let b_ops = vec![PnCounterOp::Increment; incs_b];
        let (lca, sa, sb) = diverge::<PnCounter>(&[], &a_ops, &b_ops);
        merge_laws(&lca, &sa, &sb);
        let merged = PnCounter::merge(&lca, &sa, &sb);
        prop_assert_eq!(merged.value(), incs_a as i64 - decs_a as i64 + incs_b as i64);
    }

    #[test]
    fn or_set_merge_laws(
        base in proptest::collection::vec(orset_op_strategy(), 0..12),
        a in proptest::collection::vec(orset_op_strategy(), 0..12),
        b in proptest::collection::vec(orset_op_strategy(), 0..12),
    ) {
        let (lca, sa, sb) = diverge::<OrSet<u8>>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
    }

    #[test]
    fn or_set_space_merge_laws(
        base in proptest::collection::vec(orset_op_strategy(), 0..12),
        a in proptest::collection::vec(orset_op_strategy(), 0..12),
        b in proptest::collection::vec(orset_op_strategy(), 0..12),
    ) {
        let (lca, sa, sb) = diverge::<OrSetSpace<u8>>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
    }

    #[test]
    fn or_set_spacetime_merge_laws(
        base in proptest::collection::vec(orset_op_strategy(), 0..12),
        a in proptest::collection::vec(orset_op_strategy(), 0..12),
        b in proptest::collection::vec(orset_op_strategy(), 0..12),
    ) {
        let (lca, sa, sb) = diverge::<OrSetSpacetime<u8>>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
    }

    #[test]
    fn all_or_set_variants_agree_observably(
        base in proptest::collection::vec(orset_op_strategy(), 0..12),
        a in proptest::collection::vec(orset_op_strategy(), 0..12),
        b in proptest::collection::vec(orset_op_strategy(), 0..12),
    ) {
        let (l1, a1, b1) = diverge::<OrSet<u8>>(&base, &a, &b);
        let (l2, a2, b2) = diverge::<OrSetSpace<u8>>(&base, &a, &b);
        let (l3, a3, b3) = diverge::<OrSetSpacetime<u8>>(&base, &a, &b);
        let m1 = OrSet::merge(&l1, &a1, &b1);
        let m2 = OrSetSpace::merge(&l2, &a2, &b2);
        let m3 = OrSetSpacetime::merge(&l3, &a3, &b3);
        prop_assert_eq!(m1.elements(), m2.elements());
        prop_assert_eq!(m2.elements(), m3.elements());
    }

    #[test]
    fn queue_merge_laws(
        base in proptest::collection::vec(queue_op_strategy(), 0..12),
        a in proptest::collection::vec(queue_op_strategy(), 0..12),
        b in proptest::collection::vec(queue_op_strategy(), 0..12),
    ) {
        let (lca, sa, sb) = diverge::<Queue<u8>>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
        // Merged queue stays timestamp-ascending.
        let m = Queue::merge(&lca, &sa, &sb);
        let times: Vec<Timestamp> = m.to_list().iter().map(|(t, _)| *t).collect();
        prop_assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn flag_merge_laws(
        base in proptest::collection::vec(flag_op_strategy(), 0..8),
        a in proptest::collection::vec(flag_op_strategy(), 0..8),
        b in proptest::collection::vec(flag_op_strategy(), 0..8),
    ) {
        let (lca, sa, sb) = diverge::<EwFlag>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
        let (lca, sa, sb) = diverge::<EwFlagSpace>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
    }

    #[test]
    fn log_merge_laws_and_ordering(
        base in proptest::collection::vec(log_op_strategy(), 0..8),
        a in proptest::collection::vec(log_op_strategy(), 0..8),
        b in proptest::collection::vec(log_op_strategy(), 0..8),
    ) {
        let (lca, sa, sb) = diverge::<MergeableLog<u8>>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
        let m = MergeableLog::merge(&lca, &sa, &sb);
        let times: Vec<Timestamp> = m.iter().map(|(t, _)| *t).collect();
        prop_assert!(times.windows(2).all(|w| w[0] > w[1]), "log must be newest-first");
        prop_assert_eq!(m.len(), base.len() + a.len() + b.len());
    }

    #[test]
    fn lww_register_merge_laws(
        base in proptest::collection::vec(lww_op_strategy(), 0..6),
        a in proptest::collection::vec(lww_op_strategy(), 0..6),
        b in proptest::collection::vec(lww_op_strategy(), 0..6),
    ) {
        let (lca, sa, sb) = diverge::<LwwRegister<u8>>(&base, &a, &b);
        merge_laws(&lca, &sa, &sb);
        // The merged value is the chronologically last write overall.
        let m = LwwRegister::merge(&lca, &sa, &sb);
        if b.is_empty() && a.is_empty() {
            prop_assert!(m.observably_equal(&lca));
        } else if b.is_empty() {
            prop_assert!(m.observably_equal(&sa));
        } else {
            // b's ops were minted last in `diverge`, so b's last write wins.
            prop_assert!(m.observably_equal(&sb));
        }
    }
}

/// Multi-replica convergence under genuine thread interleaving (one OS
/// thread per replica, racing ring gossip): after anti-entropy, every
/// replica is observationally equal — on the in-memory backend and the
/// on-disk segment backend alike. Fault-injected fleets are exercised in
/// `tests/replication.rs`.
#[test]
fn cluster_convergence_under_concurrency() {
    for_each_backend("cluster", |kind, make| {
        let cluster: Cluster<OrSetSpace<u32>, _> =
            Cluster::replicated((0..4).map(|_| make()).collect()).unwrap();
        cluster
            .run(60, 9, |replica, round| {
                let x = ((replica * 13 + round * 5) % 24) as u32;
                match round % 5 {
                    4 => OrSetOp::Remove(x),
                    _ => OrSetOp::Add(x),
                }
            })
            .unwrap();
        let states = cluster.converge().unwrap();
        for s in &states[1..] {
            assert!(states[0].observably_equal(s), "{kind}");
        }
    });
}

/// The merge laws exercised *through the store* (rather than on bare
/// states): a fork/apply/merge round-trip converges to the same
/// observable state on every backend, and the backends agree with each
/// other byte-for-byte on the resulting content addresses.
#[test]
fn store_convergence_agrees_across_backends() {
    let mut head_ids = Vec::new();
    for_each_backend("store-laws", |kind, make| {
        let mut db: BranchStore<OrSetSpace<u32>, _> =
            BranchStore::with_backend("a", make()).unwrap();
        db.branch_mut("a").unwrap().fork("b").unwrap();
        for i in 0..6u32 {
            db.branch_mut("a").unwrap().apply(&OrSetOp::Add(i)).unwrap();
            db.branch_mut("b")
                .unwrap()
                .apply(&OrSetOp::Add(i + 50))
                .unwrap();
            if i % 2 == 0 {
                db.branch_mut("b")
                    .unwrap()
                    .apply(&OrSetOp::Remove(i))
                    .unwrap();
            }
            db.branch_mut("a").unwrap().merge_from("b").unwrap();
            db.branch_mut("b").unwrap().merge_from("a").unwrap();
        }
        let (a, b) = (db.state("a").unwrap(), db.state("b").unwrap());
        assert!(a.observably_equal(&b), "{kind}");
        head_ids.push((db.head_id("a").unwrap(), db.state_id("a").unwrap()));
    });
    // Identical schedule ⇒ byte-identical Merkle heads on every backend.
    assert!(head_ids.windows(2).all(|w| w[0] == w[1]), "{head_ids:?}");
}
