//! Acceptance tests for `Φ_ra` over real fleets: healthy fault-injected
//! executions on both backends certify and — property-tested — *every*
//! healthy fleet shape is accepted.

use peepul_net::Cluster;
use peepul_store::SegmentBackend;
use peepul_types::counter::{Counter, CounterOp, CounterQuery};
use peepul_types::queue::{Queue, QueueOp, QueueQuery};
use peepul_verify::ralin::HistoryRecorder;
use peepul_verify::{
    certify_replication, check_fleet, check_fleet_on, check_ra_lin, FleetConfig, MergePolicy,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory under the system temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    fn new(tag: &str) -> Self {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("peepul-ralin-{}-{tag}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch dir");
        Scratch { root }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The headline acceptance run: a healthy 8-replica in-memory fleet with
/// seeded loss and a run-long partition certifies under Φ_ra.
#[test]
fn healthy_eight_replica_memory_fleet_certifies() {
    let config = FleetConfig {
        replicas: 8,
        ops_per_replica: 10,
        gossip_every: 3,
        loss_per_mille: 150,
        partition_one: true,
        ..FleetConfig::default()
    };
    let stats = check_fleet::<Counter>(&config, |_| CounterOp::Increment, &[CounterQuery::Value])
        .expect("healthy fleet must certify");
    assert_eq!(stats.events, 80);
    assert_eq!(stats.replicas, 8);
    assert_eq!(stats.observations, 8);
    assert!(stats.linearizations >= stats.events);
}

/// The same acceptance run over on-disk segment backends: witness
/// recording and Φ_ra are backend-agnostic.
#[test]
fn healthy_eight_replica_segment_fleet_certifies() {
    let scratch = Scratch::new("segment-fleet");
    let backends: Vec<SegmentBackend> = (0..8)
        .map(|i| SegmentBackend::open(scratch.root.join(format!("replica-{i}"))).expect("open"))
        .collect();
    let cluster: Cluster<Queue<u32>, SegmentBackend> =
        Cluster::replicated(backends).expect("cluster");
    let config = FleetConfig {
        replicas: 8,
        ops_per_replica: 8,
        gossip_every: 3,
        loss_per_mille: 100,
        partition_one: true,
        ..FleetConfig::default()
    };
    let stats = check_fleet_on(
        &cluster,
        &config,
        |s| {
            if s % 5 < 3 {
                QueueOp::Enqueue((s % 100) as u32)
            } else {
                QueueOp::Dequeue
            }
        },
        &[QueueQuery::Peek],
    )
    .expect("healthy segment fleet must certify");
    assert_eq!(stats.events, 64);
    assert_eq!(stats.replicas, 8);
}

/// Φ_ra under genuine thread interleaving: the packaged fleet runs are
/// lockstep (for exact seed replay), but the checker itself must accept
/// *any* healthy interleaving — here a fully threaded [`Cluster::run`]
/// with per-replica OS threads and racing ring gossip.
#[test]
fn threaded_fleet_with_racing_gossip_certifies() {
    let cluster: Cluster<Counter> = Cluster::new(6).expect("cluster");
    let recorder = Arc::new(HistoryRecorder::<Counter>::new());
    cluster.set_observer(recorder.clone());
    for i in 0..cluster.replicas() {
        cluster
            .faults(i)
            .expect("faults")
            .set_loss(120, 7 + i as u64);
    }
    cluster
        .run(10, 2, |_, _| CounterOp::Increment)
        .expect("threaded run");
    for i in 0..cluster.replicas() {
        let faults = cluster.faults(i).expect("faults");
        faults.set_loss(0, 0);
        faults.heal();
    }
    cluster.converge().expect("anti-entropy");
    for i in 0..cluster.replicas() {
        cluster.read(i, &CounterQuery::Value).expect("probe");
    }
    let stats = check_ra_lin(&recorder.snapshot(), MergePolicy::General)
        .expect("healthy threaded fleet must certify");
    assert_eq!(stats.events, 60);
    assert_eq!(stats.replicas, 6);
}

/// The packaged per-type RA-lin suites all certify at a quick shape.
#[test]
fn replication_suite_certifies_all_types() {
    let config = FleetConfig {
        replicas: 4,
        ops_per_replica: 6,
        gossip_every: 2,
        loss_per_mille: 100,
        partition_one: true,
        ..FleetConfig::default()
    };
    let summaries = certify_replication(&config, 2);
    assert_eq!(summaries.len(), 6);
    for s in &summaries {
        assert!(s.passed(), "{}: {:?}", s.name, s.failure);
        assert!(s.stats.events > 0, "{}: no events recorded", s.name);
    }
    // Exactly one suite (OR-set-space, certified relative to the merge
    // envelope) runs in structural mode.
    let structural = summaries
        .iter()
        .filter(|s| s.policy == MergePolicy::PaperEnvelope);
    assert_eq!(structural.count(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of the checker on healthy executions: whatever the fleet
    /// shape, seed, loss rate or partition plan, a faithful replication
    /// layer is always accepted.
    #[test]
    fn healthy_fleets_are_always_accepted(
        replicas in 2usize..6,
        ops in 1usize..9,
        gossip in 1usize..4,
        seed in any::<u64>(),
        loss in 0u16..300,
        partition in any::<bool>(),
    ) {
        let config = FleetConfig {
            replicas,
            ops_per_replica: ops,
            gossip_every: gossip,
            seed,
            loss_per_mille: loss,
            partition_one: partition,
            ..FleetConfig::default()
        };
        let stats = check_fleet::<Counter>(
            &config,
            |_| CounterOp::Increment,
            &[CounterQuery::Value],
        ).unwrap_or_else(|e| panic!("healthy fleet rejected: {e}"));
        prop_assert_eq!(stats.events, (replicas * ops) as u64);
    }
}
