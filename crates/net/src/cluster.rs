//! A fleet of replicas under one handle, over *real* replication.
//!
//! [`Cluster`] is the workspace's multi-replica execution harness
//! ([`Cluster::new`] / [`Cluster::replicated`]): `n` independent
//! [`Replica`]s, each with its **own** [`BranchStore`] and backend and a
//! disjoint replica-id range, wired by [`ChannelTransport`] links with
//! per-replica [`FaultInjector`]s. Gossip is a real `pull` — refs,
//! want/have negotiation, verified object transfer — and replicas can be
//! partitioned, lose messages, and lag independently.
//! [`Cluster::converge`] brings the fleet together with the same
//! [`Replica::sync`] the `peepul-server` daemon runs against its peers.

use crate::error::NetError;
use crate::observer::{HistoryObserver, ReplicationMutation};
use crate::replica::{Remote, Replica};
use crate::transport::{ChannelTransport, FaultInjector};
use peepul_core::Mrdt;
use peepul_store::{Backend, BranchStore, MemoryBackend, StoreError};
use std::fmt;
use std::sync::Arc;

/// The branch each node applies its local operations to: branch 0, named
/// `b0`, as the one schedule vocabulary (`peepul_verify::Step`) numbers
/// branches.
const LOCAL_BRANCH: &str = "b0";

/// The round bound of [`Cluster::converge`]: a healthy fleet of any size
/// converges in two rounds and confirms it in a third; the margin is
/// budget for lossy links.
const MAX_ROUNDS: usize = 64;

/// Replica-id ranges are spaced this far apart so that `n` independent
/// stores can each fork thousands of branches without two stores ever
/// minting the same `(tick, replica)` timestamp pair.
const REPLICA_ID_STRIDE: u32 = 1 << 16;

/// Whether `e` is a lost gossip opportunity — weather, retried next round
/// — rather than a bug.
fn lost_gossip(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Dropped
            | NetError::Partitioned
            | NetError::UnknownRemoteBranch(_)
            | NetError::PushRejected
    )
}

fn replica_name(i: usize) -> String {
    format!("replica-{i}")
}

/// A multi-replica cluster; see the [module docs](self).
///
/// # Example
///
/// ```
/// use peepul_net::Cluster;
/// use peepul_types::counter::{Counter, CounterOp};
///
/// # fn main() -> Result<(), peepul_net::NetError> {
/// // Four *independent* stores, replicating over in-process transports.
/// let cluster: Cluster<Counter> = Cluster::new(4)?;
/// cluster.run(100, 10, |_replica, _round| CounterOp::Increment)?;
/// let final_states = cluster.converge()?;
/// assert!(final_states.iter().all(|s| s.count() == 400));
/// # Ok(())
/// # }
/// ```
pub struct Cluster<M: Mrdt, B: Backend = MemoryBackend> {
    nodes: Vec<Replica<M, B>>,
    /// `faults[i]` governs replica i's *outgoing* link.
    faults: Vec<FaultInjector>,
}

impl<M: Mrdt> Cluster<M> {
    /// An in-memory cluster: `replicas` independent stores, each over its
    /// own fresh [`MemoryBackend`].
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from store construction.
    pub fn new(replicas: usize) -> Result<Self, NetError> {
        Self::replicated((0..replicas).map(|_| MemoryBackend::new()).collect())
    }
}

impl<M: Mrdt, B: Backend> Cluster<M, B> {
    /// A cluster with one backend **per replica** — including mixed
    /// fleets when `B` is `Box<dyn Backend + Send + Sync>` (some replicas
    /// in memory, some on disk). Replica `i` is named `replica-i`, holds
    /// its operations on branch `"b0"`, and mints replica ids from a
    /// disjoint range (`i · 2^16`).
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from store construction.
    pub fn replicated(backends: Vec<B>) -> Result<Self, NetError> {
        let stores = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| {
                let base = (i as u32) * REPLICA_ID_STRIDE;
                BranchStore::with_backend_and_base(LOCAL_BRANCH, backend, base)
            })
            .collect::<Result<_, _>>()?;
        Ok(Cluster::from_stores(stores))
    }

    /// A cluster over stores the caller built, each holding branch `"b0"`
    /// — replica `i` is `stores[i]`, named `replica-i`. **The caller owns
    /// replica-id disjointness**, as for [`Replica::new`]; a fleet of one
    /// owes nothing.
    pub fn from_stores(stores: Vec<BranchStore<M, B>>) -> Self {
        assert!(!stores.is_empty(), "a cluster needs at least one replica");
        let nodes: Vec<_> = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| Replica::new(replica_name(i), store))
            .collect();
        let faults = nodes.iter().map(|_| FaultInjector::new()).collect();
        Cluster { nodes, faults }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.nodes.len()
    }

    /// Replica `i`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] naming `replica-i` if `i` is out of
    /// range.
    pub fn node(&self, i: usize) -> Result<&Replica<M, B>, StoreError> {
        self.nodes
            .get(i)
            .ok_or_else(|| StoreError::UnknownBranch(replica_name(i)))
    }

    /// The fault plan of replica `i`'s outgoing gossip link — partition
    /// it, heal it, make it lossy.
    ///
    /// # Errors
    ///
    /// As [`Cluster::node`].
    pub fn faults(&self, i: usize) -> Result<&FaultInjector, StoreError> {
        self.faults
            .get(i)
            .ok_or_else(|| StoreError::UnknownBranch(replica_name(i)))
    }

    /// Answers a pure query against one replica's current head — the
    /// commit-free read path. The read goes through [`Replica::read`], so
    /// an attached [`HistoryObserver`] witnesses every probe.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if `replica >= self.replicas()`.
    pub fn read(&self, replica: usize, q: &M::Query) -> Result<M::Output, NetError> {
        Ok(self.node(replica)?.read(LOCAL_BRANCH, q)?)
    }

    /// Attaches one [`HistoryObserver`] to **every** node, so a whole-fleet
    /// execution records a single global witness history — the input of
    /// `peepul-verify`'s replication-aware linearizability checker `Φ_ra`.
    pub fn set_observer(&self, observer: Arc<dyn HistoryObserver<M>>) {
        for node in &self.nodes {
            node.set_observer(Arc::clone(&observer));
        }
    }

    /// **Mutation-testing surface** — enacts a deliberate replication
    /// fault (see [`ReplicationMutation`]) on every node, for the `Φ_ra`
    /// mutant kill-gate.
    pub fn set_mutation(&self, mutation: ReplicationMutation) {
        for node in &self.nodes {
            node.set_replication_mutation(mutation);
        }
    }

    /// Runs `ops_per_replica` operations on every replica concurrently,
    /// one OS thread per replica.
    ///
    /// `op_of(replica, round)` generates the operation each replica
    /// applies at each round; every `gossip_every` rounds a replica
    /// gossips with its ring neighbour — a real `pull` over the replica's
    /// (possibly faulty) link. A gossip lost to fault injection is a
    /// missed opportunity, not an error; anti-entropy repairs it later.
    ///
    /// # Errors
    ///
    /// Propagates the first store/verification error any replica thread
    /// hit.
    pub fn run<F>(
        &self,
        ops_per_replica: usize,
        gossip_every: usize,
        op_of: F,
    ) -> Result<(), NetError>
    where
        M: Send + Sync + 'static,
        B: Send + Sync + 'static,
        F: Fn(usize, usize) -> M::Op + Send + Sync,
    {
        let op_of = &op_of;
        let n = self.nodes.len();
        let results: Vec<Result<(), NetError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let me = self.nodes[i].clone();
                    let peer = self.nodes[(i + 1) % n].clone();
                    let link = self.faults[i].clone();
                    let peer_link = self.faults[(i + 1) % n].clone();
                    scope.spawn(move || {
                        let mut remote = Remote::new(
                            peer.name(),
                            ChannelTransport::with_faults(peer.clone(), link),
                        );
                        for round in 0..ops_per_replica {
                            let op = op_of(i, round);
                            me.apply(LOCAL_BRANCH, &op)?;
                            if gossip_every > 0
                                && round % gossip_every == gossip_every - 1
                                && !peer_link.is_partitioned()
                            {
                                match me.pull(&mut remote, LOCAL_BRANCH) {
                                    Ok(_) | Err(NetError::Dropped) | Err(NetError::Partitioned) => {
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replica thread panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Brings every replica to the same head and returns the per-replica
    /// final states.
    ///
    /// Anti-entropy runs in star rounds: replica 0, the hub, runs
    /// [`Replica::sync`] with every other replica in turn, and the rounds
    /// stop after one that moved no head and lost no message. The hub
    /// linearises the merge order, which is what makes the fleet's
    /// *heads* (not just its states) settle: free-running ring gossip
    /// never quiesces for n ≥ 3, because every replica keeps minting a
    /// fresh merge commit one step ahead of the replica pulling it. On
    /// healthy links the first round gathers every spoke's history into
    /// the hub, the second pushes the hub's head to the spokes synced
    /// before the last one, and a third confirms quiescence; the rounds
    /// are bounded at 64.
    ///
    /// The rounds run over the cluster's own links, **honouring their
    /// fault plans**: a partitioned endpoint severs its pair, and the
    /// hub's link applies its loss and drop plan. A dropped message, a
    /// partition, a branch not yet created on the peer and a refused push
    /// are lost gossip, retried next round; any other error (a corrupt
    /// object, a protocol violation) is a bug, not weather, and fails
    /// here.
    ///
    /// Converged means every replica's branch points at the **same head
    /// commit**. That is deliberately stronger than equal head states:
    /// replicas that never communicated can reach byte-identical states
    /// by coincidence (five isolated counters that each incremented five
    /// times), yet still owe each other history — merging them later
    /// would change the value. Equal head commits mean equal Merkle
    /// histories, hence byte-identical canonical states too. So a cluster
    /// whose partitions were never healed fails here rather than
    /// pretending to converge.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the rounds ended without convergence
    /// (links still partitioned); any error that is not lost gossip.
    pub fn converge(&self) -> Result<Vec<Arc<M>>, NetError> {
        let hub = &self.nodes[0];
        for _ in 0..MAX_ROUNDS {
            let mut quiet = true;
            for (spoke, link) in self.nodes.iter().zip(&self.faults).skip(1) {
                // The hub's own partition surfaces from its link.
                let synced = if link.is_partitioned() {
                    Err(NetError::Partitioned)
                } else {
                    let transport =
                        ChannelTransport::with_faults(spoke.clone(), self.faults[0].clone());
                    hub.sync(&mut Remote::new(spoke.name(), transport))
                };
                let errors = match synced {
                    Ok(report) => {
                        quiet &= !report.moved();
                        report.errors.into_iter().map(|(_, e)| e).collect()
                    }
                    Err(e) => vec![e],
                };
                for e in errors {
                    if !lost_gossip(&e) {
                        return Err(e);
                    }
                    quiet = false;
                }
            }
            if quiet {
                break;
            }
        }
        let head = hub.head_id(LOCAL_BRANCH)?;
        if self
            .nodes
            .iter()
            .any(|n| n.head_id(LOCAL_BRANCH) != Ok(head))
        {
            return Err(NetError::Protocol(format!(
                "anti-entropy ended without convergence after {MAX_ROUNDS} rounds \
                 — are links still partitioned?"
            )));
        }
        Ok(self
            .nodes
            .iter()
            .map(|n| n.state(LOCAL_BRANCH))
            .collect::<Result<_, _>>()?)
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for Cluster<M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cluster({} replicas)", self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_types::counter::{Counter, CounterOp};
    use peepul_types::or_set_space::{OrSetOp, OrSetSpace};
    use peepul_types::pn_counter::{PnCounter, PnCounterOp};

    #[test]
    fn replicated_counters_converge_to_total_increments() {
        let cluster: Cluster<Counter> = Cluster::new(4).unwrap();
        cluster.run(50, 7, |_, _| CounterOp::Increment).unwrap();
        let states = cluster.converge().unwrap();
        assert_eq!(states.len(), 4);
        for s in &states {
            assert_eq!(s.count(), 200);
        }
        // Every replica genuinely owns objects: nothing is shared, so each
        // backend holds the full converged history it pulled.
        for i in 0..4 {
            assert!(cluster.node(i).unwrap().object_count() > 1);
        }
    }

    #[test]
    fn replicated_pn_counters_converge_with_mixed_ops() {
        let cluster: Cluster<PnCounter> = Cluster::new(3).unwrap();
        cluster
            .run(60, 5, |replica, round| {
                if (replica + round) % 3 == 0 {
                    PnCounterOp::Decrement
                } else {
                    PnCounterOp::Increment
                }
            })
            .unwrap();
        let states = cluster.converge().unwrap();
        let expected = states[0].value();
        for s in &states {
            assert_eq!(s.value(), expected);
        }
        // 60 ops × 3 replicas, one third decrements.
        assert_eq!(expected, (120 - 60) as i64);
    }

    #[test]
    fn replicated_or_sets_converge_observably() {
        let cluster: Cluster<OrSetSpace<u32>> = Cluster::new(3).unwrap();
        cluster
            .run(40, 8, |replica, round| {
                let x = ((replica * 31 + round * 7) % 16) as u32;
                if round % 4 == 3 {
                    OrSetOp::Remove(x)
                } else {
                    OrSetOp::Add(x)
                }
            })
            .unwrap();
        let states = cluster.converge().unwrap();
        for s in &states[1..] {
            assert!(
                states[0].observably_equal(s),
                "replicas disagree: {:?} vs {:?}",
                states[0],
                s
            );
        }
    }

    #[test]
    fn single_replica_cluster_is_fine() {
        let cluster: Cluster<Counter> = Cluster::new(1).unwrap();
        cluster.run(10, 3, |_, _| CounterOp::Increment).unwrap();
        let states = cluster.converge().unwrap();
        assert_eq!(states[0].count(), 10);
    }

    #[test]
    fn unhealed_partition_fails_converge_honestly() {
        let cluster: Cluster<Counter> = Cluster::new(3).unwrap();
        for i in 0..3 {
            cluster.faults(i).unwrap().partition();
        }
        cluster.run(5, 2, |_, _| CounterOp::Increment).unwrap();
        let err = cluster.converge().unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        // Heal and converge for real.
        for i in 0..3 {
            cluster.faults(i).unwrap().heal();
        }
        let states = cluster.converge().unwrap();
        for s in &states {
            assert_eq!(s.count(), 15);
        }
    }

    /// Attaches fresh net metrics to every replica of `cluster`.
    fn attach_net_metrics<M: Mrdt>(cluster: &Cluster<M>) -> Vec<Arc<crate::NetMetrics>> {
        use peepul_obs::{Obs, ObsConfig};
        (0..cluster.replicas())
            .map(|i| {
                let m = Obs::new(ObsConfig::default())
                    .attach(crate::NetMetrics::register)
                    .unwrap();
                cluster
                    .node(i)
                    .unwrap()
                    .set_metrics(None, Some(Arc::clone(&m)));
                m
            })
            .collect()
    }

    /// `converge` runs the daemon's sync, so the spokes catch up by
    /// served pushes, not only by pulls of their own.
    #[test]
    fn converge_serves_pushes() {
        let cluster: Cluster<Counter> = Cluster::new(3).unwrap();
        let metrics = attach_net_metrics(&cluster);
        cluster.run(4, 0, |_, _| CounterOp::Increment).unwrap();
        let states = cluster.converge().unwrap();
        assert!(states.iter().all(|s| s.count() == 12));
        let served: u64 = metrics[1..]
            .iter()
            .map(|m| m.serve_pushes_total.get())
            .sum();
        assert!(served >= 1, "no spoke was pushed to");
        assert_eq!(metrics[0].pushes_total.get(), served);
    }

    /// A push ships the pack a fetch receives: on a delta-storing type
    /// the spokes ingest pushed states as deltas, and every byte the hub
    /// pushes is counted once on the spoke that ingests it.
    #[test]
    fn pushes_ship_deltas_and_both_ends_count_the_same_bytes() {
        let cluster: Cluster<OrSetSpace<u32>> = Cluster::new(3).unwrap();
        let metrics = attach_net_metrics(&cluster);
        cluster
            .run(40, 0, |replica, round| {
                OrSetOp::Add((replica * 100 + round) as u32)
            })
            .unwrap();
        cluster.converge().unwrap();
        let spokes = &metrics[1..];
        let sum = |f: fn(&crate::NetMetrics) -> u64| spokes.iter().map(|m| f(m)).sum::<u64>();
        assert!(
            sum(|m| m.delta_states_in_total.get()) > 0,
            "pushed states should arrive as deltas"
        );
        assert!(metrics[0].delta_states_out_total.get() > 0);
        assert_eq!(
            sum(|m| m.pack_bytes_in_total.get()),
            metrics[0].pack_bytes_out_total.get(),
            "the spokes ingest exactly the bytes the hub pushes"
        );
    }

    #[test]
    fn reads_address_each_replica() {
        let cluster: Cluster<Counter> = Cluster::new(2).unwrap();
        cluster.run(3, 0, |_, _| CounterOp::Increment).unwrap();
        use peepul_types::counter::CounterQuery;
        assert_eq!(cluster.read(0, &CounterQuery::Value).unwrap(), 3);
        assert!(cluster.read(9, &CounterQuery::Value).is_err());
    }
}
