//! A fleet of replicas under one handle, over *real* replication.
//!
//! [`Cluster`] is the workspace's multi-replica execution harness
//! ([`Cluster::new`] / [`Cluster::replicated`]): `n` independent
//! [`Replica`]s, each with its **own** [`BranchStore`] and backend and a
//! disjoint replica-id range, wired by [`ChannelTransport`] links with
//! per-replica [`FaultInjector`]s. Gossip is a real `pull` — refs,
//! want/have negotiation, verified object transfer — and replicas can be
//! partitioned, lose messages, and lag independently.

use crate::anti_entropy::AntiEntropy;
use crate::error::NetError;
use crate::observer::{HistoryObserver, ReplicationMutation};
use crate::replica::{Remote, Replica};
use crate::transport::{ChannelTransport, FaultInjector};
use peepul_core::Mrdt;
use peepul_store::{Backend, BranchStore, MemoryBackend, StoreError};
use std::fmt;
use std::sync::Arc;

/// The branch each node applies its local operations to.
const LOCAL_BRANCH: &str = "main";

/// Replica-id ranges are spaced this far apart so that `n` independent
/// stores can each fork thousands of branches without two stores ever
/// minting the same `(tick, replica)` timestamp pair.
const REPLICA_ID_STRIDE: u32 = 1 << 16;

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

impl<M: Mrdt + Send + Sync + 'static> Cluster<M> {
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

impl<M: Mrdt + Send + Sync + 'static, B: Backend + Send + Sync + 'static> Cluster<M, B> {
    /// A cluster with one backend **per replica** — including mixed
    /// fleets when `B` is `Box<dyn Backend + Send + Sync>` (some replicas
    /// in memory, some on disk). Replica `i` is named `replica-i`, holds
    /// its operations on branch `"main"`, and mints replica ids from a
    /// disjoint range (`i · 2^16`).
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from store construction.
    pub fn replicated(backends: Vec<B>) -> Result<Self, NetError> {
        assert!(!backends.is_empty(), "a cluster needs at least one replica");
        let mut nodes = Vec::with_capacity(backends.len());
        for (i, backend) in backends.into_iter().enumerate() {
            let store = BranchStore::with_backend_and_base(
                LOCAL_BRANCH,
                backend,
                (i as u32) * REPLICA_ID_STRIDE,
            )?;
            nodes.push(Replica::new(replica_name(i), store));
        }
        let faults = nodes.iter().map(|_| FaultInjector::new()).collect();
        Ok(Cluster { nodes, faults })
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.nodes.len()
    }

    /// Replica `i`, if in range.
    pub fn node(&self, i: usize) -> Option<&Replica<M, B>> {
        self.nodes.get(i)
    }

    /// The fault plan of replica `i`'s outgoing gossip link — partition
    /// it, heal it, make it lossy.
    pub fn faults(&self, i: usize) -> Option<&FaultInjector> {
        self.faults.get(i)
    }

    /// Answers a pure query against one replica's current head — the
    /// commit-free read path. The read goes through
    /// [`Replica::read_observed`], so an attached [`HistoryObserver`]
    /// witnesses every probe.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if `replica >= self.replicas()`.
    pub fn read(&self, replica: usize, q: &M::Query) -> Result<M::Output, NetError> {
        match self.nodes.get(replica) {
            Some(node) => Ok(node.read_observed(LOCAL_BRANCH, q)?),
            None => Err(StoreError::UnknownBranch(replica_name(replica)).into()),
        }
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

    /// Runs the same workload as [`Cluster::run`] in **deterministic
    /// lockstep**: a single driver thread applies round `k`'s operation on
    /// every replica in index order, then (on gossip rounds) performs the
    /// ring pulls in index order.
    ///
    /// With seeded fault plans, the entire execution — operations, gossip
    /// outcomes, message loss — is a pure function of the configuration,
    /// which is what makes `PEEPUL_REPLAY`-style failure replay exact.
    /// Use [`Cluster::run`] when genuine thread interleaving is the point.
    ///
    /// # Errors
    ///
    /// Propagates the first store/verification error any replica hit.
    pub fn run_lockstep<F>(
        &self,
        ops_per_replica: usize,
        gossip_every: usize,
        op_of: F,
    ) -> Result<(), NetError>
    where
        F: Fn(usize, usize) -> M::Op,
    {
        let n = self.nodes.len();
        let mut remotes: Vec<_> = (0..n)
            .map(|i| {
                let peer = self.nodes[(i + 1) % n].clone();
                let name = peer.name().to_string();
                Remote::new(
                    name,
                    ChannelTransport::with_faults(peer, self.faults[i].clone()),
                )
            })
            .collect();
        for round in 0..ops_per_replica {
            for (i, node) in self.nodes.iter().enumerate() {
                node.apply(LOCAL_BRANCH, &op_of(i, round))?;
            }
            if gossip_every > 0 && round % gossip_every == gossip_every - 1 {
                for (i, node) in self.nodes.iter().enumerate() {
                    if self.faults[(i + 1) % n].is_partitioned() {
                        continue;
                    }
                    match node.pull(&mut remotes[i], LOCAL_BRANCH) {
                        Ok(_) | Err(NetError::Dropped) | Err(NetError::Partitioned) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(())
    }

    /// Brings every replica to the same state and returns the per-replica
    /// final states.
    ///
    /// This runs the [`AntiEntropy`] scheduler over the cluster's own
    /// links — **honouring their fault plans**, so a cluster whose
    /// partitions were never healed fails here rather than pretending to
    /// converge.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when anti-entropy quiesced without reaching
    /// convergence (links still partitioned); store errors from merging.
    pub fn converge(&self) -> Result<Vec<Arc<M>>, NetError> {
        let report = AntiEntropy::new().run_with_faults(&self.nodes, LOCAL_BRANCH, &self.faults)?;
        if !report.converged {
            return Err(NetError::Protocol(format!(
                "anti-entropy quiesced without convergence after {} rounds \
                 ({} pulls lost) — are links still partitioned?",
                report.rounds, report.pulls_failed
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

    #[test]
    fn reads_address_each_replica() {
        let cluster: Cluster<Counter> = Cluster::new(2).unwrap();
        cluster.run(3, 0, |_, _| CounterOp::Increment).unwrap();
        use peepul_types::counter::CounterQuery;
        assert_eq!(cluster.read(0, &CounterQuery::Value).unwrap(), 3);
        assert!(cluster.read(9, &CounterQuery::Value).is_err());
    }
}
