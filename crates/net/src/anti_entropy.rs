//! The anti-entropy scheduler: periodic pairwise pulls until quiescence.
//!
//! Gossip-style repair for a fleet of replicas. Each round is a star
//! double-pass of real pulls — the hub gathers every spoke's history,
//! then every spoke pulls the hub — so one clean round fully synchronises
//! a connected fleet, and a second confirms quiescence: a full round in
//! which every pull reported `UpToDate`. The report says whether the
//! fleet actually **converged** (every replica on the same head commit,
//! hence byte-identical canonical states), which quiescence alone does
//! not imply while partitions are still in force.
//!
//! Faulty links are tolerated, not fatal: a pull that fails with
//! [`NetError::Dropped`] or [`NetError::Partitioned`] is a lost gossip
//! opportunity, and the next round tries again. Any other error (a corrupt
//! object, a protocol violation) aborts the run — those are bugs, not
//! weather.

use crate::error::NetError;
use crate::replica::{PullOutcome, Remote, Replica};
use crate::transport::{ChannelTransport, FaultInjector};
use peepul_core::Mrdt;
use peepul_store::Backend;

/// The round bound of every run: a healthy fleet of any size converges
/// in one round and quiesces in two; the margin is budget for lossy links.
const MAX_ROUNDS: usize = 64;

/// Pairwise-pull scheduler, bounded at 64 rounds. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct AntiEntropy;

impl AntiEntropy {
    /// A scheduler (every run is bounded at 64 rounds).
    pub fn new() -> Self {
        AntiEntropy
    }

    /// Runs rounds over fault-free in-process links until quiescence.
    ///
    /// # Errors
    ///
    /// Store, verification and protocol errors; never the fault-injection
    /// errors (there are no faults on these links).
    pub fn run<M, B>(
        &self,
        replicas: &[Replica<M, B>],
        branch: &str,
    ) -> Result<AntiEntropyReport, NetError>
    where
        M: Mrdt,
        B: Backend,
    {
        self.run_with_faults(replicas, branch, &[])
    }

    /// Runs rounds with `faults[i]` modelling replica `i`'s network
    /// interface (missing entries are fault-free): partitioning either
    /// endpoint severs a pair, and a puller's loss/drop schedule applies
    /// to its pulls. Faulty links cost gossip opportunities; the run still
    /// terminates and the report says whether convergence was reached
    /// despite them.
    ///
    /// # Errors
    ///
    /// Store, verification and protocol errors. Fault-injected drops are
    /// tolerated and counted, not raised.
    pub fn run_with_faults<M, B>(
        &self,
        replicas: &[Replica<M, B>],
        branch: &str,
        faults: &[FaultInjector],
    ) -> Result<AntiEntropyReport, NetError>
    where
        M: Mrdt,
        B: Backend,
    {
        let n = replicas.len();
        let mut report = AntiEntropyReport::default();
        if n <= 1 {
            report.converged = true;
            return Ok(report);
        }
        // One round = a star double-pass: the hub (replica 0) pulls every
        // spoke, then every spoke pulls the hub. The hub linearises the
        // merge order, which is what makes the fleet's *heads* (not just
        // states) settle: free-running ring gossip never quiesces for
        // n ≥ 3, because every replica keeps minting a fresh merge commit
        // one step ahead of the replica pulling it.
        for _ in 0..MAX_ROUNDS {
            report.rounds += 1;
            let mut quiet = true;
            for (puller, servee) in (1..n).map(|i| (0, i)).chain((1..n).map(|i| (i, 0))) {
                // `faults[i]` models replica i's network interface:
                // partitioning either endpoint severs the pair, and the
                // puller's injector applies its loss/drop schedule.
                if faults
                    .get(servee)
                    .is_some_and(FaultInjector::is_partitioned)
                {
                    report.pulls_failed += 1;
                    quiet = false;
                    continue;
                }
                let transport = ChannelTransport::with_faults(
                    replicas[servee].clone(),
                    faults.get(puller).cloned().unwrap_or_default(),
                );
                let mut remote = Remote::new(replicas[servee].name(), transport);
                match replicas[puller].pull(&mut remote, branch) {
                    Ok(pull) => {
                        report.objects_transferred += pull.fetch.objects_received();
                        if pull.outcome != PullOutcome::UpToDate {
                            quiet = false;
                        }
                    }
                    Err(NetError::Dropped | NetError::Partitioned) => {
                        report.pulls_failed += 1;
                        quiet = false;
                    }
                    Err(NetError::UnknownRemoteBranch(_)) => {
                        // The peer has not created the branch yet (e.g. it
                        // is freshly joined); it will after pulling.
                        report.pulls_failed += 1;
                        quiet = false;
                    }
                    Err(e) => return Err(e),
                }
            }
            if quiet {
                break;
            }
        }
        report.converged = converged(replicas, branch);
        Ok(report)
    }
}

/// Whether every replica's `branch` points at the **same head commit**.
///
/// Head-commit equality is deliberately stronger than equal head *states*:
/// replicas that never communicated can reach byte-identical states by
/// coincidence (five isolated counters that each incremented five times),
/// yet still owe each other history — merging them later would change the
/// value. Equal head commits mean equal Merkle histories: everyone has
/// integrated everything (which implies byte-identical canonical states
/// too). Ring anti-entropy over healthy links quiesces exactly there —
/// every pull reporting `UpToDate` around the full ring gives mutual
/// ancestry, and mutually-ancestral commits are equal.
fn converged<M: Mrdt, B: Backend>(replicas: &[Replica<M, B>], branch: &str) -> bool {
    let mut ids = replicas.iter().map(|r| r.head_id(branch));
    let Some(Ok(first)) = ids.next() else {
        return replicas.is_empty();
    };
    ids.all(|id| id == Ok(first))
}

/// What an anti-entropy run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Rounds executed (including the final quiescent round).
    pub rounds: u64,
    /// Objects (commits + states) moved across all pulls.
    pub objects_transferred: u64,
    /// Pulls lost to fault injection or not-yet-created branches.
    pub pulls_failed: u64,
    /// Whether all replicas ended on the **same head commit** of the
    /// synced branch — equal Merkle histories, which implies byte-identical
    /// canonical head states (and is strictly stronger: coincidentally
    /// equal states on replicas that still owe each other history do not
    /// count).
    pub converged: bool,
}
