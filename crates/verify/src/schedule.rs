//! Execution schedules: the one step vocabulary and its one interpreter.
//!
//! A schedule is the syntactic side of an execution `χ` (Definition 3.1)
//! over a fleet of stores. Its store arms are the `CREATEBRANCH`/`DO`/
//! `MERGE` labels of the store LTS, each naming the replica it runs on;
//! `SYNC` moves history between two replicas, `PARTITION` and `HEAL` cut
//! and restore a replica's link; and the lifecycle arms
//! (`FLUSH`, `STRAND`, `COLLECT`, `ROTATE`, `COMPACT`) change how a store
//! keeps its history, never what it holds. A single store is replica 0 of
//! a fleet of one. Replicas are numbered as the fleet numbers them;
//! branches are numbered per replica in creation order, branch `k` being
//! the store branch named `b{k}` and `b0` the root.
//!
//! [`Step::run_on`] is the one interpreter: it runs a step on a
//! [`Cluster`] over any backend and checks nothing itself. The certifying
//! [`Runner`](crate::Runner) adds the per-step obligations around it, and
//! [`check_fleet_on`](crate::check_fleet_on) adds `Φ_ra` over the recorded
//! witness.

use peepul_core::Mrdt;
use peepul_net::{ChannelTransport, Cluster, NetError, Remote, Replica, TRACKING_PREFIX};
use peepul_store::Backend;
use std::fmt;

/// One transition label. `node` is the replica a store arm runs on
/// (node `i` of the fleet, rendered `r{i}`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step<Op> {
    /// Fork a new branch of `node` (its number is the node's current
    /// branch count) off branch `from`.
    CreateBranch {
        /// The replica.
        node: usize,
        /// Source branch number.
        from: usize,
    },
    /// Perform a data-type operation on a branch.
    Do {
        /// The replica.
        node: usize,
        /// Target branch number.
        branch: usize,
        /// The operation.
        op: Op,
    },
    /// Merge branch `from` into branch `into`, both of `node`.
    Merge {
        /// The replica.
        node: usize,
        /// Target branch number (receives the merge).
        into: usize,
        /// Source branch number (unchanged).
        from: usize,
    },
    /// Replica `to` pulls replica `from`'s root branch into its own, over
    /// `to`'s link. Skipped, not attempted, while `from`'s link is
    /// partitioned; a message lost on the way is lost gossip, not an error.
    Sync {
        /// The replica pulled from.
        from: usize,
        /// The replica that pulls.
        to: usize,
    },
    /// Cut `node`'s link: its pulls fail, and pulls from it are skipped,
    /// until a `HEAL`.
    Partition {
        /// The replica.
        node: usize,
    },
    /// Restore `node`'s link.
    Heal {
        /// The replica.
        node: usize,
    },
    /// Persist every commit landed so far (the group-commit point).
    Flush {
        /// The replica.
        node: usize,
    },
    /// Make garbage: fork a new branch off `from`, perform `op` on it,
    /// then reset it to the fork base, stranding the new commit.
    Strand {
        /// The replica.
        node: usize,
        /// Source branch number.
        from: usize,
        /// The operation whose commit is stranded.
        op: Op,
    },
    /// Reference-tracing garbage collection.
    Collect {
        /// The replica.
        node: usize,
    },
    /// Seal the active storage segment (a no-op on memory).
    Rotate {
        /// The replica.
        node: usize,
    },
    /// Fold sealed storage into packs (a no-op on memory).
    Compact {
        /// The replica.
        node: usize,
    },
}

impl<Op: fmt::Debug> fmt::Display for Step<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::CreateBranch { node, from } => write!(f, "CREATEBRANCH(r{node}: b{from} → new)"),
            Step::Do { node, branch, op } => write!(f, "DO({op:?}, r{node}: b{branch})"),
            Step::Merge { node, into, from } => write!(f, "MERGE(r{node}: b{into} ← b{from})"),
            Step::Sync { from, to } => write!(f, "SYNC(r{to} ← r{from})"),
            Step::Partition { node } => write!(f, "PARTITION(r{node})"),
            Step::Heal { node } => write!(f, "HEAL(r{node})"),
            Step::Flush { node } => write!(f, "FLUSH(r{node})"),
            Step::Strand { node, from, op } => write!(f, "STRAND({op:?}, r{node}: b{from} → new)"),
            Step::Collect { node } => write!(f, "COLLECT(r{node})"),
            Step::Rotate { node } => write!(f, "ROTATE(r{node})"),
            Step::Compact { node } => write!(f, "COMPACT(r{node})"),
        }
    }
}

/// The store name of branch number `k`.
pub(crate) fn branch_name(k: usize) -> String {
    format!("b{k}")
}

/// How many numbered branches `node` has: every branch but the tracking
/// branches its pulls created.
pub(crate) fn branch_count<M: Mrdt, B: Backend>(node: &Replica<M, B>) -> usize {
    node.with_store_read(|s| {
        s.branch_names()
            .iter()
            .filter(|b| !b.starts_with(TRACKING_PREFIX))
            .count()
    })
}

impl<Op> Step<Op> {
    /// Runs this step on `fleet` — the one interpreter of the vocabulary.
    /// It checks no obligation.
    ///
    /// # Errors
    ///
    /// The step's store error (an unknown replica is
    /// [`StoreError::UnknownBranch`](peepul_store::StoreError) naming it),
    /// a sync of a replica with itself as [`NetError::Protocol`], and a
    /// sync's error other than lost gossip.
    pub fn run_on<M, B>(&self, fleet: &Cluster<M, B>) -> Result<(), NetError>
    where
        M: Mrdt<Op = Op>,
        B: Backend,
    {
        match self {
            Step::CreateBranch { node: i, from } => {
                let node = fleet.node(*i)?;
                node.fork(&branch_name(*from), &branch_name(branch_count(node)))?;
            }
            Step::Do { node, branch, op } => {
                fleet.node(*node)?.apply(&branch_name(*branch), op)?;
            }
            Step::Merge { node, into, from } => {
                fleet
                    .node(*node)?
                    .merge(&branch_name(*into), &branch_name(*from))?;
            }
            Step::Sync { from, to } => {
                let (source, sink) = (fleet.node(*from)?, fleet.node(*to)?);
                if from == to {
                    let why = format!("{} cannot sync with itself", sink.name());
                    return Err(NetError::Protocol(why));
                }
                if fleet.faults(*from)?.is_partitioned() {
                    return Ok(());
                }
                let link = fleet.faults(*to)?.clone();
                let transport = ChannelTransport::with_faults(source.clone(), link);
                let mut remote = Remote::new(source.name(), transport);
                match sink.pull(&mut remote, &branch_name(0)) {
                    Ok(_) | Err(NetError::Dropped | NetError::Partitioned) => {}
                    Err(e) => return Err(e),
                }
            }
            Step::Partition { node } => fleet.faults(*node)?.partition(),
            Step::Heal { node } => fleet.faults(*node)?.heal(),
            Step::Flush { node } => fleet.node(*node)?.flush()?,
            Step::Strand { node: i, from, op } => {
                let node = fleet.node(*i)?;
                let (from, scratch) = (branch_name(*from), branch_name(branch_count(node)));
                let base = node.head_id(&from)?;
                node.fork(&from, &scratch)?;
                node.apply(&scratch, op)?;
                node.reset(&scratch, base)?;
            }
            Step::Collect { node } => {
                fleet.node(*node)?.collect_garbage()?;
            }
            Step::Rotate { node } => fleet.node(*node)?.rotate()?,
            Step::Compact { node } => fleet.node(*node)?.compact_storage()?,
        }
        Ok(())
    }
}

/// A finite execution script.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule<Op> {
    /// The transition labels, in order.
    pub steps: Vec<Step<Op>>,
}

impl<Op> Schedule<Op> {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule { steps: Vec::new() }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Runs every step on `fleet`, in order ([`Step::run_on`]).
    ///
    /// # Errors
    ///
    /// The first step's error.
    pub fn run_on<M, B>(&self, fleet: &Cluster<M, B>) -> Result<(), NetError>
    where
        M: Mrdt<Op = Op>,
        B: Backend,
    {
        self.steps.iter().try_for_each(|step| step.run_on(fleet))
    }

    /// Whether, on a fleet of `replicas`, every step names only replicas
    /// and branches that exist when it runs, and no replica syncs with
    /// itself.
    pub fn is_well_formed(&self, replicas: usize) -> bool {
        let mut branches = vec![1usize; replicas];
        self.steps.iter().all(|step| match *step {
            Step::CreateBranch { node, from } | Step::Strand { node, from, .. } => {
                let exists = branches.get(node).is_some_and(|&n| from < n);
                if exists {
                    branches[node] += 1;
                }
                exists
            }
            Step::Do { node, branch, .. } => branches.get(node).is_some_and(|&n| branch < n),
            Step::Merge { node, into, from } => {
                branches.get(node).is_some_and(|&n| into.max(from) < n)
            }
            Step::Sync { from, to } => from != to && from.max(to) < replicas,
            Step::Partition { node }
            | Step::Heal { node }
            | Step::Flush { node }
            | Step::Collect { node }
            | Step::Rotate { node }
            | Step::Compact { node } => node < replicas,
        })
    }
}

impl<Op> FromIterator<Step<Op>> for Schedule<Op> {
    fn from_iter<I: IntoIterator<Item = Step<Op>>>(iter: I) -> Self {
        Schedule {
            steps: iter.into_iter().collect(),
        }
    }
}

impl<Op: fmt::Debug> fmt::Display for Schedule<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "{i:>4}: {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(steps: impl IntoIterator<Item = Step<u8>>) -> Schedule<u8> {
        steps.into_iter().collect()
    }

    /// The number of branches `node` ends with.
    fn branches(s: &Schedule<u8>, node: usize) -> usize {
        1 + s
            .steps
            .iter()
            .filter(|s| matches!(s, Step::CreateBranch { node: n, .. } | Step::Strand { node: n, .. } if *n == node))
            .count()
    }

    #[test]
    fn well_formedness_tracks_branch_creation() {
        let ok = one([
            Step::Do {
                node: 0,
                branch: 0,
                op: 1,
            },
            Step::CreateBranch { node: 0, from: 0 },
            Step::Do {
                node: 0,
                branch: 1,
                op: 2,
            },
            Step::Merge {
                node: 0,
                into: 0,
                from: 1,
            },
            Step::Strand {
                node: 0,
                from: 1,
                op: 3,
            },
            Step::Do {
                node: 0,
                branch: 2,
                op: 4,
            },
            Step::Flush { node: 0 },
            Step::Collect { node: 0 },
            Step::Rotate { node: 0 },
            Step::Compact { node: 0 },
        ]);
        assert!(ok.is_well_formed(1));
        assert_eq!(branches(&ok, 0), 3);

        let bad = one([Step::Do {
            node: 0,
            branch: 1,
            op: 1,
        }]);
        assert!(!bad.is_well_formed(1));

        let bad_merge = one([Step::Merge {
            node: 0,
            into: 0,
            from: 3,
        }]);
        assert!(!bad_merge.is_well_formed(1));

        let bad_strand = one([Step::Strand {
            node: 0,
            from: 1,
            op: 1,
        }]);
        assert!(!bad_strand.is_well_formed(1));

        // Branches are numbered per replica.
        let fleet = one([
            Step::CreateBranch { node: 1, from: 0 },
            Step::Do {
                node: 1,
                branch: 1,
                op: 1,
            },
            Step::Partition { node: 0 },
            Step::Sync { from: 1, to: 0 },
            Step::Heal { node: 0 },
        ]);
        assert!(fleet.is_well_formed(2));
        assert_eq!((branches(&fleet, 0), branches(&fleet, 1)), (1, 2));
        let wrong_replica = one([
            Step::CreateBranch { node: 1, from: 0 },
            Step::Do {
                node: 0,
                branch: 1,
                op: 1,
            },
        ]);
        assert!(!wrong_replica.is_well_formed(2));

        // A replica does not sync with itself, and every arm must name a
        // replica the fleet has.
        assert!(!one([Step::Sync { from: 0, to: 0 }]).is_well_formed(2));
        for missing in [
            Step::Sync { from: 0, to: 2 },
            Step::Partition { node: 2 },
            Step::Heal { node: 2 },
            Step::Flush { node: 2 },
            Step::Collect { node: 2 },
            Step::Rotate { node: 2 },
            Step::Compact { node: 2 },
            Step::CreateBranch { node: 2, from: 0 },
        ] {
            assert!(!one([missing.clone()]).is_well_formed(2), "{missing}");
        }
    }

    #[test]
    fn display_renders_labels() {
        let s = one([
            Step::CreateBranch { node: 0, from: 0 },
            Step::Do {
                node: 0,
                branch: 1,
                op: 9,
            },
            Step::Merge {
                node: 0,
                into: 0,
                from: 1,
            },
            Step::Sync { from: 1, to: 0 },
            Step::Sync { from: 0, to: 0 },
            Step::Partition { node: 1 },
            Step::Heal { node: 2 },
            Step::Flush { node: 0 },
            Step::Strand {
                node: 0,
                from: 1,
                op: 7,
            },
            Step::Collect { node: 0 },
            Step::Rotate { node: 3 },
            Step::Compact { node: 0 },
        ]);
        let text = s.to_string();
        for label in [
            "CREATEBRANCH(r0: b0 → new)",
            "DO(9, r0: b1)",
            "MERGE(r0: b0 ← b1)",
            "SYNC(r0 ← r1)",
            "SYNC(r0 ← r0)",
            "PARTITION(r1)",
            "HEAL(r2)",
            "FLUSH(r0)",
            "STRAND(7, r0: b1 → new)",
            "COLLECT(r0)",
            "ROTATE(r3)",
            "COMPACT(r0)",
        ] {
            assert!(text.contains(label), "{label} missing from\n{text}");
        }
    }
}
