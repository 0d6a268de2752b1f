//! Mergeable log MRDT (paper §5.2, Fig. 7).
//!
//! An append-only log that keeps its entries in **reverse chronological
//! order** (most recent first), so a UI can render the newest message
//! without scanning. Appends are `O(1)`; the three-way merge is the
//! timestamp-sorted union of the two versions — equivalent to the paper's
//! `sort((a − l) @ (b − l)) @ l` on once-diverged branch pairs, and still
//! correct on asymmetric repeated-merge histories where the paper's
//! concatenation would break the ordering invariant (see
//! [`Mrdt::merge`](MergeableLog) and `DESIGN.md` §6).
//!
//! The log is the value type of the IRC-style chat of §5.1 (one log per
//! channel inside an α-map; see [`crate::chat`]).

use peepul_core::{
    diff_item_lists, AbstractOf, Certified, Delta, Mrdt, SimulationRelation, Specification,
    Timestamp, Wire,
};
use std::collections::VecDeque;
use std::fmt;

/// Operations of the mergeable log over messages `M`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogOp<M> {
    /// Append a message.
    Append(M),
}

/// Queries of the mergeable log.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LogQuery {
    /// Observe the whole log, most recent first.
    Read,
}

/// Mergeable log state: `(timestamp, message)` entries, newest first.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::log::{MergeableLog, LogOp};
///
/// let lca: MergeableLog<String> = MergeableLog::initial();
/// let (a, _) = lca.apply(&LogOp::Append("from a".into()), Timestamp::new(1, ReplicaId::new(1)));
/// let (b, _) = lca.apply(&LogOp::Append("from b".into()), Timestamp::new(2, ReplicaId::new(2)));
/// let m = MergeableLog::merge(&lca, &a, &b);
/// let msgs: Vec<&str> = m.iter().map(|(_, msg)| msg.as_str()).collect();
/// assert_eq!(msgs, ["from b", "from a"]); // newest first
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct MergeableLog<M> {
    /// Newest-first entries; timestamps strictly decrease along the deque.
    entries: VecDeque<(Timestamp, M)>,
}

impl<M> MergeableLog<M> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates newest-first.
    pub fn iter(&self) -> impl Iterator<Item = &(Timestamp, M)> {
        self.entries.iter()
    }

    /// The most recent entry, if any.
    pub fn latest(&self) -> Option<&(Timestamp, M)> {
        self.entries.front()
    }
}

impl<M: fmt::Debug> fmt::Debug for MergeableLog<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.entries).finish()
    }
}

impl<M: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for MergeableLog<M> {
    type Op = LogOp<M>;
    type Value = ();
    type Query = LogQuery;
    type Output = Vec<(Timestamp, M)>;

    fn initial() -> Self {
        MergeableLog {
            entries: VecDeque::new(),
        }
    }

    fn apply(&self, op: &LogOp<M>, t: Timestamp) -> (Self, ()) {
        match op {
            LogOp::Append(m) => {
                debug_assert!(
                    self.entries.front().is_none_or(|(front, _)| *front < t),
                    "store timestamps must increase along a branch (Ψ_ts)"
                );
                let mut next = self.clone();
                next.entries.push_front((t, m.clone()));
                (next, ())
            }
        }
    }

    fn query(&self, q: &LogQuery) -> Vec<(Timestamp, M)> {
        match q {
            LogQuery::Read => self.entries.iter().cloned().collect(),
        }
    }

    fn merge(_lca: &Self, a: &Self, b: &Self) -> Self {
        // The log is append-only, so every ancestor entry is still present
        // on both branches and the merge is simply the timestamp-sorted
        // union of the two versions (entries are unique by timestamp;
        // entries that reached both branches through earlier merges dedup
        // on the timestamp key).
        //
        // The paper's §5.2 computes `sort((a − l) @ (b − l)) @ l` instead,
        // which additionally assumes every fresh entry outranks all of the
        // LCA (the strong Ψ_lca envelope); under asymmetric repeated
        // merges that assumption fails and the concatenation would break
        // the reverse-chronological invariant, so the general union form
        // is used here. The two agree on the paper's envelope.
        let mut entries: Vec<(Timestamp, M)> =
            a.entries.iter().chain(b.entries.iter()).cloned().collect();
        entries.sort_by(|(t1, _), (t2, _)| t2.cmp(t1));
        entries.dedup_by(|x, y| x.0 == y.0);
        MergeableLog {
            entries: entries.into(),
        }
    }

    fn diff(&self, parent: &Self) -> Delta {
        // Entries are newest-first, so an append prepends — the byte splice
        // would already share the whole tail, but a *merge* interleaves
        // fresh entries from both branches anywhere in timestamp order;
        // diffing per encoded entry copies every inherited entry and
        // inserts only the genuinely new ones.
        diff_item_lists(&parent.entries, &self.entries, Wire::encode)
    }
}

/// Specification `F_log` (Fig. 7): a read returns exactly the appended
/// `(timestamp, message)` pairs, in reverse chronological order.
#[derive(Debug)]
pub struct LogSpec;

impl<M: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Specification<MergeableLog<M>>
    for LogSpec
{
    fn spec(_op: &LogOp<M>, _state: &AbstractOf<MergeableLog<M>>) {}

    fn query(q: &LogQuery, state: &AbstractOf<MergeableLog<M>>) -> Vec<(Timestamp, M)> {
        match q {
            LogQuery::Read => {
                let mut entries: Vec<(Timestamp, M)> = state
                    .events()
                    .map(|e| match e.op() {
                        LogOp::Append(m) => (e.time(), m.clone()),
                    })
                    .collect();
                entries.sort_by(|(t1, _), (t2, _)| t2.cmp(t1));
                entries
            }
        }
    }
}

/// Simulation relation (Fig. 7): the concrete log contains exactly the
/// append events' `(timestamp, message)` pairs and is sorted newest-first.
#[derive(Debug)]
pub struct LogSim;

impl<M: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug>
    SimulationRelation<MergeableLog<M>> for LogSim
{
    fn holds(abs: &AbstractOf<MergeableLog<M>>, conc: &MergeableLog<M>) -> bool {
        let mut appended: Vec<(Timestamp, M)> = abs
            .events()
            .map(|e| match e.op() {
                LogOp::Append(m) => (e.time(), m.clone()),
            })
            .collect();
        appended.sort_by(|(t1, _), (t2, _)| t2.cmp(t1));
        conc.entries.iter().cloned().collect::<Vec<_>>() == appended
    }

    fn explain_failure(
        abs: &AbstractOf<MergeableLog<M>>,
        conc: &MergeableLog<M>,
    ) -> Option<String> {
        if <Self as SimulationRelation<MergeableLog<M>>>::holds(abs, conc) {
            None
        } else {
            Some(format!(
                "log {:?} is not the reverse-chronological sequence of append events",
                conc.entries
            ))
        }
    }
}

impl<M: Ord + Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for MergeableLog<M> {
    type Spec = LogSpec;
    type Sim = LogSim;
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    #[test]
    fn appends_accumulate_newest_first() {
        let l: MergeableLog<String> = MergeableLog::initial();
        let (l, _) = l.apply(&LogOp::Append("one".into()), ts(1, 0));
        let (l, _) = l.apply(&LogOp::Append("two".into()), ts(2, 0));
        assert_eq!(l.latest(), Some(&(ts(2, 0), "two".to_owned())));
        assert_eq!(
            l.query(&LogQuery::Read),
            vec![(ts(2, 0), "two".to_owned()), (ts(1, 0), "one".to_owned())]
        );
    }

    #[test]
    fn merge_interleaves_fresh_entries_by_timestamp() {
        let lca: MergeableLog<String> = MergeableLog::initial();
        let (lca, _) = lca.apply(&LogOp::Append("base".into()), ts(1, 0));
        let (a, _) = lca.apply(&LogOp::Append("a1".into()), ts(2, 1));
        let (a, _) = a.apply(&LogOp::Append("a2".into()), ts(5, 1));
        let (b, _) = lca.apply(&LogOp::Append("b1".into()), ts(3, 2));
        let (b, _) = b.apply(&LogOp::Append("b2".into()), ts(4, 2));
        let m = MergeableLog::merge(&lca, &a, &b);
        let msgs: Vec<&str> = m.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(msgs, ["a2", "b2", "b1", "a1", "base"]);
    }

    #[test]
    fn merge_is_commutative() {
        let lca: MergeableLog<String> = MergeableLog::initial();
        let (a, _) = lca.apply(&LogOp::Append("a".into()), ts(1, 1));
        let (b, _) = lca.apply(&LogOp::Append("b".into()), ts(2, 2));
        assert_eq!(
            MergeableLog::merge(&lca, &a, &b),
            MergeableLog::merge(&lca, &b, &a)
        );
    }

    #[test]
    fn merge_with_identical_branches_is_identity() {
        let lca: MergeableLog<String> = MergeableLog::initial();
        let (a, _) = lca.apply(&LogOp::Append("x".into()), ts(1, 0));
        assert_eq!(MergeableLog::merge(&lca, &a, &a), a);
    }

    #[test]
    fn timestamps_strictly_decrease_along_merged_log() {
        let lca: MergeableLog<u32> = MergeableLog::initial();
        let (lca, _) = lca.apply(&LogOp::Append(0), ts(1, 0));
        let (a, _) = lca.apply(&LogOp::Append(1), ts(2, 1));
        let (b, _) = lca.apply(&LogOp::Append(2), ts(3, 2));
        let m = MergeableLog::merge(&lca, &a, &b);
        let times: Vec<Timestamp> = m.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn query_spec_orders_all_appends() {
        let i = AbstractOf::<MergeableLog<String>>::new()
            .perform(LogOp::Append("x".into()), (), ts(1, 0))
            .perform(LogOp::Append("y".into()), (), ts(2, 0));
        assert_eq!(
            LogSpec::query(&LogQuery::Read, &i),
            vec![(ts(2, 0), "y".to_owned()), (ts(1, 0), "x".to_owned())]
        );
    }

    #[test]
    fn simulation_rejects_misordered_log() {
        let i = AbstractOf::<MergeableLog<String>>::new()
            .perform(LogOp::Append("x".into()), (), ts(1, 0))
            .perform(LogOp::Append("y".into()), (), ts(2, 0));
        let mut bad: MergeableLog<String> = MergeableLog::initial();
        bad.entries.push_back((ts(1, 0), "x".into()));
        bad.entries.push_back((ts(2, 0), "y".into())); // oldest-first: wrong
        assert!(!LogSim::holds(&i, &bad));
        let (good, _) = {
            let (l, _) =
                MergeableLog::<String>::initial().apply(&LogOp::Append("x".into()), ts(1, 0));
            l.apply(&LogOp::Append("y".into()), ts(2, 0))
        };
        assert!(LogSim::holds(&i, &good));
    }
}

impl<M: peepul_core::Wire> peepul_core::Wire for MergeableLog<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let entries: std::collections::VecDeque<(Timestamp, M)> = peepul_core::Wire::decode(input)?;
        // Reject encodings that violate the newest-first invariant: they
        // could never have come from a well-formed log.
        let sorted = entries
            .iter()
            .zip(entries.iter().skip(1))
            .all(|(a, b)| a.0 > b.0);
        sorted.then_some(MergeableLog { entries })
    }

    fn max_tick(&self) -> u64 {
        self.entries.max_tick()
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::{ReplicaId, Wire};

    #[test]
    fn log_wire_roundtrip_and_invariant_check() {
        let ts = |t| Timestamp::new(t, ReplicaId::new(0));
        let l = MergeableLog {
            entries: [(ts(3), 30u8), (ts(1), 10)].into(),
        };
        assert_eq!(MergeableLog::from_wire(&l.to_wire()), Some(l.clone()));
        assert_eq!(l.max_tick(), 3);
        let bad = MergeableLog {
            entries: [(ts(1), 10u8), (ts(3), 30)].into(),
        };
        assert_eq!(MergeableLog::<u8>::from_wire(&bad.to_wire()), None);
    }
}
