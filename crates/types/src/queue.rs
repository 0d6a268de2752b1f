//! Tombstone-free replicated functional queue MRDT (paper §6, Appendix B).
//!
//! Okasaki's two-list batched queue promoted to an MRDT:
//!
//! * `enqueue` pushes onto the rear list — `O(1)`;
//! * `dequeue` pops the front list, reversing the rear into the front when
//!   the front runs dry — amortized `O(1)` (each element is reversed at
//!   most once);
//! * `merge` is `O(n)`, tombstone-free, and follows Appendix B exactly:
//!   convert the three versions to lists, take the longest common
//!   contiguous subsequence (`intersection` — the elements dequeued on
//!   *neither* branch), find each branch's newly enqueued suffix
//!   (`diff_s`), and append the timestamp-merged suffixes (`union`) to the
//!   common part.
//!
//! Elements are tagged with their enqueue timestamp (making every entry
//! unique), and the data type deliberately offers **at-least-once** dequeue
//! semantics: concurrent dequeues on different branches may both consume
//! the same element, as in Amazon SQS or RabbitMQ. The queue axioms of
//! §6.2 (`AddRem`, `Empty`, `FIFO_1`, `FIFO_2`) are provided executably in
//! [`axioms`].

use peepul_core::{
    AbstractOf, Certified, Delta, Mrdt, SimulationRelation, Specification, Timestamp, Wire,
};
use std::fmt;

/// One queue entry: the enqueue timestamp (unique tag) and the value.
pub type Entry<T> = (Timestamp, T);

/// Update operations of the replicated queue. Note that `dequeue` is an
/// *update with a return value* — it both consumes the head and reports it
/// — which is why it stays in the op alphabet while the pure `peek` moved
/// to [`QueueQuery`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueueOp<T> {
    /// Push a value at the tail. Returns [`QueueValue::Ack`].
    Enqueue(T),
    /// Pop the head. Returns [`QueueValue::Dequeued`] (with `None` when the
    /// queue is observed empty — the paper's `EMPTY`).
    Dequeue,
}

/// Queries of the replicated queue.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum QueueQuery {
    /// Observe the head without removing it (`None` when empty).
    Peek,
}

/// Return values of the replicated queue's updates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueueValue<T> {
    /// The unit reply `⊥` of an enqueue.
    Ack,
    /// The dequeued entry, or `None` when the queue was empty.
    Dequeued(Option<Entry<T>>),
}

/// Replicated two-list queue state.
///
/// Both lists hold entries so that the next element out sits at the **end**
/// of `front` (so `Vec::pop` dequeues) and the most recent enqueue sits at
/// the end of `rear` (so `Vec::push` enqueues).
///
/// # Example
///
/// The worked three-way merge of the paper's Fig. 11:
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::queue::{Queue, QueueOp, QueueValue};
///
/// let ts = |t, r| Timestamp::new(t, ReplicaId::new(r));
/// let mut lca: Queue<u32> = Queue::initial();
/// for v in 1..=5 {
///     lca = lca.apply(&QueueOp::Enqueue(v), ts(v as u64, 0)).0;
/// }
/// // Branch A: dequeue ×2, enqueue 8, 9 (enqueue timestamps = values,
/// // exactly as the figure assumes).
/// let a = lca.apply(&QueueOp::Dequeue, ts(5, 1)).0;
/// let a = a.apply(&QueueOp::Dequeue, ts(6, 1)).0;
/// let a = a.apply(&QueueOp::Enqueue(8), ts(8, 1)).0;
/// let a = a.apply(&QueueOp::Enqueue(9), ts(9, 1)).0;
/// // Branch B: dequeue, enqueue 6, 7.
/// let b = lca.apply(&QueueOp::Dequeue, ts(5, 2)).0;
/// let b = b.apply(&QueueOp::Enqueue(6), ts(6, 2)).0;
/// let b = b.apply(&QueueOp::Enqueue(7), ts(7, 2)).0;
///
/// let m = Queue::merge(&lca, &a, &b);
/// let values: Vec<u32> = m.to_list().into_iter().map(|(_, v)| v).collect();
/// assert_eq!(values, [3, 4, 5, 6, 7, 8, 9]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Queue<T> {
    /// Next-out at the end (popped); timestamps *descend* along the vec.
    front: Vec<Entry<T>>,
    /// Most recent enqueue at the end (pushed); timestamps ascend.
    rear: Vec<Entry<T>>,
}

impl<T: Clone> Queue<T> {
    /// Number of elements currently in the queue.
    pub fn len(&self) -> usize {
        self.front.len() + self.rear.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.rear.is_empty()
    }

    /// The entry that the next `dequeue` would return, if any.
    pub fn head(&self) -> Option<&Entry<T>> {
        self.front.last().or_else(|| self.rear.first())
    }

    /// The whole queue in dequeue order (`tolist` of Appendix B);
    /// timestamps ascend strictly.
    pub fn to_list(&self) -> Vec<Entry<T>> {
        let mut out: Vec<Entry<T>> = self.front.iter().rev().cloned().collect();
        out.extend(self.rear.iter().cloned());
        out
    }

    /// Rebuilds a queue from a dequeue-ordered list (all entries land in
    /// the front list, the canonical post-merge shape).
    fn from_list(list: Vec<Entry<T>>) -> Self {
        Queue {
            front: list.into_iter().rev().collect(),
            rear: Vec::new(),
        }
    }
}

/// `intersection` of Appendix B: the entries of `l` that survive (were
/// dequeued) on *neither* branch. All three lists are timestamp-ascending;
/// the surviving `l`-entries form a suffix of `l` and a prefix of each
/// branch, so one linear walk suffices.
fn intersection<T: Clone>(l: &[Entry<T>], a: &[Entry<T>], b: &[Entry<T>]) -> Vec<Entry<T>> {
    let mut out = Vec::new();
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < l.len() && j < a.len() && k < b.len() {
        if l[i].0 < a[j].0 || l[i].0 < b[k].0 {
            // l[i] was dequeued on at least one branch: drop it.
            i += 1;
        } else {
            out.push(l[i].clone());
            i += 1;
            j += 1;
            k += 1;
        }
    }
    out
}

/// `diff_s` of Appendix B: the suffix of branch list `a` that was enqueued
/// since the ancestor `l` (every fresh entry's timestamp exceeds all of
/// `l`'s, so the suffix is exactly the fresh part).
fn diff_s<T: Clone>(a: &[Entry<T>], l: &[Entry<T>]) -> Vec<Entry<T>> {
    let (mut j, mut i) = (0, 0);
    while j < a.len() && i < l.len() {
        if l[i].0 < a[j].0 {
            i += 1; // l[i] was dequeued in a
        } else {
            i += 1;
            j += 1; // shared entry
        }
    }
    a[j..].to_vec()
}

/// `union` of Appendix B: merges two timestamp-ascending lists of fresh
/// entries into one, by timestamp.
fn union<T: Clone>(x: &[Entry<T>], y: &[Entry<T>]) -> Vec<Entry<T>> {
    let mut out = Vec::with_capacity(x.len() + y.len());
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        if x[i].0 < y[j].0 {
            out.push(x[i].clone());
            i += 1;
        } else if y[j].0 < x[i].0 {
            out.push(y[j].clone());
            j += 1;
        } else {
            // Same timestamp on both sides: the same entry arrived through
            // two paths (criss-cross history); keep one copy.
            out.push(x[i].clone());
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&x[i..]);
    out.extend_from_slice(&y[j..]);
    out
}

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Mrdt for Queue<T> {
    type Op = QueueOp<T>;
    type Value = QueueValue<T>;
    type Query = QueueQuery;
    type Output = Option<Entry<T>>;

    fn initial() -> Self {
        Queue {
            front: Vec::new(),
            rear: Vec::new(),
        }
    }

    fn apply(&self, op: &QueueOp<T>, t: Timestamp) -> (Self, QueueValue<T>) {
        match op {
            QueueOp::Enqueue(v) => {
                let mut next = self.clone();
                next.rear.push((t, v.clone()));
                (next, QueueValue::Ack)
            }
            QueueOp::Dequeue => {
                let mut next = self.clone();
                if next.front.is_empty() {
                    // norm: reverse the rear into the front.
                    next.front = std::mem::take(&mut next.rear);
                    next.front.reverse();
                }
                let popped = next.front.pop();
                (next, QueueValue::Dequeued(popped))
            }
        }
    }

    fn query(&self, q: &QueueQuery) -> Option<Entry<T>> {
        match q {
            QueueQuery::Peek => self.head().cloned(),
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        // Dequeue-wins merge on timestamp-keyed entry sets:
        //
        //   keep e  ⟺  (e ∈ a ∧ e ∈ b)  ∨  e ∉ lca
        //
        // i.e. an ancestor entry survives only if neither branch dequeued
        // it, and entries new on either branch survive; the result is laid
        // out in timestamp order. This computes the same result as the
        // paper's Appendix-B `intersection`/`diff_s`/`union` pipeline
        // ([`Queue::merge_appendix_b`]) whenever that pipeline's
        // assumption holds (every fresh entry is newer than all of the
        // LCA — the paper's strong Ψ_lca), and stays correct on the
        // asymmetric repeated-merge histories where the assumption fails;
        // see the module docs. O(n log n) over the longest version.
        use std::collections::BTreeSet;
        let l = lca.to_list();
        let la = a.to_list();
        let lb = b.to_list();
        let in_l: BTreeSet<Timestamp> = l.iter().map(|(t, _)| *t).collect();
        let in_a: BTreeSet<Timestamp> = la.iter().map(|(t, _)| *t).collect();
        let in_b: BTreeSet<Timestamp> = lb.iter().map(|(t, _)| *t).collect();
        let merged = union(&la, &lb)
            .into_iter()
            .filter(|(t, _)| !in_l.contains(t) || (in_a.contains(t) && in_b.contains(t)))
            .collect();
        Queue::from_list(merged)
    }

    fn observably_equal(&self, other: &Self) -> bool {
        // The front/rear split is internal; only the dequeue order is
        // observable.
        self.to_list() == other.to_list()
    }

    fn op_delta(&self, op: &QueueOp<T>, next: &Self) -> Delta {
        // The encoding is `front ∥ rear`, each a u64 length and its
        // entries. Enqueue appends to `rear`; a dequeue from a non-empty
        // `front` drops its last entry. Either way one length prefix
        // changes and every other byte but one entry is copied. The
        // `norm` reversal and a dequeue on an empty queue fall back.
        let mut base = Vec::new();
        self.front.encode(&mut base);
        let front_end = base.len() as u64;
        self.rear.encode(&mut base);
        let end = base.len() as u64;
        let mut delta = Delta::default();
        match (op, next.rear.last(), self.front.last()) {
            (QueueOp::Enqueue(_), Some(entry), _) => {
                delta.push_copy(0, front_end);
                delta.push_insert(next.rear.len().to_wire());
                delta.push_copy(front_end + 8, end - front_end - 8);
                delta.push_insert(entry.to_wire());
            }
            (QueueOp::Dequeue, _, Some(popped)) => {
                let popped_at = front_end - popped.to_wire().len() as u64;
                delta.push_insert(next.front.len().to_wire());
                delta.push_copy(8, popped_at - 8);
                delta.push_copy(front_end, end - front_end);
            }
            _ => return next.diff(self),
        }
        delta
    }
}

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Queue<T> {
    /// The paper's Appendix-B three-way merge, verbatim: longest common
    /// contiguous subsequence (`intersection`), newly enqueued suffixes
    /// (`diff_s`), timestamp-merged (`union`).
    ///
    /// This transliteration is correct exactly when every entry that is
    /// fresh relative to the LCA carries a timestamp greater than all LCA
    /// entries — the situation the paper's strong Ψ_lca store property
    /// describes, and what holds for branch pairs that diverged once.
    /// Under asymmetric repeated merges (`merge a←b` followed later by
    /// `merge b←a`) a branch can hold an old local entry that is *fresh*
    /// relative to the new LCA yet older than LCA entries, and this
    /// algorithm then drops it and duplicates an LCA entry. The
    /// certification harness found that divergence; [`Mrdt::merge`] on
    /// [`Queue`] uses the general set-semantics merge instead, and the
    /// test suite checks the two agree on the paper's envelope.
    #[must_use]
    pub fn merge_appendix_b(lca: &Self, a: &Self, b: &Self) -> Self {
        let l = lca.to_list();
        let la = a.to_list();
        let lb = b.to_list();
        let ixn = intersection(&l, &la, &lb);
        let fresh = union(&diff_s(&la, &l), &diff_s(&lb, &l));
        let mut merged = ixn;
        merged.extend(fresh);
        Queue::from_list(merged)
    }
}

impl<T: fmt::Debug> fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Queue(front≤{:?}, rear≥{:?})", self.front, self.rear)
    }
}

/// The *live* enqueues of an abstract queue execution: enqueue events not
/// matched (by enqueue-timestamp tag) by any visible dequeue's return
/// value. Sorted ascending by timestamp — the FIFO order, since visibility
/// refines timestamp order (Ψ_ts).
pub fn live_enqueues<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
    abs: &AbstractOf<Queue<T>>,
) -> Vec<Entry<T>> {
    let mut live: Vec<Entry<T>> = abs
        .events()
        .filter_map(|e| match e.op() {
            QueueOp::Enqueue(v) => Some((e.time(), v.clone())),
            _ => None,
        })
        .filter(|(t, _)| {
            !abs.events()
                .any(|d| matches!(d.rval(), QueueValue::Dequeued(Some((dt, _))) if dt == t))
        })
        .collect();
    live.sort_by_key(|(t, _)| *t);
    live
}

/// Specification `F_queue` (§6.2): a dequeue returns the **oldest live**
/// enqueue (`None` when there is none); enqueue returns `⊥`. This is the
/// operational reading of the declarative queue axioms — adding the new
/// dequeue event with this return value keeps `AddRem`, `Empty`, `FIFO_1`
/// and `FIFO_2` satisfiable (see [`axioms`]).
#[derive(Debug)]
pub struct QueueSpec;

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Specification<Queue<T>> for QueueSpec {
    fn spec(op: &QueueOp<T>, state: &AbstractOf<Queue<T>>) -> QueueValue<T> {
        match op {
            QueueOp::Enqueue(_) => QueueValue::Ack,
            QueueOp::Dequeue => QueueValue::Dequeued(live_enqueues(state).first().cloned()),
        }
    }

    fn query(q: &QueueQuery, state: &AbstractOf<Queue<T>>) -> Option<Entry<T>> {
        match q {
            QueueQuery::Peek => live_enqueues(state).first().cloned(),
        }
    }
}

/// Simulation relation for the replicated queue (Appendix B.1): the
/// concrete queue, read in dequeue order, is exactly the live enqueues in
/// timestamp order. Membership is the relation's first conjunct; ordering
/// (visibility order, refined to timestamp order under Ψ_ts) the second.
#[derive(Debug)]
pub struct QueueSim;

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> SimulationRelation<Queue<T>>
    for QueueSim
{
    fn holds(abs: &AbstractOf<Queue<T>>, conc: &Queue<T>) -> bool {
        conc.to_list() == live_enqueues(abs)
    }

    fn explain_failure(abs: &AbstractOf<Queue<T>>, conc: &Queue<T>) -> Option<String> {
        let live = live_enqueues(abs);
        let got = conc.to_list();
        (got != live).then(|| format!("queue {got:?} but live enqueues {live:?}"))
    }
}

impl<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug> Certified for Queue<T> {
    type Spec = QueueSpec;
    type Sim = QueueSim;
}

/// Executable forms of the declarative queue axioms of §6.2.
///
/// These quantify over the events of an abstract execution and hold of
/// every execution our store semantics can produce; the verification
/// harness asserts them on final abstract states as an extra,
/// implementation-independent sanity layer.
pub mod axioms {
    use super::*;
    use peepul_core::EventId;

    /// `match_I(e1, e2)`: `e1` is an enqueue whose tagged entry the dequeue
    /// `e2` returned.
    pub fn matches<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
        e1: EventId,
        e2: EventId,
    ) -> bool {
        let (Some(enq), Some(deq)) = (abs.event(e1), abs.event(e2)) else {
            return false;
        };
        matches!(enq.op(), QueueOp::Enqueue(_))
            && matches!(deq.rval(), QueueValue::Dequeued(Some((t, _))) if *t == e1)
    }

    fn dequeues<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> Vec<EventId> {
        abs.events()
            .filter(|e| matches!(e.op(), QueueOp::Dequeue))
            .map(|e| e.id())
            .collect()
    }

    fn enqueues<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> Vec<EventId> {
        abs.events()
            .filter(|e| matches!(e.op(), QueueOp::Enqueue(_)))
            .map(|e| e.id())
            .collect()
    }

    /// `AddRem`: every dequeue that returns an entry has a matching
    /// enqueue that it observed.
    pub fn add_rem<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> bool {
        dequeues(abs).into_iter().all(|d| {
            match abs.event(d).expect("dequeue id came from abs").rval() {
                QueueValue::Dequeued(Some((t, _))) => enqueues(abs).contains(t) && abs.vis(*t, d),
                _ => true,
            }
        })
    }

    /// `Empty`: a dequeue that returned `EMPTY` has no *unmatched* enqueue
    /// visible to it — every enqueue it saw was already consumed by a
    /// dequeue it also saw.
    pub fn empty<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> bool {
        dequeues(abs).into_iter().all(|d1| {
            let returned_empty = matches!(
                abs.event(d1).expect("dequeue id came from abs").rval(),
                QueueValue::Dequeued(None)
            );
            if !returned_empty {
                return true;
            }
            enqueues(abs)
                .into_iter()
                .filter(|e| abs.vis(*e, d1))
                .all(|e| {
                    dequeues(abs)
                        .into_iter()
                        .any(|d3| matches(abs, e, d3) && abs.vis(d3, d1))
                })
        })
    }

    /// `FIFO_1`: if an enqueue `e1` precedes (is visible to) an enqueue
    /// `e2` whose entry has been dequeued somewhere, then `e1`'s entry has
    /// been dequeued somewhere too.
    pub fn fifo1<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> bool {
        let enqs = enqueues(abs);
        let deqs = dequeues(abs);
        enqs.iter().all(|&e1| {
            enqs.iter().all(|&e2| {
                if e1 == e2 || !abs.vis(e1, e2) {
                    return true;
                }
                let e2_matched = deqs.iter().any(|&d| matches(abs, e2, d));
                if !e2_matched {
                    return true;
                }
                deqs.iter().any(|&d| matches(abs, e1, d))
            })
        })
    }

    /// `FIFO_2`: no out-of-order consumption — it never happens that a
    /// later dequeue (`d4`, after `d3`) returns an *earlier* enqueue (`e1`,
    /// before `e2`) while `d3` returned `e2`.
    pub fn fifo2<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> bool {
        let enqs = enqueues(abs);
        let deqs = dequeues(abs);
        for &e1 in &enqs {
            for &e2 in &enqs {
                if !abs.vis(e1, e2) {
                    continue;
                }
                for &d3 in &deqs {
                    if !matches(abs, e2, d3) {
                        continue;
                    }
                    for &d4 in &deqs {
                        if abs.vis(d3, d4) && matches(abs, e1, d4) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// All four axioms at once.
    pub fn all<T: Clone + PartialEq + peepul_core::Wire + fmt::Debug>(
        abs: &AbstractOf<Queue<T>>,
    ) -> bool {
        add_rem(abs) && empty(abs) && fifo1(abs) && fifo2(abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    fn enq(q: &Queue<u32>, v: u32, t: Timestamp) -> Queue<u32> {
        q.apply(&QueueOp::Enqueue(v), t).0
    }

    fn deq(q: &Queue<u32>, t: Timestamp) -> (Queue<u32>, Option<Entry<u32>>) {
        match q.apply(&QueueOp::Dequeue, t) {
            (q, QueueValue::Dequeued(e)) => (q, e),
            _ => unreachable!("dequeue returns Dequeued"),
        }
    }

    #[test]
    fn fifo_order_locally() {
        let mut q: Queue<u32> = Queue::initial();
        for v in 1..=3 {
            q = enq(&q, v, ts(v as u64, 0));
        }
        let (q, e1) = deq(&q, ts(10, 0));
        let (q, e2) = deq(&q, ts(11, 0));
        let (q, e3) = deq(&q, ts(12, 0));
        let (_, e4) = deq(&q, ts(13, 0));
        assert_eq!(e1.map(|e| e.1), Some(1));
        assert_eq!(e2.map(|e| e.1), Some(2));
        assert_eq!(e3.map(|e| e.1), Some(3));
        assert_eq!(e4, None);
    }

    #[test]
    fn peek_does_not_consume() {
        let q = enq(&Queue::initial(), 7, ts(1, 0));
        assert_eq!(q.query(&QueueQuery::Peek), Some((ts(1, 0), 7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn figure_11_three_way_merge() {
        let mut lca: Queue<u32> = Queue::initial();
        for v in 1..=5 {
            lca = enq(&lca, v, ts(v as u64, 0));
        }
        // As in the paper's figure, enqueue timestamps equal the enqueued
        // values (dequeues take intermediate ticks; replica ids keep all
        // timestamps unique).
        let (a, d1) = deq(&lca, ts(5, 1));
        let (a, d2) = deq(&a, ts(6, 1));
        let a = enq(&a, 8, ts(8, 1));
        let a = enq(&a, 9, ts(9, 1));
        assert_eq!(d1.map(|e| e.1), Some(1));
        assert_eq!(d2.map(|e| e.1), Some(2));

        let (b, d3) = deq(&lca, ts(5, 2));
        let b = enq(&b, 6, ts(6, 2));
        let b = enq(&b, 7, ts(7, 2));
        assert_eq!(d3.map(|e| e.1), Some(1)); // 1 dequeued on BOTH branches

        let m = Queue::merge(&lca, &a, &b);
        let values: Vec<u32> = m.to_list().into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, [3, 4, 5, 6, 7, 8, 9]);

        // Merge must be commutative.
        let m2 = Queue::merge(&lca, &b, &a);
        assert!(m.observably_equal(&m2));
    }

    #[test]
    fn merge_with_unchanged_branch_keeps_changes() {
        let mut lca: Queue<u32> = Queue::initial();
        for v in 1..=3 {
            lca = enq(&lca, v, ts(v as u64, 0));
        }
        let (a, _) = deq(&lca, ts(5, 1));
        let a = enq(&a, 4, ts(6, 1));
        let m = Queue::merge(&lca, &a, &lca);
        assert!(m.observably_equal(&a));
    }

    #[test]
    fn concurrent_enqueues_order_by_timestamp() {
        let lca: Queue<u32> = Queue::initial();
        let a = enq(&lca, 10, ts(2, 1));
        let b = enq(&lca, 20, ts(1, 2));
        let m = Queue::merge(&lca, &a, &b);
        let values: Vec<u32> = m.to_list().into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, [20, 10]);
    }

    #[test]
    fn element_dequeued_on_either_branch_is_gone() {
        let mut lca: Queue<u32> = Queue::initial();
        for v in 1..=2 {
            lca = enq(&lca, v, ts(v as u64, 0));
        }
        let (a, _) = deq(&lca, ts(5, 1)); // a consumed 1
        let b = lca.clone(); // b untouched
        let m = Queue::merge(&lca, &a, &b);
        let values: Vec<u32> = m.to_list().into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, [2]);
    }

    #[test]
    fn at_least_once_concurrent_dequeues_consume_same_element() {
        let lca = enq(&Queue::initial(), 1, ts(1, 0));
        let (a, ea) = deq(&lca, ts(2, 1));
        let (b, eb) = deq(&lca, ts(3, 2));
        // Both branches dequeued the same entry: at-least-once delivery.
        assert_eq!(ea, eb);
        let m = Queue::merge(&lca, &a, &b);
        assert!(m.is_empty());
    }

    #[test]
    fn dequeue_on_empty_returns_none_and_keeps_state() {
        let q: Queue<u32> = Queue::initial();
        let (q2, e) = deq(&q, ts(1, 0));
        assert_eq!(e, None);
        assert!(q2.is_empty());
    }

    #[test]
    fn norm_moves_rear_to_front_once() {
        let mut q: Queue<u32> = Queue::initial();
        for v in 1..=4 {
            q = enq(&q, v, ts(v as u64, 0));
        }
        let (q, _) = deq(&q, ts(10, 0)); // triggers norm
        assert_eq!(q.front.len(), 3);
        assert!(q.rear.is_empty());
    }

    #[test]
    fn to_list_is_timestamp_ascending_after_any_mix() {
        let mut q: Queue<u32> = Queue::initial();
        let mut tick = 0;
        for round in 0..5 {
            for v in 0..4 {
                tick += 1;
                q = enq(&q, v + round * 10, ts(tick, 0));
            }
            tick += 1;
            q = deq(&q, ts(tick, 0)).0;
        }
        let times: Vec<Timestamp> = q.to_list().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn appendix_b_merge_agrees_on_single_divergence() {
        // On once-diverged branch pairs (the paper's Ψ_lca envelope) the
        // Appendix-B pipeline and the general set-semantics merge agree.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let mut tick = 0u64;
            let mut next = |r: u32| {
                tick += 1;
                ts(tick, r)
            };
            let mut lca: Queue<u32> = Queue::initial();
            for v in 0..rng.gen_range(0..15u32) {
                lca = enq(&lca, v, next(0));
            }
            let mut sides = Vec::new();
            for r in 1..=2u32 {
                let mut q = lca.clone();
                for i in 0..rng.gen_range(0..12u32) {
                    let t = next(r);
                    if rng.gen_bool(0.4) {
                        q = deq(&q, t).0;
                    } else {
                        q = enq(&q, 100 * r + i, t);
                    }
                }
                sides.push(q);
            }
            let general = Queue::merge(&lca, &sides[0], &sides[1]);
            let appendix = Queue::merge_appendix_b(&lca, &sides[0], &sides[1]);
            assert_eq!(general.to_list(), appendix.to_list());
        }
    }

    #[test]
    fn appendix_b_merge_diverges_outside_its_envelope() {
        // The counterexample the certification harness found: b0 enqueues
        // x@1; b1 enqueues y@2; b0 pulls b1; then b1 pulls b0. The LCA of
        // the second merge is b1's head [y], and x — fresh relative to
        // that LCA — is *older* than y, violating the Appendix-B
        // assumption. The general merge keeps both entries; the Appendix-B
        // pipeline drops x and duplicates y.
        let lca: Queue<u32> = Queue::initial();
        let b0 = enq(&lca, 10, ts(1, 0));
        let b1 = enq(&lca, 20, ts(2, 1));
        // b0 pulls b1, becoming [10, 20].
        let b0 = Queue::merge(&lca, &b0, &b1);
        // Second merge: merge b1 ← b0 with LCA = b1's head.
        let general = Queue::merge(&b1, &b1, &b0);
        assert_eq!(
            general
                .to_list()
                .into_iter()
                .map(|(_, v)| v)
                .collect::<Vec<_>>(),
            vec![10, 20]
        );
        let appendix = Queue::merge_appendix_b(&b1, &b1, &b0);
        assert_ne!(
            appendix.to_list(),
            general.to_list(),
            "Appendix B mis-merges outside its envelope (drops 10, duplicates 20)"
        );
    }

    #[test]
    fn spec_dequeue_returns_oldest_live() {
        let i = AbstractOf::<Queue<u32>>::new()
            .perform(QueueOp::Enqueue(1), QueueValue::Ack, ts(1, 0))
            .perform(QueueOp::Enqueue(2), QueueValue::Ack, ts(2, 0));
        assert_eq!(
            QueueSpec::spec(&QueueOp::Dequeue, &i),
            QueueValue::Dequeued(Some((ts(1, 0), 1)))
        );
        // After a dequeue consumed entry 1, entry 2 is the oldest live.
        let i = i.perform(
            QueueOp::Dequeue,
            QueueValue::Dequeued(Some((ts(1, 0), 1))),
            ts(3, 0),
        );
        assert_eq!(
            QueueSpec::spec(&QueueOp::Dequeue, &i),
            QueueValue::Dequeued(Some((ts(2, 0), 2)))
        );
    }

    #[test]
    fn simulation_relates_list_to_live_enqueues() {
        let i = AbstractOf::<Queue<u32>>::new()
            .perform(QueueOp::Enqueue(1), QueueValue::Ack, ts(1, 0))
            .perform(QueueOp::Enqueue(2), QueueValue::Ack, ts(2, 0))
            .perform(
                QueueOp::Dequeue,
                QueueValue::Dequeued(Some((ts(1, 0), 1))),
                ts(3, 0),
            );
        let mut good: Queue<u32> = Queue::initial();
        good = enq(&good, 1, ts(1, 0));
        good = enq(&good, 2, ts(2, 0));
        let (good, _) = deq(&good, ts(3, 0));
        assert!(QueueSim::holds(&i, &good));
        let stale = enq(&enq(&Queue::initial(), 1, ts(1, 0)), 2, ts(2, 0));
        assert!(!QueueSim::holds(&i, &stale));
        assert!(QueueSim::explain_failure(&i, &stale).is_some());
    }

    #[test]
    fn axioms_hold_on_well_formed_executions() {
        // lca: enq 1, enq 2; branch a dequeues 1; branch b dequeues 1 too
        // (at-least-once), then they merge and a dequeues 2.
        let i0 = AbstractOf::<Queue<u32>>::new()
            .perform(QueueOp::Enqueue(1), QueueValue::Ack, ts(1, 0))
            .perform(QueueOp::Enqueue(2), QueueValue::Ack, ts(2, 0));
        let ia = i0.perform(
            QueueOp::Dequeue,
            QueueValue::Dequeued(Some((ts(1, 0), 1))),
            ts(3, 1),
        );
        let ib = i0.perform(
            QueueOp::Dequeue,
            QueueValue::Dequeued(Some((ts(1, 0), 1))),
            ts(4, 2),
        );
        let im = ia.merged(&ib).perform(
            QueueOp::Dequeue,
            QueueValue::Dequeued(Some((ts(2, 0), 2))),
            ts(5, 1),
        );
        assert!(axioms::add_rem(&im));
        assert!(axioms::empty(&im));
        assert!(axioms::fifo1(&im));
        assert!(axioms::fifo2(&im));
        assert!(axioms::all(&im));
    }

    #[test]
    fn fifo2_rejects_out_of_order_consumption() {
        // Fabricate an ill-formed execution: d3 takes entry 2 while entry 1
        // (enqueued before, visible) is untaken, then d4 (after d3) takes 1.
        let i = AbstractOf::<Queue<u32>>::new()
            .perform(QueueOp::Enqueue(1), QueueValue::Ack, ts(1, 0))
            .perform(QueueOp::Enqueue(2), QueueValue::Ack, ts(2, 0))
            .perform(
                QueueOp::Dequeue,
                QueueValue::Dequeued(Some((ts(2, 0), 2))),
                ts(3, 0),
            )
            .perform(
                QueueOp::Dequeue,
                QueueValue::Dequeued(Some((ts(1, 0), 1))),
                ts(4, 0),
            );
        assert!(!axioms::fifo2(&i));
    }

    #[test]
    fn empty_axiom_rejects_wrong_empty_answer() {
        // A dequeue that returns EMPTY while an unconsumed enqueue is
        // visible violates Empty.
        let i = AbstractOf::<Queue<u32>>::new()
            .perform(QueueOp::Enqueue(1), QueueValue::Ack, ts(1, 0))
            .perform(QueueOp::Dequeue, QueueValue::Dequeued(None), ts(2, 0));
        assert!(!axioms::empty(&i));
    }
}

impl<T: peepul_core::Wire> peepul_core::Wire for Queue<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.front.encode(out);
        self.rear.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let front: Vec<Entry<T>> = peepul_core::Wire::decode(input)?;
        let rear: Vec<Entry<T>> = peepul_core::Wire::decode(input)?;
        // Enforce the representation invariants a well-formed queue always
        // has: timestamps strictly descend along `front` (next-out at the
        // end) and strictly ascend along `rear`.
        let front_ok = front.windows(2).all(|w| w[0].0 > w[1].0);
        let rear_ok = rear.windows(2).all(|w| w[0].0 < w[1].0);
        (front_ok && rear_ok).then_some(Queue { front, rear })
    }

    fn max_tick(&self) -> u64 {
        self.front.max_tick().max(self.rear.max_tick())
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::{ReplicaId, Wire};

    #[test]
    fn queue_wire_roundtrip_and_invariant_check() {
        let ts = |t| Timestamp::new(t, ReplicaId::new(0));
        let mut q: Queue<u32> = Queue::initial();
        for v in 1..=5u32 {
            q = q.apply(&QueueOp::Enqueue(v), ts(v as u64)).0;
        }
        q = q.apply(&QueueOp::Dequeue, ts(6)).0;
        assert_eq!(Queue::from_wire(&q.to_wire()), Some(q.clone()));
        assert_eq!(q.max_tick(), 5);
        let bad = Queue {
            front: vec![(ts(1), 1u32), (ts(2), 2)],
            rear: Vec::new(),
        };
        assert_eq!(Queue::<u32>::from_wire(&bad.to_wire()), None);
    }
}
