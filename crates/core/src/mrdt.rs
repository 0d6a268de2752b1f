//! The MRDT implementation interface (paper, Definition 2.1), with the
//! query/update split of replication-aware linearizability.

use crate::wire::Delta;
use crate::{Timestamp, Wire};
use std::fmt;

/// A mergeable replicated data type implementation `D_τ = (Σ, σ0, do, merge)`.
///
/// The type implementing this trait *is* the state space `Σ`; the trait
/// methods supply the remaining three components:
///
/// * [`Mrdt::initial`] — the initial state `σ0`,
/// * [`Mrdt::apply`] — `do : Op × Σ × Timestamp → Σ × Val`,
/// * [`Mrdt::merge`] — the three-way merge `merge : Σ × Σ × Σ → Σ`, invoked
///   by the store as `merge(σ_lca, σ_a, σ_b)` where `σ_lca` is the state of
///   the lowest common ancestor of the two branches.
///
/// # Queries versus updates
///
/// The paper's operation alphabet `Op_τ` mixes state-transforming
/// operations with pure observations. This interface splits them, in the
/// style of RDT specifications via query/update separation:
///
/// * [`Mrdt::Op`] contains only **updates** — operations that may change
///   the state and are recorded as events of the abstract execution;
/// * [`Mrdt::Query`] contains the **observations**, answered by the pure
///   [`Mrdt::query`] from a state alone, with no timestamp, no successor
///   state, and no event.
///
/// The split is what lets the branch store serve reads commit-free from a
/// shared reference while updates batch into transactions.
///
/// Implementations are **purely functional**: `apply` and `merge` return new
/// states rather than mutating in place, mirroring the OCaml data structures
/// the paper extracts from F*. The store guarantees that the timestamps
/// passed to `apply` are unique and happens-before consistent (Ψ_ts); an
/// implementation is free to ignore them.
///
/// # Observational equivalence
///
/// [`Mrdt::observably_equal`] realises Definition 3.4: two states are
/// observationally equivalent when every **query** returns the same value on
/// both. The default is structural equality, which is sound for every data
/// type (structurally equal states behave identically); data types whose
/// internal representation may diverge without affecting behaviour — the
/// height-balanced BST OR-set is the paper's example — override it. This is
/// what lets executions satisfy *convergence modulo observable behaviour*
/// (Definition 3.5) instead of strict state convergence.
///
/// # One canonical codec
///
/// The [`Wire`] bound is the data type's **canonical codec** — the single
/// serialization the whole workspace runs on. A state's `Wire` encoding
/// is simultaneously
///
/// * its **storage format**: the branch store publishes exactly these
///   bytes to a pluggable backend (`peepul-store`'s `Backend`), and a
///   reopened store decodes them back into typed state
///   (`BranchStore::open`),
/// * its **content address** preimage: `sha256(encode(σ))` is the
///   state's `ObjectId`, and
/// * its **wire format**: replication transfers the same bytes and
///   verifies them with the same hash — one decode and one hash per
///   received object, nothing is re-encoded across formats.
///
/// Implementations must therefore encode *canonically*: equal (or
/// observably equal, see below) states produce identical bytes — iterate
/// ordered containers (`BTreeMap`, `Vec`), never a `HashMap`/`HashSet` —
/// and `decode(encode(σ))` yields a state observably equal to `σ` that
/// re-encodes to the identical bytes. The certification harness checks
/// this round-trip as a standing obligation (`Φ_codec`) at every state
/// it explores.
///
/// # Example
///
/// See the [crate-level documentation](crate) for a complete counter
/// implementation.
pub trait Mrdt: Clone + PartialEq + Wire + fmt::Debug {
    /// The **update** operations `Op_τ` of the data type. Every element may
    /// transform the state and is recorded as an event of the abstract
    /// execution. Pure observations do not belong here — they go in
    /// [`Mrdt::Query`].
    type Op: Clone + fmt::Debug;

    /// The return values `Val_τ` of updates. Updates that return nothing
    /// use `()` (the paper's `⊥`); updates with a payload (e.g. the queue's
    /// `dequeue`) embed it in an enum.
    type Value: Clone + PartialEq + fmt::Debug;

    /// The pure observations of the data type (lookups, reads, peeks).
    type Query: Clone + fmt::Debug;

    /// The answers queries produce.
    type Output: Clone + PartialEq + fmt::Debug;

    /// The initial state `σ0` of a freshly created object.
    fn initial() -> Self;

    /// Applies one update operation at this state.
    ///
    /// `t` is the unique store-supplied timestamp of the operation. Returns
    /// the successor state and the operation's return value.
    #[must_use]
    fn apply(&self, op: &Self::Op, t: Timestamp) -> (Self, Self::Value);

    /// Answers a pure observation of this state.
    ///
    /// Queries take no timestamp, create no event and produce no successor
    /// state — they are what the branch store serves commit-free through
    /// `BranchStore::read` and `BranchRef::read`.
    #[must_use]
    fn query(&self, q: &Self::Query) -> Self::Output;

    /// Three-way merge of two divergent states `a` and `b` whose lowest
    /// common ancestor state is `lca`.
    ///
    /// The store only ever calls this with an `lca` that is a common causal
    /// ancestor of `a` and `b` (property Ψ_lca); implementations may rely on
    /// that — e.g. the queue merge assumes every element of `lca` that
    /// survives in `a` appears in the same relative order.
    #[must_use]
    fn merge(lca: &Self, a: &Self, b: &Self) -> Self;

    /// Observational equivalence `σ1 ∼ σ2` (Definition 3.4).
    ///
    /// The default — structural equality — is always sound. Override only
    /// when distinct representations can have identical observable
    /// behaviour.
    fn observably_equal(&self, other: &Self) -> bool {
        self == other
    }

    /// The **delta form** of the canonical codec: an edit script from
    /// `parent`'s canonical encoding to this state's canonical encoding.
    ///
    /// Deltas are a storage and transfer encoding only — a state's content
    /// address stays the sha256 of its *full* canonical bytes, and every
    /// consumer re-hashes the resolved bytes against the advertised
    /// address before trusting them. The resolution law every
    /// implementation must satisfy, for **every** pair of states:
    ///
    /// ```text
    /// apply_delta(p, σ.diff(p)) = Some(σ')   with encode(σ') = encode(σ)
    /// ```
    ///
    /// The default is the byte-level prefix/suffix trim
    /// ([`Delta::splice`]), which satisfies the law for any canonical
    /// codec. It encodes and compares both states, and the script it
    /// emits is small only when the edit sits at one end of the encoding
    /// (counters, logs): in an encoding made of two length-prefixed
    /// vectors, such as the queue's, an edit that moves one vector's
    /// length prefix and its far end re-inserts that whole vector. Relational
    /// set/map/log-shaped types override it with a structural item differ
    /// ([`crate::wire::diff_item_lists`]) so mid-stream edits also cost
    /// O(changed items) delta bytes.
    ///
    /// The branch store calls `diff` for merge, transaction and root
    /// commits, whose change no single operation describes; an update
    /// commit uses [`Mrdt::op_delta`] instead. The certification harness
    /// checks the resolution law as part of `Φ_codec` at every state it
    /// explores.
    #[must_use]
    fn diff(&self, parent: &Self) -> Delta {
        Delta::splice(&parent.to_wire(), &self.to_wire())
    }

    /// The **delta an operation made**: an edit script from this state's
    /// canonical encoding to `next`'s, where `next` is what
    /// `self.apply(op, t)` returned — the delta-mutator idea of
    /// delta-state CRDTs. The operation already knows what it changed, so
    /// an override can emit the script without comparing two whole
    /// states. It obeys the resolution law of [`Mrdt::diff`]:
    ///
    /// ```text
    /// apply_delta(σ, σ.op_delta(op, σ')) = Some(σ'')   with encode(σ'') = encode(σ')
    /// ```
    ///
    /// The default is `next.diff(self)`. The branch store calls this for
    /// every update commit; the certification harness checks the law
    /// (`Φ_codec`) at every `DO` it explores.
    #[must_use]
    fn op_delta(&self, _op: &Self::Op, next: &Self) -> Delta {
        next.diff(self)
    }

    /// Resolves a delta produced by [`Mrdt::diff`] or [`Mrdt::op_delta`]
    /// against `parent`, reconstructing the target state. `None` when the
    /// delta does not apply to this parent (mismatched base or malformed
    /// script) or the resolved bytes fail to decode.
    ///
    /// Implementations should leave the default in place: resolution
    /// always goes through the canonical byte encoding, so the store and
    /// the wire can resolve chains without knowing the type's structure.
    /// It stays a trait method rather than a free function because
    /// callers outside this workspace name it as `M::apply_delta`.
    #[must_use]
    fn apply_delta(parent: &Self, delta: &Delta) -> Option<Self> {
        Self::from_wire(&delta.apply(&parent.to_wire())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicaId;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Reg(u64, Timestamp);

    impl Wire for Reg {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
            self.1.encode(out);
        }

        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Reg(Wire::decode(input)?, Wire::decode(input)?))
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum RegOp {
        Write(u64),
    }

    #[derive(Clone, Copy, Debug)]
    enum RegQuery {
        Read,
    }

    impl Mrdt for Reg {
        type Op = RegOp;
        type Value = ();
        type Query = RegQuery;
        type Output = u64;

        fn initial() -> Self {
            Reg(0, Timestamp::MIN)
        }

        fn apply(&self, op: &RegOp, t: Timestamp) -> (Self, ()) {
            match *op {
                RegOp::Write(v) => (Reg(v, t), ()),
            }
        }

        fn query(&self, q: &RegQuery) -> u64 {
            match q {
                RegQuery::Read => self.0,
            }
        }

        fn merge(_lca: &Self, a: &Self, b: &Self) -> Self {
            if a.1 >= b.1 {
                *a
            } else {
                *b
            }
        }
    }

    fn ts(tick: u64) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(0))
    }

    #[test]
    fn apply_returns_successor_and_query_observes_it() {
        let r = Reg::initial();
        let (r2, ()) = r.apply(&RegOp::Write(9), ts(1));
        assert_eq!(r2.query(&RegQuery::Read), 9);
        // Queries are pure: the observed state is unchanged.
        assert_eq!(r2.query(&RegQuery::Read), 9);
    }

    #[test]
    fn merge_picks_later_write() {
        let l = Reg::initial();
        let (a, _) = l.apply(&RegOp::Write(1), ts(1));
        let (b, _) = l.apply(&RegOp::Write(2), ts(2));
        let m = Reg::merge(&l, &a, &b);
        assert_eq!(m.query(&RegQuery::Read), 2);
    }

    #[test]
    fn default_observational_equivalence_is_structural() {
        let a = Reg(1, ts(1));
        let b = Reg(1, ts(1));
        let c = Reg(2, ts(2));
        assert!(a.observably_equal(&b));
        assert!(!a.observably_equal(&c));
    }
}
