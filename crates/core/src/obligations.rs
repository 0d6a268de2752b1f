//! Executable proof obligations `Φ_do`, `Φ_merge`, `Φ_spec`, `Φ_con`
//! (paper, Table 2).
//!
//! The F* Peepul discharges these obligations once-and-for-all to an SMT
//! solver. Here they are *checked* — at every transition of every execution
//! the harness explores. A [`Certified`] data type bundles an
//! implementation with its specification and simulation relation so the
//! checks can be stated generically.

use crate::sim::SimulationRelation;
use crate::spec::Specification;
use crate::store_props::{psi_lca, psi_ts};
use crate::{AbstractOf, Delta, Mrdt, Timestamp};
use std::error::Error;
use std::fmt;

/// An MRDT implementation packaged with its declarative specification and
/// replication-aware simulation relation — everything Theorem 4.2 needs.
///
/// This mirrors the F* library's `MRDT` type class (§7.1): each data type in
/// `peepul-types` is an instance, and the `peepul-verify` harness certifies
/// any instance without knowing which data type it is.
pub trait Certified: Mrdt {
    /// The specification function `F_τ` for this data type.
    type Spec: Specification<Self>;
    /// The simulation relation `R_sim` for this data type.
    type Sim: SimulationRelation<Self>;
}

/// Which obligation (or assumed store property) a check exercised.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Obligation {
    /// `Φ_do`: the simulation relation is preserved by `do`/`do#` (Fig. 4).
    PhiDo,
    /// `Φ_merge`: the simulation relation is preserved by `merge`/`merge#`
    /// (Fig. 5).
    PhiMerge,
    /// `Φ_spec`: implementation return values match `F_τ`.
    PhiSpec,
    /// `Φ_con`: equal abstract states imply observationally equivalent
    /// concrete states (convergence modulo observable behaviour).
    PhiCon,
    /// `Ψ_ts`: store-guaranteed timestamp discipline (Table 1).
    PsiTs,
    /// `Ψ_lca`: store-guaranteed LCA discipline (Table 1).
    PsiLca,
    /// `Φ_codec`: the canonical codec round-trips — `decode(encode(σ))`
    /// is observably equal to `σ` and re-encodes to the identical bytes.
    /// Not one of the paper's Table 2 obligations; it certifies the
    /// workspace's single-codec invariant (storage = wire = address
    /// preimage), without which a store could not reopen to typed state
    /// nor replicate faithfully.
    Codec,
    /// `Φ_ra`: replication-aware linearizability (Enea et al. 2019; the
    /// authors' follow-up on automatically verifying it, 2025). A whole
    /// *fleet* execution — local operations, pack ingests and merges on
    /// `n` independent replicas — must admit a linearization respecting
    /// every replica's local order and the Lamport happens-before edges
    /// that replays through `F_τ` to reproduce every return value and
    /// every query output observed at every replica. This extends the
    /// Table 2 obligations from single-store merges to the replication
    /// layer itself.
    RaLin,
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Obligation::PhiDo => "Φ_do",
            Obligation::PhiMerge => "Φ_merge",
            Obligation::PhiSpec => "Φ_spec",
            Obligation::PhiCon => "Φ_con",
            Obligation::PsiTs => "Ψ_ts",
            Obligation::PsiLca => "Ψ_lca",
            Obligation::Codec => "Φ_codec",
            Obligation::RaLin => "Φ_ra",
        };
        f.write_str(name)
    }
}

/// A failed obligation check, with a counterexample description.
#[derive(Clone, PartialEq, Eq)]
pub struct ObligationError {
    obligation: Obligation,
    message: String,
}

impl ObligationError {
    /// Creates an error for `obligation` with a counterexample description.
    pub fn new(obligation: Obligation, message: impl Into<String>) -> Self {
        ObligationError {
            obligation,
            message: message.into(),
        }
    }

    /// The violated obligation.
    pub fn obligation(&self) -> Obligation {
        self.obligation
    }

    /// The counterexample description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Debug for ObligationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ObligationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.obligation, self.message)
    }
}

impl Error for ObligationError {}

/// Tally of obligation checks performed, kept by the verification harness.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct ObligationReport {
    /// Number of `Φ_do` instances checked.
    pub phi_do: u64,
    /// Number of `Φ_merge` instances checked.
    pub phi_merge: u64,
    /// Number of `Φ_spec` instances checked.
    pub phi_spec: u64,
    /// Number of `Φ_con` instances checked.
    pub phi_con: u64,
    /// Number of `Ψ_ts` assertions checked.
    pub psi_ts: u64,
    /// Number of `Ψ_lca` assertions checked.
    pub psi_lca: u64,
    /// Number of `Φ_codec` round-trips checked.
    pub codec: u64,
    /// Number of `Φ_ra` (replication-aware linearizability) witness
    /// obligations checked: one per witness event, per trace record and
    /// per replayed observation of a fleet execution.
    pub ra_lin: u64,
}

impl ObligationReport {
    /// Total number of obligation instances checked.
    pub fn total(&self) -> u64 {
        self.phi_do
            + self.phi_merge
            + self.phi_spec
            + self.phi_con
            + self.psi_ts
            + self.psi_lca
            + self.codec
            + self.ra_lin
    }

    /// Accumulates another report into this one.
    pub fn absorb(&mut self, other: &ObligationReport) {
        self.phi_do += other.phi_do;
        self.phi_merge += other.phi_merge;
        self.phi_spec += other.phi_spec;
        self.phi_con += other.phi_con;
        self.psi_ts += other.psi_ts;
        self.psi_lca += other.psi_lca;
        self.codec += other.codec;
        self.ra_lin += other.ra_lin;
    }
}

/// Checks `Φ_do` and `Φ_spec` for one operation instance, returning the
/// successor pair of states.
///
/// Given `R_sim(I, σ)` (established inductively by the caller), performs
/// `do#(I, e, op, a, t) = I'` and `D_τ.do(op, σ, t) = (σ', a)` and verifies:
///
/// * `Φ_spec`: `a = F_τ(op, I)` — the implementation's return value matches
///   the specification on the *pre*-state, and
/// * `Φ_do`: `R_sim(I', σ')`.
///
/// `Ψ_ts(I)` is asserted as the obligations' hypothesis.
///
/// # Errors
///
/// Returns the first violated obligation with a counterexample description.
pub fn check_do<M: Certified>(
    abs: &AbstractOf<M>,
    conc: &M,
    op: &M::Op,
    t: Timestamp,
    report: &mut ObligationReport,
) -> Result<(AbstractOf<M>, M), ObligationError> {
    psi_ts(abs).map_err(|e| ObligationError::new(Obligation::PsiTs, e.to_string()))?;
    report.psi_ts += 1;

    let (conc_next, rval) = conc.apply(op, t);

    let specified = M::Spec::spec(op, abs);
    report.phi_spec += 1;
    if rval != specified {
        return Err(ObligationError::new(
            Obligation::PhiSpec,
            format!(
                "op {op:?} at {t:?} returned {rval:?} but F_τ specifies {specified:?} \
                 (abstract state: {} events)",
                abs.len()
            ),
        ));
    }

    let abs_next = abs.perform(op.clone(), rval, t);
    report.phi_do += 1;
    if !M::Sim::holds(&abs_next, &conc_next) {
        let why = M::Sim::explain_failure(&abs_next, &conc_next)
            .unwrap_or_else(|| "no explanation".to_owned());
        return Err(ObligationError::new(
            Obligation::PhiDo,
            format!("after op {op:?} at {t:?}: {why}; concrete = {conc_next:?}"),
        ));
    }
    Ok((abs_next, conc_next))
}

/// Checks `Φ_spec` for a batch of query probes against one state pair.
///
/// Queries are pure observations, so the specification must agree with the
/// implementation at **every** reachable state, not only at states where a
/// schedule happens to perform a read. The harness calls this after each
/// `DO` and `MERGE` with a per-data-type probe set: for each probe `q` it
/// verifies `σ.query(q) = F_τ(q, I)`.
///
/// # Errors
///
/// Returns the first probe whose implementation answer differs from the
/// specified one.
pub fn check_queries<M: Certified>(
    abs: &AbstractOf<M>,
    conc: &M,
    probes: &[M::Query],
    report: &mut ObligationReport,
) -> Result<(), ObligationError> {
    for q in probes {
        report.phi_spec += 1;
        let got = conc.query(q);
        let specified = M::Spec::query(q, abs);
        if got != specified {
            return Err(ObligationError::new(
                Obligation::PhiSpec,
                format!(
                    "query {q:?} answered {got:?} but F_τ specifies {specified:?} \
                     (abstract state: {} events; concrete = {conc:?})",
                    abs.len()
                ),
            ));
        }
    }
    Ok(())
}

/// Checks one instance of `Φ_codec`: the canonical codec round-trips on
/// this state.
///
/// Verifies that `decode(encode(σ))` succeeds, that the decoded state is
/// **observably equal** to `σ` (Definition 3.4 — exact for every data
/// type whose representation is canonical; the tree-backed OR-set may
/// decode to a differently shaped, observably identical tree), and that
/// re-encoding the decoded state reproduces the identical bytes (the
/// canonical-form half: one value, one byte string, one content
/// address). The harness runs this at every explored state, so a codec
/// that drifts from its data type corrupts no store before certification
/// catches it.
///
/// # Errors
///
/// A `Φ_codec` violation naming the failing stage.
pub fn check_codec<M: Mrdt>(
    conc: &M,
    report: &mut ObligationReport,
) -> Result<(), ObligationError> {
    report.codec += 1;
    let bytes = conc.to_wire();
    let Some(decoded) = M::from_wire(&bytes) else {
        return Err(ObligationError::new(
            Obligation::Codec,
            format!(
                "state {conc:?} encoded to {} bytes that do not decode back",
                bytes.len()
            ),
        ));
    };
    if !decoded.observably_equal(conc) {
        return Err(ObligationError::new(
            Obligation::Codec,
            format!("decode(encode(σ)) = {decoded:?} is observably distinct from σ = {conc:?}"),
        ));
    }
    let reencoded = decoded.to_wire();
    if reencoded != bytes {
        return Err(ObligationError::new(
            Obligation::Codec,
            format!(
                "non-canonical encoding of {conc:?}: re-encode differs \
                 ({} vs {} bytes) — one value must map to one byte string",
                reencoded.len(),
                bytes.len()
            ),
        ));
    }
    // The delta form of the codec, checked against σ0 (the longest edit a
    // chain can start from) and against σ itself (the identity edit); the
    // two compose into every chain shape the store resolves, because each
    // link is verified by this same law.
    for (base, base_name) in [(&M::initial(), "σ0"), (conc, "σ")] {
        let what = || format!("diff({base_name}, σ)");
        check_resolves(base, &conc.diff(base), conc, &bytes, what)?;
    }
    Ok(())
}

/// Checks the `Φ_codec` delta-resolution law for the delta an update
/// made: `apply_delta(σ, σ.op_delta(op, σ'))` must reconstruct `σ'`,
/// where `σ'` is what `σ.apply(op, t)` returned. This is the script the
/// branch store persists for an update commit and replication ships for
/// it, so the harness checks it at every `DO`.
///
/// # Errors
///
/// A `Φ_codec` violation when the script does not resolve, or resolves
/// to a state that is observably distinct from `σ'` or encodes to other
/// bytes.
pub fn check_op_delta<M: Mrdt>(
    conc: &M,
    op: &M::Op,
    conc_next: &M,
    report: &mut ObligationReport,
) -> Result<(), ObligationError> {
    report.codec += 1;
    let delta = conc.op_delta(op, conc_next);
    let what = || format!("op_delta(σ, {op:?})");
    check_resolves(conc, &delta, conc_next, &conc_next.to_wire(), what)
}

/// The delta-resolution law for one script: `apply_delta(base, delta)`
/// must reconstruct `target` exactly — observably equal AND re-encoding
/// to `target_bytes`, since storage chains and delta fetches re-hash the
/// resolved bytes against the target's content address. `what` names the
/// script in a counterexample (only rendered on failure).
fn check_resolves<M: Mrdt>(
    base: &M,
    delta: &Delta,
    target: &M,
    target_bytes: &[u8],
    what: impl Fn() -> String,
) -> Result<(), ObligationError> {
    let Some(resolved) = M::apply_delta(base, delta) else {
        return Err(ObligationError::new(
            Obligation::Codec,
            format!(
                "{} of σ' = {target:?} against {base:?} does not resolve: \
                 apply_delta returned None",
                what()
            ),
        ));
    };
    if !resolved.observably_equal(target) {
        return Err(ObligationError::new(
            Obligation::Codec,
            format!(
                "drifted delta: apply_delta resolves {} to {resolved:?}, \
                 observably distinct from σ' = {target:?}",
                what()
            ),
        ));
    }
    let resolved_bytes = resolved.to_wire();
    if resolved_bytes != target_bytes {
        return Err(ObligationError::new(
            Obligation::Codec,
            format!(
                "resolution of {} for {target:?} is not canonical: resolved \
                 bytes differ from encode(σ') ({} vs {} bytes) — chain \
                 resolution would fail the content-address re-hash",
                what(),
                resolved_bytes.len(),
                target_bytes.len()
            ),
        ));
    }
    Ok(())
}

/// Checks `Φ_merge` for one merge instance, returning the merged pair of
/// states.
///
/// Given `R_sim(I_a, σ_a)`, `R_sim(I_b, σ_b)` and
/// `R_sim(lca#(I_a, I_b), σ_lca)` (all established inductively), computes
/// `merge#(I_a, I_b)` and `D_τ.merge(σ_lca, σ_a, σ_b)` and verifies the
/// simulation relation on the results. The hypotheses
/// `Ψ_ts(merge#(I_a, I_b))` and `Ψ_lca(lca#(I_a, I_b), I_a, I_b)` are
/// asserted first, and the precondition `R_sim` on the LCA pair is also
/// re-checked so a harness mistake cannot masquerade as a data type bug.
///
/// # Errors
///
/// Returns the first violated obligation with a counterexample description.
pub fn check_merge<M: Certified>(
    abs_a: &AbstractOf<M>,
    conc_a: &M,
    abs_b: &AbstractOf<M>,
    conc_b: &M,
    conc_lca: &M,
    report: &mut ObligationReport,
) -> Result<(AbstractOf<M>, M), ObligationError> {
    let abs_lca = abs_a.lca(abs_b);
    let abs_merged = abs_a.merged(abs_b);

    psi_ts(&abs_merged).map_err(|e| ObligationError::new(Obligation::PsiTs, e.to_string()))?;
    report.psi_ts += 1;
    psi_lca(&abs_lca, abs_a, abs_b)
        .map_err(|e| ObligationError::new(Obligation::PsiLca, e.to_string()))?;
    report.psi_lca += 1;

    if !M::Sim::holds(&abs_lca, conc_lca) {
        return Err(ObligationError::new(
            Obligation::PhiMerge,
            format!(
                "precondition R_sim(lca#, σ_lca) fails before merge: {}",
                M::Sim::explain_failure(&abs_lca, conc_lca)
                    .unwrap_or_else(|| "no explanation".to_owned())
            ),
        ));
    }

    let conc_merged = M::merge(conc_lca, conc_a, conc_b);
    report.phi_merge += 1;
    if !M::Sim::holds(&abs_merged, &conc_merged) {
        let why = M::Sim::explain_failure(&abs_merged, &conc_merged)
            .unwrap_or_else(|| "no explanation".to_owned());
        return Err(ObligationError::new(
            Obligation::PhiMerge,
            format!("after merge: {why}; merged concrete = {conc_merged:?}"),
        ));
    }
    Ok((abs_merged, conc_merged))
}

/// Checks one instance of `Φ_con`: if two branches have the same abstract
/// state, their concrete states must be observationally equivalent
/// (Definition 3.5, convergence modulo observable behaviour).
///
/// When the abstract states differ the check is vacuously true.
///
/// # Errors
///
/// Returns a `Φ_con` violation if the abstract states are equal but the
/// concrete states are observationally distinguishable.
pub fn check_con<M: Certified>(
    abs_a: &AbstractOf<M>,
    conc_a: &M,
    abs_b: &AbstractOf<M>,
    conc_b: &M,
    report: &mut ObligationReport,
) -> Result<(), ObligationError>
where
    M::Op: PartialEq,
{
    if abs_a != abs_b {
        return Ok(());
    }
    report.phi_con += 1;
    if !conc_a.observably_equal(conc_b) {
        return Err(ObligationError::new(
            Obligation::PhiCon,
            format!(
                "equal abstract states ({} events) but observationally distinct \
                 concrete states: {conc_a:?} vs {conc_b:?}",
                abs_a.len()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReplicaId, Timestamp, Wire};

    /// Increment-only counter with its spec and simulation relation, used to
    /// exercise the obligation checkers; `peepul-types` has the real one.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Ctr(u64);

    impl Wire for Ctr {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }

        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Ctr(Wire::decode(input)?))
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum CtrOp {
        Inc,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum CtrQuery {
        Read,
    }

    impl Mrdt for Ctr {
        type Op = CtrOp;
        type Value = ();
        type Query = CtrQuery;
        type Output = u64;
        fn initial() -> Self {
            Ctr(0)
        }
        fn apply(&self, op: &CtrOp, _t: Timestamp) -> (Self, ()) {
            match op {
                CtrOp::Inc => (Ctr(self.0 + 1), ()),
            }
        }
        fn query(&self, q: &CtrQuery) -> u64 {
            match q {
                CtrQuery::Read => self.0,
            }
        }
        fn merge(l: &Self, a: &Self, b: &Self) -> Self {
            Ctr(a.0 + b.0 - l.0)
        }
    }

    struct CtrSpec;
    impl Specification<Ctr> for CtrSpec {
        fn spec(_op: &CtrOp, _state: &AbstractOf<Ctr>) {}
        fn query(q: &CtrQuery, state: &AbstractOf<Ctr>) -> u64 {
            match q {
                CtrQuery::Read => state
                    .events()
                    .filter(|e| matches!(e.op(), CtrOp::Inc))
                    .count() as u64,
            }
        }
    }

    struct CtrSim;
    impl SimulationRelation<Ctr> for CtrSim {
        fn holds(abs: &AbstractOf<Ctr>, conc: &Ctr) -> bool {
            let incs = abs
                .events()
                .filter(|e| matches!(e.op(), CtrOp::Inc))
                .count() as u64;
            conc.0 == incs
        }
    }

    impl Certified for Ctr {
        type Spec = CtrSpec;
        type Sim = CtrSim;
    }

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    #[test]
    fn check_do_accepts_correct_counter() {
        let mut rep = ObligationReport::default();
        let (i, c) = (AbstractOf::<Ctr>::new(), Ctr::initial());
        let (i, c) = check_do(&i, &c, &CtrOp::Inc, ts(1, 0), &mut rep).unwrap();
        let (i, c) = check_do(&i, &c, &CtrOp::Inc, ts(2, 0), &mut rep).unwrap();
        assert_eq!(c.0, 2);
        check_queries(&i, &c, &[CtrQuery::Read], &mut rep).unwrap();
        assert_eq!(rep.phi_do, 2);
        assert_eq!(rep.phi_spec, 3);
    }

    #[test]
    fn check_queries_catches_wrong_answer() {
        // A read against an abstract state that already has an Inc the
        // concrete state does not reflect → Φ_spec fires.
        let mut rep = ObligationReport::default();
        let i = AbstractOf::<Ctr>::new().perform(CtrOp::Inc, (), ts(1, 0));
        let stale = Ctr(0);
        let err = check_queries(&i, &stale, &[CtrQuery::Read], &mut rep).unwrap_err();
        assert_eq!(err.obligation(), Obligation::PhiSpec);
        assert!(err.to_string().contains("Read"));
    }

    #[test]
    fn check_queries_with_no_probes_is_vacuous() {
        let mut rep = ObligationReport::default();
        check_queries(&AbstractOf::<Ctr>::new(), &Ctr(7), &[], &mut rep).unwrap();
        assert_eq!(rep.phi_spec, 0);
    }

    #[test]
    fn check_merge_accepts_correct_counter() {
        let mut rep = ObligationReport::default();
        let (i0, c0) = (AbstractOf::<Ctr>::new(), Ctr::initial());
        let (il, cl) = check_do(&i0, &c0, &CtrOp::Inc, ts(1, 0), &mut rep).unwrap();
        let (ia, ca) = check_do(&il, &cl, &CtrOp::Inc, ts(2, 1), &mut rep).unwrap();
        let (ib, cb) = check_do(&il, &cl, &CtrOp::Inc, ts(3, 2), &mut rep).unwrap();
        let (im, cm) = check_merge(&ia, &ca, &ib, &cb, &cl, &mut rep).unwrap();
        assert_eq!(cm.0, 3);
        assert_eq!(im.len(), 3);
        assert_eq!(rep.phi_merge, 1);
    }

    #[test]
    fn check_merge_catches_broken_merge() {
        /// Counter whose merge loses one branch's updates.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct BadCtr(u64);
        impl Wire for BadCtr {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(BadCtr(Wire::decode(input)?))
            }
        }
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        struct Inc;
        impl Mrdt for BadCtr {
            type Op = Inc;
            type Value = u64;
            type Query = ();
            type Output = ();
            fn initial() -> Self {
                BadCtr(0)
            }
            fn apply(&self, _op: &Inc, _t: Timestamp) -> (Self, u64) {
                (BadCtr(self.0 + 1), 0)
            }
            fn query(&self, _q: &()) {}
            fn merge(_l: &Self, a: &Self, _b: &Self) -> Self {
                *a // drops b's increments
            }
        }
        struct BadSpec;
        impl Specification<BadCtr> for BadSpec {
            fn spec(_op: &Inc, _state: &AbstractOf<BadCtr>) -> u64 {
                0
            }
            fn query(_q: &(), _state: &AbstractOf<BadCtr>) {}
        }
        struct BadSim;
        impl SimulationRelation<BadCtr> for BadSim {
            fn holds(abs: &AbstractOf<BadCtr>, conc: &BadCtr) -> bool {
                conc.0 == abs.len() as u64
            }
        }
        impl Certified for BadCtr {
            type Spec = BadSpec;
            type Sim = BadSim;
        }

        let mut rep = ObligationReport::default();
        let (i0, c0) = (AbstractOf::<BadCtr>::new(), BadCtr::initial());
        let (ia, ca) = check_do(&i0, &c0, &Inc, ts(1, 1), &mut rep).unwrap();
        let (ib, cb) = check_do(&i0, &c0, &Inc, ts(2, 2), &mut rep).unwrap();
        let err = check_merge(&ia, &ca, &ib, &cb, &c0, &mut rep).unwrap_err();
        assert_eq!(err.obligation(), Obligation::PhiMerge);
        assert!(err.to_string().contains("Φ_merge"));
    }

    #[test]
    fn check_con_holds_for_equal_abstract_states() {
        let mut rep = ObligationReport::default();
        let i = AbstractOf::<Ctr>::new().perform(CtrOp::Inc, (), ts(1, 0));
        check_con(&i, &Ctr(1), &i, &Ctr(1), &mut rep).unwrap();
        assert_eq!(rep.phi_con, 1);
    }

    #[test]
    fn check_con_catches_divergent_states() {
        let mut rep = ObligationReport::default();
        let i = AbstractOf::<Ctr>::new().perform(CtrOp::Inc, (), ts(1, 0));
        let err = check_con(&i, &Ctr(1), &i, &Ctr(2), &mut rep).unwrap_err();
        assert_eq!(err.obligation(), Obligation::PhiCon);
    }

    #[test]
    fn check_con_is_vacuous_for_different_abstract_states() {
        let mut rep = ObligationReport::default();
        let i1 = AbstractOf::<Ctr>::new().perform(CtrOp::Inc, (), ts(1, 0));
        let i2 = AbstractOf::<Ctr>::new().perform(CtrOp::Inc, (), ts(2, 0));
        check_con(&i1, &Ctr(1), &i2, &Ctr(7), &mut rep).unwrap();
        assert_eq!(rep.phi_con, 0);
    }

    #[test]
    fn report_totals_and_absorb() {
        let mut a = ObligationReport {
            phi_do: 1,
            phi_merge: 2,
            phi_spec: 3,
            phi_con: 4,
            psi_ts: 5,
            psi_lca: 6,
            codec: 7,
            ra_lin: 8,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.total(), 72);
    }

    #[test]
    fn check_codec_accepts_roundtripping_state() {
        let mut rep = ObligationReport::default();
        check_codec(&Ctr(17), &mut rep).unwrap();
        assert_eq!(rep.codec, 1);
    }

    #[test]
    fn check_op_delta_counts_as_codec() {
        let mut rep = ObligationReport::default();
        let (next, ()) = Ctr(3).apply(&CtrOp::Inc, ts(4, 0));
        check_op_delta(&Ctr(3), &CtrOp::Inc, &next, &mut rep).unwrap();
        assert_eq!(rep.codec, 1);
    }

    #[test]
    fn check_codec_catches_asymmetric_codec() {
        /// Encoder writes 4 bytes, decoder reads 8 — the classic drift bug
        /// the standing obligation exists for.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct Skew(u64);
        impl Wire for Skew {
            fn encode(&self, out: &mut Vec<u8>) {
                (self.0 as u32).encode(out); // BUG: narrows
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(Skew(Wire::decode(input)?))
            }
        }
        impl Mrdt for Skew {
            type Op = CtrOp;
            type Value = ();
            type Query = CtrQuery;
            type Output = u64;
            fn initial() -> Self {
                Skew(0)
            }
            fn apply(&self, _op: &CtrOp, _t: Timestamp) -> (Self, ()) {
                (Skew(self.0 + 1), ())
            }
            fn query(&self, _q: &CtrQuery) -> u64 {
                self.0
            }
            fn merge(l: &Self, a: &Self, b: &Self) -> Self {
                Skew(a.0 + b.0 - l.0)
            }
        }
        let mut rep = ObligationReport::default();
        let err = check_codec(&Skew(1), &mut rep).unwrap_err();
        assert_eq!(err.obligation(), Obligation::Codec);
    }
}
