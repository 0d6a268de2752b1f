//! Enable-wins flag MRDTs (paper, Table 3).
//!
//! A replicated boolean where a concurrent `enable` beats a concurrent
//! `disable` — the flag analogue of the OR-set's add-wins policy. Two
//! implementations share one specification:
//!
//! * [`EwFlag`] — the straightforward *token set*: every enable leaves a
//!   timestamped token, disable clears the visible tokens, and merge keeps
//!   tokens that are new on either branch (mirrors the unoptimized OR-set
//!   of §2.1.1 specialised to a single element);
//! * [`EwFlagSpace`] — the space-efficient form holding at most **one**
//!   token (the latest), using the timestamp-refresh trick of the
//!   space-efficient OR-set (§2.1.2) so a re-enable still defeats a
//!   concurrent disable.

use peepul_core::{
    AbstractOf, AbstractState, Certified, Mrdt, SimulationRelation, Specification, Timestamp,
};
use std::collections::BTreeSet;

/// Update operations of the enable-wins flag.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EwFlagOp {
    /// Set the flag.
    Enable,
    /// Clear the flag.
    Disable,
}

/// Queries of the enable-wins flag.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EwFlagQuery {
    /// Observe the flag state.
    Read,
}

/// An enable event is *live* in `abs` when no disable event observed it.
/// The flag reads true iff a live enable exists; this is the shared
/// specification of both implementations.
fn live_enables(abs: &AbstractState<EwFlagOp, ()>) -> BTreeSet<Timestamp> {
    abs.events()
        .filter(|e| matches!(e.op(), EwFlagOp::Enable))
        .filter(|e| {
            !abs.events()
                .any(|d| matches!(d.op(), EwFlagOp::Disable) && abs.vis(e.id(), d.id()))
        })
        .map(|e| e.id())
        .collect()
}

// ---------------------------------------------------------------------------
// Token-set implementation
// ---------------------------------------------------------------------------

/// Enable-wins flag as a set of enable tokens.
///
/// # Example
///
/// ```
/// use peepul_core::{Mrdt, ReplicaId, Timestamp};
/// use peepul_types::ew_flag::{EwFlag, EwFlagOp};
///
/// let ts = |t| Timestamp::new(t, ReplicaId::new(0));
/// let lca = {
///     let (f, _) = EwFlag::initial().apply(&EwFlagOp::Enable, ts(1));
///     f
/// };
/// // Concurrently: branch a disables, branch b re-enables.
/// let (a, _) = lca.apply(&EwFlagOp::Disable, ts(2));
/// let (b, _) = lca.apply(&EwFlagOp::Enable, ts(3));
/// let m = EwFlag::merge(&lca, &a, &b);
/// assert!(m.enabled()); // enable wins
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct EwFlag {
    tokens: BTreeSet<Timestamp>,
}

impl EwFlag {
    /// Whether the flag is currently set.
    pub fn enabled(&self) -> bool {
        !self.tokens.is_empty()
    }

    /// Number of live enable tokens held (diagnostic; the unoptimized
    /// representation can hold several).
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }
}

impl Mrdt for EwFlag {
    type Op = EwFlagOp;
    type Value = ();
    type Query = EwFlagQuery;
    type Output = bool;

    fn initial() -> Self {
        EwFlag::default()
    }

    fn apply(&self, op: &EwFlagOp, t: Timestamp) -> (Self, ()) {
        match op {
            EwFlagOp::Enable => {
                let mut next = self.clone();
                next.tokens.insert(t);
                (next, ())
            }
            EwFlagOp::Disable => (EwFlag::default(), ()),
        }
    }

    fn query(&self, q: &EwFlagQuery) -> bool {
        match q {
            EwFlagQuery::Read => self.enabled(),
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        // (l ∩ a ∩ b) ∪ (a − l) ∪ (b − l): survivors plus new tokens.
        let mut tokens: BTreeSet<Timestamp> = lca
            .tokens
            .iter()
            .filter(|t| a.tokens.contains(t) && b.tokens.contains(t))
            .copied()
            .collect();
        tokens.extend(a.tokens.difference(&lca.tokens));
        tokens.extend(b.tokens.difference(&lca.tokens));
        EwFlag { tokens }
    }
}

/// Specification `F_flag` of both implementations (their abstract states
/// are one type): a read returns true iff some enable event is not visible
/// to any disable event.
#[derive(Debug)]
pub struct EwFlagSpec;

impl<M> Specification<M> for EwFlagSpec
where
    M: Mrdt<Op = EwFlagOp, Value = (), Query = EwFlagQuery, Output = bool>,
{
    fn spec(_op: &EwFlagOp, _state: &AbstractState<EwFlagOp, ()>) {}

    fn query(q: &EwFlagQuery, state: &AbstractState<EwFlagOp, ()>) -> bool {
        match q {
            EwFlagQuery::Read => !live_enables(state).is_empty(),
        }
    }
}

/// Simulation relation for [`EwFlag`]: the token set is exactly the set of
/// live enable timestamps.
#[derive(Debug)]
pub struct EwFlagSim;

impl SimulationRelation<EwFlag> for EwFlagSim {
    fn holds(abs: &AbstractOf<EwFlag>, conc: &EwFlag) -> bool {
        conc.tokens == live_enables(abs)
    }

    fn explain_failure(abs: &AbstractOf<EwFlag>, conc: &EwFlag) -> Option<String> {
        let live = live_enables(abs);
        (conc.tokens != live).then(|| {
            format!(
                "concrete tokens {:?} differ from live enables {:?}",
                conc.tokens, live
            )
        })
    }
}

impl Certified for EwFlag {
    type Spec = EwFlagSpec;
    type Sim = EwFlagSim;
}

// ---------------------------------------------------------------------------
// Space-efficient implementation
// ---------------------------------------------------------------------------

/// Space-efficient enable-wins flag holding at most one token.
///
/// `enable` *replaces* the current token with a fresh timestamp (like the
/// space-efficient OR-set's duplicate-refresh), which is what protects a
/// re-enable from a concurrent disable that only saw the old token.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct EwFlagSpace {
    token: Option<Timestamp>,
}

impl EwFlagSpace {
    /// Whether the flag is currently set.
    pub fn enabled(&self) -> bool {
        self.token.is_some()
    }

    /// The live token, if any.
    pub fn token(&self) -> Option<Timestamp> {
        self.token
    }
}

impl Mrdt for EwFlagSpace {
    type Op = EwFlagOp;
    type Value = ();
    type Query = EwFlagQuery;
    type Output = bool;

    fn initial() -> Self {
        EwFlagSpace::default()
    }

    fn apply(&self, op: &EwFlagOp, t: Timestamp) -> (Self, ()) {
        match op {
            EwFlagOp::Enable => (EwFlagSpace { token: Some(t) }, ()),
            EwFlagOp::Disable => (EwFlagSpace { token: None }, ()),
        }
    }

    fn query(&self, q: &EwFlagQuery) -> bool {
        match q {
            EwFlagQuery::Read => self.enabled(),
        }
    }

    fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
        // A token is *fresh* on a branch when the ancestor does not hold it.
        let fresh = |side: &Self| side.token.filter(|t| lca.token != Some(*t));
        // The ancestor token survives only if neither branch disabled or
        // replaced it.
        let kept = lca
            .token
            .filter(|t| a.token == Some(*t) && b.token == Some(*t));
        let token = match (fresh(a), fresh(b)) {
            // Both branches enabled concurrently: keep the later enable.
            (Some(ta), Some(tb)) => Some(ta.max(tb)),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => kept,
        };
        EwFlagSpace { token }
    }
}

/// Simulation relation for [`EwFlagSpace`]: the token, when present, is the
/// **greatest** live enable timestamp; when absent there is no live enable.
#[derive(Debug)]
pub struct EwFlagSpaceSim;

impl SimulationRelation<EwFlagSpace> for EwFlagSpaceSim {
    fn holds(abs: &AbstractOf<EwFlagSpace>, conc: &EwFlagSpace) -> bool {
        let live = live_enables(abs);
        conc.token == live.last().copied()
    }

    fn explain_failure(abs: &AbstractOf<EwFlagSpace>, conc: &EwFlagSpace) -> Option<String> {
        let live = live_enables(abs);
        (conc.token != live.last().copied()).then(|| {
            format!(
                "concrete token {:?} but greatest live enable is {:?}",
                conc.token,
                live.last()
            )
        })
    }
}

impl Certified for EwFlagSpace {
    type Spec = EwFlagSpec;
    type Sim = EwFlagSpaceSim;
}

impl peepul_core::Wire for EwFlag {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tokens.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(EwFlag {
            tokens: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.tokens.max_tick()
    }
}

impl peepul_core::Wire for EwFlagSpace {
    fn encode(&self, out: &mut Vec<u8>) {
        self.token.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(EwFlagSpace {
            token: peepul_core::Wire::decode(input)?,
        })
    }

    fn max_tick(&self) -> u64 {
        self.token.max_tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;

    fn ts(tick: u64) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(0))
    }

    fn tsr(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    #[test]
    fn starts_disabled() {
        assert!(!EwFlag::initial().enabled());
        assert!(!EwFlagSpace::initial().enabled());
    }

    #[test]
    fn enable_then_disable_locally() {
        let (f, _) = EwFlag::initial().apply(&EwFlagOp::Enable, ts(1));
        assert!(f.enabled());
        let (f, _) = f.apply(&EwFlagOp::Disable, ts(2));
        assert!(!f.enabled());
    }

    #[test]
    fn concurrent_enable_beats_disable_token_form() {
        let (lca, _) = EwFlag::initial().apply(&EwFlagOp::Enable, ts(1));
        let (a, _) = lca.apply(&EwFlagOp::Disable, tsr(2, 1));
        let (b, _) = lca.apply(&EwFlagOp::Enable, tsr(3, 2));
        let m = EwFlag::merge(&lca, &a, &b);
        assert!(m.enabled());
        // The old (disabled) token is gone; only the fresh one survives.
        assert_eq!(m.token_count(), 1);
    }

    #[test]
    fn concurrent_enable_beats_disable_space_form() {
        let (lca, _) = EwFlagSpace::initial().apply(&EwFlagOp::Enable, ts(1));
        let (a, _) = lca.apply(&EwFlagOp::Disable, tsr(2, 1));
        let (b, _) = lca.apply(&EwFlagOp::Enable, tsr(3, 2));
        let m = EwFlagSpace::merge(&lca, &a, &b);
        assert!(m.enabled());
        assert_eq!(m.token(), Some(tsr(3, 2)));
    }

    #[test]
    fn refresh_enable_defeats_concurrent_disable() {
        // lca enabled at t1; a re-enables (refresh), b disables.
        let (lca, _) = EwFlagSpace::initial().apply(&EwFlagOp::Enable, ts(1));
        let (a, _) = lca.apply(&EwFlagOp::Enable, tsr(2, 1));
        let (b, _) = lca.apply(&EwFlagOp::Disable, tsr(3, 2));
        let m = EwFlagSpace::merge(&lca, &a, &b);
        assert!(m.enabled());
        assert_eq!(m.token(), Some(tsr(2, 1)));
    }

    #[test]
    fn disable_on_both_branches_wins_over_stale_token() {
        let (lca, _) = EwFlag::initial().apply(&EwFlagOp::Enable, ts(1));
        let (a, _) = lca.apply(&EwFlagOp::Disable, tsr(2, 1));
        let b = lca.clone(); // untouched
        let m = EwFlag::merge(&lca, &a, &b);
        assert!(!m.enabled());
        let (lca, _) = EwFlagSpace::initial().apply(&EwFlagOp::Enable, ts(1));
        let (a, _) = lca.apply(&EwFlagOp::Disable, tsr(2, 1));
        let m = EwFlagSpace::merge(&lca, &a, &lca);
        assert!(!m.enabled());
    }

    #[test]
    fn concurrent_enables_keep_latest_token_space_form() {
        let lca = EwFlagSpace::initial();
        let (a, _) = lca.apply(&EwFlagOp::Enable, tsr(1, 1));
        let (b, _) = lca.apply(&EwFlagOp::Enable, tsr(2, 2));
        let m = EwFlagSpace::merge(&lca, &a, &b);
        assert_eq!(m.token(), Some(tsr(2, 2)));
        assert_eq!(
            EwFlagSpace::merge(&lca, &b, &a).token(),
            Some(tsr(2, 2)),
            "merge must be commutative"
        );
    }

    #[test]
    fn query_spec_is_live_enable_existence() {
        let i = AbstractOf::<EwFlag>::new()
            .perform(EwFlagOp::Enable, (), ts(1))
            .perform(EwFlagOp::Disable, (), ts(2));
        // One specification certifies both implementations.
        let read = |i: &AbstractOf<EwFlag>| {
            let token_set = <EwFlagSpec as Specification<EwFlag>>::query(&EwFlagQuery::Read, i);
            let space = <EwFlagSpec as Specification<EwFlagSpace>>::query(&EwFlagQuery::Read, i);
            assert_eq!(token_set, space);
            token_set
        };
        assert!(!read(&i));
        let i = i.perform(EwFlagOp::Enable, (), ts(3));
        assert!(read(&i));
    }

    #[test]
    fn simulation_tracks_live_tokens() {
        let i = AbstractOf::<EwFlag>::new().perform(EwFlagOp::Enable, (), ts(1));
        let mut conc = EwFlag::default();
        conc.tokens.insert(ts(1));
        assert!(EwFlagSim::holds(&i, &conc));
        assert!(!EwFlagSim::holds(&i, &EwFlag::default()));
    }

    #[test]
    fn space_simulation_requires_greatest_live_token() {
        let i = AbstractOf::<EwFlagSpace>::new().perform(EwFlagOp::Enable, (), tsr(1, 1));
        let i = i.perform(EwFlagOp::Enable, (), tsr(2, 2));
        assert!(EwFlagSpaceSim::holds(
            &i,
            &EwFlagSpace {
                token: Some(tsr(2, 2))
            }
        ));
        assert!(!EwFlagSpaceSim::holds(
            &i,
            &EwFlagSpace {
                token: Some(tsr(1, 1))
            }
        ));
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use peepul_core::{ReplicaId, Timestamp, Wire};

    #[test]
    fn flags_wire_roundtrip() {
        let ts = |t| Timestamp::new(t, ReplicaId::new(1));
        let f = EwFlag {
            tokens: [ts(1), ts(4)].into_iter().collect(),
        };
        assert_eq!(EwFlag::from_wire(&f.to_wire()), Some(f.clone()));
        assert_eq!(f.max_tick(), 4);
        let g = EwFlagSpace { token: Some(ts(9)) };
        assert_eq!(EwFlagSpace::from_wire(&g.to_wire()), Some(g));
        assert_eq!(g.max_tick(), 9);
    }
}
