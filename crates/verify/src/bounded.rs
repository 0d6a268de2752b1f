//! Bounded-exhaustive certification: check **every** execution of the
//! store up to a size bound.
//!
//! This is the workspace's substitute for the SMT proof: instead of
//! universally quantifying over executions symbolically, the checker
//! enumerates all of them up to `max_steps` transitions over a finite
//! operation alphabet and branch budget, running the full obligation suite
//! at every transition. Small scopes catch RDT bugs remarkably well — the
//! classic counterexamples (add/remove conflicts, duplicate adds,
//! criss-cross merges, double dequeues) all need only two or three
//! branches and a couple of operations.
//!
//! The search is a depth-first walk over store states; each node clones
//! the runner — store and all (cheap: states are `Arc`-shared) — and
//! applies one more transition with checks enabled.

use crate::runner::{CertificationError, MergePolicy, Runner};
use crate::schedule::Step;
use peepul_core::obligations::Certified;
use peepul_core::{Mrdt, ObligationReport};

/// Configuration of the exhaustive search.
#[derive(Clone, Debug)]
pub struct BoundedConfig<M: Mrdt> {
    /// Maximum schedule length (search depth).
    pub max_steps: usize,
    /// Maximum number of branches (root included).
    pub max_branches: usize,
    /// The **update** alphabet `DO` steps draw from. Queries do not belong
    /// here — they are probed at every state via `queries`.
    pub alphabet: Vec<M::Op>,
    /// Query probes checked (`Φ_spec`) against the post-state of every
    /// transition the search explores.
    pub queries: Vec<M::Query>,
}

/// Statistics of a completed search.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BoundedStats {
    /// Number of maximal (length `max_steps`) executions explored.
    pub executions: u64,
    /// Number of transitions checked (shared prefixes counted once).
    pub transitions: u64,
    /// Obligation instances checked across the whole search.
    pub obligations: ObligationReport,
}

/// The exhaustive checker.
#[derive(Debug)]
pub struct BoundedChecker<M: Certified>
where
    M::Op: PartialEq,
{
    config: BoundedConfig<M>,
    policy: MergePolicy,
    _marker: std::marker::PhantomData<M>,
}

impl<M: Certified> BoundedChecker<M>
where
    M::Op: PartialEq,
{
    /// Creates a checker for data type `M` (merge policy:
    /// [`MergePolicy::General`]).
    pub fn new(config: BoundedConfig<M>) -> Self {
        BoundedChecker {
            config,
            policy: MergePolicy::General,
            _marker: std::marker::PhantomData,
        }
    }

    /// Restricts the search to the paper's store envelope (see
    /// [`MergePolicy`]).
    #[must_use]
    pub fn with_policy(mut self, policy: MergePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// The first [`CertificationError`] found, i.e. a concrete minimal-ish
    /// counterexample execution (the DFS explores shorter prefixes first).
    pub fn run(&self) -> Result<BoundedStats, CertificationError> {
        let mut stats = BoundedStats::default();
        let mut runner: Runner<M> =
            Runner::with_policy(self.policy).with_queries(self.config.queries.clone());
        // Probe σ0 once: the DFS shares this root, and per-step probes
        // only cover post-transition states.
        runner.check_current_queries()?;
        stats.obligations.absorb(&runner.report());
        self.dfs(&runner, self.config.max_steps, &mut stats)?;
        Ok(stats)
    }

    fn possible_steps(&self, branches: usize) -> Vec<Step<M::Op>> {
        let mut steps = Vec::new();
        for b in 0..branches {
            for op in &self.config.alphabet {
                steps.push(Step::Do {
                    node: 0,
                    branch: b,
                    op: op.clone(),
                });
            }
        }
        for into in 0..branches {
            for from in 0..branches {
                if into != from {
                    steps.push(Step::Merge {
                        node: 0,
                        into,
                        from,
                    });
                }
            }
        }
        if branches < self.config.max_branches {
            for from in 0..branches {
                steps.push(Step::CreateBranch { node: 0, from });
            }
        }
        steps
    }

    fn dfs(
        &self,
        runner: &Runner<M>,
        remaining: usize,
        stats: &mut BoundedStats,
    ) -> Result<(), CertificationError> {
        if remaining == 0 {
            stats.executions += 1;
            return Ok(());
        }
        for step in self.possible_steps(runner.branch_count()) {
            let mut child = runner.clone();
            let before = child.report();
            child.apply_step(&step)?;
            stats.transitions += 1;
            let mut delta = child.report();
            // Subtract what the parent had already accumulated.
            delta.phi_do -= before.phi_do;
            delta.phi_merge -= before.phi_merge;
            delta.phi_spec -= before.phi_spec;
            delta.phi_con -= before.phi_con;
            delta.psi_ts -= before.psi_ts;
            delta.psi_lca -= before.psi_lca;
            delta.codec -= before.codec;
            delta.ra_lin -= before.ra_lin;
            stats.obligations.absorb(&delta);
            self.dfs(&child, remaining - 1, stats)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};
    use peepul_types::ew_flag::{EwFlagOp, EwFlagQuery, EwFlagSpace};

    #[test]
    fn counter_is_exhaustively_correct_to_depth_5() {
        // The update-only alphabet is smaller than the old mixed one, so
        // one more level of depth keeps the search meaningfully large.
        let checker = BoundedChecker::<Counter>::new(BoundedConfig {
            max_steps: 5,
            max_branches: 2,
            alphabet: vec![CounterOp::Increment],
            queries: vec![CounterQuery::Value],
        });
        let stats = checker.run().unwrap();
        assert!(stats.executions > 100);
        assert!(stats.obligations.phi_merge > 0);
        assert!(stats.obligations.phi_do > 0);
        // Every explored transition probed the value query.
        assert!(stats.obligations.phi_spec > stats.obligations.phi_do);
    }

    #[test]
    fn ew_flag_space_is_exhaustively_correct_to_depth_4() {
        let checker = BoundedChecker::<EwFlagSpace>::new(BoundedConfig {
            max_steps: 4,
            max_branches: 2,
            alphabet: vec![EwFlagOp::Enable, EwFlagOp::Disable],
            queries: vec![EwFlagQuery::Read],
        });
        let stats = checker.run().unwrap();
        assert!(stats.executions > 0);
        assert!(stats.obligations.total() > stats.transitions);
    }

    #[test]
    fn exhaustive_search_finds_injected_bug() {
        use peepul_core::{AbstractOf, Mrdt, SimulationRelation, Specification, Timestamp};

        /// A counter whose merge double-counts the LCA.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        struct DoubleCounter(u64);

        impl peepul_core::Wire for DoubleCounter {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(DoubleCounter(peepul_core::Wire::decode(input)?))
            }
        }

        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct Inc;

        impl Mrdt for DoubleCounter {
            type Op = Inc;
            type Value = u64;
            type Query = ();
            type Output = ();
            fn initial() -> Self {
                DoubleCounter(0)
            }
            fn apply(&self, _op: &Inc, _t: Timestamp) -> (Self, u64) {
                (DoubleCounter(self.0 + 1), 0)
            }
            fn query(&self, _q: &()) {}
            fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
                DoubleCounter(a.0 + b.0 - lca.0 + lca.0) // bug: forgot to subtract
            }
        }
        struct DSpec;
        impl Specification<DoubleCounter> for DSpec {
            fn spec(_op: &Inc, _s: &AbstractOf<DoubleCounter>) -> u64 {
                0
            }
            fn query(_q: &(), _s: &AbstractOf<DoubleCounter>) {}
        }
        struct DSim;
        impl SimulationRelation<DoubleCounter> for DSim {
            fn holds(abs: &AbstractOf<DoubleCounter>, conc: &DoubleCounter) -> bool {
                conc.0 == abs.len() as u64
            }
        }
        impl peepul_core::Certified for DoubleCounter {
            type Spec = DSpec;
            type Sim = DSim;
        }

        let checker = BoundedChecker::<DoubleCounter>::new(BoundedConfig {
            max_steps: 4,
            max_branches: 2,
            alphabet: vec![Inc],
            queries: vec![],
        });
        let err = checker.run().unwrap_err();
        assert!(matches!(
            err,
            CertificationError::Obligation { error, .. }
                if error.obligation() == peepul_core::Obligation::PhiMerge
        ));
    }
}
