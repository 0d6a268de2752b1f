//! The certification runner: drives the branch store and checks every
//! proof obligation at every transition.
//!
//! This is the executable counterpart of the paper's soundness argument
//! (Theorem 4.2): the proof is an induction over the transitions of the
//! store `M_Dτ` (Fig. 3), and the runner performs that induction concretely
//! on the store that serves traffic — a [`BranchStore`] over the in-memory
//! backend, merge memo and delta storage on. The store carries the
//! concrete half `φ` of each LTS state; the runner keeps the abstract half
//! `δ` as a *shadow*: one abstract execution `I` per commit, pushed in
//! lockstep with the store's commits by `do#`/`merge#`. At each `DO` it
//! checks `Φ_spec` and `Φ_do`, at each `MERGE` it checks `Ψ_lca` and
//! `Φ_merge` on the three states the store's own LCA path
//! ([`BranchStore::lca_state`]: recursive virtual merges, memoized)
//! supplies, and after every transition it checks `Φ_con` across all branch
//! pairs plus the `Φ_codec` canonical-codec round-trip on the post-state,
//! and at each `DO` that the operation's delta (`Mrdt::op_delta`, what the
//! store persists for the commit) resolves to the post-state (the single
//! codec is the storage format, the wire format and the content address,
//! so a codec that drifts from its data type would corrupt all three — the
//! harness certifies it alongside the paper's obligations).
//! Any violation is reported with the failing step and a counterexample
//! description.

use crate::schedule::{Schedule, Step};
use peepul_core::obligations::{
    check_codec, check_con, check_do, check_merge, check_op_delta, check_queries, Certified,
};
use peepul_core::store_props::psi_lca_paper;
use peepul_core::{
    AbstractOf, Mrdt, Obligation, ObligationError, ObligationReport, SimulationRelation,
};
use peepul_store::{BranchStore, CommitId, StoreError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// One version: paired concrete and abstract states.
pub struct Snapshot<M: Mrdt> {
    /// The implementation state `σ`, as the store holds it.
    pub concrete: Arc<M>,
    /// The abstract execution `I` of all events this version has observed.
    pub abstract_state: Arc<AbstractOf<M>>,
}

impl<M: Mrdt> fmt::Debug for Snapshot<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Snapshot(σ = {:?}, |I| = {})",
            self.concrete,
            self.abstract_state.len()
        )
    }
}

/// Which merges the store is allowed to perform during certification.
///
/// The paper's proofs assume the *strong* `Ψ_lca` of its Table 1: every
/// LCA event is visible to every event that is new on either branch. Real
/// Git-like stores violate that on asymmetric repeated merges (see
/// [`peepul_core::store_props::psi_lca`]), and this harness found that the
/// space-optimized data types — whose states discard all but the greatest
/// live timestamp per element — genuinely *cannot* merge correctly outside
/// that envelope: the correct answer (a smaller, still-live add) may
/// survive in none of the three merge inputs.
///
/// Data types that keep full live information (counters, G-set, the
/// unoptimized OR-set, the queue, the log, LWW, compositions thereof) are
/// certified under [`MergePolicy::General`]; the space-optimized
/// OR-set-space, OR-set-spacetime and enable-wins-flag-space are certified
/// under [`MergePolicy::PaperEnvelope`], exactly mirroring the assumption
/// under which the paper's F* proofs hold.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MergePolicy {
    /// Perform (and certify) every merge the schedule requests.
    #[default]
    General,
    /// Skip merges whose inputs violate the paper's strong `Ψ_lca`; the
    /// execution stays inside the store model the paper verifies against.
    PaperEnvelope,
}

/// A certification failure: which step broke which obligation.
#[derive(Clone, Debug)]
pub enum CertificationError {
    /// A proof obligation was falsified.
    Obligation {
        /// Index of the failing step within the executed schedule.
        step_index: usize,
        /// Rendering of the failing step.
        step: String,
        /// The falsified obligation with its counterexample.
        error: ObligationError,
    },
    /// The schedule was ill-formed for the store (unknown branch, …).
    Store(StoreError),
    /// The store installed a state other than the one the checker derived
    /// from the same inputs, yet `R_sim` still holds on it — a store or
    /// harness bug, never a data type bug.
    HarnessMismatch(String),
}

impl fmt::Display for CertificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificationError::Obligation {
                step_index,
                step,
                error,
            } => write!(f, "step {step_index} [{step}]: {error}"),
            CertificationError::Store(e) => write!(f, "store rejected schedule: {e}"),
            CertificationError::HarnessMismatch(m) => write!(f, "harness mismatch: {m}"),
        }
    }
}

impl Error for CertificationError {}

impl From<StoreError> for CertificationError {
    fn from(e: StoreError) -> Self {
        CertificationError::Store(e)
    }
}

/// Stateful runner over one execution.
pub struct Runner<M: Certified>
where
    M::Op: PartialEq,
{
    store: BranchStore<M>,
    /// The abstract execution `I` of every commit, indexed by
    /// [`CommitId::index`] and pushed in lockstep with the store's commits.
    shadow: Vec<Arc<AbstractOf<M>>>,
    report: ObligationReport,
    steps_run: usize,
    policy: MergePolicy,
    skipped_merges: usize,
    /// Query probes checked (`Φ_spec`) against the post-state of every
    /// `DO` and `MERGE` — the checkers' side of the query/update split:
    /// queries left the op alphabet, so the harness instead asserts every
    /// probe at every reachable state.
    probes: Vec<M::Query>,
}

fn branch_name(i: usize) -> String {
    format!("b{i}")
}

impl<M: Certified> Runner<M>
where
    M::Op: PartialEq,
{
    /// A fresh runner: one root branch `b0` in the initial state, allowing
    /// every merge ([`MergePolicy::General`]).
    pub fn new() -> Self {
        Runner::with_policy(MergePolicy::General)
    }

    /// A fresh runner with an explicit merge policy.
    pub fn with_policy(policy: MergePolicy) -> Self {
        Runner {
            store: BranchStore::new(branch_name(0)),
            shadow: vec![Arc::new(AbstractOf::<M>::new())],
            report: ObligationReport::default(),
            steps_run: 0,
            policy,
            skipped_merges: 0,
            probes: Vec::new(),
        }
    }

    /// Sets the query probe set: after every `DO` and `MERGE`, each probe
    /// is answered by the concrete post-state and checked against the
    /// specification (`Φ_spec`).
    #[must_use]
    pub fn with_queries(mut self, probes: Vec<M::Query>) -> Self {
        self.probes = probes;
        self
    }

    /// Number of merges skipped because their inputs fell outside the
    /// paper's strong-`Ψ_lca` envelope (always 0 under
    /// [`MergePolicy::General`]).
    pub fn skipped_merges(&self) -> usize {
        self.skipped_merges
    }

    /// Number of branches currently alive.
    pub fn branch_count(&self) -> usize {
        self.store.branch_names().len()
    }

    /// The obligation tally so far.
    pub fn report(&self) -> ObligationReport {
        self.report
    }

    /// Number of steps executed so far.
    pub fn steps_run(&self) -> usize {
        self.steps_run
    }

    /// The per-branch snapshots, sorted by branch name (for data-type
    /// specific post-hoc checks such as the queue axioms).
    pub fn snapshots(&self) -> Vec<(String, Snapshot<M>)> {
        self.store
            .branch_names()
            .into_iter()
            .map(|name| {
                let head = self.store.head(name).expect("listed branches exist");
                (name.to_owned(), self.snapshot_at(head))
            })
            .collect()
    }

    fn snapshot_at(&self, commit: CommitId) -> Snapshot<M> {
        Snapshot {
            concrete: Arc::clone(self.store.graph().payload(commit)),
            abstract_state: Arc::clone(&self.shadow[commit.index()]),
        }
    }

    fn snapshot(&self, branch: &str) -> Result<Snapshot<M>, StoreError> {
        Ok(self.snapshot_at(self.store.head(branch)?))
    }

    /// Records `I` for the commit the store just appended.
    fn push_shadow(&mut self, commit: CommitId, abs: AbstractOf<M>) {
        assert_eq!(
            commit.index(),
            self.shadow.len(),
            "the shadow advances in lockstep with the store's commits"
        );
        self.shadow.push(Arc::new(abs));
    }

    fn obligation_error(&self, step: &Step<M::Op>, error: ObligationError) -> CertificationError {
        CertificationError::Obligation {
            step_index: self.steps_run,
            step: step.to_string(),
            error,
        }
    }

    /// The store's transition must be the one Fig. 3 prescribes: the state
    /// it installed is the state the checker derived from the same inputs.
    /// A store that installs anything else is reported as the obligation
    /// its *served* state falsifies (`R_sim(I', σ_installed)`), or as a
    /// harness mismatch when the deviation is invisible to `R_sim`.
    fn check_installed(
        &self,
        step: &Step<M::Op>,
        obligation: Obligation,
        abs_next: &AbstractOf<M>,
        conc_next: &M,
        installed: &M,
    ) -> Result<(), CertificationError> {
        if installed == conc_next {
            return Ok(());
        }
        if M::Sim::holds(abs_next, installed) {
            return Err(CertificationError::HarnessMismatch(format!(
                "step {} [{step}] disagrees with store transition",
                self.steps_run
            )));
        }
        let why = M::Sim::explain_failure(abs_next, installed)
            .unwrap_or_else(|| "no explanation".to_owned());
        Err(self.obligation_error(
            step,
            ObligationError::new(
                obligation,
                format!(
                    "the store installed {installed:?} where the data type yields \
                     {conc_next:?}: {why}"
                ),
            ),
        ))
    }

    /// `Φ_spec` probes and the `Φ_codec` round-trip on one state pair.
    fn check_state(&mut self, snap: &Snapshot<M>) -> Result<(), ObligationError> {
        check_queries::<M>(
            &snap.abstract_state,
            &snap.concrete,
            &self.probes,
            &mut self.report,
        )?;
        check_codec::<M>(&snap.concrete, &mut self.report)
    }

    /// Checks the query probes — and the `Φ_codec` round-trip — against
    /// every branch's **current** state, in particular the initial
    /// `(σ0, I0)`, which no post-`DO`/`MERGE` probe ever reaches (a query
    /// that lies only on the initial state would otherwise certify
    /// cleanly). [`Runner::run_schedule`] and the bounded checker call
    /// this before the first transition.
    ///
    /// # Errors
    ///
    /// The first falsified probe as a `Φ_spec` violation, or a broken
    /// codec round-trip as `Φ_codec`.
    pub fn check_current_queries(&mut self) -> Result<(), CertificationError> {
        for (_, snap) in self.snapshots() {
            self.check_state(&snap)
                .map_err(|error| CertificationError::Obligation {
                    step_index: self.steps_run,
                    step: "initial/current state".to_owned(),
                    error,
                })?;
        }
        Ok(())
    }

    /// Executes one step, checking every obligation it triggers.
    ///
    /// # Errors
    ///
    /// The first [`CertificationError`] encountered; the runner should be
    /// discarded afterwards.
    pub fn apply_step(&mut self, step: &Step<M::Op>) -> Result<(), CertificationError> {
        match step {
            Step::CreateBranch { from } => {
                let new = branch_name(self.branch_count());
                self.store.branch_mut(&branch_name(*from))?.fork(new)?;
            }
            Step::Do { branch, op } => {
                let branch = branch_name(*branch);
                let pre = self.snapshot(&branch)?;
                self.store.branch_mut(&branch)?.apply(op)?;
                let head = self.store.head(&branch)?;
                let (abs_next, conc_next) = check_do::<M>(
                    &pre.abstract_state,
                    &pre.concrete,
                    op,
                    self.store.commit_mint(head),
                    &mut self.report,
                )
                .map_err(|e| self.obligation_error(step, e))?;
                self.check_installed(
                    step,
                    Obligation::PhiDo,
                    &abs_next,
                    &conc_next,
                    self.store.graph().payload(head),
                )?;
                check_op_delta::<M>(&pre.concrete, op, &conc_next, &mut self.report)
                    .map_err(|e| self.obligation_error(step, e))?;
                self.push_shadow(head, abs_next);
                let post = self.snapshot_at(head);
                self.check_state(&post)
                    .map_err(|e| self.obligation_error(step, e))?;
            }
            Step::Merge { into, from } => {
                let (into, from) = (branch_name(*into), branch_name(*from));
                let pre_into = self.snapshot(&into)?;
                let pre_from = self.snapshot(&from)?;
                if self.policy == MergePolicy::PaperEnvelope {
                    let (ia, ib) = (&pre_into.abstract_state, &pre_from.abstract_state);
                    if psi_lca_paper(&ia.lca(ib), ia, ib).is_err() {
                        // Outside the store model the paper verifies
                        // against: record and skip.
                        self.skipped_merges += 1;
                        self.steps_run += 1;
                        return Ok(());
                    }
                }
                let lca = self.store.lca_state(&into, &from)?;
                let (abs_next, conc_next) = check_merge::<M>(
                    &pre_into.abstract_state,
                    &pre_into.concrete,
                    &pre_from.abstract_state,
                    &pre_from.concrete,
                    &lca,
                    &mut self.report,
                )
                .map_err(|e| self.obligation_error(step, e))?;
                let commits = self.store.commit_count();
                self.store.branch_mut(&into)?.merge_from(&from)?;
                let head = self.store.head(&into)?;
                // A contained history (`from` ⊆ `into`) mints no commit:
                // `I_into ∪ I_from = I_into` already stands in the shadow,
                // and Φ_merge was discharged above on the real states.
                if self.store.commit_count() > commits {
                    self.check_installed(
                        step,
                        Obligation::PhiMerge,
                        &abs_next,
                        &conc_next,
                        self.store.graph().payload(head),
                    )?;
                    self.push_shadow(head, abs_next);
                }
                let post = self.snapshot_at(head);
                self.check_state(&post)
                    .map_err(|e| self.obligation_error(step, e))?;
            }
        }

        // Φ_con: branches that have observed the same events must be
        // observationally equivalent (Definition 3.5).
        let snapshots = self.snapshots();
        for (i, (_, a)) in snapshots.iter().enumerate() {
            for (_, b) in snapshots.iter().skip(i + 1) {
                check_con::<M>(
                    &a.abstract_state,
                    &a.concrete,
                    &b.abstract_state,
                    &b.concrete,
                    &mut self.report,
                )
                .map_err(|e| self.obligation_error(step, e))?;
            }
        }
        self.steps_run += 1;
        Ok(())
    }

    /// Executes a whole schedule.
    ///
    /// # Errors
    ///
    /// The first [`CertificationError`] encountered.
    pub fn run_schedule(&mut self, schedule: &Schedule<M::Op>) -> Result<(), CertificationError> {
        // Probe σ0 (and any state a prior schedule left behind) — the
        // per-step probes only cover post-DO/MERGE states.
        self.check_current_queries()?;
        for step in &schedule.steps {
            self.apply_step(step)?;
        }
        Ok(())
    }
}

impl<M: Certified> Default for Runner<M>
where
    M::Op: PartialEq,
{
    fn default() -> Self {
        Runner::new()
    }
}

impl<M: Certified> Clone for Runner<M>
where
    M::Op: PartialEq,
{
    /// Forks the whole world — the bounded-exhaustive checker branches its
    /// depth-first search this way. Cheap: states are `Arc`-shared.
    fn clone(&self) -> Self {
        Runner {
            store: self.store.clone(),
            shadow: self.shadow.clone(),
            report: self.report,
            steps_run: self.steps_run,
            policy: self.policy,
            skipped_merges: self.skipped_merges,
            probes: self.probes.clone(),
        }
    }
}

impl<M: Certified> fmt::Debug for Runner<M>
where
    M::Op: PartialEq,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Runner({} steps, {} branches, {} obligations)",
            self.steps_run,
            self.branch_count(),
            self.report.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::{Specification, Timestamp};
    use peepul_types::g_set::{GSet, GSetOp};
    use peepul_types::or_set_space::{OrSetOp, OrSetQuery, OrSetSpace};

    fn fork<Op>(from: usize) -> Step<Op> {
        Step::CreateBranch { from }
    }

    fn op<Op>(branch: usize, op: Op) -> Step<Op> {
        Step::Do { branch, op }
    }

    fn merge<Op>(into: usize, from: usize) -> Step<Op> {
        Step::Merge { into, from }
    }

    fn run<M: Certified>(steps: impl IntoIterator<Item = Step<M::Op>>) -> Runner<M>
    where
        M::Op: PartialEq,
    {
        let mut runner = Runner::new();
        for step in steps {
            runner.apply_step(&step).unwrap();
        }
        runner
    }

    #[test]
    fn do_advances_both_states_in_lockstep() {
        let mut runner: Runner<GSet<u32>> = Runner::new();
        let pre = runner.snapshot("b0").unwrap();
        runner.apply_step(&op(0, GSetOp::Add(1))).unwrap();
        let post = runner.snapshot("b0").unwrap();
        assert_eq!(pre.abstract_state.len(), 0);
        assert_eq!(post.abstract_state.len(), 1);
        assert!(post.concrete.contains(&1));
        assert_eq!(runner.store.tick(), 1);
        assert_eq!(runner.shadow.len(), runner.store.commit_count());
    }

    #[test]
    fn merge_unions_abstract_states() {
        let runner: Runner<GSet<u32>> = run([
            fork(0),
            op(0, GSetOp::Add(1)),
            op(1, GSetOp::Add(2)),
            merge(0, 1),
        ]);
        let post = runner.snapshot("b0").unwrap();
        assert_eq!(post.abstract_state.len(), 2);
        assert!(post.concrete.contains(&1) && post.concrete.contains(&2));
        assert_eq!(runner.shadow.len(), runner.store.commit_count());
    }

    #[test]
    fn lca_after_one_sided_merge_is_source_head() {
        let runner: Runner<GSet<u32>> = run([
            fork(0),
            op(0, GSetOp::Add(1)),
            op(1, GSetOp::Add(2)),
            merge(0, 1),
        ]);
        // Now b1's history ⊆ b0's: the LCA of (b0, b1) is b1's head.
        let lca = runner.store.lca_state("b0", "b1").unwrap();
        assert_eq!(*lca, *runner.snapshot("b1").unwrap().concrete);
    }

    #[test]
    fn criss_cross_virtual_lca_has_union_of_bases() {
        // A true criss-cross needs the swapped merge to start from the
        // same pair of heads, so it goes through pinned forks: b2 pins
        // b0's head, b3 pins b1's, then m1 = (b0, b3) and m2 = (b1, b2).
        let mut runner: Runner<OrSetSpace<u32>> = run([
            op(0, OrSetOp::Add(0)),
            fork(0),
            op(0, OrSetOp::Add(1)),
            op(1, OrSetOp::Add(2)),
            fork(0),
            fork(1),
            merge(0, 3),
            merge(1, 2),
            op(0, OrSetOp::Add(3)),
            op(1, OrSetOp::Add(4)),
        ]);
        let (h0, h1) = (
            runner.store.head("b0").unwrap(),
            runner.store.head("b1").unwrap(),
        );
        assert_eq!(runner.store.graph().merge_bases(h0, h1).len(), 2);
        // The store's virtual LCA simulates I_a ∩ I_b: events {0, 1, 2}.
        let lca = runner.store.lca_state("b0", "b1").unwrap();
        let ia = runner.snapshot("b0").unwrap().abstract_state;
        let ib = runner.snapshot("b1").unwrap().abstract_state;
        assert!(<OrSetSpace<u32> as Certified>::Sim::holds(
            &ia.lca(&ib),
            &lca
        ));
        assert_eq!(lca.elements(), vec![0, 1, 2]);
        // And the subsequent merge integrates everything, Φ_merge checked
        // against that virtual LCA.
        runner.apply_step(&merge(0, 1)).unwrap();
        let post = runner.snapshot("b0").unwrap();
        assert_eq!(post.concrete.elements(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn snapshots_lists_every_branch() {
        let runner: Runner<GSet<u32>> = run([fork(0), fork(1)]);
        let names: Vec<String> = runner.snapshots().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b0", "b1", "b2"]);
    }

    #[test]
    fn timestamps_increase_across_branches() {
        let runner: Runner<GSet<u32>> = run([
            fork(0),
            op(0, GSetOp::Add(1)),
            op(1, GSetOp::Add(2)),
            op(0, GSetOp::Add(3)),
        ]);
        let mints: Vec<Timestamp> = runner
            .store
            .graph()
            .ids()
            .map(|c| runner.store.commit_mint(c))
            .filter(|t| t.tick() > 0)
            .collect();
        assert_eq!(mints.len(), 3);
        assert!(mints[0] < mints[1] && mints[1] < mints[2]);
    }

    #[test]
    fn contained_merge_still_discharges_phi_merge() {
        let mut runner: Runner<GSet<u32>> = run([
            fork(0),
            op(0, GSetOp::Add(1)),
            op(1, GSetOp::Add(2)),
            merge(0, 1),
        ]);
        let (commits, phi_merge) = (runner.store.commit_count(), runner.report().phi_merge);
        // b1's history is already contained in b0's: the store mints no
        // commit, the obligation is checked all the same.
        runner.apply_step(&merge(0, 1)).unwrap();
        assert_eq!(runner.store.commit_count(), commits);
        assert_eq!(runner.report().phi_merge, phi_merge + 1);
        assert_eq!(runner.shadow.len(), commits);
    }

    #[test]
    fn or_set_space_schedule_certifies() {
        let schedule: Schedule<OrSetOp<u32>> = [
            Step::Do {
                branch: 0,
                op: OrSetOp::Add(1),
            },
            Step::CreateBranch { from: 0 },
            Step::Do {
                branch: 0,
                op: OrSetOp::Add(1), // refresh
            },
            Step::Do {
                branch: 1,
                op: OrSetOp::Remove(1),
            },
            Step::Merge { into: 0, from: 1 },
            Step::Merge { into: 1, from: 0 },
        ]
        .into_iter()
        .collect();
        let mut runner: Runner<OrSetSpace<u32>> =
            Runner::new().with_queries(vec![OrSetQuery::Lookup(1), OrSetQuery::Read]);
        runner.run_schedule(&schedule).unwrap();
        let report = runner.report();
        assert_eq!(report.phi_do, 3);
        assert_eq!(report.phi_merge, 2);
        // Probes fire on the initial state and after every DO and MERGE:
        // 2 probes × (1 initial + 5 transitions), on top of the per-update
        // Φ_spec checks.
        assert_eq!(report.phi_spec, 3 + 2 * 6);
        assert!(report.phi_con >= 1); // after the second merge both branches agree
    }

    #[test]
    fn unknown_branch_is_a_store_error() {
        let mut runner: Runner<OrSetSpace<u32>> = Runner::new();
        let err = runner
            .apply_step(&Step::Do {
                branch: 5,
                op: OrSetOp::Add(1),
            })
            .unwrap_err();
        assert!(matches!(err, CertificationError::Store(_)));
    }

    /// A deliberately broken data type: its merge keeps only branch `a`,
    /// losing `b`'s additions. The runner must localise the failure to
    /// `Φ_merge` at the merge step.
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    struct LossySet(std::collections::BTreeSet<u32>);

    impl peepul_core::Wire for LossySet {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(LossySet(peepul_core::Wire::decode(input)?))
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Add(u32);

    impl Mrdt for LossySet {
        type Op = Add;
        type Value = ();
        type Query = ();
        type Output = usize;
        fn initial() -> Self {
            LossySet::default()
        }
        fn apply(&self, op: &Add, _t: Timestamp) -> (Self, ()) {
            let mut next = self.clone();
            next.0.insert(op.0);
            (next, ())
        }
        fn query(&self, _q: &()) -> usize {
            self.0.len()
        }
        fn merge(_lca: &Self, a: &Self, _b: &Self) -> Self {
            a.clone() // bug: drops b's elements
        }
    }

    struct LossySpec;
    impl Specification<LossySet> for LossySpec {
        fn spec(_op: &Add, _state: &AbstractOf<LossySet>) {}
        fn query(_q: &(), state: &AbstractOf<LossySet>) -> usize {
            state
                .events()
                .map(|e| e.op().0)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        }
    }

    struct LossySim;
    impl SimulationRelation<LossySet> for LossySim {
        fn holds(abs: &AbstractOf<LossySet>, conc: &LossySet) -> bool {
            let added: std::collections::BTreeSet<u32> = abs.events().map(|e| e.op().0).collect();
            conc.0 == added
        }
    }

    impl Certified for LossySet {
        type Spec = LossySpec;
        type Sim = LossySim;
    }

    /// A data type whose state transitions are correct but whose query
    /// implementation lies (off by one). Only the probe checks can catch
    /// this — no update return value ever exposes it.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    struct LyingCounter(u64);

    impl peepul_core::Wire for LyingCounter {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(LyingCounter(peepul_core::Wire::decode(input)?))
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Bump;

    impl Mrdt for LyingCounter {
        type Op = Bump;
        type Value = ();
        type Query = ();
        type Output = u64;
        fn initial() -> Self {
            LyingCounter(0)
        }
        fn apply(&self, _op: &Bump, _t: Timestamp) -> (Self, ()) {
            (LyingCounter(self.0 + 1), ())
        }
        fn query(&self, _q: &()) -> u64 {
            self.0 + 1 // bug: off-by-one observation
        }
        fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
            LyingCounter(a.0 + b.0 - lca.0)
        }
    }

    struct LyingSpec;
    impl Specification<LyingCounter> for LyingSpec {
        fn spec(_op: &Bump, _state: &AbstractOf<LyingCounter>) {}
        fn query(_q: &(), state: &AbstractOf<LyingCounter>) -> u64 {
            state.events().count() as u64
        }
    }

    struct LyingSim;
    impl SimulationRelation<LyingCounter> for LyingSim {
        fn holds(abs: &AbstractOf<LyingCounter>, conc: &LyingCounter) -> bool {
            conc.0 == abs.len() as u64
        }
    }

    impl Certified for LyingCounter {
        type Spec = LyingSpec;
        type Sim = LyingSim;
    }

    #[test]
    fn lying_query_is_caught_by_probes_only() {
        let schedule: Schedule<Bump> = [Step::Do {
            branch: 0,
            op: Bump,
        }]
        .into_iter()
        .collect();
        // Without probes the lie goes unnoticed…
        let mut blind: Runner<LyingCounter> = Runner::new();
        blind.run_schedule(&schedule).unwrap();
        // …with probes it is a Φ_spec violation at the DO step.
        let mut probed: Runner<LyingCounter> = Runner::new().with_queries(vec![()]);
        let err = probed.run_schedule(&schedule).unwrap_err();
        match err {
            CertificationError::Obligation { error, .. } => {
                assert_eq!(error.obligation(), peepul_core::Obligation::PhiSpec);
            }
            other => panic!("expected obligation failure, got {other}"),
        }
    }

    /// A query that lies **only on the initial state** — exactly the gap
    /// the pre-transition probe closes: every post-DO/MERGE state answers
    /// correctly.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    struct InitLiar(u64);

    impl peepul_core::Wire for InitLiar {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(InitLiar(peepul_core::Wire::decode(input)?))
        }
    }

    impl Mrdt for InitLiar {
        type Op = Bump;
        type Value = ();
        type Query = ();
        type Output = u64;
        fn initial() -> Self {
            InitLiar(0)
        }
        fn apply(&self, _op: &Bump, _t: Timestamp) -> (Self, ()) {
            (InitLiar(self.0 + 1), ())
        }
        fn query(&self, _q: &()) -> u64 {
            if self.0 == 0 {
                99 // bug: wrong answer on σ0 only
            } else {
                self.0
            }
        }
        fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
            InitLiar(a.0 + b.0 - lca.0)
        }
    }

    struct InitLiarSpec;
    impl Specification<InitLiar> for InitLiarSpec {
        fn spec(_op: &Bump, _state: &AbstractOf<InitLiar>) {}
        fn query(_q: &(), state: &AbstractOf<InitLiar>) -> u64 {
            state.events().count() as u64
        }
    }

    struct InitLiarSim;
    impl SimulationRelation<InitLiar> for InitLiarSim {
        fn holds(abs: &AbstractOf<InitLiar>, conc: &InitLiar) -> bool {
            conc.0 == abs.len() as u64
        }
    }

    impl Certified for InitLiar {
        type Spec = InitLiarSpec;
        type Sim = InitLiarSim;
    }

    #[test]
    fn initial_state_query_lie_is_caught_before_any_step() {
        let schedule: Schedule<Bump> = [Step::Do {
            branch: 0,
            op: Bump,
        }]
        .into_iter()
        .collect();
        let mut runner: Runner<InitLiar> = Runner::new().with_queries(vec![()]);
        let err = runner.run_schedule(&schedule).unwrap_err();
        match err {
            CertificationError::Obligation { step, error, .. } => {
                assert_eq!(error.obligation(), peepul_core::Obligation::PhiSpec);
                assert!(step.contains("initial"), "caught at σ0: {step}");
            }
            other => panic!("expected obligation failure, got {other}"),
        }
    }

    #[test]
    fn lossy_merge_is_caught_at_the_merge_step() {
        let schedule: Schedule<Add> = [
            Step::CreateBranch { from: 0 },
            Step::Do {
                branch: 0,
                op: Add(1),
            },
            Step::Do {
                branch: 1,
                op: Add(2),
            },
            Step::Merge { into: 0, from: 1 },
        ]
        .into_iter()
        .collect();
        let mut runner: Runner<LossySet> = Runner::new();
        let err = runner.run_schedule(&schedule).unwrap_err();
        match err {
            CertificationError::Obligation {
                step_index, error, ..
            } => {
                assert_eq!(step_index, 3);
                assert_eq!(error.obligation(), peepul_core::Obligation::PhiMerge);
            }
            other => panic!("expected obligation failure, got {other}"),
        }
    }
}
