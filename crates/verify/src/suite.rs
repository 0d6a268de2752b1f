//! Packaged certification runs for every data type in `peepul-types` — the
//! workspace's analogue of the paper's Table 3 (verification effort per
//! MRDT).
//!
//! For each data type the suite runs (a) a bounded-exhaustive pass over a
//! small conflicting-operation alphabet and (b) a batch of long seeded
//! random executions, counting how many obligation instances were checked
//! and how long certification took. The queue additionally re-checks the
//! declarative queue axioms of §6.2 on every final abstract state.
//!
//! Each data type declares one merge policy and one operation source, a
//! `fn(u64) -> Op`. The random pass draws its schedules with the property
//! tests' drawer ([`schedules_with`] over [`Arms::STORE`], operations
//! from `op_of` of a uniform `u64`), seeded per run, so a run is a pure
//! function of its seed. The `Φ_ra` fleet runs of
//! [`certify_replication`] feed the same function a seeded `u64` stream
//! and check under the same policy. A failure names its seed, and
//! `PEEPUL_REPLAY=<seed>` re-runs exactly that execution, on either path.

use crate::bounded::{BoundedChecker, BoundedConfig};
use crate::proptest_support::{schedules_with, Arms};
use crate::ralin::{check_fleet, replay_seed, FleetConfig, RaLinStats};
use crate::runner::{MergePolicy, Runner, Snapshot};
use peepul_core::obligations::Certified;
use peepul_core::ObligationReport;
use peepul_types::chat::{Chat, ChatOp, ChatQuery};
use peepul_types::counter::{Counter, CounterOp, CounterQuery};
use peepul_types::ew_flag::{EwFlag, EwFlagOp, EwFlagQuery, EwFlagSpace};
use peepul_types::g_set::{GSet, GSetOp, GSetQuery};
use peepul_types::log::{LogOp, LogQuery, MergeableLog};
use peepul_types::lww_register::{LwwOp, LwwQuery, LwwRegister};
use peepul_types::map::{MapOp, MapQuery, MrdtMap};
use peepul_types::or_set::{OrSet, OrSetOp, OrSetQuery};
use peepul_types::or_set_space::OrSetSpace;
use peepul_types::or_set_spacetime::OrSetSpacetime;
use peepul_types::pn_counter::{PnCounter, PnCounterOp, PnCounterQuery};
use peepul_types::queue::{self, Queue, QueueOp, QueueQuery};
use proptest::prelude::{any, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Suite-wide configuration.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Depth of the bounded-exhaustive pass.
    pub bounded_steps: usize,
    /// Branch budget of the bounded-exhaustive pass.
    pub bounded_branches: usize,
    /// Number of random executions per data type.
    pub random_runs: usize,
    /// Steps drawn per random execution (a self-merge, or a fork over the
    /// branch budget, is dropped from the schedule).
    pub random_steps: usize,
    /// Branch budget of each random execution (root included).
    pub random_branches: usize,
    /// Base seed: random run `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            bounded_steps: 4,
            bounded_branches: 2,
            random_runs: 20,
            random_steps: 150,
            random_branches: 4,
            seed: 0xBADC0FFE,
        }
    }
}

/// Outcome of certifying one data type.
#[derive(Clone, Debug)]
pub struct CertificationSummary {
    /// Data type name.
    pub name: &'static str,
    /// Maximal executions explored by the bounded pass.
    pub bounded_executions: u64,
    /// Transitions checked by the bounded pass.
    pub bounded_transitions: u64,
    /// Wall-clock time of the bounded pass.
    pub bounded_time: Duration,
    /// Random executions run.
    pub random_runs: u64,
    /// Transitions checked by the random pass.
    pub random_transitions: u64,
    /// Wall-clock time of the random pass.
    pub random_time: Duration,
    /// Obligation instances checked, both passes combined.
    pub obligations: ObligationReport,
    /// The merge policy the type is certified under (see [`MergePolicy`]):
    /// space-optimized types are certified relative to the paper's
    /// strong-Ψ_lca store envelope.
    pub policy: MergePolicy,
    /// Merges skipped by the envelope restriction (0 under
    /// [`MergePolicy::General`]).
    pub skipped_merges: u64,
    /// `None` when certification succeeded; the failure rendering
    /// otherwise.
    pub failure: Option<String>,
}

impl CertificationSummary {
    /// Whether every obligation held on every explored execution.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Total certification time.
    pub fn total_time(&self) -> Duration {
        self.bounded_time + self.random_time
    }
}

/// Certifies one data type: a bounded-exhaustive pass over the **update**
/// `alphabet` followed by `config.random_runs` random executions drawing
/// operations from `op_of`. The `queries` probe set is checked
/// (`Φ_spec`) against the post-state of every transition in both passes —
/// queries no longer appear as schedule steps, so the probes are what
/// certifies the observation side of the query/update split. `final_check`
/// runs against the final snapshots of every random execution (used for
/// the queue axioms); pass `|_| Ok(())` when not needed.
///
/// A random-pass failure names its run's seed; with `PEEPUL_REPLAY=<seed>`
/// set, the pass runs that one schedule instead of its sweep.
pub fn certify_type<M, G>(
    name: &'static str,
    config: &SuiteConfig,
    policy: MergePolicy,
    alphabet: Vec<M::Op>,
    queries: Vec<M::Query>,
    op_of: fn(u64) -> M::Op,
    final_check: G,
) -> CertificationSummary
where
    M: Certified,
    M::Op: PartialEq + 'static,
    G: Fn(&[(String, Snapshot<M>)]) -> Result<(), String>,
{
    let mut obligations = ObligationReport::default();
    let mut failure = None;
    let mut skipped_merges = 0u64;

    // Bounded-exhaustive pass.
    let start = Instant::now();
    let checker = BoundedChecker::<M>::new(BoundedConfig {
        max_steps: config.bounded_steps,
        max_branches: config.bounded_branches,
        alphabet,
        queries: queries.clone(),
    })
    .with_policy(policy);
    let (bounded_executions, bounded_transitions) = match checker.run() {
        Ok(stats) => {
            obligations.absorb(&stats.obligations);
            (stats.executions, stats.transitions)
        }
        Err(e) => {
            failure = Some(format!("bounded pass: {e}"));
            (0, 0)
        }
    };
    let bounded_time = start.elapsed();

    // Randomized pass.
    let start = Instant::now();
    let mut random_transitions = 0u64;
    let mut runs_done = 0u64;
    if failure.is_none() {
        let schedules = schedules_with(
            Arms::STORE,
            any::<u64>().prop_map(op_of),
            config.random_steps,
            config.random_branches,
        );
        let replay = replay_seed();
        for run in 0..config.random_runs {
            let seed = replay.unwrap_or_else(|| config.seed.wrapping_add(run as u64));
            let schedule = schedules.generate(&mut StdRng::seed_from_u64(seed));
            let mut runner: Runner<M> = Runner::with_policy(policy).with_queries(queries.clone());
            if let Err(e) = runner.run_schedule(&schedule) {
                failure = Some(format!(
                    "random run {run} (seed {seed}): {e} — re-run with PEEPUL_REPLAY={seed}"
                ));
                break;
            }
            random_transitions += runner.steps_run() as u64;
            skipped_merges += runner.skipped_merges() as u64;
            obligations.absorb(&runner.report());
            runs_done += 1;
            if let Err(e) = final_check(&runner.snapshots()) {
                failure = Some(format!(
                    "random run {run} (seed {seed}), final check: {e} — re-run with \
                     PEEPUL_REPLAY={seed}"
                ));
                break;
            }
            if replay.is_some() {
                break;
            }
        }
    }
    let random_time = start.elapsed();

    CertificationSummary {
        name,
        bounded_executions,
        bounded_transitions,
        bounded_time,
        random_runs: runs_done,
        random_transitions,
        random_time,
        obligations,
        policy,
        skipped_merges,
        failure,
    }
}

/// The final check of every type but the queue: none.
fn no_final_check<M: Certified>(_: &[(String, Snapshot<M>)]) -> Result<(), String> {
    Ok(())
}

/// The queue's final check: the declarative queue axioms (`AddRem`,
/// `Empty`, `FIFO_1`, `FIFO_2`) on the abstract state of every branch.
fn queue_axioms(snapshots: &[(String, Snapshot<Queue<u32>>)]) -> Result<(), String> {
    match snapshots
        .iter()
        .find(|(_, snap)| !queue::axioms::all(&snap.abstract_state))
    {
        Some((branch, _)) => Err(format!("queue axioms violated on branch {branch}")),
        None => Ok(()),
    }
}

/// One data type's certification inputs, shared by its Table-2 pass and
/// its `Φ_ra` fleet runs.
struct TypeSuite<M: Certified> {
    name: &'static str,
    policy: MergePolicy,
    /// The bounded pass's update alphabet.
    alphabet: Vec<M::Op>,
    /// Query probes, checked in both passes and on every fleet replica.
    queries: Vec<M::Query>,
    /// The type's one operation source.
    op_of: fn(u64) -> M::Op,
    final_check: FinalCheck<M>,
}

/// A check of the final snapshots of a random execution.
type FinalCheck<M> = fn(&[(String, Snapshot<M>)]) -> Result<(), String>;

impl<M> TypeSuite<M>
where
    M: Certified + Send + Sync + 'static,
    M::Op: PartialEq + Send,
    M::Value: Send,
    M::Query: Send,
    M::Output: Send,
{
    fn new(
        name: &'static str,
        policy: MergePolicy,
        alphabet: Vec<M::Op>,
        queries: Vec<M::Query>,
        op_of: fn(u64) -> M::Op,
    ) -> Self {
        TypeSuite {
            name,
            policy,
            alphabet,
            queries,
            op_of,
            final_check: no_final_check,
        }
    }

    fn certify(self, config: &SuiteConfig) -> CertificationSummary {
        certify_type::<M, _>(
            self.name,
            config,
            self.policy,
            self.alphabet,
            self.queries,
            self.op_of,
            self.final_check,
        )
    }

    fn ra_lin(self, fleet: &FleetConfig, runs: usize) -> RaLinSummary {
        let fleet = FleetConfig {
            policy: self.policy,
            ..fleet.clone()
        };
        ra_lin_type::<M>(self.name, &fleet, runs, self.op_of, &self.queries)
    }
}

fn counter() -> TypeSuite<Counter> {
    TypeSuite::new(
        "Increment-only counter",
        MergePolicy::General,
        vec![CounterOp::Increment],
        vec![CounterQuery::Value],
        |_| CounterOp::Increment,
    )
}

fn pn_counter() -> TypeSuite<PnCounter> {
    TypeSuite::new(
        "PN counter",
        MergePolicy::General,
        vec![PnCounterOp::Increment, PnCounterOp::Decrement],
        vec![PnCounterQuery::Value],
        |s| {
            if s % 2 == 0 {
                PnCounterOp::Increment
            } else {
                PnCounterOp::Decrement
            }
        },
    )
}

fn flag_op(s: u64) -> EwFlagOp {
    if s.is_multiple_of(2) {
        EwFlagOp::Enable
    } else {
        EwFlagOp::Disable
    }
}

fn ew_flag() -> TypeSuite<EwFlag> {
    TypeSuite::new(
        "Enable-wins flag",
        MergePolicy::General,
        vec![EwFlagOp::Enable, EwFlagOp::Disable],
        vec![EwFlagQuery::Read],
        flag_op,
    )
}

fn ew_flag_space() -> TypeSuite<EwFlagSpace> {
    TypeSuite::new(
        "Enable-wins flag (space)",
        MergePolicy::PaperEnvelope,
        vec![EwFlagOp::Enable, EwFlagOp::Disable],
        vec![EwFlagQuery::Read],
        flag_op,
    )
}

fn lww_register() -> TypeSuite<LwwRegister<u32>> {
    TypeSuite::new(
        "LWW register",
        MergePolicy::General,
        vec![LwwOp::Write(1), LwwOp::Write(2)],
        vec![LwwQuery::Read],
        |s| LwwOp::Write((s % 100) as u32),
    )
}

fn g_set() -> TypeSuite<GSet<u32>> {
    TypeSuite::new(
        "G-set",
        MergePolicy::General,
        vec![GSetOp::Add(1), GSetOp::Add(2)],
        vec![GSetQuery::Lookup(1), GSetQuery::Lookup(19), GSetQuery::Read],
        |s| GSetOp::Add((s % 20) as u32),
    )
}

fn g_map() -> TypeSuite<MrdtMap<Counter>> {
    TypeSuite::new(
        "G-map (α-map of counters)",
        MergePolicy::General,
        vec![
            MapOp::Set("k".into(), CounterOp::Increment),
            MapOp::Set("j".into(), CounterOp::Increment),
        ],
        vec![
            MapQuery::Get("k".into(), CounterQuery::Value),
            MapQuery::Get("j".into(), CounterQuery::Value),
            MapQuery::Get("absent".into(), CounterQuery::Value),
        ],
        |s| {
            let key = if s % 2 == 0 { "k" } else { "j" };
            MapOp::Set(key.into(), CounterOp::Increment)
        },
    )
}

fn log() -> TypeSuite<MergeableLog<u32>> {
    TypeSuite::new(
        "Mergeable log",
        MergePolicy::General,
        vec![LogOp::Append(1), LogOp::Append(2)],
        vec![LogQuery::Read],
        |s| LogOp::Append((s % 100) as u32),
    )
}

/// Two adds to every remove over ten elements (`s % 3` and `s % 10` are
/// independent, 3 and 10 being coprime).
fn set_op(s: u64) -> OrSetOp<u32> {
    let x = (s % 10) as u32;
    if s % 3 < 2 {
        OrSetOp::Add(x)
    } else {
        OrSetOp::Remove(x)
    }
}

fn or_set_suite<M>(name: &'static str, policy: MergePolicy) -> TypeSuite<M>
where
    M: Certified<Op = OrSetOp<u32>, Query = OrSetQuery<u32>> + Send + Sync + 'static,
    M::Value: Send,
    M::Output: Send,
{
    TypeSuite::new(
        name,
        policy,
        vec![OrSetOp::Add(1), OrSetOp::Remove(1), OrSetOp::Add(2)],
        vec![
            OrSetQuery::Lookup(1),
            OrSetQuery::Lookup(2),
            OrSetQuery::Read,
        ],
        set_op,
    )
}

fn or_set() -> TypeSuite<OrSet<u32>> {
    or_set_suite("OR-set", MergePolicy::General)
}

fn or_set_space() -> TypeSuite<OrSetSpace<u32>> {
    or_set_suite("OR-set-space", MergePolicy::PaperEnvelope)
}

fn or_set_spacetime() -> TypeSuite<OrSetSpacetime<u32>> {
    or_set_suite("OR-set-spacetime", MergePolicy::PaperEnvelope)
}

/// The replicated queue, whose random pass also asserts the declarative
/// queue axioms on every final branch.
fn replicated_queue() -> TypeSuite<Queue<u32>> {
    TypeSuite {
        final_check: queue_axioms,
        ..TypeSuite::new(
            "Replicated queue",
            MergePolicy::General,
            vec![QueueOp::Enqueue(1), QueueOp::Enqueue(2), QueueOp::Dequeue],
            vec![QueueQuery::Peek],
            |s| {
                if s % 5 < 3 {
                    QueueOp::Enqueue((s / 5 % 100) as u32)
                } else {
                    QueueOp::Dequeue
                }
            },
        )
    }
}

fn chat() -> TypeSuite<Chat> {
    TypeSuite::new(
        "IRC chat (map of logs)",
        MergePolicy::General,
        vec![
            ChatOp::Send("#a".into(), "x".into()),
            ChatOp::Send("#b".into(), "y".into()),
        ],
        vec![
            ChatQuery::Read("#a".into()),
            ChatQuery::Read("#b".into()),
            ChatQuery::Read("#silent".into()),
        ],
        |s| {
            let ch = if s % 2 == 0 { "#a" } else { "#b" };
            ChatOp::Send(ch.into(), format!("m{}", s / 2 % 1000))
        },
    )
}

/// Outcome of replication-certifying one data type under `Φ_ra`.
#[derive(Clone, Debug)]
pub struct RaLinSummary {
    /// Data type name.
    pub name: &'static str,
    /// Fleet executions checked.
    pub runs: u64,
    /// Accumulated checker statistics across all runs.
    pub stats: RaLinStats,
    /// Wall-clock time of all runs.
    pub time: Duration,
    /// The merge policy the runs were checked under: under
    /// [`MergePolicy::PaperEnvelope`] the specification replays are
    /// skipped (see [`check_ra_lin`](crate::check_ra_lin)).
    pub policy: MergePolicy,
    /// `None` when every run certified; the first failure otherwise,
    /// including the seed that replays it.
    pub failure: Option<String>,
}

impl RaLinSummary {
    /// Whether every fleet execution was replication-aware linearizable.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Replication-certifies one data type: `runs` fault-injected executions
/// of the `fleet` shape, run `i` seeded with `fleet.seed + i`, each
/// recorded as a witness history and checked with `Φ_ra` under
/// `fleet.policy`. `op_of` turns the run's seeded `u64` stream into
/// operations, so a run is a pure function of its seed; on failure the
/// seed is named in the failure message and `PEEPUL_REPLAY=<seed>` re-runs
/// exactly that schedule.
pub fn ra_lin_type<M>(
    name: &'static str,
    fleet: &FleetConfig,
    runs: usize,
    op_of: fn(u64) -> M::Op,
    probes: &[M::Query],
) -> RaLinSummary
where
    M: Certified + Send + Sync + 'static,
    M::Op: Send,
    M::Value: Send,
    M::Query: Send,
    M::Output: Send,
{
    let start = Instant::now();
    let mut stats = RaLinStats::default();
    let mut failure = None;
    let mut runs_done = 0u64;
    let replay = replay_seed();
    for run in 0..runs {
        let seed = replay.unwrap_or_else(|| fleet.seed.wrapping_add(run as u64));
        let config = FleetConfig {
            seed,
            ..fleet.clone()
        };
        match check_fleet::<M>(&config, op_of, probes) {
            Ok(s) => {
                stats.absorb(&s);
                runs_done += 1;
            }
            Err(e) => {
                failure = Some(format!(
                    "fleet run {run} (seed {seed}): {e} — re-run with PEEPUL_REPLAY={seed}"
                ));
                break;
            }
        }
        if replay.is_some() {
            break; // replaying one specific schedule
        }
    }
    RaLinSummary {
        name,
        runs: runs_done,
        stats,
        time: start.elapsed(),
        policy: fleet.policy,
        failure,
    }
}

/// Replication-certifies the `Φ_ra` fleet suite: `runs` executions of the
/// `fleet` shape per data type, each under the type's own merge policy
/// (which replaces `fleet.policy`). OR-set-space, certified relative to
/// the paper's strong-Ψ_lca merge envelope, is checked structurally: a
/// fleet's gossip merges are arbitrary, so its declarative spec is not
/// owed over them.
pub fn certify_replication(fleet: &FleetConfig, runs: usize) -> Vec<RaLinSummary> {
    vec![
        counter().ra_lin(fleet, runs),
        lww_register().ra_lin(fleet, runs),
        replicated_queue().ra_lin(fleet, runs),
        log().ra_lin(fleet, runs),
        g_map().ra_lin(fleet, runs),
        or_set_space().ra_lin(fleet, runs),
    ]
}

/// Certifies every data type in `peepul-types`, in Table 3 order.
pub fn certify_all(config: &SuiteConfig) -> Vec<CertificationSummary> {
    vec![
        counter().certify(config),
        pn_counter().certify(config),
        ew_flag().certify(config),
        ew_flag_space().certify(config),
        lww_register().certify(config),
        g_set().certify(config),
        g_map().certify(config),
        log().certify(config),
        or_set().certify(config),
        or_set_space().certify(config),
        or_set_spacetime().certify(config),
        replicated_queue().certify(config),
        chat().certify(config),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SuiteConfig {
        SuiteConfig {
            bounded_steps: 3,
            bounded_branches: 2,
            random_runs: 3,
            random_steps: 60,
            random_branches: 3,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn counter_certifies() {
        let s = counter().certify(&quick());
        assert!(s.passed(), "{:?}", s.failure);
        assert!(s.obligations.total() > 0);
    }

    #[test]
    fn or_sets_certify() {
        for s in [
            or_set().certify(&quick()),
            or_set_space().certify(&quick()),
            or_set_spacetime().certify(&quick()),
        ] {
            assert!(s.passed(), "{}: {:?}", s.name, s.failure);
        }
    }

    #[test]
    fn queue_certifies_with_axioms() {
        let s = replicated_queue().certify(&quick());
        assert!(s.passed(), "{:?}", s.failure);
    }

    #[test]
    fn composites_certify() {
        for s in [g_map().certify(&quick()), chat().certify(&quick())] {
            assert!(s.passed(), "{}: {:?}", s.name, s.failure);
        }
    }
}
