//! Packaged certification runs for every data type in `peepul-types` — the
//! workspace's analogue of the paper's Table 3 (verification effort per
//! MRDT).
//!
//! For each data type the suite runs (a) a bounded-exhaustive pass over a
//! small conflicting-operation alphabet and (b) a batch of long seeded
//! random executions, counting how many obligation instances were checked
//! and how long certification took. The queue additionally re-checks the
//! declarative queue axioms of §6.2 on every final abstract state.

use crate::bounded::{BoundedChecker, BoundedConfig};
use crate::generator::{RandomConfig, ScheduleGenerator};
use crate::ralin::{check_fleet, replay_seed, FleetConfig, RaLinOptions, RaLinStats};
use crate::runner::{MergePolicy, Runner, Snapshot};
use peepul_core::obligations::Certified;
use peepul_core::ObligationReport;
use peepul_net::ReplicationMutation;
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
use rand::rngs::StdRng;
use rand::Rng;
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
    /// Shape of each random execution.
    pub random: RandomConfig,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            bounded_steps: 4,
            bounded_branches: 2,
            random_runs: 20,
            random: RandomConfig {
                steps: 150,
                max_branches: 4,
                ..RandomConfig::default()
            },
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
/// operations from `random_op`. The `queries` probe set is checked
/// (`Φ_spec`) against the post-state of every transition in both passes —
/// queries no longer appear as schedule steps, so the probes are what
/// certifies the observation side of the query/update split. `final_check`
/// runs against the final snapshots of every random execution (used for
/// the queue axioms); pass `|_| Ok(())` when not needed.
pub fn certify_type<M, F, G>(
    name: &'static str,
    config: &SuiteConfig,
    policy: MergePolicy,
    alphabet: Vec<M::Op>,
    queries: Vec<M::Query>,
    mut random_op: F,
    final_check: G,
) -> CertificationSummary
where
    M: Certified,
    M::Op: PartialEq,
    F: FnMut(&mut StdRng) -> M::Op,
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
        // A failure names its seed; PEEPUL_REPLAY=<seed> re-runs exactly
        // that schedule (and only it).
        let replay = replay_seed();
        'runs: for run in 0..config.random_runs {
            let seed = replay.unwrap_or_else(|| config.random.seed.wrapping_add(run as u64));
            let mut gen = ScheduleGenerator::new(RandomConfig {
                seed,
                ..config.random.clone()
            });
            let schedule = gen.generate(&mut random_op);
            let mut runner: Runner<M> = Runner::with_policy(policy).with_queries(queries.clone());
            if let Err(e) = runner.run_schedule(&schedule) {
                failure = Some(format!(
                    "random run {run} (seed {seed}): {e} — re-run with PEEPUL_REPLAY={seed}"
                ));
                break 'runs;
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
                break 'runs;
            }
            if replay.is_some() {
                break 'runs;
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

fn no_final_check<M: Certified>(_: &[(String, Snapshot<M>)]) -> Result<(), String> {
    Ok(())
}

/// Certifies the increment-only counter.
pub fn certify_counter(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<Counter, _, _>(
        "Increment-only counter",
        config,
        MergePolicy::General,
        vec![CounterOp::Increment],
        vec![CounterQuery::Value],
        |_rng| CounterOp::Increment,
        no_final_check,
    )
}

/// Certifies the PN counter.
pub fn certify_pn_counter(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<PnCounter, _, _>(
        "PN counter",
        config,
        MergePolicy::General,
        vec![PnCounterOp::Increment, PnCounterOp::Decrement],
        vec![PnCounterQuery::Value],
        |rng| {
            if rng.gen_bool(0.5) {
                PnCounterOp::Increment
            } else {
                PnCounterOp::Decrement
            }
        },
        no_final_check,
    )
}

fn random_flag_op(rng: &mut StdRng) -> EwFlagOp {
    if rng.gen_bool(0.5) {
        EwFlagOp::Enable
    } else {
        EwFlagOp::Disable
    }
}

/// Certifies the token-set enable-wins flag.
pub fn certify_ew_flag(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<EwFlag, _, _>(
        "Enable-wins flag",
        config,
        MergePolicy::General,
        vec![EwFlagOp::Enable, EwFlagOp::Disable],
        vec![EwFlagQuery::Read],
        random_flag_op,
        no_final_check,
    )
}

/// Certifies the space-efficient enable-wins flag.
pub fn certify_ew_flag_space(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<EwFlagSpace, _, _>(
        "Enable-wins flag (space)",
        config,
        MergePolicy::PaperEnvelope,
        vec![EwFlagOp::Enable, EwFlagOp::Disable],
        vec![EwFlagQuery::Read],
        random_flag_op,
        no_final_check,
    )
}

/// Certifies the last-writer-wins register.
pub fn certify_lww_register(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<LwwRegister<u32>, _, _>(
        "LWW register",
        config,
        MergePolicy::General,
        vec![LwwOp::Write(1), LwwOp::Write(2)],
        vec![LwwQuery::Read],
        |rng| LwwOp::Write(rng.gen_range(0..100)),
        no_final_check,
    )
}

/// Certifies the grow-only set.
pub fn certify_g_set(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<GSet<u32>, _, _>(
        "G-set",
        config,
        MergePolicy::General,
        vec![GSetOp::Add(1), GSetOp::Add(2)],
        vec![GSetQuery::Lookup(1), GSetQuery::Lookup(19), GSetQuery::Read],
        |rng| GSetOp::Add(rng.gen_range(0..20)),
        no_final_check,
    )
}

/// Certifies the grow-only map of counters (α-map composition).
pub fn certify_g_map(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<MrdtMap<Counter>, _, _>(
        "G-map (α-map of counters)",
        config,
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
        |rng| {
            let key = if rng.gen_bool(0.5) { "k" } else { "j" };
            MapOp::Set(key.into(), CounterOp::Increment)
        },
        no_final_check,
    )
}

/// Certifies the mergeable log.
pub fn certify_log(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<MergeableLog<u32>, _, _>(
        "Mergeable log",
        config,
        MergePolicy::General,
        vec![LogOp::Append(1), LogOp::Append(2)],
        vec![LogQuery::Read],
        |rng| LogOp::Append(rng.gen_range(0..100)),
        no_final_check,
    )
}

fn random_set_op(rng: &mut StdRng) -> OrSetOp<u32> {
    let x = rng.gen_range(0..10);
    if rng.gen_bool(2.0 / 3.0) {
        OrSetOp::Add(x)
    } else {
        OrSetOp::Remove(x)
    }
}

fn orset_alphabet() -> Vec<OrSetOp<u32>> {
    vec![OrSetOp::Add(1), OrSetOp::Remove(1), OrSetOp::Add(2)]
}

fn orset_probes() -> Vec<OrSetQuery<u32>> {
    vec![
        OrSetQuery::Lookup(1),
        OrSetQuery::Lookup(2),
        OrSetQuery::Read,
    ]
}

/// Certifies the unoptimized OR-set.
pub fn certify_or_set(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<OrSet<u32>, _, _>(
        "OR-set",
        config,
        MergePolicy::General,
        orset_alphabet(),
        orset_probes(),
        random_set_op,
        no_final_check,
    )
}

/// Certifies the space-efficient OR-set.
pub fn certify_or_set_space(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<OrSetSpace<u32>, _, _>(
        "OR-set-space",
        config,
        MergePolicy::PaperEnvelope,
        orset_alphabet(),
        orset_probes(),
        random_set_op,
        no_final_check,
    )
}

/// Certifies the tree-backed OR-set.
pub fn certify_or_set_spacetime(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<OrSetSpacetime<u32>, _, _>(
        "OR-set-spacetime",
        config,
        MergePolicy::PaperEnvelope,
        orset_alphabet(),
        orset_probes(),
        random_set_op,
        no_final_check,
    )
}

/// Certifies the replicated queue, additionally asserting the declarative
/// queue axioms (`AddRem`, `Empty`, `FIFO_1`, `FIFO_2`) on the final
/// abstract state of every branch of every random execution.
pub fn certify_queue(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<Queue<u32>, _, _>(
        "Replicated queue",
        config,
        MergePolicy::General,
        vec![QueueOp::Enqueue(1), QueueOp::Enqueue(2), QueueOp::Dequeue],
        vec![QueueQuery::Peek],
        |rng| {
            if rng.gen_bool(0.6) {
                QueueOp::Enqueue(rng.gen_range(0..100))
            } else {
                QueueOp::Dequeue
            }
        },
        |snapshots| {
            for (branch, snap) in snapshots {
                if !queue::axioms::all(&snap.abstract_state) {
                    return Err(format!("queue axioms violated on branch {branch}"));
                }
            }
            Ok(())
        },
    )
}

/// Certifies the IRC-style chat (α-map of mergeable logs).
pub fn certify_chat(config: &SuiteConfig) -> CertificationSummary {
    certify_type::<Chat, _, _>(
        "IRC chat (map of logs)",
        config,
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
        |rng| {
            let ch = if rng.gen_bool(0.5) { "#a" } else { "#b" };
            ChatOp::Send(ch.into(), format!("m{}", rng.gen_range(0..1000)))
        },
        no_final_check,
    )
}

/// Shape of a replication-certification (`Φ_ra`) run: how many
/// fault-injected fleet executions per data type, and the fleet shape of
/// each. Failures print the failing run's seed; set `PEEPUL_REPLAY=<seed>`
/// to replay exactly that schedule.
#[derive(Clone, Debug)]
pub struct RaLinSuiteConfig {
    /// Fleet executions per data type.
    pub runs: usize,
    /// Independent replicas per fleet.
    pub replicas: usize,
    /// Operations per replica per fleet.
    pub ops_per_replica: usize,
    /// Ring-gossip period during the run.
    pub gossip_every: usize,
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Seeded per-link message loss, in per-mille.
    pub loss_per_mille: u16,
    /// Partition one replica for the whole run (healed before
    /// anti-entropy).
    pub partition_one: bool,
    /// Replication-layer mutant to enact during the runs
    /// ([`ReplicationMutation::None`] for a faithful layer). Non-`None`
    /// values exist to *fail*: they drive the kill-gate and the
    /// seed-replay test.
    pub mutation: ReplicationMutation,
}

impl Default for RaLinSuiteConfig {
    fn default() -> Self {
        RaLinSuiteConfig {
            runs: 5,
            replicas: 8,
            ops_per_replica: 10,
            gossip_every: 3,
            seed: RandomConfig::default().seed,
            loss_per_mille: 100,
            partition_one: true,
            mutation: ReplicationMutation::None,
        }
    }
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
    /// Whether the specification replays were skipped
    /// ([`RaLinOptions::structural`] — types certified relative to the
    /// merge envelope, whose spec is not owed over arbitrary fleet
    /// merges).
    pub structural: bool,
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

/// Replication-certifies one data type: `config.runs` fault-injected
/// fleet executions, each recorded as a witness history and checked with
/// `Φ_ra`. `op_of` derives each operation from a
/// [`fleet_entropy`](crate::ralin::fleet_entropy) value, so a run is a
/// pure function of its seed; on failure the seed is named in the
/// failure message and `PEEPUL_REPLAY=<seed>` re-runs exactly that
/// schedule.
pub fn ra_lin_type<M>(
    name: &'static str,
    config: &RaLinSuiteConfig,
    options: RaLinOptions,
    op_of: impl Fn(u64) -> M::Op + Send + Sync,
    probes: Vec<M::Query>,
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
    for run in 0..config.runs {
        let seed = replay.unwrap_or_else(|| config.seed.wrapping_add(run as u64));
        let fleet = FleetConfig {
            replicas: config.replicas,
            ops_per_replica: config.ops_per_replica,
            gossip_every: config.gossip_every,
            seed,
            loss_per_mille: config.loss_per_mille,
            partition_one: config.partition_one,
            options,
            mutation: config.mutation,
        };
        match check_fleet::<M>(&fleet, &op_of, &probes) {
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
        structural: !options.replay_rvals && !options.replay_queries,
        failure,
    }
}

/// `Φ_ra` for the increment-only counter fleet.
pub fn ra_lin_counter(config: &RaLinSuiteConfig) -> RaLinSummary {
    ra_lin_type::<Counter>(
        "Increment-only counter",
        config,
        RaLinOptions::default(),
        |_| CounterOp::Increment,
        vec![CounterQuery::Value],
    )
}

/// `Φ_ra` for the LWW-register fleet.
pub fn ra_lin_lww_register(config: &RaLinSuiteConfig) -> RaLinSummary {
    ra_lin_type::<LwwRegister<u32>>(
        "LWW register",
        config,
        RaLinOptions::default(),
        |s| LwwOp::Write((s % 100) as u32),
        vec![LwwQuery::Read],
    )
}

/// `Φ_ra` for the replicated-queue fleet.
pub fn ra_lin_queue(config: &RaLinSuiteConfig) -> RaLinSummary {
    ra_lin_type::<Queue<u32>>(
        "Replicated queue",
        config,
        RaLinOptions::default(),
        |s| {
            if s % 5 < 3 {
                QueueOp::Enqueue((s % 100) as u32)
            } else {
                QueueOp::Dequeue
            }
        },
        vec![QueueQuery::Peek],
    )
}

/// `Φ_ra` for the mergeable-log fleet.
pub fn ra_lin_log(config: &RaLinSuiteConfig) -> RaLinSummary {
    ra_lin_type::<MergeableLog<u32>>(
        "Mergeable log",
        config,
        RaLinOptions::default(),
        |s| LogOp::Append((s % 100) as u32),
        vec![LogQuery::Read],
    )
}

/// `Φ_ra` for the α-map-of-counters fleet.
pub fn ra_lin_g_map(config: &RaLinSuiteConfig) -> RaLinSummary {
    ra_lin_type::<MrdtMap<Counter>>(
        "G-map (α-map of counters)",
        config,
        RaLinOptions::default(),
        |s| {
            let key = if s % 2 == 0 { "k" } else { "j" };
            MapOp::Set(key.into(), CounterOp::Increment)
        },
        vec![
            MapQuery::Get("k".into(), CounterQuery::Value),
            MapQuery::Get("j".into(), CounterQuery::Value),
        ],
    )
}

/// `Φ_ra` for the space-efficient OR-set fleet — **structural mode**: the
/// type is certified relative to the paper's strong-Ψ_lca merge envelope
/// ([`MergePolicy::PaperEnvelope`]), and a fleet's gossip merges are
/// arbitrary, so its declarative spec is not owed over them. The
/// structural axioms (happens-before consistency, causal delivery,
/// monotonic visibility, session guarantees) are checked in full.
pub fn ra_lin_or_set_space(config: &RaLinSuiteConfig) -> RaLinSummary {
    ra_lin_type::<OrSetSpace<u32>>(
        "OR-set-space",
        config,
        RaLinOptions::structural(),
        |s| {
            let x = (s % 10) as u32;
            if s % 3 < 2 {
                OrSetOp::Add(x)
            } else {
                OrSetOp::Remove(x)
            }
        },
        orset_probes(),
    )
}

/// Replication-certifies the `Φ_ra` fleet suite: one entry per data type.
pub fn certify_replication(config: &RaLinSuiteConfig) -> Vec<RaLinSummary> {
    vec![
        ra_lin_counter(config),
        ra_lin_lww_register(config),
        ra_lin_queue(config),
        ra_lin_log(config),
        ra_lin_g_map(config),
        ra_lin_or_set_space(config),
    ]
}

/// Certifies every data type in `peepul-types`, in Table 3 order.
pub fn certify_all(config: &SuiteConfig) -> Vec<CertificationSummary> {
    vec![
        certify_counter(config),
        certify_pn_counter(config),
        certify_ew_flag(config),
        certify_ew_flag_space(config),
        certify_lww_register(config),
        certify_g_set(config),
        certify_g_map(config),
        certify_log(config),
        certify_or_set(config),
        certify_or_set_space(config),
        certify_or_set_spacetime(config),
        certify_queue(config),
        certify_chat(config),
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
            random: RandomConfig {
                steps: 60,
                max_branches: 3,
                ..RandomConfig::default()
            },
        }
    }

    #[test]
    fn counter_certifies() {
        let s = certify_counter(&quick());
        assert!(s.passed(), "{:?}", s.failure);
        assert!(s.obligations.total() > 0);
    }

    #[test]
    fn or_sets_certify() {
        for s in [
            certify_or_set(&quick()),
            certify_or_set_space(&quick()),
            certify_or_set_spacetime(&quick()),
        ] {
            assert!(s.passed(), "{}: {:?}", s.name, s.failure);
        }
    }

    #[test]
    fn queue_certifies_with_axioms() {
        let s = certify_queue(&quick());
        assert!(s.passed(), "{:?}", s.failure);
    }

    #[test]
    fn composites_certify() {
        for s in [certify_g_map(&quick()), certify_chat(&quick())] {
            assert!(s.passed(), "{}: {:?}", s.name, s.failure);
        }
    }
}
