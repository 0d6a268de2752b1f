//! `Φ_ra` — replication-aware linearizability over whole-fleet executions.
//!
//! The Table 2 obligations certify one store: every `do` and every
//! three-way merge preserves the simulation relation, and every query
//! agrees with the declarative specification `F_τ`. This module certifies
//! the **replication layer** carrying those stores: a whole-fleet
//! execution — local operations, pack ingests and head integrations on
//! `n` independent replicas, under fault-injected schedules — must admit
//! a *linearization* of the global operation history that
//!
//! 1. respects every replica's local order and the Lamport happens-before
//!    edges, and
//! 2. replays through `F_τ` to reproduce every update return value and
//!    every query output observed at every replica.
//!
//! This is replication-aware linearizability in the sense of Enea et
//! al. 2019 (and of the Peepul authors' follow-up work on verifying it
//! automatically): the sequential witness order is the timestamp order,
//! and each operation/observation is explained by `F_τ` over exactly the
//! events *visible* to it, not over the whole prefix.
//!
//! # The witness structure
//!
//! A [`HistoryRecorder`] attaches to every node of a replicated
//! [`Cluster`] (through `peepul-net`'s [`HistoryObserver`] hook, which
//! fires inside the emitting replica's store lock) and accumulates a
//! [`WitnessHistory`]:
//!
//! * a global event table: for each minted timestamp `t`, the operation,
//!   its return value, and its recorded causal past (the operation events
//!   in its branch's ancestry at commit time);
//! * one trace per replica: `Op(t)` (performed locally), `Learn(ts)`
//!   (ingested a pack, in pack order), `Head(visible)` (integrated remote
//!   history into the local branch), and `Observe{q, output, visible}`
//!   (answered a query probe).
//!
//! # What [`check_ra_lin`] verifies
//!
//! * **hb-timestamp consistency** — every recorded past edge points to an
//!   existing event that orders strictly before its observer (the Lamport
//!   receive rule, end to end);
//! * **downward closure** — causal pasts are transitively closed, so the
//!   timestamp order is a linearization whose every prefix is
//!   visibility-closed;
//! * **return-value replay** — each update's return value equals
//!   `F_τ(op, past)` over its recorded visible sub-execution (rebuilt
//!   with [`AbstractState::from_witness`](peepul_core::AbstractState));
//! * **session walk** — per replica, in trace order: an operation's past
//!   is exactly the branch's visible set; packs are learned in causal
//!   order (no event before its dependencies); head integration only
//!   grows the visible set and keeps it downward-closed; every
//!   observation happens at the current visible set and its output equals
//!   `F_τ(q, visible)`.
//!
//! Each check is the one that kills one of the deliberate
//! [`ReplicationMutation`]s — see [`run_replication_mutants`], the mutant
//! kill-gate CI runs.

use crate::generator::RandomConfig;
use peepul_core::obligations::{Certified, Obligation, ObligationError};
use peepul_core::{AbstractOf, Mrdt, Specification, Timestamp};
use peepul_net::{
    ChannelTransport, Cluster, HistoryObserver, Remote, Replica, ReplicationMutation,
};
use peepul_store::{Backend, MemoryBackend};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded operation event of a fleet execution.
#[derive(Clone, Debug)]
struct WitnessEvent<M: Mrdt> {
    op: M::Op,
    rval: M::Value,
    /// The operation events in the minting branch's ancestry at commit
    /// time — `vis⁻¹` of this event, as the replica *claimed* it.
    past: BTreeSet<Timestamp>,
}

/// One entry of a replica's session trace, in store-mutation order.
#[derive(Clone, Debug)]
enum TraceRecord<M: Mrdt> {
    /// Performed a local operation minting this timestamp.
    Op(Timestamp),
    /// Ingested a pack introducing these events, in pack order.
    Learn(Vec<Timestamp>),
    /// Integrated remote history; the local head's visible set is now this.
    Head(Vec<Timestamp>),
    /// Answered a query probe at a head with this visible set.
    Observe {
        q: M::Query,
        output: M::Output,
        visible: Vec<Timestamp>,
    },
}

/// The witness structure of one fleet execution: the global event table
/// plus one session trace per replica. Usually recorded live by a
/// [`HistoryRecorder`]; the hand-building methods exist so the checker's
/// own tests can construct histories no healthy fleet would produce.
#[derive(Clone, Debug)]
pub struct WitnessHistory<M: Mrdt> {
    events: BTreeMap<Timestamp, WitnessEvent<M>>,
    traces: BTreeMap<String, Vec<TraceRecord<M>>>,
    /// First duplicated mint, if any — a fleet-level Ψ_ts violation the
    /// checker reports rather than panics on.
    duplicate: Option<Timestamp>,
    /// Records a bounded recorder refused to retain. A non-zero count
    /// makes the history *truncated*: [`check_ra_lin`] refuses it, since
    /// missing records could hide exactly the violation being checked
    /// for.
    dropped: u64,
}

impl<M: Mrdt> WitnessHistory<M> {
    /// An empty history.
    pub fn new() -> Self {
        WitnessHistory {
            events: BTreeMap::new(),
            traces: BTreeMap::new(),
            duplicate: None,
            dropped: 0,
        }
    }

    fn trace(&mut self, replica: &str) -> &mut Vec<TraceRecord<M>> {
        self.traces.entry(replica.to_owned()).or_default()
    }

    /// Records a local operation: `replica` minted `t` with return value
    /// `rval`, observing exactly `past`.
    pub fn record_op(
        &mut self,
        replica: &str,
        t: Timestamp,
        op: M::Op,
        rval: M::Value,
        past: BTreeSet<Timestamp>,
    ) {
        if self
            .events
            .insert(t, WitnessEvent { op, rval, past })
            .is_some()
        {
            self.duplicate.get_or_insert(t);
        }
        self.trace(replica).push(TraceRecord::Op(t));
    }

    /// Records a pack ingest: `replica` learned `events`, in pack order.
    pub fn record_learn(&mut self, replica: &str, events: Vec<Timestamp>) {
        self.trace(replica).push(TraceRecord::Learn(events));
    }

    /// Records a head integration: `replica`'s local branch now sees
    /// exactly `visible`.
    pub fn record_head(&mut self, replica: &str, visible: Vec<Timestamp>) {
        self.trace(replica).push(TraceRecord::Head(visible));
    }

    /// Records a query probe answered at a head seeing exactly `visible`.
    pub fn record_observe(
        &mut self,
        replica: &str,
        q: M::Query,
        output: M::Output,
        visible: Vec<Timestamp>,
    ) {
        self.trace(replica)
            .push(TraceRecord::Observe { q, output, visible });
    }

    /// Number of recorded operation events.
    pub fn events(&self) -> usize {
        self.events.len()
    }

    /// Total trace records across all replicas.
    pub fn records(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }

    /// Number of replicas that emitted at least one record.
    pub fn replicas(&self) -> usize {
        self.traces.len()
    }

    /// Marks one record as dropped by a capacity-bounded recorder.
    pub fn note_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Records a bounded recorder dropped instead of retaining.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether any record was dropped — a truncated history cannot be
    /// certified.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

impl<M: Mrdt> Default for WitnessHistory<M> {
    fn default() -> Self {
        WitnessHistory::new()
    }
}

/// The standard [`HistoryObserver`]: accumulates a [`WitnessHistory`]
/// behind a mutex. One instance is shared by every node of a cluster;
/// callbacks append under the emitting replica's store lock, so each
/// replica's trace is exactly its store-mutation order.
///
/// A recorder is unbounded by default — the right mode for the bounded
/// fleets the certification suites drive. [`HistoryRecorder::bounded`]
/// caps the retained trace records for long-running instrumented fleets;
/// overflow is accounted explicitly (never silent) and a truncated
/// snapshot is refused by [`check_ra_lin`].
#[derive(Debug, Default)]
pub struct HistoryRecorder<M: Mrdt> {
    history: Mutex<WitnessHistory<M>>,
    capacity: Option<usize>,
    dropped: Arc<AtomicU64>,
}

impl<M: Mrdt> HistoryRecorder<M> {
    /// An unbounded recorder with an empty history.
    pub fn new() -> Self {
        HistoryRecorder {
            history: Mutex::new(WitnessHistory::new()),
            capacity: None,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A recorder retaining at most `capacity` trace records. Further
    /// records are counted as dropped, which marks the history truncated.
    pub fn bounded(capacity: usize) -> Self {
        HistoryRecorder {
            capacity: Some(capacity),
            ..HistoryRecorder::new()
        }
    }

    /// Records this recorder refused to retain (0 while under capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publishes the recorder's occupancy as live gauges on an
    /// observability registry: `peepul_verify_witness_records` (retained)
    /// and `peepul_verify_witness_dropped` (refused — non-zero means no
    /// snapshot of this recorder can certify).
    pub fn publish_gauges(self: &Arc<Self>, registry: &peepul_obs::Registry)
    where
        M: 'static,
        M::Op: Send,
        M::Value: Send,
        M::Query: Send,
        M::Output: Send,
    {
        let recorder = Arc::clone(self);
        registry.gauge_fn("peepul_verify_witness_records", move || {
            recorder
                .history
                .lock()
                .expect("witness recorder poisoned")
                .records() as f64
        });
        let dropped = Arc::clone(&self.dropped);
        registry.gauge_fn("peepul_verify_witness_dropped", move || {
            dropped.load(Ordering::Relaxed) as f64
        });
    }

    /// Runs `record` against the history if capacity allows, else
    /// accounts the drop (in the shared counter and the history itself,
    /// so snapshots carry their own truncation evidence).
    fn retain(&self, record: impl FnOnce(&mut WitnessHistory<M>)) {
        let mut history = self.history.lock().expect("witness recorder poisoned");
        if self.capacity.is_some_and(|cap| history.records() >= cap) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            history.note_dropped();
        } else {
            record(&mut history);
        }
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> WitnessHistory<M> {
        self.history
            .lock()
            .expect("witness recorder poisoned")
            .clone()
    }
}

impl<M: Mrdt> HistoryObserver<M> for HistoryRecorder<M>
where
    M::Op: Send,
    M::Value: Send,
    M::Query: Send,
    M::Output: Send,
{
    fn local_op(
        &self,
        replica: &str,
        t: Timestamp,
        op: &M::Op,
        rval: &M::Value,
        visible: &[Timestamp],
    ) {
        self.retain(|h| {
            h.record_op(
                replica,
                t,
                op.clone(),
                rval.clone(),
                visible.iter().copied().collect(),
            );
        });
    }

    fn learned(&self, replica: &str, events: &[Timestamp]) {
        self.retain(|h| h.record_learn(replica, events.to_vec()));
    }

    fn head_advanced(&self, replica: &str, visible: &[Timestamp]) {
        self.retain(|h| h.record_head(replica, visible.to_vec()));
    }

    fn observed(&self, replica: &str, q: &M::Query, output: &M::Output, visible: &[Timestamp]) {
        self.retain(|h| h.record_observe(replica, q.clone(), output.clone(), visible.to_vec()));
    }
}

/// Which parts of the witness [`check_ra_lin`] replays through `F_τ`.
///
/// The default replays everything. [`RaLinOptions::structural`] skips the
/// specification replays and checks only the structural axioms
/// (happens-before consistency, causal delivery, monotonic visibility,
/// session guarantees) — for data types certified relative to the
/// paper's strong-Ψ_lca merge envelope ([`crate::runner::MergePolicy`]):
/// a fleet's gossip merges are arbitrary, so such a type's declarative
/// spec is not owed over them, exactly as the single-store harness skips
/// out-of-envelope merges.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaLinOptions {
    /// Replay each update's return value as `F_τ(op, past)`.
    pub replay_rvals: bool,
    /// Replay each observation's output as `F_τ(q, visible)`.
    pub replay_queries: bool,
}

impl Default for RaLinOptions {
    fn default() -> Self {
        RaLinOptions {
            replay_rvals: true,
            replay_queries: true,
        }
    }
}

impl RaLinOptions {
    /// Structural checking only — no specification replays.
    pub fn structural() -> Self {
        RaLinOptions {
            replay_rvals: false,
            replay_queries: false,
        }
    }
}

/// What one [`check_ra_lin`] pass established.
#[derive(Copy, Clone, Debug, Default)]
pub struct RaLinStats {
    /// Operation events in the witness.
    pub events: u64,
    /// Trace records walked across all replicas.
    pub records: u64,
    /// Query observations checked.
    pub observations: u64,
    /// Replicas contributing to the history.
    pub replicas: u64,
    /// Linearization prefixes validated by specification replay (one per
    /// replayed return value plus one per replayed observation).
    pub linearizations: u64,
}

impl RaLinStats {
    /// Accumulates another pass into this one.
    pub fn absorb(&mut self, other: &RaLinStats) {
        self.events += other.events;
        self.records += other.records;
        self.observations += other.observations;
        self.replicas += other.replicas;
        self.linearizations += other.linearizations;
    }
}

/// The visible sub-execution at `vis`, rebuilt from the witness.
fn project<M: Certified>(
    events: &BTreeMap<Timestamp, WitnessEvent<M>>,
    vis: &BTreeSet<Timestamp>,
) -> AbstractOf<M> {
    AbstractOf::<M>::from_witness(vis.iter().map(|t| {
        let ev = &events[t];
        (ev.op.clone(), ev.rval.clone(), *t, ev.past.clone())
    }))
}

/// Checks `Φ_ra` on a recorded fleet history: the timestamp order is a
/// linearization respecting every replica's session and the
/// happens-before edges, and (unless disabled in `options`) replaying it
/// through `F_τ` reproduces every recorded return value and observation.
/// See the [module docs](self) for the axiom-by-axiom breakdown.
///
/// # Errors
///
/// The first violated axiom as an [`ObligationError`] naming
/// [`Obligation::RaLin`], with a counterexample description.
pub fn check_ra_lin<M: Certified>(
    history: &WitnessHistory<M>,
    options: &RaLinOptions,
) -> Result<RaLinStats, ObligationError> {
    let err = |msg: String| ObligationError::new(Obligation::RaLin, msg);
    if history.truncated() {
        return Err(err(format!(
            "witness history is truncated: a bounded recorder dropped {} record(s) — the \
             missing records could hide exactly the violation under test, so a truncated \
             history certifies nothing; raise the recorder capacity",
            history.dropped()
        )));
    }
    if let Some(t) = history.duplicate {
        return Err(err(format!(
            "two replicas minted the same timestamp {t:?} — Ψ_ts is violated fleet-wide, \
             no linearization can contain the event twice"
        )));
    }
    let events = &history.events;
    let mut linearizations = 0u64;

    // Happens-before / timestamp consistency: every past edge points to a
    // real event that orders strictly before its observer.
    for (t, ev) in events {
        for e in &ev.past {
            let Some(seen) = events.get(e) else {
                return Err(err(format!(
                    "event {t:?} observed {e:?}, which no replica ever performed"
                )));
            };
            if e >= t {
                return Err(err(format!(
                    "happens-before/timestamp inversion: {t:?} observed {e:?} but does not \
                     order after it — the Lamport receive rule did not hold"
                )));
            }
            // Downward closure: the linearization's prefixes must be
            // visibility-closed.
            if let Some(missing) = seen.past.iter().find(|f| !ev.past.contains(f)) {
                return Err(err(format!(
                    "visibility is not transitively closed: {t:?} observed {e:?} but not \
                     {missing:?} from its past"
                )));
            }
        }
    }

    // Return-value replay: each event against its visible sub-execution.
    if options.replay_rvals {
        for (t, ev) in events {
            let abs = project::<M>(events, &ev.past);
            let specified = M::Spec::spec(&ev.op, &abs);
            linearizations += 1;
            if specified != ev.rval {
                return Err(err(format!(
                    "no linearization explains {:?} at {t:?}: it returned {:?} but F_τ over \
                     its {} visible events specifies {:?}",
                    ev.op,
                    ev.rval,
                    abs.len(),
                    specified
                )));
            }
        }
    }

    // Session walk: each replica's trace against the sets it could
    // actually know (`known`) and see on its branch (`visible`).
    let mut observations = 0u64;
    for (replica, trace) in &history.traces {
        let mut known: BTreeSet<Timestamp> = BTreeSet::new();
        let mut visible: BTreeSet<Timestamp> = BTreeSet::new();
        for rec in trace {
            match rec {
                TraceRecord::Op(t) => {
                    let ev = events.get(t).ok_or_else(|| {
                        err(format!(
                            "trace of {replica} performs unrecorded event {t:?}"
                        ))
                    })?;
                    if ev.past != visible {
                        return Err(err(format!(
                            "session guarantee violated on {replica}: the op at {t:?} \
                             recorded past {:?} but its branch's visible events were {:?} — \
                             a visibility edge was dropped or invented",
                            ev.past, visible
                        )));
                    }
                    known.insert(*t);
                    visible.insert(*t);
                }
                TraceRecord::Learn(ts) => {
                    for f in ts {
                        let ev = events.get(f).ok_or_else(|| {
                            err(format!("trace of {replica} learns unrecorded event {f:?}"))
                        })?;
                        if let Some(dep) = ev.past.iter().find(|e| !known.contains(e)) {
                            return Err(err(format!(
                                "causal delivery violated on {replica}: learned {f:?} before \
                                 its causal dependency {dep:?} — the pack was ingested out \
                                 of order"
                            )));
                        }
                        known.insert(*f);
                    }
                }
                TraceRecord::Head(vis) => {
                    let next: BTreeSet<Timestamp> = vis.iter().copied().collect();
                    if let Some(unknown) = next.iter().find(|e| !known.contains(e)) {
                        return Err(err(format!(
                            "phantom visibility on {replica}: head integration made {unknown:?} \
                             visible before the replica ever learned it"
                        )));
                    }
                    if let Some(lost) = visible.iter().find(|e| !next.contains(e)) {
                        return Err(err(format!(
                            "monotonic visibility violated on {replica}: head integration lost \
                             previously visible event {lost:?} — remote history replaced the \
                             local branch instead of merging with it"
                        )));
                    }
                    for f in &next {
                        if let Some(missing) = events[f].past.iter().find(|e| !next.contains(e)) {
                            return Err(err(format!(
                                "head of {replica} is not visibility-closed: sees {f:?} but \
                                 not {missing:?} from its past"
                            )));
                        }
                    }
                    visible = next;
                }
                TraceRecord::Observe {
                    q,
                    output,
                    visible: vis,
                } => {
                    observations += 1;
                    let at: BTreeSet<Timestamp> = vis.iter().copied().collect();
                    if at != visible {
                        return Err(err(format!(
                            "observation on {replica} answered at visible set {at:?} but the \
                             session's branch saw {visible:?}"
                        )));
                    }
                    if options.replay_queries {
                        let abs = project::<M>(events, &at);
                        let specified = M::Spec::query(q, &abs);
                        linearizations += 1;
                        if &specified != output {
                            return Err(err(format!(
                                "observation not explained by any linearization: query {q:?} \
                                 on {replica} answered {output:?} but F_τ over its {} visible \
                                 events specifies {specified:?}",
                                abs.len()
                            )));
                        }
                    }
                }
            }
        }
    }

    Ok(RaLinStats {
        events: history.events() as u64,
        records: history.records() as u64,
        observations,
        replicas: history.replicas() as u64,
        linearizations,
    })
}

/// Deterministic per-(seed, replica, round) entropy for fleet operation
/// generation — a splitmix64-style mix, so the operation stream is a pure
/// function of the run seed and independent of thread scheduling.
pub fn fleet_entropy(seed: u64, replica: u64, round: u64) -> u64 {
    let mut z = seed
        ^ replica.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ round.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed requested through the `PEEPUL_REPLAY` environment variable,
/// if any. When a fleet run fails, its failure message names the run's
/// seed; re-running the same suite with `PEEPUL_REPLAY=<seed>` replays
/// exactly that schedule (and only it). Unparseable values are ignored.
pub fn replay_seed() -> Option<u64> {
    std::env::var("PEEPUL_REPLAY").ok()?.trim().parse().ok()
}

/// Shape of one recorded-and-checked fleet execution.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of independent replicas.
    pub replicas: usize,
    /// Operations each replica performs.
    pub ops_per_replica: usize,
    /// Ring-gossip period during the run (0 = no gossip until
    /// anti-entropy).
    pub gossip_every: usize,
    /// Seed of the operation stream and the loss plans.
    pub seed: u64,
    /// Seeded message loss on every link, in per-mille (0 = lossless).
    pub loss_per_mille: u16,
    /// Partition replica 0's outgoing link for the whole run (healed
    /// before anti-entropy), so part of the history spreads late.
    pub partition_one: bool,
    /// Which specification replays to run.
    pub options: RaLinOptions,
    /// Deliberate replication fault to enact on every node —
    /// [`ReplicationMutation::None`] for certification runs; the other
    /// variants exist for the kill-gate and for replay-debugging it.
    pub mutation: ReplicationMutation,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 4,
            ops_per_replica: 12,
            gossip_every: 3,
            seed: RandomConfig::default().seed,
            loss_per_mille: 100,
            partition_one: true,
            options: RaLinOptions::default(),
            mutation: ReplicationMutation::None,
        }
    }
}

/// Runs one fault-injected fleet execution over fresh in-memory replicas,
/// records its witness history, and checks `Φ_ra` — see
/// [`check_fleet_on`] for the steps.
///
/// # Errors
///
/// A rendered failure: infrastructure errors, convergence failure, or
/// the `Φ_ra` counterexample.
pub fn check_fleet<M>(
    config: &FleetConfig,
    op_of: impl Fn(u64) -> M::Op + Send + Sync,
    probes: &[M::Query],
) -> Result<RaLinStats, String>
where
    M: Certified + Send + Sync + 'static,
    M::Op: Send,
    M::Value: Send,
    M::Query: Send,
    M::Output: Send,
{
    let cluster: Cluster<M> =
        Cluster::new(config.replicas).map_err(|e| format!("building cluster: {e}"))?;
    check_fleet_on(&cluster, config, op_of, probes)
}

/// Runs one fault-injected fleet execution on an existing replicated
/// cluster (any backends — memory, segment, mixed):
///
/// 1. attach a [`HistoryRecorder`] to every node (and the configured
///    [`ReplicationMutation`], if any);
/// 2. seed the fault plans: per-link loss, optionally a partition of
///    replica 0's link;
/// 3. run `ops_per_replica` operations per replica with ring gossip, in
///    deterministic lockstep ([`Cluster::run_lockstep`]): with the
///    [`fleet_entropy`]-derived operation stream and seeded fault plans,
///    the entire execution is a pure function of the seed — which is
///    what makes `PEEPUL_REPLAY` failure replay exact;
/// 4. heal all links and converge by anti-entropy, requiring all final
///    states observably equal (the *conventional* check);
/// 5. probe every replica with every query in `probes` (each probe is
///    recorded as an observation);
/// 6. [`check_ra_lin`] the recorded history.
///
/// # Errors
///
/// A rendered failure: infrastructure errors, convergence failure, or
/// the `Φ_ra` counterexample.
pub fn check_fleet_on<M, B>(
    cluster: &Cluster<M, B>,
    config: &FleetConfig,
    op_of: impl Fn(u64) -> M::Op + Send + Sync,
    probes: &[M::Query],
) -> Result<RaLinStats, String>
where
    M: Certified + Send + Sync + 'static,
    B: Backend + Send + Sync + 'static,
    M::Op: Send,
    M::Value: Send,
    M::Query: Send,
    M::Output: Send,
{
    let recorder = Arc::new(HistoryRecorder::<M>::new());
    cluster.set_observer(recorder.clone());
    if config.mutation != ReplicationMutation::None {
        cluster.set_mutation(config.mutation);
    }
    for i in 0..cluster.replicas() {
        let faults = cluster
            .faults(i)
            .expect("replicated cluster has fault plans");
        if config.loss_per_mille > 0 {
            faults.set_loss(config.loss_per_mille, config.seed.wrapping_add(i as u64));
        }
        if config.partition_one && i == 0 {
            faults.partition();
        }
    }
    cluster
        .run_lockstep(
            config.ops_per_replica,
            config.gossip_every,
            |replica, round| op_of(fleet_entropy(config.seed, replica as u64, round as u64)),
        )
        .map_err(|e| format!("fleet run: {e}"))?;
    for i in 0..cluster.replicas() {
        let faults = cluster
            .faults(i)
            .expect("replicated cluster has fault plans");
        faults.set_loss(0, 0);
        faults.heal();
    }
    let states = cluster
        .converge()
        .map_err(|e| format!("anti-entropy: {e}"))?;
    for (i, s) in states.iter().enumerate().skip(1) {
        if !states[0].observably_equal(s) {
            return Err(format!("replicas 0 and {i} diverged after anti-entropy"));
        }
    }
    for i in 0..cluster.replicas() {
        for q in probes {
            cluster
                .read(i, q)
                .map_err(|e| format!("probing replica {i}: {e}"))?;
        }
    }
    check_ra_lin(&recorder.snapshot(), &config.options).map_err(|e| e.to_string())
}

/// What happened to one deliberately broken replication layer under the
/// kill-gate: the scenario is run twice, once faithful (the baseline must
/// certify) and once with the mutation enacted (Φ_ra must kill it while
/// conventional convergence still passes).
#[derive(Clone, Debug)]
pub struct MutantOutcome {
    /// The fault that was enacted.
    pub mutation: ReplicationMutation,
    /// The same scenario with the fault disabled certified cleanly.
    pub baseline_ok: bool,
    /// The mutated run still converged — i.e. the conventional check
    /// cannot see this fault.
    pub converged: bool,
    /// `Φ_ra` rejected the mutated run.
    pub killed: bool,
    /// The counterexample (or survival description).
    pub detail: String,
}

impl MutantOutcome {
    /// The kill-gate verdict: the fault is invisible to convergence
    /// checking and caught by `Φ_ra`, on a scenario that is clean when
    /// the fault is off.
    pub fn caught(&self) -> bool {
        self.baseline_ok && self.converged && self.killed
    }
}

/// One deterministic two-replica scenario shaped for `mutation`, run with
/// the fault enacted or not. Single-threaded: every apply/pull is
/// explicit, so the witness (and hence the verdict) is reproducible.
fn mutant_scenario(
    mutation: ReplicationMutation,
    enact: bool,
) -> (Result<RaLinStats, ObligationError>, bool) {
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};
    let r0: Replica<Counter, MemoryBackend> =
        Replica::open("mutant-r0", "main", MemoryBackend::new()).expect("open r0");
    let r1: Replica<Counter, MemoryBackend> =
        Replica::open("mutant-r1", "main", MemoryBackend::new()).expect("open r1");
    let recorder = Arc::new(HistoryRecorder::<Counter>::new());
    r0.set_observer(recorder.clone());
    r1.set_observer(recorder.clone());
    if enact {
        r0.set_replication_mutation(mutation);
    }
    let mut to_r1 = Remote::new("mutant-r1", ChannelTransport::connect(r1.clone()));
    let mut to_r0 = Remote::new("mutant-r0", ChannelTransport::connect(r0.clone()));
    let inc = CounterOp::Increment;
    match mutation {
        ReplicationMutation::None | ReplicationMutation::BrokenReceiveRule => {
            // r0 is behind r1 in ticks; after pulling r1's longer history,
            // its next mint must order after everything it ingested. The
            // mutant rewinds the clock at ingest, so that mint lands *under*
            // the observed events.
            for _ in 0..2 {
                r0.apply("main", &inc).expect("apply");
            }
            for _ in 0..8 {
                r1.apply("main", &inc).expect("apply");
            }
            r0.pull(&mut to_r1, "main").expect("pull");
            r0.apply("main", &inc).expect("apply");
            r1.pull(&mut to_r0, "main").expect("pull");
        }
        ReplicationMutation::ReorderedPackIngest => {
            // A three-deep chain crosses in one pack; the mutant witnesses
            // children before parents.
            for _ in 0..3 {
                r1.apply("main", &inc).expect("apply");
            }
            r0.pull(&mut to_r1, "main").expect("pull");
            r0.apply("main", &inc).expect("apply");
            r1.pull(&mut to_r0, "main").expect("pull");
        }
        ReplicationMutation::SkipDivergenceCheck => {
            // Both sides have unmerged work; the mutant force-tracks the
            // remote head, silently discarding r0's own event from its
            // visible set — the heads still agree afterwards.
            r0.apply("main", &inc).expect("apply");
            r1.apply("main", &inc).expect("apply");
            r0.pull(&mut to_r1, "main").expect("pull");
            r1.pull(&mut to_r0, "main").expect("pull");
        }
        ReplicationMutation::DropVisibilityEdge => {
            // r0's first own operation after pulling r1 must witness the
            // pulled event; the mutant drops that edge from its record.
            r1.apply("main", &inc).expect("apply");
            r0.pull(&mut to_r1, "main").expect("pull");
            r0.apply("main", &inc).expect("apply");
            r1.pull(&mut to_r0, "main").expect("pull");
        }
    }
    r0.read_observed("main", &CounterQuery::Value)
        .expect("read r0");
    r1.read_observed("main", &CounterQuery::Value)
        .expect("read r1");
    let s0 = r0.state("main").expect("state r0");
    let s1 = r1.state("main").expect("state r1");
    let converged = s0.observably_equal(&s1);
    (
        check_ra_lin(&recorder.snapshot(), &RaLinOptions::default()),
        converged,
    )
}

/// The mutant kill-gate: enacts each deliberate [`ReplicationMutation`]
/// in a scenario shaped to exercise it and reports whether `Φ_ra` — and
/// only `Φ_ra`; every mutated run still passes conventional convergence
/// checking — killed it. CI hard-fails on any surviving mutant.
pub fn run_replication_mutants() -> Vec<MutantOutcome> {
    [
        ReplicationMutation::BrokenReceiveRule,
        ReplicationMutation::ReorderedPackIngest,
        ReplicationMutation::SkipDivergenceCheck,
        ReplicationMutation::DropVisibilityEdge,
    ]
    .into_iter()
    .map(|mutation| {
        let (baseline, baseline_converged) = mutant_scenario(mutation, false);
        let baseline_ok = baseline.is_ok() && baseline_converged;
        let (mutated, converged) = mutant_scenario(mutation, true);
        let (killed, detail) = match mutated {
            Err(e) if e.obligation() == Obligation::RaLin => (true, e.to_string()),
            Err(e) => (false, format!("rejected by the wrong obligation: {e}")),
            Ok(_) => (false, "mutant survived Φ_ra".to_owned()),
        };
        MutantOutcome {
            mutation,
            baseline_ok,
            converged,
            killed,
            detail,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::ReplicaId;
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};
    use peepul_types::queue::{Queue, QueueOp, QueueValue};

    fn ts(tick: u64, r: u32) -> Timestamp {
        Timestamp::new(tick, ReplicaId::new(r))
    }

    /// A hand-built healthy two-replica counter history certifies.
    #[test]
    fn healthy_hand_built_history_is_accepted() {
        let mut h = WitnessHistory::<Counter>::new();
        let (a, b) = (ts(1, 0), ts(1, 1));
        h.record_op("r0", a, CounterOp::Increment, (), BTreeSet::new());
        h.record_op("r1", b, CounterOp::Increment, (), BTreeSet::new());
        h.record_learn("r0", vec![b]);
        h.record_head("r0", vec![a, b]);
        h.record_observe("r0", CounterQuery::Value, 2, vec![a, b]);
        let stats = check_ra_lin(&h, &RaLinOptions::default()).expect("healthy history");
        assert_eq!(stats.events, 2);
        assert_eq!(stats.observations, 1);
        assert_eq!(stats.replicas, 2);
    }

    /// A bounded recorder accounts its overflow explicitly, surfaces it
    /// on a registry, and its truncated snapshot is refused — certifying
    /// from a partial witness would be unsound.
    #[test]
    fn truncated_witness_history_is_refused() {
        let recorder = Arc::new(HistoryRecorder::<Counter>::bounded(2));
        let registry = peepul_obs::Registry::new();
        recorder.publish_gauges(&registry);

        recorder.local_op("r0", ts(1, 0), &CounterOp::Increment, &(), &[]);
        recorder.local_op("r0", ts(2, 0), &CounterOp::Increment, &(), &[ts(1, 0)]);
        assert_eq!(recorder.dropped(), 0);
        assert!(check_ra_lin(&recorder.snapshot(), &RaLinOptions::default()).is_ok());

        // Third record exceeds the capacity: dropped, accounted, fatal.
        recorder.local_op(
            "r0",
            ts(3, 0),
            &CounterOp::Increment,
            &(),
            &[ts(1, 0), ts(2, 0)],
        );
        assert_eq!(recorder.dropped(), 1);
        let h = recorder.snapshot();
        assert!(h.truncated());
        assert_eq!(h.dropped(), 1);
        let e = check_ra_lin(&h, &RaLinOptions::default()).expect_err("truncated");
        assert!(e.message().contains("truncated"), "{e}");

        // The overflow is live in the exposition.
        let rendered = registry.render();
        assert!(
            rendered.contains("peepul_verify_witness_records 2"),
            "{rendered}"
        );
        assert!(
            rendered.contains("peepul_verify_witness_dropped 1"),
            "{rendered}"
        );
    }

    /// The canonical non-linearizable history: a dequeue whose observed
    /// return value names an enqueue that was *not visible* to it. No
    /// linearization explains it, and Φ_ra must say so.
    #[test]
    fn dequeue_before_visible_enqueue_is_rejected() {
        let mut h = WitnessHistory::<Queue<u32>>::new();
        let enq = ts(1, 1);
        let deq = ts(1, 0);
        h.record_op(
            "r1",
            enq,
            QueueOp::Enqueue(7),
            QueueValue::Ack,
            BTreeSet::new(),
        );
        // r0 claims its dequeue popped r1's entry — without the enqueue in
        // its past.
        h.record_op(
            "r0",
            deq,
            QueueOp::Dequeue,
            QueueValue::Dequeued(Some((enq, 7))),
            BTreeSet::new(),
        );
        let e = check_ra_lin(&h, &RaLinOptions::default()).expect_err("non-linearizable");
        assert_eq!(e.obligation(), Obligation::RaLin);
        assert!(e.message().contains("no linearization"), "{e}");
    }

    /// Learning an event before its causal dependency is a causal-delivery
    /// violation.
    #[test]
    fn learn_before_dependency_is_rejected() {
        let mut h = WitnessHistory::<Counter>::new();
        let (a, b) = (ts(1, 1), ts(2, 1));
        h.record_op("r1", a, CounterOp::Increment, (), BTreeSet::new());
        h.record_op("r1", b, CounterOp::Increment, (), BTreeSet::from([a]));
        h.record_learn("r0", vec![b, a]); // child first
        let e = check_ra_lin(&h, &RaLinOptions::default()).expect_err("out of order");
        assert_eq!(e.obligation(), Obligation::RaLin);
        assert!(e.message().contains("causal delivery"), "{e}");
    }

    /// A head integration that loses a previously visible event violates
    /// monotonic visibility.
    #[test]
    fn shrinking_head_is_rejected() {
        let mut h = WitnessHistory::<Counter>::new();
        let (a, b) = (ts(1, 0), ts(1, 1));
        h.record_op("r0", a, CounterOp::Increment, (), BTreeSet::new());
        h.record_op("r1", b, CounterOp::Increment, (), BTreeSet::new());
        h.record_learn("r0", vec![b]);
        h.record_head("r0", vec![b]); // a vanished
        let e = check_ra_lin(&h, &RaLinOptions::default()).expect_err("shrinking head");
        assert_eq!(e.obligation(), Obligation::RaLin);
        assert!(e.message().contains("monotonic visibility"), "{e}");
    }

    /// A mint that does not order after an event it observed breaks the
    /// Lamport receive rule.
    #[test]
    fn timestamp_inversion_is_rejected() {
        let mut h = WitnessHistory::<Counter>::new();
        let (a, b) = (ts(5, 1), ts(2, 0));
        h.record_op("r1", a, CounterOp::Increment, (), BTreeSet::new());
        h.record_op("r0", b, CounterOp::Increment, (), BTreeSet::from([a]));
        let e = check_ra_lin(&h, &RaLinOptions::default()).expect_err("inversion");
        assert_eq!(e.obligation(), Obligation::RaLin);
        assert!(e.message().contains("inversion"), "{e}");
    }

    /// Duplicate mints are a fleet-wide Ψ_ts violation, reported not
    /// panicked on.
    #[test]
    fn duplicate_mint_is_rejected() {
        let mut h = WitnessHistory::<Counter>::new();
        let t = ts(1, 0);
        h.record_op("r0", t, CounterOp::Increment, (), BTreeSet::new());
        h.record_op("r1", t, CounterOp::Increment, (), BTreeSet::new());
        let e = check_ra_lin(&h, &RaLinOptions::default()).expect_err("duplicate");
        assert!(e.message().contains("same timestamp"), "{e}");
    }

    /// The entropy mix is deterministic and spreads across its arguments.
    #[test]
    fn fleet_entropy_is_deterministic() {
        assert_eq!(fleet_entropy(1, 2, 3), fleet_entropy(1, 2, 3));
        assert_ne!(fleet_entropy(1, 2, 3), fleet_entropy(1, 2, 4));
        assert_ne!(fleet_entropy(1, 2, 3), fleet_entropy(1, 3, 3));
        assert_ne!(fleet_entropy(1, 2, 3), fleet_entropy(2, 2, 3));
    }

    /// End-to-end on real replicas: a healthy single-threaded scenario
    /// records and certifies on every mutant shape with the fault off.
    #[test]
    fn all_mutant_scenarios_are_healthy_without_the_fault() {
        for mutation in [
            ReplicationMutation::None,
            ReplicationMutation::BrokenReceiveRule,
            ReplicationMutation::ReorderedPackIngest,
            ReplicationMutation::SkipDivergenceCheck,
            ReplicationMutation::DropVisibilityEdge,
        ] {
            let (result, converged) = mutant_scenario(mutation, false);
            let stats = result.unwrap_or_else(|e| panic!("baseline for {mutation}: {e}"));
            assert!(converged, "baseline for {mutation} did not converge");
            assert!(stats.events > 0);
        }
    }
}
