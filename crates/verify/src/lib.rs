//! Executable certification harness for MRDTs.
//!
//! The F* Peepul proves the Table 2 obligations (`Φ_do`, `Φ_merge`,
//! `Φ_spec`, `Φ_con`) once and for all with an SMT solver. This crate
//! *checks* the identical predicates over store executions, two ways:
//!
//! * [`bounded`] — **bounded-exhaustive**: every execution of the store
//!   up to a configurable number of steps, over a small operation
//!   alphabet and branch budget (the decidable fragment where RDT bugs
//!   live: a couple of branches, a handful of conflicting operations);
//! * [`generator`] + [`runner`] — **randomized**: long seeded executions
//!   with many branches, operations and merges.
//!
//! Both drive the store that serves traffic
//! ([`peepul_store::BranchStore`], whose `fork`/`apply`/`merge_from` are
//! the `CREATEBRANCH`/`DO`/`MERGE` transitions of the paper's Fig. 3)
//! through the one schedule interpreter ([`Step::run_on`], see
//! [`schedule`]) and check every obligation at every transition, so a
//! falsified obligation produces a concrete counterexample trace. The [`suite`] module packages a certification run
//! for each data type of `peepul-types`; the `table3` benchmark binary
//! prints the resulting effort/cost table, this workspace's analogue of
//! the paper's Table 3.
//!
//! # Example
//!
//! ```
//! use peepul_types::counter::{Counter, CounterOp, CounterQuery};
//! use peepul_verify::bounded::{BoundedChecker, BoundedConfig};
//!
//! // Exhaustively check every ≤4-step execution of the counter over the
//! // update alphabet {Increment} with up to 2 branches, probing the Value
//! // query against every reached state.
//! let config = BoundedConfig {
//!     max_steps: 4,
//!     max_branches: 2,
//!     alphabet: vec![CounterOp::Increment],
//!     queries: vec![CounterQuery::Value],
//! };
//! let stats = BoundedChecker::<Counter>::new(config).run().expect("counter is correct");
//! assert!(stats.executions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounded;
pub mod codec_mutants;
pub mod generator;
pub mod proptest_support;
pub mod ralin;
pub mod runner;
pub mod schedule;
pub mod suite;

pub use bounded::{BoundedChecker, BoundedConfig, BoundedStats};
pub use codec_mutants::{run_codec_mutants, CodecMutantOutcome};
pub use generator::{RandomConfig, ScheduleGenerator};
pub use ralin::{
    check_fleet, check_fleet_on, check_ra_lin, run_replication_mutants, FleetConfig,
    HistoryRecorder, MutantOutcome, RaLinOptions, RaLinStats, WitnessHistory,
};
pub use runner::{CertificationError, MergePolicy, Runner, Snapshot};
pub use schedule::{Schedule, Step};
pub use suite::{
    certify_all, certify_replication, CertificationSummary, RaLinSuiteConfig, RaLinSummary,
    SuiteConfig,
};
