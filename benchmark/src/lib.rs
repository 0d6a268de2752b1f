//! Shared plumbing of the committed benchmark: argument parsing, the
//! seeded workload generator, statistics, the metric catalogue, span
//! recording and process facts.
//!
//! Nothing in this library names a `peepul_*` item. The two bins (`e2e`,
//! `layers`) reach the system under test only through their own `api.rs`,
//! so an API change in the workspace breaks at most those two files.

#![forbid(unsafe_code)]

pub mod args;
pub mod catalog;
pub mod gen;
pub mod paths;
pub mod procinfo;
pub mod report;
pub mod sizes;
pub mod stats;
pub mod trace;

/// The benchmark's error type: a message for the operator. Any error ends
/// the run with a non-zero exit code and no result line.
pub type Res<T> = Result<T, String>;

/// Prefixes an error with what was being done: `.map_err(err("open store"))`.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}
