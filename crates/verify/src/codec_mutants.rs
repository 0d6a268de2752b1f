//! The **codec mutant kill-gate**: deliberately broken codec/delta
//! implementations that every obligation *except* `Φ_codec` waves
//! through, run under the bounded checker so CI can hard-fail if the
//! codec obligation ever stops catching them.
//!
//! Since delta sync, `Φ_codec` carries three laws at every explored
//! state σ: the canonical round-trip (`decode(encode(σ)) ≅ σ`,
//! re-encoding byte-identically), and the delta-resolution law against
//! every probed base p (`apply_delta(p, σ.diff(p)) ≅ σ`, re-encoding to
//! `encode(σ)` — the content-address preimage). At every `DO` it also
//! checks the same law for the script the store persists for an update
//! commit (`apply_delta(σ, σ.op_delta(op, σ')) ≅ σ'`). Each mutant here breaks
//! exactly one of those laws while keeping merge, query and the
//! simulation relation honest, so a kill proves the codec obligation —
//! and only it — is doing the work. The gallery in
//! `crates/verify/tests/mutants.rs` pins the same faults as unit tests;
//! this module is the *reportable* form `verify_report` folds into its
//! JSON and gates on.

use crate::{BoundedChecker, BoundedConfig, CertificationError};
use peepul_core::{
    AbstractOf, Certified, Delta, Mrdt, Obligation, SimulationRelation, Specification, Timestamp,
    Wire,
};

/// What happened to one deliberately broken codec under the kill-gate:
/// the same bounded scenario is run against a faithful twin (which must
/// certify) and the mutant (which `Φ_codec` must reject).
#[derive(Clone, Debug)]
pub struct CodecMutantOutcome {
    /// Which codec law the mutant breaks.
    pub mutation: &'static str,
    /// The faithful twin certified cleanly under the same bounds.
    pub baseline_ok: bool,
    /// The mutant was rejected, and by [`Obligation::Codec`] —
    /// not merely tripped over by some other obligation.
    pub killed: bool,
    /// The counterexample (or survival description).
    pub detail: String,
}

impl CodecMutantOutcome {
    /// The kill-gate verdict: clean baseline, mutant dead to `Φ_codec`.
    pub fn caught(&self) -> bool {
        self.baseline_ok && self.killed
    }
}

/// Increment — the only operation the mutant counters support.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Inc;

/// Read the count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadQ;

/// Everything except `Wire`/`diff`/`op_delta` is shared and honest:
/// the counter semantics, its specification and simulation relation.
macro_rules! counter_mutant {
    ($ty:ident, $spec:ident, $sim:ident) => {
        impl Mrdt for $ty {
            type Op = Inc;
            type Value = ();
            type Query = ReadQ;
            type Output = u64;
            fn initial() -> Self {
                $ty(0)
            }
            fn apply(&self, _op: &Inc, _t: Timestamp) -> (Self, ()) {
                ($ty(self.0 + 1), ())
            }
            fn query(&self, _q: &ReadQ) -> u64 {
                self.0
            }
            fn merge(lca: &Self, a: &Self, b: &Self) -> Self {
                $ty(a.0 + b.0 - lca.0)
            }
            counter_mutant!(@delta $ty);
        }
        struct $spec;
        impl Specification<$ty> for $spec {
            fn spec(_op: &Inc, _abs: &AbstractOf<$ty>) {}
            fn query(_q: &ReadQ, abs: &AbstractOf<$ty>) -> u64 {
                abs.events().count() as u64
            }
        }
        struct $sim;
        impl SimulationRelation<$ty> for $sim {
            fn holds(abs: &AbstractOf<$ty>, conc: &$ty) -> bool {
                conc.0 == abs.events().count() as u64
            }
        }
        impl Certified for $ty {
            type Spec = $spec;
            type Sim = $sim;
        }
    };
    (@delta FaithfulCounter) => {};
    (@delta DriftedDeltaCounter) => {
        fn diff(&self, parent: &Self) -> Delta {
            // BUG: claims "no change" — resolves to the parent's bytes.
            Delta::splice(&parent.to_wire(), &parent.to_wire())
        }
    };
    (@delta DriftedOpDeltaCounter) => {
        fn op_delta(&self, _op: &Inc, _next: &Self) -> Delta {
            // BUG: the update's delta claims "no change" — it resolves to
            // the parent's bytes — while `diff` stays honest.
            Delta::splice(&self.to_wire(), &self.to_wire())
        }
    };
    (@delta $ty:ident) => {};
}

/// Honest u64 codec, shared by the mutants whose fault is elsewhere.
macro_rules! honest_wire {
    ($ty:ident) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some($ty(Wire::decode(input)?))
            }
        }
    };
}

/// The faithful twin: every law holds. Its clean run is the baseline
/// that proves the scenario itself is sound.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct FaithfulCounter(u64);
honest_wire!(FaithfulCounter);
counter_mutant!(FaithfulCounter, FaithfulSpec, FaithfulSim);

/// Breaks the round-trip law: encode narrows to u32, decode reads u64.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct DriftedEncodeCounter(u64);
impl Wire for DriftedEncodeCounter {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0 as u32).encode(out); // BUG: 4 bytes out…
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(DriftedEncodeCounter(Wire::decode(input)?)) // …8 bytes back
    }
}
counter_mutant!(DriftedEncodeCounter, DriftedEncodeSpec, DriftedEncodeSim);

/// Breaks the delta-resolution law: `diff` emits a well-formed delta
/// that resolves to the *parent*, not the child.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct DriftedDeltaCounter(u64);
honest_wire!(DriftedDeltaCounter);
counter_mutant!(DriftedDeltaCounter, DriftedDeltaSpec, DriftedDeltaSim);

/// Breaks the delta-resolution law only for update deltas: `op_delta`
/// resolves to the *parent*, `diff` is honest, so only the `DO`-time
/// check of `op_delta` can see it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct DriftedOpDeltaCounter(u64);
honest_wire!(DriftedOpDeltaCounter);
counter_mutant!(DriftedOpDeltaCounter, DriftedOpDeltaSpec, DriftedOpDeltaSim);

/// Runs the shared bounded scenario for one type and classifies the
/// result: `Ok(None)` for a clean run, `Ok(Some(detail))` for a
/// `Φ_codec` kill, `Err(detail)` for any other outcome.
fn bounded_verdict<M: Certified<Op = Inc, Query = ReadQ>>() -> Result<Option<String>, String> {
    let checker = BoundedChecker::<M>::new(BoundedConfig {
        max_steps: 3,
        max_branches: 2,
        alphabet: vec![Inc],
        queries: vec![ReadQ],
    });
    match checker.run() {
        Ok(_) => Ok(None),
        Err(CertificationError::Obligation { error, step, .. }) => {
            if error.obligation() == Obligation::Codec {
                Ok(Some(format!("{error} at {step}")))
            } else {
                Err(format!("rejected by the wrong obligation: {error}"))
            }
        }
        Err(other) => Err(format!("non-obligation failure: {other}")),
    }
}

/// The codec mutant kill-gate: certifies the faithful twin, then runs
/// each codec mutant under the same bounds and reports whether
/// `Φ_codec` — specifically — killed it. CI hard-fails on any survivor.
pub fn run_codec_mutants() -> Vec<CodecMutantOutcome> {
    let baseline_ok = matches!(bounded_verdict::<FaithfulCounter>(), Ok(None));
    let outcome = |mutation: &'static str, verdict: Result<Option<String>, String>| {
        let (killed, detail) = match verdict {
            Ok(Some(detail)) => (true, detail),
            Ok(None) => (false, "mutant survived Φ_codec".to_owned()),
            Err(detail) => (false, detail),
        };
        CodecMutantOutcome {
            mutation,
            baseline_ok,
            killed,
            detail,
        }
    };
    vec![
        outcome("drifted-encode", bounded_verdict::<DriftedEncodeCounter>()),
        outcome("drifted-delta", bounded_verdict::<DriftedDeltaCounter>()),
        outcome(
            "drifted-op-delta",
            bounded_verdict::<DriftedOpDeltaCounter>(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate itself: baseline clean, every mutant dead to `Φ_codec`.
    #[test]
    fn every_codec_mutant_dies_to_phi_codec() {
        let outcomes = run_codec_mutants();
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(
                o.baseline_ok,
                "baseline failed for {}: {}",
                o.mutation, o.detail
            );
            assert!(o.caught(), "{} survived: {}", o.mutation, o.detail);
        }
    }
}
