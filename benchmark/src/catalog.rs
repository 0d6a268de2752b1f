//! The names this benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root is the text
//! [`benchmark_json`] renders; `--check` fails when the two differ.

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric: reported by every workload with tracing off.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether the value is a count the program makes: a pure function of
    /// the seed, taken over a fixed prefix of rounds ([`COUNT_ROUNDS`]) so
    /// that it repeats exactly however many rounds the host's speed allows.
    pub count: bool,
}

/// Count metrics are the median over at most this many first rounds.
pub const COUNT_ROUNDS: usize = 5;

/// A per-layer metric: reported by every workload's traced pass; 0 on a
/// workload that bypasses the layer.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Name, prefixed with the crate and module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// A workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name.
    pub name: &'static str,
    /// One line of why.
    pub why: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 28;

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv_durable_put",
        why: "durable put over the wire at 512 keys, then cold restarts: frame, service, commit, segment append, fsync; merge and LCA do nothing",
    },
    Workload {
        name: "sync_pull",
        why: "cold and incremental pulls from a served origin: the state-record layer read the other way round, net codec and pack ingest; no fsync on the receiver, all fast-forwards",
    },
    Workload {
        name: "merge_crisscross",
        why: "three-way merges with several merge bases on a 1000-element OR-set: types merge, LCA and memo; no sockets, no disk, so a net or disk change must not move it",
    },
    Workload {
        name: "local_first_ops",
        why: "embedded queue, many small local ops, reads beside writes, rare merges: same commit layer as kv_durable_put on another type, without net or disk",
    },
];

use Better::{Higher, Lower};

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    count: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        count,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The end-to-end metrics. What `op`, `bytes` and `cold start` mean on
/// each workload is fixed in README.md.
pub const END_TO_END: [EndToEnd; 7] = [
    end_to_end("setup_s", "s", Lower, 0.25, false),
    end_to_end("op_p50_us", "us", Lower, 0.25, false),
    end_to_end("op_p95_us", "us", Lower, 0.25, false),
    end_to_end("ops_per_s", "1/s", Higher, 0.25, false),
    end_to_end("bytes_per_op", "bytes", Lower, 0.08, true),
    end_to_end("cold_start_ms", "ms", Lower, 0.25, false),
    end_to_end("peak_rss_mb", "MB", Lower, 0.10, false),
];

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [PerLayer; 46] = [
    layer("types.apply_us", "us", Lower),
    layer("types.query_us", "us", Lower),
    layer("types.merge_us", "us", Lower),
    layer("core.wire.encode_us", "us", Lower),
    layer("core.wire.decode_us", "us", Lower),
    layer("core.wire.state_bytes", "bytes", Lower),
    layer("core.delta.diff_us", "us", Lower),
    layer("core.delta.apply_us", "us", Lower),
    layer("core.delta.bytes", "bytes", Lower),
    layer("store.sha256.us_per_state", "us", Lower),
    layer("store.sha256.mb_per_s", "MB/s", Higher),
    layer("store.branch.apply_us", "us", Lower),
    layer("store.branch.read_us", "us", Lower),
    layer("store.branch.merge_us", "us", Lower),
    layer("store.branch.open_ms", "ms", Lower),
    layer("store.branch.open_scaling", "ratio", Lower),
    layer("store.branch.state_bytes_us", "us", Lower),
    layer("store.branch.ingest_us_per_object", "us", Lower),
    layer("store.branch.delta_state_share", "ratio", Higher),
    layer("store.branch.rss_kb_per_commit", "kB", Lower),
    layer("store.dag.merge_bases_us", "us", Lower),
    layer("store.dag.bases_per_merge", "count", Lower),
    layer("store.memo.hit_ratio", "ratio", Higher),
    layer("store.memo.probes", "count", Lower),
    layer("store.segment.append_us", "us", Lower),
    layer("store.segment.fsync_us", "us", Lower),
    layer("store.segment.fsyncs_per_op", "count", Lower),
    layer("store.segment.open_ms", "ms", Lower),
    layer("store.segment.bytes_per_op", "bytes", Lower),
    layer("net.tcp.echo_rtt_us", "us", Lower),
    layer("net.tcp.echo_rtt_64k_us", "us", Lower),
    layer("net.message.encode_us", "us", Lower),
    layer("net.message.decode_us", "us", Lower),
    layer("net.replica.round_trips", "count", Lower),
    layer("net.replica.fetch_ms", "ms", Lower),
    layer("net.replica.integrate_ms", "ms", Lower),
    layer("net.replica.delta_states_share", "ratio", Higher),
    layer("net.replica.objects_per_s", "1/s", Higher),
    layer("server.put.handler_us", "us", Lower),
    layer("server.put.over_store_us", "us", Lower),
    layer("server.put.p99_us", "us", Lower),
    layer("server.get.rtt_us", "us", Lower),
    layer("server.get.over_echo_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.unexplained_share", "ratio", Lower),
    layer("trace.spans", "count", Higher),
];

/// Whether `name` is made of the characters the contract allows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `name` is one of the four workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

fn better_text(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better_text(m.better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better_text(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }
}
