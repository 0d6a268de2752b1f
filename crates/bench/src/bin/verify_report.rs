//! **Certification report** — machine-readable summary of the replication
//! certification run: the per-type `Φ_ra` fleet suites, the replication
//! mutant kill-gate, and the codec mutant kill-gate (round-trip and
//! delta-resolution laws).
//!
//! Writes `VERIFY_report.json` (schema `peepul/verify-report/v1`, see
//! EXPERIMENTS.md) and exits non-zero when any suite fails **or any mutant
//! survives** — CI's hard gate on the replication layer.
//!
//! Run: `cargo run --release -p peepul-bench --bin verify_report`
//! (`--quick` for a smaller fleet shape, `--out PATH` to redirect).

use std::fmt::Write as _;

use peepul_verify::{
    certify_replication, run_codec_mutants, run_replication_mutants, RaLinSuiteConfig,
};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Minimal JSON string escaping for failure/counterexample text.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "VERIFY_report.json".into());

    let config = if quick {
        RaLinSuiteConfig {
            runs: 2,
            replicas: 4,
            ops_per_replica: 6,
            gossip_every: 2,
            ..RaLinSuiteConfig::default()
        }
    } else {
        RaLinSuiteConfig::default()
    };

    println!(
        "Φ_ra suites: {} runs × {} replicas × {} ops each{}",
        config.runs,
        config.replicas,
        config.ops_per_replica,
        if quick { " (quick)" } else { "" }
    );
    let suites = certify_replication(&config);
    for s in &suites {
        println!(
            "  {:<22} {:>3} runs  {:>5} events  {:>6} linearization checks  {}{}",
            s.name,
            s.runs,
            s.stats.events,
            s.stats.linearizations,
            if s.passed() { "ok" } else { "FAILED" },
            if s.structural { " (structural)" } else { "" },
        );
        if let Some(f) = &s.failure {
            println!("    {f}");
        }
    }

    println!("replication mutant kill-gate:");
    let mutants = run_replication_mutants();
    for m in &mutants {
        let name = m.mutation.to_string();
        println!(
            "  {:<24} baseline {}  converged {}  {}",
            name,
            if m.baseline_ok { "ok" } else { "FAILED" },
            if m.converged { "yes" } else { "no" },
            if m.caught() { "KILLED" } else { "SURVIVED" },
        );
    }

    println!("codec mutant kill-gate:");
    let codec_mutants = run_codec_mutants();
    for m in &codec_mutants {
        println!(
            "  {:<24} baseline {}  {}",
            m.mutation,
            if m.baseline_ok { "ok" } else { "FAILED" },
            if m.caught() { "KILLED" } else { "SURVIVED" },
        );
    }

    let histories: u64 = suites.iter().map(|s| s.runs).sum();
    let events: u64 = suites.iter().map(|s| s.stats.events).sum();
    let linearizations: u64 = suites.iter().map(|s| s.stats.linearizations).sum();
    let killed = mutants.iter().filter(|m| m.caught()).count();
    let codec_killed = codec_mutants.iter().filter(|m| m.caught()).count();

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"peepul/verify-report/v1\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(
        out,
        "  \"fleet\": {{ \"runs\": {}, \"replicas\": {}, \"ops_per_replica\": {}, \
         \"gossip_every\": {}, \"loss_per_mille\": {}, \"partition_one\": {} }},",
        config.runs,
        config.replicas,
        config.ops_per_replica,
        config.gossip_every,
        config.loss_per_mille,
        config.partition_one
    );
    let _ = writeln!(out, "  \"suites\": [");
    for (i, s) in suites.iter().enumerate() {
        let comma = if i + 1 == suites.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"runs\": {}, \"events\": {}, \"records\": {}, \
             \"observations\": {}, \"linearizations\": {}, \"structural\": {}, \
             \"passed\": {}, \"seconds\": {:.3}, \"failure\": {} }}{comma}",
            json_escape(s.name),
            s.runs,
            s.stats.events,
            s.stats.records,
            s.stats.observations,
            s.stats.linearizations,
            s.structural,
            s.passed(),
            s.time.as_secs_f64(),
            match &s.failure {
                Some(f) => format!("\"{}\"", json_escape(f)),
                None => "null".into(),
            },
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"mutants\": [");
    for (i, m) in mutants.iter().enumerate() {
        let comma = if i + 1 == mutants.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"mutation\": \"{}\", \"baseline_ok\": {}, \"converged\": {}, \
             \"killed\": {}, \"detail\": \"{}\" }}{comma}",
            m.mutation,
            m.baseline_ok,
            m.converged,
            m.killed,
            json_escape(&m.detail),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"codec_mutants\": [");
    for (i, m) in codec_mutants.iter().enumerate() {
        let comma = if i + 1 == codec_mutants.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{ \"mutation\": \"{}\", \"baseline_ok\": {}, \"killed\": {}, \
             \"detail\": \"{}\" }}{comma}",
            m.mutation,
            m.baseline_ok,
            m.killed,
            json_escape(&m.detail),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"totals\": {{ \"histories_checked\": {histories}, \"events_witnessed\": {events}, \
         \"linearization_checks\": {linearizations}, \"mutants_killed\": {killed}, \
         \"mutants_total\": {}, \"codec_mutants_killed\": {codec_killed}, \
         \"codec_mutants_total\": {} }}",
        mutants.len(),
        codec_mutants.len()
    );
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write report");
    println!("wrote {out_path}");

    let suites_ok = suites.iter().all(|s| s.passed());
    let mutants_ok = killed == mutants.len();
    let codec_ok = codec_killed == codec_mutants.len();
    if !suites_ok || !mutants_ok || !codec_ok {
        if !suites_ok {
            eprintln!("FAIL: a Φ_ra suite rejected a healthy fleet execution");
        }
        if !mutants_ok {
            eprintln!(
                "FAIL: {}/{} replication mutants survived Φ_ra",
                mutants.len() - killed,
                mutants.len()
            );
        }
        if !codec_ok {
            eprintln!(
                "FAIL: {}/{} codec mutants survived Φ_codec",
                codec_mutants.len() - codec_killed,
                codec_mutants.len()
            );
        }
        std::process::exit(1);
    }
    println!(
        "ok: {histories} histories, {events} events, {linearizations} linearization checks, \
         {killed}/{} replication mutants + {codec_killed}/{} codec mutants killed",
        mutants.len(),
        codec_mutants.len()
    );
}
