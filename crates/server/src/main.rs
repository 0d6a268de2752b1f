//! The `peepul-server` binary: a durable multi-tenant KV daemon.
//!
//! ```text
//! peepul-server --listen 127.0.0.1:7401 --data /var/lib/peepul/n1 \
//!     --name n1 --peer 127.0.0.1:7402 --peer 127.0.0.1:7403
//! ```
//!
//! Prints `peepul-server <name> listening on <addr>` once serving (the
//! smoke script scrapes this line for the bound ephemeral port), then
//! runs until killed. State lives in the `--data` directory's segment
//! backend, so a restarted node comes back with its full history and
//! clock.

use peepul_obs::{ObsConfig, TraceLevel};
use peepul_server::{Server, ServerConfig};
use peepul_store::{FlushPolicy, SegmentBackend, SegmentOptions};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    listen: String,
    data: String,
    config: ServerConfig,
    options: SegmentOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: peepul-server --listen ADDR --data DIR --name NAME \
         [--root-branch BRANCH] [--peer ADDR]... [--max-conns N] \
         [--sync-interval-ms MS] [--flush per-commit|coalesced:MS|explicit] \
         [--segment-bytes N] [--no-obs] [--trace-level off|info|debug] \
         [--trace-ring N] [--trace-dump PATH]"
    );
    std::process::exit(2);
}

/// `per-commit`, `coalesced:MS` or `explicit`.
fn parse_flush(arg: &str) -> Option<FlushPolicy> {
    match arg {
        "per-commit" => Some(FlushPolicy::PerCommit),
        "explicit" => Some(FlushPolicy::Explicit),
        other => {
            let ms: u64 = other.strip_prefix("coalesced:")?.parse().ok()?;
            Some(FlushPolicy::Coalesced {
                max_delay: Duration::from_millis(ms),
            })
        }
    }
}

/// The background flusher's period under `policy`. A non-per-commit
/// policy defers fsyncs to the flusher: a coalesced backend promises that
/// an acknowledged commit is synced within `max_delay`, and the flusher
/// keeps that promise on an idle node; an explicit one is bounded at one
/// second. A zero delay syncs at every commit boundary and needs no
/// flusher.
fn flush_interval(policy: FlushPolicy) -> Option<Duration> {
    match policy {
        FlushPolicy::PerCommit => None,
        FlushPolicy::Coalesced { max_delay } => (!max_delay.is_zero()).then_some(max_delay),
        FlushPolicy::Explicit => Some(Duration::from_secs(1)),
    }
}

fn parse_args() -> Args {
    let mut listen = None;
    let mut data = None;
    let mut name = None;
    let mut root_branch = "main".to_owned();
    let mut peers = Vec::new();
    let mut max_connections = 64usize;
    let mut sync_interval = Duration::from_millis(500);
    let mut options = SegmentOptions::default();
    let mut obs = ObsConfig::default();
    let mut trace_dump = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => listen = Some(value()),
            "--data" => data = Some(value()),
            "--name" => name = Some(value()),
            "--root-branch" => root_branch = value(),
            "--peer" => peers.push(value()),
            "--max-conns" => {
                max_connections = value().parse().unwrap_or_else(|_| usage());
            }
            "--sync-interval-ms" => {
                sync_interval = Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--flush" => {
                options.flush = parse_flush(&value()).unwrap_or_else(|| usage());
            }
            "--segment-bytes" => {
                options.max_segment_bytes = value().parse().unwrap_or_else(|_| usage());
            }
            "--no-obs" => obs = ObsConfig::disabled(),
            "--trace-level" => {
                obs.level = match value().as_str() {
                    "off" => TraceLevel::Off,
                    "info" => TraceLevel::Info,
                    "debug" => TraceLevel::Debug,
                    _ => usage(),
                };
            }
            "--trace-ring" => {
                obs.ring_capacity = value().parse().unwrap_or_else(|_| usage());
            }
            "--trace-dump" => trace_dump = Some(PathBuf::from(value())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    let (Some(listen), Some(data), Some(name)) = (listen, data, name) else {
        usage();
    };
    let flush_interval = flush_interval(options.flush);
    Args {
        listen,
        data,
        config: ServerConfig {
            name,
            root_branch,
            max_connections,
            peers,
            sync_interval,
            flush_interval,
            obs,
            trace_dump,
        },
        options,
    }
}

fn main() {
    let args = parse_args();
    let backend = match SegmentBackend::open_with(&args.data, args.options) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "peepul-server: cannot open data directory {}: {e}",
                args.data
            );
            std::process::exit(1);
        }
    };
    let name = args.config.name.clone();
    let server = match Server::spawn(args.config, args.listen.as_str(), backend) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("peepul-server: cannot start: {e}");
            std::process::exit(1);
        }
    };
    // The line the smoke script (and operators) scrape for the bound port.
    println!("peepul-server {name} listening on {}", server.addr());

    // Serving happens on the accept/connection threads; this thread only
    // keeps the process (and thereby the Server) alive.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flusher_runs_at_the_coalescing_delay() {
        let coalesced = parse_flush("coalesced:50").unwrap();
        assert_eq!(flush_interval(coalesced), Some(Duration::from_millis(50)));
        assert_eq!(
            flush_interval(FlushPolicy::Explicit),
            Some(Duration::from_secs(1))
        );
        assert_eq!(flush_interval(FlushPolicy::PerCommit), None);
        assert_eq!(flush_interval(parse_flush("coalesced:0").unwrap()), None);
    }
}
