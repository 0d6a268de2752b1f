//! Integration suite for the service layer: one in-process
//! `peepul-server` hammered by many real TCP client connections.
//!
//! What the daemon promises, checked end to end over loopback sockets:
//!
//! * many interleaved sessions writing concurrently lose nothing — every
//!   acknowledged put is visible afterwards;
//! * eight connections held open together are all served at once
//!   (`peak_connections() >= 8`);
//! * the read path takes the **shared** lock: a `get` over TCP completes
//!   while another thread is holding the store's read lock (it would
//!   deadline out if reads were exclusive);
//! * tenant sessions are namespaced — one tenant's writes are invisible
//!   to another tenant addressing the same branch name;
//! * eight sessions racing their first put into one fresh tenant all
//!   land, on one auto-forked branch;
//! * every served write reaches an attached history observer, and the
//!   witnessed run is replication-aware linearizable;
//! * forked/merged client branches converge to the mainline answer;
//! * one `Server::sync_with` round pulls every peer branch and pushes
//!   every local one, so two diverged nodes serve every key, and a second
//!   round moves nothing;
//! * a daemon over the segment backend restarted on the same directory
//!   serves every previously acknowledged write (durability through the
//!   service path, not just the store API);
//! * the `Metrics` endpoint returns a parseable exposition covering the
//!   store, net and server subsystems, and `TraceDump` flushes the trace
//!   ring as JSONL to the configured path.

mod common;

use common::Scratch;
use peepul::store::{MemoryBackend, SegmentBackend};
use peepul::verify::{check_ra_lin, HistoryRecorder, RaLinOptions};
use peepul_server::{Kv, Server, ServerConfig, ServiceClient, SyncRoundReport};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn memory_server(name: &str) -> Server<MemoryBackend> {
    Server::spawn(ServerConfig::new(name), "127.0.0.1:0", MemoryBackend::new()).unwrap()
}

#[test]
fn interleaved_sessions_lose_no_acknowledged_put() {
    let server = memory_server("hammer");
    let addr = server.addr();
    const THREADS: usize = 8;
    const PUTS: usize = 40;

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                for i in 0..PUTS {
                    // Interleave writes and reads on one session: every
                    // acknowledged put must be readable immediately.
                    let key = format!("t{t}-k{i}");
                    client.put("main", &key, format!("v{i}")).unwrap();
                    assert_eq!(
                        client.get("main", &key).unwrap().as_deref(),
                        Some(format!("v{i}").as_str())
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Every thread's every put survived the interleaving.
    let mut client = ServiceClient::connect(addr).unwrap();
    let table = client.query("main").unwrap();
    assert_eq!(table.len(), THREADS * PUTS);
    for t in 0..THREADS {
        for i in 0..PUTS {
            assert_eq!(
                client.get("main", format!("t{t}-k{i}")).unwrap().as_deref(),
                Some(format!("v{i}").as_str())
            );
        }
    }
}

#[test]
fn eight_connections_are_served_at_once() {
    let server = memory_server("concurrent");
    let addr = server.addr();
    const CLIENTS: usize = 8;

    // Each client has a request answered (so it is accepted and served,
    // not parked in the listen backlog), then holds its connection open
    // until all eight have: the server serves them concurrently or the
    // barrier never releases.
    let served = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let served = &served;
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                client.put("main", format!("k{c}"), "held").unwrap();
                served.wait();
                assert_eq!(
                    client.get("main", format!("k{c}")).unwrap().as_deref(),
                    Some("held")
                );
            });
        }
    });
    assert!(
        server.peak_connections() >= CLIENTS,
        "server peaked at {} concurrent connections",
        server.peak_connections()
    );
}

#[test]
fn reads_are_served_under_the_shared_lock() {
    let server = memory_server("readers");
    let addr = server.addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    client.put("main", "k", "v").unwrap();

    // Hold the store's *read* lock in-process for 600 ms; a TCP get must
    // complete well inside that window. If the service's get path took
    // the exclusive lock it would wait out the full hold.
    let replica = server.replica().clone();
    let holder = std::thread::spawn(move || {
        replica.with_store_read(|_| std::thread::sleep(Duration::from_millis(600)))
    });
    std::thread::sleep(Duration::from_millis(50)); // let the holder acquire
    let start = Instant::now();
    assert_eq!(client.get("main", "k").unwrap().as_deref(), Some("v"));
    assert!(
        start.elapsed() < Duration::from_millis(400),
        "a get must not wait for a concurrent read-lock holder"
    );
    holder.join().unwrap();
}

#[test]
fn tenants_are_namespaced_end_to_end() {
    let server = memory_server("tenants");
    let addr = server.addr();

    let mut acme = ServiceClient::connect(addr).unwrap();
    acme.hello("acme").unwrap();
    acme.put("main", "color", "red").unwrap();

    let mut zebra = ServiceClient::connect(addr).unwrap();
    zebra.hello("zebra").unwrap();
    zebra.put("main", "color", "blue").unwrap();

    // Same branch name, disjoint keyspaces.
    assert_eq!(acme.get("main", "color").unwrap().as_deref(), Some("red"));
    assert_eq!(zebra.get("main", "color").unwrap().as_deref(), Some("blue"));
    assert_eq!(acme.branches().unwrap(), vec!["main".to_owned()]);

    // The operator view (unbound session) sees both namespaces; a tenant
    // cannot address across its own.
    let mut operator = ServiceClient::connect(addr).unwrap();
    assert_eq!(
        operator.get("acme/main", "color").unwrap().as_deref(),
        Some("red")
    );
    assert!(acme.get("zebra/main", "color").is_err());
}

/// A first put forks the tenant's branch from the root, then applies.
/// When eight sessions race that first put, all but one may find the
/// fork already made; each must still land its write on the one branch.
/// The test holds the store's read lock while the puts are sent, so they
/// queue on the write lock together and several find the branch missing;
/// the race is run for sixteen fresh tenants.
#[test]
fn concurrent_first_puts_to_a_fresh_tenant_all_land() {
    let server = memory_server("first-puts");
    let addr = server.addr();
    const SESSIONS: usize = 8;
    const TENANTS: usize = 16;
    for round in 0..TENANTS {
        let tenant = format!("fresh{round}");
        let barrier = Arc::new(Barrier::new(SESSIONS + 1));
        let workers: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let (barrier, tenant) = (Arc::clone(&barrier), tenant.clone());
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    client.hello(tenant).unwrap();
                    barrier.wait();
                    client.put("main", format!("k{i}"), format!("v{i}"))
                })
            })
            .collect();
        server.replica().with_store_read(|_| {
            barrier.wait();
            std::thread::sleep(Duration::from_millis(20));
        });
        for (i, w) in workers.into_iter().enumerate() {
            if let Err(e) = w.join().unwrap() {
                panic!("{tenant}, session {i}: first put refused: {e}");
            }
        }
    }

    let want: Vec<(String, String)> = (0..SESSIONS)
        .map(|i| (format!("k{i}"), format!("v{i}")))
        .collect();
    for round in 0..TENANTS {
        let tenant = format!("fresh{round}");
        let mut client = ServiceClient::connect(addr).unwrap();
        client.hello(tenant.as_str()).unwrap();
        let mut table = client.query("main").unwrap();
        table.sort();
        assert_eq!(table, want, "{tenant}");
        assert_eq!(client.branches().unwrap(), ["main"], "{tenant}");
    }
}

/// The daemon's handlers write through the witnessed `Replica` methods:
/// three puts over the wire are three recorded events, and the run with
/// its two gets is replication-aware linearizable.
#[test]
fn served_writes_are_witnessed_and_ra_linearizable() {
    let server = memory_server("witnessed");
    let recorder = Arc::new(HistoryRecorder::<Kv>::new());
    server.replica().set_observer(recorder.clone());

    let mut client = ServiceClient::connect(server.addr()).unwrap();
    for (key, value) in [("city", "lyon"), ("river", "rhone"), ("dish", "quenelle")] {
        client.put("main", key, value).unwrap();
    }
    assert_eq!(client.get("main", "city").unwrap().as_deref(), Some("lyon"));
    assert_eq!(
        client.get("main", "dish").unwrap().as_deref(),
        Some("quenelle")
    );

    let snapshot = recorder.snapshot();
    assert_eq!(
        snapshot.events(),
        3,
        "every served put is a witnessed event"
    );
    if let Err(e) = check_ra_lin(&snapshot, &RaLinOptions::default()) {
        panic!("served run is not RA-linearizable: {e}");
    }
}

#[test]
fn fork_and_merge_converge_over_the_wire() {
    let server = memory_server("merging");
    let addr = server.addr();
    let mut a = ServiceClient::connect(addr).unwrap();
    let mut b = ServiceClient::connect(addr).unwrap();

    a.put("main", "base", "yes").unwrap();
    a.fork("main", "left").unwrap();
    b.fork("main", "right").unwrap();
    // Two sessions work their own branches, interleaved.
    a.put("left", "from-left", "1").unwrap();
    b.put("right", "from-right", "2").unwrap();
    a.put("left", "shared", "L").unwrap();
    b.put("right", "shared", "R").unwrap();

    a.merge("main", "left").unwrap();
    b.merge("main", "right").unwrap();

    let table: std::collections::BTreeMap<String, String> =
        a.query("main").unwrap().into_iter().collect();
    assert_eq!(table["base"], "yes");
    assert_eq!(table["from-left"], "1");
    assert_eq!(table["from-right"], "2");
    // Concurrent writes to one key resolve by LWW — deterministically to
    // one of the two, on every replica.
    assert!(table["shared"] == "L" || table["shared"] == "R");
}

#[test]
fn restarted_daemon_serves_every_acknowledged_write() {
    let scratch = Scratch::new("server-restart");
    let dir = scratch.path().join("db");

    {
        let server = Server::spawn(
            ServerConfig::new("durable"),
            "127.0.0.1:0",
            SegmentBackend::open(&dir).unwrap(),
        )
        .unwrap();
        let mut client = ServiceClient::connect(server.addr()).unwrap();
        client.hello("acme").unwrap();
        for i in 0..10 {
            client
                .put("main", format!("k{i}"), format!("v{i}"))
                .unwrap();
        }
        // Drop = shutdown + join; the backend's publish discipline means
        // every acknowledged put is on disk.
    }

    let server = Server::spawn(
        ServerConfig::new("durable"),
        "127.0.0.1:0",
        SegmentBackend::open(&dir).unwrap(),
    )
    .unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    client.hello("acme").unwrap();
    for i in 0..10 {
        assert_eq!(
            client.get("main", format!("k{i}")).unwrap().as_deref(),
            Some(format!("v{i}").as_str())
        );
    }
}

/// Regression: a branch name of 65 536 bytes or more used to wrap the
/// ref record's `u16` length prefix on the auto-fork of a first `put`;
/// the node acknowledged it, and at its next restart the segment replay
/// read that record as a torn tail and truncated every later write.
#[test]
fn oversized_branch_name_is_refused_and_the_node_restarts_intact() {
    let scratch = Scratch::new("server-long-branch");
    let dir = scratch.path().join("db");
    let spawn = || {
        Server::spawn(
            ServerConfig::new("durable"),
            "127.0.0.1:0",
            SegmentBackend::open(&dir).unwrap(),
        )
        .unwrap()
    };

    {
        let server = spawn();
        let mut client = ServiceClient::connect(server.addr()).unwrap();
        client.hello("acme").unwrap();
        for i in 0..5 {
            client
                .put("main", format!("k{i}"), format!("v{i}"))
                .unwrap();
        }
        let err = client.put("x".repeat(70_000), "k", "v").unwrap_err();
        assert!(
            matches!(err, peepul::net::NetError::Remote(_)),
            "the put must be answered with ServiceResponse::Err, got: {err}"
        );
        // The writes a poisoned segment would have lost at restart.
        for i in 5..10 {
            client
                .put("main", format!("k{i}"), format!("v{i}"))
                .unwrap();
        }
    }

    let server = spawn();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    client.hello("acme").unwrap();
    for i in 0..10 {
        assert_eq!(
            client.get("main", format!("k{i}")).unwrap().as_deref(),
            Some(format!("v{i}").as_str()),
            "k{i} must survive the restart"
        );
    }
    assert_eq!(client.branches().unwrap(), vec!["main".to_owned()]);
}

#[test]
fn metrics_exposition_covers_every_subsystem() {
    let server = memory_server("observed");
    let addr = server.addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    client.hello("acme").unwrap();
    for i in 0..5 {
        client.put("main", format!("k{i}"), "v").unwrap();
    }
    assert_eq!(client.get("main", "k0").unwrap().as_deref(), Some("v"));

    let text = client.metrics().unwrap();
    let samples = peepul::obs::parse_exposition(&text).expect("exposition must parse");
    assert!(!samples.is_empty());
    // At least one sample from each instrumented subsystem.
    for prefix in ["peepul_store_", "peepul_net_", "peepul_server_"] {
        assert!(
            samples.iter().any(|s| s.name.starts_with(prefix)),
            "no {prefix}* sample in:\n{text}"
        );
    }
    let value = |name: &str, label: Option<(&str, &str)>| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
            .value
    };
    // The five puts were counted as commits, as typed requests and as
    // tenant traffic — one fact, three views, all from one registry.
    assert!(value("peepul_store_commits_total", None) >= 5.0);
    assert!(value("peepul_server_requests_total", None) >= 7.0);
    assert!(value("peepul_server_request_micros_count", Some(("kind", "put"))) >= 5.0);
    // hello (the binding request itself) + 5 puts + 1 get.
    assert_eq!(
        value("peepul_server_tenant_ops_total", Some(("tenant", "acme"))),
        7.0
    );

    // Disabled observability degrades to an empty exposition, not an error.
    let dark = Server::spawn(
        ServerConfig {
            obs: peepul::obs::ObsConfig::disabled(),
            ..ServerConfig::new("dark")
        },
        "127.0.0.1:0",
        MemoryBackend::new(),
    )
    .unwrap();
    let mut client = ServiceClient::connect(dark.addr()).unwrap();
    assert_eq!(client.metrics().unwrap(), "");
}

#[test]
fn a_tenant_name_with_quotes_and_backslashes_keeps_the_exposition_parseable() {
    let server = memory_server("escaped");
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    client.hello("a\"b\\c").unwrap();
    client.put("main", "k", "v").unwrap();

    let text = client.metrics().unwrap();
    let samples = peepul::obs::parse_exposition(&text).expect("exposition must parse");
    let tenant = samples
        .iter()
        .find(|s| s.name == "peepul_server_tenant_ops_total")
        .unwrap_or_else(|| panic!("no tenant counter in:\n{text}"));
    assert_eq!(tenant.label("tenant"), Some("a\"b\\c"));
    assert_eq!(tenant.value, 2.0, "hello + put");
}

#[test]
fn trace_dump_flushes_the_event_ring_as_jsonl() {
    let scratch = Scratch::new("trace-dump");
    let path = scratch.path().join("trace.jsonl");
    let server = Server::spawn(
        ServerConfig {
            trace_dump: Some(path.clone()),
            ..ServerConfig::new("traced")
        },
        "127.0.0.1:0",
        MemoryBackend::new(),
    )
    .unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    client.put("main", "k", "v").unwrap();
    client.trace_dump().unwrap();

    let dump = std::fs::read_to_string(&path).unwrap();
    assert!(!dump.trim().is_empty(), "trace dump must not be empty");
    for line in dump.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each trace event is one JSON object per line, got: {line}"
        );
    }
    // The put's commit landed in the ring.
    assert!(dump.contains("\"commit\""), "no commit event in:\n{dump}");
}

#[test]
fn one_sync_round_pulls_and_pushes_every_branch() {
    // Neither node has peers configured: the round runs only when called.
    let a = memory_server("node-a");
    let b = memory_server("node-b");
    let mut ca = ServiceClient::connect(a.addr()).unwrap();
    let mut cb = ServiceClient::connect(b.addr()).unwrap();
    let mut tenant = ServiceClient::connect(b.addr()).unwrap();
    tenant.hello("acme").unwrap();
    tenant.put("main", "t", "3").unwrap(); // acme/main exists only on b
    ca.put("main", "from-a", "1").unwrap();
    cb.put("main", "from-b", "2").unwrap(); // main has diverged

    let peers = [b.addr().to_string()];
    let report = a.sync_with(&peers);
    // a creates acme/main and merges main, then pushes the merged main;
    // acme/main is already on b.
    let expected = SyncRoundReport {
        peers_reached: 1,
        peers_unreachable: 0,
        branches_pulled: 2,
        branches_pushed: 1,
    };
    assert_eq!(report, expected);
    for client in [&mut ca, &mut cb] {
        assert_eq!(client.get("main", "from-a").unwrap().as_deref(), Some("1"));
        assert_eq!(client.get("main", "from-b").unwrap().as_deref(), Some("2"));
        assert_eq!(client.get("acme/main", "t").unwrap().as_deref(), Some("3"));
    }
    for branch in ["main", "acme/main"] {
        assert_eq!(
            a.replica().head_id(branch).unwrap(),
            b.replica().head_id(branch).unwrap()
        );
    }

    let again = a.sync_with(&peers);
    assert_eq!(
        again,
        SyncRoundReport {
            peers_reached: 1,
            ..SyncRoundReport::default()
        },
        "a second round has nothing left to move"
    );
}

#[test]
fn peered_servers_converge_via_anti_entropy() {
    // A 2-node in-process fleet: writes land on different nodes; the
    // background sync threads must make both serve both writes with
    // identical branch heads. (The 3-node *process*-level version of this
    // is scripts/service_smoke.sh in CI.)
    let a = Server::spawn(
        ServerConfig {
            sync_interval: Duration::from_millis(100),
            ..ServerConfig::new("node-a")
        },
        "127.0.0.1:0",
        MemoryBackend::new(),
    )
    .unwrap();
    let b = Server::spawn(
        ServerConfig {
            peers: vec![a.addr().to_string()],
            sync_interval: Duration::from_millis(100),
            ..ServerConfig::new("node-b")
        },
        "127.0.0.1:0",
        MemoryBackend::new(),
    )
    .unwrap();

    let mut ca = ServiceClient::connect(a.addr()).unwrap();
    let mut cb = ServiceClient::connect(b.addr()).unwrap();
    ca.put("main", "from-a", "1").unwrap();
    cb.put("main", "from-b", "2").unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let a_head = a.replica().head_id("main").ok();
        let b_head = b.replica().head_id("main").ok();
        if a_head.is_some() && a_head == b_head {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet did not converge: a={a_head:?} b={b_head:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(ca.get("main", "from-b").unwrap().as_deref(), Some("2"));
    assert_eq!(cb.get("main", "from-a").unwrap().as_deref(), Some("1"));
}
