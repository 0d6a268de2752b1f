//! True multi-store replication, end to end: the `peepul-net` acceptance
//! suite.
//!
//! What is checked here, nowhere else:
//!
//! * two **independent** `BranchStore`s connected by a real TCP socket
//!   exchange *only* the objects the receiver lacks (asserted via backend
//!   object counts);
//! * a delta-storing origin ships under half the state bytes a
//!   full-snapshot origin does for the same cold chat-log fetch;
//! * an 8-replica `ChannelTransport` fleet with injected partitions and
//!   message loss converges after heal — on the in-memory backend, the
//!   on-disk segment backend, and a mixed fleet of both;
//! * a proptest: for **any** operation schedule and **any** partition
//!   schedule, post-heal anti-entropy converges all replicas to identical
//!   heads (byte-identical canonical states), over both backends;
//! * a corrupted transfer is rejected by content verification and leaves
//!   the receiving store untouched.

mod common;

use common::{for_each_backend, Scratch};
use peepul::net::{
    AntiEntropy, ChannelTransport, Cluster, FaultInjector, NetError, Remote, Replica, TcpServer,
    TcpTransport, Transport,
};
use peepul::prelude::*;
use peepul::store::{SegmentBackend, SegmentOptions, DEFAULT_SNAPSHOT_INTERVAL};
use peepul::types::counter::CounterOp;
use peepul::types::or_set_space::{OrSetOp, OrSetSpace};
use proptest::prelude::*;

type DynBackend = Box<dyn Backend + Send + Sync>;

fn memory() -> DynBackend {
    Box::new(MemoryBackend::new())
}

fn segment(scratch: &Scratch, n: u32) -> DynBackend {
    Box::new(
        SegmentBackend::open_with(
            scratch.path().join(n.to_string()),
            SegmentOptions {
                durable: false,
                ..SegmentOptions::default()
            },
        )
        .expect("open segment backend"),
    )
}

/// Builds a replica over its own store with a disjoint replica-id range.
fn replica<B: Backend>(name: &str, backend: B, base: u32) -> Replica<OrSetSpace<u32>, B> {
    let store = BranchStore::with_backend_and_base("main", backend, base << 16)
        .expect("store construction");
    Replica::new(name, store)
}

#[test]
fn tcp_pair_exchanges_only_missing_objects() {
    // Server replica with real history: adds, a fork, a merge.
    let origin = replica("origin", MemoryBackend::new(), 0);
    origin
        .with_store(|s| -> Result<(), StoreError> {
            for x in 0..5u32 {
                s.branch_mut("main")?.apply(&OrSetOp::Add(x))?;
            }
            s.branch_mut("main")?.fork("feature")?;
            s.branch_mut("feature")?.apply(&OrSetOp::Add(100))?;
            s.branch_mut("main")?.apply(&OrSetOp::Remove(0))?;
            s.branch_mut("main")?.merge_from("feature")?;
            Ok(())
        })
        .unwrap();
    let origin_objects = origin.object_count();
    let server = TcpServer::spawn(origin.clone()).unwrap();

    // Independent client store with divergent local history.
    let laptop = replica("laptop", MemoryBackend::new(), 1);
    laptop
        .with_store(|s| s.branch_mut("main").unwrap().apply(&OrSetOp::Add(777)))
        .unwrap();

    let mut remote = Remote::new("origin", TcpTransport::connect(server.addr()).unwrap());
    let before = laptop.object_count();
    let fetch = laptop.fetch(&mut remote, "main").unwrap();

    // The transfer is *exactly* the objects the client lacked: every
    // received object is new to the backend, nothing was re-sent.
    assert!(!fetch.up_to_date);
    assert_eq!(fetch.round_trips, 3, "refs + want/have + states");
    assert_eq!(
        laptop.object_count(),
        before + fetch.objects_received() as usize,
        "received objects are precisely the backend growth"
    );
    // The shared root commit + root state were never transferred.
    assert!(
        (fetch.objects_received() as usize) < origin_objects,
        "common history is excluded from the transfer"
    );

    // Re-fetching is free: the client now has the remote head.
    let again = laptop.fetch(&mut remote, "main").unwrap();
    assert!(again.up_to_date);
    assert_eq!(again.round_trips, 1, "refs only");
    assert_eq!(again.objects_received(), 0);

    // Pull to integrate (three-way merge of the divergent histories)…
    let pull = laptop.pull(&mut remote, "main").unwrap();
    assert_eq!(pull.outcome, peepul::net::PullOutcome::Merged);
    let lookup = laptop
        .read("main", &peepul::types::or_set::OrSetQuery::Lookup(777))
        .unwrap();
    assert_eq!(
        lookup,
        peepul::types::or_set::OrSetOutput::Present(true),
        "local work survives the merge"
    );

    // …and push the merge back: the server is strictly behind, so this is
    // a fast-forward, and afterwards both stores hold identical object
    // sets.
    let push = laptop.push(&mut remote, "main").unwrap();
    assert!(push.commits_sent > 0);
    assert_eq!(origin.object_count(), laptop.object_count());
    assert_eq!(
        origin.head_id("main").unwrap(),
        laptop.head_id("main").unwrap(),
        "byte-identical Merkle heads across two stores over TCP"
    );

    // A second push has nothing left to say.
    let push = laptop.push(&mut remote, "main").unwrap();
    assert_eq!(push.commits_sent, 0);
    assert_eq!(push.states_sent, 0);
}

#[test]
fn delta_storing_origin_ships_under_half_the_state_bytes() {
    use peepul::types::log::{LogOp, MergeableLog};

    // The O(delta) transfer claim in bytes: a cold replica fetches the
    // same 256-append chat log from a full-snapshot origin (interval 0,
    // every state ships as its full canonical bytes) and from a
    // delta-storing origin (the default interval).
    let cold_fetch = |snapshot_interval: u32| {
        let origin: Replica<MergeableLog<String>, _> =
            Replica::open("origin", "main", MemoryBackend::new()).unwrap();
        origin
            .with_store(|s| -> Result<(), StoreError> {
                s.set_snapshot_interval(snapshot_interval);
                let mut main = s.branch_mut("main")?;
                for i in 0..256 {
                    main.apply(&LogOp::Append(format!(
                        "chat message number {i:08} from origin"
                    )))?;
                }
                Ok(())
            })
            .unwrap();
        let client: Replica<MergeableLog<String>, _> =
            Replica::open("client", "main", MemoryBackend::new()).unwrap();
        let mut remote = Remote::new("origin", ChannelTransport::connect(origin));
        client.fetch(&mut remote, "main").unwrap()
    };
    let full = cold_fetch(0);
    let delta = cold_fetch(DEFAULT_SNAPSHOT_INTERVAL);

    assert_eq!(
        full.delta_states_received, 0,
        "interval 0 must disable deltas"
    );
    assert_eq!(full.states_received, delta.states_received);
    assert!(
        delta.state_bytes_received * 2 < full.state_bytes_received,
        "delta sync must at least halve the state bytes moved: {} delta vs {} full",
        delta.state_bytes_received,
        full.state_bytes_received
    );
}

#[test]
fn push_to_diverged_peer_is_rejected() {
    let origin = replica("origin", MemoryBackend::new(), 0);
    let server = TcpServer::spawn(origin.clone()).unwrap();
    let laptop = replica("laptop", MemoryBackend::new(), 1);

    // Both sides commit concurrently.
    origin
        .with_store(|s| s.branch_mut("main").unwrap().apply(&OrSetOp::Add(1)))
        .unwrap();
    laptop
        .with_store(|s| s.branch_mut("main").unwrap().apply(&OrSetOp::Add(2)))
        .unwrap();

    let mut remote = Remote::new("origin", TcpTransport::connect(server.addr()).unwrap());
    let err = laptop.push(&mut remote, "main").unwrap_err();
    assert!(matches!(err, NetError::PushRejected), "{err}");

    // Pull-merge-push resolves it, like Git.
    laptop.pull(&mut remote, "main").unwrap();
    laptop.push(&mut remote, "main").unwrap();
    assert_eq!(
        origin.head_id("main").unwrap(),
        laptop.head_id("main").unwrap()
    );
}

/// Regression: a **rejected** push must not leave its transferred objects
/// behind. Before the divergence pre-check, the server ingested the whole
/// pack and only then discovered the branch had diverged — every denied
/// retry of a hammering client grew the backend with commits no ref
/// would ever reach.
#[test]
fn rejected_push_lands_no_objects_and_gc_finds_no_garbage() {
    let origin = replica("origin", MemoryBackend::new(), 0);
    let server = TcpServer::spawn(origin.clone()).unwrap();
    let laptop = replica("laptop", MemoryBackend::new(), 1);

    origin
        .with_store(|s| s.branch_mut("main").unwrap().apply(&OrSetOp::Add(1)))
        .unwrap();
    // Give the diverged client some weight: several commits that would
    // all have been transferred (and stranded) by the old code.
    laptop
        .with_store(|s| -> Result<(), StoreError> {
            for x in 10..20u32 {
                s.branch_mut("main")?.apply(&OrSetOp::Add(x))?;
            }
            Ok(())
        })
        .unwrap();

    let before = origin.object_count();
    let mut remote = Remote::new("origin", TcpTransport::connect(server.addr()).unwrap());
    for _ in 0..3 {
        // A hammering client: every retry must bounce off equally clean.
        let err = laptop.push(&mut remote, "main").unwrap_err();
        assert!(matches!(err, NetError::PushRejected), "{err}");
        assert_eq!(
            origin.object_count(),
            before,
            "a denied push must not grow the server's backend"
        );
    }

    // And the server's own GC agrees there is nothing to reclaim: every
    // stored object is still reachable from a ref.
    let swept = origin
        .with_store(|s| s.collect_garbage())
        .expect("gc over the server store");
    assert_eq!(swept.dead_objects, 0, "rejected pushes left garbage");
    assert_eq!(origin.object_count(), before);
}

/// The headline acceptance scenario: an 8-replica fleet with partitions
/// and message loss converges after heal — over memory and segment
/// backends alike.
#[test]
fn eight_replica_fleet_converges_after_partition_heal() {
    for_each_backend("fleet-8", |kind, make| {
        let cluster: Cluster<Counter, DynBackend> =
            Cluster::replicated((0..8).map(|_| make()).collect()).unwrap();

        // Replicas 2 and 5 are partitioned for the whole run; link 0 drops
        // its first gossip attempts; link 3 loses 20% of messages.
        cluster.faults(2).unwrap().partition();
        cluster.faults(5).unwrap().partition();
        cluster.faults(0).unwrap().drop_requests(3);
        cluster.faults(3).unwrap().set_loss(200, 0xfee1_600d);

        cluster.run(30, 5, |_, _| CounterOp::Increment).unwrap();

        // While partitioned, converge() must refuse to pretend.
        assert!(
            cluster.converge().is_err(),
            "{kind}: honest non-convergence"
        );

        // Heal everything; anti-entropy repairs the fleet.
        cluster.faults(2).unwrap().heal();
        cluster.faults(5).unwrap().heal();
        cluster.faults(3).unwrap().set_loss(0, 0);
        let states = cluster.converge().unwrap();
        assert_eq!(states.len(), 8);
        for s in &states {
            assert_eq!(s.count(), 8 * 30, "{kind}: no increment lost or duplicated");
        }
        // Identical heads: byte-identical canonical states *and* equal
        // Merkle histories on every replica.
        let head0 = cluster.node(0).unwrap().head_id("main").unwrap();
        let state0 = cluster.node(0).unwrap().state_id("main").unwrap();
        for i in 1..8 {
            let node = cluster.node(i).unwrap();
            assert_eq!(node.head_id("main").unwrap(), head0, "{kind}");
            assert_eq!(node.state_id("main").unwrap(), state0, "{kind}");
        }
    });
}

#[test]
fn mixed_memory_segment_fleet_converges() {
    let scratch = Scratch::new("mixed-fleet");
    let backends: Vec<DynBackend> = vec![
        memory(),
        segment(&scratch, 1),
        memory(),
        segment(&scratch, 3),
    ];
    let cluster: Cluster<OrSetSpace<u32>, DynBackend> = Cluster::replicated(backends).unwrap();
    cluster.faults(1).unwrap().partition();
    cluster
        .run(24, 6, |replica, round| {
            let x = ((replica * 13 + round * 5) % 24) as u32;
            if round % 4 == 3 {
                OrSetOp::Remove(x)
            } else {
                OrSetOp::Add(x)
            }
        })
        .unwrap();
    cluster.faults(1).unwrap().heal();
    let states = cluster.converge().unwrap();
    for s in &states[1..] {
        assert!(states[0].observably_equal(s));
    }
    // The on-disk replicas persisted the same canonical bytes the
    // in-memory ones hold.
    let id0 = cluster.node(0).unwrap().state_id("main").unwrap();
    for i in 1..4 {
        assert_eq!(cluster.node(i).unwrap().state_id("main").unwrap(), id0);
    }
}

// ---------------------------------------------------------------------
// The codec unification lifted the 10-type restriction: the four types
// that previously had no decodable encoding — the AVL-tree-backed
// OR-set-spacetime (which exercises the `AvlMap` codec), the α-map, and
// the chat composition — now replicate through the same fetch/pull/push
// machinery as everything else. One test per type, each asserting
// converged heads (not just states) across two independent stores.
// ---------------------------------------------------------------------

/// Pulls both ways until both replicas hold the same head.
fn sync_pair<M: peepul::core::Mrdt + Send + Sync + 'static>(
    a: &Replica<M, MemoryBackend>,
    b: &Replica<M, MemoryBackend>,
) {
    let mut to_b = Remote::new(b.name(), ChannelTransport::connect(b.clone()));
    let mut to_a = Remote::new(a.name(), ChannelTransport::connect(a.clone()));
    a.pull(&mut to_b, "main").unwrap();
    b.pull(&mut to_a, "main").unwrap();
    a.pull(&mut to_b, "main").unwrap();
    assert_eq!(
        a.head_id("main").unwrap(),
        b.head_id("main").unwrap(),
        "pair must converge to one head commit"
    );
}

#[test]
fn or_set_spacetime_replicates_across_stores() {
    use peepul::types::or_set::{OrSetOutput, OrSetQuery};
    use peepul::types::or_set_spacetime::OrSetSpacetime;

    let a: Replica<OrSetSpacetime<u32>, _> =
        Replica::open("a", "main", MemoryBackend::new()).unwrap();
    let b: Replica<OrSetSpacetime<u32>, _> =
        Replica::open("b", "main", MemoryBackend::new()).unwrap();
    a.with_store(|s| -> Result<(), StoreError> {
        for x in 0..40u32 {
            s.branch_mut("main")?.apply(&OrSetOp::Add(x))?;
        }
        s.branch_mut("main")?.apply(&OrSetOp::Remove(7))?;
        Ok(())
    })
    .unwrap();
    b.with_store(|s| -> Result<(), StoreError> {
        for x in 30..60u32 {
            s.branch_mut("main")?.apply(&OrSetOp::Add(x))?;
        }
        // Concurrent with a's remove of 7: add-wins must keep it.
        s.branch_mut("main")?.apply(&OrSetOp::Add(7))?;
        Ok(())
    })
    .unwrap();
    sync_pair(&a, &b);
    let OrSetOutput::Elements(ea) = a.read("main", &OrSetQuery::Read).unwrap() else {
        panic!("read returns elements")
    };
    let OrSetOutput::Elements(eb) = b.read("main", &OrSetQuery::Read).unwrap() else {
        panic!("read returns elements")
    };
    assert_eq!(ea, eb);
    assert!(ea.contains(&7), "add-wins across replication");
    assert_eq!(ea.len(), 60);
}

#[test]
fn g_map_of_counters_replicates_across_stores() {
    use peepul::types::counter::{Counter, CounterQuery};
    use peepul::types::map::{MapOp, MapQuery, MrdtMap};

    let a: Replica<MrdtMap<Counter>, _> = Replica::open("a", "main", MemoryBackend::new()).unwrap();
    let b: Replica<MrdtMap<Counter>, _> = Replica::open("b", "main", MemoryBackend::new()).unwrap();
    let bump = |key: &str| MapOp::Set(key.to_owned(), CounterOp::Increment);
    a.with_store(|s| -> Result<(), StoreError> {
        for _ in 0..3 {
            s.branch_mut("main")?.apply(&bump("shared"))?;
        }
        s.branch_mut("main")?.apply(&bump("only-a"))?;
        Ok(())
    })
    .unwrap();
    b.with_store(|s| -> Result<(), StoreError> {
        for _ in 0..2 {
            s.branch_mut("main")?.apply(&bump("shared"))?;
        }
        s.branch_mut("main")?.apply(&bump("only-b"))?;
        Ok(())
    })
    .unwrap();
    sync_pair(&a, &b);
    for (key, want) in [("shared", 5), ("only-a", 1), ("only-b", 1), ("ghost", 0)] {
        let q = MapQuery::Get(key.to_owned(), CounterQuery::Value);
        assert_eq!(a.read("main", &q).unwrap(), want, "{key} on a");
        assert_eq!(b.read("main", &q).unwrap(), want, "{key} on b");
    }
}

#[test]
fn chat_replicates_across_stores() {
    use peepul::types::chat::{Chat, ChatOp, ChatQuery};

    let a: Replica<Chat, _> = Replica::open("a", "main", MemoryBackend::new()).unwrap();
    let b: Replica<Chat, _> = Replica::open("b", "main", MemoryBackend::new()).unwrap();
    let send = |ch: &str, m: &str| ChatOp::Send(ch.to_owned(), m.to_owned());
    a.with_store(|s| -> Result<(), StoreError> {
        s.branch_mut("main")?
            .apply(&send("#rust", "hello from a"))?;
        s.branch_mut("main")?.apply(&send("#a-only", "private"))?;
        Ok(())
    })
    .unwrap();
    b.with_store(|s| -> Result<(), StoreError> {
        s.branch_mut("main")?
            .apply(&send("#rust", "hello from b"))?;
        Ok(())
    })
    .unwrap();
    sync_pair(&a, &b);
    let msgs_a = a.read("main", &ChatQuery::Read("#rust".into())).unwrap();
    let msgs_b = b.read("main", &ChatQuery::Read("#rust".into())).unwrap();
    assert_eq!(msgs_a, msgs_b);
    assert_eq!(msgs_a.len(), 2, "both posts survive the merge");
    assert_eq!(
        a.read("main", &ChatQuery::Read("#a-only".into()))
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        b.read("main", &ChatQuery::Read("#a-only".into()))
            .unwrap()
            .len(),
        1,
        "channel created on a reached b"
    );
}

#[test]
fn replica_open_survives_a_process_restart_on_disk() {
    use peepul::types::or_set::{OrSetOutput, OrSetQuery};

    let scratch = Scratch::new("replica-restart");
    let dir = scratch.path().join("db");
    let open_backend = || {
        SegmentBackend::open_with(
            &dir,
            SegmentOptions {
                durable: false,
                ..SegmentOptions::default()
            },
        )
    };

    // First life: create, write, replicate a little, die.
    let (head, tick) = {
        let a: Replica<OrSetSpace<u32>, _> =
            Replica::open("durable", "main", open_backend().unwrap()).unwrap();
        a.with_store(|s| -> Result<(), StoreError> {
            for x in 0..10u32 {
                s.branch_mut("main")?.apply(&OrSetOp::Add(x))?;
            }
            s.branch_mut("main")?.apply(&OrSetOp::Remove(3))?;
            Ok(())
        })
        .unwrap();
        a.with_store(|s| s.flush()).unwrap();
        (a.head_id("main").unwrap(), a.with_store(|s| s.tick()))
    };

    // Second life: the same call site reopens the typed store instead of
    // resetting it — full history, clock and branch intact.
    let a: Replica<OrSetSpace<u32>, _> =
        Replica::open("durable", "main", open_backend().unwrap()).unwrap();
    assert_eq!(
        a.head_id("main").unwrap(),
        head,
        "head survived the restart"
    );
    assert_eq!(a.with_store(|s| s.tick()), tick, "clock survived");
    let OrSetOutput::Elements(elems) = a.read("main", &OrSetQuery::Read).unwrap() else {
        panic!("read returns elements")
    };
    assert_eq!(elems.len(), 9);
    assert!(!elems.contains(&3));

    // …and it replicates immediately: a fresh peer pulls the whole
    // recovered history.
    let b: Replica<OrSetSpace<u32>, _> = Replica::open("b", "main", MemoryBackend::new()).unwrap();
    let mut remote = Remote::new("durable", ChannelTransport::connect(a.clone()));
    b.pull(&mut remote, "main").unwrap();
    assert_eq!(b.head_id("main").unwrap(), head);

    // A reopened backend that lacks the requested branch is refused.
    let err = Replica::<OrSetSpace<u32>, _>::open("durable", "nope", open_backend().unwrap())
        .unwrap_err();
    assert!(matches!(err, StoreError::UnknownBranch(_)), "{err}");
}

#[test]
fn newly_wired_types_run_in_replicated_clusters() {
    use peepul::types::or_set_spacetime::OrSetSpacetime;

    // The Cluster harness (real replication mode) now accepts the
    // tree-backed set — previously excluded by the `Wire` bound.
    let cluster: Cluster<OrSetSpacetime<u32>> = Cluster::new(3).unwrap();
    cluster
        .run(30, 5, |replica, round| {
            let x = ((replica * 17 + round * 3) % 20) as u32;
            if round % 5 == 4 {
                OrSetOp::Remove(x)
            } else {
                OrSetOp::Add(x)
            }
        })
        .unwrap();
    let states = cluster.converge().unwrap();
    for s in &states[1..] {
        assert!(states[0].observably_equal(s));
    }
}

/// A transport that corrupts one byte of every response — the content
/// verification on ingest must reject the transfer and leave the store
/// untouched.
struct CorruptingTransport<T>(T);

impl<T: Transport> Transport for CorruptingTransport<T> {
    fn request(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut resp = self.0.request(request)?;
        if let Some(last) = resp.last_mut() {
            *last ^= 0x01;
        }
        Ok(resp)
    }
}

#[test]
fn corrupted_transfers_are_rejected_and_change_nothing() {
    let origin = replica("origin", MemoryBackend::new(), 0);
    origin
        .with_store(|s| -> Result<(), StoreError> {
            for x in 0..4u32 {
                s.branch_mut("main")?.apply(&OrSetOp::Add(x))?;
            }
            Ok(())
        })
        .unwrap();

    let laptop = replica("laptop", MemoryBackend::new(), 1);
    let objects_before = laptop.object_count();
    let branches_before = laptop.with_store(|s| s.branch_names().len());

    let mut evil = Remote::new(
        "origin",
        CorruptingTransport(ChannelTransport::connect(origin.clone())),
    );
    let err = laptop.fetch(&mut evil, "main").unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Store(StoreError::CorruptObject { .. })
                | NetError::Protocol(_)
                | NetError::BadFrame(_)
        ),
        "corruption must be caught, got: {err}"
    );
    assert_eq!(laptop.object_count(), objects_before, "nothing ingested");
    assert_eq!(
        laptop.with_store(|s| s.branch_names().len()),
        branches_before,
        "no tracking branch landed"
    );

    // The same fetch over a clean link succeeds.
    let mut clean = Remote::new("origin", ChannelTransport::connect(origin.clone()));
    laptop.fetch(&mut clean, "main").unwrap();
    assert!(laptop.object_count() > objects_before);
}

// ---------------------------------------------------------------------------
// Proptest: any op schedule + any partition schedule converges post-heal
// ---------------------------------------------------------------------------

const FLEET: usize = 3;

#[derive(Clone, Debug)]
enum Event {
    /// Replica applies a local operation.
    Op(u8, OrSetOp<u8>),
    /// Replica a pulls from replica b (skipped while either is cut off).
    Pull(u8, u8),
    /// Cut a replica's interface.
    Partition(u8),
    /// Restore it.
    Heal(u8),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let op = (0u8..8, 0u8..2).prop_map(|(x, kind)| {
        if kind == 0 {
            OrSetOp::Add(x)
        } else {
            OrSetOp::Remove(x)
        }
    });
    prop_oneof![
        4 => (any::<u8>(), op).prop_map(|(r, op)| Event::Op(r, op)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Event::Pull(a, b)),
        1 => any::<u8>().prop_map(Event::Partition),
        1 => any::<u8>().prop_map(Event::Heal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any interleaving of operations, pulls, partitions and heals:
    /// after healing, anti-entropy drives all replicas to identical heads
    /// — byte-identical canonical states — on both backends.
    #[test]
    fn post_heal_anti_entropy_converges(
        events in proptest::collection::vec(event_strategy(), 1..40),
    ) {
        for_each_backend("ae-prop", |kind, make| {
            let replicas: Vec<Replica<OrSetSpace<u8>, DynBackend>> = (0..FLEET)
                .map(|i| {
                    let store = BranchStore::with_backend_and_base(
                        "main",
                        make(),
                        (i as u32) << 16,
                    )
                    .expect("store construction");
                    Replica::new(format!("replica-{i}"), store)
                })
                .collect();
            let faults: Vec<FaultInjector> =
                (0..FLEET).map(|_| FaultInjector::new()).collect();

            for ev in &events {
                match ev {
                    Event::Op(r, op) => {
                        let r = *r as usize % FLEET;
                        replicas[r]
                            .with_store(|s| s.branch_mut("main").unwrap().apply(op))
                            .unwrap();
                    }
                    Event::Pull(a, b) => {
                        let (a, b) = (*a as usize % FLEET, *b as usize % FLEET);
                        if a == b || faults[b].is_partitioned() {
                            continue;
                        }
                        let transport = ChannelTransport::with_faults(
                            replicas[b].clone(),
                            faults[a].clone(),
                        );
                        let mut remote = Remote::new(replicas[b].name(), transport);
                        match replicas[a].pull(&mut remote, "main") {
                            Ok(_) | Err(NetError::Dropped | NetError::Partitioned) => {}
                            Err(e) => panic!("{kind}: pull failed: {e}"),
                        }
                    }
                    Event::Partition(r) => faults[*r as usize % FLEET].partition(),
                    Event::Heal(r) => faults[*r as usize % FLEET].heal(),
                }
            }

            // Heal the world; anti-entropy must finish the job.
            for f in &faults {
                f.heal();
            }
            let report = AntiEntropy::new().run(&replicas, "main").unwrap();
            assert!(report.converged, "{kind}: {report:?}");
            let head0 = replicas[0].head_id("main").unwrap();
            let state0 = replicas[0].state_id("main").unwrap();
            for r in &replicas[1..] {
                assert_eq!(r.head_id("main").unwrap(), head0, "{kind}");
                assert_eq!(r.state_id("main").unwrap(), state0, "{kind}");
                assert!(
                    replicas[0]
                        .state("main")
                        .unwrap()
                        .observably_equal(&r.state("main").unwrap()),
                    "{kind}"
                );
            }
        });
    }
}
