//! Two *independent* stores synchronising over a real TCP socket — the
//! `peepul-net` quickstart.
//!
//! A "cloud" replica serves its store over TCP; a laptop replica with its
//! own store and its own divergent edits pulls (fetch + three-way merge)
//! and pushes the merge back. Only missing content-addressed objects cross
//! the wire, every one verified against its SHA-256 address on arrival.
//!
//! Run: `cargo run --example replicated_pair`

use peepul::net::{PullOutcome, Remote, Replica, TcpServer, TcpTransport};
use peepul::store::MemoryBackend;
use peepul::types::or_set::{OrSetOp, OrSetOutput, OrSetQuery};
use peepul::types::or_set_space::OrSetSpace;

type List = OrSetSpace<String>;

fn add(item: &str) -> OrSetOp<String> {
    OrSetOp::Add(item.into())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The cloud replica: its own store, backend and clock. `Replica::open`
    // derives a disjoint replica-id range from each name, so independent
    // peers never mint colliding timestamps.
    let cloud: Replica<List, _> = Replica::open("cloud", "main", MemoryBackend::new())?;
    cloud.apply("main", &add("milk"))?;
    cloud.apply("main", &add("eggs"))?;
    let server = TcpServer::spawn(cloud.clone())?;
    println!("cloud replica serving on {}", server.addr());

    // The laptop: an *independent* store that already made its own edit
    // while offline.
    let laptop: Replica<List, _> = Replica::open("laptop", "main", MemoryBackend::new())?;
    laptop.apply("main", &add("coffee"))?;

    // Pull: fetch over the socket, then a real three-way merge.
    let mut remote = Remote::new("cloud", TcpTransport::connect(server.addr())?);
    let pull = laptop.pull(&mut remote, "main")?;
    println!(
        "pull: {:?} — {} commits + {} states in {} round trips",
        pull.outcome,
        pull.fetch.commits_received,
        pull.fetch.states_received,
        pull.fetch.round_trips,
    );
    assert_eq!(pull.outcome, PullOutcome::Merged);
    assert_eq!(pull.fetch.round_trips, 3, "refs, want/have, states");

    // Both sides' edits survived the merge.
    for item in ["milk", "eggs", "coffee"] {
        let v = laptop.read("main", &OrSetQuery::Lookup(item.into()))?;
        assert_eq!(v, OrSetOutput::Present(true), "{item} must be on the list");
    }

    // Push the merge back; the cloud fast-forwards and the two stores end
    // byte-identical, down to the Merkle head.
    let push = laptop.push(&mut remote, "main")?;
    println!(
        "push: {} commits + {} states uploaded",
        push.commits_sent, push.states_sent
    );
    assert_eq!(cloud.head_id("main")?, laptop.head_id("main")?);
    assert_eq!(cloud.object_count(), laptop.object_count());
    let OrSetOutput::Elements(items) = cloud.read("main", &OrSetQuery::Read)? else {
        panic!("read returns elements");
    };
    println!("cloud list after sync: {items:?}");
    assert_eq!(items, ["coffee", "eggs", "milk"]);

    println!("ok: two stores, one socket, zero shared memory");
    Ok(())
}
