//! **peepul-net** — true multi-store replication for the Peepul branch
//! store.
//!
//! Everything below the store layer in this workspace is content-addressed
//! (states and commit records are immutable objects named by their SHA-256,
//! exactly like Git/Irmin). This crate is the consequence: a Git-style
//! **sync protocol** in which independent [`BranchStore`]s — each with its
//! own backend, commit graph and Lamport clock — exchange precisely the
//! objects the other side lacks, verify every one against its address, and
//! converge by ordinary three-way merges — replication that can actually
//! be partitioned, lossy and lagging.
//!
//! The layers, bottom-up:
//!
//! * [`transport`] — the [`Transport`] request/response abstraction,
//!   deterministic in-process [`ChannelTransport`] with [`FaultInjector`]
//!   (drop / partition / seeded loss), and [`tcp`]'s length-prefixed
//!   checksummed [`TcpTransport`] + [`TcpServer`] over std sockets;
//! * [`message`] — the protocol: `FetchRefs`, `Want`/have negotiation
//!   answered from the Merkle commit structure, `GetStatesDelta`,
//!   `HaveObjects`, `Push`;
//! * [`replica`] — [`Replica`] (a store that serves the protocol) and
//!   [`Remote`] (a named link), with Git-shaped `fetch` / `pull` / `push`
//!   and hash-verified ingest;
//! * [`serve`] — the shared accept-loop machinery: [`FrameServer`] (one
//!   serving thread per connection, connection cap with accept-time
//!   backpressure, clean shutdown) parameterized by a [`FrameService`]
//!   protocol handler — [`TcpServer`] and the `peepul-server` daemon are
//!   both bindings of it;
//! * [`anti_entropy`] — the [`AntiEntropy`] scheduler: periodic pairwise
//!   pulls until quiescence;
//! * [`cluster`] — the [`Cluster`] facade: `n` real replicas over
//!   channel links.
//!
//! States cross the wire in the [`Wire`](peepul_core::Wire) codec and are
//! re-hashed on arrival; commit records travel as their canonical bytes.
//! A corrupted or tampered transfer fails with
//! [`StoreError::CorruptObject`](peepul_store::StoreError::CorruptObject)
//! and leaves the receiving store untouched.
//!
//! [`BranchStore`]: peepul_store::BranchStore
//!
//! # Example: two stores over TCP
//!
//! ```
//! use peepul_net::{Remote, Replica, TcpServer, TcpTransport};
//! use peepul_store::MemoryBackend;
//! use peepul_types::counter::{Counter, CounterOp, CounterQuery};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A server replica with some history. `Replica::open` derives a
//! // disjoint replica-id range from the name, so independent peers can
//! // never mint colliding timestamps.
//! let origin: Replica<Counter, _> = Replica::open("origin", "main", MemoryBackend::new())?;
//! origin.with_store(|s| s.branch_mut("main")?.apply(&CounterOp::Increment))?;
//! let server = TcpServer::spawn(origin)?;
//!
//! // …and an independent client store that pulls it over a socket.
//! let laptop: Replica<Counter, _> = Replica::open("laptop", "main", MemoryBackend::new())?;
//! let mut remote = Remote::new("origin", TcpTransport::connect(server.addr())?);
//! let report = laptop.pull(&mut remote, "main")?;
//! assert_eq!(laptop.read("main", &CounterQuery::Value)?, 1);
//! assert_eq!(report.fetch.round_trips, 3); // refs, want/have, states
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anti_entropy;
pub mod cluster;
pub mod error;
pub mod message;
pub mod metrics;
pub mod observer;
pub mod replica;
pub mod serve;
pub mod tcp;
pub mod transport;

pub use anti_entropy::{AntiEntropy, AntiEntropyReport};
pub use cluster::Cluster;
pub use error::NetError;
pub use message::{PackedObject, Request, Response, StateTransfer};
pub use metrics::NetMetrics;
pub use observer::{HistoryObserver, ReplicationMutation};
pub use replica::{FetchStats, PullOutcome, PullReport, PushReport, Remote, Replica};
pub use serve::{ConnStats, FnService, FrameServer, FrameService, ServeOptions};
pub use tcp::{TcpServer, TcpTransport};
pub use transport::{ChannelTransport, FaultCounters, FaultInjector, Transport};
