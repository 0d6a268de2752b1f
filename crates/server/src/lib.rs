//! **peepul-server** — the Peepul branch store as a *service*: a
//! concurrent, durable, multi-tenant key-value daemon built on the
//! workspace's certified MRDTs.
//!
//! The store layers below this crate give us a content-addressed commit
//! graph with certified three-way merges ([`peepul_store`]), a canonical
//! wire codec ([`peepul_core::Wire`]) and a Git-shaped replication
//! protocol ([`peepul_net`]). This crate is the last step to a running
//! system: a daemon (`peepul-server`) that owns one durable
//! [`Replica`](peepul_net::Replica) of [`Kv`] — a map of last-writer-wins
//! registers — and serves it to many concurrent clients and peers over
//! one TCP port, plus a typed [`ServiceClient`] the `peepul-cli` binary,
//! the benches and the tests all speak.
//!
//! The pieces:
//!
//! * [`service`] — the KV command protocol ([`ServiceRequest`] /
//!   [`ServiceResponse`]), tag-partitioned above the replication protocol
//!   so both share a socket, and the per-connection [`Session`] carrying
//!   the tenant binding;
//! * [`server`] — [`Server`]: the daemon proper, a
//!   [`FrameServer`](peepul_net::FrameServer) dispatching each frame to
//!   the replication handler or the KV handler, with a background
//!   anti-entropy thread converging a fleet of peers.
//!
//! Reads (`get`, `query`, `status`, `branches`, and every read-only
//! replication request) run under the store's shared read lock — the
//! commit-free query path — so they are concurrent with each other and
//! never minted into history. Writes (`put`, `fork`, `merge`, pushed
//! packs) serialize under the write lock. Convergence across a fleet is
//! the paper's guarantee surfaced operationally: every node's branch
//! heads settle to identical state ids once anti-entropy quiesces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod server;
pub mod service;

pub use metrics::ServerMetrics;
pub use server::{Server, ServerConfig, ServiceClient, SyncRoundReport};
pub use service::{Kv, ServiceRequest, ServiceResponse, Session, SERVICE_TAG_BASE};
