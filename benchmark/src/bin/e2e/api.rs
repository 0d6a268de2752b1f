//! Every `peepul_*` item the end-to-end bin uses, and nothing else. The
//! surface is deliberately tiny: when a later change shrinks or renames
//! the workspace's public API, this file is the only place the
//! end-to-end numbers can break, and the fix is a one-file change.
//!
//! Used: `Server::{spawn, addr, replica, shutdown}`, `ServerConfig::new`,
//! `ServiceClient::{connect, put, get, metrics}`,
//! `SegmentBackend::open_with`, `SegmentOptions` (`default`, `durable`),
//! `MemoryBackend::new`, `Replica::{new, open, pull, state_id, apply}`,
//! `Remote::new`, `TcpTransport::connect`, `ChannelTransport::connect`,
//! the `FetchStats` fields of a pull's report, `BranchStore::{new,
//! branch_mut, read, state_id, commit_count, sweep_stats}`,
//! `BranchMut::{apply, fork, merge_from}`, and the op/query/value types of
//! `Kv`, `OrSetSpace<u64>` and `Queue<u64>`.

pub use peepul_core::Mrdt;
pub use peepul_net::{ChannelTransport, Remote, Replica, TcpTransport};
pub use peepul_server::{Kv, Server, ServerConfig, ServiceClient};
pub use peepul_store::{BranchStore, MemoryBackend, SegmentBackend, SegmentOptions};
pub use peepul_types::lww_register::LwwOp;
pub use peepul_types::map::MapOp;
pub use peepul_types::or_set_space::{OrSetOp, OrSetSpace};
pub use peepul_types::queue::{Queue, QueueOp, QueueQuery, QueueValue};
