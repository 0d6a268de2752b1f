//! Every `peepul_*` item the traced pass uses. A superset of the
//! end-to-end bin's `api.rs` (the shared `workloads.rs` compiles against
//! either): the layer table needs the wider surface — codec, hashing,
//! delta, commit graph, memo, backends, frame server and protocol
//! messages. When the workspace's API shrinks, this file and the layer
//! table may break; the end-to-end numbers do not depend on it.

pub use peepul_core::{Mrdt, Timestamp, Wire};
pub use peepul_net::{
    ChannelTransport, FnService, FrameServer, NetError, Remote, Replica, Request, Response,
    ServeOptions, TcpTransport, Transport,
};
pub use peepul_server::{Kv, Server, ServerConfig, ServiceClient};
pub use peepul_store::{
    canonical_bytes, commit_record, content_id_of_bytes, decode_canonical, parse_commit_record,
    state_record_delta, Backend, BranchStore, MemoryBackend, ObjectId, SegmentBackend,
    SegmentOptions,
};
pub use peepul_types::lww_register::{LwwOp, LwwQuery};
pub use peepul_types::map::{MapOp, MapQuery};
pub use peepul_types::or_set_space::{OrSetOp, OrSetQuery, OrSetSpace};
pub use peepul_types::queue::{Queue, QueueOp, QueueQuery, QueueValue};
pub use peepul_types::LwwRegister;
