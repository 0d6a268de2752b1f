//! The daemon: one durable [`Replica`] served concurrently to clients and
//! peers over a single port.
//!
//! [`Server`] binds a [`FrameServer`] (the shared accept-loop machinery
//! of `peepul-net`: one serving thread per connection, a hard connection
//! cap with accept-time backpressure) over a dispatching
//! [`FrameService`]: frames whose tag byte is below
//! [`SERVICE_TAG_BASE`](crate::service::SERVICE_TAG_BASE) are replication
//! protocol requests answered by [`Replica::handle_frame`], everything
//! else is a [`ServiceRequest`] run in the connection's [`Session`].
//!
//! ## Concurrency model
//!
//! Every handler goes through a [`Replica`] method, so an attached
//! history observer witnesses every write and every `Get`. `Get`/`Query`/
//! `Status`/`Branches` and the read-only replication requests take the
//! shared read lock and run concurrently across any number of sessions —
//! the store's query path is commit-free and needs only `&self`.
//! `Put` ([`Replica::apply`]), `Fork` ([`Replica::fork`]), `Merge`
//! ([`Replica::merge`]), flushes and pushed packs take the write lock and
//! serialize. Backpressure is
//! layered: past `max_connections` the acceptor stops accepting (clients
//! queue in the OS listen backlog), and within a connection the
//! one-frame-at-a-time request/response discipline bounds in-flight work
//! to one request per session.
//!
//! ## Peering
//!
//! A background thread runs an anti-entropy round every `sync_interval`:
//! it connects to each configured peer and runs [`Replica::sync`] — pull
//! every advertised non-tracking branch, then push every local one (a
//! refused push is pulled, merged and retried next round). The certified
//! fleet's `Cluster::converge` runs the same routine. Unreachable peers
//! are skipped, so a fleet can be started in any order.

use crate::metrics::{request_kind, ServerMetrics};
use crate::service::{Kv, ServiceRequest, ServiceResponse, Session};
use peepul_core::wire::Wire;
use peepul_net::{
    ConnStats, FrameServer, FrameService, NetError, NetMetrics, Remote, Replica, ServeOptions,
    TcpTransport, TRACKING_PREFIX,
};
use peepul_obs::{Obs, ObsConfig};
use peepul_store::{Backend, BranchStore, CommitId, StoreError, StoreMetrics};
use peepul_types::lww_register::{LwwOp, LwwQuery};
use peepul_types::map::{MapOp, MapQuery};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Server`] is to be run: identity, limits and peering.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The node's replica name (determines its timestamp replica-id
    /// range — must be unique across a fleet).
    pub name: String,
    /// The branch every node starts with and new branches fork from.
    pub root_branch: String,
    /// Hard cap on concurrently served connections.
    pub max_connections: usize,
    /// Peer addresses (`host:port`) to anti-entropy with.
    pub peers: Vec<String>,
    /// Delay between anti-entropy rounds. Ignored when `peers` is empty.
    pub sync_interval: Duration,
    /// When set, a background thread flushes the store to stable storage
    /// at this interval — the companion of a coalesced/explicit
    /// [`FlushPolicy`](peepul_store::FlushPolicy) backend: sessions
    /// commit without paying a per-commit fsync and this bounds how long
    /// acknowledged writes may stay volatile. `None` (the default) means
    /// the backend's own policy is the whole durability story.
    pub flush_interval: Option<Duration>,
    /// The observability spine: how many trace events to retain and at
    /// what level. [`ObsConfig::disabled`] removes every metric and
    /// trace touch from the hot paths (the [`ServiceRequest::Metrics`]
    /// exposition is then empty).
    pub obs: ObsConfig,
    /// When set, the trace [`EventRing`](peepul_obs::EventRing) is
    /// flushed to this path as JSONL on shutdown and on every
    /// [`ServiceRequest::TraceDump`].
    pub trace_dump: Option<PathBuf>,
}

impl ServerConfig {
    /// A config with the given node name and the defaults: root branch
    /// `main`, 64 connections, no peers, 500 ms sync interval, no
    /// background flusher.
    pub fn new(name: impl Into<String>) -> Self {
        ServerConfig {
            name: name.into(),
            root_branch: "main".into(),
            max_connections: 64,
            peers: Vec::new(),
            sync_interval: Duration::from_millis(500),
            flush_interval: None,
            obs: ObsConfig::default(),
            trace_dump: None,
        }
    }
}

/// What one anti-entropy round did (one pass over every peer).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncRoundReport {
    /// Peers that answered.
    pub peers_reached: usize,
    /// Peers that could not be reached (skipped, not fatal).
    pub peers_unreachable: usize,
    /// Local branch heads the pulls moved, across all peers.
    pub branches_pulled: usize,
    /// Peer branch heads the pushes moved, across all peers.
    pub branches_pushed: usize,
}

/// The `peepul-server` daemon: a durable multi-tenant KV service over one
/// [`Replica`], serving clients and peers concurrently on one port.
#[derive(Debug)]
pub struct Server<B: Backend + Send + Sync + 'static> {
    replica: Replica<Kv, B>,
    frames: FrameServer,
    sync_shutdown: Arc<AtomicBool>,
    sync_thread: Option<JoinHandle<()>>,
    flush_thread: Option<JoinHandle<()>>,
    name: String,
    obs: Obs,
    metrics: Option<Arc<ServerMetrics>>,
    trace_dump: Option<PathBuf>,
}

impl<B: Backend + Send + Sync + 'static> Server<B> {
    /// Opens (or creates) the store on `backend`, binds `listen` and
    /// starts serving. When `config.peers` is non-empty, also starts the
    /// background anti-entropy thread.
    ///
    /// # Errors
    ///
    /// Store errors from [`Replica::open`] (a corrupt or foreign
    /// backend); [`NetError::Io`] when the bind fails.
    pub fn spawn(
        config: ServerConfig,
        listen: impl ToSocketAddrs,
        backend: B,
    ) -> Result<Self, NetError> {
        let replica: Replica<Kv, B> =
            Replica::open(config.name.clone(), config.root_branch.clone(), backend)?;

        // The observability spine: one registry + trace ring shared by
        // every subsystem. Attaching hands each layer its pre-resolved
        // handles; a disabled spine attaches nothing, so the hot paths
        // pay only a `None` check.
        let obs = Obs::new(config.obs.clone());
        replica.set_metrics(
            obs.attach(StoreMetrics::register),
            obs.attach(NetMetrics::register),
        );
        let metrics = obs.attach(ServerMetrics::register);
        let started = Instant::now();
        if obs.enabled() {
            obs.registry()
                .gauge_fn("peepul_server_uptime_seconds", move || {
                    started.elapsed().as_secs_f64()
                });
        }

        let stats = ConnStats::default();
        if obs.enabled() {
            stats.register_gauges(obs.registry());
        }
        let service = Arc::new(KvService {
            replica: replica.clone(),
            node: config.name.clone(),
            root_branch: config.root_branch.clone(),
            stats: stats.clone(),
            obs: obs.clone(),
            metrics: metrics.clone(),
            started,
            trace_dump: config.trace_dump.clone(),
        });
        let frames = FrameServer::bind_with_stats(
            service,
            listen,
            ServeOptions {
                max_connections: config.max_connections,
            },
            stats,
        )?;

        let sync_shutdown = Arc::new(AtomicBool::new(false));
        let sync_thread = (!config.peers.is_empty()).then(|| {
            let replica = replica.clone();
            let peers = config.peers.clone();
            let metrics = metrics.clone();
            spawn_periodic(config.sync_interval, &sync_shutdown, move || {
                let _ = sync_round(&replica, &peers, metrics.as_deref());
            })
        });

        let flush_thread = config.flush_interval.map(|interval| {
            let replica = replica.clone();
            spawn_periodic(interval, &sync_shutdown, move || {
                // One sync covers every commit any session landed since
                // the last pass — group commit across sessions.
                let _ = replica.flush();
            })
        });

        Ok(Server {
            replica,
            frames,
            sync_shutdown,
            sync_thread,
            flush_thread,
            name: config.name,
            obs,
            metrics,
            trace_dump: config.trace_dump,
        })
    }

    /// The address clients and peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.frames.addr()
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The replica this server serves — the in-process handle tests and
    /// embedding applications use.
    pub fn replica(&self) -> &Replica<Kv, B> {
        &self.replica
    }

    /// Currently served connections.
    pub fn active_connections(&self) -> usize {
        self.frames.active_connections()
    }

    /// The most connections ever served at once.
    pub fn peak_connections(&self) -> usize {
        self.frames.peak_connections()
    }

    /// Request frames answered over the server's lifetime.
    pub fn frames_served(&self) -> u64 {
        self.frames.frames_served()
    }

    /// The node's observability spine: the registry and trace ring every
    /// subsystem reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Runs one anti-entropy round against `peers` right now, on the
    /// calling thread — deterministic syncing for tests and benches (the
    /// background thread runs exactly this).
    pub fn sync_with(&self, peers: &[String]) -> SyncRoundReport {
        sync_round(&self.replica, peers, self.metrics.as_deref())
    }

    /// Stops the sync thread and the frame server (joining every serving
    /// thread). Called automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        self.sync_shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.sync_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.flush_thread.take() {
            let _ = t.join();
            // A clean shutdown persists everything the flusher was
            // amortizing, whatever the backend's policy.
            let _ = self.replica.flush();
        }
        self.frames.shutdown();
        if let Some(path) = &self.trace_dump {
            let _ = std::fs::write(path, self.obs.ring().dump_jsonl());
        }
    }
}

impl<B: Backend + Send + Sync + 'static> Drop for Server<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns a thread that runs `pass` every `interval` until `shutdown` is
/// set. It sleeps in 50 ms slices, so shutdown stays prompt under long
/// intervals.
fn spawn_periodic(
    interval: Duration,
    shutdown: &Arc<AtomicBool>,
    mut pass: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    let shutdown = Arc::clone(shutdown);
    std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) {
            pass();
            let mut remaining = interval;
            while !remaining.is_zero() && !shutdown.load(Ordering::SeqCst) {
                let slice = remaining.min(Duration::from_millis(50));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
    })
}

/// One anti-entropy round: [`Replica::sync`] with each reachable peer.
/// Per-branch failures are not fatal: the next round retries them.
///
/// With `metrics` attached the round's duration lands in
/// `peepul_net_sync_round_micros` and every reached peer's replication
/// lag (in Lamport ticks) in `peepul_net_lag_ticks{peer="..."}`.
fn sync_round<B: Backend>(
    replica: &Replica<Kv, B>,
    peers: &[String],
    metrics: Option<&ServerMetrics>,
) -> SyncRoundReport {
    let start = metrics.map(|_| Instant::now());
    let mut report = SyncRoundReport::default();
    for peer in peers {
        let synced = TcpTransport::connect(peer.as_str())
            .and_then(|transport| replica.sync(&mut Remote::new(peer.clone(), transport)));
        let Ok(synced) = synced else {
            report.peers_unreachable += 1;
            continue;
        };
        report.peers_reached += 1;
        report.branches_pulled += synced.pulled.len();
        report.branches_pushed += synced.pushed.len();
        if let Some(m) = metrics {
            if let Some(lag) = replica.with_store_read(|s| peer_lag_ticks(s, peer)) {
                m.peer_lag(peer).set(lag as i64);
            }
        }
    }
    if let (Some(m), Some(start)) = (metrics, start) {
        let micros = start.elapsed().as_micros() as u64;
        m.sync_rounds_total.inc();
        m.sync_round_micros.observe(micros);
        m.trace("sync_round", "", report.peers_reached as u64);
    }
    report
}

/// How many Lamport ticks the newest event this node has observed from
/// `peer` (via its `remote/<peer>/…` tracking branches) trails the local
/// clock. `None` when nothing has been fetched from the peer yet.
fn peer_lag_ticks<B: Backend>(s: &BranchStore<Kv, B>, peer: &str) -> Option<u64> {
    let prefix = format!("{TRACKING_PREFIX}{peer}/");
    let mut newest: Option<u64> = None;
    for branch in s.branch_names() {
        if !branch.starts_with(&prefix) {
            continue;
        }
        if let Ok(head) = s.head(branch) {
            let seen = newest_visible_tick(s, head);
            newest = Some(newest.unwrap_or(0).max(seen));
        }
    }
    newest.map(|n| s.tick().saturating_sub(n))
}

/// The newest Lamport tick visible at `head`. A commit's mint tick bounds
/// every tick in its ancestry, so the walk only descends through
/// mint-free commits (roots and merges, mint tick 0) until it reaches the
/// operation-commit frontier — no full history traversal.
fn newest_visible_tick<B: Backend>(s: &BranchStore<Kv, B>, head: CommitId) -> u64 {
    let mut visited = vec![false; s.commit_count()];
    let mut frontier = vec![head];
    let mut newest = 0u64;
    while let Some(c) = frontier.pop() {
        if std::mem::replace(&mut visited[c.index()], true) {
            continue;
        }
        let tick = s.commit_mint(c).tick();
        if tick > 0 {
            newest = newest.max(tick);
        } else {
            frontier.extend_from_slice(s.graph().parents(c));
        }
    }
    newest
}

/// The dispatching [`FrameService`]: replication frames to the replica,
/// service frames to the KV command handler, each connection carrying its
/// own [`Session`].
struct KvService<B: Backend + Send + Sync + 'static> {
    replica: Replica<Kv, B>,
    node: String,
    root_branch: String,
    stats: ConnStats,
    obs: Obs,
    metrics: Option<Arc<ServerMetrics>>,
    started: Instant,
    trace_dump: Option<PathBuf>,
}

impl<B: Backend + Send + Sync + 'static> FrameService for KvService<B> {
    type Session = Session;

    fn open_session(&self) -> Session {
        Session::default()
    }

    fn handle(&self, frame: &[u8], session: &mut Session) -> Vec<u8> {
        if frame
            .first()
            .is_some_and(|tag| *tag < crate::service::SERVICE_TAG_BASE)
        {
            return self.replica.handle_frame(frame);
        }
        let resp = match ServiceRequest::from_wire(frame) {
            None => ServiceResponse::Err {
                message: "undecodable service frame".into(),
            },
            Some(req) => {
                let start = self.metrics.as_ref().map(|_| Instant::now());
                let kind = request_kind(&req);
                let resp = match self.serve(req, session) {
                    Ok(resp) => resp,
                    Err(message) => ServiceResponse::Err { message },
                };
                if let (Some(m), Some(start)) = (&self.metrics, start) {
                    m.observe_request(kind, start.elapsed().as_micros() as u64);
                    if let Some(ops) = &session.tenant_ops {
                        ops.inc();
                    }
                }
                resp
            }
        };
        resp.to_wire()
    }
}

/// Folds store errors into the service's string error channel.
fn store_err(e: StoreError) -> String {
    e.to_string()
}

/// A read that treats an unknown branch as empty — tenants see a uniform
/// keyspace before their first put.
fn or_empty<T: Default>(read: Result<T, StoreError>) -> Result<T, String> {
    match read {
        Err(StoreError::UnknownBranch(_)) => Ok(T::default()),
        read => read.map_err(store_err),
    }
}

impl<B: Backend + Send + Sync + 'static> KvService<B> {
    fn serve(&self, req: ServiceRequest, session: &mut Session) -> Result<ServiceResponse, String> {
        match req {
            ServiceRequest::Hello { tenant } => {
                Session::validate_tenant(&tenant)?;
                // Resolve the tenant's op counter once, here, so the
                // per-request accounting path never touches the registry.
                session.tenant_ops = self.metrics.as_ref().map(|m| m.tenant_ops(&tenant));
                session.tenant = Some(tenant);
                Ok(ServiceResponse::Ok)
            }
            ServiceRequest::Get { branch, key } => {
                let branch = session.resolve(&branch)?;
                // Commit-free and under the shared read lock: concurrent
                // with every other reader.
                let q = MapQuery::Get(key, LwwQuery::Read);
                let value = or_empty(self.replica.read(&branch, &q))?;
                Ok(ServiceResponse::Value { value })
            }
            ServiceRequest::Put { branch, key, value } => {
                let branch = session.resolve(&branch)?;
                let op = MapOp::Set(key, LwwOp::Write(value));
                match self.replica.apply(&branch, &op) {
                    Err(StoreError::UnknownBranch(_)) => {
                        // First put to a fresh namespace: fork the root
                        // branch so every tenant branch shares the common
                        // ancestor. A concurrent first put may have forked
                        // it first.
                        match self.replica.fork(&self.root_branch, &branch) {
                            Ok(()) | Err(StoreError::BranchExists(_)) => {}
                            Err(e) => return Err(store_err(e)),
                        }
                        self.replica.apply(&branch, &op).map_err(store_err)?;
                    }
                    applied => applied.map_err(store_err)?,
                }
                Ok(ServiceResponse::Ok)
            }
            ServiceRequest::Query { branch } => {
                let branch = session.resolve(&branch)?;
                let state = or_empty(self.replica.state(&branch))?;
                let entries = state
                    .keys()
                    .filter_map(|k| Some((k.to_owned(), state.get(k)?.get()?.clone())))
                    .collect();
                Ok(ServiceResponse::Table { entries })
            }
            ServiceRequest::Fork { from, to } => {
                let from = session.resolve(&from)?;
                let to = session.resolve(&to)?;
                self.replica.fork(&from, &to).map_err(store_err)?;
                Ok(ServiceResponse::Ok)
            }
            ServiceRequest::Merge { into, from } => {
                let into = session.resolve(&into)?;
                let from = session.resolve(&from)?;
                self.replica.merge(&into, &from).map_err(store_err)?;
                Ok(ServiceResponse::Ok)
            }
            ServiceRequest::Branches => {
                let branches = self.replica.with_store_read(|s| {
                    let names = s.branch_names();
                    match &session.tenant {
                        Some(tenant) => {
                            let prefix = format!("{tenant}/");
                            names
                                .iter()
                                .filter_map(|b| b.strip_prefix(&prefix))
                                .map(str::to_owned)
                                .collect()
                        }
                        None => names
                            .iter()
                            .filter(|b| !b.starts_with(TRACKING_PREFIX))
                            .map(|b| (*b).to_owned())
                            .collect(),
                    }
                });
                Ok(ServiceResponse::BranchList { branches })
            }
            ServiceRequest::Status => {
                let (tick, info, branches) = self.replica.with_store_read(|s| {
                    let branches = s
                        .branch_names()
                        .iter()
                        .map(|b| {
                            let head = s.head_id(b).expect("listed branch has a head");
                            let state = s.state_id(b).expect("listed branch has a state");
                            ((*b).to_owned(), head, state)
                        })
                        .collect();
                    (s.tick(), s.backend().storage_info(), branches)
                });
                Ok(ServiceResponse::Status {
                    node: self.node.clone(),
                    tick,
                    active_connections: self.stats.active() as u64,
                    peak_connections: self.stats.peak() as u64,
                    connections_accepted: self.stats.accepted(),
                    frames_served: self.stats.frames(),
                    uptime_secs: self.started.elapsed().as_secs(),
                    flush: info.flush,
                    disk_bytes: info.disk_bytes,
                    segments: info.segments,
                    branches,
                })
            }
            ServiceRequest::Metrics => {
                // Pull-model gauges (memo stats, storage info, graph
                // sizes) are synced into the registry at exposition time,
                // under the same read lock every other reader shares.
                self.replica.with_store_read(|s| s.publish_gauges());
                Ok(ServiceResponse::Metrics {
                    text: self.obs.registry().render(),
                })
            }
            ServiceRequest::TraceDump => {
                let Some(path) = &self.trace_dump else {
                    return Err("server has no --trace-dump path configured".into());
                };
                std::fs::write(path, self.obs.ring().dump_jsonl())
                    .map_err(|e| format!("cannot write trace dump to {}: {e}", path.display()))?;
                if let Some(m) = &self.metrics {
                    m.trace("trace_dump", "", self.obs.ring().recorded());
                }
                Ok(ServiceResponse::Ok)
            }
        }
    }
}

/// A typed client for the service protocol — one connection, one session.
///
/// This is what `peepul-cli` (and the benches and tests) speak; it reuses
/// [`TcpTransport`]'s framing, so replication traffic and service traffic
/// are byte-compatible on the same socket.
#[derive(Debug)]
pub struct ServiceClient {
    transport: TcpTransport,
}

impl ServiceClient {
    /// Connects to a `peepul-server`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Ok(ServiceClient {
            transport: TcpTransport::connect(addr)?,
        })
    }

    /// Sends one request and decodes the response. Peer-reported errors
    /// surface as [`NetError::Remote`].
    ///
    /// # Errors
    ///
    /// Transport errors; [`NetError::BadFrame`] on an undecodable
    /// response; [`NetError::Remote`] when the server reports an error.
    pub fn call(&mut self, req: &ServiceRequest) -> Result<ServiceResponse, NetError> {
        use peepul_net::Transport;
        let frame = self.transport.request(&req.to_wire())?;
        match ServiceResponse::from_wire(&frame) {
            None => Err(NetError::BadFrame("undecodable service response".into())),
            Some(ServiceResponse::Err { message }) => Err(NetError::Remote(message)),
            Some(resp) => Ok(resp),
        }
    }

    /// Binds the session to a tenant namespace.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn hello(&mut self, tenant: impl Into<String>) -> Result<(), NetError> {
        match self.call(&ServiceRequest::Hello {
            tenant: tenant.into(),
        })? {
            ServiceResponse::Ok => Ok(()),
            r => Err(unexpected("Ok", &r)),
        }
    }

    /// Reads one key.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn get(
        &mut self,
        branch: impl Into<String>,
        key: impl Into<String>,
    ) -> Result<Option<String>, NetError> {
        match self.call(&ServiceRequest::Get {
            branch: branch.into(),
            key: key.into(),
        })? {
            ServiceResponse::Value { value } => Ok(value),
            r => Err(unexpected("Value", &r)),
        }
    }

    /// Writes one key.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn put(
        &mut self,
        branch: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<(), NetError> {
        match self.call(&ServiceRequest::Put {
            branch: branch.into(),
            key: key.into(),
            value: value.into(),
        })? {
            ServiceResponse::Ok => Ok(()),
            r => Err(unexpected("Ok", &r)),
        }
    }

    /// Dumps a branch's full table.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn query(&mut self, branch: impl Into<String>) -> Result<Vec<(String, String)>, NetError> {
        match self.call(&ServiceRequest::Query {
            branch: branch.into(),
        })? {
            ServiceResponse::Table { entries } => Ok(entries),
            r => Err(unexpected("Table", &r)),
        }
    }

    /// Forks a branch.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn fork(&mut self, from: impl Into<String>, to: impl Into<String>) -> Result<(), NetError> {
        match self.call(&ServiceRequest::Fork {
            from: from.into(),
            to: to.into(),
        })? {
            ServiceResponse::Ok => Ok(()),
            r => Err(unexpected("Ok", &r)),
        }
    }

    /// Merges `from` into `into`.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn merge(
        &mut self,
        into: impl Into<String>,
        from: impl Into<String>,
    ) -> Result<(), NetError> {
        match self.call(&ServiceRequest::Merge {
            into: into.into(),
            from: from.into(),
        })? {
            ServiceResponse::Ok => Ok(()),
            r => Err(unexpected("Ok", &r)),
        }
    }

    /// Lists the session's visible branches.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn branches(&mut self) -> Result<Vec<String>, NetError> {
        match self.call(&ServiceRequest::Branches)? {
            ServiceResponse::BranchList { branches } => Ok(branches),
            r => Err(unexpected("BranchList", &r)),
        }
    }

    /// The node's status response, undigested.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn status(&mut self) -> Result<ServiceResponse, NetError> {
        match self.call(&ServiceRequest::Status)? {
            s @ ServiceResponse::Status { .. } => Ok(s),
            r => Err(unexpected("Status", &r)),
        }
    }

    /// The node's metrics as a Prometheus-style text exposition (empty
    /// when the node's observability is disabled).
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.call(&ServiceRequest::Metrics)? {
            ServiceResponse::Metrics { text } => Ok(text),
            r => Err(unexpected("Metrics", &r)),
        }
    }

    /// Asks the node to flush its trace ring to its `--trace-dump` path.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`]; [`NetError::Remote`] when the node has
    /// no dump path configured.
    pub fn trace_dump(&mut self) -> Result<(), NetError> {
        match self.call(&ServiceRequest::TraceDump)? {
            ServiceResponse::Ok => Ok(()),
            r => Err(unexpected("Ok", &r)),
        }
    }
}

fn unexpected(wanted: &str, got: &ServiceResponse) -> NetError {
    NetError::Protocol(format!("expected {wanted} response, got {got:?}"))
}
