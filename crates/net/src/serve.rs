//! The shared accept-loop machinery: a threaded TCP frame server with a
//! connection cap and accept-time backpressure.
//!
//! [`FrameServer`] owns the socket mechanics every daemon in this
//! workspace needs and nothing else: bind, accept, one serving thread per
//! connection speaking the PPL1 frame protocol of [`crate::tcp`], a hard
//! cap on concurrent connections (the acceptor *stops accepting* when the
//! cap is reached — excess clients queue in the listen backlog instead of
//! exhausting threads), and a shutdown that interrupts idle reads and
//! joins every serving thread.
//!
//! What the frames *mean* is supplied by a [`FrameService`]: a
//! `Send + Sync` request handler plus a per-connection session value it
//! may thread state through (authentication, tenant namespaces, counters —
//! whatever the protocol above needs). [`crate::TcpServer`] is the
//! smallest possible service (stateless replication frames against one
//! [`Replica`](crate::Replica)); `peepul-server` layers a multi-tenant KV
//! session protocol over the same loop.

use crate::error::NetError;
use crate::tcp::{read_frame_polling, write_frame, ServerRead};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a serving thread waits in `read` before re-checking the
/// shutdown flag. Bounds both shutdown latency and the busy-poll rate of
/// idle connections.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A frame protocol served by a [`FrameServer`]: how to start a
/// connection's session and how to answer one request frame.
///
/// One service value is shared by every serving thread (hence
/// `Send + Sync`); per-connection state lives in the `Session` value the
/// server creates at accept time and threads through every call on that
/// connection.
pub trait FrameService: Send + Sync + 'static {
    /// Per-connection state (tenant bindings, counters, …). Use `()` for
    /// stateless protocols.
    type Session: Send + 'static;

    /// Called once when a connection is accepted.
    fn open_session(&self) -> Self::Session;

    /// Answers one request frame. The returned bytes are written back as
    /// the response frame.
    fn handle(&self, frame: &[u8], session: &mut Self::Session) -> Vec<u8>;
}

/// A stateless [`FrameService`] from a plain handler function — enough
/// for protocols without per-connection state, like the replication
/// protocol behind [`crate::TcpServer`].
pub struct FnService<F>(pub F);

impl<F> std::fmt::Debug for FnService<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnService(..)")
    }
}

impl<F> FrameService for FnService<F>
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
{
    type Session = ();

    fn open_session(&self) {}

    fn handle(&self, frame: &[u8], _session: &mut ()) -> Vec<u8> {
        (self.0)(frame)
    }
}

/// Tuning knobs for a [`FrameServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Hard cap on concurrently served connections. When reached, the
    /// acceptor waits for a serving thread to finish before accepting
    /// again — backpressure lands at accept time (clients queue in the
    /// OS listen backlog), not as unbounded threads.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_connections: 64,
        }
    }
}

/// Counters a running server exposes (all monotone except `active`).
#[derive(Default, Debug)]
struct Stats {
    /// Currently served connections (guarded by the backpressure mutex's
    /// companion — kept atomic so readers need no lock).
    active: AtomicUsize,
    /// High-water mark of `active`.
    peak: AtomicUsize,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Request frames answered over the server's lifetime.
    frames: AtomicU64,
}

/// A cloneable live view of a [`FrameServer`]'s connection counters.
///
/// Create one up front with [`ConnStats::default`] and hand it to
/// [`FrameServer::bind_with_stats`] so the *service* can read the
/// counters it is being served under (e.g. a status command reporting
/// active connections) — the server updates the same shared cells.
#[derive(Clone, Debug, Default)]
pub struct ConnStats(Arc<Stats>);

impl ConnStats {
    /// Currently served connections.
    pub fn active(&self) -> usize {
        self.0.active.load(Ordering::SeqCst)
    }

    /// The most connections ever served at once.
    pub fn peak(&self) -> usize {
        self.0.peak.load(Ordering::SeqCst)
    }

    /// Connections accepted over the server's lifetime.
    pub fn accepted(&self) -> u64 {
        self.0.accepted.load(Ordering::SeqCst)
    }

    /// Request frames answered over the server's lifetime.
    pub fn frames(&self) -> u64 {
        self.0.frames.load(Ordering::SeqCst)
    }

    /// Publishes these connection counters as live callback gauges on an
    /// observability registry, so they appear in the same exposition as
    /// every other metric instead of being reachable only through the
    /// handle returned at server construction. Each gauge reads the
    /// shared cells at render time — no polling thread, no staleness.
    pub fn register_gauges(&self, registry: &peepul_obs::Registry) {
        let s = self.clone();
        registry.gauge_fn("peepul_server_conns_active", move || s.active() as f64);
        let s = self.clone();
        registry.gauge_fn("peepul_server_conns_peak", move || s.peak() as f64);
        let s = self.clone();
        registry.gauge_fn("peepul_server_conns_accepted_total", move || {
            s.accepted() as f64
        });
        let s = self.clone();
        registry.gauge_fn("peepul_server_frames_total", move || s.frames() as f64);
    }
}

/// Coordination between the acceptor and serving threads: the acceptor
/// waits here while the connection cap is reached.
struct Gate {
    active: Mutex<usize>,
    freed: Condvar,
    stats: Arc<Stats>,
}

impl Gate {
    /// The served-connection count under its lock, recovered if a
    /// panicking holder poisoned it (DESIGN §10).
    fn active(&self) -> MutexGuard<'_, usize> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks while `cap` connections are served, until one frees its
    /// slot or `shutdown` is set.
    fn wait_for_slot(&self, cap: usize, shutdown: &AtomicBool) {
        let mut active = self.active();
        while *active >= cap && !shutdown.load(Ordering::SeqCst) {
            active = self
                .freed
                .wait_timeout(active, POLL_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Takes a connection slot; the returned guard frees it on drop.
    fn take_slot(self: &Arc<Self>) -> Slot {
        let mut active = self.active();
        *active += 1;
        self.stats.active.store(*active, Ordering::SeqCst);
        self.stats.peak.fetch_max(*active, Ordering::SeqCst);
        Slot(Arc::clone(self))
    }
}

/// One served connection's slot. Dropping it — when the serving thread
/// returns *or unwinds out of a panicking handler* — frees the slot and
/// wakes the acceptor, so a handler panic cannot leak capacity.
struct Slot(Arc<Gate>);

impl Drop for Slot {
    fn drop(&mut self) {
        let mut active = self.0.active();
        *active -= 1;
        self.0.stats.active.store(*active, Ordering::SeqCst);
        drop(active);
        self.0.freed.notify_all();
    }
}

/// A threaded frame server: the accept loop, per-connection serving
/// threads, connection cap and shutdown shared by [`crate::TcpServer`]
/// and `peepul-server`.
///
/// Protocol behavior is supplied by a [`FrameService`]; everything
/// socket-shaped lives here, once.
#[derive(Debug)]
pub struct FrameServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    stats: Arc<Stats>,
}

impl FrameServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections served by `service`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn bind<S: FrameService>(
        service: Arc<S>,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> Result<Self, NetError> {
        Self::bind_with_stats(service, addr, options, ConnStats::default())
    }

    /// Like [`FrameServer::bind`], but updating caller-supplied
    /// [`ConnStats`] — so the service behind the server can report the
    /// counters of the loop serving it.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn bind_with_stats<S: FrameService>(
        service: Arc<S>,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
        stats: ConnStats,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = stats.0;
        let gate = Arc::new(Gate {
            active: Mutex::new(0),
            freed: Condvar::new(),
            stats: Arc::clone(&stats),
        });
        let cap = options.max_connections.max(1);

        let flag = Arc::clone(&shutdown);
        let acc_stats = Arc::clone(&stats);
        let accept_thread = std::thread::spawn(move || {
            // Serving threads are reaped opportunistically on every accept
            // and joined exhaustively at shutdown, so a long-running
            // daemon does not accumulate finished handles.
            let mut serving: Vec<JoinHandle<()>> = Vec::new();
            loop {
                // Accept-time backpressure: while the cap is reached, wait
                // for a serving thread to finish. New clients sit in the
                // OS listen backlog — connected but unserved.
                gate.wait_for_slot(cap, &flag);
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((stream, _peer)) = listener.accept() else {
                    continue;
                };
                if flag.load(Ordering::SeqCst) {
                    break; // the shutdown wake-up connection
                }
                serving.retain(|h| !h.is_finished());
                let slot = gate.take_slot();
                acc_stats.accepted.fetch_add(1, Ordering::SeqCst);

                let service = Arc::clone(&service);
                let conn_flag = Arc::clone(&flag);
                let conn_stats = Arc::clone(&acc_stats);
                serving.push(std::thread::spawn(move || {
                    let _slot = slot;
                    serve_connection(stream, &*service, &conn_flag, &conn_stats);
                }));
            }
            for h in serving {
                let _ = h.join();
            }
        });

        Ok(FrameServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            stats,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently served connections.
    pub fn active_connections(&self) -> usize {
        self.stats.active.load(Ordering::SeqCst)
    }

    /// The most connections ever served at once.
    pub fn peak_connections(&self) -> usize {
        self.stats.peak.load(Ordering::SeqCst)
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.stats.accepted.load(Ordering::SeqCst)
    }

    /// Request frames answered over the server's lifetime.
    pub fn frames_served(&self) -> u64 {
        self.stats.frames.load(Ordering::SeqCst)
    }

    /// Stops accepting, interrupts idle connections and joins every
    /// serving thread. Called automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake a blocking accept so the thread observes the flag; serving
        // threads observe it within POLL_INTERVAL via their read timeout.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection until it closes, misframes, or the server shuts
/// down.
fn serve_connection<S: FrameService>(
    mut stream: TcpStream,
    service: &S,
    shutdown: &AtomicBool,
    stats: &Stats,
) {
    let _ = stream.set_nodelay(true);
    // Poll the shutdown flag between frames: without a read timeout a
    // client holding its connection open would pin this thread in `read`
    // and make shutdown block until the client goes away.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut session = service.open_session();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_frame_polling(&mut stream) {
            Ok(ServerRead::Frame(frame)) => {
                let response = service.handle(&frame, &mut session);
                stats.frames.fetch_add(1, Ordering::SeqCst);
                if write_frame(&mut stream, &response).is_err() {
                    return;
                }
            }
            Ok(ServerRead::Idle) => continue,
            Ok(ServerRead::Closed) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;
    use crate::transport::Transport;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn echo_server(options: ServeOptions) -> FrameServer {
        FrameServer::bind(
            Arc::new(FnService(|frame: &[u8]| frame.to_vec())),
            "127.0.0.1:0",
            options,
        )
        .unwrap()
    }

    #[test]
    fn serves_concurrent_connections() {
        let server = echo_server(ServeOptions::default());
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(addr).unwrap();
                    for j in 0..8 {
                        let msg = format!("conn {i} frame {j}").into_bytes();
                        assert_eq!(t.request(&msg).unwrap(), msg);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.connections_accepted(), 4);
        assert_eq!(server.frames_served(), 32);
    }

    #[test]
    fn sessions_are_per_connection() {
        // A service whose response counts the frames seen *on this
        // connection*: proves each connection gets its own session.
        struct Counting;
        impl FrameService for Counting {
            type Session = u64;
            fn open_session(&self) -> u64 {
                0
            }
            fn handle(&self, _frame: &[u8], session: &mut u64) -> Vec<u8> {
                *session += 1;
                session.to_le_bytes().to_vec()
            }
        }
        let server =
            FrameServer::bind(Arc::new(Counting), "127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut a = TcpTransport::connect(server.addr()).unwrap();
        let mut b = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(a.request(b"x").unwrap(), 1u64.to_le_bytes());
        assert_eq!(a.request(b"x").unwrap(), 2u64.to_le_bytes());
        // b's session starts at zero regardless of a's traffic.
        assert_eq!(b.request(b"x").unwrap(), 1u64.to_le_bytes());
    }

    #[test]
    fn connection_cap_applies_backpressure_at_accept_time() {
        let server = echo_server(ServeOptions { max_connections: 1 });
        let addr = server.addr();

        // First connection occupies the single slot.
        let mut first = TcpTransport::connect(addr).unwrap();
        assert_eq!(first.request(b"hold").unwrap(), b"hold".to_vec());

        // Second connection sits in the listen backlog: its request is not
        // answered while the first connection is open.
        let answered = Arc::new(AtomicUsize::new(0));
        let answered2 = Arc::clone(&answered);
        let waiter = std::thread::spawn(move || {
            let mut second = TcpTransport::connect(addr).unwrap();
            let reply = second.request(b"queued").unwrap();
            answered2.store(1, Ordering::SeqCst);
            assert_eq!(reply, b"queued".to_vec());
        });
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(
            answered.load(Ordering::SeqCst),
            0,
            "a connection beyond the cap must wait, not be served"
        );

        // Freeing the slot lets the queued connection through.
        drop(first);
        waiter.join().unwrap();
        assert_eq!(answered.load(Ordering::SeqCst), 1);
        assert_eq!(server.peak_connections(), 1, "cap held");
    }

    #[test]
    fn a_panicking_handler_frees_its_connection_slot() {
        let server = FrameServer::bind(
            Arc::new(FnService(|frame: &[u8]| {
                assert_ne!(frame, b"boom", "handler bug");
                frame.to_vec()
            })),
            "127.0.0.1:0",
            ServeOptions { max_connections: 1 },
        )
        .unwrap();
        let addr = server.addr();
        let mut first = TcpTransport::connect(addr).unwrap();
        assert!(first.request(b"boom").is_err(), "the handler panicked");

        // With the slot leaked, this client would sit in the backlog
        // forever; bound the wait so the test fails instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut second = TcpTransport::connect(addr).unwrap();
            let _ = tx.send(second.request(b"after"));
        });
        let reply = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the slot freed by the panic must admit the next client");
        assert_eq!(reply.unwrap(), b"after".to_vec());
        client.join().unwrap();
    }

    #[test]
    fn shutdown_interrupts_open_connections_promptly() {
        let mut server = echo_server(ServeOptions::default());
        let addr = server.addr();
        // Four connections held open mid-conversation.
        let mut conns: Vec<TcpTransport> = (0..4)
            .map(|_| {
                let mut t = TcpTransport::connect(addr).unwrap();
                assert_eq!(t.request(b"hi").unwrap(), b"hi".to_vec());
                t
            })
            .collect();
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must not wait for clients to hang up"
        );
        drop(conns.drain(..));
    }
}
