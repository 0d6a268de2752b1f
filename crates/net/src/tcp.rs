//! The TCP transport: length-prefixed, checksummed frames over blocking
//! `std::net` sockets — no external dependencies.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +-------+-----------+-------------+----------------+
//! | "PPL1"| len: u32  | fnv64: u64  | payload (len B)|
//! +-------+-----------+-------------+----------------+
//! ```
//!
//! The magic catches protocol confusion (something that is not a peer),
//! the length bounds the read (frames over 256 MiB are rejected before
//! allocation, and the payload buffer grows only as bytes arrive, so a
//! header that claims a large frame and then stalls pins one read chunk,
//! not the claimed size), and the FNV-1a checksum catches bytes damaged in transit
//! *before* they reach the message decoder. Content verification of the
//! objects inside the payload happens again, cryptographically, at ingest
//! — the checksum is a cheap early tripwire, not the integrity story.
//!
//! [`TcpServer`] serves one [`Replica`] on a background thread,
//! connection by connection; [`TcpTransport`] is the matching client end.

use crate::error::NetError;
use crate::replica::Replica;
use crate::serve::{FnService, FrameServer, ServeOptions};
use crate::transport::Transport;
use peepul_core::Mrdt;
use peepul_store::Backend;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"PPL1";
/// Frames above this size are rejected before any allocation.
const MAX_FRAME: u32 = 256 * 1024 * 1024;
/// How far the payload buffer may run ahead of the bytes received.
const READ_CHUNK: usize = 1024 * 1024;

/// FNV-1a 64-bit — the frame checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| NetError::BadFrame(format!("frame too large: {} bytes", payload.len())))?;
    let mut header = [0u8; 16];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..16].copy_from_slice(&checksum(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF before any header byte.
fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, NetError> {
    let mut first = [0u8; 1];
    if r.read(&mut first)? == 0 {
        return Ok(None); // peer closed between frames
    }
    read_frame_rest(first[0], r).map(Some)
}

/// What one poll of a serving connection produced.
pub(crate) enum ServerRead {
    Frame(Vec<u8>),
    Closed,
    /// The read timed out waiting for the next frame's first byte — no
    /// traffic, not an error. Lets the serve loop poll its shutdown flag.
    Idle,
}

/// Like [`read_frame`], but a timed-out wait for the *first* header byte
/// reports [`ServerRead::Idle`] instead of failing (requires a read
/// timeout on the stream).
pub(crate) fn read_frame_polling(stream: &mut TcpStream) -> Result<ServerRead, NetError> {
    let mut first = [0u8; 1];
    match stream.read(&mut first) {
        Ok(0) => return Ok(ServerRead::Closed),
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(ServerRead::Idle)
        }
        Err(e) => return Err(e.into()),
    }
    read_frame_rest(first[0], stream).map(ServerRead::Frame)
}

/// Reads the remainder of a frame whose first header byte arrived.
fn read_frame_rest(first: u8, r: &mut impl Read) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; 16];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    if header[..4] != MAGIC {
        return Err(NetError::BadFrame("bad magic".into()));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(NetError::BadFrame(format!("frame too large: {len} bytes")));
    }
    let expected = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    // Grow the buffer one chunk at a time as the payload arrives: the
    // header alone is no reason to allocate what it claims.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let start = payload.len();
        payload.resize(len.min(start + READ_CHUNK), 0);
        r.read_exact(&mut payload[start..])?;
    }
    let actual = checksum(&payload);
    if actual != expected {
        return Err(NetError::BadFrame(format!(
            "checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
        )));
    }
    Ok(payload)
}

/// The client end of a TCP link to a serving replica.
///
/// Blocking and single-connection: one request/response at a time, frames
/// as described in the [module docs](self).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to a [`TcpServer`] (or anything speaking the frame
    /// protocol).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| NetError::Io("peer closed the connection mid-request".into()))
    }
}

/// A background thread serving one replica's store over TCP.
///
/// A thin protocol binding over the shared accept-loop machinery of
/// [`FrameServer`]: every accepted connection
/// gets its own serving thread (bounded by
/// [`ServeOptions::max_connections`](crate::serve::ServeOptions)), each
/// answering replication frames against the same [`Replica`] — whose
/// internal `RwLock` keeps the read-only protocol requests concurrent.
/// Dropping the server shuts it down.
///
/// # Example
///
/// ```no_run
/// use peepul_net::{Remote, Replica, TcpServer, TcpTransport};
/// use peepul_store::MemoryBackend;
/// use peepul_types::counter::Counter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // `Replica::open` derives a disjoint replica-id range per name.
/// let server_replica: Replica<Counter, _> =
///     Replica::open("origin", "main", MemoryBackend::new())?;
/// let server = TcpServer::spawn(server_replica)?;
///
/// let client: Replica<Counter, _> = Replica::open("laptop", "main", MemoryBackend::new())?;
/// let mut origin = Remote::new("origin", TcpTransport::connect(server.addr())?);
/// client.pull(&mut origin, "main")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TcpServer {
    inner: FrameServer,
}

impl TcpServer {
    /// Binds `127.0.0.1:0` (an ephemeral port) and starts serving
    /// `replica`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn spawn<M, B>(replica: Replica<M, B>) -> Result<Self, NetError>
    where
        M: Mrdt + Send + Sync + 'static,
        B: Backend + Send + Sync + 'static,
    {
        Self::bind(replica, "127.0.0.1:0")
    }

    /// Binds an explicit address and starts serving `replica` with the
    /// default [`ServeOptions`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn bind<M, B>(replica: Replica<M, B>, addr: impl ToSocketAddrs) -> Result<Self, NetError>
    where
        M: Mrdt + Send + Sync + 'static,
        B: Backend + Send + Sync + 'static,
    {
        Self::bind_with(replica, addr, ServeOptions::default())
    }

    /// Binds an explicit address with explicit [`ServeOptions`]
    /// (connection cap).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn bind_with<M, B>(
        replica: Replica<M, B>,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> Result<Self, NetError>
    where
        M: Mrdt + Send + Sync + 'static,
        B: Backend + Send + Sync + 'static,
    {
        let service = Arc::new(FnService(move |frame: &[u8]| replica.handle_frame(frame)));
        let inner = FrameServer::bind(service, addr, options)?;
        Ok(TcpServer { inner })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops accepting, interrupts open connections and joins every
    /// serving thread. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"payload"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after frame");
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Flip a payload byte: checksum trips.
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(NetError::BadFrame(msg)) if msg.contains("checksum")
        ));
        // Damage the magic: protocol confusion trips.
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, b"x").unwrap();
        buf2[0] = b'X';
        assert!(matches!(
            read_frame(&mut &buf2[..]),
            Err(NetError::BadFrame(msg)) if msg.contains("magic")
        ));
        // Truncated payload: I/O error, not a hang.
        let mut buf3 = Vec::new();
        write_frame(&mut buf3, b"hello").unwrap();
        buf3.truncate(buf3.len() - 2);
        assert!(matches!(read_frame(&mut &buf3[..]), Err(NetError::Io(_))));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &header[..]),
            Err(NetError::BadFrame(msg)) if msg.contains("large")
        ));
    }

    /// A reader that serves `data`, then EOF, and records the largest
    /// buffer it was asked to fill.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_stalled_frame_claiming_the_cap_pins_one_chunk() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&MAX_FRAME.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&[7u8; 4096]);
        let mut r = Recording {
            data: &frame,
            largest: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(NetError::Io(_))));
        assert!(
            r.largest <= READ_CHUNK,
            "asked to fill {} bytes at once",
            r.largest
        );
    }

    #[test]
    fn a_frame_longer_than_one_chunk_roundtrips() {
        let payload: Vec<u8> = (0..READ_CHUNK * 2 + 5).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
    }

    #[test]
    fn shutdown_returns_while_a_client_connection_is_open() {
        use crate::replica::Replica;
        use peepul_core::Wire;
        use peepul_store::MemoryBackend;
        use peepul_types::counter::Counter;

        let replica: Replica<Counter, _> =
            Replica::open("origin", "main", MemoryBackend::new()).unwrap();
        let server = TcpServer::spawn(replica).unwrap();
        let addr = server.addr();
        // Hold several connections open mid-conversation across the
        // shutdown: each serving thread must notice the flag between
        // frames rather than blocking in read() forever.
        let mut idle: Vec<TcpTransport> = (0..3)
            .map(|_| {
                let mut t = TcpTransport::connect(addr).unwrap();
                let resp = t.request(&crate::message::Request::FetchRefs.to_wire());
                assert!(resp.is_ok());
                t
            })
            .collect();
        // And shut down *mid-request*: a client hammering the server when
        // the flag flips must not pin shutdown either — its in-flight
        // request is answered or its connection is dropped, never hung.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let hammer = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr).unwrap();
            let mut answered = 0u64;
            while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                match t.request(&crate::message::Request::FetchRefs.to_wire()) {
                    Ok(_) => answered += 1,
                    Err(_) => break, // server went away mid-request
                }
            }
            answered
        });
        // Let the hammer get some requests in flight first.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let start = std::time::Instant::now();
        drop(server); // runs shutdown() + join()
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "shutdown must not wait for clients to hang up"
        );
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let answered = hammer.join().unwrap();
        assert!(answered > 0, "the hammering client was being served");
        drop(idle.drain(..));
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Known FNV-1a vectors.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
