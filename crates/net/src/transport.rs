//! Request/response transports and deterministic fault injection.
//!
//! A [`Transport`] moves one opaque request frame to a peer replica and
//! brings its response frame back — the only primitive the whole sync
//! protocol needs. Two implementations ship:
//!
//! * [`ChannelTransport`] (here) — in-process and **deterministic**: the
//!   request bytes are handed straight to the peer's service loop under
//!   its lock, with an optional [`FaultInjector`] deciding per message
//!   whether to deliver, drop or partition. This is the transport the
//!   convergence and partition suites drive, because every failure is
//!   reproducible.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — length-prefixed
//!   checksummed frames over blocking TCP, for genuinely separate
//!   processes.
//!
//! Even the in-process transport round-trips through real bytes: the
//! request is encoded, the peer decodes it, and the response comes back as
//! bytes. Nothing typed is shared between replicas, so a `ChannelTransport`
//! fleet exercises exactly the code paths a TCP fleet does.

use crate::error::NetError;
use crate::replica::Replica;
use peepul_core::Mrdt;
use peepul_store::Backend;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A bidirectional request/response link to one peer replica.
///
/// Implementations are synchronous and blocking; a request either returns
/// the peer's response frame or fails. A failed request may or may not
/// have reached the peer (see [`NetError::Dropped`]) — exactly the
/// ambiguity a real network has, which the sync protocol tolerates because
/// every operation is idempotent (content-addressed objects,
/// fast-forward ref updates).
pub trait Transport {
    /// Sends one request frame and returns the peer's response frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Partitioned`] / [`NetError::Dropped`] under fault
    /// injection; [`NetError::Io`] / [`NetError::BadFrame`] from socket
    /// transports.
    fn request(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError>;
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn request(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        (**self).request(request)
    }
}

/// Counters a [`FaultInjector`] keeps.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Requests that reached the injector (delivered or not).
    pub requests: u64,
    /// Messages the injector swallowed (requests and responses).
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct FaultState {
    partitioned: bool,
    drop_requests: u32,
    drop_responses: u32,
    loss_per_mille: u16,
    rng: u64,
    counters: FaultCounters,
}

impl FaultState {
    /// Deterministic xorshift64* draw in `0..1000`.
    fn draw(&mut self) -> u16 {
        let mut x = self.rng.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 1000) as u16
    }

    fn lose(&mut self) -> bool {
        self.loss_per_mille > 0 && self.draw() < self.loss_per_mille
    }
}

/// Shared, cheaply clonable fault plan for one link: partition it, drop
/// the next *n* messages, or lose a deterministic fraction of traffic.
///
/// All decisions are reproducible: probabilistic loss runs on a seeded
/// xorshift64* stream, so the same schedule of requests sees the same
/// drops on every run — which is what makes a failing partition proptest
/// case, printed as generated from its fixed seed, come back on every run.
///
/// # Example
///
/// ```
/// use peepul_net::transport::FaultInjector;
///
/// let faults = FaultInjector::new();
/// faults.partition();
/// assert!(faults.is_partitioned());
/// faults.heal();
/// assert!(!faults.is_partitioned());
/// ```
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Arc<Mutex<FaultState>>,
}

impl FaultInjector {
    /// A fault-free injector (all messages delivered until told otherwise).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// The fault plan under its lock, recovered if a panicking holder
    /// poisoned it (DESIGN §10).
    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Severs the link: every request fails with [`NetError::Partitioned`]
    /// until [`FaultInjector::heal`].
    pub fn partition(&self) {
        self.state().partitioned = true;
    }

    /// Restores a partitioned link.
    pub fn heal(&self) {
        self.state().partitioned = false;
    }

    /// Whether the link is currently severed.
    pub fn is_partitioned(&self) -> bool {
        self.state().partitioned
    }

    /// Drops the next `n` **requests** (they never reach the peer).
    pub fn drop_requests(&self, n: u32) {
        self.state().drop_requests += n;
    }

    /// Drops the next `n` **responses**: the request reaches the peer and
    /// takes effect there, but the caller sees [`NetError::Dropped`] — the
    /// classic did-my-write-land ambiguity.
    pub fn drop_responses(&self, n: u32) {
        self.state().drop_responses += n;
    }

    /// Loses `per_mille`/1000 of messages, decided by a xorshift64* stream
    /// seeded with `seed` (deterministic per injector).
    pub fn set_loss(&self, per_mille: u16, seed: u64) {
        let mut s = self.state();
        s.loss_per_mille = per_mille.min(1000);
        // splitmix64: spreads adjacent seeds across the state space (and
        // never yields the all-zero state xorshift would get stuck in).
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        s.rng = (z ^ (z >> 31)).max(1);
    }

    /// Message counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.state().counters
    }

    /// Decides the fate of an outgoing request.
    fn before_request(&self) -> Result<(), NetError> {
        let mut s = self.state();
        s.counters.requests += 1;
        if s.partitioned {
            s.counters.dropped += 1;
            return Err(NetError::Partitioned);
        }
        if s.drop_requests > 0 {
            s.drop_requests -= 1;
            s.counters.dropped += 1;
            return Err(NetError::Dropped);
        }
        if s.lose() {
            s.counters.dropped += 1;
            return Err(NetError::Dropped);
        }
        Ok(())
    }

    /// Decides the fate of an incoming response (the request has already
    /// been served by then).
    fn before_response(&self) -> Result<(), NetError> {
        let mut s = self.state();
        if s.drop_responses > 0 {
            s.drop_responses -= 1;
            s.counters.dropped += 1;
            return Err(NetError::Dropped);
        }
        if s.lose() {
            s.counters.dropped += 1;
            return Err(NetError::Dropped);
        }
        Ok(())
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state();
        write!(
            f,
            "FaultInjector(partitioned: {}, loss: {}‰, {:?})",
            s.partitioned, s.loss_per_mille, s.counters
        )
    }
}

/// The in-process transport: requests are served synchronously by the peer
/// replica under its own lock, optionally filtered by a [`FaultInjector`].
///
/// Deterministic by construction — no threads, no timing, no buffering —
/// while still forcing every message through the real byte codec.
pub struct ChannelTransport<M: Mrdt, B: Backend> {
    peer: Replica<M, B>,
    faults: FaultInjector,
}

impl<M: Mrdt, B: Backend> ChannelTransport<M, B> {
    /// A fault-free link to `peer`.
    pub fn connect(peer: Replica<M, B>) -> Self {
        ChannelTransport {
            peer,
            faults: FaultInjector::new(),
        }
    }

    /// A link to `peer` filtered by `faults` (sharable with other links to
    /// model a replica whose whole uplink fails at once).
    pub fn with_faults(peer: Replica<M, B>, faults: FaultInjector) -> Self {
        ChannelTransport { peer, faults }
    }

    /// The link's fault plan.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }
}

impl<M: Mrdt, B: Backend> Transport for ChannelTransport<M, B> {
    fn request(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        self.faults.before_request()?;
        let response = self.peer.handle_frame(request);
        self.faults.before_response()?;
        Ok(response)
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for ChannelTransport<M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChannelTransport(peer: {}, {:?})",
            self.peer.name(),
            self.faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_stream_is_deterministic() {
        let draws = |seed: u64| {
            let f = FaultInjector::new();
            f.set_loss(500, seed);
            (0..64)
                .map(|_| f.before_request().is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43), "different seeds, different drops");
        assert!(draws(42).iter().any(|d| *d), "50% loss drops something");
        assert!(!draws(42).iter().all(|d| *d), "50% loss delivers something");
    }

    #[test]
    fn drop_counts_are_consumed() {
        let f = FaultInjector::new();
        f.drop_requests(2);
        assert_eq!(f.before_request(), Err(NetError::Dropped));
        assert_eq!(f.before_request(), Err(NetError::Dropped));
        assert_eq!(f.before_request(), Ok(()));
        f.drop_responses(1);
        assert_eq!(f.before_response(), Err(NetError::Dropped));
        assert_eq!(f.before_response(), Ok(()));
        assert_eq!(f.counters().dropped, 3);
    }

    #[test]
    fn partition_blocks_until_healed() {
        let f = FaultInjector::new();
        f.partition();
        assert_eq!(f.before_request(), Err(NetError::Partitioned));
        f.heal();
        assert_eq!(f.before_request(), Ok(()));
    }
}
