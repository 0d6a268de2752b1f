//! Probes of the layers the replay cannot reach from a shadow store: the
//! frame server and socket (`net.tcp`), the protocol codec
//! (`net.message`), a traced cold fetch (`net.replica`, pack ingest) and
//! the daemon's request path (`server`).

use crate::api::*;
use peepul_benchmark::gen;
use peepul_benchmark::stats;
use peepul_benchmark::trace::Tracer;
use peepul_benchmark::{err, Res};
use std::cell::Cell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A `FrameServer` whose service answers every frame with the same bytes:
/// the bare PPL1 round trip, no protocol work.
pub fn echo_server() -> Res<FrameServer> {
    let service = Arc::new(FnService(|frame: &[u8]| frame.to_vec()));
    FrameServer::bind(service, "127.0.0.1:0", ServeOptions::default()).map_err(err("bind echo"))
}

/// Median round trip of `n` echoes of `payload` bytes, µs.
pub fn echo_rtt_us(
    tr: &mut Tracer,
    name: &'static str,
    addr: SocketAddr,
    payload: usize,
    n: u64,
) -> Res<f64> {
    let mut transport = TcpTransport::connect(addr).map_err(err("connect echo"))?;
    let frame = vec![0x5A; payload];
    let mut us = Vec::with_capacity(n as usize);
    for i in 0..n {
        let (reply, t) = tr.time(name, i, || transport.request(&frame));
        if reply.map_err(err("echo"))?.len() != payload {
            return Err("echo returned another length".into());
        }
        us.push(t);
    }
    Ok(stats::median(&us))
}

/// `(median get round trip, median paired difference get − echo)`, µs.
///
/// A loopback ping-pong on this kind of host is scheduler-bound: the same
/// binary measures a `get` at 11 µs or at 55 µs depending on the host's
/// halt-polling state, for many seconds at a time. So blocks of `block`
/// echoes and `block` gets alternate on the same client thread; within a
/// pair the wake-up cost is common-mode and cancels in the difference,
/// and the median over `pairs` pairs is what the server's own `get` path
/// costs above a bare round trip.
pub fn get_over_echo_us(
    tr: &mut Tracer,
    echo: SocketAddr,
    server: SocketAddr,
    keys: u32,
    pairs: u32,
    block: u32,
) -> Res<(f64, f64)> {
    let mut transport = TcpTransport::connect(echo).map_err(err("connect echo"))?;
    let mut client = ServiceClient::connect(server).map_err(err("connect server"))?;
    let frame = vec![0x5A; 64];
    let (mut gets, mut diffs) = (Vec::new(), Vec::new());
    let mut op = 0u64;
    for _ in 0..pairs {
        let mut echo_us = Vec::with_capacity(block as usize);
        let mut get_us = Vec::with_capacity(block as usize);
        for _ in 0..block {
            op += 1;
            let (reply, t) = tr.time("net.tcp.echo", op, || transport.request(&frame));
            reply.map_err(err("echo"))?;
            echo_us.push(t);
        }
        for i in 0..block {
            op += 1;
            let key = gen::kv_key(i % keys);
            let (reply, t) = tr.time("server.get", op, || client.get("main", key));
            if reply.map_err(err("get"))?.is_none() {
                return Err("get of a preloaded key returned nothing".into());
            }
            get_us.push(t);
        }
        let get = stats::median(&get_us);
        gets.push(get);
        diffs.push(get - stats::median(&echo_us));
    }
    Ok((stats::median(&gets), stats::median(&diffs)))
}

/// Mean handler time of the server's own `put` histogram between two
/// expositions, µs (`peepul_server_request_micros{kind="put"}`, sum and
/// count; its quantiles are log2 bucket bounds, too coarse to report).
pub fn put_handler_us(before: &str, after: &str) -> Res<f64> {
    let read = |text: &str, suffix: &str| -> Res<f64> {
        let prefix = format!("peepul_server_request_micros{suffix}{{kind=\"put\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix)?.trim().parse().ok())
            .ok_or_else(|| format!("exposition has no {prefix}"))
    };
    let count = read(after, "_count")? - read(before, "_count")?;
    let sum = read(after, "_sum")? - read(before, "_sum")?;
    if count <= 0.0 {
        return Err("server handled no put between the two expositions".into());
    }
    Ok(sum / count)
}

/// A transport that sums the time spent in the peer and on the wire, so
/// that a fetch's own work (negotiation, verification, ingest) is its span
/// minus this sum.
pub struct TimedTransport<T> {
    inner: T,
    spent_us: Rc<Cell<f64>>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn request(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let t = Instant::now();
        let reply = self.inner.request(request);
        self.spent_us
            .set(self.spent_us.get() + t.elapsed().as_nanos() as f64 / 1e3);
        reply
    }
}

/// What a traced cold fetch and pull measured.
pub struct ColdFetch {
    /// `Replica::fetch`, ms.
    pub fetch_ms: f64,
    /// The `Replica::pull` that follows (refs round trip, then the
    /// fast-forward), ms.
    pub integrate_ms: f64,
    /// Transport round trips of the fetch.
    pub round_trips: f64,
    /// Share of received states that came as deltas.
    pub delta_states_share: f64,
    /// Objects (commits and states) received per second of fetch.
    pub objects_per_s: f64,
    /// The fetch's own time — outside the transport — per object, µs.
    pub ingest_us_per_object: f64,
}

/// A fresh replica fetches, then pulls, `branch` through `transport`.
pub fn cold_fetch<M: Mrdt, T: Transport>(
    tr: &mut Tracer,
    transport: T,
    branch: &str,
) -> Res<ColdFetch> {
    let replica: Replica<M, MemoryBackend> =
        Replica::open("traced-clone", branch, MemoryBackend::new()).map_err(err("open replica"))?;
    let spent_us = Rc::new(Cell::new(0.0));
    let mut remote = Remote::new(
        "origin",
        TimedTransport {
            inner: transport,
            spent_us: Rc::clone(&spent_us),
        },
    );
    let (stats, fetch_us) = tr.time("net.replica.fetch", 0, || {
        replica.fetch(&mut remote, branch)
    });
    let stats = stats.map_err(err("cold fetch"))?;
    let own_us = fetch_us - spent_us.get();
    let (pulled, pull_us) = tr.time("net.replica.pull", 0, || replica.pull(&mut remote, branch));
    pulled.map_err(err("pull after fetch"))?;
    let objects = stats.objects_received().max(1) as f64;
    Ok(ColdFetch {
        fetch_ms: fetch_us / 1e3,
        integrate_ms: pull_us / 1e3,
        round_trips: stats.round_trips as f64,
        delta_states_share: stats.delta_states_received as f64
            / stats.states_received.max(1) as f64,
        objects_per_s: objects / (fetch_us / 1e6),
        ingest_us_per_object: own_us / objects,
    })
}

/// `(encode, decode)` of the reply frame that carries every state of
/// `branch` to a replica that has none — one cold pack — µs, medians of
/// `reps`.
pub fn message_codec_us<T: Transport>(
    tr: &mut Tracer,
    transport: &mut T,
    branch: &str,
    reps: u64,
) -> Res<(f64, f64)> {
    let mut ask = |req: Request| -> Res<Vec<u8>> {
        transport
            .request(&req.to_wire())
            .map_err(err("raw request"))
    };
    let Response::Refs { refs } =
        Response::from_frame(&ask(Request::FetchRefs)?).map_err(err("refs"))?
    else {
        return Err("FetchRefs answered with another response".into());
    };
    let head = refs
        .iter()
        .find(|(name, _)| name == branch)
        .map(|(_, oid)| *oid)
        .ok_or("origin does not advertise the branch")?;
    let want = Request::Want {
        wants: vec![head],
        haves: Vec::new(),
    };
    let Response::Commits { commits } = Response::from_frame(&ask(want)?).map_err(err("want"))?
    else {
        return Err("Want answered with another response".into());
    };
    let mut ids: Vec<ObjectId> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for c in &commits {
        let meta = parse_commit_record(&c.bytes).ok_or("unparsable commit record")?;
        if seen.insert(*meta.state.as_bytes()) {
            ids.push(meta.state);
        }
    }
    let frame = ask(Request::GetStatesDelta {
        ids,
        haves: Vec::new(),
    })?;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for i in 0..reps {
        let (resp, us) = tr.time("net.message.decode", i, || Response::from_frame(&frame));
        let resp = resp.map_err(err("decode pack"))?;
        dec.push(us);
        let (bytes, us) = tr.time("net.message.encode", i, || resp.to_wire());
        if bytes.len() != frame.len() {
            return Err("re-encoded pack differs in length".into());
        }
        enc.push(us);
    }
    Ok((stats::median(&enc), stats::median(&dec)))
}
