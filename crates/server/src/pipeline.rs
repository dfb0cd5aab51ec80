//! Pipelined client: one shared connection keeping many requests in
//! flight, matched to responses by correlation id.
//!
//! The blocking [`Client`](crate::Client) is strictly request/response:
//! every operation pays a full round trip, so remote throughput is
//! RTT-bound long before the server saturates. [`PipelinedClient`] removes
//! that bound: any number of threads share one connection, each `submit`
//! writes a frame tagged with a fresh correlation id and registers a reply
//! slot, and response frames are routed into the slots as they arrive
//! ([`Demux`]). Up to `depth` requests ride the wire
//! concurrently; submitters beyond that block until a slot frees — the
//! client-side half of the server's backpressure story.
//!
//! There are no dedicated IO threads: the calling threads cooperatively
//! drive the socket. A submitter appends its encoded frame to a shared
//! output buffer; if no flush is in progress it becomes the flush leader
//! and drains the buffer (frames queued meanwhile coalesce into the
//! leader's next single `write` syscall). Symmetrically, when a reply is
//! outstanding and nobody is reading, one waiter elects itself the reader
//! and routes a whole batch of response frames for everyone. Coalescing
//! many frames per syscall — the client-side mirror of the reactor's
//! batched per-wakeup reads — is where pipelining's throughput win comes
//! from: per-request syscalls and thread hand-offs, not bandwidth,
//! dominate loopback RTT.
//!
//! This is the transport of the remote LinkBench driver
//! (`livegraph_workloads::RemoteBackend`): a fixed set of these
//! connections, shared by every driver thread, re-dialed in place when one
//! is poisoned. With `depth = 1` it degenerates to request/response.
//!
//! Poisoning semantics are preserved from the blocking client, widened to
//! the connection: a transport error, unexpected correlation id, or
//! mid-stream hangup poisons the *whole* client, failing every in-flight
//! and future request (their slots resolve to the poison error). A
//! server-reported [`Response::Error`] resolves only its own request and
//! leaves the connection healthy, as does a request refused for exceeding
//! the frame size limit (it never reaches the wire).
//!
//! All typed helpers run in auto-commit mode ([`TxnHandle::AUTO`]):
//! explicit transaction handles live in a per-connection server session,
//! and interleaving one thread's explicit transaction with other threads'
//! requests on a shared connection invites cross-thread handle reuse. Use
//! a dedicated blocking [`Client`](crate::Client) for multi-request
//! transactions.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use livegraph_core::sync::{Condvar, Mutex};
use livegraph_core::types::{Label, VertexId};

use crate::client::{ClientError, ClientResult, DEFAULT_IO_TIMEOUT};
use crate::protocol::{
    encode_request, read_response, MetricsReply, Request, Response, StatsReply, TxnHandle,
};

/// Default in-flight request cap per connection.
pub const DEFAULT_PIPELINE_DEPTH: usize = 32;

/// A fully reassembled reply: either a single terminal response frame, or
/// the concatenation of a `NeighborChunk` stream.
#[doc(hidden)]
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// One terminal (non-chunk, non-error) response frame.
    One(Response),
    /// A complete `Neighbors` stream, chunks concatenated in arrival order.
    Neighbors(Vec<VertexId>),
}

/// Why the connection became unusable; rendered into a fresh
/// [`ClientError`] for every waiter (the underlying `io::Error` is not
/// cloneable).
#[derive(Debug, Clone)]
enum Poison {
    Io(io::ErrorKind, String),
    Protocol(String),
}

impl Poison {
    fn to_error(&self) -> ClientError {
        match self {
            Poison::Io(kind, msg) => ClientError::Io(io::Error::new(*kind, msg.clone())),
            Poison::Protocol(msg) => ClientError::Protocol(msg.clone()),
        }
    }
}

/// One in-flight request's reply slot.
#[derive(Debug)]
enum Slot {
    /// Sent, awaiting its terminal frame; neighbor chunks accumulate here.
    Pending { chunks: Vec<VertexId> },
    /// Terminal frame arrived; the submitting thread may claim it.
    Ready(Result<Reply, ClientError>),
}

/// The correlation-id demultiplexer: routes response frames (in whatever
/// order and interleaving the transport delivers them) into per-request
/// reply slots. Transport-independent so the routing rules are directly
/// property-testable (see the tests below) and the wait/reader-election
/// loop ([`demux_wait`]) is model-checkable against a scripted transport.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Demux {
    slots: HashMap<u64, Slot>,
    next_corr: u64,
    poison: Option<Poison>,
    /// Submitters blocked on the depth bound; lets `wait` skip the wakeup
    /// broadcast when nobody is queued.
    depth_waiters: usize,
}

impl Demux {
    /// Registers a fresh correlation id with an empty pending slot.
    #[doc(hidden)]
    pub fn register(&mut self) -> u64 {
        self.next_corr += 1;
        let corr = self.next_corr;
        self.slots.insert(corr, Slot::Pending { chunks: Vec::new() });
        corr
    }

    /// Requests currently occupying slots (pending or unclaimed).
    #[doc(hidden)]
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// True if any slot is still awaiting frames from the server (used by
    /// the reader thread to tell an idle read timeout from a stall).
    fn any_pending(&self) -> bool {
        self.slots.values().any(|s| matches!(s, Slot::Pending { .. }))
    }

    /// Routes one response frame. `Err` means the *stream* is broken
    /// (unknown correlation id, duplicate terminal frame): the caller must
    /// poison the connection.
    #[doc(hidden)]
    pub fn route(&mut self, corr: u64, resp: Response) -> Result<(), String> {
        let slot = self
            .slots
            .get_mut(&corr)
            .ok_or_else(|| format!("response for unknown correlation id {corr}"))?;
        let Slot::Pending { chunks } = slot else {
            return Err(format!("second terminal response for correlation id {corr}"));
        };
        match resp {
            Response::NeighborChunk { dsts, last } => {
                chunks.extend_from_slice(&dsts);
                if last {
                    let chunks = std::mem::take(chunks);
                    *slot = Slot::Ready(Ok(Reply::Neighbors(chunks)));
                }
            }
            Response::Error { code, message } => {
                *slot = Slot::Ready(Err(ClientError::Server { code, message }));
            }
            other => {
                *slot = Slot::Ready(Ok(Reply::One(other)));
            }
        }
        Ok(())
    }

    /// Claims a completed reply, removing its slot. `None` while frames
    /// are still outstanding.
    #[doc(hidden)]
    pub fn take_ready(&mut self, corr: u64) -> Option<Result<Reply, ClientError>> {
        match self.slots.get(&corr) {
            Some(Slot::Ready(_)) => match self.slots.remove(&corr) {
                Some(Slot::Ready(r)) => Some(r),
                _ => unreachable!("slot checked above"),
            },
            _ => None,
        }
    }

    fn poison(&mut self, p: Poison) {
        if self.poison.is_none() {
            self.poison = Some(p);
        }
    }
}

/// Outbound frames awaiting the current flush leader's next `write`.
#[derive(Default)]
struct OutState {
    buf: Vec<u8>,
    /// A spare buffer the leader swaps against, so steady-state flushing
    /// allocates nothing.
    spare: Vec<u8>,
    /// True while some submitter is the flush leader; its drain loop is
    /// guaranteed to pick up anything appended to `buf` before it clears
    /// this flag.
    flushing: bool,
}

/// The socket's read side; its mutex doubles as the read-duty election:
/// whichever waiter holds it is *the* reader until its own reply lands.
struct ReadHalf {
    reader: BufReader<TcpStream>,
    scratch: Vec<u8>,
}

/// A pipelined connection, shareable across threads (`&self` API).
///
/// ```no_run
/// use std::sync::Arc;
/// use livegraph_server::PipelinedClient;
///
/// let client = Arc::new(PipelinedClient::connect("127.0.0.1:7687", 32).unwrap());
/// let workers: Vec<_> = (0..4)
///     .map(|_| {
///         let client = Arc::clone(&client);
///         std::thread::spawn(move || {
///             for _ in 0..1000 {
///                 client.ping().unwrap();
///             }
///         })
///     })
///     .collect();
/// for w in workers {
///     w.join().unwrap();
/// }
/// ```
pub struct PipelinedClient {
    demux: Mutex<Demux>,
    cv: Condvar,
    out: Mutex<OutState>,
    read_half: Mutex<ReadHalf>,
    /// The write side; only the elected flush leader touches it.
    stream: TcpStream,
    depth: usize,
}

impl PipelinedClient {
    /// Connects with up to `depth` requests in flight and the default
    /// socket timeout ([`DEFAULT_IO_TIMEOUT`]). The read timeout only
    /// poisons the connection when requests are actually awaiting replies;
    /// an idle connection never reads the socket, so it sits through any
    /// stretch of silence unharmed.
    pub fn connect(addr: impl ToSocketAddrs, depth: usize) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        let read_half = ReadHalf {
            reader: BufReader::new(stream.try_clone()?),
            scratch: Vec::with_capacity(256),
        };
        Ok(PipelinedClient {
            demux: Mutex::new(Demux::default()),
            cv: Condvar::new(),
            out: Mutex::new(OutState::default()),
            read_half: Mutex::new(read_half),
            stream,
            depth: depth.max(1),
        })
    }

    /// True once a transport/protocol failure has condemned this
    /// connection; every subsequent call fails fast with the same cause.
    pub fn is_poisoned(&self) -> bool {
        self.demux.lock().poison.is_some()
    }

    /// Poisons the connection and wakes every waiter and queued submitter.
    fn poison_and_wake(&self, p: Poison) {
        let mut demux = self.demux.lock();
        demux.poison(p);
        drop(demux);
        self.cv.notify_all();
    }

    /// Registers a reply slot (blocking while `depth` requests are in
    /// flight) and appends the request frame to the shared outbound
    /// buffer. If no flush is in progress this thread becomes the flush
    /// leader and drains the buffer with as few `write` syscalls as
    /// possible; otherwise the frame rides the current leader's next
    /// drain — that coalescing (many frames, one syscall) is where
    /// pipelining's throughput win comes from on a loopback link.
    fn submit(&self, req: &Request) -> ClientResult<u64> {
        let corr = {
            let mut demux = self.demux.lock();
            loop {
                if let Some(p) = &demux.poison {
                    return Err(p.to_error());
                }
                if demux.in_flight() < self.depth {
                    break;
                }
                demux.depth_waiters += 1;
                self.cv.wait(&mut demux);
                demux.depth_waiters -= 1;
            }
            demux.register()
        };
        let frame = match encode_request(corr, req) {
            Ok(frame) => frame,
            Err(e) => {
                // Oversized: refused before reaching the shared buffer, so
                // only this request fails; the connection stays healthy.
                // Freeing the slot may unblock a depth-bound submitter.
                self.demux.lock().slots.remove(&corr);
                self.cv.notify_all();
                return Err(ClientError::Refused(e));
            }
        };
        let mut out = self.out.lock();
        out.buf.extend_from_slice(&frame);
        if out.flushing {
            // The active leader's drain loop is guaranteed to see this
            // frame before it gives up leadership.
            return Ok(corr);
        }
        out.flushing = true;
        // Group-commit style linger: yield once before draining so
        // submitters that are already runnable (e.g. woken together by one
        // reply batch) append their frames into this same flush. They see
        // `flushing == true` and skip straight to `wait`, where one of
        // them takes read duty while this thread writes the whole batch.
        // At depth 1 no other request can be in flight to join, so skip it.
        if self.depth > 1 {
            drop(out);
            std::thread::yield_now();
            out = self.out.lock();
        }
        let mut local = std::mem::take(&mut out.spare);
        loop {
            std::mem::swap(&mut out.buf, &mut local);
            drop(out);
            let wrote = (&self.stream).write_all(&local);
            local.clear();
            out = self.out.lock();
            if let Err(e) = wrote {
                // The wire may hold a partial frame: unrecoverable for
                // everyone sharing the connection.
                out.flushing = false;
                out.spare = local;
                drop(out);
                let mut demux = self.demux.lock();
                demux.slots.remove(&corr);
                demux.poison(Poison::Io(e.kind(), e.to_string()));
                drop(demux);
                self.cv.notify_all();
                return Err(e.into());
            }
            if out.buf.is_empty() {
                out.flushing = false;
                out.spare = local;
                return Ok(corr);
            }
        }
    }

    /// Blocks until `corr`'s reply is complete (or the connection dies).
    fn wait(&self, corr: u64) -> ClientResult<Reply> {
        demux_wait(&self.demux, &self.cv, &self.read_half, corr, |half| {
            self.read_batch(half)
        })
    }

    /// Reads one blocking response frame plus every complete frame already
    /// buffered, routes them, and broadcasts once. Transport or protocol
    /// failures poison the connection here.
    fn read_batch(&self, half: &mut ReadHalf) {
        let ReadHalf { reader, scratch } = half;
        match read_response(reader, scratch) {
            Ok(Some((corr, resp))) => {
                let mut demux = self.demux.lock();
                let mut routed = demux.route(corr, resp);
                while routed.is_ok() && buffered_frame_complete(reader) {
                    match read_response(reader, scratch) {
                        Ok(Some((corr, resp))) => routed = demux.route(corr, resp),
                        // A complete buffered frame cannot hit EOF or
                        // block; any failure here is a decode error.
                        Ok(None) => break,
                        Err(e) => {
                            demux.poison(Poison::Io(e.kind(), e.to_string()));
                            break;
                        }
                    }
                }
                if let Err(msg) = routed {
                    demux.poison(Poison::Protocol(msg));
                }
                drop(demux);
                self.cv.notify_all();
            }
            Ok(None) => {
                self.poison_and_wake(Poison::Io(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection".into(),
                ));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Socket read timeout while a reply is outstanding (the
                // reader is itself a waiter): the server has stalled a
                // full timeout with requests on the wire.
                let mut demux = self.demux.lock();
                if demux.any_pending() {
                    demux.poison(Poison::Io(
                        io::ErrorKind::TimedOut,
                        "timed out awaiting a pipelined reply".into(),
                    ));
                    drop(demux);
                    self.cv.notify_all();
                }
            }
            Err(e) => {
                self.poison_and_wake(Poison::Io(e.kind(), e.to_string()));
            }
        }
    }

    fn call(&self, req: &Request) -> ClientResult<Reply> {
        let corr = self.submit(req)?;
        self.wait(corr)
    }

    fn one(&self, req: &Request, what: &'static str) -> ClientResult<Response> {
        match self.call(req)? {
            Reply::One(resp) => Ok(resp),
            Reply::Neighbors(_) => Err(ClientError::Protocol(format!(
                "expected {what}, got a neighbor stream"
            ))),
        }
    }

    /// Liveness / RTT probe.
    pub fn ping(&self) -> ClientResult<()> {
        match self.one(&Request::Ping, "Pong")? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Creates a vertex in an auto-commit transaction.
    pub fn create_vertex_auto(&self, properties: &[u8]) -> ClientResult<VertexId> {
        match self.one(
            &Request::CreateVertex {
                txn: TxnHandle::AUTO,
                properties: properties.to_vec(),
            },
            "VertexCreated",
        )? {
            Response::VertexCreated { vertex } => Ok(vertex),
            other => Err(unexpected("VertexCreated", &other)),
        }
    }

    /// Reads a vertex's properties at the latest auto-commit snapshot.
    pub fn get_vertex(&self, vertex: VertexId) -> ClientResult<Option<Vec<u8>>> {
        match self.one(
            &Request::GetVertex {
                txn: TxnHandle::AUTO,
                vertex,
            },
            "MaybeBytes",
        )? {
            Response::MaybeBytes { value } => Ok(value),
            other => Err(unexpected("MaybeBytes", &other)),
        }
    }

    /// Overwrites a vertex's properties (auto-commit).
    pub fn put_vertex(&self, vertex: VertexId, properties: &[u8]) -> ClientResult<()> {
        match self.one(
            &Request::PutVertex {
                txn: TxnHandle::AUTO,
                vertex,
                properties: properties.to_vec(),
            },
            "Done",
        )? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Inserts/updates an edge (auto-commit); true if newly inserted.
    pub fn put_edge(
        &self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        properties: &[u8],
    ) -> ClientResult<bool> {
        match self.one(
            &Request::PutEdge {
                txn: TxnHandle::AUTO,
                src,
                label,
                dst,
                properties: properties.to_vec(),
            },
            "Flag",
        )? {
            Response::Flag { value } => Ok(value),
            other => Err(unexpected("Flag", &other)),
        }
    }

    /// Deletes an edge (auto-commit); true if a visible version existed.
    pub fn delete_edge(&self, src: VertexId, label: Label, dst: VertexId) -> ClientResult<bool> {
        match self.one(
            &Request::DeleteEdge {
                txn: TxnHandle::AUTO,
                src,
                label,
                dst,
            },
            "Flag",
        )? {
            Response::Flag { value } => Ok(value),
            other => Err(unexpected("Flag", &other)),
        }
    }

    /// Point-lookup of one edge's properties (auto-commit snapshot).
    pub fn get_edge(
        &self,
        src: VertexId,
        label: Label,
        dst: VertexId,
    ) -> ClientResult<Option<Vec<u8>>> {
        match self.one(
            &Request::GetEdge {
                txn: TxnHandle::AUTO,
                src,
                label,
                dst,
            },
            "MaybeBytes",
        )? {
            Response::MaybeBytes { value } => Ok(value),
            other => Err(unexpected("MaybeBytes", &other)),
        }
    }

    /// Number of visible edges of `(vertex, label)` (auto-commit snapshot).
    pub fn degree(&self, vertex: VertexId, label: Label) -> ClientResult<u64> {
        match self.one(
            &Request::Degree {
                txn: TxnHandle::AUTO,
                vertex,
                label,
            },
            "Count",
        )? {
            Response::Count { value } => Ok(value),
            other => Err(unexpected("Count", &other)),
        }
    }

    /// Scans the adjacency list (newest first) at the latest auto-commit
    /// snapshot; `limit = 0` returns all destinations. The chunk stream is
    /// reassembled by the demux, so concurrent requests interleave freely
    /// with it on the wire.
    pub fn neighbors(
        &self,
        vertex: VertexId,
        label: Label,
        limit: u64,
    ) -> ClientResult<Vec<VertexId>> {
        match self.call(&Request::Neighbors {
            txn: TxnHandle::AUTO,
            vertex,
            label,
            limit,
        })? {
            Reply::Neighbors(dsts) => Ok(dsts),
            Reply::One(other) => Err(unexpected("NeighborChunk", &other)),
        }
    }

    /// Admin: engine statistics snapshot.
    pub fn stats(&self) -> ClientResult<StatsReply> {
        match self.one(&Request::Stats, "Stats")? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Admin: full telemetry snapshot — every counter, gauge and latency
    /// histogram the server's registry holds (flattened across shards).
    pub fn metrics_dump(&self) -> ClientResult<MetricsReply> {
        match self.one(&Request::MetricsDump, "Metrics")? {
            Response::Metrics(metrics) => Ok(metrics),
            other => Err(unexpected("Metrics", &other)),
        }
    }
}

/// The wait/reader-election loop behind [`PipelinedClient`]: blocks until
/// `corr`'s reply is complete (or the connection is poisoned).
///
/// There is no dedicated reader thread: whenever a reply is still
/// outstanding and nobody is reading the socket, one waiter elects itself
/// reader (by taking the `read_half` lock), routes a batch of response
/// frames for *all* waiters, and re-checks. Everyone else sleeps on the
/// condvar until the reader's broadcast.
///
/// Generic over the read half so the model tests
/// (`crates/server/tests/model_pipeline.rs`) can drive the exact
/// production election/wakeup protocol against a scripted transport;
/// `read_batch` must route its frames under `demux` and broadcast `cv`,
/// as [`PipelinedClient::read_batch`] does.
#[doc(hidden)]
pub fn demux_wait<R>(
    demux_mx: &Mutex<Demux>,
    cv: &Condvar,
    read_half: &Mutex<R>,
    corr: u64,
    mut read_batch: impl FnMut(&mut R),
) -> ClientResult<Reply> {
    let mut demux = demux_mx.lock();
    loop {
        if let Some(result) = demux.take_ready(corr) {
            // Broadcast if submitters are queued on the depth bound, or
            // if other replies are still pending: we may have been the
            // active reader, and waiters woken mid-batch went back to
            // sleep because we still held `read_half` — one of them
            // must wake now (the lock is free again) to take over read
            // duty, or a straggler waits forever.
            if demux.depth_waiters > 0 || demux.any_pending() {
                cv.notify_all();
            }
            return result;
        }
        if let Some(p) = &demux.poison {
            let err = p.to_error();
            demux.slots.remove(&corr);
            return Err(err);
        }
        match read_half.try_lock() {
            Some(mut half) => {
                // This thread is the reader until its own reply lands.
                // Read without the demux lock so submitters keep flowing.
                drop(demux);
                read_batch(&mut half);
                drop(half);
                demux = demux_mx.lock();
            }
            None => {
                // Someone else is reading; their broadcast wakes us.
                // No lost-wakeup window: the reader re-takes the demux
                // lock to route + notify, and we only sleep while
                // holding it.
                cv.wait(&mut demux);
            }
        }
    }
}

fn unexpected(what: &'static str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {what}, got {got:?}"))
}

/// True if the reader's internal buffer already holds one complete frame
/// (`[len:u32 LE | payload]`), i.e. another `read_response` cannot block.
fn buffered_frame_complete(reader: &BufReader<TcpStream>) -> bool {
    let buf = reader.buffer();
    if buf.len() < 4 {
        return false;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    buf.len() >= 4 + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use crate::engine::Engine;
    use crate::reactor::{ReactorConfig, ReactorServer};
    use livegraph_core::{LiveGraph, LiveGraphOptions, DEFAULT_LABEL};
    use proptest::prelude::*;

    // -- Demux unit behaviour ------------------------------------------------

    #[test]
    fn demux_routes_by_correlation_id_not_arrival_order() {
        let mut d = Demux::default();
        let a = d.register();
        let b = d.register();
        // b's reply lands first: out-of-order completion.
        d.route(b, Response::Count { value: 7 }).unwrap();
        assert!(d.take_ready(a).is_none());
        assert_eq!(
            d.take_ready(b).unwrap().unwrap(),
            Reply::One(Response::Count { value: 7 })
        );
        d.route(a, Response::Pong).unwrap();
        assert_eq!(d.take_ready(a).unwrap().unwrap(), Reply::One(Response::Pong));
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn demux_rejects_unknown_and_duplicate_correlation_ids() {
        let mut d = Demux::default();
        assert!(d.route(999, Response::Pong).is_err());
        let a = d.register();
        d.route(a, Response::Pong).unwrap();
        assert!(d.route(a, Response::Done).is_err(), "terminal frame twice");
    }

    // Interleaved chunk streams and out-of-order completions across N
    // in-flight correlation ids: the demux must reassemble every stream
    // exactly, no matter how the per-request frame sequences interleave.
    proptest! {
        #[test]
        fn demux_reassembles_arbitrary_interleavings(
            scripts in proptest::collection::vec(
                prop_oneof![
                    // A Neighbors stream: 1..4 chunks of 0..5 dsts.
                    proptest::collection::vec(
                        proptest::collection::vec(0u64..1000, 0..5),
                        1..4
                    ).prop_map(ScriptKind::Stream),
                    // A single terminal frame.
                    (0u64..1000).prop_map(ScriptKind::Count),
                    // A server-side error.
                    Just(ScriptKind::Error),
                ],
                1..6,
            ),
            choices in proptest::collection::vec(any::<usize>(), 0..64),
        ) {
            let mut d = Demux::default();
            let corrs: Vec<u64> = scripts.iter().map(|_| d.register()).collect();

            // Build per-request frame queues.
            let mut queues: Vec<(u64, Vec<Response>)> = scripts
                .iter()
                .zip(&corrs)
                .map(|(script, &corr)| (corr, script.frames()))
                .collect();

            // Drain the queues in a proptest-chosen interleaving (frames
            // within one request stay in order — the transport guarantees
            // per-request ordering; requests interleave arbitrarily).
            let mut choice = choices.into_iter();
            while queues.iter().any(|(_, q)| !q.is_empty()) {
                let nonempty: Vec<usize> = queues
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, q))| !q.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                let pick = match choice.next() {
                    Some(ix) => nonempty[ix % nonempty.len()],
                    None => nonempty[0],
                };
                let (corr, queue) = &mut queues[pick];
                let frame = queue.remove(0);
                d.route(*corr, frame).unwrap();
            }

            // Every request resolves to exactly its expected reply.
            for (script, corr) in scripts.iter().zip(&corrs) {
                let got = d.take_ready(*corr).expect("reply complete");
                match script {
                    ScriptKind::Stream(chunks) => {
                        let expect: Vec<u64> = chunks.iter().flatten().copied().collect();
                        prop_assert_eq!(got.unwrap(), Reply::Neighbors(expect));
                    }
                    ScriptKind::Count(v) => {
                        prop_assert_eq!(got.unwrap(), Reply::One(Response::Count { value: *v }));
                    }
                    ScriptKind::Error => {
                        prop_assert!(matches!(got, Err(ClientError::Server { .. })));
                    }
                }
            }
            prop_assert_eq!(d.in_flight(), 0);
        }
    }

    #[derive(Debug, Clone)]
    enum ScriptKind {
        Stream(Vec<Vec<u64>>),
        Count(u64),
        Error,
    }

    impl ScriptKind {
        fn frames(&self) -> Vec<Response> {
            match self {
                ScriptKind::Stream(chunks) => {
                    let n = chunks.len();
                    chunks
                        .iter()
                        .enumerate()
                        .map(|(i, dsts)| Response::NeighborChunk {
                            dsts: dsts.clone(),
                            last: i + 1 == n,
                        })
                        .collect()
                }
                ScriptKind::Count(v) => vec![Response::Count { value: *v }],
                ScriptKind::Error => vec![Response::Error {
                    code: crate::protocol::ErrorCode::BadRequest,
                    message: "scripted".into(),
                }],
            }
        }
    }

    // -- End-to-end against the reactor -------------------------------------

    fn start_reactor() -> ReactorServer {
        let engine = Arc::new(Engine::Plain(
            LiveGraph::open(
                LiveGraphOptions::in_memory()
                    .with_capacity(1 << 22)
                    .with_max_vertices(1 << 13),
            )
            .unwrap(),
        ));
        ReactorServer::start(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap()
    }

    #[test]
    fn pipelined_client_overlaps_requests_from_many_threads() {
        let server = start_reactor();
        let client = Arc::new(PipelinedClient::connect(server.local_addr(), 16).unwrap());
        let mut ids = Vec::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..50 {
                        mine.push(
                            client
                                .create_vertex_auto(format!("t{t}i{i}").as_bytes())
                                .unwrap(),
                        );
                    }
                    mine
                })
            })
            .collect();
        for t in threads {
            ids.extend(t.join().unwrap());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "every request got a distinct vertex back");
        assert_eq!(client.stats().unwrap().vertex_count, 200);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn pipelined_neighbors_streams_interleave_with_point_requests() {
        let server = start_reactor();
        let client = Arc::new(PipelinedClient::connect(server.local_addr(), 16).unwrap());
        let hub = client.create_vertex_auto(b"hub").unwrap();
        let mut expect = Vec::new();
        for i in 0..1500u64 {
            let dst = client.create_vertex_auto(b"d").unwrap();
            client
                .put_edge(hub, DEFAULT_LABEL, dst, &i.to_le_bytes())
                .unwrap();
            expect.push(dst);
        }
        expect.reverse(); // newest-first scan order
        let scans: Vec<_> = (0..3)
            .map(|_| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.neighbors(hub, DEFAULT_LABEL, 0).unwrap())
            })
            .collect();
        let pinger = {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    client.ping().unwrap();
                }
            })
        };
        for s in scans {
            assert_eq!(s.join().unwrap(), expect);
        }
        pinger.join().unwrap();
        drop(client);
        server.shutdown();
    }

    // Read-duty handoff: the active reader's own reply can arrive first.
    // When it claims it and returns, a waiter whose reply is still in
    // flight must take over reading the socket instead of sleeping
    // forever. A scripted server answers whichever request arrives first
    // immediately and holds the other back, so the first submitter (the
    // likely reader) retires while the second still waits.
    #[test]
    fn reader_handoff_wakes_remaining_waiters() {
        use crate::protocol::{read_request, write_response};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut scratch = Vec::new();
            for _ in 0..20 {
                let (first, _) = read_request(&mut stream, &mut scratch).unwrap().unwrap();
                let (second, _) = read_request(&mut stream, &mut scratch).unwrap().unwrap();
                write_response(&mut stream, first, &Response::Pong).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                write_response(&mut stream, second, &Response::Pong).unwrap();
            }
        });
        let client = Arc::new(PipelinedClient::connect(addr, 8).unwrap());
        for _ in 0..20 {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let client = Arc::clone(&client);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        client.ping().unwrap();
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        }
        server.join().unwrap();
    }

    /// An oversized request fails alone: the shared connection is not
    /// poisoned, and other threads' requests keep succeeding on it.
    #[test]
    fn oversized_request_fails_alone_without_poisoning() {
        let server = start_reactor();
        let client = Arc::new(PipelinedClient::connect(server.local_addr(), 8).unwrap());
        let v = client.create_vertex_auto(b"v").unwrap();
        let pingers: Vec<_> = (0..3)
            .map(|_| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        client.ping().expect("concurrent ping on the shared connection");
                    }
                })
            })
            .collect();
        let huge = vec![0u8; crate::protocol::MAX_FRAME_LEN as usize + 1];
        for _ in 0..3 {
            let err = client.put_vertex(v, &huge).expect_err("frame too large");
            assert!(matches!(err, ClientError::Refused(_)), "got {err}");
            assert!(!err.poisons_connection());
            assert!(!client.is_poisoned());
        }
        for p in pingers {
            p.join().unwrap();
        }
        client.ping().expect("connection still usable");
        assert_eq!(client.get_vertex(v).unwrap().unwrap(), b"v");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn server_death_poisons_all_waiters() {
        let server = start_reactor();
        let client = Arc::new(PipelinedClient::connect(server.local_addr(), 8).unwrap());
        client.ping().unwrap();
        server.shutdown();
        // Every call after the shutdown must fail with a poisoning error,
        // not hang: either the submit write fails or the reader poisons.
        let err = loop {
            match client.ping() {
                Ok(()) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => break e,
            }
        };
        assert!(err.poisons_connection(), "transport-level failure: {err}");
        assert!(client.is_poisoned());
        // Fail-fast afterwards.
        assert!(client.ping().is_err());
    }
}
