//! Blocking client library: one [`Client`] per TCP connection, owned by
//! one thread — the explicit-transaction client.
//!
//! A `Client` issues one request at a time and waits for the response
//! (correlation ids are still attached and checked, so interleaved or
//! duplicated frames from a broken peer are detected rather than silently
//! mis-matched). [`Client::neighbors`] reassembles the server's chunked
//! adjacency stream. A connection that sees an I/O or protocol error is
//! *poisoned*: its stream position is unknown, so the caller must drop it
//! and dial a fresh one. Threads that share connections use
//! [`PipelinedClient`](crate::PipelinedClient) instead.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use livegraph_core::types::{Label, Timestamp, VertexId};

use crate::protocol::{
    encode_request, read_response, ErrorCode, MetricsReply, Request, Response, StatsReply,
    TxnHandle,
};

/// Errors surfaced by the client library.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure; the connection is unusable afterwards.
    Io(io::Error),
    /// The peer spoke the protocol incorrectly (bad frame, wrong
    /// correlation id, response type mismatch); connection unusable.
    Protocol(String),
    /// The client refused to send the request because its frame would
    /// exceed [`MAX_FRAME_LEN`](crate::protocol::MAX_FRAME_LEN). Nothing
    /// reached the wire; the connection remains usable.
    Refused(io::Error),
    /// The server executed the request and reported a failure. The
    /// connection remains usable.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Server-side detail message.
        message: String,
    },
}

impl ClientError {
    /// True for server-reported first-updater-wins conflicts (retryable).
    pub fn is_write_conflict(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::WriteConflict,
                ..
            }
        )
    }

    /// True for server-reported vertex-not-found.
    pub fn is_vertex_not_found(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::VertexNotFound,
                ..
            }
        )
    }

    /// True when the connection must be discarded (transport or protocol
    /// failure, as opposed to a clean server-side error reply or a refused
    /// send) — exactly the errors after which `is_poisoned()` holds.
    pub fn poisons_connection(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Protocol(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Refused(e) => write!(f, "request refused: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) | ClientError::Refused(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client operations.
pub type ClientResult<T> = Result<T, ClientError>;

/// Default socket read/write timeout applied by [`Client::connect`] and
/// [`PipelinedClient::connect`](crate::PipelinedClient::connect). Generous
/// enough that no healthy request — including a semi-sync commit waiting
/// out its replica-acknowledgement window — ever trips it, but bounded, so
/// a hung or partitioned server surfaces an error instead of blocking the
/// caller forever. Pass an explicit timeout (or `None` to opt out) to
/// [`Client::connect_with_timeout`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A remote transaction held by a [`Client`].
///
/// This is a plain handle, not a guard: dropping it does *not* abort the
/// server-side transaction (the server rolls it back when the connection
/// closes). Pass it back to [`Client::commit`] / [`Client::abort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTxn {
    handle: TxnHandle,
    epoch: Timestamp,
}

impl RemoteTxn {
    /// The snapshot epoch this transaction reads.
    pub fn epoch(&self) -> Timestamp {
        self.epoch
    }

    /// The wire handle.
    pub fn handle(&self) -> TxnHandle {
        self.handle
    }
}

/// One blocking client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_corr: u64,
    scratch: Vec<u8>,
    poisoned: bool,
}

impl Client {
    /// Connects to a LiveGraph server with the default socket timeout
    /// ([`DEFAULT_IO_TIMEOUT`]): a request against a hung or partitioned
    /// server errors out (poisoning the connection) instead of blocking
    /// the caller forever. Use [`Client::connect_with_timeout`] to choose
    /// the bound or opt out.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with_timeout(addr, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects with a read/write timeout on the underlying socket: a
    /// request against a hung or partitioned server surfaces
    /// [`ClientError::Io`] (poisoning the connection) after `io_timeout`
    /// instead of blocking forever. `None` disables the timeouts.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        io_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_corr: 1,
            scratch: Vec::with_capacity(256),
            poisoned: false,
        })
    }

    /// Changes the socket read/write timeout of an existing connection
    /// (`None` disables it). Cloned halves share the socket, so this
    /// affects both directions.
    pub fn set_io_timeout(&mut self, io_timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.writer.get_ref();
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)
    }

    /// The socket read timeout currently in force (`None` = unbounded).
    pub fn io_timeout(&self) -> io::Result<Option<Duration>> {
        self.writer.get_ref().read_timeout()
    }

    /// True once a transport/protocol error has made this connection's
    /// stream position untrustworthy.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn send(&mut self, req: &Request) -> ClientResult<u64> {
        let corr = self.next_corr;
        self.next_corr += 1;
        // An oversized frame is refused before any byte is written, so the
        // stream stays in sync and the connection is not poisoned.
        let frame = encode_request(corr, req).map_err(ClientError::Refused)?;
        let sent = self.writer.write_all(&frame).and_then(|()| self.writer.flush());
        if let Err(e) = sent {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(corr)
    }

    fn recv(&mut self, corr: u64) -> ClientResult<Response> {
        match read_response(&mut self.reader, &mut self.scratch) {
            Ok(Some((rcorr, resp))) => {
                if rcorr != corr {
                    self.poisoned = true;
                    return Err(ClientError::Protocol(format!(
                        "response correlation id {rcorr} does not match request {corr}"
                    )));
                }
                Ok(resp)
            }
            Ok(None) => {
                self.poisoned = true;
                Err(ClientError::Protocol(
                    "server closed the connection mid-request".into(),
                ))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e.into())
            }
        }
    }

    /// One request, one response.
    fn roundtrip(&mut self, req: &Request) -> ClientResult<Response> {
        let corr = self.send(req)?;
        match self.recv(corr)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    fn unexpected<T>(&mut self, what: &'static str, resp: &Response) -> ClientResult<T> {
        self.poisoned = true;
        Err(ClientError::Protocol(format!(
            "expected {what}, got {resp:?}"
        )))
    }

    /// Liveness / RTT probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => self.unexpected("Pong", &other),
        }
    }

    /// Begins a read-only transaction at the latest snapshot.
    pub fn begin_read(&mut self) -> ClientResult<RemoteTxn> {
        self.begin(&Request::BeginRead { at_epoch: None })
    }

    /// Begins a time-travel read-only transaction pinned at `epoch`.
    pub fn begin_read_at(&mut self, epoch: Timestamp) -> ClientResult<RemoteTxn> {
        self.begin(&Request::BeginRead {
            at_epoch: Some(epoch),
        })
    }

    /// Begins a read-write transaction.
    pub fn begin_write(&mut self) -> ClientResult<RemoteTxn> {
        self.begin(&Request::BeginWrite)
    }

    fn begin(&mut self, req: &Request) -> ClientResult<RemoteTxn> {
        match self.roundtrip(req)? {
            Response::TxnBegun { txn, epoch } => Ok(RemoteTxn { handle: txn, epoch }),
            other => self.unexpected("TxnBegun", &other),
        }
    }

    /// Commits; returns the commit epoch.
    pub fn commit(&mut self, txn: RemoteTxn) -> ClientResult<Timestamp> {
        match self.roundtrip(&Request::Commit { txn: txn.handle })? {
            Response::Committed { epoch } => Ok(epoch),
            other => self.unexpected("Committed", &other),
        }
    }

    /// Aborts, rolling back all of the transaction's updates.
    pub fn abort(&mut self, txn: RemoteTxn) -> ClientResult<()> {
        match self.roundtrip(&Request::Abort { txn: txn.handle })? {
            Response::Aborted => Ok(()),
            other => self.unexpected("Aborted", &other),
        }
    }

    /// Creates a vertex inside `txn`.
    pub fn create_vertex(&mut self, txn: RemoteTxn, properties: &[u8]) -> ClientResult<VertexId> {
        self.create_vertex_in(txn.handle, properties)
    }

    /// Creates a vertex in an auto-commit transaction.
    pub fn create_vertex_auto(&mut self, properties: &[u8]) -> ClientResult<VertexId> {
        self.create_vertex_in(TxnHandle::AUTO, properties)
    }

    fn create_vertex_in(&mut self, txn: TxnHandle, properties: &[u8]) -> ClientResult<VertexId> {
        match self.roundtrip(&Request::CreateVertex {
            txn,
            properties: properties.to_vec(),
        })? {
            Response::VertexCreated { vertex } => Ok(vertex),
            other => self.unexpected("VertexCreated", &other),
        }
    }

    /// Reads a vertex's properties under `txn` (`None` = auto-commit
    /// snapshot).
    pub fn get_vertex(
        &mut self,
        txn: Option<RemoteTxn>,
        vertex: VertexId,
    ) -> ClientResult<Option<Vec<u8>>> {
        match self.roundtrip(&Request::GetVertex {
            txn: handle_of(txn),
            vertex,
        })? {
            Response::MaybeBytes { value } => Ok(value),
            other => self.unexpected("MaybeBytes", &other),
        }
    }

    /// Overwrites a vertex's properties.
    pub fn put_vertex(
        &mut self,
        txn: Option<RemoteTxn>,
        vertex: VertexId,
        properties: &[u8],
    ) -> ClientResult<()> {
        match self.roundtrip(&Request::PutVertex {
            txn: handle_of(txn),
            vertex,
            properties: properties.to_vec(),
        })? {
            Response::Done => Ok(()),
            other => self.unexpected("Done", &other),
        }
    }

    /// Deletes a vertex; true if a visible version existed.
    pub fn delete_vertex(&mut self, txn: Option<RemoteTxn>, vertex: VertexId) -> ClientResult<bool> {
        match self.roundtrip(&Request::DeleteVertex {
            txn: handle_of(txn),
            vertex,
        })? {
            Response::Flag { value } => Ok(value),
            other => self.unexpected("Flag", &other),
        }
    }

    /// Inserts/updates an edge; true if newly inserted.
    pub fn put_edge(
        &mut self,
        txn: Option<RemoteTxn>,
        src: VertexId,
        label: Label,
        dst: VertexId,
        properties: &[u8],
    ) -> ClientResult<bool> {
        match self.roundtrip(&Request::PutEdge {
            txn: handle_of(txn),
            src,
            label,
            dst,
            properties: properties.to_vec(),
        })? {
            Response::Flag { value } => Ok(value),
            other => self.unexpected("Flag", &other),
        }
    }

    /// Deletes an edge; true if a visible version existed.
    pub fn delete_edge(
        &mut self,
        txn: Option<RemoteTxn>,
        src: VertexId,
        label: Label,
        dst: VertexId,
    ) -> ClientResult<bool> {
        match self.roundtrip(&Request::DeleteEdge {
            txn: handle_of(txn),
            src,
            label,
            dst,
        })? {
            Response::Flag { value } => Ok(value),
            other => self.unexpected("Flag", &other),
        }
    }

    /// Point-lookup of one edge's properties.
    pub fn get_edge(
        &mut self,
        txn: Option<RemoteTxn>,
        src: VertexId,
        label: Label,
        dst: VertexId,
    ) -> ClientResult<Option<Vec<u8>>> {
        match self.roundtrip(&Request::GetEdge {
            txn: handle_of(txn),
            src,
            label,
            dst,
        })? {
            Response::MaybeBytes { value } => Ok(value),
            other => self.unexpected("MaybeBytes", &other),
        }
    }

    /// Number of visible edges of `(vertex, label)`.
    pub fn degree(
        &mut self,
        txn: Option<RemoteTxn>,
        vertex: VertexId,
        label: Label,
    ) -> ClientResult<u64> {
        match self.roundtrip(&Request::Degree {
            txn: handle_of(txn),
            vertex,
            label,
        })? {
            Response::Count { value } => Ok(value),
            other => self.unexpected("Count", &other),
        }
    }

    /// Scans the adjacency list (newest first), reassembling the server's
    /// chunked stream. `limit = 0` returns all destinations.
    pub fn neighbors(
        &mut self,
        txn: Option<RemoteTxn>,
        vertex: VertexId,
        label: Label,
        limit: u64,
    ) -> ClientResult<Vec<VertexId>> {
        let corr = self.send(&Request::Neighbors {
            txn: handle_of(txn),
            vertex,
            label,
            limit,
        })?;
        let mut dsts = Vec::new();
        loop {
            match self.recv(corr)? {
                Response::NeighborChunk { dsts: chunk, last } => {
                    dsts.extend_from_slice(&chunk);
                    if last {
                        return Ok(dsts);
                    }
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message });
                }
                other => return self.unexpected("NeighborChunk", &other),
            }
        }
    }

    /// Admin: engine statistics snapshot.
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => self.unexpected("Stats", &other),
        }
    }

    /// Admin: full telemetry snapshot — every counter, gauge and latency
    /// histogram the server's registry holds (flattened across shards).
    pub fn metrics_dump(&mut self) -> ClientResult<MetricsReply> {
        match self.roundtrip(&Request::MetricsDump)? {
            Response::Metrics(metrics) => Ok(metrics),
            other => self.unexpected("Metrics", &other),
        }
    }

    /// Admin: checkpoint the latest committed snapshot and prune the WAL.
    pub fn checkpoint(&mut self) -> ClientResult<()> {
        match self.roundtrip(&Request::Checkpoint)? {
            Response::Done => Ok(()),
            other => self.unexpected("Done", &other),
        }
    }

    /// Admin: promote a read-only replica to a serving primary (failover).
    /// Returns the epoch the server serves writes from. Idempotent — on a
    /// server that already accepts writes it just reports the epoch.
    pub fn promote(&mut self) -> ClientResult<Timestamp> {
        match self.roundtrip(&Request::Promote)? {
            Response::Promoted { epoch } => Ok(epoch),
            other => self.unexpected("Promoted", &other),
        }
    }

    /// Consumes the client, closing the write half eagerly so the server
    /// sees the disconnect immediately even if the OS would keep the socket
    /// lingering.
    pub fn close(mut self) {
        let _ = self.writer.flush();
        if let Ok(stream) = self.writer.get_ref().try_clone() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn handle_of(txn: Option<RemoteTxn>) -> TxnHandle {
    txn.map(|t| t.handle).unwrap_or(TxnHandle::AUTO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::protocol::MAX_FRAME_LEN;
    use crate::server::{Server, ServerConfig};
    use livegraph_core::{LiveGraph, LiveGraphOptions};
    use std::sync::Arc;

    fn start_server() -> Server {
        let engine = Arc::new(Engine::Plain(
            LiveGraph::open(
                LiveGraphOptions::in_memory()
                    .with_capacity(1 << 22)
                    .with_max_vertices(1 << 13),
            )
            .unwrap(),
        ));
        Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    /// `Client::connect` must apply the bounded default timeout, and an
    /// unbounded connection must be an explicit opt-in — verified against
    /// a server that accepts connections but never replies, where an
    /// unbounded read would hang forever.
    #[test]
    fn connect_default_timeout_is_bounded_against_silent_server() {
        // A listener that never calls accept: the kernel completes the
        // handshake via the backlog, so connects succeed but no byte is
        // ever written back — the "accepts but never replies" server.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(
            client.io_timeout().unwrap(),
            Some(DEFAULT_IO_TIMEOUT),
            "default connect must carry the bounded timeout"
        );
        let unbounded = Client::connect_with_timeout(addr, None).unwrap();
        assert_eq!(
            unbounded.io_timeout().unwrap(),
            None,
            "a `None` timeout is the explicit opt-out"
        );

        // With a short timeout the hang becomes a surfaced, poisoning
        // error rather than an indefinite block.
        client.set_io_timeout(Some(Duration::from_millis(50))).unwrap();
        let err = client.ping().expect_err("silent server must time out");
        assert!(matches!(err, ClientError::Io(_)), "got {err}");
        assert!(client.is_poisoned());
    }

    /// A frame over `MAX_FRAME_LEN` is refused before any byte is written:
    /// the request fails, the connection stays healthy and in sync.
    #[test]
    fn oversized_request_is_refused_without_poisoning() {
        let server = start_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let v = client.create_vertex_auto(b"v").unwrap();
        let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = client.put_vertex(None, v, &huge).expect_err("frame too large");
        assert!(matches!(err, ClientError::Refused(_)), "got {err}");
        assert!(!err.poisons_connection());
        assert!(!client.is_poisoned());
        client.ping().expect("connection still usable");
        assert_eq!(client.get_vertex(None, v).unwrap().unwrap(), b"v");
        drop(client);
        server.shutdown();
    }
}
