//! The LiveGraph wire protocol: length-prefixed binary frames with
//! correlation ids.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! ┌────────────┬──────────────┬───────────┬──────────────────┐
//! │ len: u32   │ corr: u64    │ kind: u8  │ body (len-9 B)   │
//! │ (LE, body  │ correlation  │ opcode /  │ fixed-width LE   │
//! │  incl. corr│ id chosen by │ response  │ scalars + length │
//! │  + kind)   │ the client   │ tag       │ -prefixed bytes  │
//! └────────────┴──────────────┴───────────┴──────────────────┘
//! ```
//!
//! The client picks a fresh correlation id per request and the server echoes
//! it on every response frame belonging to that request, so clients may
//! *pipeline*: send many requests without waiting, then match responses by
//! id. All requests produce exactly one response frame except
//! [`Request::Neighbors`], which streams any number of
//! [`Response::NeighborChunk`] frames (all carrying the request's
//! correlation id) and marks the final one with `last = true`.
//!
//! Integers are little-endian. Byte strings and vertex-id lists are
//! length-prefixed with a `u32`. The encoding is deliberately free of
//! self-describing metadata — both ends compile from the same source tree —
//! but every decoder is total: any byte sequence either decodes or returns a
//! [`ProtocolError`], never panics (the round-trip and corruption property
//! tests below pin this).

use std::fmt;
use std::io::{self, Read, Write};

use livegraph_core::types::{Label, Timestamp, VertexId};

/// Protocol version: bump whenever the frame layout changes. There is no
/// version handshake on the wire (both ends are expected to compile from
/// the same source tree); the constant exists so independently deployed
/// builds have something to compare out-of-band, and so a future `Hello`
/// frame has a number to carry. A mismatched peer surfaces as decode
/// errors (`BadOpcode` / `BadValue` / `TrailingBytes`), not a clean
/// version error.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on one frame's payload, defending the decoder against
/// corrupt or malicious length prefixes.
pub const MAX_FRAME_LEN: u32 = 32 << 20;

/// A session-scoped transaction handle. Handle `0` ([`TxnHandle::AUTO`]) is
/// the *auto-commit* pseudo-transaction: the server wraps the single
/// operation in a fresh transaction (with bounded write-conflict retries for
/// writes) and commits it before responding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnHandle(pub u32);

impl TxnHandle {
    /// The auto-commit pseudo-handle.
    pub const AUTO: TxnHandle = TxnHandle(0);

    /// True for the auto-commit pseudo-handle.
    pub fn is_auto(self) -> bool {
        self.0 == 0
    }
}

/// A request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / RTT probe.
    Ping,
    /// Begin a read-only transaction, pinned at `at_epoch` if given
    /// (time-travel read), at the current global read epoch otherwise.
    BeginRead {
        /// Snapshot epoch to pin, `None` for the latest.
        at_epoch: Option<Timestamp>,
    },
    /// Begin a read-write transaction.
    BeginWrite,
    /// Commit the transaction (write: group-commit; read: just release).
    Commit {
        /// Transaction to commit.
        txn: TxnHandle,
    },
    /// Abort the transaction, rolling back all private updates.
    Abort {
        /// Transaction to abort.
        txn: TxnHandle,
    },
    /// Create a vertex, returning its id.
    CreateVertex {
        /// Target transaction ([`TxnHandle::AUTO`] for auto-commit).
        txn: TxnHandle,
        /// Property payload.
        properties: Vec<u8>,
    },
    /// Read a vertex's properties.
    GetVertex {
        /// Transaction to read under.
        txn: TxnHandle,
        /// Vertex id.
        vertex: VertexId,
    },
    /// Overwrite a vertex's properties.
    PutVertex {
        /// Target transaction.
        txn: TxnHandle,
        /// Vertex id.
        vertex: VertexId,
        /// New property payload.
        properties: Vec<u8>,
    },
    /// Delete a vertex (tombstone + invalidate its out-edges).
    DeleteVertex {
        /// Target transaction.
        txn: TxnHandle,
        /// Vertex id.
        vertex: VertexId,
    },
    /// Insert or update an edge.
    PutEdge {
        /// Target transaction.
        txn: TxnHandle,
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
        /// Property payload.
        properties: Vec<u8>,
    },
    /// Delete an edge.
    DeleteEdge {
        /// Target transaction.
        txn: TxnHandle,
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Point-lookup one edge's properties.
    GetEdge {
        /// Transaction to read under.
        txn: TxnHandle,
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Number of visible edges of `(vertex, label)`.
    Degree {
        /// Transaction to read under.
        txn: TxnHandle,
        /// Source vertex.
        vertex: VertexId,
        /// Edge label.
        label: Label,
    },
    /// Stream the adjacency list of `(vertex, label)`, newest first, in
    /// [`Response::NeighborChunk`] frames (sealed zero-check scan whenever
    /// the snapshot allows).
    Neighbors {
        /// Transaction to read under.
        txn: TxnHandle,
        /// Source vertex.
        vertex: VertexId,
        /// Edge label.
        label: Label,
        /// Maximum destinations to return; `0` = unbounded.
        limit: u64,
    },
    /// Admin: engine statistics snapshot.
    Stats,
    /// Admin: write a checkpoint of the latest committed snapshot and prune
    /// the WAL (durable configurations only).
    Checkpoint,
    /// Replication: a replica introduces itself and asks for the WAL stream
    /// above its last durable epoch. Must be the *first* request on the
    /// connection; the server takes the connection over for streaming
    /// ([`Response::BootstrapChunk`] frames if the resume point predates the
    /// retained WAL tail, then an unbounded sequence of
    /// [`Response::WalBatch`] frames, all echoing this request's correlation
    /// id).
    ReplicaHello {
        /// Highest epoch durable in the replica's local data directory
        /// (0 for an empty replica).
        last_epoch: Timestamp,
    },
    /// Replication: the replica reports that every epoch up to
    /// `durable_epoch` is applied and durable locally. One-way — the
    /// primary sends no response — so acks never contend with the
    /// primary-to-replica stream direction.
    ReplicaAck {
        /// Highest contiguously applied-and-durable epoch on the replica.
        durable_epoch: Timestamp,
    },
    /// Admin: promote this replica server to a serving primary (failover).
    /// Stops the replication client, lifts the read-only gate, and replies
    /// [`Response::Promoted`]. Idempotent; on a server that never was a
    /// replica it simply reports the current epoch.
    Promote,
    /// Admin: full telemetry snapshot — every counter, gauge and latency
    /// histogram in the engine's registry plus the service-layer spans.
    /// Like [`Request::Stats`], sharded engines answer with per-shard
    /// series flattened into one registry.
    MetricsDump,
}

/// A response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A transaction was opened.
    TxnBegun {
        /// Session-scoped handle for subsequent requests.
        txn: TxnHandle,
        /// The snapshot epoch the transaction reads.
        epoch: Timestamp,
    },
    /// The transaction committed.
    Committed {
        /// Commit epoch (read transactions report their snapshot epoch).
        epoch: Timestamp,
    },
    /// The transaction was rolled back.
    Aborted,
    /// Reply to [`Request::CreateVertex`].
    VertexCreated {
        /// The new vertex id.
        vertex: VertexId,
    },
    /// An optional byte payload (vertex / edge property reads).
    MaybeBytes {
        /// The payload, `None` when the vertex/edge is not visible.
        value: Option<Vec<u8>>,
    },
    /// A boolean outcome (edge inserted / deletion found a target).
    Flag {
        /// The outcome.
        value: bool,
    },
    /// Acknowledges a request with no payload (e.g. `PutVertex`,
    /// `Checkpoint`).
    Done,
    /// A count (degree).
    Count {
        /// The count.
        value: u64,
    },
    /// One chunk of a [`Request::Neighbors`] stream.
    NeighborChunk {
        /// Destination vertex ids, newest first.
        dsts: Vec<VertexId>,
        /// True on the final chunk of the stream.
        last: bool,
    },
    /// Reply to [`Request::Stats`].
    Stats(StatsReply),
    /// The request failed; the session-side transaction (if any) was
    /// aborted.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// One chunk of a checkpoint file shipped to a bootstrapping replica
    /// (reply to [`Request::ReplicaHello`] when its resume point predates
    /// the primary's retained WAL tail).
    BootstrapChunk {
        /// Snapshot epoch of the checkpoint being shipped; the replica
        /// resumes the WAL stream from here.
        checkpoint_epoch: Timestamp,
        /// True on the final chunk.
        last: bool,
        /// Raw checkpoint-file bytes.
        data: Vec<u8>,
    },
    /// A batch of committed WAL records: one or more *complete* epochs, in
    /// epoch order. `payloads` are `WalRecord::encode_payload` bytes — the
    /// exact bytes the primary logged, minus the file framing.
    WalBatch {
        /// The primary's global write epoch when the batch was cut (lets
        /// the replica compute its replication lag).
        primary_epoch: Timestamp,
        /// Encoded `WalRecord` payloads, in epoch order.
        payloads: Vec<Vec<u8>>,
    },
    /// Reply to [`Request::Promote`]: the server now accepts writes.
    Promoted {
        /// The epoch the promoted server starts serving writes from.
        epoch: Timestamp,
    },
    /// Reply to [`Request::MetricsDump`].
    Metrics(MetricsReply),
}

/// Engine statistics exposed over the wire (a flattened
/// [`livegraph_core::GraphStats`], summed across shards for the sharded
/// engine — including the adjacency-scan path counters, so remote
/// benchmarks can report sealed-vs-checked scan ratios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Number of shards (1 for the plain engine).
    pub shards: u32,
    /// Number of vertices ever created.
    pub vertex_count: u64,
    /// Number of committed edge insertions.
    pub edge_insert_count: u64,
    /// Bytes written to the WAL(s).
    pub wal_bytes: u64,
    /// Current global read epoch.
    pub read_epoch: Timestamp,
    /// Current global write epoch.
    pub write_epoch: Timestamp,
    /// Neighbourhood scans served by the zero-check sealed fast path.
    pub sealed_scans: u64,
    /// Neighbourhood scans that fell back to the per-entry checked path.
    pub checked_scans: u64,
    /// `get_edge` point lookups issued.
    pub edge_lookups: u64,
    /// Log entries examined by those lookups.
    pub edge_lookup_entries_scanned: u64,
    /// Lookups short-circuited by a definite Bloom-filter miss.
    pub edge_lookup_bloom_negatives: u64,
    /// Physical `fsync` calls issued by the WAL(s).
    pub wal_fsyncs: u64,
    /// Commit groups flushed by the WAL(s) (each covers ≥ 1 record).
    pub wal_groups: u64,
    /// WAL records flushed inside those groups; always `>= wal_groups`
    /// in any snapshot (see [`livegraph_core::GraphStats`]).
    pub wal_group_records: u64,
    /// True when recovery stopped at a torn (half-written) WAL record.
    pub wal_torn: bool,
    /// Highest epoch this server has applied from a replication stream
    /// (a replica's local read epoch), or `-1` when it is not currently
    /// a replica.
    pub replication_apply_epoch: Timestamp,
}

/// One latency histogram in a [`MetricsReply`]: fixed log-scale buckets as
/// laid out by [`livegraph_core::telemetry`] (`bucket_index` /
/// `bucket_lower_bound`), trimmed of trailing empty buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramDump {
    /// Registry name (`livegraph_*`, unit suffix included).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (nanoseconds for `_seconds` series).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts, index 0 first.
    pub buckets: Vec<u64>,
}

/// The wire form of [`livegraph_core::MetricsSnapshot`]: every counter,
/// gauge and histogram the server's registry holds, in registration order.
/// Weak snapshot — each series is read atomically but the set is not
/// mutually consistent (same contract as [`StatsReply`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReply {
    /// Monotone counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges as `(name, value)`.
    pub gauges: Vec<(String, i64)>,
    /// Latency / size histograms.
    pub histograms: Vec<HistogramDump>,
}

/// Machine-readable error classes carried by [`Response::Error`], mirroring
/// [`livegraph_core::Error`] plus the session-layer failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// First-updater-wins write-write conflict (retryable).
    WriteConflict = 1,
    /// The referenced vertex does not exist.
    VertexNotFound = 2,
    /// The transaction was already committed or aborted.
    TransactionClosed = 3,
    /// Block store failure (out of space, mmap failure, ...).
    Storage = 4,
    /// WAL / checkpoint I/O failure.
    Io = 5,
    /// Corrupted WAL or checkpoint encountered.
    Corruption = 6,
    /// The engine's worker-slot table is exhausted.
    TooManyWorkers = 7,
    /// A time-travel read requested an unavailable epoch.
    EpochUnavailable = 8,
    /// The request named a transaction handle this session does not hold.
    UnknownTxn = 9,
    /// The request is malformed at the session level (e.g. a write op on a
    /// read transaction).
    BadRequest = 10,
    /// The hosted engine does not support this operation (e.g. `Checkpoint`
    /// on the sharded engine, which is WAL-only).
    Unsupported = 11,
    /// This server is a read replica: writes, checkpoints and other
    /// primary-only operations are rejected until promotion.
    ReadOnlyReplica = 12,
    /// The commit is durable on the primary but the configured number of
    /// replicas did not acknowledge it in time; the client must treat the
    /// commit as *not* acknowledged.
    ReplicationTimeout = 13,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::WriteConflict,
            2 => ErrorCode::VertexNotFound,
            3 => ErrorCode::TransactionClosed,
            4 => ErrorCode::Storage,
            5 => ErrorCode::Io,
            6 => ErrorCode::Corruption,
            7 => ErrorCode::TooManyWorkers,
            8 => ErrorCode::EpochUnavailable,
            9 => ErrorCode::UnknownTxn,
            10 => ErrorCode::BadRequest,
            11 => ErrorCode::Unsupported,
            12 => ErrorCode::ReadOnlyReplica,
            13 => ErrorCode::ReplicationTimeout,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::WriteConflict => "write-conflict",
            ErrorCode::VertexNotFound => "vertex-not-found",
            ErrorCode::TransactionClosed => "transaction-closed",
            ErrorCode::Storage => "storage",
            ErrorCode::Io => "io",
            ErrorCode::Corruption => "corruption",
            ErrorCode::TooManyWorkers => "too-many-workers",
            ErrorCode::EpochUnavailable => "epoch-unavailable",
            ErrorCode::UnknownTxn => "unknown-txn",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ReadOnlyReplica => "read-only-replica",
            ErrorCode::ReplicationTimeout => "replication-timeout",
        };
        f.write_str(name)
    }
}

/// Decoding failures. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame ended before the field being decoded.
    Truncated,
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response tag.
    BadTag(u8),
    /// A field held an out-of-domain value (e.g. a bool that is neither 0
    /// nor 1, or an unknown error code).
    BadValue(&'static str),
    /// The frame body was longer than its fields.
    TrailingBytes,
    /// The length prefix exceeded [`MAX_FRAME_LEN`] (or was shorter than the
    /// mandatory correlation id + kind byte).
    BadFrameLen(u32),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated mid-field"),
            ProtocolError::BadOpcode(op) => write!(f, "unknown request opcode {op}"),
            ProtocolError::BadTag(tag) => write!(f, "unknown response tag {tag}"),
            ProtocolError::BadValue(what) => write!(f, "out-of-domain value for {what}"),
            ProtocolError::TrailingBytes => write!(f, "trailing bytes after frame body"),
            ProtocolError::BadFrameLen(len) => {
                write!(f, "frame length {len} outside 9..={MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// Scalar codec helpers
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// A bounds-checked reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn boolean(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::BadValue("bool")),
        }
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn txn(&mut self) -> Result<TxnHandle, ProtocolError> {
        Ok(TxnHandle(self.u32()?))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

mod op {
    pub const PING: u8 = 1;
    pub const BEGIN_READ: u8 = 2;
    pub const BEGIN_WRITE: u8 = 3;
    pub const COMMIT: u8 = 4;
    pub const ABORT: u8 = 5;
    pub const CREATE_VERTEX: u8 = 6;
    pub const GET_VERTEX: u8 = 7;
    pub const PUT_VERTEX: u8 = 8;
    pub const DELETE_VERTEX: u8 = 9;
    pub const PUT_EDGE: u8 = 10;
    pub const DELETE_EDGE: u8 = 11;
    pub const GET_EDGE: u8 = 12;
    pub const DEGREE: u8 = 13;
    pub const NEIGHBORS: u8 = 14;
    pub const STATS: u8 = 15;
    pub const CHECKPOINT: u8 = 16;
    pub const REPLICA_HELLO: u8 = 17;
    pub const REPLICA_ACK: u8 = 18;
    pub const PROMOTE: u8 = 19;
    pub const METRICS_DUMP: u8 = 20;
}

mod tag {
    pub const PONG: u8 = 1;
    pub const TXN_BEGUN: u8 = 2;
    pub const COMMITTED: u8 = 3;
    pub const ABORTED: u8 = 4;
    pub const VERTEX_CREATED: u8 = 5;
    pub const MAYBE_BYTES: u8 = 6;
    pub const FLAG: u8 = 7;
    pub const DONE: u8 = 8;
    pub const COUNT: u8 = 9;
    pub const NEIGHBOR_CHUNK: u8 = 10;
    pub const STATS: u8 = 11;
    pub const ERROR: u8 = 12;
    pub const BOOTSTRAP_CHUNK: u8 = 13;
    pub const WAL_BATCH: u8 = 14;
    pub const PROMOTED: u8 = 15;
    pub const METRICS: u8 = 16;
}

impl Request {
    /// Appends this request's `kind` byte and body to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => put_u8(buf, op::PING),
            Request::BeginRead { at_epoch } => {
                put_u8(buf, op::BEGIN_READ);
                match at_epoch {
                    Some(e) => {
                        put_bool(buf, true);
                        put_i64(buf, *e);
                    }
                    None => put_bool(buf, false),
                }
            }
            Request::BeginWrite => put_u8(buf, op::BEGIN_WRITE),
            Request::Commit { txn } => {
                put_u8(buf, op::COMMIT);
                put_u32(buf, txn.0);
            }
            Request::Abort { txn } => {
                put_u8(buf, op::ABORT);
                put_u32(buf, txn.0);
            }
            Request::CreateVertex { txn, properties } => {
                put_u8(buf, op::CREATE_VERTEX);
                put_u32(buf, txn.0);
                put_bytes(buf, properties);
            }
            Request::GetVertex { txn, vertex } => {
                put_u8(buf, op::GET_VERTEX);
                put_u32(buf, txn.0);
                put_u64(buf, *vertex);
            }
            Request::PutVertex {
                txn,
                vertex,
                properties,
            } => {
                put_u8(buf, op::PUT_VERTEX);
                put_u32(buf, txn.0);
                put_u64(buf, *vertex);
                put_bytes(buf, properties);
            }
            Request::DeleteVertex { txn, vertex } => {
                put_u8(buf, op::DELETE_VERTEX);
                put_u32(buf, txn.0);
                put_u64(buf, *vertex);
            }
            Request::PutEdge {
                txn,
                src,
                label,
                dst,
                properties,
            } => {
                put_u8(buf, op::PUT_EDGE);
                put_u32(buf, txn.0);
                put_u64(buf, *src);
                put_u16(buf, *label);
                put_u64(buf, *dst);
                put_bytes(buf, properties);
            }
            Request::DeleteEdge {
                txn,
                src,
                label,
                dst,
            } => {
                put_u8(buf, op::DELETE_EDGE);
                put_u32(buf, txn.0);
                put_u64(buf, *src);
                put_u16(buf, *label);
                put_u64(buf, *dst);
            }
            Request::GetEdge {
                txn,
                src,
                label,
                dst,
            } => {
                put_u8(buf, op::GET_EDGE);
                put_u32(buf, txn.0);
                put_u64(buf, *src);
                put_u16(buf, *label);
                put_u64(buf, *dst);
            }
            Request::Degree { txn, vertex, label } => {
                put_u8(buf, op::DEGREE);
                put_u32(buf, txn.0);
                put_u64(buf, *vertex);
                put_u16(buf, *label);
            }
            Request::Neighbors {
                txn,
                vertex,
                label,
                limit,
            } => {
                put_u8(buf, op::NEIGHBORS);
                put_u32(buf, txn.0);
                put_u64(buf, *vertex);
                put_u16(buf, *label);
                put_u64(buf, *limit);
            }
            Request::Stats => put_u8(buf, op::STATS),
            Request::Checkpoint => put_u8(buf, op::CHECKPOINT),
            Request::ReplicaHello { last_epoch } => {
                put_u8(buf, op::REPLICA_HELLO);
                put_i64(buf, *last_epoch);
            }
            Request::ReplicaAck { durable_epoch } => {
                put_u8(buf, op::REPLICA_ACK);
                put_i64(buf, *durable_epoch);
            }
            Request::Promote => put_u8(buf, op::PROMOTE),
            Request::MetricsDump => put_u8(buf, op::METRICS_DUMP),
        }
    }

    /// Decodes a request from a frame body (`kind` byte + fields).
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            op::PING => Request::Ping,
            op::BEGIN_READ => Request::BeginRead {
                at_epoch: if c.boolean()? { Some(c.i64()?) } else { None },
            },
            op::BEGIN_WRITE => Request::BeginWrite,
            op::COMMIT => Request::Commit { txn: c.txn()? },
            op::ABORT => Request::Abort { txn: c.txn()? },
            op::CREATE_VERTEX => Request::CreateVertex {
                txn: c.txn()?,
                properties: c.bytes()?,
            },
            op::GET_VERTEX => Request::GetVertex {
                txn: c.txn()?,
                vertex: c.u64()?,
            },
            op::PUT_VERTEX => Request::PutVertex {
                txn: c.txn()?,
                vertex: c.u64()?,
                properties: c.bytes()?,
            },
            op::DELETE_VERTEX => Request::DeleteVertex {
                txn: c.txn()?,
                vertex: c.u64()?,
            },
            op::PUT_EDGE => Request::PutEdge {
                txn: c.txn()?,
                src: c.u64()?,
                label: c.u16()?,
                dst: c.u64()?,
                properties: c.bytes()?,
            },
            op::DELETE_EDGE => Request::DeleteEdge {
                txn: c.txn()?,
                src: c.u64()?,
                label: c.u16()?,
                dst: c.u64()?,
            },
            op::GET_EDGE => Request::GetEdge {
                txn: c.txn()?,
                src: c.u64()?,
                label: c.u16()?,
                dst: c.u64()?,
            },
            op::DEGREE => Request::Degree {
                txn: c.txn()?,
                vertex: c.u64()?,
                label: c.u16()?,
            },
            op::NEIGHBORS => Request::Neighbors {
                txn: c.txn()?,
                vertex: c.u64()?,
                label: c.u16()?,
                limit: c.u64()?,
            },
            op::STATS => Request::Stats,
            op::CHECKPOINT => Request::Checkpoint,
            op::REPLICA_HELLO => Request::ReplicaHello {
                last_epoch: c.i64()?,
            },
            op::REPLICA_ACK => Request::ReplicaAck {
                durable_epoch: c.i64()?,
            },
            op::PROMOTE => Request::Promote,
            op::METRICS_DUMP => Request::MetricsDump,
            other => return Err(ProtocolError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

impl Response {
    /// Appends this response's `kind` byte and body to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong => put_u8(buf, tag::PONG),
            Response::TxnBegun { txn, epoch } => {
                put_u8(buf, tag::TXN_BEGUN);
                put_u32(buf, txn.0);
                put_i64(buf, *epoch);
            }
            Response::Committed { epoch } => {
                put_u8(buf, tag::COMMITTED);
                put_i64(buf, *epoch);
            }
            Response::Aborted => put_u8(buf, tag::ABORTED),
            Response::VertexCreated { vertex } => {
                put_u8(buf, tag::VERTEX_CREATED);
                put_u64(buf, *vertex);
            }
            Response::MaybeBytes { value } => {
                put_u8(buf, tag::MAYBE_BYTES);
                match value {
                    Some(bytes) => {
                        put_bool(buf, true);
                        put_bytes(buf, bytes);
                    }
                    None => put_bool(buf, false),
                }
            }
            Response::Flag { value } => {
                put_u8(buf, tag::FLAG);
                put_bool(buf, *value);
            }
            Response::Done => put_u8(buf, tag::DONE),
            Response::Count { value } => {
                put_u8(buf, tag::COUNT);
                put_u64(buf, *value);
            }
            Response::NeighborChunk { dsts, last } => {
                put_u8(buf, tag::NEIGHBOR_CHUNK);
                put_bool(buf, *last);
                put_u32(buf, dsts.len() as u32);
                for dst in dsts {
                    put_u64(buf, *dst);
                }
            }
            Response::Stats(s) => {
                put_u8(buf, tag::STATS);
                put_u32(buf, s.shards);
                put_u64(buf, s.vertex_count);
                put_u64(buf, s.edge_insert_count);
                put_u64(buf, s.wal_bytes);
                put_i64(buf, s.read_epoch);
                put_i64(buf, s.write_epoch);
                put_u64(buf, s.sealed_scans);
                put_u64(buf, s.checked_scans);
                put_u64(buf, s.edge_lookups);
                put_u64(buf, s.edge_lookup_entries_scanned);
                put_u64(buf, s.edge_lookup_bloom_negatives);
                put_u64(buf, s.wal_fsyncs);
                put_u64(buf, s.wal_groups);
                put_u64(buf, s.wal_group_records);
                put_bool(buf, s.wal_torn);
                put_i64(buf, s.replication_apply_epoch);
            }
            Response::Error { code, message } => {
                put_u8(buf, tag::ERROR);
                put_u8(buf, *code as u8);
                put_bytes(buf, message.as_bytes());
            }
            Response::BootstrapChunk {
                checkpoint_epoch,
                last,
                data,
            } => {
                put_u8(buf, tag::BOOTSTRAP_CHUNK);
                put_i64(buf, *checkpoint_epoch);
                put_bool(buf, *last);
                put_bytes(buf, data);
            }
            Response::WalBatch {
                primary_epoch,
                payloads,
            } => {
                put_u8(buf, tag::WAL_BATCH);
                put_i64(buf, *primary_epoch);
                put_u32(buf, payloads.len() as u32);
                for payload in payloads {
                    put_bytes(buf, payload);
                }
            }
            Response::Promoted { epoch } => {
                put_u8(buf, tag::PROMOTED);
                put_i64(buf, *epoch);
            }
            Response::Metrics(m) => {
                put_u8(buf, tag::METRICS);
                put_u32(buf, m.counters.len() as u32);
                for (name, value) in &m.counters {
                    put_bytes(buf, name.as_bytes());
                    put_u64(buf, *value);
                }
                put_u32(buf, m.gauges.len() as u32);
                for (name, value) in &m.gauges {
                    put_bytes(buf, name.as_bytes());
                    put_i64(buf, *value);
                }
                put_u32(buf, m.histograms.len() as u32);
                for h in &m.histograms {
                    put_bytes(buf, h.name.as_bytes());
                    put_u64(buf, h.count);
                    put_u64(buf, h.sum);
                    put_u64(buf, h.max);
                    put_u32(buf, h.buckets.len() as u32);
                    for b in &h.buckets {
                        put_u64(buf, *b);
                    }
                }
            }
        }
    }

    /// Decodes a response from a frame body (`kind` byte + fields).
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            tag::PONG => Response::Pong,
            tag::TXN_BEGUN => Response::TxnBegun {
                txn: c.txn()?,
                epoch: c.i64()?,
            },
            tag::COMMITTED => Response::Committed { epoch: c.i64()? },
            tag::ABORTED => Response::Aborted,
            tag::VERTEX_CREATED => Response::VertexCreated { vertex: c.u64()? },
            tag::MAYBE_BYTES => Response::MaybeBytes {
                value: if c.boolean()? { Some(c.bytes()?) } else { None },
            },
            tag::FLAG => Response::Flag {
                value: c.boolean()?,
            },
            tag::DONE => Response::Done,
            tag::COUNT => Response::Count { value: c.u64()? },
            tag::NEIGHBOR_CHUNK => {
                let last = c.boolean()?;
                let n = c.u32()? as usize;
                if n > (MAX_FRAME_LEN as usize) / 8 {
                    return Err(ProtocolError::BadValue("neighbor chunk length"));
                }
                let mut dsts = Vec::with_capacity(n);
                for _ in 0..n {
                    dsts.push(c.u64()?);
                }
                Response::NeighborChunk { dsts, last }
            }
            tag::STATS => Response::Stats(StatsReply {
                shards: c.u32()?,
                vertex_count: c.u64()?,
                edge_insert_count: c.u64()?,
                wal_bytes: c.u64()?,
                read_epoch: c.i64()?,
                write_epoch: c.i64()?,
                sealed_scans: c.u64()?,
                checked_scans: c.u64()?,
                edge_lookups: c.u64()?,
                edge_lookup_entries_scanned: c.u64()?,
                edge_lookup_bloom_negatives: c.u64()?,
                wal_fsyncs: c.u64()?,
                wal_groups: c.u64()?,
                wal_group_records: c.u64()?,
                wal_torn: c.boolean()?,
                replication_apply_epoch: c.i64()?,
            }),
            tag::ERROR => Response::Error {
                code: ErrorCode::from_u8(c.u8()?)
                    .ok_or(ProtocolError::BadValue("error code"))?,
                message: String::from_utf8(c.bytes()?)
                    .map_err(|_| ProtocolError::BadValue("error message utf-8"))?,
            },
            tag::BOOTSTRAP_CHUNK => Response::BootstrapChunk {
                checkpoint_epoch: c.i64()?,
                last: c.boolean()?,
                data: c.bytes()?,
            },
            tag::WAL_BATCH => {
                let primary_epoch = c.i64()?;
                let n = c.u32()? as usize;
                // Each payload costs at least its 4-byte length prefix.
                if n > (MAX_FRAME_LEN as usize) / 4 {
                    return Err(ProtocolError::BadValue("wal batch length"));
                }
                let mut payloads = Vec::with_capacity(n);
                for _ in 0..n {
                    payloads.push(c.bytes()?);
                }
                Response::WalBatch {
                    primary_epoch,
                    payloads,
                }
            }
            tag::PROMOTED => Response::Promoted { epoch: c.i64()? },
            tag::METRICS => {
                // Each series costs at least its name length prefix plus
                // one fixed-width value, so cap the declared counts before
                // reserving (defends `Vec::with_capacity` against a
                // corrupt prefix).
                let max_series = (MAX_FRAME_LEN as usize) / 12;
                let n = c.u32()? as usize;
                if n > max_series {
                    return Err(ProtocolError::BadValue("metrics counter count"));
                }
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = String::from_utf8(c.bytes()?)
                        .map_err(|_| ProtocolError::BadValue("metric name utf-8"))?;
                    counters.push((name, c.u64()?));
                }
                let n = c.u32()? as usize;
                if n > max_series {
                    return Err(ProtocolError::BadValue("metrics gauge count"));
                }
                let mut gauges = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = String::from_utf8(c.bytes()?)
                        .map_err(|_| ProtocolError::BadValue("metric name utf-8"))?;
                    gauges.push((name, c.i64()?));
                }
                let n = c.u32()? as usize;
                if n > (MAX_FRAME_LEN as usize) / 32 {
                    return Err(ProtocolError::BadValue("metrics histogram count"));
                }
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = String::from_utf8(c.bytes()?)
                        .map_err(|_| ProtocolError::BadValue("metric name utf-8"))?;
                    let count = c.u64()?;
                    let sum = c.u64()?;
                    let max = c.u64()?;
                    let b = c.u32()? as usize;
                    if b > (MAX_FRAME_LEN as usize) / 8 {
                        return Err(ProtocolError::BadValue("histogram bucket count"));
                    }
                    let mut buckets = Vec::with_capacity(b);
                    for _ in 0..b {
                        buckets.push(c.u64()?);
                    }
                    histograms.push(HistogramDump {
                        name,
                        count,
                        sum,
                        max,
                        buckets,
                    });
                }
                Response::Metrics(MetricsReply {
                    counters,
                    gauges,
                    histograms,
                })
            }
            other => return Err(ProtocolError::BadTag(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Mandatory bytes of every frame body: correlation id + kind byte.
const FRAME_MIN: u32 = 9;

/// Encodes one complete frame. The size check is the only failure, and it
/// fires before anything is written anywhere.
fn encode_frame(corr: u64, encode_kind: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&[0u8; 4]); // length placeholder
    put_u64(&mut buf, corr);
    encode_kind(&mut buf);
    // Refuse to emit a frame the peer is guaranteed to reject (or, past
    // u32::MAX, one whose length prefix would silently wrap and desync the
    // stream): fail the send with a typed error and leave the wire clean.
    let len = buf.len() - 4;
    if len > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"),
        ));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(buf)
}

fn write_frame(w: &mut impl Write, corr: u64, encode_kind: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    w.write_all(&encode_frame(corr, encode_kind)?)
}

/// Encodes one request frame without writing it. An `Err` means the frame
/// exceeds [`MAX_FRAME_LEN`]: the request was refused before reaching any
/// stream, so a client may report it without condemning its connection.
pub fn encode_request(corr: u64, req: &Request) -> io::Result<Vec<u8>> {
    encode_frame(corr, |buf| req.encode(buf))
}

/// Reads one frame, returning `(corr, body)` where `body` starts at the
/// kind byte. Returns `Ok(None)` on a clean EOF *before* the length prefix.
fn read_frame(r: &mut impl Read, scratch: &mut Vec<u8>) -> io::Result<Option<(u64, usize)>> {
    let mut len_buf = [0u8; 4];
    // Distinguish a clean close (0 bytes) from a mid-frame cut.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            // Retry EINTR like `read_exact` does; a stray signal must not
            // tear down a healthy connection.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if !(FRAME_MIN..=MAX_FRAME_LEN).contains(&len) {
        return Err(ProtocolError::BadFrameLen(len).into());
    }
    scratch.resize(len as usize, 0);
    r.read_exact(scratch)?;
    let corr = u64::from_le_bytes(scratch[..8].try_into().unwrap());
    Ok(Some((corr, 8)))
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, corr: u64, req: &Request) -> io::Result<()> {
    write_frame(w, corr, |buf| req.encode(buf))
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, corr: u64, resp: &Response) -> io::Result<()> {
    write_frame(w, corr, |buf| resp.encode(buf))
}

/// Reads one request frame; `Ok(None)` on clean EOF.
pub fn read_request(r: &mut impl Read, scratch: &mut Vec<u8>) -> io::Result<Option<(u64, Request)>> {
    match read_frame(r, scratch)? {
        None => Ok(None),
        Some((corr, body_at)) => {
            let req = Request::decode(&scratch[body_at..])?;
            Ok(Some((corr, req)))
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental frame decoding (nonblocking transports)
// ---------------------------------------------------------------------------

/// Incremental frame accumulator for nonblocking transports.
///
/// The blocking readers above ([`read_request`] / [`read_response`]) park the
/// calling thread until a whole frame arrives. A reactor cannot do that: a
/// nonblocking read returns whatever bytes the kernel has, which may end
/// mid-length-prefix, mid-body, or hold twenty complete pipelined frames.
/// `FrameAccum` buffers those bytes and peels off complete frames as they
/// become available:
///
/// ```
/// use livegraph_server::protocol::{self, FrameAccum, Request};
///
/// let mut wire = Vec::new();
/// protocol::write_request(&mut wire, 7, &Request::Ping).unwrap();
///
/// let mut accum = FrameAccum::new();
/// accum.push(&wire[..3]); // partial length prefix: nothing to decode yet
/// assert!(accum.next_request().unwrap().is_none());
/// accum.push(&wire[3..]);
/// assert_eq!(accum.next_request().unwrap(), Some((7, Request::Ping)));
/// ```
///
/// Errors are sticky in intent: a [`ProtocolError`] (bad length prefix, bad
/// opcode, trailing bytes) means the stream is desynchronized and the
/// connection must be dropped — there is no way to resynchronize a
/// length-prefixed stream after a corrupt prefix.
#[derive(Debug, Default)]
pub struct FrameAccum {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily to keep `push` amortized
    /// O(bytes) rather than memmoving on every decoded frame.
    pos: usize,
}

/// Compact the consumed prefix away once it exceeds this many bytes.
const ACCUM_COMPACT_AT: usize = 64 * 1024;

impl FrameAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when no undecoded bytes are buffered (i.e. the stream ended on
    /// a clean frame boundary).
    pub fn is_empty(&self) -> bool {
        self.pending_bytes() == 0
    }

    /// Locates the next complete frame without consuming it. Returns
    /// `(corr, body_start, frame_end)` as offsets into `self.buf`.
    fn peek_frame(&self) -> Result<Option<(u64, usize, usize)>, ProtocolError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if !(FRAME_MIN..=MAX_FRAME_LEN).contains(&len) {
            return Err(ProtocolError::BadFrameLen(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let corr = u64::from_le_bytes(avail[4..12].try_into().unwrap());
        Ok(Some((corr, self.pos + 12, self.pos + total)))
    }

    fn consume(&mut self, frame_end: usize) {
        self.pos = frame_end;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= ACCUM_COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Decodes the next complete request frame, or `Ok(None)` if more bytes
    /// are needed. A returned error poisons the stream (drop the
    /// connection); the offending bytes are left in place.
    pub fn next_request(&mut self) -> Result<Option<(u64, Request)>, ProtocolError> {
        match self.peek_frame()? {
            None => Ok(None),
            Some((corr, body_start, frame_end)) => {
                let req = Request::decode(&self.buf[body_start..frame_end])?;
                self.consume(frame_end);
                Ok(Some((corr, req)))
            }
        }
    }

    /// Decodes the next complete response frame, or `Ok(None)` if more
    /// bytes are needed. Same error semantics as [`Self::next_request`].
    pub fn next_response(&mut self) -> Result<Option<(u64, Response)>, ProtocolError> {
        match self.peek_frame()? {
            None => Ok(None),
            Some((corr, body_start, frame_end)) => {
                let resp = Response::decode(&self.buf[body_start..frame_end])?;
                self.consume(frame_end);
                Ok(Some((corr, resp)))
            }
        }
    }
}

/// Reads one response frame; `Ok(None)` on clean EOF.
pub fn read_response(r: &mut impl Read, scratch: &mut Vec<u8>) -> io::Result<Option<(u64, Response)>> {
    match read_frame(r, scratch)? {
        None => Ok(None),
        Some((corr, body_at)) => {
            let resp = Response::decode(&scratch[body_at..])?;
            Ok(Some((corr, resp)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(req: &Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, 77, req).unwrap();
        let mut scratch = Vec::new();
        let (corr, decoded) = read_request(&mut wire.as_slice(), &mut scratch)
            .unwrap()
            .expect("one frame present");
        assert_eq!(corr, 77);
        assert_eq!(&decoded, req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, u64::MAX, resp).unwrap();
        let mut scratch = Vec::new();
        let (corr, decoded) = read_response(&mut wire.as_slice(), &mut scratch)
            .unwrap()
            .expect("one frame present");
        assert_eq!(corr, u64::MAX);
        assert_eq!(&decoded, resp);
    }

    fn txn_strategy() -> impl Strategy<Value = TxnHandle> {
        (0u32..4).prop_map(TxnHandle)
    }

    fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, 0..48)
    }

    /// Every request variant, with randomised fields.
    fn request_strategy() -> impl Strategy<Value = Request> {
        let t = txn_strategy;
        let b = bytes_strategy;
        prop_oneof![
            Just(Request::Ping),
            (0i64..1 << 40).prop_map(|e| Request::BeginRead { at_epoch: Some(e) }),
            Just(Request::BeginRead { at_epoch: None }),
            Just(Request::BeginWrite),
            t().prop_map(|txn| Request::Commit { txn }),
            t().prop_map(|txn| Request::Abort { txn }),
            (t(), b()).prop_map(|(txn, properties)| Request::CreateVertex { txn, properties }),
            (t(), 0u64..1000).prop_map(|(txn, vertex)| Request::GetVertex { txn, vertex }),
            (t(), 0u64..1000, b())
                .prop_map(|(txn, vertex, properties)| Request::PutVertex { txn, vertex, properties }),
            (t(), 0u64..1000).prop_map(|(txn, vertex)| Request::DeleteVertex { txn, vertex }),
            (t(), 0u64..1000, 0u16..8, 0u64..1000, b()).prop_map(
                |(txn, src, label, dst, properties)| Request::PutEdge {
                    txn,
                    src,
                    label,
                    dst,
                    properties
                }
            ),
            (t(), 0u64..1000, 0u16..8, 0u64..1000)
                .prop_map(|(txn, src, label, dst)| Request::DeleteEdge { txn, src, label, dst }),
            (t(), 0u64..1000, 0u16..8, 0u64..1000)
                .prop_map(|(txn, src, label, dst)| Request::GetEdge { txn, src, label, dst }),
            (t(), 0u64..1000, 0u16..8).prop_map(|(txn, vertex, label)| Request::Degree {
                txn,
                vertex,
                label
            }),
            (t(), 0u64..1000, 0u16..8, 0u64..5000).prop_map(|(txn, vertex, label, limit)| {
                Request::Neighbors {
                    txn,
                    vertex,
                    label,
                    limit,
                }
            }),
            Just(Request::Stats),
            Just(Request::Checkpoint),
            (0i64..1 << 40).prop_map(|last_epoch| Request::ReplicaHello { last_epoch }),
            (0i64..1 << 40).prop_map(|durable_epoch| Request::ReplicaAck { durable_epoch }),
            Just(Request::Promote),
            Just(Request::MetricsDump),
        ]
    }

    fn error_code_strategy() -> impl Strategy<Value = ErrorCode> {
        prop_oneof![
            Just(ErrorCode::WriteConflict),
            Just(ErrorCode::VertexNotFound),
            Just(ErrorCode::TransactionClosed),
            Just(ErrorCode::Storage),
            Just(ErrorCode::Io),
            Just(ErrorCode::Corruption),
            Just(ErrorCode::TooManyWorkers),
            Just(ErrorCode::EpochUnavailable),
            Just(ErrorCode::UnknownTxn),
            Just(ErrorCode::BadRequest),
            Just(ErrorCode::Unsupported),
            Just(ErrorCode::ReadOnlyReplica),
            Just(ErrorCode::ReplicationTimeout),
        ]
    }

    /// Every response variant, with randomised fields.
    fn response_strategy() -> impl Strategy<Value = Response> {
        prop_oneof![
            Just(Response::Pong),
            (txn_strategy(), 0i64..1 << 40)
                .prop_map(|(txn, epoch)| Response::TxnBegun { txn, epoch }),
            (0i64..1 << 40).prop_map(|epoch| Response::Committed { epoch }),
            Just(Response::Aborted),
            (0u64..1000).prop_map(|vertex| Response::VertexCreated { vertex }),
            bytes_strategy().prop_map(|b| Response::MaybeBytes { value: Some(b) }),
            Just(Response::MaybeBytes { value: None }),
            any::<bool>().prop_map(|value| Response::Flag { value }),
            Just(Response::Done),
            (0u64..1 << 40).prop_map(|value| Response::Count { value }),
            (proptest::collection::vec(0u64..1000, 0..32), any::<bool>())
                .prop_map(|(dsts, last)| Response::NeighborChunk { dsts, last }),
            (0u64..1 << 30, 0u64..1 << 30, 0u64..1 << 30, 0i64..1 << 30).prop_map(
                |(a, b, c, d)| {
                    Response::Stats(StatsReply {
                        shards: (a % 9) as u32,
                        vertex_count: a,
                        edge_insert_count: b,
                        wal_bytes: c,
                        read_epoch: d,
                        write_epoch: d + 1,
                        sealed_scans: b / 2,
                        checked_scans: b / 3,
                        edge_lookups: c / 2,
                        edge_lookup_entries_scanned: c / 3,
                        edge_lookup_bloom_negatives: c / 4,
                        wal_fsyncs: a / 2,
                        wal_groups: a / 3,
                        wal_group_records: a / 2,
                        wal_torn: a % 2 == 0,
                        replication_apply_epoch: d - 1,
                    })
                }
            ),
            (
                error_code_strategy(),
                proptest::collection::vec(b'a'..=b'z', 0..24)
                    .prop_map(|v| String::from_utf8(v).expect("ascii"))
            )
                .prop_map(|(code, message)| Response::Error { code, message }),
            (0i64..1 << 40, any::<bool>(), bytes_strategy()).prop_map(
                |(checkpoint_epoch, last, data)| Response::BootstrapChunk {
                    checkpoint_epoch,
                    last,
                    data,
                }
            ),
            (
                0i64..1 << 40,
                proptest::collection::vec(bytes_strategy(), 0..6)
            )
                .prop_map(|(primary_epoch, payloads)| Response::WalBatch {
                    primary_epoch,
                    payloads,
                }),
            (0i64..1 << 40).prop_map(|epoch| Response::Promoted { epoch }),
            metrics_reply_strategy().prop_map(Response::Metrics),
        ]
    }

    fn metric_name_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(b'a'..=b'z', 1..20)
            .prop_map(|v| format!("livegraph_{}", String::from_utf8(v).expect("ascii")))
    }

    fn metrics_reply_strategy() -> impl Strategy<Value = MetricsReply> {
        let counters = proptest::collection::vec((metric_name_strategy(), 0u64..1 << 40), 0..4);
        let gauges = proptest::collection::vec(
            (metric_name_strategy(), -1i64..1 << 40),
            0..4,
        );
        let histograms = proptest::collection::vec(
            (
                metric_name_strategy(),
                0u64..1 << 40,
                0u64..1 << 40,
                0u64..1 << 40,
                proptest::collection::vec(0u64..1 << 30, 0..12),
            )
                .prop_map(|(name, count, sum, max, buckets)| HistogramDump {
                    name,
                    count,
                    sum,
                    max,
                    buckets,
                }),
            0..3,
        );
        (counters, gauges, histograms).prop_map(|(counters, gauges, histograms)| MetricsReply {
            counters,
            gauges,
            histograms,
        })
    }

    /// Exhaustive complement to `frame_accum_is_split_invariant`: the
    /// proptest samples fragmentations, this walks *every* one- and
    /// two-cut split of a fixed multi-frame wire image, so no boundary
    /// (mid-length-prefix, mid-correlation-id, mid-body, exactly on a
    /// frame edge) is left to sampling luck.
    #[test]
    fn frame_accum_decodes_across_every_split_point() {
        let reqs = vec![
            Request::BeginRead { at_epoch: None },
            Request::PutVertex {
                txn: TxnHandle(3),
                vertex: 42,
                properties: b"split-me".to_vec(),
            },
            Request::Commit { txn: TxnHandle(3) },
        ];
        let mut wire = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            write_request(&mut wire, i as u64, req).unwrap();
        }
        let expect: Vec<(u64, Request)> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();

        let drain = |accum: &mut FrameAccum, out: &mut Vec<(u64, Request)>| {
            while let Some(frame) = accum.next_request().unwrap() {
                out.push(frame);
            }
        };
        // Every single cut.
        for cut in 0..=wire.len() {
            let mut accum = FrameAccum::new();
            let mut got = Vec::new();
            accum.push(&wire[..cut]);
            drain(&mut accum, &mut got);
            accum.push(&wire[cut..]);
            drain(&mut accum, &mut got);
            assert!(accum.is_empty(), "cut {cut} left {} bytes", accum.pending_bytes());
            assert_eq!(got, expect, "single cut at {cut}");
        }
        // Every pair of cuts (three segments, including empty ones).
        for a in 0..=wire.len() {
            for b in a..=wire.len() {
                let mut accum = FrameAccum::new();
                let mut got = Vec::new();
                for seg in [&wire[..a], &wire[a..b], &wire[b..]] {
                    accum.push(seg);
                    drain(&mut accum, &mut got);
                }
                assert!(accum.is_empty(), "cuts ({a},{b}) left bytes");
                assert_eq!(got, expect, "cuts at ({a},{b})");
            }
        }
    }

    proptest! {
        #[test]
        fn every_request_roundtrips(req in request_strategy()) {
            roundtrip_request(&req);
        }

        #[test]
        fn every_response_roundtrips(resp in response_strategy()) {
            roundtrip_response(&resp);
        }

        #[test]
        fn decoder_is_total_on_garbage(body in proptest::collection::vec(0u8..=255, 0..64)) {
            // Any byte soup either decodes or errors; it must never panic.
            let _ = Request::decode(&body);
            let _ = Response::decode(&body);
        }

        #[test]
        fn truncated_request_frames_never_decode(req in request_strategy()) {
            let mut body = Vec::new();
            req.encode(&mut body);
            for cut in 0..body.len() {
                prop_assert!(Request::decode(&body[..cut]).is_err());
            }
        }

        /// The incremental decoder must produce exactly the frames the
        /// blocking reader would, no matter how the kernel fragments the
        /// byte stream across nonblocking reads.
        #[test]
        fn frame_accum_is_split_invariant(
            reqs in proptest::collection::vec(request_strategy(), 1..8),
            splits in proptest::collection::vec(1usize..32, 0..24),
        ) {
            let mut wire = Vec::new();
            for (i, req) in reqs.iter().enumerate() {
                write_request(&mut wire, i as u64, req).unwrap();
            }
            let mut accum = FrameAccum::new();
            let mut decoded = Vec::new();
            let mut fed = 0;
            // Feed the wire bytes in arbitrary-size segments, draining all
            // complete frames after each push (as a reactor would).
            for split in splits.iter().chain(std::iter::repeat(&usize::MAX)) {
                if fed == wire.len() {
                    break;
                }
                let take = (*split).min(wire.len() - fed);
                accum.push(&wire[fed..fed + take]);
                fed += take;
                while let Some((corr, req)) = accum.next_request().unwrap() {
                    decoded.push((corr, req));
                }
            }
            prop_assert!(accum.is_empty(), "stream ended on a frame boundary");
            let expect: Vec<(u64, Request)> =
                reqs.into_iter().enumerate().map(|(i, r)| (i as u64, r)).collect();
            prop_assert_eq!(decoded, expect);
        }

        /// Garbage corpus: arbitrary byte soup fed in arbitrary chunks must
        /// decode or error — never panic, never loop forever.
        #[test]
        fn frame_accum_is_total_on_garbage(
            soup in proptest::collection::vec(0u8..=255, 0..256),
            splits in proptest::collection::vec(1usize..48, 0..16),
        ) {
            let mut accum = FrameAccum::new();
            let mut fed = 0;
            'feed: for split in splits.iter().chain(std::iter::repeat(&usize::MAX)) {
                if fed == soup.len() {
                    break;
                }
                let take = (*split).min(soup.len() - fed);
                accum.push(&soup[fed..fed + take]);
                fed += take;
                loop {
                    match accum.next_request() {
                        Ok(Some(_)) => continue,
                        Ok(None) => break,
                        // Desynchronized: a real connection drops here.
                        Err(_) => break 'feed,
                    }
                }
            }
        }

        /// A truncated-but-valid prefix yields every complete frame and
        /// then reports "need more bytes" — truncation is pending state,
        /// not an error (the error only surfaces when the *transport*
        /// reports EOF with `pending_bytes() > 0`).
        #[test]
        fn frame_accum_truncation_is_pending_not_error(
            reqs in proptest::collection::vec(request_strategy(), 1..5),
            cut_back in 1usize..9,
        ) {
            let mut wire = Vec::new();
            for (i, req) in reqs.iter().enumerate() {
                write_request(&mut wire, i as u64, req).unwrap();
            }
            let cut = wire.len().saturating_sub(cut_back.min(wire.len() - 1)).max(1);
            let mut accum = FrameAccum::new();
            accum.push(&wire[..cut]);
            let mut n = 0;
            while let Some((corr, req)) = accum.next_request().unwrap() {
                prop_assert_eq!(corr, n as u64);
                prop_assert_eq!(&req, &reqs[n]);
                n += 1;
            }
            prop_assert!(n < reqs.len(), "the last frame was cut");
            prop_assert!(!accum.is_empty(), "partial frame bytes remain pending");
        }
    }

    /// A frame the peer would reject must fail the *send* with a typed
    /// error and leave nothing on the wire (a partial write would desync
    /// the stream for every later frame).
    #[test]
    fn oversized_frames_are_refused_before_writing() {
        let mut wire = Vec::new();
        let err = write_request(
            &mut wire,
            1,
            &Request::PutVertex {
                txn: TxnHandle::AUTO,
                vertex: 0,
                properties: vec![0u8; MAX_FRAME_LEN as usize + 1],
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Ping).unwrap();
        write_request(
            &mut wire,
            2,
            &Request::Degree {
                txn: TxnHandle::AUTO,
                vertex: 9,
                label: 3,
            },
        )
        .unwrap();
        write_request(&mut wire, 3, &Request::Stats).unwrap();
        let mut r = wire.as_slice();
        let mut scratch = Vec::new();
        let corrs: Vec<u64> = std::iter::from_fn(|| {
            read_request(&mut r, &mut scratch).unwrap().map(|(c, _)| c)
        })
        .collect();
        assert_eq!(corrs, vec![1, 2, 3]);
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut scratch = Vec::new();
        let err = read_request(&mut wire.as_slice(), &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn undersized_frame_length_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 3]);
        let mut scratch = Vec::new();
        assert!(read_request(&mut wire.as_slice(), &mut scratch).is_err());
    }

    #[test]
    fn clean_eof_reads_as_none() {
        let mut scratch = Vec::new();
        assert!(read_request(&mut [].as_slice(), &mut scratch)
            .unwrap()
            .is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut wire = Vec::new();
        write_request(&mut wire, 5, &Request::Stats).unwrap();
        wire.truncate(wire.len() - 1);
        let mut scratch = Vec::new();
        assert!(read_request(&mut wire.as_slice(), &mut scratch).is_err());
    }
}
