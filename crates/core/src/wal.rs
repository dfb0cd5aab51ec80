//! Write-ahead log with group commit.
//!
//! §5 (persist phase) and §6 (recovery) of the paper: the transaction
//! manager appends the log entries of committed transactions to a
//! sequential WAL and makes them durable before they become visible; on
//! failure, LiveGraph loads the latest checkpoint and replays committed WAL
//! records.
//!
//! Records are *logical*: they describe the operations of one transaction
//! (vertex/edge puts and deletes) tagged with the commit epoch, so recovery
//! can re-execute them through the normal write path. Each record is framed
//! as `magic | payload length | payload | FNV-1a checksum`; a torn tail
//! (crash in the middle of a batch write) is detected and discarded.
//!
//! **Staging buffer.** A committer never touches the file. While it holds
//! the commit clock (see `crate::commit`), it encodes its frame straight
//! from its `&[WalOp]` into the [`GroupWal`]'s staging buffer and gets a
//! durability *ticket*. A flush leader later swaps that buffer with a
//! reused spare, writes the bytes with one `write(2)` and issues one sync
//! for the whole batch. Staging happens in epoch order, so the file is in
//! epoch order and a torn tail is always an epoch prefix.
//!
//! **Recovery** streams a log frame by frame ([`for_each_record`]): each
//! payload is read into one reused buffer and its ops are decoded as
//! [`WalOpRef`]s borrowing from it, so replay allocates nothing per op.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::{Error, Result};
use crate::telemetry::Telemetry;
use crate::types::{Label, Timestamp, VertexId};

/// Magic bytes prefixed to every WAL record.
const RECORD_MAGIC: u32 = 0x4C_47_57_4C; // "LGWL"

/// Bytes of framing around a payload: magic + length before, checksum after.
const FRAME_OVERHEAD: u64 = 16;

/// A single logical operation inside a WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A vertex was created with the given properties.
    CreateVertex {
        /// Vertex id assigned by the transaction.
        vertex: VertexId,
        /// Property payload.
        properties: Vec<u8>,
    },
    /// A vertex's properties were overwritten.
    PutVertex {
        /// Target vertex.
        vertex: VertexId,
        /// New property payload.
        properties: Vec<u8>,
    },
    /// An edge was inserted or updated (upsert semantics).
    PutEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
        /// Property payload.
        properties: Vec<u8>,
    },
    /// An edge was deleted.
    DeleteEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
    },
    /// A vertex was deleted (tombstoned). Its out-edges are invalidated by
    /// the same transaction, so replaying this op is sufficient to restore
    /// the deletion.
    DeleteVertex {
        /// Target vertex.
        vertex: VertexId,
    },
}

/// A [`WalOp`] whose property payloads borrow from a decode buffer (or
/// from an owned op, via [`WalOp::borrowed`]). Replay paths consume these so
/// that re-executing a log costs no allocation per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOpRef<'a> {
    /// See [`WalOp::CreateVertex`].
    CreateVertex {
        /// Vertex id assigned by the transaction.
        vertex: VertexId,
        /// Property payload.
        properties: &'a [u8],
    },
    /// See [`WalOp::PutVertex`].
    PutVertex {
        /// Target vertex.
        vertex: VertexId,
        /// New property payload.
        properties: &'a [u8],
    },
    /// See [`WalOp::PutEdge`].
    PutEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
        /// Property payload.
        properties: &'a [u8],
    },
    /// See [`WalOp::DeleteEdge`].
    DeleteEdge {
        /// Source vertex.
        src: VertexId,
        /// Edge label.
        label: Label,
        /// Destination vertex.
        dst: VertexId,
    },
    /// See [`WalOp::DeleteVertex`].
    DeleteVertex {
        /// Target vertex.
        vertex: VertexId,
    },
}

/// All operations of one committed transaction, tagged with its epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Commit epoch (the transaction's `TWE`).
    pub epoch: Timestamp,
    /// Operations in execution order.
    pub ops: Vec<WalOp>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Corruption("truncated WAL payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl WalOp {
    /// Borrowed view of this op (replay paths take [`WalOpRef`]s).
    pub fn borrowed(&self) -> WalOpRef<'_> {
        match self {
            WalOp::CreateVertex { vertex, properties } => WalOpRef::CreateVertex {
                vertex: *vertex,
                properties,
            },
            WalOp::PutVertex { vertex, properties } => WalOpRef::PutVertex {
                vertex: *vertex,
                properties,
            },
            WalOp::PutEdge {
                src,
                label,
                dst,
                properties,
            } => WalOpRef::PutEdge {
                src: *src,
                label: *label,
                dst: *dst,
                properties,
            },
            WalOp::DeleteEdge { src, label, dst } => WalOpRef::DeleteEdge {
                src: *src,
                label: *label,
                dst: *dst,
            },
            WalOp::DeleteVertex { vertex } => WalOpRef::DeleteVertex { vertex: *vertex },
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalOp::CreateVertex { vertex, properties } => {
                buf.push(1);
                put_u64(buf, *vertex);
                put_bytes(buf, properties);
            }
            WalOp::PutVertex { vertex, properties } => {
                buf.push(2);
                put_u64(buf, *vertex);
                put_bytes(buf, properties);
            }
            WalOp::PutEdge {
                src,
                label,
                dst,
                properties,
            } => {
                buf.push(3);
                put_u64(buf, *src);
                put_u32(buf, *label as u32);
                put_u64(buf, *dst);
                put_bytes(buf, properties);
            }
            WalOp::DeleteEdge { src, label, dst } => {
                buf.push(4);
                put_u64(buf, *src);
                put_u32(buf, *label as u32);
                put_u64(buf, *dst);
            }
            WalOp::DeleteVertex { vertex } => {
                buf.push(5);
                put_u64(buf, *vertex);
            }
        }
    }
}

impl<'a> WalOpRef<'a> {
    /// Owned copy of this op.
    pub fn into_owned(self) -> WalOp {
        match self {
            WalOpRef::CreateVertex { vertex, properties } => WalOp::CreateVertex {
                vertex,
                properties: properties.to_vec(),
            },
            WalOpRef::PutVertex { vertex, properties } => WalOp::PutVertex {
                vertex,
                properties: properties.to_vec(),
            },
            WalOpRef::PutEdge {
                src,
                label,
                dst,
                properties,
            } => WalOp::PutEdge {
                src,
                label,
                dst,
                properties: properties.to_vec(),
            },
            WalOpRef::DeleteEdge { src, label, dst } => WalOp::DeleteEdge { src, label, dst },
            WalOpRef::DeleteVertex { vertex } => WalOp::DeleteVertex { vertex },
        }
    }

    fn decode(cur: &mut Cursor<'a>) -> Result<Self> {
        let tag = cur.take(1)?[0];
        Ok(match tag {
            1 => WalOpRef::CreateVertex {
                vertex: cur.u64()?,
                properties: cur.bytes()?,
            },
            2 => WalOpRef::PutVertex {
                vertex: cur.u64()?,
                properties: cur.bytes()?,
            },
            3 => WalOpRef::PutEdge {
                src: cur.u64()?,
                label: cur.u32()? as Label,
                dst: cur.u64()?,
                properties: cur.bytes()?,
            },
            4 => WalOpRef::DeleteEdge {
                src: cur.u64()?,
                label: cur.u32()? as Label,
                dst: cur.u64()?,
            },
            5 => WalOpRef::DeleteVertex { vertex: cur.u64()? },
            other => return Err(Error::Corruption(format!("unknown WAL op tag {other}"))),
        })
    }
}

/// Parses a record payload into `ops` (cleared first), returning the
/// record's epoch. The ops borrow their property bytes from `payload`.
fn decode_payload_into<'a>(payload: &'a [u8], ops: &mut Vec<WalOpRef<'a>>) -> Result<Timestamp> {
    ops.clear();
    let mut cur = Cursor::new(payload);
    let epoch = cur.u64()? as Timestamp;
    let n = cur.u32()? as usize;
    ops.reserve(n.min(payload.len()));
    for _ in 0..n {
        ops.push(WalOpRef::decode(&mut cur)?);
    }
    if !cur.done() {
        return Err(Error::Corruption("trailing bytes in WAL record".into()));
    }
    Ok(epoch)
}

/// Appends one complete frame (magic, length, payload, checksum) for a
/// record of `epoch` holding `ops`, encoding the payload in place.
fn encode_frame(buf: &mut Vec<u8>, epoch: Timestamp, ops: &[WalOp]) {
    let start = buf.len();
    put_u32(buf, RECORD_MAGIC);
    put_u32(buf, 0); // length, patched below
    let payload_start = buf.len();
    put_u64(buf, epoch as u64);
    put_u32(buf, ops.len() as u32);
    for op in ops {
        op.encode(buf);
    }
    let len = (buf.len() - payload_start) as u32;
    buf[start + 4..payload_start].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&buf[payload_start..]);
    put_u64(buf, sum);
}

impl WalRecord {
    /// Serialises the record payload (without framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        put_u64(&mut buf, self.epoch as u64);
        put_u32(&mut buf, self.ops.len() as u32);
        for op in &self.ops {
            op.encode(&mut buf);
        }
        buf
    }

    /// Parses a record payload.
    pub fn decode_payload(payload: &[u8]) -> Result<Self> {
        let mut ops = Vec::new();
        let epoch = decode_payload_into(payload, &mut ops)?;
        Ok(Self {
            epoch,
            ops: ops.into_iter().map(WalOpRef::into_owned).collect(),
        })
    }
}

/// FNV-1a, used as the WAL record checksum (corruption detection, not
/// cryptographic integrity).
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Makes the directory entries of `dir` durable (renames, creations).
///
/// A `rename` is atomic but not durable until its directory is synced: a
/// power loss can otherwise undo it. Checkpointing relies on this order —
/// the new `checkpoint.dat` must be durable before the WAL records it
/// covers are pruned.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Directory holding `path` (the current directory for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Controls whether the WAL issues an `fsync` per commit group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` after every flush batch (the paper's durable configuration).
    Fsync,
    /// Rely on the OS to flush eventually (used by benchmarks that isolate
    /// the effect of storage latency).
    NoSync,
    /// Benchmarking mode: skip the real `fsync` and model a log device with
    /// the given per-batch commit latency instead (the flush leader sleeps,
    /// so concurrent batches on *different* WALs overlap their waits exactly
    /// like concurrent device flushes would). The storage crate's
    /// `ColdAccessSimulator` plays the same role for cold reads; this is
    /// its write-side counterpart, used by `shard_scaling` to measure the
    /// engine's commit concurrency independently of the benchmark host's
    /// filesystem-journal behaviour. The sleep is paid once per *batch*, in
    /// [`WalWriter::sync`], matching real fsync semantics.
    Simulated(std::time::Duration),
    /// Fault-injection mode for the crash-consistency harness: the log
    /// device "dies" once `at` total bytes have been appended. Bytes below
    /// the limit persist (and are fsynced, so the surviving prefix really is
    /// durable on the host filesystem); bytes at or past it — including the
    /// tail of a frame straddling the boundary — are silently dropped, and
    /// every later write and sync still reports success. That models the
    /// worst crash for group commit: committers of a torn batch get a
    /// success ack whose records never reached the device. The tear is
    /// observable only through [`WalWriter::torn`] / `GraphStats::wal_torn`.
    CrashAt(u64),
}

/// Tuning knobs for the group-commit coordinator attached to each WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Largest number of transaction records flushed by one write + fsync.
    /// The flush leader takes at most this many staged records per batch.
    pub max_batch: usize,
    /// How long a flush leader lingers for more committers to join before
    /// flushing a batch smaller than `max_batch`. `Duration::ZERO` (the
    /// default) flushes whatever is staged immediately: batching then comes
    /// only from commits that pile up while a previous flush is in flight,
    /// which adds no latency. A non-zero wait trades commit latency for
    /// larger batches on slow log devices.
    pub max_wait: std::time::Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self {
            max_batch: 128,
            max_wait: std::time::Duration::ZERO,
        }
    }
}

impl GroupCommitConfig {
    /// Builder: sets the per-flush record cap (clamped to at least 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Builder: sets how long a flush leader lingers for joiners.
    pub fn with_max_wait(mut self, max_wait: std::time::Duration) -> Self {
        self.max_wait = max_wait;
        self
    }
}

/// Point-in-time counters for one WAL, surfaced through `GraphStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Total bytes appended (see [`WalWriter::bytes_written`]).
    pub bytes: u64,
    /// Device syncs issued (`fsync`s, or simulated-latency sleeps).
    pub fsyncs: u64,
    /// Flushed commit batches (each covered by one write + one sync).
    pub groups: u64,
    /// Transaction records across all flushed batches; `group_records >
    /// groups` means multi-record batches formed.
    pub group_records: u64,
    /// True once a `CrashAt` tear has dropped bytes (fault injection only).
    pub torn: bool,
}

/// Appender for the write-ahead log. Writes go straight to the `File`: a
/// batch is already one contiguous buffer, so it costs one `write(2)`.
pub struct WalWriter {
    file: File,
    path: std::path::PathBuf,
    sync: SyncMode,
    bytes_written: u64,
    fsyncs: u64,
    torn: bool,
    generation: u64,
}

impl WalWriter {
    /// Opens (creating or appending to) the WAL at `path`.
    pub fn open(path: &Path, sync: SyncMode) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes_written = file.metadata()?.len();
        Ok(Self {
            file,
            path: path.to_path_buf(),
            sync,
            bytes_written,
            fsyncs: 0,
            torn: false,
            generation: 0,
        })
    }

    /// Checkpoint pruning: atomically replaces the log with only its
    /// records of epoch above `floor`. The kept frames are streamed into a
    /// temporary file, which is fsynced, renamed over the log, and made
    /// durable by syncing the directory; this writer is then re-pointed at
    /// it so later appends land in the replacement file.
    pub fn prune_through(&mut self, floor: Timestamp) -> Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let _ = std::fs::remove_file(&tmp);
            let mut out = WalWriter::open(&tmp, SyncMode::Fsync)?;
            if self.path.exists() {
                let mut reader = FrameReader::open(&self.path, 0)?;
                let mut buf = Vec::new();
                while let Some(payload) = reader.next_payload()? {
                    if payload_epoch(payload)? > floor {
                        put_u32(&mut buf, RECORD_MAGIC);
                        put_bytes(&mut buf, payload);
                        put_u64(&mut buf, checksum(payload));
                    }
                    if buf.len() >= 1 << 20 {
                        out.write_frames(&buf)?;
                        buf.clear();
                    }
                }
                out.write_frames(&buf)?;
            }
            out.sync()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        sync_dir(parent_dir(&self.path))?;
        let file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        self.bytes_written = file.metadata()?.len();
        self.file = file;
        // Byte offsets held by WAL tails refer to the replaced file; the
        // generation bump tells them to re-scan from the start.
        self.generation += 1;
        Ok(())
    }

    /// Path of the log file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrite counter: bumped whenever [`WalWriter::prune_through`]
    /// replaces the file, invalidating any byte offset captured against the
    /// old one.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends already-encoded frames with one `write`, without making them
    /// durable. Callers pair this with [`WalWriter::sync`]; the split lets a
    /// flush leader pay the sync cost (fsync latency, or the `Simulated`
    /// sleep) exactly once per batch rather than once per append.
    fn write_frames(&mut self, mut bytes: &[u8]) -> Result<()> {
        if let SyncMode::CrashAt(limit) = self.sync {
            // The device died at byte `limit`: persist the prefix below it,
            // drop the rest on the floor, and keep reporting success.
            let room = limit.saturating_sub(self.bytes_written) as usize;
            if room < bytes.len() {
                self.torn = true;
                bytes = &bytes[..room];
            }
        }
        self.file.write_all(bytes)?;
        self.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Appends a batch of records as one write, without making them
    /// durable; pair it with [`WalWriter::sync`].
    pub fn append_frames(&mut self, records: &[WalRecord]) -> Result<()> {
        let mut buf = Vec::with_capacity(records.len() * 64);
        for record in records {
            encode_frame(&mut buf, record.epoch, &record.ops);
        }
        self.write_frames(&buf)
    }

    /// Makes previously appended frames durable according to the sync mode:
    /// a real `fsync`, nothing, one simulated-latency sleep per batch, or
    /// (under `CrashAt`, once torn) a lying no-op success.
    pub fn sync(&mut self) -> Result<()> {
        match self.sync {
            SyncMode::Fsync => {
                self.file.sync_data()?;
                self.fsyncs += 1;
            }
            SyncMode::NoSync => {}
            SyncMode::Simulated(latency) => {
                std::thread::sleep(latency);
                self.fsyncs += 1;
            }
            SyncMode::CrashAt(_) => {
                // Keep the surviving prefix honest on the host filesystem;
                // the ack itself is the lie being injected.
                self.file.sync_data()?;
                if !self.torn {
                    self.fsyncs += 1;
                }
            }
        }
        Ok(())
    }

    /// Appends a batch of records and makes them durable according to the
    /// sync mode: one write + one sync covers every record.
    pub fn append_group(&mut self, records: &[WalRecord]) -> Result<()> {
        self.append_frames(records)?;
        self.sync()
    }

    /// Total bytes written to the WAL so far (for write-amplification
    /// accounting in the evaluation harness).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Device syncs issued so far (fsyncs or simulated flushes).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// True once a [`SyncMode::CrashAt`] fault has dropped bytes.
    pub fn torn(&self) -> bool {
        self.torn
    }
}

/// Group-commit coordinator wrapped around one [`WalWriter`] (§5 of the
/// paper): committers [`stage`](GroupWal::stage) their frames and block
/// until a flush covers them. The first committer to find no flush in
/// progress becomes the *flush leader*: it optionally lingers
/// [`GroupCommitConfig::max_wait`] for more joiners, takes up to
/// [`GroupCommitConfig::max_batch`] staged records, writes them with one
/// `write(2)`, issues a single sync for the whole batch, then wakes the
/// committers parked behind it. Leadership is transient — it lasts for one
/// flush — so while a leader sits in `fsync`, newly arriving committers
/// stage their frames and the next leader flushes them all at once.
///
/// Nothing here wakes a thread that is not parked: the condvar is signalled
/// only when its waiter count is non-zero (each notify is a futex syscall
/// even when nobody waits).
pub struct GroupWal {
    writer: Mutex<WalWriter>,
    queue: Mutex<GroupQueue>,
    queue_cv: Condvar,
    config: GroupCommitConfig,
    groups: AtomicU64,
    group_records: AtomicU64,
    /// Flush batch sizes go to `livegraph_wal_batch_records_total` once
    /// the engine installs its registry.
    telemetry: Option<Arc<Telemetry>>,
}

struct GroupQueue {
    /// Encoded frames staged but not yet taken by a flush leader, in stage
    /// order (== epoch order: staging happens under the commit clock).
    staged: Vec<u8>,
    /// End offset in `staged` of each staged frame, so a leader can take a
    /// `max_batch` prefix and leave the rest for the next leader.
    ends: VecDeque<usize>,
    /// The buffer the previous leader wrote, handed back cleared; the next
    /// leader swaps it in, so the steady state does not allocate.
    spare: Vec<u8>,
    /// Total records ever staged; a committer's ticket is this count right
    /// after its own frame was staged.
    enqueued: u64,
    /// Total records covered by completed flushes. `durable >= ticket`
    /// means that committer's record hit the device.
    durable: u64,
    /// True while some committer is taking/writing/syncing a batch.
    flush_in_progress: bool,
    /// True while the flush leader lingers for joiners: the only time a
    /// stage has anyone to wake.
    lingering: bool,
    /// Threads parked on `queue_cv` (followers, WAL tails, a lingering
    /// leader); flushes notify only when this is non-zero.
    waiters: usize,
    /// Sticky first I/O failure: a WAL that can no longer persist must
    /// fail every later commit rather than ack writes it silently lost.
    poisoned: Option<String>,
}

impl GroupWal {
    /// Wraps an open writer in a group-commit coordinator.
    pub fn new(writer: WalWriter, config: GroupCommitConfig) -> Self {
        Self {
            writer: Mutex::new(writer),
            queue: Mutex::new(GroupQueue {
                staged: Vec::new(),
                ends: VecDeque::new(),
                spare: Vec::new(),
                enqueued: 0,
                durable: 0,
                flush_in_progress: false,
                lingering: false,
                waiters: 0,
                poisoned: None,
            }),
            queue_cv: Condvar::new(),
            config,
            groups: AtomicU64::new(0),
            group_records: AtomicU64::new(0),
            telemetry: None,
        }
    }

    /// Installs the engine's telemetry registry (flush batch sizes).
    pub(crate) fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Encodes the record `(epoch, ops)` straight into the staging buffer
    /// and returns the ticket to pass to [`GroupWal::wait_durable`]. Never
    /// blocks on I/O. Callers stage under the commit clock so that staging
    /// order — and hence file order — is epoch order. Lock order: the clock,
    /// then this queue; flush leaders take the queue and the writer, never
    /// the clock.
    pub fn stage(&self, epoch: Timestamp, ops: &[WalOp]) -> u64 {
        let mut q = self.queue.lock();
        encode_frame(&mut q.staged, epoch, ops);
        let end = q.staged.len();
        q.ends.push_back(end);
        q.enqueued += 1;
        if q.lingering {
            // The only parked thread a stage can help: a leader waiting
            // for its batch to fill.
            self.queue_cv.notify_all();
        }
        q.enqueued
    }

    /// Parks on the queue condvar (for at most `timeout`, if given),
    /// counted in `waiters` so that flushes know someone needs a wake-up.
    /// Returns true if the wait timed out.
    fn park(
        &self,
        q: &mut MutexGuard<'_, GroupQueue>,
        timeout: Option<std::time::Duration>,
    ) -> bool {
        q.waiters += 1;
        let timed_out = match timeout {
            Some(t) => self.queue_cv.wait_for(q, t).timed_out(),
            None => {
                self.queue_cv.wait(q);
                false
            }
        };
        q.waiters -= 1;
        timed_out
    }

    /// Blocks until every record at or below `ticket` is durable, flushing
    /// batches as the leader whenever no other flush is in progress.
    pub fn wait_durable(&self, ticket: u64) -> Result<()> {
        let mut q = self.queue.lock();
        loop {
            if q.durable >= ticket {
                return Ok(());
            }
            if let Some(msg) = &q.poisoned {
                return Err(Error::WalUnavailable(msg.clone()));
            }
            if q.flush_in_progress {
                // Follower: a leader's sync will cover us (or the next
                // leader will). Condvar handoff, no spinning.
                self.park(&mut q, None);
                continue;
            }
            // Leader for one batch. Optionally linger for joiners.
            q.flush_in_progress = true;
            if !self.config.max_wait.is_zero() {
                let deadline = Instant::now() + self.config.max_wait;
                q.lingering = true;
                while q.ends.len() < self.config.max_batch {
                    let now = Instant::now();
                    if now >= deadline || self.park(&mut q, Some(deadline - now)) {
                        break;
                    }
                }
                q.lingering = false;
            }
            // Take a prefix of at most `max_batch` staged frames. Taking
            // everything is a buffer swap; a split copies the prefix out
            // and leaves the rest staged for the next leader.
            let take = q.ends.len().min(self.config.max_batch.max(1));
            debug_assert!(take > 0, "an undurable ticket implies a staged frame");
            let mut batch = std::mem::take(&mut q.spare);
            if take == q.ends.len() {
                std::mem::swap(&mut batch, &mut q.staged);
                q.ends.clear();
            } else {
                let cut = q.ends[take - 1];
                batch.extend_from_slice(&q.staged[..cut]);
                q.staged.drain(..cut);
                q.ends.drain(..take);
                for end in q.ends.iter_mut() {
                    *end -= cut;
                }
            }
            drop(q);
            if let Some(tel) = self.telemetry.as_ref().filter(|t| t.enabled()) {
                tel.wal_batch_records_total.observe(take as u64);
            }
            let flushed = {
                let mut w = self.writer.lock();
                w.write_frames(&batch).and_then(|()| w.sync())
            };
            q = self.queue.lock();
            q.flush_in_progress = false;
            match flushed {
                Ok(()) => {
                    q.durable += take as u64;
                    batch.clear();
                    q.spare = batch;
                    // Statistics counters; durability itself is published
                    // via `q.durable` under the lock. Publication order
                    // matters for the *weak snapshot* invariant
                    // `group_records >= groups` (see `GraphStats`): bump
                    // the records first, then publish the group count.
                    // ORDERING: Relaxed — covered by the Release below;
                    // no reader may see `groups` without these records.
                    self.group_records.fetch_add(take as u64, Ordering::Relaxed);
                    // ORDERING: Release pairs with the Acquire load in
                    // `stats()`, so a snapshot that observes this group
                    // also observes its records — every batch has ≥ 1
                    // record, making `group_records >= groups` hold in
                    // every snapshot.
                    self.groups.fetch_add(1, Ordering::Release);
                }
                Err(e) => {
                    // The taken records are gone and their committers
                    // must not be acked; fail them (and all later ones).
                    q.poisoned = Some(e.to_string());
                }
            }
            if q.waiters > 0 {
                self.queue_cv.notify_all();
            }
        }
    }

    /// Blocks until the count of durably flushed records differs from
    /// `last` (or the WAL is poisoned), or `timeout` elapses; returns the
    /// current count either way. WAL tails use this to sleep between polls
    /// instead of spinning: every flush signals the queue condvar while
    /// anyone is parked on it, so a tail wakes as soon as new records can
    /// possibly be on the device.
    pub fn wait_durable_change(&self, last: u64, timeout: std::time::Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut q = self.queue.lock();
        while q.durable == last && q.poisoned.is_none() {
            let now = Instant::now();
            if now >= deadline || self.park(&mut q, Some(deadline - now)) {
                break;
            }
        }
        q.durable
    }

    /// Snapshot of the WAL counters (bytes, syncs, batches, tear flag).
    ///
    /// A *weak* snapshot: counters are read while flush leaders proceed,
    /// so fields may be mutually stale — but `group_records >= groups`
    /// holds in every snapshot (see the ordering argument below).
    pub fn stats(&self) -> WalStats {
        let w = self.writer.lock();
        // ORDERING: Acquire pairs with the Release bump in the flush
        // success path: observing a group implies observing its records,
        // so `group_records >= groups` below can never be violated by a
        // concurrent flush. `groups` must be loaded *first*.
        let groups = self.groups.load(Ordering::Acquire);
        WalStats {
            bytes: w.bytes_written(),
            fsyncs: w.fsyncs(),
            groups,
            // ORDERING: Relaxed — covered by the Acquire above.
            group_records: self.group_records.load(Ordering::Relaxed),
            torn: w.torn(),
        }
    }

    /// Runs `f` with the underlying writer locked (checkpoint pruning uses
    /// this to rewrite the log). Staged-but-unflushed records are *not*
    /// visible to `f`; they land after it returns, written by their flush
    /// leader — correct for pruning, which only drops already-durable
    /// records at or below a snapshot epoch.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut WalWriter) -> R) -> R {
        f(&mut self.writer.lock())
    }
}

/// Streams checksummed frames from a log file, one payload at a time, into
/// a single reused buffer.
///
/// A frame ends the stream — without an error — when its header is
/// incomplete, its magic is wrong, it extends past the end of the file, or
/// its checksum does not match: that is the expected state of a log torn
/// by a crash mid-write.
struct FrameReader {
    file: BufReader<File>,
    buf: Vec<u8>,
    /// Offset just past the last complete frame returned.
    offset: u64,
    /// File length when opened; frames appended later are left for the
    /// next reader.
    end: u64,
}

impl FrameReader {
    /// Opens `path` positioned at `offset`, which must be a frame boundary.
    fn open(path: &Path, offset: u64) -> Result<Self> {
        let mut file = File::open(path)?;
        let end = file.metadata()?.len();
        file.seek(SeekFrom::Start(offset))?;
        Ok(Self {
            file: BufReader::with_capacity(1 << 16, file),
            buf: Vec::new(),
            offset,
            end: end.max(offset),
        })
    }

    /// The next intact payload, or `None` at the end of the valid prefix.
    fn next_payload(&mut self) -> Result<Option<&[u8]>> {
        if self.end - self.offset < FRAME_OVERHEAD {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        self.file.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..].try_into().unwrap()) as usize;
        if magic != RECORD_MAGIC || self.end - self.offset < FRAME_OVERHEAD + len as u64 {
            // Bad magic, or a torn (or still being appended) tail.
            self.end = self.offset;
            return Ok(None);
        }
        self.buf.resize(len + 8, 0);
        self.file.read_exact(&mut self.buf)?;
        let (payload, stored) = self.buf.split_at(len);
        if checksum(payload) != u64::from_le_bytes(stored.try_into().unwrap()) {
            // Torn or corrupt tail.
            self.end = self.offset;
            return Ok(None);
        }
        self.offset += FRAME_OVERHEAD + len as u64;
        Ok(Some(&self.buf[..len]))
    }
}

/// The epoch of a record payload, without decoding its ops.
fn payload_epoch(payload: &[u8]) -> Result<Timestamp> {
    Ok(Cursor::new(payload).u64()? as Timestamp)
}

/// Reads all complete, checksummed records from a WAL file.
///
/// A truncated or corrupt tail terminates the scan without an error (that is
/// the expected crash state); a checksummed record that does not decode is
/// reported as [`Error::Corruption`].
pub fn read_wal(path: &Path) -> Result<Vec<WalRecord>> {
    read_wal_from(path, 0).map(|(records, _)| records)
}

/// Reads complete records starting at byte `offset`, returning them together
/// with the offset just past the last complete frame (the resume point for
/// the next incremental read). This is the WAL-tailing primitive: `offset`
/// must be a frame boundary previously returned by this function (or 0).
pub fn read_wal_from(path: &Path, offset: u64) -> Result<(Vec<WalRecord>, u64)> {
    let mut reader = FrameReader::open(path, offset)?;
    let mut records = Vec::new();
    while let Some(payload) = reader.next_payload()? {
        records.push(WalRecord::decode_payload(payload)?);
    }
    Ok((records, reader.offset))
}

/// Streams the records of a WAL (or checkpoint) file through `f`, in file
/// order, with the same tail rules as [`read_wal_from`]. Each call gets the
/// record's epoch and its ops, decoded into one reused `Vec` and borrowing
/// their payloads from one reused read buffer — nothing is allocated per
/// record or per op once the buffers have grown.
pub fn for_each_record(
    path: &Path,
    mut f: impl FnMut(Timestamp, &[WalOpRef<'_>]) -> Result<()>,
) -> Result<()> {
    let mut reader = FrameReader::open(path, 0)?;
    let mut spare: Vec<WalOpRef<'static>> = Vec::new();
    while let Some(payload) = reader.next_payload()? {
        let mut ops = recycle(std::mem::take(&mut spare));
        let epoch = decode_payload_into(payload, &mut ops)?;
        f(epoch, &ops)?;
        spare = recycle(ops);
    }
    Ok(())
}

/// Empties `ops` and hands its allocation back with a fresh borrow
/// lifetime (an in-place `collect` of an empty iterator keeps the buffer).
fn recycle<'b>(mut ops: Vec<WalOpRef<'_>>) -> Vec<WalOpRef<'b>> {
    ops.clear();
    ops.into_iter()
        .map(|_| -> WalOpRef<'b> { unreachable!("the vector is empty") })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(epoch: Timestamp) -> WalRecord {
        WalRecord {
            epoch,
            ops: vec![
                WalOp::CreateVertex {
                    vertex: 1,
                    properties: b"alice".to_vec(),
                },
                WalOp::PutEdge {
                    src: 1,
                    label: 3,
                    dst: 2,
                    properties: b"since 2020".to_vec(),
                },
                WalOp::DeleteEdge {
                    src: 1,
                    label: 3,
                    dst: 9,
                },
                WalOp::PutVertex {
                    vertex: 2,
                    properties: vec![],
                },
                WalOp::DeleteVertex { vertex: 9 },
            ],
        }
    }

    #[test]
    fn payload_roundtrip() {
        let rec = sample_record(12);
        let payload = rec.encode_payload();
        let decoded = WalRecord::decode_payload(&payload).unwrap();
        assert_eq!(rec, decoded);
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let rec = sample_record(12);
        let payload = rec.encode_payload();
        let err = WalRecord::decode_payload(&payload[..payload.len() - 3]).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path, SyncMode::Fsync).unwrap();
            w.append_group(&[sample_record(1), sample_record(2)]).unwrap();
            w.append_group(&[sample_record(3)]).unwrap();
            assert!(w.bytes_written() > 0);
        }
        let records = read_wal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].epoch, 1);
        assert_eq!(records[2].epoch, 3);
    }

    #[test]
    fn torn_tail_is_discarded_but_prefix_survives() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path, SyncMode::NoSync).unwrap();
            w.append_group(&[sample_record(1), sample_record(2)]).unwrap();
        }
        // Simulate a crash mid-write of the next group.
        let len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&RECORD_MAGIC.to_le_bytes()).unwrap();
            f.write_all(&1000u32.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() > len);
        let records = read_wal(&path).unwrap();
        assert_eq!(records.len(), 2, "only the fsynced prefix must be replayed");
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path, SyncMode::NoSync).unwrap();
            w.append_group(&[sample_record(1), sample_record(2)]).unwrap();
        }
        // Flip a byte in the middle of the file (second record's payload).
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 20;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let records = read_wal(&path).unwrap();
        assert_eq!(records.len(), 1, "replay stops at the first bad checksum");
    }

    #[test]
    fn crash_at_drops_bytes_past_the_limit_but_keeps_acking() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let full_len = {
            let probe = dir.path().join("probe.log");
            let mut w = WalWriter::open(&probe, SyncMode::NoSync).unwrap();
            w.append_group(&[sample_record(1)]).unwrap();
            w.append_group(&[sample_record(2)]).unwrap();
            w.bytes_written()
        };
        // Tear inside the second record's frame.
        let cut = full_len - 5;
        let mut w = WalWriter::open(&path, SyncMode::CrashAt(cut)).unwrap();
        w.append_group(&[sample_record(1)]).unwrap();
        assert!(!w.torn());
        w.append_group(&[sample_record(2)]).unwrap();
        assert!(w.torn(), "the cut lands inside the second frame");
        // The device keeps lying: later appends still report success and
        // write nothing.
        w.append_group(&[sample_record(3)]).unwrap();
        assert_eq!(w.bytes_written(), cut);
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), cut);
        let records = read_wal(&path).unwrap();
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1],
            "only the intact prefix below the tear replays"
        );
    }

    #[test]
    fn group_wal_flushes_every_committer_and_batches_under_contention() {
        use std::sync::Arc;
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let writer = WalWriter::open(&path, SyncMode::Fsync).unwrap();
        let wal = Arc::new(GroupWal::new(
            writer,
            GroupCommitConfig::default().with_max_batch(8),
        ));
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 16;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let epoch = (t * PER_THREAD + i + 1) as Timestamp;
                        let ticket = wal.stage(epoch, &sample_record(epoch).ops);
                        wal.wait_durable(ticket).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.group_records, THREADS * PER_THREAD);
        assert_eq!(stats.fsyncs, stats.groups, "one fsync per flushed batch");
        assert!(!stats.torn);
        let mut epochs: Vec<_> = read_wal(&path).unwrap().iter().map(|r| r.epoch).collect();
        epochs.sort_unstable();
        assert_eq!(epochs, (1..=(THREADS * PER_THREAD) as Timestamp).collect::<Vec<_>>());
    }

    #[test]
    fn group_wal_linger_still_flushes_a_lone_committer() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let writer = WalWriter::open(&path, SyncMode::NoSync).unwrap();
        let cfg = GroupCommitConfig::default()
            .with_max_batch(64)
            .with_max_wait(std::time::Duration::from_millis(5));
        let wal = GroupWal::new(writer, cfg);
        let ticket = wal.stage(1, &sample_record(1).ops);
        wal.wait_durable(ticket).unwrap();
        assert_eq!(wal.stats().group_records, 1);
        assert_eq!(read_wal(&path).unwrap().len(), 1);
    }

    #[test]
    fn group_wal_stage_order_is_file_order() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let writer = WalWriter::open(&path, SyncMode::NoSync).unwrap();
        let wal = GroupWal::new(writer, GroupCommitConfig::default());
        let tickets: Vec<u64> = (1..=3).map(|e| wal.stage(e, &sample_record(e).ops)).collect();
        assert_eq!(tickets, vec![1, 2, 3]);
        wal.wait_durable(3).unwrap();
        wal.wait_durable(1).unwrap();
        let records = read_wal(&path).unwrap();
        assert_eq!(records, (1..=3).map(sample_record).collect::<Vec<_>>());
        assert_eq!(wal.stats().groups, 1, "one leader flushed all three");
    }

    /// A leader takes at most `max_batch` staged frames; the rest stay
    /// staged, in order, until the next leader takes them.
    #[test]
    fn group_wal_max_batch_splits_and_leaves_the_rest_to_the_next_leader() {
        use std::sync::Arc;
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let writer = WalWriter::open(&path, SyncMode::NoSync).unwrap();
        let wal = Arc::new(GroupWal::new(
            writer,
            GroupCommitConfig::default().with_max_batch(2),
        ));
        let tickets: Vec<u64> = (1..=5).map(|e| wal.stage(e, &sample_record(e).ops)).collect();
        assert_eq!(tickets, vec![1, 2, 3, 4, 5]);
        // The first leader flushes one batch of two and returns.
        wal.wait_durable(tickets[1]).unwrap();
        let stats = wal.stats();
        assert_eq!((stats.groups, stats.group_records), (1, 2));
        let epochs = |p: &Path| read_wal(p).unwrap().iter().map(|r| r.epoch).collect::<Vec<_>>();
        assert_eq!(epochs(&path), vec![1, 2], "records 3..=5 are left staged");
        // The next leader, on another thread, flushes what was left.
        let next = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.wait_durable(5))
        };
        next.join().unwrap().unwrap();
        for &t in &tickets {
            wal.wait_durable(t).unwrap();
        }
        let stats = wal.stats();
        assert_eq!((stats.groups, stats.group_records), (3, 5), "batches of 2, 2, 1");
        assert_eq!(read_wal(&path).unwrap(), (1..=5).map(sample_record).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_reader_borrows_ops_and_stops_at_a_torn_tail() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path, SyncMode::NoSync).unwrap();
            w.append_group(&[sample_record(1), sample_record(2)]).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&RECORD_MAGIC.to_le_bytes()).unwrap();
            f.write_all(&1000u32.to_le_bytes()).unwrap();
            f.write_all(&[0u8; 16]).unwrap();
        }
        let mut seen = Vec::new();
        for_each_record(&path, |epoch, ops| {
            let ops: Vec<WalOp> = ops.iter().map(|op| op.into_owned()).collect();
            seen.push(WalRecord { epoch, ops });
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![sample_record(1), sample_record(2)]);
        assert_eq!(seen, read_wal(&path).unwrap(), "same tail rules as read_wal");
    }

    #[test]
    fn prune_keeps_only_records_above_the_floor() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncMode::NoSync).unwrap();
        w.append_group(&(1..=4).map(sample_record).collect::<Vec<_>>()).unwrap();
        w.prune_through(2).unwrap();
        assert_eq!(w.generation(), 1);
        w.append_group(&[sample_record(5)]).unwrap();
        assert_eq!(w.bytes_written(), std::fs::metadata(&path).unwrap().len());
        let epochs: Vec<_> = read_wal(&path).unwrap().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![3, 4, 5]);
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path, SyncMode::Fsync).unwrap();
            w.append_group(&[sample_record(1)]).unwrap();
        }
        {
            let mut w = WalWriter::open(&path, SyncMode::Fsync).unwrap();
            w.append_group(&[sample_record(2)]).unwrap();
        }
        let records = read_wal(&path).unwrap();
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![1, 2]);
    }
}
