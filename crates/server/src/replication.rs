//! WAL-shipping replication: a primary streams committed epochs to read
//! replicas over the wire protocol, replicas replay them through the
//! recovery path, and a promotion switch turns a replica into a serving
//! primary after failover.
//!
//! ## Roles and data flow
//!
//! * **Primary.** Every accepted connection whose *first* request is
//!   [`Request::ReplicaHello`] is taken over by `serve_replica`: the
//!   server ships a checkpoint bootstrap if the replica's resume epoch
//!   predates the retained WAL tail, then streams
//!   [`Response::WalBatch`] frames cut from a `livegraph_core` WAL tail —
//!   whole epochs only, in epoch order. A dedicated reader thread consumes
//!   the replica's one-way [`Request::ReplicaAck`] frames and records the
//!   per-replica durable watermark in the [`ReplicationState`] hub, which
//!   semi-sync commits ([`ReplicationState::wait_for_acks`]) block on.
//! * **Replica.** [`start_replica`] runs a background thread that dials the
//!   primary, replays each received batch through
//!   `LiveGraph::apply_replicated` (one transaction per epoch, re-logged to
//!   the replica's own WAL, so the replica-local GRE only ever advances on
//!   fully-applied epoch prefixes) and acks its durable epoch. Link faults
//!   reconnect with capped exponential backoff plus jitter, resuming from
//!   the replica's own durable epoch — redelivered epochs are skipped
//!   idempotently on apply.
//!
//! ## Flow control and shedding
//!
//! The primary never buffers unbounded history per replica: the WAL file
//! *is* the retention buffer, and the only in-memory queue is the socket
//! send buffer. A replica that stops draining stalls the sender until the
//! link write timeout fires, at which point the connection is shed (the
//! replica re-dials and resumes from its durable epoch) — commits on the
//! primary never wait on a slow replica's socket, only (optionally) on the
//! semi-sync ack gate.
//!
//! ## Failover
//!
//! [`ReplicationState::promote`] lifts the replica's read-only gate, stops
//! the replication client and leaves the graph serving writes from its
//! replicated epoch. With `sync_replicas >= 1` on the primary, an
//! acknowledged commit is durable on at least that many replicas before the
//! client sees `Committed`, so promotion after a primary crash loses no
//! acknowledged commit.
//!
//! [`FaultProxy`] is the wire-level sibling of `SyncMode::CrashAt`: a TCP
//! relay that can delay, drop, refuse or truncate-mid-frame the replication
//! link, driving the chaos tests in `tests/replication.rs`.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use livegraph_core::wal::WalRecord;
use livegraph_core::{LiveGraph, Timestamp};

use crate::engine::Engine;
use crate::protocol::{
    read_request, read_response, write_request, write_response, ErrorCode, Request, Response,
};

/// Records per [`Response::WalBatch`] upper bound (batches also split
/// early at [`MAX_BATCH_BYTES`], but never inside an epoch).
const MAX_BATCH_RECORDS: usize = 512;

/// Soft byte budget per [`Response::WalBatch`]; kept far below the frame
/// codec's `MAX_FRAME_LEN` so batching can never make a stream unshippable
/// that individual records were not.
const MAX_BATCH_BYTES: usize = 4 << 20;

/// How long the primary's sender waits for new commits before emitting an
/// empty heartbeat batch (which carries the primary epoch, so idle replicas
/// still track lag and link liveness).
const HEARTBEAT: Duration = Duration::from_millis(100);

/// Multiplies `d` by a uniform factor in `[0.5, 1.5)` so synchronized
/// retry storms (every replica re-dialing a rebooted primary in lockstep)
/// spread out. Also paces `RemoteBackend`'s re-dials in the workloads crate.
pub fn jittered(d: Duration) -> Duration {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|t| t.subsec_nanos() as u64 ^ t.as_secs())
        .unwrap_or(0x9e37_79b9);
    let mut rng = StdRng::seed_from_u64(nanos ^ u64::from(std::process::id()));
    d.mul_f64(rng.gen_range(0.5..1.5))
}

// ---------------------------------------------------------------------------
// Shared role state
// ---------------------------------------------------------------------------

struct HubInner {
    next_id: u64,
    /// Per-connected-replica highest acknowledged durable epoch.
    watermarks: HashMap<u64, Timestamp>,
    closed: bool,
}

/// Per-server replication role and coordination state, shared between the
/// serving sessions, the replica streaming threads and (on a replica) the
/// [`ReplicaRunner`].
///
/// A server always owns one (see `Server::replication`); a plain primary
/// just keeps the defaults (writable, no semi-sync gate).
pub struct ReplicationState {
    /// True while this server is a replica: sessions reject writes and
    /// checkpoints with [`ErrorCode::ReadOnlyReplica`].
    read_only: AtomicBool,
    /// Set by promotion and shutdown; stops replica runners and
    /// primary-side streaming threads.
    stop: AtomicBool,
    /// Set when the replica permanently cannot continue (it fell behind
    /// the primary's pruned WAL and must be re-seeded from scratch).
    failed: AtomicBool,
    /// Commits acknowledged only after this many replicas confirmed the
    /// commit epoch durable (0 = fully asynchronous replication).
    sync_replicas: usize,
    /// Upper bound on the semi-sync ack wait before a commit reports
    /// [`ErrorCode::ReplicationTimeout`].
    commit_timeout: Duration,
    /// Read/write timeout on replication link sockets; a replica that
    /// stops draining its stream is shed after this long.
    link_timeout: Duration,
    /// The replica runner's current connection to the primary, if any —
    /// promotion and shutdown shut it down to unblock the runner
    /// immediately instead of waiting out `link_timeout`.
    link: Mutex<Option<TcpStream>>,
    /// Replica-side: last observed `primary_epoch - local_gre` gap.
    lag: AtomicI64,
    hub: Mutex<HubInner>,
    hub_cv: Condvar,
}

impl Default for ReplicationState {
    fn default() -> Self {
        Self::primary(0, Duration::from_secs(5))
    }
}

impl ReplicationState {
    /// State for a writable primary. With `sync_replicas > 0 `, each commit
    /// waits (up to `commit_timeout`) until that many replicas acknowledged
    /// its epoch as durable before the client sees `Committed`.
    pub fn primary(sync_replicas: usize, commit_timeout: Duration) -> Self {
        Self {
            read_only: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            sync_replicas,
            commit_timeout,
            link_timeout: Duration::from_secs(5),
            link: Mutex::new(None),
            lag: AtomicI64::new(0),
            hub: Mutex::new(HubInner {
                next_id: 0,
                watermarks: HashMap::new(),
                closed: false,
            }),
            hub_cv: Condvar::new(),
        }
    }

    /// State for a read-only replica (writes rejected until
    /// [`ReplicationState::promote`]).
    pub fn replica() -> Self {
        let state = Self::primary(0, Duration::from_secs(5));
        state.read_only.store(true, Ordering::SeqCst);
        state
    }

    /// Overrides the replication link I/O timeout (default 5s).
    pub fn with_link_timeout(mut self, timeout: Duration) -> Self {
        self.link_timeout = timeout;
        self
    }

    /// True while writes and checkpoints are rejected.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Number of replica acks a commit waits for (0 = async).
    pub fn sync_replicas(&self) -> usize {
        self.sync_replicas
    }

    /// The replication link I/O timeout.
    pub fn link_timeout(&self) -> Duration {
        self.link_timeout
    }

    /// True once the replication machinery has been told to stop
    /// (promotion or server shutdown).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// True if the replica permanently lost the stream (its resume point
    /// predates the primary's retained WAL and it already serves a live
    /// graph, so it cannot re-bootstrap in place). Wipe the data directory
    /// and restart the replica to re-seed.
    pub fn replication_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Promotes this server to a serving primary: lifts the read-only
    /// gate and stops the replication client. Idempotent.
    pub fn promote(&self) {
        self.read_only.store(false, Ordering::SeqCst);
        self.halt();
    }

    /// Stops replication threads without changing the serving role (server
    /// shutdown): wakes semi-sync commit waiters and kills the replica
    /// runner's link so blocked reads return immediately.
    pub fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let mut hub = self.hub.lock();
            hub.closed = true;
        }
        self.hub_cv.notify_all();
        self.kill_link();
    }

    /// Replicas currently attached to this primary's ack hub.
    pub fn connected_replicas(&self) -> usize {
        self.hub.lock().watermarks.len()
    }

    /// Highest epoch acknowledged durable by at least `n` replicas
    /// (0 when fewer than `n` replicas are attached).
    pub fn acked_epoch(&self, n: usize) -> Timestamp {
        if n == 0 {
            return Timestamp::MAX;
        }
        let hub = self.hub.lock();
        let mut marks: Vec<Timestamp> = hub.watermarks.values().copied().collect();
        if marks.len() < n {
            return 0;
        }
        marks.sort_unstable_by(|a, b| b.cmp(a));
        marks[n - 1]
    }

    /// Replica-side: last observed replication lag in epochs
    /// (`primary_epoch - local_gre` at the most recent batch).
    pub fn replication_lag(&self) -> i64 {
        // ORDERING: Relaxed — monitoring gauge, no data published.
        self.lag.load(Ordering::Relaxed)
    }

    fn set_lag(&self, lag: i64) {
        // ORDERING: Relaxed — monitoring gauge, no data published.
        self.lag.store(lag.max(0), Ordering::Relaxed);
    }

    fn set_link(&self, stream: Option<TcpStream>) {
        *self.link.lock() = stream;
    }

    fn kill_link(&self) {
        if let Some(stream) = self.link.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
    }

    fn register_replica(&self) -> u64 {
        let mut hub = self.hub.lock();
        hub.next_id += 1;
        let id = hub.next_id;
        hub.watermarks.insert(id, 0);
        id
    }

    fn ack_replica(&self, id: u64, epoch: Timestamp) {
        let mut hub = self.hub.lock();
        if let Some(mark) = hub.watermarks.get_mut(&id) {
            *mark = (*mark).max(epoch);
        }
        drop(hub);
        self.hub_cv.notify_all();
    }

    fn deregister_replica(&self, id: u64) {
        self.hub.lock().watermarks.remove(&id);
        self.hub_cv.notify_all();
    }

    /// Blocks until `sync_replicas` replicas acknowledged `epoch` as
    /// durable, the commit timeout expires, or the hub closes. Returns
    /// true when the commit may be acknowledged to the client.
    pub fn wait_for_acks(&self, epoch: Timestamp) -> bool {
        if self.sync_replicas == 0 {
            return true;
        }
        let deadline = Instant::now() + self.commit_timeout;
        let mut hub = self.hub.lock();
        loop {
            let acked = hub.watermarks.values().filter(|&&w| w >= epoch).count();
            if acked >= self.sync_replicas {
                return true;
            }
            if hub.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.hub_cv.wait_for(&mut hub, deadline - now);
        }
    }
}

// ---------------------------------------------------------------------------
// Primary side: stream the WAL tail to one replica
// ---------------------------------------------------------------------------

/// Splits an in-order run of WAL records into wire batches: split points
/// honour [`MAX_BATCH_BYTES`] but *never* fall inside an epoch — a batch
/// always carries whole epochs, so a replica that applies it commits only
/// complete epochs (partial epochs would later be skipped as
/// idempotent redelivery and silently lose their remainder).
fn cut_batches(records: &[WalRecord]) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    let mut cur: Vec<Vec<u8>> = Vec::new();
    let mut cur_bytes = 0usize;
    let mut cur_epoch: Timestamp = 0;
    for record in records {
        let payload = record.encode_payload();
        if !cur.is_empty() && record.epoch != cur_epoch && cur_bytes + payload.len() > MAX_BATCH_BYTES
        {
            out.push(std::mem::take(&mut cur));
            cur_bytes = 0;
        }
        cur_epoch = record.epoch;
        cur_bytes += payload.len();
        cur.push(payload);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn send_error(
    writer: &mut BufWriter<TcpStream>,
    corr: u64,
    code: ErrorCode,
    message: String,
) -> io::Result<()> {
    write_response(writer, corr, &Response::Error { code, message })?;
    writer.flush()
}

/// Takes over a connection whose first request was
/// [`Request::ReplicaHello`]: ships a bootstrap checkpoint if needed, then
/// streams WAL batches until the replica disconnects, falls too far
/// behind, or the server stops. All frames echo the hello's correlation
/// id. `reader` is the connection's existing buffered reader (it must keep
/// any bytes the handshake read-ahead buffered); it is consumed by the ack
/// reader thread.
pub(crate) fn serve_replica(
    engine: &Engine,
    state: &ReplicationState,
    stream: &TcpStream,
    reader: BufReader<TcpStream>,
    corr: u64,
    last_epoch: Timestamp,
) -> io::Result<()> {
    let mut writer = BufWriter::new(stream.try_clone()?);
    let graph: &LiveGraph = match engine.as_plain() {
        Some(g) => g,
        None => {
            return send_error(
                &mut writer,
                corr,
                ErrorCode::Unsupported,
                "only the plain engine can serve replication streams".into(),
            );
        }
    };
    // A wedged replica must shed, not stall the sender forever: the socket
    // send buffer is the only per-replica queue, bounded by this timeout.
    stream.set_write_timeout(Some(state.link_timeout()))?;

    // Bootstrap when the replica's resume point predates the retained WAL
    // tail, or when it explicitly asks (`last_epoch < 0`, an empty data
    // directory): ship a fresh checkpoint (which itself prunes the WAL),
    // then stream from the snapshot epoch. An up-to-date replica skips
    // straight to streaming — bounded work either way, never unbounded
    // history.
    let mut resume = last_epoch.max(0);
    if last_epoch < graph.wal_prune_floor() || last_epoch < 0 {
        let (checkpoint_epoch, bytes) = match graph.bootstrap_snapshot() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                return send_error(
                    &mut writer,
                    corr,
                    ErrorCode::Io,
                    format!("bootstrap checkpoint failed: {e}"),
                );
            }
        };
        const CHUNK: usize = 1 << 20;
        let mut chunks = bytes.chunks(CHUNK);
        let n = chunks.len().max(1);
        for i in 0..n {
            let data = chunks.next().unwrap_or(&[]).to_vec();
            write_response(
                &mut writer,
                corr,
                &Response::BootstrapChunk {
                    checkpoint_epoch,
                    last: i + 1 == n,
                    data,
                },
            )?;
        }
        writer.flush()?;
        resume = checkpoint_epoch;
    }

    let mut tail = match graph.wal_tail(resume) {
        Ok(tail) => tail,
        Err(e) => {
            return send_error(
                &mut writer,
                corr,
                ErrorCode::Io,
                format!("WAL tail unavailable: {e}"),
            );
        }
    };

    let replica_id = state.register_replica();
    let dead = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        // Acks arrive on the same socket, full duplex: a dedicated reader
        // keeps them from ever contending with the stream direction. It
        // exits when the socket dies — the sender shuts the socket down on
        // its own exit path, so neither side can strand the other.
        scope.spawn(|| {
            let mut reader = reader;
            let mut scratch = Vec::with_capacity(64);
            loop {
                match read_request(&mut reader, &mut scratch) {
                    Ok(Some((_, Request::ReplicaAck { durable_epoch }))) => {
                        state.ack_replica(replica_id, durable_epoch);
                    }
                    // Anything else (including clean EOF or a frame error)
                    // ends the replication session.
                    Ok(Some(_)) | Ok(None) | Err(_) => {
                        dead.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        });

        let run = (|| -> io::Result<()> {
            loop {
                if state.stopped() || dead.load(Ordering::SeqCst) {
                    return Ok(());
                }
                let chunk = tail
                    .poll(MAX_BATCH_RECORDS, HEARTBEAT)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                let primary_epoch = graph.stats().read_epoch;
                graph.telemetry().replication_ship_epoch.set(primary_epoch);
                match chunk {
                    livegraph_core::TailChunk::Records(records) => {
                        for payloads in cut_batches(&records) {
                            write_response(
                                &mut writer,
                                corr,
                                &Response::WalBatch {
                                    primary_epoch,
                                    payloads,
                                },
                            )?;
                        }
                        writer.flush()?;
                    }
                    livegraph_core::TailChunk::Idle => {
                        // Heartbeat: keeps replica-side lag fresh and lets
                        // both ends detect a dead link promptly.
                        write_response(
                            &mut writer,
                            corr,
                            &Response::WalBatch {
                                primary_epoch,
                                payloads: Vec::new(),
                            },
                        )?;
                        writer.flush()?;
                    }
                    livegraph_core::TailChunk::FellBehind { floor } => {
                        // The replica held a live graph while the WAL was
                        // pruned past its position; it must re-seed.
                        let _ = send_error(
                            &mut writer,
                            corr,
                            ErrorCode::EpochUnavailable,
                            format!(
                                "replica resume epoch fell behind the pruned WAL (floor {floor}); re-seed from a fresh bootstrap"
                            ),
                        );
                        return Ok(());
                    }
                }
            }
        })();
        // Unblock the ack reader (and tell the replica we are done).
        let _ = stream.shutdown(Shutdown::Both);
        run
    });
    state.deregister_replica(replica_id);
    result
}

// ---------------------------------------------------------------------------
// Replica side: bootstrap + streaming client
// ---------------------------------------------------------------------------

/// Tuning knobs for a replica's connection to its primary.
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Read/write timeout on the replication socket. The primary
    /// heartbeats every ~100ms, so a read timing out means the link or the
    /// primary is dead and the replica re-dials.
    pub io_timeout: Duration,
    /// First reconnect delay after a link fault (doubles per consecutive
    /// failure, jittered ±50%).
    pub min_backoff: Duration,
    /// Reconnect delay cap.
    pub max_backoff: Duration,
    /// Replica-local checkpoint cadence, in applied epochs (bounds the
    /// replica's own WAL replay after a restart; 0 disables).
    pub checkpoint_interval: u64,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(5),
            min_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            checkpoint_interval: 4096,
        }
    }
}

fn core_err(e: livegraph_core::Error) -> io::Error {
    io::Error::other(e.to_string())
}

/// Pre-open bootstrap: asks `primary` for the stream starting after the
/// replica data directory's durable epoch, and if the primary answers with
/// a checkpoint (the resume point predates its retained WAL tail),
/// installs it into `dir` — replacing any stale local state — so a normal
/// `LiveGraph::open` recovery afterwards starts at the snapshot. Returns
/// the epoch the directory is durable up to.
///
/// Must run *before* the replica opens its graph. The connection is
/// dropped afterwards; the streaming client re-dials with the post-install
/// resume epoch.
pub fn bootstrap_replica(
    dir: impl AsRef<std::path::Path>,
    primary: SocketAddr,
    opts: &ReplicaOptions,
) -> io::Result<Timestamp> {
    let dir = dir.as_ref();
    let local = livegraph_core::local_durable_epoch(dir).map_err(core_err)?;
    // A directory with no durable epochs requests an explicit checkpoint
    // bootstrap (`last_epoch = -1`) rather than a from-the-beginning WAL
    // replay, so seeding cost is proportional to the primary's live
    // state, not its history.
    let hello_epoch = if local == 0 { -1 } else { local };
    let stream = TcpStream::connect(primary)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.io_timeout))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    write_request(
        &mut writer,
        1,
        &Request::ReplicaHello {
            last_epoch: hello_epoch,
        },
    )?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let mut scratch = Vec::with_capacity(1 << 16);
    let mut checkpoint: Option<(Timestamp, Vec<u8>)> = None;
    loop {
        match read_response(&mut reader, &mut scratch)? {
            Some((_, Response::BootstrapChunk { checkpoint_epoch, last, data })) => {
                let (_, bytes) = checkpoint.get_or_insert_with(|| (checkpoint_epoch, Vec::new()));
                bytes.extend_from_slice(&data);
                if last {
                    let (epoch, bytes) = checkpoint.take().expect("chunk accumulated");
                    livegraph_core::install_bootstrap(dir, &bytes).map_err(core_err)?;
                    return Ok(epoch.max(0));
                }
            }
            // The primary went straight to streaming: the local directory
            // is already inside the retained tail, nothing to install.
            Some((_, Response::WalBatch { .. })) => return Ok(local),
            Some((_, Response::Error { code, message })) => {
                return Err(io::Error::other(format!(
                    "primary rejected bootstrap ({code}): {message}"
                )));
            }
            Some((_, other)) => {
                return Err(io::Error::other(format!(
                    "unexpected bootstrap response: {other:?}"
                )));
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "primary closed the connection during bootstrap",
                ));
            }
        }
    }
}

/// Handle to a replica's background replication thread. Dropping it (or
/// calling [`ReplicaRunner::shutdown`]) stops the thread; promotion via
/// [`ReplicationState::promote`] stops it too, leaving the graph serving.
pub struct ReplicaRunner {
    state: Arc<ReplicationState>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaRunner {
    /// The shared role state (for promotion, lag and failure probes).
    pub fn state(&self) -> &Arc<ReplicationState> {
        &self.state
    }

    /// Stops the replication thread and joins it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.state.halt();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplicaRunner {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Starts the replica streaming client against `primary`. The hosted
/// engine must be the plain variant (the one [`bootstrap_replica`]
/// prepared); `state` must be the same [`ReplicationState`] the replica's
/// own `Server` serves sessions with, so its read-only gate and promotion
/// switch act on both.
pub fn start_replica(
    engine: Arc<Engine>,
    state: Arc<ReplicationState>,
    primary: SocketAddr,
    opts: ReplicaOptions,
) -> ReplicaRunner {
    assert!(
        engine.as_plain().is_some(),
        "replication requires the plain engine"
    );
    let thread_state = Arc::clone(&state);
    let handle = std::thread::spawn(move || {
        let mut backoff = opts.min_backoff;
        while !thread_state.stopped() {
            match replicate_once(&engine, &thread_state, primary, &opts) {
                // Clean exit: promotion or shutdown.
                Ok(()) => return,
                Err(ReplicaFault::Fatal) => {
                    thread_state.fail();
                    return;
                }
                Err(ReplicaFault::Link) => {
                    if thread_state.stopped() {
                        return;
                    }
                    std::thread::sleep(jittered(backoff));
                    backoff = (backoff * 2).min(opts.max_backoff);
                }
                Err(ReplicaFault::Progressed) => {
                    // The link died but this connection applied at least
                    // one batch first; treat the link as healthy again.
                    backoff = opts.min_backoff;
                }
            }
        }
    });
    ReplicaRunner {
        state,
        handle: Some(handle),
    }
}

enum ReplicaFault {
    /// Connection failed without applying anything: back off before
    /// re-dialing.
    Link,
    /// Connection applied at least one batch before failing: re-dial
    /// immediately with the backoff reset.
    Progressed,
    /// The primary pruned past our resume point and we cannot re-bootstrap
    /// over a live graph; replication stops permanently.
    Fatal,
}

/// One connection lifetime: dial, hello, apply batches until the link
/// dies or the runner is stopped.
fn replicate_once(
    engine: &Engine,
    state: &ReplicationState,
    primary: SocketAddr,
    opts: &ReplicaOptions,
) -> Result<(), ReplicaFault> {
    let graph = engine.as_plain().expect("checked by start_replica");
    let link = |_: io::Error| ReplicaFault::Link;

    let stream = TcpStream::connect(primary).map_err(link)?;
    stream.set_nodelay(true).map_err(link)?;
    stream.set_read_timeout(Some(opts.io_timeout)).map_err(link)?;
    stream.set_write_timeout(Some(opts.io_timeout)).map_err(link)?;
    state.set_link(stream.try_clone().ok());

    let run = replicate_stream(graph, state, &stream, opts);
    state.set_link(None);
    let _ = stream.shutdown(Shutdown::Both);
    run
}

fn replicate_stream(
    graph: &LiveGraph,
    state: &ReplicationState,
    stream: &TcpStream,
    opts: &ReplicaOptions,
) -> Result<(), ReplicaFault> {
    let link = |_: io::Error| ReplicaFault::Link;
    let mut writer = BufWriter::new(stream.try_clone().map_err(link)?);
    let mut reader = BufReader::new(stream.try_clone().map_err(link)?);
    let mut scratch = Vec::with_capacity(1 << 16);

    let resume = graph.stats().read_epoch;
    write_request(&mut writer, 1, &Request::ReplicaHello { last_epoch: resume }).map_err(link)?;
    writer.flush().map_err(link)?;

    let mut corr = 2u64;
    let mut progressed = false;
    let mut since_checkpoint = 0u64;
    let fail_if = |progressed: bool, _: io::Error| {
        if progressed {
            ReplicaFault::Progressed
        } else {
            ReplicaFault::Link
        }
    };
    loop {
        if state.stopped() {
            return Ok(());
        }
        match read_response(&mut reader, &mut scratch).map_err(|e| fail_if(progressed, e))? {
            Some((_, Response::WalBatch { primary_epoch, payloads })) => {
                let mut records = Vec::with_capacity(payloads.len());
                for payload in &payloads {
                    records.push(
                        WalRecord::decode_payload(payload)
                            .map_err(|e| fail_if(progressed, core_err(e)))?,
                    );
                }
                let applied = records.last().map(|r| r.epoch);
                let gre = if records.is_empty() {
                    graph.stats().read_epoch
                } else {
                    graph
                        .apply_replicated(&records)
                        .map_err(|e| fail_if(progressed, core_err(e)))?
                };
                state.set_lag(primary_epoch - gre);
                let tel = graph.telemetry();
                tel.replication_apply_epoch.set(gre);
                tel.replication_lag_epochs.set((primary_epoch - gre).max(0));
                if applied.is_some() {
                    progressed = true;
                    since_checkpoint += payloads.len() as u64;
                    if opts.checkpoint_interval > 0 && since_checkpoint >= opts.checkpoint_interval
                    {
                        // Bound our own restart replay; failure is
                        // non-fatal (next interval retries).
                        if graph.checkpoint().is_ok() {
                            since_checkpoint = 0;
                        }
                    }
                }
                write_request(&mut writer, corr, &Request::ReplicaAck { durable_epoch: gre })
                    .map_err(|e| fail_if(progressed, e))?;
                writer.flush().map_err(|e| fail_if(progressed, e))?;
                corr += 1;
            }
            Some((_, Response::Error { code: ErrorCode::EpochUnavailable, .. })) => {
                // We hold a live graph but the primary pruned past our
                // resume point; an in-place re-bootstrap is impossible.
                return Err(ReplicaFault::Fatal);
            }
            Some((_, Response::BootstrapChunk { .. })) => {
                // Post-open bootstrap means the same thing: our resume
                // point predates the retained tail.
                return Err(ReplicaFault::Fatal);
            }
            Some((_, other)) => {
                return Err(fail_if(
                    progressed,
                    io::Error::other(format!("unexpected replication frame: {other:?}")),
                ));
            }
            None => {
                return Err(fail_if(
                    progressed,
                    io::Error::new(io::ErrorKind::UnexpectedEof, "primary closed the stream"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting link proxy
// ---------------------------------------------------------------------------

struct ProxyShared {
    target: SocketAddr,
    stop: AtomicBool,
    refuse: AtomicBool,
    delay_us: AtomicU64,
    /// Remaining primary→replica bytes before the connection is cut
    /// mid-frame; `i64::MAX` = disarmed. One-shot: re-arms to disarmed
    /// after firing, so the next connection can make progress.
    truncate_budget: AtomicI64,
    conns: Mutex<Vec<TcpStream>>,
}

/// A chaos TCP relay for the replication link — the wire-level sibling of
/// `SyncMode::CrashAt`. Point a replica at [`FaultProxy::addr`] instead of
/// the primary and inject:
///
/// * **delay** — every forwarded chunk waits [`FaultProxy::set_delay`];
/// * **drop** — [`FaultProxy::kill_connections`] severs live links
///   mid-batch;
/// * **truncate-mid-frame** — [`FaultProxy::truncate_after`] forwards
///   exactly N more primary→replica bytes and then cuts the link, leaving
///   a torn frame in the replica's receive path;
/// * **refuse** — [`FaultProxy::set_refuse`] accepts and immediately
///   closes new connections (a down-but-reachable primary).
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a relay on an ephemeral loopback port, forwarding every
    /// connection to `target`.
    pub fn start(target: SocketAddr) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            target,
            stop: AtomicBool::new(false),
            refuse: AtomicBool::new(false),
            delay_us: AtomicU64::new(0),
            truncate_budget: AtomicI64::new(i64::MAX),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || proxy_accept_loop(&listener, &shared))
        };
        Ok(FaultProxy {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The address replicas should dial instead of the primary.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Adds a per-chunk forwarding delay (None clears it).
    pub fn set_delay(&self, delay: Option<Duration>) {
        self.shared
            .delay_us
            .store(delay.map_or(0, |d| d.as_micros() as u64), Ordering::SeqCst);
    }

    /// Accept-and-immediately-close new connections while true.
    pub fn set_refuse(&self, refuse: bool) {
        self.shared.refuse.store(refuse, Ordering::SeqCst);
    }

    /// Arms a one-shot cut: after forwarding `bytes` more primary→replica
    /// bytes, the live connection is severed — typically mid-frame.
    pub fn truncate_after(&self, bytes: u64) {
        self.shared
            .truncate_budget
            .store(bytes.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Severs every live proxied connection (drop-and-reconnect chaos).
    pub fn kill_connections(&self) {
        let mut conns = self.shared.conns.lock();
        for stream in conns.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Stops the proxy and severs everything it carries.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.kill_connections();
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn proxy_accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    loop {
        let Ok((client, _)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if shared.refuse.load(Ordering::SeqCst) {
            drop(client);
            continue;
        }
        let Ok(upstream) = TcpStream::connect(shared.target) else {
            drop(client);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = upstream.set_nodelay(true);
        {
            let mut conns = shared.conns.lock();
            if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
                conns.push(c);
                conns.push(u);
            }
        }
        // Two pump threads per connection; they exit when either side
        // dies (each shuts both streams down on exit, so its sibling's
        // blocking read unblocks too).
        if let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) {
            let shared_a = Arc::clone(shared);
            let shared_b = Arc::clone(shared);
            // Replica→primary: hellos and acks, never truncated by budget.
            std::thread::spawn(move || proxy_pump(client, u2, &shared_a, false));
            // Primary→replica: the stream direction the truncate budget
            // applies to.
            std::thread::spawn(move || proxy_pump(upstream, c2, &shared_b, true));
        }
    }
}

fn proxy_pump(mut src: TcpStream, mut dst: TcpStream, shared: &ProxyShared, counted: bool) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let delay = shared.delay_us.load(Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        let mut allowed = n;
        let mut cut = false;
        if counted {
            let budget = shared.truncate_budget.load(Ordering::SeqCst);
            if budget != i64::MAX {
                allowed = n.min(budget.max(0) as usize);
                cut = allowed < n;
                let remaining = if cut { i64::MAX } else { budget - allowed as i64 };
                // One-shot: disarm once the cut fires so the replica's
                // next connection can make progress.
                shared.truncate_budget.store(remaining, Ordering::SeqCst);
            }
        }
        if allowed > 0 && dst.write_all(&buf[..allowed]).is_err() {
            break;
        }
        if cut {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: Timestamp, n_ops: usize) -> WalRecord {
        use livegraph_core::wal::WalOp;
        WalRecord {
            epoch,
            ops: (0..n_ops)
                .map(|i| WalOp::PutVertex {
                    vertex: i as u64,
                    properties: vec![0u8; 16],
                })
                .collect(),
        }
    }

    #[test]
    fn batches_never_split_inside_an_epoch() {
        // Records small enough that only MAX_BATCH_RECORDS matters is the
        // common case; force the byte budget instead with big payloads.
        let big = |epoch| WalRecord {
            epoch,
            ops: vec![livegraph_core::wal::WalOp::PutVertex {
                vertex: 0,
                properties: vec![0u8; MAX_BATCH_BYTES / 2],
            }],
        };
        // Epoch 2 spans two oversized records: they must stay together.
        let records = vec![big(1), big(2), big(2), big(3)];
        let batches = cut_batches(&records);
        assert_eq!(batches.len(), 3, "split at epoch boundaries only");
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[1].len(), 2, "epoch 2 stays whole");
        assert_eq!(batches[2].len(), 1);
    }

    #[test]
    fn small_records_stay_in_one_batch() {
        let records: Vec<_> = (1..=10).map(|e| record(e, 3)).collect();
        let batches = cut_batches(&records);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 10, "one payload per record");
    }

    #[test]
    fn hub_semi_sync_gate_acks_and_times_out() {
        let state = ReplicationState::primary(1, Duration::from_millis(50));
        // No replicas attached: the gate times out.
        assert!(!state.wait_for_acks(5));
        let id = state.register_replica();
        assert_eq!(state.connected_replicas(), 1);
        state.ack_replica(id, 4);
        assert!(!state.wait_for_acks(5), "watermark 4 < commit epoch 5");
        state.ack_replica(id, 7);
        assert!(state.wait_for_acks(5));
        assert_eq!(state.acked_epoch(1), 7);
        state.deregister_replica(id);
        assert_eq!(state.connected_replicas(), 0);
    }

    #[test]
    fn halt_wakes_semi_sync_waiters() {
        let state = Arc::new(ReplicationState::primary(1, Duration::from_secs(30)));
        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.wait_for_acks(1))
        };
        std::thread::sleep(Duration::from_millis(20));
        state.halt();
        assert!(!waiter.join().unwrap(), "closed hub rejects the commit");
    }

    #[test]
    fn promote_lifts_read_only_and_stops() {
        let state = ReplicationState::replica();
        assert!(state.is_read_only());
        assert!(!state.stopped());
        state.promote();
        assert!(!state.is_read_only());
        assert!(state.stopped());
        state.promote(); // idempotent
        assert!(!state.is_read_only());
    }
}
