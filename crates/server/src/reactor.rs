//! The event-driven reactor server: every connection multiplexed onto a
//! small, fixed set of epoll event-loop threads.
//!
//! The thread-pooled server ([`Server`](crate::Server)) spends one OS thread per
//! in-flight connection, which caps it at a few hundred concurrent sessions
//! and makes idle connections as expensive as busy ones. The reactor
//! inverts that: each event-loop thread owns an `epoll` instance and a set
//! of nonblocking connections, and only touches a connection when the
//! kernel reports it readable or writable. Ten thousand idle connections
//! cost ten thousand fds and nothing else.
//!
//! ## Threading model
//!
//! * One blocking **acceptor** thread `accept`s and hands each new socket
//!   to an event loop round-robin (a `Mutex<Vec<TcpStream>>` injector plus
//!   an eventfd wakeup per loop).
//! * N **event-loop** threads (default [`ReactorConfig::DEFAULT_EVENT_THREADS`]).
//!   Each loop owns its connections outright — no cross-loop migration, so
//!   no locks on the hot path. A loop thread services many [`Session`]s on
//!   one engine worker slot: the epoch manager refcounts per-slot activity
//!   (see `core::epoch`), so any number of concurrent transactions can
//!   share the slot, and the loop count (not the connection count) bounds
//!   worker-slot consumption.
//! * **Replica handoff** threads: a connection whose first frame is
//!   [`Request::ReplicaHello`] leaves the event loop (its fd is
//!   deregistered, the socket flipped back to blocking) and a dedicated
//!   thread runs the WAL streamer, exactly like the blocking server.
//!
//! ## Backpressure rule
//!
//! Responses are queued in a per-connection outbound buffer and written
//! whenever the socket accepts bytes. When the buffer exceeds
//! [`ReactorConfig::max_outbound_bytes`], the loop **stops reading** that
//! connection (drops its `EPOLLIN` interest and stops decoding queued
//! frames) until the peer drains below the watermark — a slow reader
//! throttles itself without stalling the loop or ballooning server memory.
//! One exception is intentionally allowed through: a single in-flight
//! streaming request (unbounded `Neighbors`) may overshoot the watermark by
//! its own stream size, because response frames of one request are never
//! dropped or paused mid-request; the watermark gates *cross-request*
//! buffering. The write path drains opportunistically even mid-request, so
//! overshoot only materialises when the client also stops reading.
//!
//! ## Session invariants
//!
//! Dispatch goes through the same [`Session`] state machine as the blocking
//! server, so the service-layer invariants carry over unchanged:
//!
//! * **error ⇒ abort** — `Session::handle_request` aborts a failed explicit
//!   transaction before emitting the error response;
//! * **disconnect ⇒ rollback** — EOF, transport errors and shutdown all
//!   drop the connection's `Session`, whose destructor rolls back every
//!   open transaction, releasing vertex locks and epoch pins.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::engine::Engine;
use crate::protocol::{write_response, FrameAccum, Request};
use crate::replication::{self, ReplicationState};
use crate::session::Session;

// ---------------------------------------------------------------------------
// Thin safe wrappers over the vendored epoll / eventfd bindings
// ---------------------------------------------------------------------------

/// An owned `epoll` instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the kernel validates the flags.
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        // SAFETY: `ev` is a live stack value for the duration of the call;
        // `self.fd` is an owned, open epoll fd.
        let rc = unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one fd is ready (or a signal interrupts);
    /// returns the number of readiness records written into `events`.
    fn wait(&self, events: &mut [libc::epoll_event]) -> io::Result<usize> {
        loop {
            // SAFETY: the kernel writes at most `events.len()` records into
            // the caller's live slice; `self.fd` is an owned epoll fd.
            let n = unsafe {
                libc::epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, -1)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is owned by this struct and closed exactly once.
        unsafe { libc::close(self.fd) };
    }
}

// SAFETY: the epoll fd is just an integer handle; the kernel serialises
// `epoll_ctl`/`epoll_wait` internally.
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}

/// An eventfd used as a cross-thread wakeup doorbell for one event loop.
struct EventFd {
    file: File,
}

impl EventFd {
    fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers involved; the kernel validates the flags.
        let fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, owned eventfd.
        Ok(EventFd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// Rings the doorbell. Idempotent while unconsumed: the eventfd is a
    /// counter, and a full counter (`WouldBlock`) still means "signalled".
    fn signal(&self) {
        let _ = (&self.file).write_all(&1u64.to_le_bytes());
    }

    /// Consumes all pending signals.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        while (&self.file).read(&mut buf).is_ok() {}
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Reactor tuning knobs.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Event-loop threads. Each multiplexes an arbitrary number of
    /// connections and consumes one engine worker slot; a handful is
    /// enough to saturate a NIC, and the default suits request/response
    /// workloads on small hosts.
    pub event_threads: usize,
    /// Set `TCP_NODELAY` on accepted sockets.
    pub nodelay: bool,
    /// Outbound-buffer high watermark per connection, in bytes: above
    /// this, the loop stops reading (and decoding) that connection until
    /// the peer drains its responses. See the module docs for the one
    /// permitted overshoot (a single streaming request).
    pub max_outbound_bytes: usize,
    /// Replication role state, exactly as in
    /// [`crate::ServerConfig::replication`].
    pub replication: Option<Arc<ReplicationState>>,
}

impl ReactorConfig {
    /// Default event-loop thread count.
    pub const DEFAULT_EVENT_THREADS: usize = 2;

    /// Default outbound high watermark (256 KiB).
    pub const DEFAULT_MAX_OUTBOUND: usize = 256 * 1024;

    /// Sets the event-loop thread count (clamped to ≥ 1).
    pub fn with_event_threads(mut self, n: usize) -> Self {
        self.event_threads = n.max(1);
        self
    }

    /// Sets the outbound-buffer high watermark.
    pub fn with_max_outbound_bytes(mut self, bytes: usize) -> Self {
        self.max_outbound_bytes = bytes.max(4096);
        self
    }

    /// Sets the replication role state.
    pub fn with_replication(mut self, state: Arc<ReplicationState>) -> Self {
        self.replication = Some(state);
        self
    }
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            event_threads: Self::DEFAULT_EVENT_THREADS,
            nodelay: true,
            max_outbound_bytes: Self::DEFAULT_MAX_OUTBOUND,
            replication: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------------

/// Pending outbound bytes with a consumed-prefix cursor (compacted lazily,
/// mirroring `FrameAccum`).
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

const OUTBUF_COMPACT_AT: usize = 64 * 1024;

impl OutBuf {
    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= OUTBUF_COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Writes as much of `out` as the socket will take without blocking.
/// Returns a fatal error if the connection is dead.
fn flush_nonblocking(stream: &TcpStream, out: &mut OutBuf) -> io::Result<()> {
    while !out.is_empty() {
        match (&*stream).write(out.pending()) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => out.consume(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct Conn<'g> {
    stream: TcpStream,
    accum: FrameAccum,
    out: OutBuf,
    session: Session<'g>,
    /// Interest set currently registered with epoll.
    interest: u32,
    /// True until the first frame has been seen (replica-handoff window).
    first: bool,
}

/// Why a connection leaves the event loop.
enum Close {
    /// Clean or dirty disconnect, or fatal transport/protocol error: drop
    /// the connection (the `Session` destructor rolls everything back).
    Gone,
    /// First frame was `ReplicaHello`: hand the socket to a blocking WAL
    /// streamer thread.
    Replica { corr: u64, last_epoch: i64 },
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Per-loop channel from the acceptor: freshly accepted sockets plus the
/// doorbell that wakes the loop to adopt them.
struct LoopShared {
    injector: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

/// Registry of replica-handoff streamers (a handle on each socket plus its
/// thread) so shutdown can sever and join them (mirrors the blocking
/// server's `ConnTracker`).
#[derive(Default)]
struct HandoffRegistry {
    streamers: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

impl HandoffRegistry {
    /// Starts and records a new streamer, first joining the ones that
    /// already ended: a replica reconnects after every link fault, so
    /// without this each reconnect would leave a finished thread (and its
    /// stack) behind until shutdown. Joining a finished thread does not
    /// block. The thread is spawned under the registry lock, so whoever has
    /// seen its first reply also finds it registered.
    fn spawn(&self, stream: TcpStream, f: impl FnOnce() + Send + 'static) {
        let mut streamers = self.streamers.lock();
        while let Some(i) = streamers.iter().position(|(_, t)| t.is_finished()) {
            let _ = streamers.swap_remove(i).1.join();
        }
        streamers.push((stream, std::thread::spawn(f)));
    }

    fn kill_and_join(&self) {
        let streamers = std::mem::take(&mut *self.streamers.lock());
        for (stream, _) in &streamers {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, t) in streamers {
            let _ = t.join();
        }
    }
}

/// A running event-driven LiveGraph server. Dropping it (or calling
/// [`ReactorServer::shutdown`]) severs every connection and joins every
/// thread, exactly like [`crate::Server`].
pub struct ReactorServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<(Arc<LoopShared>, JoinHandle<()>)>,
    connections: Arc<AtomicU64>,
    active: Arc<AtomicU64>,
    replication: Arc<ReplicationState>,
    handoffs: Arc<HandoffRegistry>,
}

impl ReactorServer {
    /// Binds `bind_addr` and starts serving `engine` on
    /// `config.event_threads` event loops.
    pub fn start(
        engine: Arc<Engine>,
        bind_addr: impl ToSocketAddrs,
        config: ReactorConfig,
    ) -> io::Result<ReactorServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let active = Arc::new(AtomicU64::new(0));
        let replication = config.replication.clone().unwrap_or_default();
        let handoffs = Arc::new(HandoffRegistry::default());

        let mut loops = Vec::with_capacity(config.event_threads.max(1));
        for _ in 0..config.event_threads.max(1) {
            let shared = Arc::new(LoopShared {
                injector: Mutex::new(Vec::new()),
                wake: EventFd::new()?,
            });
            let engine = Arc::clone(&engine);
            let replication = Arc::clone(&replication);
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let handoffs = Arc::clone(&handoffs);
            let shared2 = Arc::clone(&shared);
            let max_out = config.max_outbound_bytes;
            let handle = std::thread::spawn(move || {
                event_loop(
                    &engine,
                    &replication,
                    &shared2,
                    &shutdown,
                    &active,
                    &handoffs,
                    max_out,
                )
            });
            loops.push((shared, handle));
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let targets: Vec<Arc<LoopShared>> =
                loops.iter().map(|(shared, _)| Arc::clone(shared)).collect();
            let nodelay = config.nodelay;
            std::thread::spawn(move || {
                reactor_accept_loop(&listener, &targets, &shutdown, &connections, nodelay)
            })
        };

        Ok(ReactorServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            loops,
            connections,
            active,
            replication,
            handoffs,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        // ORDERING: Relaxed — monitoring gauge, no data published.
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections currently registered with the event loops (excludes
    /// replica-handoff streams).
    pub fn active_connections(&self) -> u64 {
        // ORDERING: Relaxed — monitoring gauge, no data published.
        self.active.load(Ordering::Relaxed)
    }

    /// The replication role state this server serves under.
    pub fn replication(&self) -> &Arc<ReplicationState> {
        &self.replication
    }

    /// Stops accepting, severs every live connection and joins every
    /// thread. In-flight clients see a transport error, exactly like a
    /// crash; their sessions roll back.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.replication.halt();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Wake every loop; each observes the flag, drops its connections
        // (rolling back their sessions) and exits.
        for (shared, _) in &self.loops {
            shared.wake.signal();
        }
        for (_, handle) in self.loops.drain(..) {
            let _ = handle.join();
        }
        self.handoffs.kill_and_join();
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn reactor_accept_loop(
    listener: &TcpListener,
    targets: &[Arc<LoopShared>],
    shutdown: &AtomicBool,
    connections: &AtomicU64,
    nodelay: bool,
) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return; // `stream` is the shutdown wake-up; drop both.
                }
                // ORDERING: Relaxed — monitoring counter, no publication.
                connections.fetch_add(1, Ordering::Relaxed);
                if nodelay {
                    let _ = stream.set_nodelay(true);
                }
                let target = &targets[next % targets.len()];
                next = next.wrapping_add(1);
                target.injector.lock().push(stream);
                target.wake.signal();
            }
            Err(_) if shutdown.load(Ordering::SeqCst) => return,
            // Transient accept failures (fd exhaustion, aborted handshakes)
            // must not kill the service; back off — but in 1ms slices that
            // recheck the shutdown flag, so shutdown latency stays bounded
            // even while the process is resource-starved.
            Err(_) => {
                for _ in 0..10 {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Doorbell token; connection tokens start above it.
const WAKE_TOKEN: u64 = 0;

fn event_loop(
    engine_arc: &Arc<Engine>,
    replication_arc: &Arc<ReplicationState>,
    shared: &LoopShared,
    shutdown: &AtomicBool,
    active: &AtomicU64,
    handoffs: &Arc<HandoffRegistry>,
    max_out: usize,
) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(_) => return,
    };
    if epoll
        .add(shared.wake.as_raw_fd(), libc::EPOLLIN, WAKE_TOKEN)
        .is_err()
    {
        return;
    }

    let engine: &Engine = engine_arc;
    let replication: &ReplicationState = replication_arc;
    let tel = engine.telemetry();
    let mut conns: HashMap<u64, Conn<'_>> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 256];
    let mut read_buf = vec![0u8; 64 * 1024];

    while let Ok(n) = epoll.wait(&mut events) {
        // One "turn": everything between epoll_wait returns. Wait time is
        // deliberately excluded — an idle loop is not a slow loop.
        let turn_timer = tel.timer();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ev in &events[..n] {
            let token = ev.u64;
            let ready = ev.events;
            if token == WAKE_TOKEN {
                shared.wake.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue; // already closed earlier in this batch
            };
            let result = if ready & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
                Err(Close::Gone)
            } else {
                pump(conn, &mut read_buf, max_out, ready)
            };
            match result {
                Ok(()) => {
                    update_interest(&epoll, token, conn, max_out, tel);
                }
                Err(Close::Gone) => {
                    conns.remove(&token);
                    // ORDERING: Relaxed — monitoring gauge, no publication.
                    active.fetch_sub(1, Ordering::Relaxed);
                }
                Err(Close::Replica { corr, last_epoch }) => {
                    let conn = conns.remove(&token).expect("conn present");
                    // ORDERING: Relaxed — monitoring gauge, no publication.
                    active.fetch_sub(1, Ordering::Relaxed);
                    let _ = epoll.delete(conn.stream.as_raw_fd());
                    // A replica sends nothing after its Hello until the
                    // primary streams first; pipelined bytes here are a
                    // protocol violation and the safe reaction is to drop
                    // the connection instead of streaming to a peer whose
                    // state we cannot trust.
                    if conn.accum.is_empty() && conn.out.is_empty() {
                        handoff_replica(
                            engine_arc,
                            replication_arc,
                            handoffs,
                            conn.stream,
                            corr,
                            last_epoch,
                        );
                    }
                }
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Adopt connections the acceptor queued for this loop.
        let adopted: Vec<TcpStream> = std::mem::take(&mut *shared.injector.lock());
        for stream in adopted {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = next_token;
            next_token += 1;
            let interest = libc::EPOLLIN | libc::EPOLLRDHUP;
            if epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                continue;
            }
            conns.insert(
                token,
                Conn {
                    stream,
                    accum: FrameAccum::new(),
                    out: OutBuf::default(),
                    session: Session::with_replication(engine, Some(replication)),
                    interest,
                    first: true,
                },
            );
            // ORDERING: Relaxed — monitoring gauge, no publication.
            active.fetch_add(1, Ordering::Relaxed);
        }
        tel.reactor_turn_seconds.observe_timer(turn_timer);
    }
    // Shutdown: drop every connection; Session destructors roll back all
    // open transactions (locks + epoch pins released).
    // ORDERING: Relaxed — monitoring gauge, no publication.
    active.fetch_sub(conns.len() as u64, Ordering::Relaxed);
    conns.clear();
}

/// Moves a `ReplicaHello` connection off the event loop onto a dedicated
/// blocking thread running the WAL streamer, registered so shutdown can
/// sever and join it.
fn handoff_replica(
    engine: &Arc<Engine>,
    replication: &Arc<ReplicationState>,
    handoffs: &HandoffRegistry,
    stream: TcpStream,
    corr: u64,
    last_epoch: i64,
) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let (Ok(kill_handle), Ok(read_half)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let engine = Arc::clone(engine);
    let replication = Arc::clone(replication);
    handoffs.spawn(kill_handle, move || {
        let reader = std::io::BufReader::new(read_half);
        let _ =
            replication::serve_replica(&engine, &replication, &stream, reader, corr, last_epoch);
        // The registry's handle keeps the socket open; close it now so the
        // replica sees EOF and reconnects.
        let _ = stream.shutdown(std::net::Shutdown::Both);
    });
}

fn update_interest(
    epoll: &Epoll,
    token: u64,
    conn: &mut Conn<'_>,
    max_out: usize,
    tel: &livegraph_core::Telemetry,
) {
    let mut want = libc::EPOLLRDHUP;
    // Backpressure: stop reading while the peer owes us a drain.
    if conn.out.len() < max_out {
        want |= libc::EPOLLIN;
    } else if conn.interest & libc::EPOLLIN != 0 {
        // Transition into the paused state — one stall, however long the
        // peer takes to drain.
        tel.reactor_backpressure_stalls.inc();
    }
    if !conn.out.is_empty() {
        want |= libc::EPOLLOUT;
    }
    if want != conn.interest
        && epoll
            .modify(conn.stream.as_raw_fd(), want, token)
            .is_ok()
    {
        conn.interest = want;
    }
}

/// Services one connection after a readiness event: drains the socket,
/// decodes and dispatches complete frames, and flushes the outbound buffer.
fn pump(
    conn: &mut Conn<'_>,
    read_buf: &mut [u8],
    max_out: usize,
    ready: u32,
) -> Result<(), Close> {
    // Write first: freeing outbound space may lift backpressure and let the
    // decode loop below make progress on frames buffered while paused.
    if ready & libc::EPOLLOUT != 0 || !conn.out.is_empty() {
        flush_nonblocking(&conn.stream, &mut conn.out).map_err(|_| Close::Gone)?;
    }

    // Dispatch any complete frames buffered from earlier reads (progress
    // made possible by the flush above, not by new bytes).
    dispatch_buffered(conn, max_out)?;

    let mut peer_eof = ready & libc::EPOLLRDHUP != 0;
    if ready & libc::EPOLLIN != 0 {
        loop {
            if conn.out.len() >= max_out {
                break; // backpressured: leave the rest in the kernel buffer
            }
            match (&conn.stream).read(read_buf) {
                Ok(0) => {
                    peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.accum.push(&read_buf[..n]);
                    dispatch_buffered(conn, max_out)?;
                    if n < read_buf.len() {
                        break; // kernel buffer drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Close::Gone),
            }
        }
    }

    if peer_eof {
        // Half-close: the client is gone for good as far as the protocol is
        // concerned (our clients never shutdown(Write) and keep reading).
        // Mid-frame trailing bytes are simply dropped with the connection.
        return Err(Close::Gone);
    }

    flush_nonblocking(&conn.stream, &mut conn.out).map_err(|_| Close::Gone)?;
    Ok(())
}

/// Decodes and dispatches every complete frame in the accumulator, stopping
/// early if the outbound buffer crosses the watermark.
fn dispatch_buffered(conn: &mut Conn<'_>, max_out: usize) -> Result<(), Close> {
    while conn.out.len() < max_out {
        let (corr, request) = match conn.accum.next_request() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => return Err(Close::Gone), // desynchronized stream
        };
        if conn.first {
            conn.first = false;
            if let Request::ReplicaHello { last_epoch } = request {
                return Err(Close::Replica { corr, last_epoch });
            }
        }
        let Conn {
            session,
            out,
            stream,
            ..
        } = conn;
        let mut io_failed = false;
        let served = session.handle_request(request, &mut |resp| {
            write_response(&mut out.buf, corr, resp)?;
            // Opportunistic drain for streaming responses: without it a
            // single unbounded Neighbors scan would buffer its whole
            // stream before the loop's post-dispatch flush runs.
            if out.len() >= max_out {
                if let Err(e) = flush_nonblocking(stream, out) {
                    io_failed = true;
                    return Err(e);
                }
            }
            Ok(())
        });
        if served.is_err() || io_failed {
            // `handle_request` only fails when *emit* fails (session-level
            // errors become Error responses), i.e. the transport is dead.
            return Err(Close::Gone);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use livegraph_core::{LiveGraph, LiveGraphOptions, DEFAULT_LABEL};

    fn start_reactor(threads: usize) -> ReactorServer {
        let engine = Arc::new(Engine::Plain(
            LiveGraph::open(
                LiveGraphOptions::in_memory()
                    .with_capacity(1 << 22)
                    .with_max_vertices(1 << 12),
            )
            .unwrap(),
        ));
        ReactorServer::start(
            engine,
            "127.0.0.1:0",
            ReactorConfig::default().with_event_threads(threads),
        )
        .unwrap()
    }

    #[test]
    fn reactor_serves_basic_requests_and_shuts_down() {
        let server = start_reactor(2);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        let txn = client.begin_write().unwrap();
        let a = client.create_vertex(txn, b"a").unwrap();
        let b = client.create_vertex(txn, b"b").unwrap();
        client.put_edge(Some(txn), a, DEFAULT_LABEL, b, b"e").unwrap();
        client.commit(txn).unwrap();
        assert_eq!(client.neighbors(None, a, DEFAULT_LABEL, 0).unwrap(), vec![b]);
        assert_eq!(client.get_vertex(None, a).unwrap().unwrap(), b"a");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn many_connections_share_one_loop_thread() {
        // Far more concurrent connections than loop threads: the blocking
        // pool would deadlock here (persistent sessions > workers); the
        // reactor must serve all of them interleaved.
        let server = start_reactor(1);
        let mut clients: Vec<Client> = (0..32)
            .map(|_| Client::connect(server.local_addr()).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let v = c.create_vertex_auto(format!("v{i}").as_bytes()).unwrap();
            assert_eq!(v as usize, i);
        }
        for c in clients.iter_mut() {
            c.ping().unwrap();
        }
        assert_eq!(server.active_connections(), 32);
        drop(clients);
        server.shutdown();
    }

    #[test]
    fn pipelined_frames_on_one_connection_are_served_in_order() {
        use crate::protocol::{read_response, write_request, Request, Response};
        let server = start_reactor(1);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
        let mut reader = std::io::BufReader::new(stream);
        // Queue a burst of requests before reading anything back.
        for corr in 0..64u64 {
            write_request(
                &mut writer,
                corr,
                &Request::CreateVertex {
                    txn: crate::protocol::TxnHandle::AUTO,
                    properties: corr.to_le_bytes().to_vec(),
                },
            )
            .unwrap();
        }
        writer.flush().unwrap();
        let mut scratch = Vec::new();
        for corr in 0..64u64 {
            let (rcorr, resp) = read_response(&mut reader, &mut scratch)
                .unwrap()
                .expect("response present");
            assert_eq!(rcorr, corr, "responses arrive in request order");
            assert!(matches!(resp, Response::VertexCreated { .. }));
        }
        server.shutdown();
    }

    #[test]
    fn disconnect_mid_txn_rolls_back_via_session_drop() {
        let server = start_reactor(1);
        let mut holder = Client::connect(server.local_addr()).unwrap();
        let txn = holder.begin_write().unwrap();
        let v = holder.create_vertex(txn, b"uncommitted").unwrap();
        // Vanish without commit: the reactor must drop the session and roll
        // the transaction back, so the vertex never becomes visible.
        holder.close();
        let mut observer = Client::connect(server.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            // The write itself was never committed, so visibility is
            // immediate-negative; poll active_connections to confirm the
            // server actually reaped the dropped connection too.
            if server.active_connections() == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never reaped the dropped connection"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(observer.get_vertex(None, v).unwrap(), None);
        drop(observer);
        server.shutdown();
    }

    #[test]
    fn backpressure_pauses_reading_but_never_loses_responses() {
        // A client that floods large streaming requests while reading
        // nothing must not balloon server memory without bound: once the
        // loopback buffers and the outbound watermark are full, the loop
        // stops reading it (one counted stall). Once the client starts
        // reading, every response must still arrive, complete and in order.
        use crate::protocol::{read_response, write_request, Request, Response};
        let server = start_reactor(1);
        let mut setup = Client::connect(server.local_addr()).unwrap();
        let txn = setup.begin_write().unwrap();
        let src = setup.create_vertex(txn, b"hub").unwrap();
        for i in 0..2000u64 {
            let dst = setup.create_vertex(txn, b"d").unwrap();
            setup
                .put_edge(Some(txn), src, DEFAULT_LABEL, dst, &i.to_le_bytes())
                .unwrap();
        }
        setup.commit(txn).unwrap();

        // `setup` stays open as the metrics connection.
        let mut stalls = || {
            setup
                .metrics_dump()
                .unwrap()
                .counters
                .into_iter()
                .find(|(name, _)| name == "livegraph_reactor_backpressure_stalls_total")
                .map_or(0, |(_, v)| v)
        };
        assert_eq!(stalls(), 0);

        let stream = TcpStream::connect(server.local_addr()).unwrap();
        // Requests sent after the pause pile up unread in the kernel; a
        // write timeout turns an overfull socket into a failure, not a hang.
        stream
            .set_write_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
        let mut reader = std::io::BufReader::new(stream);
        // Each request streams ~16 KB of replies and loopback socket buffers
        // absorb megabytes of them, so keep sending, replies unread, until
        // the loop reports the stall.
        const BATCH: u64 = 128;
        const MAX_REQUESTS: u64 = 8192;
        let scan = Request::Neighbors {
            txn: crate::protocol::TxnHandle::AUTO,
            vertex: src,
            label: DEFAULT_LABEL,
            limit: 0,
        };
        let mut sent = 0u64;
        while stalls() == 0 {
            assert!(sent < MAX_REQUESTS, "no backpressure stall after {sent} unread requests");
            for corr in sent..sent + BATCH {
                write_request(&mut writer, corr, &scan).unwrap();
            }
            writer.flush().unwrap();
            sent += BATCH;
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // Now read everything; each Neighbors request streams 2000 dsts in
        // two chunks (1024 + 976).
        let mut scratch = Vec::new();
        for corr in 0..sent {
            let mut got = 0usize;
            loop {
                let (rcorr, resp) = read_response(&mut reader, &mut scratch)
                    .unwrap()
                    .expect("stream alive");
                assert_eq!(rcorr, corr);
                match resp {
                    Response::NeighborChunk { dsts, last } => {
                        got += dsts.len();
                        if last {
                            break;
                        }
                    }
                    other => panic!("expected NeighborChunk, got {other:?}"),
                }
            }
            assert_eq!(got, 2000);
        }
        assert!(stalls() >= 1);
        drop(setup);
        server.shutdown();
    }

    #[test]
    fn finished_replica_handoff_threads_are_joined() {
        // A sharded engine answers ReplicaHello with `Unsupported` and the
        // streamer thread returns at once, like a replica link that drops.
        use crate::protocol::{read_response, write_request, ErrorCode, Request, Response};
        use livegraph_core::{ShardedGraph, ShardedGraphOptions};
        let engine = ShardedGraph::open(ShardedGraphOptions::in_memory(2)).unwrap();
        let engine = Arc::new(Engine::Sharded(engine));
        let server =
            ReactorServer::start(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap();
        for _ in 0..8 {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            write_request(&mut stream, 7, &Request::ReplicaHello { last_epoch: 0 }).unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let (corr, resp) = read_response(&mut reader, &mut Vec::new())
                .unwrap()
                .expect("reply");
            assert_eq!(corr, 7);
            assert!(matches!(resp, Response::Error { code: ErrorCode::Unsupported, .. }));
            drop((reader, stream));
            // Let this streamer end before the next one registers.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while !server.handoffs.streamers.lock().iter().all(|(_, t)| t.is_finished()) {
                assert!(std::time::Instant::now() < deadline, "streamer never ended");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let held = server.handoffs.streamers.lock().len();
        assert!(held <= 1, "registry holds {held} handoff threads after 8 reconnects");
        server.shutdown();
    }
}
