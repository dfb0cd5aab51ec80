//! The thread-pooled TCP server.
//!
//! One acceptor thread hands incoming connections to a fixed pool of
//! connection-handler threads over a condvar-backed queue (see
//! [`ConnQueue`] for why it is not a mutexed mpsc receiver). The pool size
//! bounds both the
//! number of concurrently served sessions *and* the engine worker slots the
//! service layer consumes: worker slots are allocated per OS thread and
//! never returned (see `core::epoch`), so a thread-per-connection design
//! would exhaust `max_workers` after a few hundred reconnects — the pool
//! keeps the server indefinitely accept-loop-stable instead. Connections
//! beyond the pool size queue in the channel until a handler frees up.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;

use livegraph_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use livegraph_core::sync::{Arc, Condvar, Mutex};

use crate::engine::Engine;
use crate::protocol::{read_request, write_response, Request};
use crate::replication::{self, ReplicationState};
use crate::session::Session;

/// Live-connection registry, so shutdown can sever in-flight sessions
/// (blocked in `read_request`) instead of waiting for clients to hang up.
#[derive(Default)]
struct ConnTracker {
    next_id: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnTracker {
    fn track(&self, stream: &TcpStream) -> u64 {
        // ORDERING: Relaxed — unique-id counter; atomicity suffices.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.conns.lock().insert(id, clone);
        }
        id
    }

    fn untrack(&self, id: u64) {
        self.conns.lock().remove(&id);
    }

    fn kill_all(&self) {
        for (_, stream) in self.conns.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Handoff queue between the acceptor and the handler pool.
///
/// This used to be an `mpsc::Receiver` behind a `Mutex`, which held the
/// lock *across the blocking `recv()`*: every idle handler serialized on
/// the one mutex (a lock convoy — the comment above the dequeue claimed
/// the lock was "held only while dequeuing", which was exactly what the
/// code did not do). Here the mutex is held only to push or pop; idle
/// handlers park on the condvar and a new connection wakes exactly one.
///
/// Generic over the payload so the model tests
/// (`crates/server/tests/model_pipeline.rs`) can drive the exact
/// production queue with a plain token instead of a `TcpStream`.
#[doc(hidden)]
pub struct ConnQueue<T> {
    state: Mutex<ConnQueueState<T>>,
    cv: Condvar,
}

struct ConnQueueState<T> {
    pending: VecDeque<T>,
    closed: bool,
}

impl<T> Default for ConnQueueState<T> {
    fn default() -> Self {
        ConnQueueState {
            pending: VecDeque::new(),
            closed: false,
        }
    }
}

impl<T> ConnQueue<T> {
    #[doc(hidden)]
    pub fn new() -> ConnQueue<T> {
        ConnQueue {
            state: Mutex::new(ConnQueueState::default()),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a connection; false once the queue is closed (the
    /// connection is dropped by the caller).
    #[doc(hidden)]
    pub fn push(&self, stream: T) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        st.pending.push_back(stream);
        drop(st);
        self.cv.notify_one();
        true
    }

    /// Marks the queue closed and wakes every parked handler. Already
    /// queued connections are still drained by `pop`.
    #[doc(hidden)]
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }

    /// Blocks until a connection is available; `None` once the queue is
    /// closed and drained.
    #[doc(hidden)]
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(stream) = st.pending.pop_front() {
                return Some(stream);
            }
            if st.closed {
                return None;
            }
            self.cv.wait(&mut st);
        }
    }
}

impl<T> Default for ConnQueue<T> {
    fn default() -> Self {
        ConnQueue::new()
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Connection-handler threads (= maximum concurrently served
    /// sessions; further connections queue).
    ///
    /// Size this **at or above the expected number of concurrently
    /// connected long-lived clients** (e.g. a `RemoteBackend`'s connection
    /// count): a persistent session beyond this count waits in the accept
    /// queue until some other session *disconnects*, which for a client
    /// that never hangs up is a deadlock. The queue exists to absorb bursts of
    /// short-lived connections, not to multiplex persistent ones.
    pub workers: usize,
    /// Set `TCP_NODELAY` on accepted sockets (request/response workloads
    /// want this on; only bulk one-directional streams benefit from
    /// Nagling).
    pub nodelay: bool,
    /// Replication role state shared with sessions and streaming threads.
    /// `None` hosts a plain writable primary (no semi-sync gate); pass
    /// [`ReplicationState::replica`] to host a read-only replica, or
    /// [`ReplicationState::primary`] with `sync_replicas > 0` for
    /// semi-synchronous commits.
    pub replication: Option<Arc<ReplicationState>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            nodelay: true,
            replication: None,
        }
    }
}

impl ServerConfig {
    /// Sets the handler-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the replication role state (see [`ServerConfig::replication`]).
    pub fn with_replication(mut self, state: Arc<ReplicationState>) -> Self {
        self.replication = Some(state);
        self
    }
}

/// A running LiveGraph server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, waits for in-flight sessions to
/// end and joins all threads.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
    replication: Arc<ReplicationState>,
    tracker: Arc<ConnTracker>,
    queue: Arc<ConnQueue<TcpStream>>,
}

impl Server {
    /// Binds `bind_addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine`.
    pub fn start(
        engine: Arc<Engine>,
        bind_addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let replication = config.replication.clone().unwrap_or_default();
        let tracker = Arc::new(ConnTracker::default());
        let queue = Arc::new(ConnQueue::new());

        let mut handlers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers.max(1) {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let connections = Arc::clone(&connections);
            let replication = Arc::clone(&replication);
            let tracker = Arc::clone(&tracker);
            let nodelay = config.nodelay;
            handlers.push(std::thread::spawn(move || {
                handler_loop(&engine, &replication, &tracker, &queue, &connections, nodelay)
            }));
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || accept_loop(&listener, &queue, &shutdown))
        };

        Ok(Server {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            handlers,
            connections,
            replication,
            tracker,
            queue,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        // ORDERING: Relaxed — monitoring counter, no data published.
        self.connections.load(Ordering::Relaxed)
    }

    /// The replication role state this server serves under (promotion,
    /// semi-sync watermarks, lag probes).
    pub fn replication(&self) -> &Arc<ReplicationState> {
        &self.replication
    }

    /// Stops accepting, severs every live connection (in-flight requests
    /// see a transport error, exactly like a crash from the client's point
    /// of view) and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop replication machinery first: wakes semi-sync commit waiters
        // and replica streaming threads so handler threads can exit.
        self.replication.halt();
        // Unblock the acceptor's blocking `accept` with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Sever live sessions: handler threads blocked in `read_request`
        // observe EOF/reset and drop their sessions (rolling back whatever
        // they held).
        self.tracker.kill_all();
        // Close the handoff queue: handlers drain any still-queued
        // connections and then observe the closure and exit.
        self.queue.close();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, queue: &ConnQueue<TcpStream>, shutdown: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return; // `stream` is the shutdown wake-up; drop both.
                }
                if !queue.push(stream) {
                    return;
                }
            }
            Err(_) if shutdown.load(Ordering::SeqCst) => return,
            // Transient accept failures (per-process fd pressure, aborted
            // handshakes) must not kill the service — but EMFILE-style
            // errors fail instantly, so back off instead of burning a core
            // exactly when the process is resource-starved. The nap is
            // sliced so the shutdown flag is observed within ~1ms rather
            // than after the full backoff.
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

fn handler_loop(
    engine: &Engine,
    replication: &ReplicationState,
    tracker: &ConnTracker,
    queue: &ConnQueue<TcpStream>,
    connections: &AtomicU64,
    nodelay: bool,
) {
    // `pop` parks on the queue's condvar (lock held only while dequeuing —
    // see `ConnQueue`), and returns `None` once the queue closes at
    // shutdown.
    while let Some(stream) = queue.pop() {
        // ORDERING: Relaxed — monitoring counter, no publication.
        connections.fetch_add(1, Ordering::Relaxed);
        if nodelay {
            let _ = stream.set_nodelay(true);
        }
        let id = tracker.track(&stream);
        // Any connection error (including a client vanishing mid-frame)
        // ends the session; Session's drop rolls back whatever it held.
        let _ = serve_connection(engine, replication, stream);
        tracker.untrack(id);
    }
}

/// Runs one connection's request loop to completion. A connection whose
/// *first* request is [`Request::ReplicaHello`] is handed over to the
/// replication streamer instead of a request/response session.
fn serve_connection(
    engine: &Engine,
    replication: &ReplicationState,
    stream: TcpStream,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut session = Session::with_replication(engine, Some(replication));
    let mut scratch = Vec::with_capacity(256);
    let mut first = true;
    while let Some((corr, request)) = read_request(&mut reader, &mut scratch)? {
        if first {
            first = false;
            if let Request::ReplicaHello { last_epoch } = request {
                drop(writer); // the streamer owns the write half
                return replication::serve_replica(
                    engine,
                    replication,
                    &stream,
                    reader,
                    corr,
                    last_epoch,
                );
            }
        }
        session.handle_request(request, &mut |resp| write_response(&mut writer, corr, resp))?;
        // Flush once per request, after all of its frames: a pipelining
        // client keeps the pipe busy with its own queued requests.
        writer.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use livegraph_core::{LiveGraph, LiveGraphOptions};

    fn start_server(workers: usize) -> Server {
        let engine = Arc::new(Engine::Plain(
            LiveGraph::open(
                LiveGraphOptions::in_memory()
                    .with_capacity(1 << 22)
                    .with_max_vertices(1 << 12),
            )
            .unwrap(),
        ));
        Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig::default().with_workers(workers),
        )
        .unwrap()
    }

    #[test]
    fn server_starts_pings_and_shuts_down() {
        let server = start_server(2);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        client.ping().unwrap();
        drop(client);
        server.shutdown();
    }

    #[test]
    fn queued_connections_are_served_as_handlers_free_up() {
        // One handler thread, three sequential clients: the second and
        // third queue until the previous session closes.
        let server = start_server(1);
        for i in 0..3u64 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            let v = client.create_vertex_auto(format!("c{i}").as_bytes()).unwrap();
            assert_eq!(v, i, "vertex ids allocate across sessions");
            drop(client);
        }
        // The pool survived all reconnects.
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.stats().unwrap().vertex_count, 3);
        drop(client);
        assert_eq!(server.connections_accepted(), 4);
        server.shutdown();
    }
}
