//! Remote (client/server) backend for the LinkBench driver.
//!
//! [`RemoteBackend`] speaks the `livegraph-server` wire protocol, so every
//! existing workload — the DFLT/TAO LinkBench mixes, base-graph loading,
//! latency experiments — runs unmodified against a live server. Driver
//! threads share a fixed set of [`PipelinedClient`] connections (one set
//! for the primary, one per read replica), issue one auto-commit request
//! per operation and retry on write conflicts exactly like the in-process
//! backends do. `depth = 1` gives request/response connections; a larger
//! depth lets threads overlap their requests on one socket.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use livegraph_core::HistogramSnapshot;
use livegraph_server::replication::jittered;
use livegraph_server::{ClientError, MetricsReply, PipelinedClient};

use livegraph_core::DEFAULT_LABEL;

use crate::backends::LinkBenchBackend;

/// How often a single logical operation may be re-driven over a *fresh*
/// connection after transport failures before the workload panics. (Write
/// conflicts are retried server-side and do not count against this.)
///
/// Re-driving gives writes *at-least-once* semantics: if the connection
/// dies after the server committed but before the response arrived, the
/// retry commits a second time (e.g. `add_node` allocates two vertices).
/// That is the right trade-off for a workload driver — LinkBench measures
/// throughput, not exactly-once delivery — but don't lift this retry loop
/// into an application client without request deduplication.
const TRANSPORT_RETRIES: usize = 3;

/// Dial attempts when replacing a poisoned connection. Dials back off
/// exponentially with jitter between attempts, so a backend whose server
/// just restarted rides out the gap instead of failing every operation
/// during it.
const DIAL_ATTEMPTS: usize = 5;

/// First re-dial backoff; doubles per failed attempt up to
/// [`DIAL_BACKOFF_CAP`], jittered ±50% so concurrent slots spread out.
const DIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Re-dial backoff cap.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(400);

/// A fixed set of pipelined connections to one server, shared by all
/// driver threads. A connection is not exclusively borrowed —
/// [`PipelinedClient`] is `&self`-shared, so several threads may keep
/// requests in flight on the *same* socket — but an operation goes to an
/// idle connection when there is one.
struct PipelinedSet {
    addr: SocketAddr,
    depth: usize,
    /// Slots are individually replaceable: when a connection poisons, the
    /// first thread to notice re-dials it; others racing on the same slot
    /// see the fresh `Arc` and retry on it.
    conns: Vec<Mutex<Arc<PipelinedClient>>>,
    next: AtomicUsize,
}

impl PipelinedSet {
    /// Dials every connection eagerly (so steady-state benchmarks never
    /// measure connection setup). These dials fail fast: at construction
    /// time a dead server is a configuration error, not a transient fault.
    fn connect(addr: impl ToSocketAddrs, connections: usize, depth: usize) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved"))?;
        let conns = (0..connections.max(1))
            .map(|_| Ok(Mutex::new(Arc::new(PipelinedClient::connect(addr, depth)?))))
            .collect::<std::io::Result<_>>()?;
        Ok(Self {
            addr,
            depth,
            conns,
            next: AtomicUsize::new(0),
        })
    }

    /// Checks out a connection: the first idle one (no operation holds a
    /// clone of its `Arc`) from a round-robin start, else the start one,
    /// shared. The idle test runs under the slot lock, so with one depth-1
    /// connection per driver thread no two threads ever wait on one socket
    /// — request/response, as a connection pool would give.
    fn get(&self) -> (usize, Arc<PipelinedClient>) {
        let n = self.conns.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for i in (0..n).map(|k| (start + k) % n) {
            let slot = self.conns[i].lock();
            if Arc::strong_count(&slot) == 1 {
                return (i, Arc::clone(&slot));
            }
        }
        (start % n, Arc::clone(&self.conns[start % n].lock()))
    }

    /// Replaces slot `i` with a fresh connection, unless another thread
    /// already did (then the current occupant is returned as-is). Dials
    /// with capped exponential backoff + jitter, holding the slot lock, so
    /// right after a server restart every thread on the slot waits for one
    /// replacement instead of erroring out or dialing its own.
    fn replace(&self, i: usize, poisoned: &Arc<PipelinedClient>) -> std::io::Result<Arc<PipelinedClient>> {
        let mut slot = self.conns[i].lock();
        if Arc::ptr_eq(&slot, poisoned) {
            let mut backoff = DIAL_BACKOFF;
            let mut attempt = 0;
            *slot = Arc::new(loop {
                match PipelinedClient::connect(self.addr, self.depth) {
                    Ok(conn) => break conn,
                    Err(e) if attempt + 1 == DIAL_ATTEMPTS => return Err(e),
                    Err(_) => {
                        attempt += 1;
                        std::thread::sleep(jittered(backoff));
                        backoff = (backoff * 2).min(DIAL_BACKOFF_CAP);
                    }
                }
            });
        }
        Ok(Arc::clone(&slot))
    }

    /// Runs one operation with conflict + transport retries. Conflicts are
    /// normal SI behaviour; a poisoned connection is re-dialed in place
    /// (all threads sharing it fail over to the replacement) and the op
    /// re-driven.
    fn run<R>(&self, op: impl Fn(&PipelinedClient) -> Result<R, ClientError>) -> R {
        let (slot, mut conn) = self.get();
        let mut transport_failures = 0;
        loop {
            match op(&conn) {
                Ok(r) => return r,
                Err(e) if e.is_write_conflict() => continue,
                Err(e) if e.poisons_connection() => {
                    transport_failures += 1;
                    if transport_failures > TRANSPORT_RETRIES {
                        panic!("remote backend gave up after {transport_failures} transport failures: {e}");
                    }
                    conn = match self.replace(slot, &conn) {
                        Ok(c) => c,
                        Err(e) => panic!("remote backend could not re-dial: {e}"),
                    };
                }
                Err(e) => panic!("unexpected error in workload: {e}"),
            }
        }
    }
}

/// LinkBench backend running against a LiveGraph server over TCP,
/// optionally fanning reads out across a set of read replicas.
pub struct RemoteBackend {
    /// Connections to the primary; all writes (and, with no replicas,
    /// reads too) go here.
    primary: PipelinedSet,
    /// One connection set per read replica. Reads round-robin across
    /// these; writes never touch them (replicas reject writes until
    /// promoted).
    replicas: Vec<PipelinedSet>,
    next_read: AtomicUsize,
}

impl RemoteBackend {
    /// Connects `connections` shared connections to the server at `addr`,
    /// each keeping up to `depth` requests in flight.
    ///
    /// With `depth = 1` and one connection per driver thread this is
    /// request/response. A larger depth lets threads overlap requests on
    /// shared sockets, so remote throughput is no longer bounded by
    /// (client threads × round-trip time). Against the thread-pool
    /// `Server`, its `ServerConfig::workers` must be at least
    /// `connections` — the connections are persistent sessions, and a
    /// session beyond the server's handler count queues unserved. The
    /// reactor (`--reactor`) has no such limit.
    pub fn connect(addr: impl ToSocketAddrs, connections: usize, depth: usize) -> std::io::Result<Self> {
        Self::connect_with_replicas(addr, &[], connections, depth)
    }

    /// Like [`RemoteBackend::connect`], but fans read operations out
    /// round-robin across `replicas` (each with its own `connections`
    /// connections) while writes keep going to the primary at `addr`.
    ///
    /// Replica reads are *epoch-consistent but possibly stale*: each
    /// replica serves a fully-applied epoch prefix of the primary's
    /// history, so a read may miss the newest writes but never observes a
    /// torn transaction. LinkBench's read mix tolerates that (a miss on a
    /// just-created node counts like any other read miss); do not use this
    /// constructor for workloads that assert read-your-writes.
    pub fn connect_with_replicas(
        addr: impl ToSocketAddrs,
        replicas: &[SocketAddr],
        connections: usize,
        depth: usize,
    ) -> std::io::Result<Self> {
        Ok(Self {
            primary: PipelinedSet::connect(addr, connections, depth)?,
            replicas: replicas
                .iter()
                .map(|r| PipelinedSet::connect(r, connections, depth))
                .collect::<std::io::Result<_>>()?,
            next_read: AtomicUsize::new(0),
        })
    }

    /// Samples the primary's full telemetry registry (`MetricsDump`) over
    /// one of the backend's own connections. Call at the end of a run so
    /// bench bins can report *server-side* latency next to the driver's
    /// client-side numbers. `None` if the dump could not be fetched (old
    /// server, dead connection).
    pub fn server_metrics(&self) -> Option<MetricsReply> {
        self.primary.get().1.metrics_dump().ok()
    }

    /// Human-readable server-side latency lines (one per non-empty
    /// duration histogram: `name p50/p95/p99/max`), from a fresh
    /// [`Self::server_metrics`] sample. Empty string if unavailable.
    pub fn server_latency_report(&self) -> String {
        let Some(metrics) = self.server_metrics() else {
            return String::new();
        };
        let mut out = String::new();
        for h in &metrics.histograms {
            if h.count == 0 || !h.name.ends_with("_seconds") {
                continue;
            }
            let snap = HistogramSnapshot {
                name: h.name.clone(),
                count: h.count,
                sum: h.sum,
                max: h.max,
                buckets: h.buckets.clone(),
            };
            let ms = |ns: u64| ns as f64 / 1e6;
            out.push_str(&format!(
                "  server {:<42} n={:<9} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms\n",
                h.name,
                h.count,
                ms(snap.p50()),
                ms(snap.p95()),
                ms(snap.p99()),
                ms(h.max),
            ));
        }
        out
    }

    /// Where the next read goes: the next replica in round-robin order, or
    /// the primary when no replicas were configured.
    fn read_set(&self) -> &PipelinedSet {
        if self.replicas.is_empty() {
            return &self.primary;
        }
        let n = self.next_read.fetch_add(1, Ordering::Relaxed);
        &self.replicas[n % self.replicas.len()]
    }
}

impl LinkBenchBackend for RemoteBackend {
    fn add_node(&self, properties: &[u8]) -> u64 {
        self.primary.run(|c| c.create_vertex_auto(properties))
    }

    fn get_node(&self, id: u64) -> Option<Vec<u8>> {
        self.read_set().run(|c| c.get_vertex(id))
    }

    fn update_node(&self, id: u64, properties: &[u8]) -> bool {
        self.primary.run(|c| match c.put_vertex(id, properties) {
            Ok(()) => Ok(true),
            Err(e) if e.is_vertex_not_found() => Ok(false),
            Err(e) => Err(e),
        })
    }

    fn add_link(&self, src: u64, dst: u64, properties: &[u8]) {
        self.primary.run(|c| lenient(c.put_edge(src, DEFAULT_LABEL, dst, properties)))
    }

    fn delete_link(&self, src: u64, dst: u64) {
        self.primary.run(|c| lenient(c.delete_edge(src, DEFAULT_LABEL, dst)))
    }

    fn update_link(&self, src: u64, dst: u64, properties: &[u8]) {
        self.add_link(src, dst, properties);
    }

    fn get_link(&self, src: u64, dst: u64) -> bool {
        self.read_set().run(|c| c.get_edge(src, DEFAULT_LABEL, dst)).is_some()
    }

    fn get_link_list(&self, src: u64, limit: usize) -> usize {
        if limit == 0 {
            return 0;
        }
        self.read_set().run(|c| c.neighbors(src, DEFAULT_LABEL, limit as u64)).len()
    }

    fn count_links(&self, src: u64) -> usize {
        self.read_set().run(|c| c.degree(src, DEFAULT_LABEL)) as usize
    }

    fn name(&self) -> &'static str {
        "remote"
    }
}

/// Edge writes ignore dangling vertex ids, as the in-process backends do.
fn lenient(r: Result<bool, ClientError>) -> Result<(), ClientError> {
    match r {
        Ok(_) => Ok(()),
        Err(e) if e.is_vertex_not_found() => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livegraph_core::{LiveGraph, LiveGraphOptions};
    use livegraph_server::{Engine, FaultProxy, ReactorConfig, ReactorServer, Server, ServerConfig};
    use std::sync::Arc;

    fn engine() -> Arc<Engine> {
        let graph = LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 22)
                .with_max_vertices(1 << 12),
        )
        .unwrap();
        Arc::new(Engine::Plain(graph))
    }

    /// A thread-pool server with `workers` handler threads. A connection
    /// beyond that count queues unserved (see `ServerConfig::workers`).
    fn loopback_server(workers: usize) -> Server {
        Server::start(engine(), "127.0.0.1:0", ServerConfig::default().with_workers(workers)).unwrap()
    }

    /// The whole LinkBench surface, sequentially and then from concurrent
    /// threads overlapping requests on the backend's shared connections,
    /// plus a server metrics sample over those same connections.
    fn linkbench_surface(addr: SocketAddr, connections: usize) {
        let backend = Arc::new(RemoteBackend::connect(addr, connections, 16).unwrap());
        assert_eq!(backend.name(), "remote");
        let a = backend.add_node(b"a");
        let b = backend.add_node(b"b");
        assert_eq!(backend.get_node(a), Some(b"a".to_vec()));
        assert!(backend.update_node(a, b"a2"));
        assert_eq!(backend.get_node(a), Some(b"a2".to_vec()));
        assert!(!backend.update_node(999_999, b"nope"));
        assert_eq!(backend.get_node(999_999), None);

        backend.add_link(a, b, b"ab");
        assert!(backend.get_link(a, b));
        assert!(!backend.get_link(b, a));
        assert_eq!(backend.count_links(a), 1);
        assert_eq!(backend.get_link_list(a, 10), 1);
        assert_eq!(backend.get_link_list(a, 0), 0);

        backend.update_link(a, b, b"ab2");
        assert_eq!(backend.count_links(a), 1, "update must not duplicate");

        backend.delete_link(a, b);
        assert!(!backend.get_link(a, b));
        assert_eq!(backend.count_links(a), 0);

        let seed = backend.add_node(b"seed");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let backend = Arc::clone(&backend);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let n = backend.add_node(b"n");
                        backend.add_link(seed, n, b"");
                        backend.get_link_list(seed, 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(backend.count_links(seed), 100);

        // Over one of the backend's own connections: with as many
        // connections as handler threads, an extra admin socket would
        // queue unserved on the thread-pool server.
        let metrics = backend.server_metrics().expect("metrics dump");
        let requests = metrics
            .histograms
            .iter()
            .find(|h| h.name == "livegraph_request_seconds")
            .expect("request histogram present");
        assert!(requests.count >= 2, "server timed {} requests", requests.count);
        let report = backend.server_latency_report();
        assert!(report.contains("livegraph_request_seconds"), "{report}");
    }

    #[test]
    fn remote_backend_runs_the_linkbench_surface_against_the_thread_pool_server() {
        let workers = 2;
        let server = loopback_server(workers);
        linkbench_surface(server.local_addr(), workers);
        server.shutdown();
    }

    #[test]
    fn remote_backend_runs_the_linkbench_surface_against_the_reactor() {
        let server = ReactorServer::start(engine(), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        linkbench_surface(server.local_addr(), 2);
        server.shutdown();
    }

    #[test]
    fn read_fanout_round_robins_across_replicas() {
        // Both "replicas" are the primary itself: this pins the routing
        // (reads go to the replica sets, writes to the primary set)
        // without standing up real replication, which
        // tests/replication.rs covers.
        let server = loopback_server(3);
        {
            let addr = server.local_addr();
            let backend = RemoteBackend::connect_with_replicas(addr, &[addr, addr], 1, 1).unwrap();
            let a = backend.add_node(b"a");
            for _ in 0..4 {
                assert_eq!(backend.get_node(a), Some(b"a".to_vec()));
            }
            assert_eq!(backend.next_read.load(Ordering::Relaxed), 4);
        }
        server.shutdown();
    }

    #[test]
    fn remote_backend_is_safe_under_concurrent_clients() {
        let server = loopback_server(4);
        {
            let backend = Arc::new(RemoteBackend::connect(server.local_addr(), 4, 1).unwrap());
            let seed = backend.add_node(b"seed");
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let backend = Arc::clone(&backend);
                handles.push(std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let n = backend.add_node(b"n");
                        backend.add_link(seed, n, b"");
                        backend.get_link_list(seed, 10);
                        if (i + t) % 3 == 0 {
                            backend.delete_link(seed, n);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(backend.count_links(seed) > 0);
        }
        server.shutdown();
    }

    /// Severing every connection between operations: each later op must
    /// succeed over a re-dialed connection, and the threads sharing a slot
    /// must converge on one replacement — at most one new dial per slot
    /// per kill.
    #[test]
    fn killed_connections_are_redialed_once_per_slot() {
        const CONNECTIONS: usize = 2;
        const THREADS: usize = 4;
        const ROUNDS: usize = 5;
        let server = loopback_server(2 * CONNECTIONS);
        let proxy = FaultProxy::start(server.local_addr()).unwrap();
        let backend = Arc::new(RemoteBackend::connect(proxy.addr(), CONNECTIONS, 4).unwrap());
        let hub = backend.add_node(b"hub");
        let barrier = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let backend = Arc::clone(&backend);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        barrier.wait(); // the connections are killed here
                        barrier.wait();
                        // More threads than slots: dead slots are shared.
                        let n = backend.add_node(b"n");
                        backend.add_link(hub, n, b"");
                    }
                })
            })
            .collect();
        for _ in 0..ROUNDS {
            barrier.wait();
            proxy.kill_connections();
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(backend.count_links(hub), THREADS * ROUNDS);
        // A slot no op touched in some round is re-dialed once for two
        // kills, hence `<=`; more dials would mean threads sharing a dead
        // slot each dialed their own replacement.
        let dials = server.connections_accepted() as usize;
        assert!(
            dials > CONNECTIONS && dials <= CONNECTIONS * (ROUNDS + 1),
            "{dials} dials for {CONNECTIONS} slots over {ROUNDS} kills"
        );
        drop(backend);
        proxy.shutdown();
        server.shutdown();
    }
}
