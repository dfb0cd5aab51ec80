//! The one adapter: every call lgbench makes into `livegraph-core`,
//! `livegraph-server` and `livegraph-analytics` goes through this file.
//!
//! The "one engine / one server / one client" refactors on the ROADMAP
//! therefore need a one-file fix here, and the operation semantics are
//! written down once:
//!
//! * `get_link_list` returns at most [`LINK_LIST_LIMIT`] links;
//! * a write that names a missing vertex (`VertexNotFound`) is tolerated —
//!   LinkBench ids may dangle — and counted, every other error fails the op;
//! * a write that hits a write-write conflict is retried up to
//!   [`CONFLICT_RETRY_CAP`] times, then fails;
//! * remote ops are auto-commit requests on a blocking [`Client`]; the
//!   server retries conflicts itself (`AUTOCOMMIT_RETRIES`, also 64).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use livegraph_analytics::{
    connected_components, pagerank, snapshot_to_csr, LiveSnapshot, PageRankOptions,
};
use livegraph_core::{
    Error, LiveGraph, LiveGraphOptions, ReadTxn, SyncMode, WriteTxn, DEFAULT_LABEL,
};
use livegraph_server::protocol::{read_request, read_response, write_request, write_response};
use livegraph_server::{
    Client, ClientError, Engine, ReactorConfig, ReactorServer, Request, Response, Session,
    TxnHandle,
};

use crate::inputs::{tag_of, Op, OpKind, Payload};
use crate::trace::{NoTrace, Sp, Spans, Tracer};

/// The engine and client types, under the names the rest of lgbench uses.
pub type Graph = LiveGraph;
pub type Conn = Client;

/// `get_link_list` limit (LinkBench's default range limit is 10 000; the
/// paper's DFLT runs and this repository's drivers use 1 000).
pub const LINK_LIST_LIMIT: usize = 1_000;
/// Conflict retries before a write counts as failed.
pub const CONFLICT_RETRY_CAP: u32 = 64;
/// Event threads of the in-process reactor server.
pub const REACTOR_EVENT_THREADS: usize = 1;
/// PageRank iterations per analytics round.
pub const PAGERANK_ITERATIONS: usize = 5;
/// Vertices and edges per base-load transaction.
const LOAD_BATCH: usize = 4_096;

/// The stated flush policy of a graph's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// WAL written, never synced.
    NoSync,
    /// Each commit group waits for a simulated 100 µs device flush.
    Simulated100us,
    /// Real `fdatasync` per commit group (side probe only).
    RealFsync,
}

impl Flush {
    pub fn name(self) -> &'static str {
        match self {
            Flush::NoSync => "nosync",
            Flush::Simulated100us => "simulated_100us",
            Flush::RealFsync => "fsync",
        }
    }
}

/// What one executed operation reports back.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Edges a scan visited (`get_link_list`), else 0.
    pub edges: u32,
    /// Conflict retries the write needed.
    pub retries: u32,
    /// The write named a missing vertex and was skipped.
    pub dangling: bool,
}

/// Why an operation failed.
#[derive(Debug)]
pub struct Failure(pub String);

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn fail(e: impl std::fmt::Display) -> Failure {
    Failure(e.to_string())
}

// ---------------------------------------------------------------------------
// Opening and loading
// ---------------------------------------------------------------------------

/// Opens (or recovers) a durable plain graph in `dir`.
pub fn open(dir: &Path, flush: Flush, max_vertices: usize) -> Result<LiveGraph, Failure> {
    let sync = match flush {
        Flush::NoSync => SyncMode::NoSync,
        Flush::Simulated100us => SyncMode::Simulated(Duration::from_micros(100)),
        Flush::RealFsync => SyncMode::Fsync,
    };
    LiveGraph::open(
        LiveGraphOptions::durable(dir)
            .with_sync_mode(sync)
            .with_capacity(8 << 30)
            .with_max_vertices(max_vertices),
    )
    .map_err(fail)
}

/// Loads vertices `0..n` (payload tag = id) and `edges` (payload tag = index).
pub fn load_base(g: &LiveGraph, n: u64, edges: &[(u64, u64)]) -> Result<(), Failure> {
    let mut payload = Payload::new();
    let ids: Vec<u64> = (0..n).collect();
    for chunk in ids.chunks(LOAD_BATCH) {
        let mut w = g.begin_write().map_err(fail)?;
        for &v in chunk {
            w.create_vertex_with_id(v, payload.node(v)).map_err(fail)?;
        }
        w.commit().map_err(fail)?;
    }
    for (c, chunk) in edges.chunks(LOAD_BATCH).enumerate() {
        let mut w = g.begin_write().map_err(fail)?;
        for (i, &(src, dst)) in chunk.iter().enumerate() {
            let tag = (c * LOAD_BATCH + i) as u64;
            w.put_edge(src, DEFAULT_LABEL, dst, payload.link(tag))
                .map_err(fail)?;
        }
        w.commit().map_err(fail)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The nine LinkBench ops, direct
// ---------------------------------------------------------------------------

/// Executes `op` with direct `ReadTxn`/`WriteTxn` calls.
#[inline]
pub fn direct<T: Tracer>(
    g: &LiveGraph,
    op: Op,
    tag: u64,
    payload: &mut Payload,
    t: &mut T,
) -> Result<Outcome, Failure> {
    if op.kind.is_read() {
        let token = t.open(Sp::OpRead);
        let r = direct_read(g, op, t);
        t.close(token, r.as_ref().map_or(0, |o| o.edges));
        r
    } else {
        let token = t.open(Sp::OpWrite);
        let r = direct_write(g, op, tag, payload, t);
        t.close(token, 0);
        r
    }
}

#[inline]
fn direct_read<T: Tracer>(g: &LiveGraph, op: Op, t: &mut T) -> Result<Outcome, Failure> {
    let read = t.leaf(Sp::BeginRead, || g.begin_read()).map_err(fail)?;
    let mut out = Outcome::default();
    match op.kind {
        OpKind::GetNode => {
            std::hint::black_box(
                t.leaf(Sp::GetVertex, || read.get_vertex(op.src).map(<[u8]>::len)),
            );
        }
        OpKind::GetLink => {
            std::hint::black_box(t.leaf(Sp::GetEdge, || {
                read.get_edge(op.src, DEFAULT_LABEL, op.dst)
                    .map(<[u8]>::len)
            }));
        }
        OpKind::CountLinks => {
            std::hint::black_box(t.leaf(Sp::Degree, || read.degree(op.src, DEFAULT_LABEL)));
        }
        OpKind::GetLinkList => {
            let token = t.open(Sp::ListScan);
            out.edges = link_list(&read, op.src) as u32;
            t.close(token, out.edges);
        }
        _ => unreachable!("direct_read is only called for read kinds"),
    }
    t.leaf(Sp::EndRead, || drop(read));
    Ok(out)
}

/// The bounded adjacency read: when the O(1) header degree says the whole
/// list fits the limit, stream it with the zero-check scan; otherwise use
/// the bounded iterator (never a counting scan just to choose).
#[inline]
fn link_list(read: &ReadTxn<'_>, src: u64) -> usize {
    match read.sealed_degree(src, DEFAULT_LABEL) {
        Some(degree) if degree <= LINK_LIST_LIMIT => {
            let (mut n, mut sum) = (0usize, 0u64);
            read.for_each_neighbor(src, DEFAULT_LABEL, |d| {
                n += 1;
                sum = sum.wrapping_add(d);
            });
            std::hint::black_box(sum);
            n
        }
        _ => read.edges(src, DEFAULT_LABEL).take(LINK_LIST_LIMIT).count(),
    }
}

#[inline]
fn direct_write<T: Tracer>(
    g: &LiveGraph,
    op: Op,
    tag: u64,
    payload: &mut Payload,
    t: &mut T,
) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    loop {
        let mut w = t.leaf(Sp::BeginWrite, || g.begin_write()).map_err(fail)?;
        let staged = stage_write(&mut w, op, tag, payload, t);
        let done = match staged {
            Ok(()) => t.leaf(Sp::Commit, || w.commit()).map(|_| ()),
            Err(Error::VertexNotFound(_)) => {
                out.dangling = true;
                w.abort();
                Ok(())
            }
            Err(e) => {
                w.abort();
                Err(e)
            }
        };
        match done {
            Ok(()) => return Ok(out),
            Err(Error::WriteConflict { .. }) if out.retries < CONFLICT_RETRY_CAP => {
                out.retries += 1
            }
            Err(e) => return Err(fail(e)),
        }
    }
}

#[inline]
fn stage_write<T: Tracer>(
    w: &mut WriteTxn<'_>,
    op: Op,
    tag: u64,
    payload: &mut Payload,
    t: &mut T,
) -> livegraph_core::Result<()> {
    match op.kind {
        OpKind::AddNode => t
            .leaf(Sp::CreateVertex, || w.create_vertex(payload.node(tag)))
            .map(|_| ()),
        OpKind::UpdateNode => t.leaf(Sp::PutVertex, || w.put_vertex(op.src, payload.node(tag))),
        OpKind::AddLink | OpKind::UpdateLink => t
            .leaf(Sp::PutEdge, || {
                w.put_edge(op.src, DEFAULT_LABEL, op.dst, payload.link(tag))
            })
            .map(|_| ()),
        OpKind::DeleteLink => t
            .leaf(Sp::DeleteEdge, || {
                w.delete_edge(op.src, DEFAULT_LABEL, op.dst)
            })
            .map(|_| ()),
        _ => unreachable!("stage_write is only called for write kinds"),
    }
}

// ---------------------------------------------------------------------------
// The same ops through the server: client, session and codec rungs
// ---------------------------------------------------------------------------

/// An in-process reactor server hosting one plain graph.
pub struct Served {
    server: ReactorServer,
    engine: Arc<Engine>,
}

/// Starts a reactor server with [`REACTOR_EVENT_THREADS`] event threads on
/// an ephemeral loopback port.
pub fn serve(g: LiveGraph) -> Result<Served, Failure> {
    let engine = Arc::new(Engine::Plain(g));
    let server = ReactorServer::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ReactorConfig::default().with_event_threads(REACTOR_EVENT_THREADS),
    )
    .map_err(fail)?;
    Ok(Served { server, engine })
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn graph(&self) -> &LiveGraph {
        self.engine
            .as_plain()
            .expect("lgbench serves a plain graph")
    }

    /// Stops the server (joining its threads) and hands the graph back.
    pub fn stop(self) -> Result<LiveGraph, Failure> {
        self.server.shutdown();
        match Arc::try_unwrap(self.engine) {
            Ok(Engine::Plain(g)) => Ok(g),
            Ok(_) => Err(Failure("served engine is not a plain graph".into())),
            Err(_) => Err(Failure(
                "the server still holds the engine after shutdown".into(),
            )),
        }
    }
}

/// One blocking connection.
pub fn connect(addr: SocketAddr) -> Result<Client, Failure> {
    Client::connect(addr).map_err(fail)
}

/// A `Ping` round trip: the transport floor.
pub fn ping(c: &mut Client) -> Result<(), Failure> {
    c.ping().map_err(fail)
}

/// Executes `op` as one auto-commit request on `c`.
#[inline]
pub fn remote<T: Tracer>(
    c: &mut Client,
    op: Op,
    tag: u64,
    payload: &mut Payload,
    t: &mut T,
) -> Result<Outcome, Failure> {
    let span = if op.kind.is_read() {
        Sp::OpRead
    } else {
        Sp::OpWrite
    };
    let token = t.open(span);
    let r = t.leaf(Sp::ClientCall, || remote_call(c, op, tag, payload));
    t.close(token, r.as_ref().map_or(0, |o| o.edges));
    r
}

fn remote_call(
    c: &mut Client,
    op: Op,
    tag: u64,
    payload: &mut Payload,
) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    let lenient = |r: Result<(), ClientError>, out: &mut Outcome| match r {
        Ok(()) => Ok(()),
        Err(e) if e.is_vertex_not_found() => {
            out.dangling = true;
            Ok(())
        }
        Err(e) => Err(fail(e)),
    };
    match op.kind {
        OpKind::GetNode => {
            std::hint::black_box(c.get_vertex(None, op.src).map_err(fail)?);
        }
        OpKind::GetLink => {
            std::hint::black_box(
                c.get_edge(None, op.src, DEFAULT_LABEL, op.dst)
                    .map_err(fail)?,
            );
        }
        OpKind::CountLinks => {
            std::hint::black_box(c.degree(None, op.src, DEFAULT_LABEL).map_err(fail)?);
        }
        OpKind::GetLinkList => {
            out.edges = c
                .neighbors(None, op.src, DEFAULT_LABEL, LINK_LIST_LIMIT as u64)
                .map_err(fail)?
                .len() as u32;
        }
        OpKind::AddNode => {
            c.create_vertex_auto(payload.node(tag)).map_err(fail)?;
        }
        OpKind::UpdateNode => lenient(c.put_vertex(None, op.src, payload.node(tag)), &mut out)?,
        OpKind::AddLink | OpKind::UpdateLink => lenient(
            c.put_edge(None, op.src, DEFAULT_LABEL, op.dst, payload.link(tag))
                .map(|_| ()),
            &mut out,
        )?,
        OpKind::DeleteLink => lenient(
            c.delete_edge(None, op.src, DEFAULT_LABEL, op.dst)
                .map(|_| ()),
            &mut out,
        )?,
    }
    Ok(out)
}

/// How a driver executes its ops: straight on the engine, or through a
/// connection.
pub enum Via<'a> {
    Direct(&'a LiveGraph),
    Remote(&'a mut Client),
}

impl Via<'_> {
    #[inline]
    pub fn exec<T: Tracer>(
        &mut self,
        op: Op,
        tag: u64,
        payload: &mut Payload,
        t: &mut T,
    ) -> Result<Outcome, Failure> {
        match self {
            Via::Direct(g) => direct(g, op, tag, payload, t),
            Via::Remote(c) => remote(c, op, tag, payload, t),
        }
    }

    /// [`Via::exec`], traced into `spans` (under op id `tag`) when given.
    #[inline]
    pub fn exec_maybe_traced(
        &mut self,
        spans: Option<&mut Spans>,
        op: Op,
        tag: u64,
        payload: &mut Payload,
    ) -> Result<Outcome, Failure> {
        match spans {
            Some(s) => {
                s.set_op(tag);
                self.exec(op, tag, payload, s)
            }
            None => self.exec(op, tag, payload, &mut NoTrace),
        }
    }
}

/// The auto-commit wire request for `op` (what [`remote`] sends).
pub fn request_for(op: Op, tag: u64, payload: &mut Payload) -> Request {
    let txn = TxnHandle::AUTO;
    let label = DEFAULT_LABEL;
    match op.kind {
        OpKind::GetNode => Request::GetVertex {
            txn,
            vertex: op.src,
        },
        OpKind::GetLink => Request::GetEdge {
            txn,
            src: op.src,
            label,
            dst: op.dst,
        },
        OpKind::CountLinks => Request::Degree {
            txn,
            vertex: op.src,
            label,
        },
        OpKind::GetLinkList => Request::Neighbors {
            txn,
            vertex: op.src,
            label,
            limit: LINK_LIST_LIMIT as u64,
        },
        OpKind::AddNode => Request::CreateVertex {
            txn,
            properties: payload.node(tag).to_vec(),
        },
        OpKind::UpdateNode => Request::PutVertex {
            txn,
            vertex: op.src,
            properties: payload.node(tag).to_vec(),
        },
        OpKind::AddLink | OpKind::UpdateLink => Request::PutEdge {
            txn,
            src: op.src,
            label,
            dst: op.dst,
            properties: payload.link(tag).to_vec(),
        },
        OpKind::DeleteLink => Request::DeleteEdge {
            txn,
            src: op.src,
            label,
            dst: op.dst,
        },
    }
}

/// A server-side session driven in-process (no socket, no codec).
pub struct SessionRung<'e> {
    session: Session<'e>,
}

/// A plain graph wrapped the way the server hosts it.
pub fn host(g: LiveGraph) -> Engine {
    Engine::Plain(g)
}

/// The graph inside [`host`]'s wrapper.
pub fn hosted(e: &Engine) -> &LiveGraph {
    e.as_plain().expect("lgbench hosts a plain graph")
}

/// Unwraps [`host`].
pub fn unhost(e: Engine) -> LiveGraph {
    match e {
        Engine::Plain(g) => g,
        _ => unreachable!("lgbench hosts a plain graph"),
    }
}

impl<'e> SessionRung<'e> {
    pub fn new(engine: &'e Engine) -> Self {
        Self {
            session: Session::new(engine),
        }
    }

    /// `Session::handle_request`, every response frame handed to `sink`.
    /// Returns false when the session answered with an error other than
    /// the tolerated `VertexNotFound`.
    pub fn handle(&mut self, req: Request, sink: &mut impl FnMut(&Response)) -> bool {
        let mut ok = true;
        self.session
            .handle_request(req, &mut |resp| {
                if let Response::Error { code, .. } = resp {
                    ok &= *code == livegraph_server::ErrorCode::VertexNotFound;
                }
                sink(resp);
                Ok(())
            })
            .expect("the sink never fails");
        ok
    }
}

/// Codec rung, encode half: appends one frame per request to `wire`.
pub fn encode_requests(requests: &[Request], wire: &mut Vec<u8>) {
    for (corr, req) in requests.iter().enumerate() {
        write_request(wire, corr as u64, req).expect("writing to a Vec");
    }
}

/// Codec rung, decode half: decodes every frame in `wire`.
pub fn decode_requests(mut wire: &[u8], mut each: impl FnMut(Request)) {
    let mut scratch = Vec::new();
    while let Some((_, req)) = read_request(&mut wire, &mut scratch).expect("own frames decode") {
        each(req);
    }
}

/// [`encode_requests`] for response frames.
pub fn encode_responses(responses: &[Response], wire: &mut Vec<u8>) {
    for (corr, resp) in responses.iter().enumerate() {
        write_response(wire, corr as u64, resp).expect("writing to a Vec");
    }
}

/// [`decode_requests`] for response frames.
pub fn decode_responses(mut wire: &[u8], mut each: impl FnMut(Response)) {
    let mut scratch = Vec::new();
    while let Some((_, resp)) = read_response(&mut wire, &mut scratch).expect("own frames decode") {
        each(resp);
    }
}

// ---------------------------------------------------------------------------
// Analytics on a fresh snapshot
// ---------------------------------------------------------------------------

/// One analytics round's timings and results.
pub struct Round {
    pub snapshot_open_ns: u64,
    pub sweep_s: f64,
    pub sweep_edges: u64,
    pub pagerank_s: f64,
    pub conncomp_s: f64,
    pub round_s: f64,
}

/// `begin_read` on the latest snapshot, then a full adjacency sweep
/// (`for_each_neighbor_chunk`, summing dst ids), PageRank
/// ([`PAGERANK_ITERATIONS`] iterations) and ConnComp, 1 kernel thread.
/// With `check` the sweep's edge count and the component labels are also
/// compared against a CSR built from the very same snapshot.
pub fn analytics_round(g: &LiveGraph, check: bool) -> Result<Round, Failure> {
    let t0 = Instant::now();
    let read = g.begin_read().map_err(fail)?;
    let t1 = Instant::now();
    let edges = sweep_in(&read);
    let t2 = Instant::now();
    let snapshot = LiveSnapshot::new(&read, DEFAULT_LABEL);
    let ranks = pagerank(
        &snapshot,
        PageRankOptions {
            iterations: PAGERANK_ITERATIONS,
            threads: 1,
            ..PageRankOptions::default()
        },
    );
    std::hint::black_box(&ranks);
    let t3 = Instant::now();
    let labels = connected_components(&snapshot, 1);
    let t4 = Instant::now();
    if check {
        let csr = snapshot_to_csr(&snapshot);
        if csr.num_edges() != edges {
            return Err(Failure(format!(
                "sweep visited {edges} edges, CSR of the same snapshot has {}",
                csr.num_edges()
            )));
        }
        if connected_components(&csr, 1) != labels {
            return Err(Failure(
                "ConnComp labels differ from the CSR of the same snapshot".into(),
            ));
        }
        let total: f64 = ranks.iter().sum();
        if !(0.99..=1.01).contains(&total) {
            return Err(Failure(format!("PageRank mass is {total}, expected 1")));
        }
    }
    Ok(Round {
        snapshot_open_ns: (t1 - t0).as_nanos() as u64,
        sweep_s: (t2 - t1).as_secs_f64(),
        sweep_edges: edges,
        pagerank_s: (t3 - t2).as_secs_f64(),
        conncomp_s: (t4 - t3).as_secs_f64(),
        round_s: (t4 - t0).as_secs_f64(),
    })
}

/// The full adjacency sweep: every vertex's list through
/// `for_each_neighbor_chunk`, summing dst ids. Returns the edges visited.
fn sweep_in(read: &ReadTxn<'_>) -> u64 {
    let (mut edges, mut sum) = (0u64, 0u64);
    for v in 0..read.vertex_count() {
        read.for_each_neighbor_chunk(v, DEFAULT_LABEL, |chunk| {
            edges += chunk.len() as u64;
            sum = chunk.iter().fold(sum, |s, &d| s.wrapping_add(d));
        });
    }
    std::hint::black_box(sum);
    edges
}

/// One sweep on a fresh snapshot: (edges visited, seconds).
pub fn sweep(g: &LiveGraph) -> Result<(u64, f64), Failure> {
    let read = g.begin_read().map_err(fail)?;
    let t0 = Instant::now();
    let edges = sweep_in(&read);
    Ok((edges, t0.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------------
// Maintenance and read-out
// ---------------------------------------------------------------------------

pub fn checkpoint(g: &LiveGraph) -> Result<(), Failure> {
    g.checkpoint().map_err(fail)
}

/// Size of the checkpoint file in `dir` (0 when there is none).
pub fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("checkpoint.dat")).map_or(0, |m| m.len())
}

pub fn compact(g: &LiveGraph) {
    g.compact();
}

/// Checks that a (re)opened graph serves a read.
pub fn first_read(g: &LiveGraph) -> Result<(), Failure> {
    g.begin_read().map(drop).map_err(fail)
}

/// What the oracle compares: counts plus order-independent checksums over
/// vertex payload tags and `(src, dst, payload tag)` of every live edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub vertices: u64,
    pub edges: u64,
    pub vertex_sum: u64,
    pub edge_sum: u64,
}

/// Checksum term of one vertex. Vertices created during the run get ids in
/// commit order, which two threads do not repeat; they enter the sum by
/// tag alone (`base_n` as their id).
#[inline]
pub fn vertex_term(id: u64, base_n: u64, tag: u64) -> u64 {
    crate::inputs::mix64(
        id.min(base_n).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ crate::inputs::mix64(tag),
    )
}

/// Checksum term of one live edge.
#[inline]
pub fn edge_term(src: u64, dst: u64, tag: u64) -> u64 {
    crate::inputs::mix64(
        crate::inputs::mix64(src).wrapping_add(dst.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            ^ crate::inputs::mix64(tag),
    )
}

/// Reads the whole graph back through a read transaction.
pub fn digest(g: &LiveGraph, base_n: u64) -> Result<Digest, Failure> {
    let read = g.begin_read().map_err(fail)?;
    let mut d = Digest::default();
    for (id, props) in read.vertices() {
        d.vertices += 1;
        d.vertex_sum = d
            .vertex_sum
            .wrapping_add(vertex_term(id, base_n, tag_of(props)));
        for e in read.edges(id, DEFAULT_LABEL) {
            d.edges += 1;
            d.edge_sum = d
                .edge_sum
                .wrapping_add(edge_term(id, e.dst, tag_of(e.properties)));
        }
    }
    Ok(d)
}

/// Counters and gauges read from `LiveGraph::stats()` / `metrics()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readout {
    pub live_bytes: u64,
    pub bump_bytes: u64,
    pub occupancy: f64,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub wal_groups: u64,
    pub wal_group_records: u64,
    pub sealed_scans: u64,
    pub checked_scans: u64,
    pub edge_lookups: u64,
    pub lookup_entries: u64,
    pub bloom_negatives: u64,
    pub compaction_passes: u64,
    pub entries_dropped: u64,
    pub blocks_freed: u64,
    /// Registry span means since the graph was opened, in µs (the registry's
    /// percentiles are bucket values and read the same on every run).
    pub lock_wait_mean_us: f64,
    pub fsync_wait_mean_us: f64,
    pub apply_mean_us: f64,
}

pub fn readout(g: &LiveGraph) -> Readout {
    let s = g.stats();
    let m = g.metrics();
    let mean_us = |name: &str| m.histogram(name).map_or(0.0, |h| h.mean() / 1e3);
    Readout {
        live_bytes: s.blocks.live_bytes() as u64,
        bump_bytes: s.blocks.bump_bytes as u64,
        occupancy: s.blocks.occupancy(),
        wal_bytes: s.wal_bytes,
        wal_syncs: s.wal_fsyncs,
        wal_groups: s.wal_groups,
        wal_group_records: s.wal_group_records,
        sealed_scans: s.scans.sealed_scans,
        checked_scans: s.scans.checked_scans,
        edge_lookups: s.scans.edge_lookups,
        lookup_entries: s.scans.edge_lookup_entries_scanned,
        bloom_negatives: s.scans.edge_lookup_bloom_negatives,
        compaction_passes: s.compaction.passes,
        entries_dropped: s.compaction.entries_dropped,
        blocks_freed: s.compaction.blocks_freed,
        lock_wait_mean_us: mean_us("livegraph_commit_lock_seconds"),
        fsync_wait_mean_us: mean_us("livegraph_commit_fsync_wait_seconds"),
        apply_mean_us: mean_us("livegraph_commit_apply_seconds"),
    }
}
