//! What every run does after its measured phase, on the graph recovered
//! from the run's directory: timed reopen, read probe, analytics probe —
//! and in a traced run the layer ladder and the side probes.
//!
//! Running the same probes after every workload is what lets each workload
//! report every metric: a workload whose measured phase has no reads or no
//! scans still shows what a restart, a read and an analytics round cost on
//! the state it left behind.

use std::path::Path;
use std::time::Instant;

use crate::cpu;
use crate::engine::{self, Failure, Flush, Graph, Round, Via};
use crate::inputs::{self, tag, OpKind, OpMix, Payload, Stream};
use crate::stats::median;
use crate::trace::{NoTrace, Spans};
use crate::workloads::{Sizes, REMOTE_CORE};

/// Reopens the graph `times` times from `dir`, timing each from `open` to
/// the first successful `begin_read`; keeps the last one open.
///
/// Reopening is always `NoSync`: recovery replays without logging, and the
/// probes that follow measure CPU cost, not the log device.
pub fn recover(
    dir: &Path,
    max_vertices: usize,
    times: usize,
) -> Result<(Graph, Vec<f64>), Failure> {
    let mut seconds = Vec::with_capacity(times);
    let mut graph = None;
    for _ in 0..times.max(1) {
        drop(graph.take());
        let t0 = Instant::now();
        let g = engine::open(dir, Flush::NoSync, max_vertices)?;
        engine::first_read(&g)?;
        seconds.push(t0.elapsed().as_secs_f64());
        graph = Some(g);
    }
    Ok((graph.expect("at least one reopen"), seconds))
}

/// Streams through a buffer larger than the host's last-level cache, so that
/// what follows starts from memory.
///
/// The graphs here are ≈ 100 MiB, the reference host's L3 is 260 MiB and
/// shared with whoever else runs on the socket: how much of the graph a
/// probe finds in cache is the neighbours' business, and back-to-back
/// sweeps of one restarted graph ran anywhere between 75 M and 170 M
/// edges/s. A graph of the size the paper measures never fits a cache, so
/// every probe measurement starts cold; that is the regime of interest and
/// the one that repeats.
pub struct CacheEvictor {
    buf: Vec<u64>,
}

impl CacheEvictor {
    /// 384 MiB: more than the reference host's L2 + L3.
    const WORDS: usize = (384 << 20) / 8;

    pub fn new() -> Self {
        Self {
            buf: vec![1; Self::WORDS],
        }
    }

    pub fn evict(&self) {
        std::hint::black_box(self.buf.iter().fold(0u64, |s, &w| s.wrapping_add(w)));
    }
}

pub struct ReadProbe {
    pub lat_ns: Vec<u32>,
    pub failed: u64,
}

/// `ops` LinkBench reads (DFLT proportions among the four read kinds), one
/// thread, each timed. With `spans` the calls are traced as well.
pub fn read_probe(
    g: &Graph,
    n: u64,
    seed: u64,
    ops: u64,
    evictor: &CacheEvictor,
    mut spans: Option<&mut Spans>,
) -> ReadProbe {
    let stream = inputs::linkbench_stream(
        OpMix::with_write_ratio(0.0),
        n,
        inputs::subseed(seed, 300),
        0,
        1,
        ops as usize,
    );
    let mut payload = Payload::new();
    evictor.evict();
    let mut out = ReadProbe {
        lat_ns: Vec::with_capacity(ops as usize),
        failed: 0,
    };
    for seq in 0..ops {
        let op = stream.at(seq);
        let t0 = Instant::now();
        let r =
            Via::Direct(g).exec_maybe_traced(spans.as_deref_mut(), op, tag(14, seq), &mut payload);
        out.lat_ns
            .push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        out.failed += u64::from(r.is_err());
    }
    out
}

/// `rounds` analytics rounds on the quiescent graph, each from a cold
/// cache; the last one is also checked against a CSR of its snapshot.
pub fn analytics_probe(
    g: &Graph,
    rounds: usize,
    evictor: &CacheEvictor,
) -> Result<Vec<Round>, Failure> {
    (0..rounds.max(1))
        .map(|i| {
            evictor.evict();
            engine::analytics_round(g, i + 1 == rounds.max(1))
        })
        .collect()
}

/// `sweeps` further full adjacency sweeps from a cold cache, as (edges,
/// seconds) each: a sweep is a tenth of a round, so the scan rate gets a
/// sample of its own instead of the handful the rounds give.
pub fn sweep_probe(
    g: &Graph,
    sweeps: usize,
    evictor: &CacheEvictor,
) -> Result<Vec<(u64, f64)>, Failure> {
    (0..sweeps)
        .map(|_| {
            evictor.evict();
            engine::sweep(g)
        })
        .collect()
}

/// One timed `compact()` over everything the run left dirty, in ms.
pub fn explicit_compaction_ms(g: &Graph) -> f64 {
    let t0 = Instant::now();
    engine::compact(g);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median latency in µs of single commits under real `fdatasync`, in a
/// directory of its own. Informational: it describes the host's disk, and
/// on the reference host it does not repeat within a tenth.
pub fn real_fsync_us(dir: &Path, commits: u64) -> Result<f64, Failure> {
    let g = engine::open(dir, Flush::RealFsync, 1 << 10)?;
    engine::load_base(&g, 2, &[])?;
    let mut payload = Payload::new();
    let mut us: Vec<f64> = Vec::with_capacity(commits as usize);
    for seq in 0..commits {
        let op = inputs::Op {
            kind: OpKind::AddLink,
            src: 0,
            dst: 1,
        };
        let t0 = Instant::now();
        engine::direct(&g, op, seq, &mut payload, &mut NoTrace)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&mut us))
}

/// Times the direct and the session rung run, alternating.
const RUNG_REPEATS: u64 = 3;

/// The ladder: one op stream at four rungs, each adding a layer.
pub struct Ladder {
    pub ops: u64,
    /// Rung 1: direct `ReadTxn`/`WriteTxn` calls.
    pub direct_ns_per_op: f64,
    /// Rung 2: `Session::handle_request` in-process, responses sunk.
    pub session_ns_per_op: f64,
    /// Rung 3: frame encode + decode of the requests and of the responses
    /// the session produced (mean per frame, and the total per op).
    pub request_encode_ns: f64,
    pub request_decode_ns: f64,
    pub response_encode_ns: f64,
    pub response_decode_ns: f64,
    pub codec_ns_per_op: f64,
    pub wire_bytes_per_op: f64,
    /// Rung 4: blocking `Client` over loopback to the reactor server.
    pub rtt_ns_per_op: f64,
    /// The transport floor: a `Ping` round trip.
    pub ping_rtt_ns: f64,
    /// Edges the direct rung's scans visited (repeats exactly per seed).
    pub direct_edges: u64,
    pub failed: u64,
}

impl Ladder {
    /// Session cost beyond the engine calls it makes.
    pub fn session_self_ns(&self) -> f64 {
        self.session_ns_per_op - self.direct_ns_per_op
    }

    /// What the socket, the reactor and the client add beyond session and
    /// codec.
    pub fn transport_ns_per_op(&self) -> f64 {
        self.rtt_ns_per_op - self.session_ns_per_op - self.codec_ns_per_op
    }

    /// Share of the remote-vs-direct gap the named layers explain:
    /// session self time + codec + the ping floor.
    pub fn attributed_ratio(&self) -> f64 {
        (self.session_self_ns() + self.codec_ns_per_op + self.ping_rtt_ns)
            / (self.rtt_ns_per_op - self.direct_ns_per_op)
    }
}

/// Runs the ladder on `graph` (which it mutates: every rung executes the
/// stream's writes again) and hands the graph back. With `spans`, a further,
/// untimed pass of direct calls is traced so that every `core.*` span has
/// samples even in a workload whose phase never makes the call.
pub fn ladder(
    graph: Graph,
    n: u64,
    seed: u64,
    sizes: &Sizes,
    spans: Option<&mut Spans>,
) -> Result<(Graph, Ladder), Failure> {
    let ops = sizes.ladder_ops;
    let stream: Stream = inputs::linkbench_stream(
        OpMix::dflt(),
        n,
        inputs::subseed(seed, 400),
        0,
        1,
        ops as usize,
    );
    let mut payload = Payload::new();
    let mut failed = 0u64;

    // Rungs 1 and 2, alternating three times (the median of each is
    // reported): direct calls, then `Session::handle_request` with the
    // responses sunk. The session's own cost is the difference of the two,
    // a few hundred ns, and must not ride on which pass ran first.
    let hosted = engine::host(graph);
    let mut session = engine::SessionRung::new(&hosted);
    let (mut direct_ns, mut session_ns) = (Vec::new(), Vec::new());
    let mut direct_edges = 0u64;
    for repeat in 0..RUNG_REPEATS {
        let graph = engine::hosted(&hosted);
        direct_edges = 0;
        let t0 = Instant::now();
        for seq in 0..ops {
            match engine::direct(
                graph,
                stream.at(seq),
                tag(8 + repeat, seq),
                &mut payload,
                &mut NoTrace,
            ) {
                Ok(o) => direct_edges += u64::from(o.edges),
                Err(_) => failed += 1,
            }
        }
        direct_ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);

        let requests: Vec<_> = (0..ops)
            .map(|seq| engine::request_for(stream.at(seq), tag(12 + repeat, seq), &mut payload))
            .collect();
        let mut frames = 0u64;
        let t0 = Instant::now();
        for req in requests {
            failed += u64::from(!session.handle(req, &mut |_| frames += 1));
        }
        session_ns.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        std::hint::black_box(frames);
    }
    let (direct_ns_per_op, session_ns_per_op) = (median(&mut direct_ns), median(&mut session_ns));
    if let Some(s) = spans {
        let graph = engine::hosted(&hosted);
        for seq in 0..ops {
            s.set_op(tag(16, seq));
            failed += u64::from(
                engine::direct(graph, stream.at(seq), tag(16, seq), &mut payload, s).is_err(),
            );
        }
    }

    // Rung 3: codec only, on the requests and on the responses a further
    // (untimed) session pass produces for them.
    let requests: Vec<_> = (0..ops)
        .map(|seq| engine::request_for(stream.at(seq), tag(17, seq), &mut payload))
        .collect();
    let mut responses = Vec::new();
    for req in &requests {
        failed += u64::from(!session.handle(req.clone(), &mut |resp| responses.push(resp.clone())));
    }
    drop(session);
    let graph = engine::unhost(hosted);
    let (mut request_wire, mut response_wire) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    engine::encode_requests(&requests, &mut request_wire);
    let t1 = Instant::now();
    let mut decoded = 0usize;
    engine::decode_requests(&request_wire, |req| {
        std::hint::black_box(&req);
        decoded += 1;
    });
    let t2 = Instant::now();
    engine::encode_responses(&responses, &mut response_wire);
    let t3 = Instant::now();
    engine::decode_responses(&response_wire, |resp| {
        std::hint::black_box(&resp);
        decoded += 1;
    });
    let t4 = Instant::now();
    if decoded != requests.len() + responses.len() {
        return Err(Failure(format!(
            "codec rung decoded {decoded} of {} frames",
            requests.len() + responses.len()
        )));
    }
    let mut expected = requests.iter();
    engine::decode_requests(&request_wire, |req| {
        assert_eq!(
            Some(&req),
            expected.next(),
            "request frame does not round-trip"
        )
    });
    let mut expected = responses.iter();
    engine::decode_responses(&response_wire, |resp| {
        assert_eq!(
            Some(&resp),
            expected.next(),
            "response frame does not round-trip"
        )
    });
    let per = |d: std::time::Duration, frames: usize| d.as_nanos() as f64 / frames as f64;
    let (request_encode_ns, request_decode_ns) =
        (per(t1 - t0, requests.len()), per(t2 - t1, requests.len()));
    let (response_encode_ns, response_decode_ns) =
        (per(t3 - t2, responses.len()), per(t4 - t3, responses.len()));
    let codec_ns_per_op = (t4 - t0).as_nanos() as f64 / ops as f64;

    // Rung 4: loopback client, on the server's core like `dflt_remote`.
    cpu::pin(REMOTE_CORE);
    let served = engine::serve(graph)?;
    let mut client = engine::connect(served.addr())?;
    let mut pings = Vec::with_capacity(sizes.pings as usize);
    for _ in 0..sizes.pings {
        let t0 = Instant::now();
        engine::ping(&mut client)?;
        pings.push(t0.elapsed().as_nanos() as f64);
    }
    let t0 = Instant::now();
    for seq in 0..ops {
        failed += u64::from(
            engine::remote(
                &mut client,
                stream.at(seq),
                tag(18, seq),
                &mut payload,
                &mut NoTrace,
            )
            .is_err(),
        );
    }
    let rtt_ns_per_op = t0.elapsed().as_nanos() as f64 / ops as f64;
    client.close();
    let graph = served.stop()?;
    cpu::pin(0);

    Ok((
        graph,
        Ladder {
            ops,
            direct_ns_per_op,
            session_ns_per_op,
            request_encode_ns,
            request_decode_ns,
            response_encode_ns,
            response_decode_ns,
            codec_ns_per_op,
            wire_bytes_per_op: (request_wire.len() + response_wire.len()) as f64 / ops as f64,
            rtt_ns_per_op,
            ping_rtt_ns: median(&mut pings),
            direct_edges,
            failed,
        },
    ))
}
