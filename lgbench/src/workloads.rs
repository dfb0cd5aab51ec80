//! The four workloads: set-up and the measured phase of each.
//!
//! | workload | measured phase |
//! |---|---|
//! | `dflt_inproc` | LinkBench DFLT mix, 2 closed-loop threads calling the engine directly |
//! | `dflt_remote` | the same op streams through 2 blocking connections to an in-process reactor server |
//! | `analytics_fresh` | analytics rounds on fresh snapshots beside an open-loop paced serving stream |
//! | `write_durable` | LinkBench writes only, 2 closed-loop writers, simulated 100 µs log device, checkpoint under load |
//!
//! Every phase is time-boxed; what was executed is handed to the oracle as
//! per-thread op counts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::cpu;
use crate::engine::{self, Conn, Failure, Flush, Graph, Outcome, Round, Served, Via};
use crate::inputs::{self, tag, Op, OpMix, Payload, Stream};
use crate::trace::{NoTrace, Spans};

/// Driver threads (= connections in `dflt_remote`). The reference host has
/// 2 cores; lgbench refuses to run with fewer cores than driver threads.
pub const DRIVER_THREADS: usize = 2;
/// `dflt_remote`: the one core the server's threads and both client
/// connections share (see `cpu.rs` for why not two).
pub const REMOTE_CORE: usize = 0;
/// Span buffer per driver thread (spans beyond it are counted as dropped).
const SPAN_CAPACITY: usize = 4 << 20;
/// Latency samples reserved per class and thread.
const LATENCY_CAPACITY: usize = 2 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DfltInproc,
    DfltRemote,
    AnalyticsFresh,
    WriteDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DfltInproc,
        Workload::DfltRemote,
        Workload::AnalyticsFresh,
        Workload::WriteDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DfltInproc => "dflt_inproc",
            Workload::DfltRemote => "dflt_remote",
            Workload::AnalyticsFresh => "analytics_fresh",
            Workload::WriteDurable => "write_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stated flush policy. `write_durable` uses the simulated device
    /// because real fsync on the reference host does not repeat within a
    /// tenth; real fsync cost is a side probe (`core.wal.real_fsync_us`).
    pub fn flush(self) -> Flush {
        match self {
            Workload::WriteDurable => Flush::Simulated100us,
            _ => Flush::NoSync,
        }
    }

    /// In-process DFLT runs ~1 µs ops, so it times every 16th op by index;
    /// the other workloads time every op.
    pub fn sample_every(self) -> u64 {
        match self {
            Workload::DfltInproc => 16,
            _ => 1,
        }
    }

    /// Whether the measured phase has read ops of its own (otherwise read
    /// latency comes from the read probe on the recovered graph).
    pub fn phase_has_reads(self) -> bool {
        self != Workload::WriteDurable
    }
}

/// Input and probe sizes. `quick` exists only to smoke-test the path.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// log2 of the base graph's vertex count.
    pub scale: u32,
    pub avg_degree: u64,
    /// Pre-generated ops per stream.
    pub stream_len: usize,
    /// Paced ops/s of the `analytics_fresh` serving stream.
    pub paced_rate: u64,
    /// Set-ups per run (the median is reported, the last one is used).
    pub setups: usize,
    /// Reopens per run (the median is `recovery_s`).
    pub recoveries: usize,
    /// Read ops of the read probe on the recovered graph.
    pub probe_reads: u64,
    /// Analytics rounds of the analytics probe on the recovered graph.
    pub probe_rounds: usize,
    /// Further sweeps (without PageRank and ConnComp) of the same probe.
    pub probe_sweeps: usize,
    /// Ops per ladder rung (traced runs).
    pub ladder_ops: u64,
    /// Pings for the transport floor (traced runs).
    pub pings: u64,
    /// Real-fsync commits of the side probe (traced runs).
    pub fsync_commits: u64,
}

impl Sizes {
    pub fn of(workload: Workload, quick: bool) -> Self {
        // The issue sized these for a 10–20 s phase plus minutes of set-up;
        // the driver's cap (92 runs in 3420 s) leaves ~30 s per run, so the
        // graphs are 2^17 × 8 and 2^16 × 16 (≈1 M edges) instead of
        // 2^18 × 8 and 2^18 × 16. The workload list is unchanged.
        let (scale, avg_degree) = match workload {
            Workload::AnalyticsFresh => (16, 16),
            _ => (17, 8),
        };
        let full = Self {
            scale,
            avg_degree,
            stream_len: 1 << 20,
            paced_rate: 25_000,
            setups: 3,
            recoveries: 3,
            probe_reads: 100_000,
            probe_rounds: 5,
            probe_sweeps: 12,
            ladder_ops: 40_000,
            pings: 20_000,
            fsync_commits: 100,
        };
        if !quick {
            return full;
        }
        Self {
            scale: scale - 4,
            stream_len: 1 << 16,
            setups: 1,
            recoveries: 1,
            probe_reads: 5_000,
            probe_rounds: 3,
            probe_sweeps: 3,
            ladder_ops: 2_000,
            pings: 1_000,
            fsync_commits: 5,
            ..full
        }
    }

    pub fn vertices(&self) -> u64 {
        1 << self.scale
    }
}

/// What the measured phase runs against.
pub enum Target {
    Local(Graph),
    Remote { served: Served, clients: Vec<Conn> },
}

impl Target {
    pub fn graph(&self) -> &Graph {
        match self {
            Target::Local(g) => g,
            Target::Remote { served, .. } => served.graph(),
        }
    }

    /// Closes connections, stops the server and returns the graph.
    pub fn into_graph(self) -> Result<Graph, Failure> {
        match self {
            Target::Local(g) => Ok(g),
            Target::Remote { served, clients } => {
                for c in clients {
                    c.close();
                }
                served.stop()
            }
        }
    }
}

/// Vertex capacity of a graph with `n` base vertices: room for every
/// `add_node` a run can issue.
pub fn max_vertices(n: u64) -> usize {
    n as usize * 4
}

/// One finished set-up.
pub struct Prepared {
    pub dir: PathBuf,
    pub n: u64,
    pub base_edges: Vec<(u64, u64)>,
    pub streams: Vec<Stream>,
    pub gen_ns_per_op: f64,
    pub input_fnv: u64,
    pub target: Target,
}

/// Set-up: input generation, base-graph load and (remote) server start plus
/// connections. The caller times it.
pub fn setup(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> Result<Prepared, Failure> {
    let n = sizes.vertices();
    let base_edges = inputs::base_graph(sizes.scale, sizes.avg_degree);
    let gen0 = Instant::now();
    let streams: Vec<Stream> = match workload {
        Workload::DfltInproc | Workload::DfltRemote => (0..DRIVER_THREADS as u64)
            .map(|t| {
                inputs::linkbench_stream(
                    OpMix::dflt(),
                    n,
                    seed,
                    t,
                    DRIVER_THREADS as u64,
                    sizes.stream_len,
                )
            })
            .collect(),
        Workload::WriteDurable => (0..DRIVER_THREADS as u64)
            .map(|t| {
                inputs::linkbench_stream(
                    OpMix::with_write_ratio(1.0),
                    n,
                    seed,
                    t,
                    DRIVER_THREADS as u64,
                    sizes.stream_len,
                )
            })
            .collect(),
        Workload::AnalyticsFresh => vec![inputs::serving_stream(
            &base_edges,
            n,
            seed,
            sizes.stream_len,
        )],
    };
    let generated: usize = streams.iter().map(|s| s.block().len()).sum();
    let gen_ns_per_op = gen0.elapsed().as_nanos() as f64 / generated as f64;
    let input_fnv = inputs::fnv1a(&streams[0].block()[..streams[0].block().len().min(10_000)]);

    let graph = engine::open(dir, workload.flush(), max_vertices(n))?;
    engine::load_base(&graph, n, &base_edges)?;
    let target = if workload == Workload::DfltRemote {
        // The server's threads inherit the affinity of the thread that
        // starts them.
        cpu::pin(REMOTE_CORE);
        let served = engine::serve(graph);
        cpu::unpin();
        let served = served?;
        let clients = (0..DRIVER_THREADS)
            .map(|_| engine::connect(served.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        Target::Remote { served, clients }
    } else {
        Target::Local(graph)
    };
    Ok(Prepared {
        dir: dir.to_path_buf(),
        n,
        base_edges,
        streams,
        gen_ns_per_op,
        input_fnv,
        target,
    })
}

/// One measured phase (a traced run has an untraced and a traced one).
pub struct Phase {
    pub window: Duration,
    pub traced: bool,
    /// `write_durable`: when the coordinator takes a checkpoint.
    pub checkpoint_at: Option<Duration>,
    /// `analytics_fresh`: ops/s of the paced serving stream.
    pub paced_rate: u64,
    /// Time origin of the run's spans.
    pub origin: Instant,
}

/// Slices per window. Throughput and latency are computed per slice and
/// reported as the median over the slices, so a disturbance from outside
/// (another tenant of the host, a writeback burst) that covers less than
/// half of a window does not move them.
pub const SLICES: usize = 8;

/// A thread's progress when it noticed a slice boundary: the time into the
/// window, ops executed and latency samples taken so far.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at_ns: u64,
    pub executed: u64,
    pub reads: usize,
    pub writes: usize,
}

/// What one driver thread did in one phase.
pub struct ThreadOut {
    pub executed: u64,
    pub elapsed: Duration,
    /// Timed latencies in ns (closed loop: call to return; paced: due time
    /// to return).
    pub read_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
    /// Paced stream only: how late each op started.
    pub lateness_ns: Vec<u32>,
    pub failed: u64,
    pub dangling: u64,
    pub retries: u64,
    pub write_ops: u64,
    pub edges: u64,
    /// Where the thread stood at the end of each of the window's
    /// [`SLICES`] slices.
    pub marks: Vec<Mark>,
    pub spans: Option<Spans>,
    pub first_failure: Option<String>,
}

impl ThreadOut {
    fn new(phase: &Phase) -> Self {
        Self {
            executed: 0,
            elapsed: Duration::ZERO,
            read_ns: Vec::with_capacity(LATENCY_CAPACITY),
            write_ns: Vec::with_capacity(LATENCY_CAPACITY),
            lateness_ns: Vec::new(),
            failed: 0,
            dangling: 0,
            retries: 0,
            write_ops: 0,
            edges: 0,
            marks: Vec::with_capacity(SLICES),
            spans: phase
                .traced
                .then(|| Spans::new(phase.origin, SPAN_CAPACITY)),
            first_failure: None,
        }
    }

    fn account(&mut self, op: Op, result: Result<Outcome, Failure>) {
        self.executed += 1;
        if !op.kind.is_read() {
            self.write_ops += 1;
        }
        match result {
            Ok(o) => {
                self.edges += u64::from(o.edges);
                self.retries += u64::from(o.retries);
                self.dangling += u64::from(o.dangling);
            }
            Err(e) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{op:?}: {e}"));
            }
        }
    }

    /// Records every slice boundary that `since` (ns into the window) has
    /// passed.
    fn mark(&mut self, since: u128, window_ns: u128) {
        while self.marks.len() < SLICES
            && since >= window_ns * (self.marks.len() as u128 + 1) / SLICES as u128
        {
            self.marks.push(Mark {
                at_ns: since as u64,
                executed: self.executed,
                reads: self.read_ns.len(),
                writes: self.write_ns.len(),
            });
        }
    }

    fn time(&mut self, op: Op, ns: u128) {
        let ns = ns.min(u128::from(u32::MAX)) as u32;
        if op.kind.is_read() {
            self.read_ns.push(ns);
        } else {
            self.write_ns.push(ns);
        }
    }
}

pub struct PhaseOut {
    pub threads: Vec<ThreadOut>,
    /// Barrier release to last thread done.
    pub wall: Duration,
    /// `analytics_fresh`: the rounds run beside the serving stream.
    pub rounds: Vec<Round>,
    /// `write_durable`: duration of the checkpoint taken under load.
    pub checkpoint_s: Option<f64>,
}

/// Runs one phase. `positions[i]` is the next op of stream `i` and is
/// advanced by what the phase executed.
pub fn run_phase(
    workload: Workload,
    prepared: &mut Prepared,
    positions: &mut [u64],
    phase: &Phase,
) -> Result<PhaseOut, Failure> {
    let out = match (workload, &mut prepared.target) {
        (Workload::AnalyticsFresh, Target::Local(g)) => {
            analytics_beside_serving(g, &prepared.streams[0], positions[0], phase)?
        }
        (_, Target::Local(g)) => {
            let g = &*g;
            closed_loops(
                (0..DRIVER_THREADS)
                    .map(|thread| (Via::Direct(g), thread))
                    .collect(),
                &prepared.streams,
                positions,
                phase,
                workload.sample_every(),
                Some(g),
            )?
        }
        (_, Target::Remote { clients, .. }) => closed_loops(
            clients
                .iter_mut()
                .map(|c| (Via::Remote(c), REMOTE_CORE))
                .collect(),
            &prepared.streams,
            positions,
            phase,
            workload.sample_every(),
            None,
        )?,
    };
    for (pos, t) in positions.iter_mut().zip(&out.threads) {
        *pos += t.executed;
    }
    Ok(out)
}

/// Closed loop: each driver thread — given as how it executes ops and the
/// core it is pinned to — issues its next op only after the previous one
/// returned.
fn closed_loops(
    drivers: Vec<(Via<'_>, usize)>,
    streams: &[Stream],
    positions: &[u64],
    phase: &Phase,
    sample_every: u64,
    checkpoint_on: Option<&Graph>,
) -> Result<PhaseOut, Failure> {
    let go = Barrier::new(drivers.len() + 1);
    let mut checkpoint_s = None;
    let mut checkpoint_err = None;
    let (threads, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .into_iter()
            .enumerate()
            .map(|(i, (x, core))| {
                let go = &go;
                let (stream, first) = (&streams[i], positions[i]);
                s.spawn(move || {
                    cpu::pin(core);
                    closed_loop(x, stream, i as u64, first, phase, sample_every, go)
                })
            })
            .collect();
        go.wait();
        let t0 = Instant::now();
        if let (Some(at), Some(g)) = (phase.checkpoint_at, checkpoint_on) {
            std::thread::sleep(at);
            let c0 = Instant::now();
            match engine::checkpoint(g) {
                Ok(()) => checkpoint_s = Some(c0.elapsed().as_secs_f64()),
                Err(e) => checkpoint_err = Some(e),
            }
        }
        let threads: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect();
        (threads, t0.elapsed())
    });
    if let Some(e) = checkpoint_err {
        return Err(e);
    }
    Ok(PhaseOut {
        threads,
        wall,
        rounds: Vec::new(),
        checkpoint_s,
    })
}

fn closed_loop(
    mut x: Via<'_>,
    stream: &Stream,
    thread: u64,
    first: u64,
    phase: &Phase,
    sample_every: u64,
    go: &Barrier,
) -> ThreadOut {
    let mut out = ThreadOut::new(phase);
    let mut payload = Payload::new();
    let window_ns = phase.window.as_nanos();
    let mut seq = first;
    go.wait();
    let start = Instant::now();
    loop {
        let op = stream.at(seq);
        let tg = tag(thread, seq);
        if seq % sample_every != 0 {
            let r = x.exec(op, tg, &mut payload, &mut NoTrace);
            out.account(op, r);
            seq += 1;
            continue;
        }
        let t0 = Instant::now();
        let r = x.exec_maybe_traced(out.spans.as_mut(), op, tg, &mut payload);
        let t1 = Instant::now();
        out.time(op, (t1 - t0).as_nanos());
        out.account(op, r);
        seq += 1;
        // The clock is read for the sample anyway, so the deadline check
        // costs the untimed ops nothing.
        let since = (t1 - start).as_nanos();
        out.mark(since, window_ns);
        if since >= window_ns {
            out.elapsed = t1 - start;
            break;
        }
    }
    out
}

/// `analytics_fresh`: thread A runs analytics rounds on the latest snapshot
/// until the window is over (the last round is also checked against a CSR
/// of its own snapshot); thread B serves the paced stream beside it until A
/// is done.
fn analytics_beside_serving(
    g: &Graph,
    stream: &Stream,
    first: u64,
    phase: &Phase,
) -> Result<PhaseOut, Failure> {
    let go = Barrier::new(3);
    let done = AtomicBool::new(false);
    let (rounds, served, wall) = std::thread::scope(|s| {
        let analyst = s.spawn(|| {
            // The kernels' helper threads inherit this core.
            cpu::pin(0);
            go.wait();
            let start = Instant::now();
            let mut rounds = Vec::new();
            let result = loop {
                match engine::analytics_round(g, false) {
                    Ok(r) => rounds.push(r),
                    Err(e) => break Err(e),
                }
                if start.elapsed() >= phase.window {
                    // Still beside live writes: B stops only after this.
                    break engine::analytics_round(g, true).map(|r| rounds.push(r));
                }
            };
            done.store(true, Ordering::SeqCst);
            result.map(|()| rounds)
        });
        let server = s.spawn(|| {
            cpu::pin(1);
            paced_loop(Via::Direct(g), stream, first, phase, &go, &done)
        });
        go.wait();
        let t0 = Instant::now();
        let rounds = analyst.join().expect("analytics thread panicked");
        let served = server.join().expect("serving thread panicked");
        (rounds, served, t0.elapsed())
    });
    Ok(PhaseOut {
        threads: vec![served],
        wall,
        rounds: rounds?,
        checkpoint_s: None,
    })
}

/// Open loop: op `k` is due at `k / rate` after the start whatever happened
/// to the ops before it, and its latency counts from that due time.
fn paced_loop(
    mut x: Via<'_>,
    stream: &Stream,
    first: u64,
    phase: &Phase,
    go: &Barrier,
    done: &AtomicBool,
) -> ThreadOut {
    let mut out = ThreadOut::new(phase);
    out.lateness_ns = Vec::with_capacity(LATENCY_CAPACITY);
    let mut payload = Payload::new();
    let rate = phase.paced_rate;
    let window_ns = phase.window.as_nanos();
    let mut seq = first;
    go.wait();
    let start = Instant::now();
    while !done.load(Ordering::SeqCst) {
        let due = Duration::from_nanos((seq - first) * 1_000_000_000 / rate);
        let mut now = start.elapsed();
        // Spin, never yield: a yielded core goes to the analytics thread's
        // helpers for a whole scheduler slice, and the stream would measure
        // the scheduler instead of the engine.
        while now < due {
            std::hint::spin_loop();
            now = start.elapsed();
        }
        out.lateness_ns
            .push((now - due).as_nanos().min(u128::from(u32::MAX)) as u32);
        let op = stream.at(seq);
        let tg = tag(0, seq);
        let r = x.exec_maybe_traced(out.spans.as_mut(), op, tg, &mut payload);
        let end = start.elapsed();
        out.time(op, (end - due).as_nanos());
        out.account(op, r);
        seq += 1;
        out.mark(end.as_nanos(), window_ns);
        out.elapsed = end;
    }
    out
}
