//! From observations to metrics: the end-to-end set of an untraced run, the
//! per-layer set of a traced one, the correctness checks, and the run
//! record.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use crate::engine::{self, Failure, Readout, Round};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Observed, Traced};
use crate::stats::{json_num, json_opt, json_str, median, quantile, to_f64, Measured};
use crate::trace::{self, Sp, Span, Spans};
use crate::workloads::{self, Mark, PhaseOut, Sizes, ThreadOut, Workload, SLICES};
use crate::{cpu, Config};

/// Spans written per thread to `trace-<workload>.json`.
const TRACE_FILE_SPANS: usize = 100_000;

/// One run's metrics and verdicts.
pub struct RunResult {
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Per-layer span metrics whose samples came from the probes because
    /// the measured phase never makes that call.
    pub from_probe: Vec<&'static str>,
    pub attempted: u64,
    pub failed: u64,
    /// (what, held, detail)
    pub checks: Vec<(&'static str, bool, String)>,
    pub wall_s: Vec<(&'static str, f64)>,
    pub op_counts: Vec<u64>,
    pub input_fnv: u64,
    pub spans_dropped: u64,
    pub keep_awake_spinners: usize,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn single(value: f64) -> Measured {
    Measured::single(value)
}

fn median_by(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Measured {
    Measured::median_of(&mut rounds.iter().map(f).collect::<Vec<_>>(), 1.0)
}

fn all_threads<'a>(
    phases: impl IntoIterator<Item = &'a PhaseOut>,
) -> impl Iterator<Item = &'a ThreadOut> {
    phases.into_iter().flat_map(|p| &p.threads)
}

/// Ops per second of some phases. Closed loops: ops over the wall time of
/// the phase. Paced stream: ops over the stream's own elapsed time (it
/// outlasts the window by the last analytics round).
fn rate(w: Workload, phases: &[&PhaseOut]) -> f64 {
    let ops: u64 = all_threads(phases.iter().copied())
        .map(|t| t.executed)
        .sum();
    let over: Duration = phases
        .iter()
        .map(|p| {
            if w == Workload::AnalyticsFresh {
                p.threads[0].elapsed
            } else {
                p.wall
            }
        })
        .sum();
    ops as f64 / over.as_secs_f64()
}

/// Per slice of the window: ops per second of all threads together, each
/// thread's ops over the time it took between its two slice marks.
fn slice_rates(threads: &[ThreadOut]) -> Vec<f64> {
    (0..SLICES)
        .map(|k| {
            threads
                .iter()
                .filter(|t| t.marks.len() == SLICES)
                .map(|t| {
                    let (ops0, at0) = if k == 0 {
                        (0, 0)
                    } else {
                        (t.marks[k - 1].executed, t.marks[k - 1].at_ns)
                    };
                    (t.marks[k].executed - ops0) as f64 * 1e9
                        / (t.marks[k].at_ns - at0).max(1) as f64
                })
                .sum()
        })
        .collect()
}

/// The median over the window's slices of each slice's `q`-quantile of the
/// latencies `class` selects, in µs; `n` is the number of samples in all.
fn sliced_latency_us(
    threads: &[ThreadOut],
    class: fn(&ThreadOut) -> &Vec<u32>,
    at: fn(&Mark) -> usize,
    q: f64,
) -> Measured {
    let mut per_slice = Vec::with_capacity(SLICES);
    let mut n = 0u64;
    for k in 0..SLICES {
        let mut samples: Vec<f64> = threads
            .iter()
            .filter(|t| t.marks.len() == SLICES)
            .flat_map(|t| {
                let from = if k == 0 { 0 } else { at(&t.marks[k - 1]) };
                to_f64(&class(t)[from..at(&t.marks[k])])
            })
            .collect();
        n += samples.len() as u64;
        if !samples.is_empty() {
            per_slice.push(Measured::quantile_of(&mut samples, q, 1e-3).value);
        }
    }
    Measured {
        n,
        ..Measured::median_of(&mut per_slice, 1.0)
    }
}

/// The `q`-quantile over the whole window — up to the last slice boundary,
/// which leaves out what a paced stream did after its window — in µs.
fn window_latency_us(
    threads: &[ThreadOut],
    class: fn(&ThreadOut) -> &Vec<u32>,
    at: fn(&Mark) -> usize,
    q: f64,
) -> Measured {
    let mut samples: Vec<f64> = threads
        .iter()
        .flat_map(|t| to_f64(&class(t)[..t.marks.last().map_or(class(t).len(), at)]))
        .collect();
    Measured::quantile_of(&mut samples, q, 1e-3)
}

/// [`sliced_latency_us`] for the read probe's latencies, cut into as many
/// consecutive chunks.
fn chunked_latency_us(lat_ns: &[u32], q: f64) -> Measured {
    let chunk = lat_ns.len().div_ceil(SLICES).max(1);
    let mut per_chunk: Vec<f64> = lat_ns
        .chunks(chunk)
        .map(|c| Measured::quantile_of(&mut to_f64(c), q, 1e-3).value)
        .collect();
    Measured {
        n: lat_ns.len() as u64,
        ..Measured::median_of(&mut per_chunk, 1.0)
    }
}

/// Turns one run's observations into its metrics and checks. A traced run
/// also writes `trace-<workload>.json` into `root`.
pub fn report(cfg: &Config, root: &Path, o: Observed) -> Result<RunResult, Failure> {
    let w = cfg.workload;
    let checks = vec![
        (
            "restarted graph equals the model of the executed ops",
            o.expected == o.found,
            format!("model {:?}, engine {:?}", o.expected, o.found),
        ),
        (
            "read probe ops all succeeded",
            o.read_probe.failed == 0,
            format!("{} failed", o.read_probe.failed),
        ),
        {
            let swept = o.probe_rounds.last().map_or(0, |r| r.sweep_edges);
            (
                "sweep on the restarted graph visits the model's live edges",
                swept == o.expected.edges,
                format!("swept {swept}, model {}", o.expected.edges),
            )
        },
    ];
    let phases = || std::iter::once(&o.main).chain(o.traced.iter().flat_map(|t| &t.untraced));
    for msg in all_threads(phases()).filter_map(|t| t.first_failure.as_ref()) {
        eprintln!("lgbench: failed op: {msg}");
    }
    let mut result = RunResult {
        metrics: BTreeMap::new(),
        from_probe: Vec::new(),
        attempted: all_threads(phases()).map(|t| t.executed).sum::<u64>()
            + o.read_probe.lat_ns.len() as u64,
        failed: all_threads(phases()).map(|t| t.failed).sum::<u64>() + o.read_probe.failed,
        checks,
        wall_s: o.wall_s.clone(),
        op_counts: o.op_counts.clone(),
        input_fnv: o.input_fnv,
        spans_dropped: 0,
        keep_awake_spinners: o.keep_awake_spinners,
    };
    match &o.traced {
        None => end_to_end(w, &o, &mut result),
        Some(traced) => {
            result.checks.push((
                "ladder ops all succeeded",
                traced.ladder.failed == 0,
                format!("{} failed", traced.ladder.failed),
            ));
            per_layer(w, &o, traced, &mut result);
            let mut threads: Vec<&[Span]> = o
                .main
                .threads
                .iter()
                .filter_map(|t| t.spans.as_ref().map(Spans::spans))
                .collect();
            threads.push(traced.probe_spans.spans());
            let path = root.join(format!("trace-{}.json", w.name()));
            trace::write_json(&path, w.name(), &threads, TRACE_FILE_SPANS)
                .map_err(|e| Failure(format!("{}: {e}", path.display())))?;
        }
    }
    Ok(result)
}

/// The analytics rounds and sweeps a workload's numbers come from: beside
/// live writes for `analytics_fresh`, else the probe on the restarted graph.
fn rounds_and_sweeps(w: Workload, o: &Observed) -> (&[Round], Vec<(u64, f64)>) {
    let rounds: &[Round] = if w == Workload::AnalyticsFresh {
        &o.main.rounds
    } else {
        &o.probe_rounds
    };
    let mut sweeps: Vec<(u64, f64)> = rounds.iter().map(|r| (r.sweep_edges, r.sweep_s)).collect();
    if w != Workload::AnalyticsFresh {
        sweeps.extend(&o.probe_sweeps);
    }
    (rounds, sweeps)
}

fn median_sweep(sweeps: &[(u64, f64)], f: fn(u64, f64) -> f64) -> Measured {
    Measured::median_of(
        &mut sweeps
            .iter()
            .map(|&(edges, s)| f(edges, s))
            .collect::<Vec<_>>(),
        1.0,
    )
}

fn end_to_end(w: Workload, o: &Observed, result: &mut RunResult) {
    let threads = &o.main.threads;
    let (_, sweeps) = rounds_and_sweeps(w, o);
    // The median is taken per slice and the median slice reported; the
    // tail is taken over the whole window, because a tail is exactly the
    // rare events — an inline compaction pass stalling the paced stream —
    // that the median slice would hide.
    type Class = fn(&ThreadOut) -> &Vec<u32>;
    type At = fn(&Mark) -> usize;
    let (read_ns, reads_at): (Class, At) = (|t| &t.read_ns, |m| m.reads);
    let (write_ns, writes_at): (Class, At) = (|t| &t.write_ns, |m| m.writes);
    let (read_p50, read_p99) = if w.phase_has_reads() {
        (
            sliced_latency_us(threads, read_ns, reads_at, 0.50),
            window_latency_us(threads, read_ns, reads_at, 0.99),
        )
    } else {
        (
            chunked_latency_us(&o.read_probe.lat_ns, 0.50),
            Measured::quantile_of(&mut to_f64(&o.read_probe.lat_ns), 0.99, 1e-3),
        )
    };
    let m = &mut result.metrics;
    m.insert("setup_s", Measured::median_of(&mut o.setup_s.clone(), 1.0));
    m.insert(
        "ops_per_s",
        Measured::median_of(&mut slice_rates(threads), 1.0),
    );
    m.insert("read_p50_us", read_p50);
    m.insert("read_p99_us", read_p99);
    m.insert(
        "write_p50_us",
        sliced_latency_us(threads, write_ns, writes_at, 0.50),
    );
    m.insert(
        "write_p99_us",
        window_latency_us(threads, write_ns, writes_at, 0.99),
    );
    m.insert(
        "scan_edges_per_s",
        median_sweep(&sweeps, |edges, s| edges as f64 / s),
    );
    m.insert(
        "recovery_s",
        Measured::median_of(&mut o.recovery_s.clone(), 1.0),
    );
    m.insert(
        "arena_bytes_per_edge",
        single(o.compacted.live_bytes as f64 / o.expected.edges.max(1) as f64),
    );
}

fn per_layer(w: Workload, o: &Observed, t: &Traced, result: &mut RunResult) {
    let threads = &o.main.threads;
    let (rounds, sweeps) = rounds_and_sweeps(w, o);
    let phase_spans: Vec<&[Span]> = threads
        .iter()
        .filter_map(|t| t.spans.as_ref().map(Spans::spans))
        .collect();
    let probe_spans = [t.probe_spans.spans()];
    result.spans_dropped = threads
        .iter()
        .filter_map(|t| t.spans.as_ref())
        .map(|s| s.dropped)
        .sum::<u64>()
        + t.probe_spans.dropped;

    // A span's samples come from the measured phase when the phase made
    // that call at all, else from the probes (read probe, traced ladder
    // pass).
    let made = |name: Sp| phase_spans.iter().any(|s| s.iter().any(|s| s.name == name));
    let spans_with = |name: Sp| {
        if made(name) {
            &phase_spans[..]
        } else {
            &probe_spans[..]
        }
    };
    let durations = |name: Sp| -> Vec<f64> {
        spans_with(name)
            .iter()
            .flat_map(|s| to_f64(&trace::durations(s, name)))
            .collect()
    };
    let sum = |set: &[&[Span]], name: Sp, f: fn(&Span) -> u64| {
        set.iter()
            .flat_map(|s| s.iter())
            .filter(|s| s.name == name)
            .map(f)
            .sum::<u64>()
    };

    let m = &mut result.metrics;
    for (metric, name) in [
        ("core.txn.begin_read_ns", Sp::BeginRead),
        ("core.txn.begin_write_ns", Sp::BeginWrite),
        ("core.txn.get_vertex_ns", Sp::GetVertex),
        ("core.txn.put_vertex_ns", Sp::PutVertex),
        ("core.txn.create_vertex_ns", Sp::CreateVertex),
        ("core.txn.put_edge_ns", Sp::PutEdge),
        ("core.txn.delete_edge_ns", Sp::DeleteEdge),
        ("core.tel.list_scan_ns", Sp::ListScan),
        ("core.tel.get_edge_ns", Sp::GetEdge),
        ("core.tel.degree_ns", Sp::Degree),
        ("core.commit.commit_ns", Sp::Commit),
    ] {
        if !made(name) {
            result.from_probe.push(metric);
        }
        m.insert(metric, Measured::midmean_of(&mut durations(name), 1.0));
    }
    m.insert(
        "core.commit.commit_p99_ns",
        Measured::quantile_of(&mut durations(Sp::Commit), 0.99, 1.0),
    );
    // Parent indices are per thread, so self times are too.
    let self_ns: Vec<u64> = spans_with(Sp::OpWrite)
        .iter()
        .flat_map(|s| trace::op_self_times(s))
        .collect();
    m.insert(
        "bench.op_self_ns",
        Measured::midmean_of(&mut to_f64(&self_ns), 1.0),
    );
    m.insert(
        "analytics.snapshot_open_ns",
        median_by(rounds, |r| r.snapshot_open_ns as f64),
    );
    m.insert("analytics.sweep_s", median_sweep(&sweeps, |_, s| s));
    m.insert(
        "core.tel.sweep_ns_per_edge",
        median_sweep(&sweeps, |edges, s| s * 1e9 / edges.max(1) as f64),
    );
    m.insert(
        "analytics.pagerank_s_per_iter",
        median_by(rounds, |r| {
            r.pagerank_s / engine::PAGERANK_ITERATIONS as f64
        }),
    );
    m.insert("analytics.conncomp_s", median_by(rounds, |r| r.conncomp_s));
    m.insert("analytics.round_s", median_by(rounds, |r| r.round_s));
    // Open loop: how late ops started (p99). Closed loop: by how much the
    // slowest thread overran its window with its last op.
    let lateness = if w == Workload::AnalyticsFresh {
        Measured::quantile_of(
            &mut threads
                .iter()
                .flat_map(|t| to_f64(&t.lateness_ns))
                .collect::<Vec<_>>(),
            0.99,
            1e-3,
        )
    } else {
        let over = threads
            .iter()
            .map(|t| t.elapsed.saturating_sub(o.window / 2))
            .max()
            .unwrap_or_default();
        single(over.as_secs_f64() * 1e6)
    };
    m.insert("bench.driver_lateness_us", lateness);

    // Everything below is one number per run.
    let mut put = |name: &'static str, value: f64| m.insert(name, single(value));
    let scans = spans_with(Sp::ListScan);
    put(
        "core.tel.list_scan_ns_per_edge",
        ratio(
            sum(scans, Sp::ListScan, Span::dur_ns),
            sum(scans, Sp::ListScan, |s| u64::from(s.work)),
        ),
    );
    let commits = spans_with(Sp::Commit);
    put(
        "core.commit.share_of_write",
        ratio(
            sum(commits, Sp::Commit, Span::dur_ns),
            sum(commits, Sp::OpWrite, Span::dur_ns),
        ),
    );
    let (write_ops, retries) = threads
        .iter()
        .fold((0, 0), |(w, r), t| (w + t.write_ops, r + t.retries));
    put("core.txn.retry_ratio", ratio(retries, write_ops));

    // Counter deltas over the whole window; scan counters fall back to the
    // restarted graph's (the probes') when the phase scanned nothing.
    let d = |f: fn(&Readout) -> u64| f(&o.after) - f(&o.before);
    let (sealed, checked) = match (d(|r| r.sealed_scans), d(|r| r.checked_scans)) {
        (0, 0) => (t.probed.sealed_scans, t.probed.checked_scans),
        phase => phase,
    };
    let (lookups, entries, negatives) = match d(|r| r.edge_lookups) {
        0 => (
            t.probed.edge_lookups,
            t.probed.lookup_entries,
            t.probed.bloom_negatives,
        ),
        phase => (phase, d(|r| r.lookup_entries), d(|r| r.bloom_negatives)),
    };
    put(
        "core.tel.sealed_scan_ratio",
        ratio(sealed, sealed + checked),
    );
    put(
        "core.tel.lookup_entries_per_get_edge",
        ratio(entries, lookups),
    );
    put("core.tel.bloom_negative_ratio", ratio(negatives, lookups));
    put("core.commit.lock_wait_mean_us", o.after.lock_wait_mean_us);
    put("core.commit.fsync_wait_mean_us", o.after.fsync_wait_mean_us);
    put("core.commit.apply_mean_us", o.after.apply_mean_us);
    // WAL ratios over the first quarter only: `write_durable`'s checkpoint
    // later rewrites the log and restarts its byte counter.
    let q = |f: fn(&Readout) -> u64| f(&t.first_quarter) - f(&o.before);
    let records = q(|r| r.wal_group_records);
    put(
        "core.wal.bytes_per_commit",
        ratio(q(|r| r.wal_bytes), records),
    );
    put(
        "core.wal.syncs_per_commit",
        ratio(q(|r| r.wal_syncs), records),
    );
    put(
        "core.wal.records_per_group",
        ratio(records, q(|r| r.wal_groups)),
    );
    put("core.wal.real_fsync_us", t.real_fsync_us);
    put("core.compaction.passes", d(|r| r.compaction_passes) as f64);
    put(
        "core.compaction.entries_dropped",
        d(|r| r.entries_dropped) as f64,
    );
    put("core.compaction.blocks_freed", d(|r| r.blocks_freed) as f64);
    put("core.compaction.explicit_pass_ms", o.explicit_pass_ms);
    put("core.checkpoint.write_s", o.checkpoint_s);
    put("core.checkpoint.bytes", o.checkpoint_bytes as f64);
    let recovery_s = median(&mut o.recovery_s.clone());
    put(
        "core.checkpoint.recovered_records_per_s",
        (o.found.vertices + o.found.edges) as f64 / recovery_s,
    );
    put(
        "storage.block_store.live_bytes",
        o.compacted.live_bytes as f64,
    );
    put(
        "storage.block_store.bump_bytes",
        o.compacted.bump_bytes as f64,
    );
    put("storage.block_store.occupancy", o.compacted.occupancy);

    let l = &t.ladder;
    put("server.protocol.request_encode_ns", l.request_encode_ns);
    put("server.protocol.request_decode_ns", l.request_decode_ns);
    put("server.protocol.response_encode_ns", l.response_encode_ns);
    put("server.protocol.response_decode_ns", l.response_decode_ns);
    put("server.protocol.codec_ns_per_op", l.codec_ns_per_op);
    put("server.protocol.wire_bytes_per_op", l.wire_bytes_per_op);
    put("server.session.handle_ns_per_op", l.session_ns_per_op);
    put("server.session.self_ns_per_op", l.session_self_ns());
    put("server.client.rtt_ns_per_op", l.rtt_ns_per_op);
    put("server.reactor.ping_rtt_ns", l.ping_rtt_ns);
    put(
        "server.reactor.transport_ns_per_op",
        l.transport_ns_per_op(),
    );
    put("server.ladder.attributed_ratio", l.attributed_ratio());
    eprintln!(
        "lgbench: ladder over {} ops ({} edges scanned): direct {:.0} ns/op, session {:.0}, codec {:.0}, loopback rtt {:.0}, ping {:.0}",
        l.ops, l.direct_edges, l.direct_ns_per_op, l.session_ns_per_op, l.codec_ns_per_op, l.rtt_ns_per_op, l.ping_rtt_ns
    );

    put("bench.gen_ns_per_op", o.gen_ns_per_op);
    let untraced: Vec<&PhaseOut> = t.untraced.iter().collect();
    put(
        "bench.trace_overhead_pct",
        (1.0 - rate(w, &[&o.main]) / rate(w, &untraced)) * 100.0,
    );
    let mut per_slice = slice_rates(threads);
    per_slice.sort_unstable_by(f64::total_cmp);
    put(
        "bench.run_spread_pct",
        (per_slice[SLICES - 1] - per_slice[0]) / quantile(&per_slice, 0.5).max(1.0) * 100.0,
    );
}

/// `git rev-parse HEAD` and whether the tree is dirty, when the working
/// directory is a git checkout (the driver's is not).
fn git_state() -> (String, String) {
    if !Path::new(".git").exists() {
        return ("unknown".into(), "unknown".into());
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let head = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"])
        .map_or_else(|| "unknown".into(), |s| (!s.is_empty()).to_string());
    (head, dirty)
}

/// Filesystem type of `dir`: the longest mount point that prefixes it.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The run record: one schema for all four workloads.
pub fn record_json(
    cfg: &Config,
    sets: &[RunResult],
    root: &Path,
    disagreements: &[String],
) -> String {
    let (head, dirty) = git_state();
    let w = cfg.workload;
    let sizes = Sizes::of(w, cfg.quick);
    let mut s = String::from("{\n");
    let mut field = |k: &str, v: String| s.push_str(&format!("  {}: {v},\n", json_str(k)));
    field("benchmark", json_str("lgbench"));
    field("workload", json_str(w.name()));
    field("git_head", json_str(&head));
    field("git_dirty", json_str(&dirty));
    field("nproc", cpu::cpus().len().to_string());
    field("cpus", format!("{:?}", cpu::cpus()));
    field("driver_threads", workloads::DRIVER_THREADS.to_string());
    field(
        "reactor_event_threads",
        engine::REACTOR_EVENT_THREADS.to_string(),
    );
    field("fs_type", json_str(&fs_type(root)));
    field("flush_policy", json_str(w.flush().name()));
    field("seed", cfg.seed.to_string());
    field("seconds", json_num(cfg.seconds));
    field("slices_per_window", SLICES.to_string());
    field("traced", cfg.trace.to_string());
    field("quick", cfg.quick.to_string());
    field(
        "base_graph",
        format!(
            "{{\"scale\": {}, \"avg_degree\": {}}}",
            sizes.scale, sizes.avg_degree
        ),
    );
    field("setups_per_run", sizes.setups.to_string());
    field("recoveries_per_run", sizes.recoveries.to_string());
    field("runs", sets.len().to_string());
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        for (name, m) in &set.metrics {
            let layer = PER_LAYER.iter().find(|l| l.name == *name);
            rows.push(format!(
                "    {{\"run\": {i}, \"workload\": {}, \"metric\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n_samples\": {}, \"source\": {}, \"should_move\": {}}}",
                json_str(w.name()),
                json_str(name),
                json_str(unit_of(name)),
                json_num(m.value),
                json_opt(m.q1),
                json_opt(m.q3),
                m.n,
                json_str(if set.from_probe.contains(name) { "probe" } else { "phase" }),
                layer.map_or_else(|| "null".to_string(), |l| json_str(l.moves)),
            ));
        }
        let walls: Vec<String> = set
            .wall_s
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let checks: Vec<String> = set
            .checks
            .iter()
            .map(|(what, ok, detail)| {
                format!(
                    "{{\"check\": {}, \"ok\": {ok}, \"detail\": {}}}",
                    json_str(what),
                    json_str(detail)
                )
            })
            .collect();
        runs.push(format!(
            "    {{\"run\": {i}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"op_counts\": {:?}, \"input_fnv\": \"{:#018x}\", \"spans_dropped\": {}, \"keep_awake_spinners\": {}, \"wall_s\": {{{}}}, \"checks\": [{}]}}",
            set.attempted,
            set.failed,
            set.correct(),
            set.op_counts,
            set.input_fnv,
            set.spans_dropped,
            set.keep_awake_spinners,
            walls.join(", "),
            checks.join(", ")
        ));
    }
    s.push_str(&format!("  \"metrics\": [\n{}\n  ],\n", rows.join(",\n")));
    s.push_str(&format!(
        "  \"run_records\": [\n{}\n  ],\n",
        runs.join(",\n")
    ));
    let quoted: Vec<String> = disagreements.iter().map(|d| json_str(d)).collect();
    s.push_str(&format!(
        "  \"repeat_disagreements\": [{}],\n",
        quoted.join(", ")
    ));
    s.push_str("  \"claim\": null\n}\n");
    s
}
