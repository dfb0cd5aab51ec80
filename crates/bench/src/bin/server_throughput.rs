//! Service-layer throughput: the DFLT LinkBench mix in-process vs. remote
//! over loopback TCP, at 1 / 4 / 16 concurrent clients.
//!
//! Both sides run the identical driver (`run_workload`) and base graph; the
//! remote side adds the full service stack — frame codec, TCP round trip,
//! session dispatch, auto-commit retry — per operation, so the ratio
//! `remote / in-process` is exactly the service-layer overhead at that
//! concurrency. Two engine configurations are measured:
//!
//! * `sim_device` — the headline: a durable engine whose commit groups pay
//!   a fixed 50µs simulated log-device latency (`SyncMode::Simulated`, the
//!   same device model `shard_scaling` uses). This is the deployment shape
//!   the paper evaluates — transactional writes are durable — and the
//!   configuration the ≥30%-of-in-process acceptance target is gated on.
//! * `nosync` — both sides fully in-memory. This isolates the pure
//!   service-stack ceiling: with ~1µs engine operations, every remote op
//!   is dominated by the loopback RTT, so the ratio is far lower. Reported
//!   for reference, not gated.
//!
//! The report includes per-op latency summaries (mean / p50 / p99) for the
//! remote runs and the server's sealed-vs-checked scan counters fetched
//! through the `Stats` admin op.
//!
//! Writes `BENCH_server.json` to the repository root (override with
//! `LIVEGRAPH_BENCH_OUT`). `LIVEGRAPH_BENCH=quick` keeps the run short for
//! CI smoke checks; `full` runs longer for stabler numbers.

use std::sync::Arc;
use std::time::Duration;

use livegraph_bench::{fmt_ms, ResultTable};
use livegraph_core::{LiveGraph, LiveGraphOptions, SyncMode};
use livegraph_server::{Client, Engine, Server, ServerConfig, StatsReply};
use livegraph_workloads::backends::LiveGraphBackend;
use livegraph_workloads::{
    load_base_graph, run_workload, DriverConfig, OpMix, RemoteBackend, WorkloadReport,
};

const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

/// Simulated log-device latency per commit group (matches `shard_scaling`).
const SIM_LATENCY: Duration = Duration::from_micros(50);

/// Acceptance floor: remote throughput at 4 clients must stay within this
/// fraction of in-process, in the durable (`sim_device`) configuration.
const TARGET_RATIO_AT_4: f64 = 0.30;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    SimDevice,
    NoSync,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::SimDevice => "sim_device",
            Mode::NoSync => "nosync",
        }
    }
}

struct Config {
    vertices: u64,
    avg_degree: u64,
    ops_per_client: u64,
    link_list_limit: usize,
}

struct Sample {
    clients: usize,
    inproc: WorkloadReport,
    remote: WorkloadReport,
    stats: StatsReply,
}

impl Sample {
    fn ratio(&self) -> f64 {
        self.remote.throughput() / self.inproc.throughput().max(1e-9)
    }
}

fn driver_config(clients: usize, cfg: &Config) -> DriverConfig {
    DriverConfig {
        clients,
        ops_per_client: cfg.ops_per_client,
        mix: OpMix::dflt(),
        num_vertices: cfg.vertices,
        zipf_exponent: 0.8,
        think_time: None,
        link_list_limit: cfg.link_list_limit,
        seed: 42,
        write_partitions: None,
    }
}

/// Builds the engine for one run; the tempdir guard (if any) must outlive
/// the graph.
fn build_graph(cfg: &Config, mode: Mode) -> (LiveGraph, Option<tempfile::TempDir>) {
    let max_vertices = (cfg.vertices as usize * 4).next_power_of_two();
    match mode {
        Mode::NoSync => {
            let graph = LiveGraph::open(
                LiveGraphOptions::in_memory()
                    .with_capacity(1 << 28)
                    .with_max_vertices(max_vertices)
                    .with_sync_mode(SyncMode::NoSync),
            )
            .expect("open in-memory graph");
            (graph, None)
        }
        Mode::SimDevice => {
            let dir = tempfile::tempdir().expect("tempdir");
            let graph = LiveGraph::open(
                LiveGraphOptions::durable(dir.path())
                    .with_capacity(1 << 28)
                    .with_max_vertices(max_vertices)
                    .with_sync_mode(SyncMode::Simulated(SIM_LATENCY)),
            )
            .expect("open durable graph");
            (graph, Some(dir))
        }
    }
}

fn run_pair(clients: usize, cfg: &Config, mode: Mode) -> Sample {
    // In-process: the engine shares the driver's address space.
    let inproc = {
        let (graph, _dir) = build_graph(cfg, mode);
        let backend = LiveGraphBackend::new(graph);
        load_base_graph(&backend, cfg.vertices, cfg.avg_degree, 7);
        run_workload(Arc::new(backend), &driver_config(clients, cfg))
    };

    // Remote: same engine build, hosted behind the TCP service; the driver
    // speaks the wire protocol over one request/response connection
    // (depth 1) per client thread, and the server must offer at least as
    // many handler threads — the connections are persistent sessions.
    let (graph, _dir) = build_graph(cfg, mode);
    let server = Server::start(
        Arc::new(Engine::Plain(graph)),
        "127.0.0.1:0",
        ServerConfig::default().with_workers(clients + 2),
    )
    .expect("start loopback server");
    let (remote, stats) = {
        let backend = Arc::new(
            RemoteBackend::connect(server.local_addr(), clients, 1)
                .expect("connect remote backend"),
        );
        load_base_graph(&*backend, cfg.vertices, cfg.avg_degree, 7);
        let report = run_workload(backend.clone(), &driver_config(clients, cfg));
        // Server-side view of the same run: the engine's own commit/request
        // histograms, next to the client-side latency the driver measured.
        let server_side = backend.server_latency_report();
        if !server_side.is_empty() {
            print!("{server_side}");
        }
        let mut admin = Client::connect(server.local_addr()).expect("admin connection");
        let stats = admin.stats().expect("stats admin op");
        drop(admin);
        (report, stats)
    };
    server.shutdown();

    Sample {
        clients,
        inproc,
        remote,
        stats,
    }
}

fn per_op_json(report: &WorkloadReport) -> String {
    let mut rows = String::new();
    for (i, (kind, summary)) in report.per_op.iter().enumerate() {
        rows.push_str(&format!(
            "          {{\"op\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}{}\n",
            kind.name(),
            summary.count,
            fmt_ms(summary.mean),
            fmt_ms(summary.p50),
            fmt_ms(summary.p99),
            if i + 1 < report.per_op.len() { "," } else { "" }
        ));
    }
    rows
}

fn sample_json(samples: &[Sample]) -> String {
    let mut rows = String::new();
    for (i, s) in samples.iter().enumerate() {
        let scans_total = s.stats.sealed_scans + s.stats.checked_scans;
        rows.push_str(&format!(
            "      {{\n        \"clients\": {},\n        \"inproc_ops_per_s\": {:.0},\n        \
             \"remote_ops_per_s\": {:.0},\n        \"remote_over_inproc\": {:.3},\n        \
             \"remote_mean_ms\": {},\n        \"remote_p99_ms\": {},\n        \
             \"server_sealed_scans\": {},\n        \"server_checked_scans\": {},\n        \
             \"server_sealed_scan_ratio\": {:.3},\n        \"remote_per_op\": [\n{}        ]\n      }}{}\n",
            s.clients,
            s.inproc.throughput(),
            s.remote.throughput(),
            s.ratio(),
            fmt_ms(s.remote.latency.mean),
            fmt_ms(s.remote.latency.p99),
            s.stats.sealed_scans,
            s.stats.checked_scans,
            s.stats.sealed_scans as f64 / (scans_total as f64).max(1.0),
            per_op_json(&s.remote),
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    rows
}

fn main() {
    let quick = !matches!(
        std::env::var("LIVEGRAPH_BENCH").as_deref(),
        Ok("full") | Ok("FULL") | Ok("paper")
    );
    let cfg = if quick {
        Config {
            vertices: 2_000,
            avg_degree: 8,
            ops_per_client: 2_000,
            link_list_limit: 1_000,
        }
    } else {
        Config {
            vertices: 50_000,
            avg_degree: 16,
            ops_per_client: 25_000,
            link_list_limit: 1_000,
        }
    };

    let mut table = ResultTable::new(
        "Service layer: DFLT mix, in-process vs remote loopback",
        &["mode", "clients", "inproc req/s", "remote req/s", "remote/inproc", "remote p99 (ms)"],
    );
    let mut by_mode: Vec<(Mode, Vec<Sample>)> = Vec::new();
    for mode in [Mode::SimDevice, Mode::NoSync] {
        let mut samples = Vec::new();
        for &clients in &CLIENT_COUNTS {
            let sample = run_pair(clients, &cfg, mode);
            println!(
                "{:<10} clients={:<3} inproc {:>9.0} req/s | remote {:>9.0} req/s | ratio {:.2}",
                mode.name(),
                clients,
                sample.inproc.throughput(),
                sample.remote.throughput(),
                sample.ratio()
            );
            table.add_row(vec![
                mode.name().to_string(),
                sample.clients.to_string(),
                format!("{:.0}", sample.inproc.throughput()),
                format!("{:.0}", sample.remote.throughput()),
                format!("{:.3}", sample.ratio()),
                fmt_ms(sample.remote.latency.p99),
            ]);
            samples.push(sample);
        }
        by_mode.push((mode, samples));
    }
    table.finish("server_throughput");

    let headline = &by_mode[0].1;
    let at4 = headline
        .iter()
        .find(|s| s.clients == 4)
        .expect("4-client sample");
    if at4.ratio() < TARGET_RATIO_AT_4 {
        println!(
            "WARNING: durable remote throughput at 4 clients is {:.1}% of in-process \
             (target >= {:.0}%)",
            at4.ratio() * 100.0,
            TARGET_RATIO_AT_4 * 100.0
        );
    } else {
        println!(
            "durable remote throughput at 4 clients: {:.1}% of in-process (target >= {:.0}%)",
            at4.ratio() * 100.0,
            TARGET_RATIO_AT_4 * 100.0
        );
    }

    let out =
        std::env::var("LIVEGRAPH_BENCH_OUT").unwrap_or_else(|_| "BENCH_server.json".into());
    let mode_sections: String = by_mode
        .iter()
        .enumerate()
        .map(|(i, (mode, samples))| {
            format!(
                "    {{\n      \"mode\": \"{}\",\n      \"samples\": [\n{}      ]\n    }}{}\n",
                mode.name(),
                sample_json(samples),
                if i + 1 < by_mode.len() { "," } else { "" }
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"server_throughput\",\n  \"scale\": \"{}\",\n  \
         \"workload\": {{\"mix\": \"dflt\", \"vertices\": {}, \"avg_degree\": {}, \
         \"ops_per_client\": {}, \"link_list_limit\": {}}},\n  \
         \"sim_device_commit_latency_us\": {},\n  \
         \"target_remote_over_inproc_at_4_clients_sim_device\": {},\n  \
         \"achieved_remote_over_inproc_at_4_clients_sim_device\": {:.3},\n  \
         \"configs\": [\n{}  ]\n}}\n",
        if quick { "quick" } else { "full" },
        cfg.vertices,
        cfg.avg_degree,
        cfg.ops_per_client,
        cfg.link_list_limit,
        SIM_LATENCY.as_micros(),
        TARGET_RATIO_AT_4,
        at4.ratio(),
        mode_sections,
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(json written to {out})"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
}
