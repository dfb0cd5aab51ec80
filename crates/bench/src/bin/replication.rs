//! Replication: steady-state shipping lag under write load, and read
//! throughput scaling across 1 / 2 / 4 read replicas.
//!
//! Two experiments, both over loopback TCP with in-process engines:
//!
//! * **Lag.** A primary takes continuous single-edge commits from several
//!   writer threads while one replica tails it; a sampler records the
//!   replica's `primary_epoch - local_gre` gap every few milliseconds.
//!   Reported: commit throughput, mean / p99 / max lag in epochs, and how
//!   long the replica needs to drain the backlog once writers stop.
//! * **Read fan-out.** A LinkBench base graph is loaded on the primary,
//!   checkpointed, and bootstrapped onto four replicas. The same read-only
//!   client mix (`get_node` + `get_link_list`, Zipf-skewed keys) then runs
//!   against 1, 2 and 4 replicas via `RemoteBackend::connect_with_replicas`
//!   round-robin routing. Reported: reads/s per replica count and the
//!   scaling ratio versus one replica.
//!
//! Writes `BENCH_replication.json` to the repository root (override with
//! `LIVEGRAPH_BENCH_OUT`). `LIVEGRAPH_BENCH=quick` (the default) keeps the
//! run CI-sized; `full` runs longer for stabler numbers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use livegraph_bench::ResultTable;
use livegraph_core::{LiveGraph, LiveGraphOptions, SyncMode, DEFAULT_LABEL};
use livegraph_server::{
    bootstrap_replica, start_replica, Engine, ReplicaOptions, ReplicaRunner, ReplicationState,
    Server, ServerConfig,
};
use livegraph_workloads::{load_base_graph, LinkBenchBackend, RemoteBackend};

const READ_CLIENTS: usize = 8;
const REPLICA_COUNTS: [usize; 3] = [1, 2, 4];

struct Config {
    /// Commits per writer thread in the lag experiment.
    lag_commits: u64,
    lag_writers: usize,
    /// Base graph size for the fan-out experiment.
    vertices: u64,
    avg_degree: u64,
    /// Reads per client thread per replica count.
    reads_per_client: u64,
}

fn durable_options(dir: &std::path::Path) -> LiveGraphOptions {
    LiveGraphOptions::durable(dir)
        .with_capacity(1 << 28)
        .with_max_vertices(1 << 20)
        .with_sync_mode(SyncMode::NoSync)
}

fn open_engine(dir: &std::path::Path) -> Arc<Engine> {
    Arc::new(Engine::Plain(
        LiveGraph::open(durable_options(dir)).expect("open durable graph"),
    ))
}

fn primary_gre(engine: &Engine) -> i64 {
    engine.as_plain().unwrap().stats().read_epoch
}

fn wait_caught_up(replica: &Engine, target: i64, what: &str) -> Duration {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(120);
    while primary_gre(replica) < target {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
    started.elapsed()
}

// ---------------------------------------------------------------------------
// Experiment 1: shipping lag under write load
// ---------------------------------------------------------------------------

struct LagReport {
    commits: u64,
    commit_throughput: f64,
    samples: usize,
    mean_lag: f64,
    p99_lag: i64,
    max_lag: i64,
    catchup: Duration,
}

fn run_lag(cfg: &Config) -> LagReport {
    let p_dir = tempfile::tempdir().unwrap();
    let r_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    let server = Server::start(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default())
        .expect("start primary");

    let replica = open_engine(r_dir.path());
    let state = Arc::new(ReplicationState::replica());
    let runner = start_replica(
        Arc::clone(&replica),
        Arc::clone(&state),
        server.local_addr(),
        ReplicaOptions::default(),
    );

    // Writers hammer the primary engine directly: the bench measures the
    // shipping path, not the client stack (server_throughput covers that).
    let stop_sampling = Arc::new(AtomicBool::new(false));
    let sampler = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop_sampling);
        std::thread::spawn(move || {
            let mut lags = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                lags.push(state.replication_lag());
                std::thread::sleep(Duration::from_millis(2));
            }
            lags
        })
    };

    let committed = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..cfg.lag_writers {
            let graph = Arc::clone(&primary);
            let committed = Arc::clone(&committed);
            let commits = cfg.lag_commits;
            scope.spawn(move || {
                let graph = graph.as_plain().unwrap();
                for i in 0..commits {
                    let mut txn = graph.begin_write().unwrap();
                    let a = txn.create_vertex(&(w as u64).to_le_bytes()).unwrap();
                    let b = txn.create_vertex(&i.to_le_bytes()).unwrap();
                    txn.put_edge(a, DEFAULT_LABEL, b, b"lag").unwrap();
                    txn.commit().unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let write_elapsed = started.elapsed();
    let commits = committed.load(Ordering::Relaxed);

    let catchup = wait_caught_up(&replica, primary_gre(&primary), "lag replica to drain");
    stop_sampling.store(true, Ordering::Relaxed);
    let mut lags = sampler.join().unwrap();
    lags.sort_unstable();

    let report = LagReport {
        commits,
        commit_throughput: commits as f64 / write_elapsed.as_secs_f64(),
        samples: lags.len(),
        mean_lag: lags.iter().sum::<i64>() as f64 / lags.len().max(1) as f64,
        p99_lag: lags.get(lags.len().saturating_sub(1) * 99 / 100).copied().unwrap_or(0),
        max_lag: lags.last().copied().unwrap_or(0),
        catchup,
    };

    runner.shutdown();
    server.shutdown();
    report
}

// ---------------------------------------------------------------------------
// Experiment 2: read throughput across 1 / 2 / 4 replicas
// ---------------------------------------------------------------------------

struct Replica {
    engine: Arc<Engine>,
    server: Server,
    runner: ReplicaRunner,
    _dir: tempfile::TempDir,
}

fn start_fanout_replica(primary: std::net::SocketAddr) -> Replica {
    let dir = tempfile::tempdir().unwrap();
    // Bootstrap from the primary's checkpoint instead of replaying the
    // whole load phase epoch by epoch.
    bootstrap_replica(dir.path(), primary, &ReplicaOptions::default()).expect("bootstrap replica");
    let engine = open_engine(dir.path());
    let state = Arc::new(ReplicationState::replica());
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig::default()
            .with_workers(READ_CLIENTS + 2)
            .with_replication(Arc::clone(&state)),
    )
    .expect("start replica server");
    let runner = start_replica(Arc::clone(&engine), state, primary, ReplicaOptions::default());
    Replica { engine, server, runner, _dir: dir }
}

struct FanoutSample {
    replicas: usize,
    reads_per_s: f64,
}

fn run_reads(backend: &Arc<RemoteBackend>, cfg: &Config) -> f64 {
    let started = Instant::now();
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..READ_CLIENTS {
            let backend = Arc::clone(backend);
            let total = Arc::clone(&total);
            let cfg_vertices = cfg.vertices;
            let reads = cfg.reads_per_client;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xfa0 + t as u64);
                let mut done = 0u64;
                for i in 0..reads {
                    // Zipf-ish skew on the cheap: square a uniform draw so
                    // low ids (the hubs LinkBench loads first) dominate.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let v = ((u * u) * cfg_vertices as f64) as u64;
                    if i % 4 == 0 {
                        backend.get_node(v);
                    } else {
                        backend.get_link_list(v, 16);
                    }
                    done += 1;
                }
                total.fetch_add(done, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

fn run_fanout(cfg: &Config) -> Vec<FanoutSample> {
    let p_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    let server = Server::start(
        Arc::clone(&primary),
        "127.0.0.1:0",
        ServerConfig::default().with_workers(READ_CLIENTS + 2),
    )
    .expect("start primary");
    let p_addr = server.local_addr();

    // Load the base graph over the wire, then checkpoint so replicas
    // bootstrap from an image instead of replaying the load.
    let loader = RemoteBackend::connect(p_addr, READ_CLIENTS, 1).expect("connect loader");
    load_base_graph(&loader, cfg.vertices, cfg.avg_degree, 7);
    drop(loader);
    primary.as_plain().unwrap().checkpoint().expect("checkpoint primary");

    let replicas: Vec<Replica> = (0..*REPLICA_COUNTS.iter().max().unwrap())
        .map(|_| start_fanout_replica(p_addr))
        .collect();
    let target = primary_gre(&primary);
    for r in &replicas {
        wait_caught_up(&r.engine, target, "fan-out replica to catch up");
    }

    let samples = REPLICA_COUNTS
        .iter()
        .map(|&n| {
            let addrs: Vec<_> = replicas[..n].iter().map(|r| r.server.local_addr()).collect();
            let backend = Arc::new(
                RemoteBackend::connect_with_replicas(p_addr, &addrs, READ_CLIENTS, 1)
                    .expect("connect fan-out backend"),
            );
            let reads_per_s = run_reads(&backend, cfg);
            println!("replicas={n} reads {reads_per_s:>10.0}/s");
            FanoutSample { replicas: n, reads_per_s }
        })
        .collect();

    for r in replicas {
        r.runner.shutdown();
        r.server.shutdown();
    }
    server.shutdown();
    samples
}

// ---------------------------------------------------------------------------

fn main() {
    let quick = !matches!(
        std::env::var("LIVEGRAPH_BENCH").as_deref(),
        Ok("full") | Ok("FULL") | Ok("paper")
    );
    let cfg = if quick {
        Config {
            lag_commits: 2_000,
            lag_writers: 2,
            vertices: 2_000,
            avg_degree: 8,
            reads_per_client: 2_000,
        }
    } else {
        Config {
            lag_commits: 20_000,
            lag_writers: 4,
            vertices: 20_000,
            avg_degree: 16,
            reads_per_client: 20_000,
        }
    };

    let lag = run_lag(&cfg);
    println!(
        "lag: {} commits at {:.0}/s | mean {:.1} epochs, p99 {}, max {} | catch-up {:?}",
        lag.commits, lag.commit_throughput, lag.mean_lag, lag.p99_lag, lag.max_lag, lag.catchup
    );

    let fanout = run_fanout(&cfg);
    let base = fanout[0].reads_per_s.max(1e-9);

    let mut table = ResultTable::new(
        "Replication: shipping lag and read fan-out",
        &["metric", "value"],
    );
    table.add_row(vec!["commit throughput (1 replica attached)".into(), format!("{:.0}/s", lag.commit_throughput)]);
    table.add_row(vec!["mean lag (epochs)".into(), format!("{:.1}", lag.mean_lag)]);
    table.add_row(vec!["p99 lag (epochs)".into(), lag.p99_lag.to_string()]);
    table.add_row(vec!["max lag (epochs)".into(), lag.max_lag.to_string()]);
    table.add_row(vec!["catch-up after load stops".into(), format!("{:.0} ms", lag.catchup.as_secs_f64() * 1e3)]);
    for s in &fanout {
        table.add_row(vec![
            format!("reads/s @ {} replica(s)", s.replicas),
            format!("{:.0} ({:.2}x)", s.reads_per_s, s.reads_per_s / base),
        ]);
    }
    table.finish("replication");

    let out = std::env::var("LIVEGRAPH_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_replication.json".into());
    let fanout_json: String = fanout
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "    {{\"replicas\": {}, \"reads_per_s\": {:.0}, \"scaling_vs_1\": {:.3}}}{}\n",
                s.replicas,
                s.reads_per_s,
                s.reads_per_s / base,
                if i + 1 < fanout.len() { "," } else { "" }
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"replication\",\n  \"scale\": \"{}\",\n  \
         \"lag\": {{\"writer_threads\": {}, \"commits\": {}, \
         \"commit_throughput_per_s\": {:.0}, \"lag_samples\": {}, \
         \"mean_lag_epochs\": {:.2}, \"p99_lag_epochs\": {}, \"max_lag_epochs\": {}, \
         \"catchup_ms\": {:.1}}},\n  \
         \"read_fanout\": {{\"clients\": {}, \"vertices\": {}, \"avg_degree\": {}, \
         \"reads_per_client\": {}, \"samples\": [\n{}  ]}}\n}}\n",
        if quick { "quick" } else { "full" },
        cfg.lag_writers,
        lag.commits,
        lag.commit_throughput,
        lag.samples,
        lag.mean_lag,
        lag.p99_lag,
        lag.max_lag,
        lag.catchup.as_secs_f64() * 1e3,
        READ_CLIENTS,
        cfg.vertices,
        cfg.avg_degree,
        cfg.reads_per_client,
        fanout_json,
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(json written to {out})"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
}
