//! End-to-end tests of the networked service layer over loopback TCP.
//!
//! The server runs in-process, so every test can compare what remote
//! clients observe against a direct in-process oracle on the very same
//! engine instance (`Engine::as_plain`): snapshot isolation, epoch pins,
//! lock cleanup and recovery are asserted against ground truth rather than
//! a second client's view.

use std::sync::Arc;
use std::time::{Duration, Instant};

use livegraph::core::{LiveGraph, LiveGraphOptions, SyncMode, DEFAULT_LABEL};
use livegraph::server::{
    Client, ClientError, Engine, ErrorCode, ReactorConfig, ReactorServer, Server, ServerConfig,
};
use livegraph::workloads::{
    load_base_graph, run_workload, DriverConfig, LinkBenchBackend, LiveGraphBackend, OpMix,
    RemoteBackend,
};

fn small_graph() -> LiveGraph {
    LiveGraph::open(
        LiveGraphOptions::in_memory()
            .with_capacity(1 << 24)
            .with_max_vertices(1 << 14)
            .with_auto_compaction(false),
    )
    .unwrap()
}

fn start(engine: Engine, workers: usize) -> (Arc<Engine>, Server) {
    let engine = Arc::new(engine);
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig::default().with_workers(workers),
    )
    .unwrap();
    (engine, server)
}

/// Same engine hosting, but on the epoll reactor: all connections
/// multiplexed on two event-loop threads instead of a thread each.
fn start_reactor(engine: Engine) -> (Arc<Engine>, ReactorServer) {
    let engine = Arc::new(engine);
    let server = ReactorServer::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ReactorConfig::default().with_event_threads(2),
    )
    .unwrap();
    (engine, server)
}

// ---------------------------------------------------------------------------
// Point ops, transactions, streaming
// ---------------------------------------------------------------------------

#[test]
fn point_ops_and_transactions_roundtrip_over_the_wire() {
    let (_engine, server) = start(Engine::Plain(small_graph()), 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Explicit transaction.
    let txn = client.begin_write().unwrap();
    let a = client.create_vertex(txn, b"alice").unwrap();
    let b = client.create_vertex(txn, b"bob").unwrap();
    assert!(client.put_edge(Some(txn), a, DEFAULT_LABEL, b, b"follows").unwrap());
    let commit_epoch = client.commit(txn).unwrap();
    assert!(commit_epoch > 0);

    // Auto-commit ops observe the committed state.
    assert_eq!(client.get_vertex(None, a).unwrap(), Some(b"alice".to_vec()));
    assert_eq!(
        client.get_edge(None, a, DEFAULT_LABEL, b).unwrap(),
        Some(b"follows".to_vec())
    );
    assert_eq!(client.degree(None, a, DEFAULT_LABEL).unwrap(), 1);
    assert_eq!(client.neighbors(None, a, DEFAULT_LABEL, 0).unwrap(), vec![b]);

    // Deletions and aborts.
    let txn = client.begin_write().unwrap();
    assert!(client.delete_edge(Some(txn), a, DEFAULT_LABEL, b).unwrap());
    client.abort(txn).unwrap();
    assert_eq!(client.degree(None, a, DEFAULT_LABEL).unwrap(), 1, "abort rolled back");

    assert!(client.delete_edge(None, a, DEFAULT_LABEL, b).unwrap());
    assert_eq!(client.degree(None, a, DEFAULT_LABEL).unwrap(), 0);

    // Server-side errors arrive as typed responses, not broken connections.
    match client.put_vertex(None, 99_999, b"x") {
        Err(ClientError::Server { code: ErrorCode::VertexNotFound, .. }) => {}
        other => panic!("expected VertexNotFound, got {other:?}"),
    }
    client.ping().unwrap(); // connection still healthy
    drop(client);
    server.shutdown();
}

#[test]
fn neighbor_streaming_reassembles_large_adjacency_lists() {
    let (_engine, server) = start(Engine::Plain(small_graph()), 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let txn = client.begin_write().unwrap();
    let hub = client.create_vertex(txn, b"hub").unwrap();
    let n = livegraph::server::NEIGHBOR_CHUNK_DSTS * 3 + 41;
    let mut expected = Vec::new();
    for _ in 0..n {
        let d = client.create_vertex(txn, b"").unwrap();
        client.put_edge(Some(txn), hub, DEFAULT_LABEL, d, b"").unwrap();
        expected.push(d);
    }
    client.commit(txn).unwrap();
    expected.reverse(); // newest first

    let got = client.neighbors(None, hub, DEFAULT_LABEL, 0).unwrap();
    assert_eq!(got, expected, "chunked stream reassembles in scan order");
    let bounded = client.neighbors(None, hub, DEFAULT_LABEL, 7).unwrap();
    assert_eq!(bounded, expected[..7]);
    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Snapshot isolation vs. the in-process oracle
// ---------------------------------------------------------------------------

/// Collects the full visible state of a snapshot: per-vertex properties and
/// adjacency, newest first.
fn snapshot_state_inproc(graph: &LiveGraph, epoch: i64) -> Vec<(u64, Option<Vec<u8>>, Vec<u64>)> {
    let read = graph.begin_read_at(epoch).unwrap();
    (0..graph.vertex_count())
        .map(|v| {
            let props = read.get_vertex(v).map(|p| p.to_vec());
            let dsts: Vec<u64> = read.edges(v, DEFAULT_LABEL).map(|e| e.dst).collect();
            (v, props, dsts)
        })
        .collect()
}

fn snapshot_state_remote(
    client: &mut Client,
    epoch: i64,
    vertices: u64,
) -> Vec<(u64, Option<Vec<u8>>, Vec<u64>)> {
    let txn = client.begin_read_at(epoch).unwrap();
    let state = (0..vertices)
        .map(|v| {
            let props = client.get_vertex(Some(txn), v).unwrap();
            let dsts = client.neighbors(Some(txn), v, DEFAULT_LABEL, 0).unwrap();
            (v, props, dsts)
        })
        .collect();
    client.commit(txn).unwrap();
    state
}

/// The snapshot-isolation oracle scenario, runnable against either server
/// flavor: concurrent remote writers, then remote readers pinned at every
/// commit epoch compared against the in-process oracle on the same engine.
fn si_oracle_scenario(addr: std::net::SocketAddr, graph: &LiveGraph) {
    // Seed a few vertices.
    let mut seeder = Client::connect(addr).unwrap();
    let txn = seeder.begin_write().unwrap();
    let mut ids = Vec::new();
    for i in 0..6u32 {
        ids.push(seeder.create_vertex(txn, format!("v{i}").as_bytes()).unwrap());
    }
    seeder.commit(txn).unwrap();

    // Two concurrent writer clients commit interleaved batches; every
    // commit epoch is recorded.
    let ids2 = ids.clone();
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let ids = ids2.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut epochs = Vec::new();
                for round in 0..10u64 {
                    let txn = client.begin_write().unwrap();
                    let src = ids[(w * 3) as usize];
                    let dst = ids[((round + w) % ids.len() as u64) as usize];
                    match client.put_edge(Some(txn), src, DEFAULT_LABEL, dst, b"e") {
                        Ok(_) => match client.commit(txn) {
                            Ok(epoch) => epochs.push(epoch),
                            Err(e) if e.is_write_conflict() => {}
                            Err(e) => panic!("commit failed: {e}"),
                        },
                        Err(e) if e.is_write_conflict() => {} // txn auto-aborted
                        Err(e) => panic!("put_edge failed: {e}"),
                    }
                }
                epochs
            })
        })
        .collect();
    let mut epochs: Vec<i64> = writers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    assert!(!epochs.is_empty());

    // A remote reader pinned at each committed epoch must see exactly what
    // the in-process oracle sees at that epoch.
    let mut reader = Client::connect(addr).unwrap();
    for &epoch in &epochs {
        let remote = snapshot_state_remote(&mut reader, epoch, graph.vertex_count());
        let oracle = snapshot_state_inproc(graph, epoch);
        assert_eq!(remote, oracle, "divergence at epoch {epoch}");
    }

    // And a long-lived remote read transaction is frozen at its snapshot
    // while new commits land.
    let frozen = reader.begin_read().unwrap();
    let before: Vec<u64> = reader
        .neighbors(Some(frozen), ids[0], DEFAULT_LABEL, 0)
        .unwrap();
    let txn = seeder.begin_write().unwrap();
    seeder
        .put_edge(Some(txn), ids[0], DEFAULT_LABEL, ids[5], b"late")
        .unwrap();
    seeder.commit(txn).unwrap();
    let after_frozen: Vec<u64> = reader
        .neighbors(Some(frozen), ids[0], DEFAULT_LABEL, 0)
        .unwrap();
    assert_eq!(before, after_frozen, "pinned snapshot must not move");
    reader.commit(frozen).unwrap();

    drop(reader);
    drop(seeder);
}

#[test]
fn multi_client_sessions_are_snapshot_isolated_and_match_the_oracle() {
    let (engine, server) = start(Engine::Plain(small_graph()), 4);
    si_oracle_scenario(server.local_addr(), engine.as_plain().unwrap());
    server.shutdown();
}

#[test]
fn reactor_sessions_are_snapshot_isolated_and_match_the_oracle() {
    let (engine, server) = start_reactor(Engine::Plain(small_graph()));
    si_oracle_scenario(server.local_addr(), engine.as_plain().unwrap());
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Disconnect cleanup (acceptance regression)
// ---------------------------------------------------------------------------

/// Polls until `cond` holds or the deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The disconnect-cleanup scenario, runnable against either server flavor:
/// a client vanishing mid-write-transaction must leave no vertex locks or
/// epoch pins behind, and the server keeps serving.
fn disconnect_cleanup_scenario(addr: std::net::SocketAddr, graph: &LiveGraph) {
    // Seed two vertices.
    let mut setup = Client::connect(addr).unwrap();
    let txn = setup.begin_write().unwrap();
    let a = setup.create_vertex(txn, b"a").unwrap();
    let b = setup.create_vertex(txn, b"b").unwrap();
    setup.commit(txn).unwrap();

    // Client A begins a write transaction, locks `a` by touching it, and
    // then vanishes without committing or aborting.
    let mut doomed = Client::connect(addr).unwrap();
    let txn = doomed.begin_write().unwrap();
    doomed
        .put_edge(Some(txn), a, DEFAULT_LABEL, b, b"never-committed")
        .unwrap();
    assert!(
        graph.oldest_active_read_epoch().is_some(),
        "open remote txn pins an epoch"
    );
    doomed.close(); // hard disconnect mid-transaction

    // The server notices EOF, drops the session, and the WriteTxn
    // destructor rolls back: epoch pin cleared...
    wait_for("epoch pin release after disconnect", || {
        graph.oldest_active_read_epoch().is_none()
    });
    // ...vertex lock released: a direct in-process writer acquires it
    // immediately (it would time out against a leaked lock)...
    let mut w = graph.begin_write().unwrap();
    w.put_edge(a, DEFAULT_LABEL, b, b"after-disconnect").unwrap();
    w.commit().unwrap();
    // ...and the abandoned write never became visible.
    let read = graph.begin_read().unwrap();
    assert_eq!(read.get_edge(a, DEFAULT_LABEL, b), Some(&b"after-disconnect"[..]));
    assert_eq!(read.degree(a, DEFAULT_LABEL), 1);

    // The serving thread survived and serves the next connection.
    let mut again = Client::connect(addr).unwrap();
    again.ping().unwrap();
    drop(again);
    drop(setup);
}

#[test]
fn disconnect_mid_write_txn_leaves_no_locks_or_epoch_pins() {
    let (engine, server) = start(Engine::Plain(small_graph()), 2);
    disconnect_cleanup_scenario(server.local_addr(), engine.as_plain().unwrap());
    server.shutdown();
}

#[test]
fn reactor_disconnect_mid_write_txn_leaves_no_locks_or_epoch_pins() {
    let (engine, server) = start_reactor(Engine::Plain(small_graph()));
    disconnect_cleanup_scenario(server.local_addr(), engine.as_plain().unwrap());
    server.shutdown();
}

#[test]
fn disconnect_with_open_read_txn_releases_its_pin() {
    let (engine, server) = start(Engine::Plain(small_graph()), 2);
    let graph = engine.as_plain().unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let _txn = client.begin_read().unwrap();
    assert!(graph.oldest_active_read_epoch().is_some());
    client.close();
    wait_for("read pin release after disconnect", || {
        graph.oldest_active_read_epoch().is_none()
    });
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Workload driver through the remote backend (acceptance)
// ---------------------------------------------------------------------------

/// The full logical state a LinkBench backend can observe.
fn backend_state(backend: &dyn LinkBenchBackend, vertices: u64) -> Vec<(Option<Vec<u8>>, usize)> {
    (0..vertices)
        .map(|v| (backend.get_node(v), backend.count_links(v)))
        .collect()
}

#[test]
fn driver_dflt_mix_through_remote_backend_matches_in_process() {
    const VERTICES: u64 = 128;
    let config = DriverConfig {
        clients: 1, // deterministic: one client, fixed seed
        ops_per_client: 600,
        mix: OpMix::dflt(),
        num_vertices: VERTICES,
        zipf_exponent: 0.8,
        think_time: None,
        link_list_limit: 50,
        seed: 11,
        write_partitions: None,
    };

    // In-process run.
    let inproc_backend = Arc::new(LiveGraphBackend::new(small_graph()));
    load_base_graph(inproc_backend.as_ref(), VERTICES, 2, 3);
    let inproc_report = run_workload(Arc::clone(&inproc_backend) as _, &config);

    // Identical run through the service layer.
    let (_engine, server) = start(Engine::Plain(small_graph()), 3);
    let remote_backend =
        Arc::new(RemoteBackend::connect(server.local_addr(), config.clients, 1).unwrap());
    load_base_graph(remote_backend.as_ref(), VERTICES, 2, 3);
    let remote_report = run_workload(Arc::clone(&remote_backend) as _, &config);

    assert_eq!(remote_report.total_ops, inproc_report.total_ops);
    assert_eq!(remote_report.backend, "remote");
    // Same deterministic op stream ⇒ identical final logical state.
    let total_vertices = inproc_backend.graph().vertex_count();
    assert_eq!(
        {
            let mut c = Client::connect(server.local_addr()).unwrap();
            let stats = c.stats().unwrap();
            stats.vertex_count
        },
        total_vertices,
        "both runs created the same number of vertices"
    );
    let inproc_state = backend_state(inproc_backend.as_ref(), total_vertices);
    let remote_state = backend_state(remote_backend.as_ref(), total_vertices);
    assert_eq!(remote_state, inproc_state, "final graph state diverged");

    drop(remote_backend);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Admin ops: checkpoint + recovery, stats
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_admin_op_prunes_wal_and_server_restart_recovers() {
    let dir = tempfile::tempdir().unwrap();
    let options = || {
        LiveGraphOptions::durable(dir.path())
            .with_capacity(1 << 24)
            .with_max_vertices(1 << 14)
            .with_sync_mode(SyncMode::NoSync)
    };

    let (a, b, c);
    {
        let (_engine, server) = start(Engine::Plain(LiveGraph::open(options()).unwrap()), 2);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let txn = client.begin_write().unwrap();
        a = client.create_vertex(txn, b"a").unwrap();
        b = client.create_vertex(txn, b"b").unwrap();
        client.put_edge(Some(txn), a, DEFAULT_LABEL, b, b"pre-checkpoint").unwrap();
        client.commit(txn).unwrap();

        // Remote admin op: checkpoint + WAL prune.
        client.checkpoint().unwrap();
        assert!(dir.path().join("checkpoint.dat").exists());
        let wal_after_checkpoint = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();

        // Post-checkpoint writes land in the WAL only.
        c = client.create_vertex_auto(b"c").unwrap();
        client.put_edge(None, a, DEFAULT_LABEL, c, b"post-checkpoint").unwrap();
        assert!(
            std::fs::metadata(dir.path().join("wal.log")).unwrap().len() > wal_after_checkpoint,
            "post-checkpoint commits must append to the pruned WAL"
        );
        drop(client);
        server.shutdown();
    }

    // A fresh server on the same data dir recovers checkpoint + WAL before
    // accepting connections.
    let (_engine, server) = start(Engine::Plain(LiveGraph::open(options()).unwrap()), 2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.get_vertex(None, a).unwrap(), Some(b"a".to_vec()));
    assert_eq!(
        client.get_edge(None, a, DEFAULT_LABEL, b).unwrap(),
        Some(b"pre-checkpoint".to_vec())
    );
    assert_eq!(
        client.get_edge(None, a, DEFAULT_LABEL, c).unwrap(),
        Some(b"post-checkpoint".to_vec())
    );
    assert_eq!(client.degree(None, a, DEFAULT_LABEL).unwrap(), 2);
    drop(client);
    server.shutdown();
}

#[test]
fn stats_admin_op_exposes_engine_and_scan_counters() {
    let (_engine, server) = start(Engine::Plain(small_graph()), 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let txn = client.begin_write().unwrap();
    let hub = client.create_vertex(txn, b"hub").unwrap();
    for _ in 0..10 {
        let d = client.create_vertex(txn, b"").unwrap();
        client.put_edge(Some(txn), hub, DEFAULT_LABEL, d, b"").unwrap();
    }
    client.commit(txn).unwrap();

    // Sealed scan (clean committed TEL) + point lookups.
    client.neighbors(None, hub, DEFAULT_LABEL, 0).unwrap();
    client.get_edge(None, hub, DEFAULT_LABEL, 1).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 1);
    assert_eq!(stats.vertex_count, 11);
    assert_eq!(stats.edge_insert_count, 10);
    assert!(stats.sealed_scans >= 1, "clean TEL scan must ride the sealed path");
    assert!(stats.edge_lookups >= 1);
    assert!(stats.read_epoch >= 1);
    assert!(stats.write_epoch >= stats.read_epoch);
    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Sharded engine behind the same wire protocol
// ---------------------------------------------------------------------------

#[test]
fn sharded_engine_serves_the_same_protocol() {
    use livegraph::core::{ShardedGraph, ShardedGraphOptions};
    let graph = ShardedGraph::open(
        ShardedGraphOptions::in_memory(2).with_base(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 22)
                .with_max_vertices(1 << 12),
        ),
    )
    .unwrap();
    let (_engine, server) = start(Engine::Sharded(graph), 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let txn = client.begin_write().unwrap();
    let a = client.create_vertex(txn, b"a").unwrap(); // shard 0
    let b = client.create_vertex(txn, b"b").unwrap(); // shard 1
    client.put_edge(Some(txn), a, DEFAULT_LABEL, b, b"x").unwrap();
    client.put_edge(Some(txn), b, DEFAULT_LABEL, a, b"y").unwrap(); // cross-shard txn
    client.commit(txn).unwrap();

    assert_eq!(client.neighbors(None, a, DEFAULT_LABEL, 0).unwrap(), vec![b]);
    assert_eq!(client.neighbors(None, b, DEFAULT_LABEL, 0).unwrap(), vec![a]);
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.vertex_count, 2);

    // Documented v1 limit: sharded checkpointing is unsupported, reported
    // as a typed error rather than a dropped connection.
    match client.checkpoint() {
        Err(ClientError::Server { code: ErrorCode::Unsupported, .. }) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
    client.ping().unwrap();
    drop(client);
    server.shutdown();
}
