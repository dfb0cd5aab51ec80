//! End-to-end replication tests: divergence oracle, chaos injection,
//! bounded bootstrap, and failover.
//!
//! The primary and its replicas run in-process so every test can hold
//! direct engine handles on both sides: the divergence oracle compares
//! `begin_read_at(epoch)` snapshots on the *actual* graphs, not a second
//! client's view, for every epoch the primary ever shipped. Chaos tests
//! route the replication link through `FaultProxy` (delay / refuse /
//! truncate-mid-frame / disconnect) and assert the oracle still holds after
//! convergence — the replica may fall behind, but it must never diverge.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use livegraph::core::{LiveGraph, LiveGraphOptions, SyncMode, DEFAULT_LABEL};
use livegraph::server::{
    bootstrap_replica, start_replica, Client, ClientError, Engine, ErrorCode, FaultProxy,
    ReplicaOptions, ReplicaRunner, ReplicationState, Server, ServerConfig,
};

fn durable_options(dir: &Path) -> LiveGraphOptions {
    LiveGraphOptions::durable(dir)
        .with_capacity(1 << 24)
        // More ids than the failover test's ~300 ms of writes can use.
        .with_max_vertices(1 << 16)
        .with_sync_mode(SyncMode::NoSync)
        // Retain all history so the oracle can re-read every shipped epoch.
        .with_history_retention(1 << 40)
        .with_auto_compaction(false)
}

fn open_engine(dir: &Path) -> Arc<Engine> {
    Arc::new(Engine::Plain(LiveGraph::open(durable_options(dir)).unwrap()))
}

/// Fast-reconnect options so chaos tests converge quickly.
fn fast_opts() -> ReplicaOptions {
    ReplicaOptions {
        io_timeout: Duration::from_secs(2),
        min_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        ..ReplicaOptions::default()
    }
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Commits `n` transactions on `graph`, each creating a vertex pair plus an
/// edge; transaction `i` also overwrites vertex 0's properties so the
/// oracle sees version churn, not just inserts.
fn write_epochs(graph: &LiveGraph, n: usize) {
    for i in 0..n {
        let mut txn = graph.begin_write().unwrap();
        let a = txn.create_vertex(format!("a{i}").as_bytes()).unwrap();
        let b = txn.create_vertex(format!("b{i}").as_bytes()).unwrap();
        txn.put_edge(a, DEFAULT_LABEL, b, format!("e{i}").as_bytes()).unwrap();
        if a > 0 {
            txn.put_vertex(0, format!("gen{i}").as_bytes()).unwrap();
        }
        txn.commit().unwrap();
    }
}

/// One vertex's visible state: properties plus `(dst, edge properties)`
/// adjacency in scan order.
type VertexState = (u64, Option<Vec<u8>>, Vec<(u64, Vec<u8>)>);

/// The full visible state of `graph` at `epoch`.
fn snapshot_at(graph: &LiveGraph, epoch: i64) -> Vec<VertexState> {
    let read = graph.begin_read_at(epoch).unwrap();
    (0..graph.vertex_count())
        .map(|v| {
            let props = read.get_vertex(v).map(|p| p.to_vec());
            let dsts = read
                .edges(v, DEFAULT_LABEL)
                .map(|e| (e.dst, e.properties.to_vec()))
                .collect();
            (v, props, dsts)
        })
        .collect()
}

/// The divergence oracle: for every epoch in `[from, to]`, the replica's
/// snapshot must equal the primary's snapshot at that same epoch.
fn assert_no_divergence(primary: &LiveGraph, replica: &LiveGraph, from: i64, to: i64) {
    assert!(from <= to, "oracle range empty: {from}..={to}");
    for epoch in from..=to {
        assert_eq!(
            snapshot_at(primary, epoch),
            snapshot_at(replica, epoch),
            "replica diverged from primary at epoch {epoch}"
        );
    }
}

fn replica_gre(engine: &Engine) -> i64 {
    engine.as_plain().unwrap().stats().read_epoch
}

// ---------------------------------------------------------------------------
// Fault-free streaming
// ---------------------------------------------------------------------------

#[test]
fn replica_matches_primary_at_every_epoch() {
    let p_dir = tempfile::tempdir().unwrap();
    let r_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    let server = Server::start(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();

    // Half the history exists before the replica connects (tail replay),
    // half is streamed live.
    write_epochs(primary.as_plain().unwrap(), 20);

    let replica = open_engine(r_dir.path());
    let state = Arc::new(ReplicationState::replica());
    let runner = start_replica(Arc::clone(&replica), state, server.local_addr(), fast_opts());

    write_epochs(primary.as_plain().unwrap(), 20);
    let target = primary.as_plain().unwrap().stats().read_epoch;
    wait_until("replica to catch up", Duration::from_secs(10), || {
        replica_gre(&replica) >= target
    });

    let p = primary.as_plain().unwrap();
    let r = replica.as_plain().unwrap();
    assert_eq!(p.vertex_count(), r.vertex_count());
    assert_no_divergence(p, r, 1, target);
    assert!(runner.state().replication_lag() >= 0);

    runner.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Chaos: faulty links must delay, never diverge
// ---------------------------------------------------------------------------

#[test]
fn divergence_oracle_holds_across_link_faults() {
    let p_dir = tempfile::tempdir().unwrap();
    let r_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    let server = Server::start(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = FaultProxy::start(server.local_addr()).unwrap();

    let replica = open_engine(r_dir.path());
    let state = Arc::new(ReplicationState::replica());
    let runner = start_replica(Arc::clone(&replica), state, proxy.addr(), fast_opts());

    let p = primary.as_plain().unwrap();

    // Interleave commits with every fault mode the proxy offers.
    write_epochs(p, 10);
    proxy.truncate_after(512); // cut the stream mid-frame (one-shot)
    write_epochs(p, 10);
    proxy.kill_connections(); // hard disconnect mid-batch
    write_epochs(p, 10);
    proxy.set_refuse(true); // reconnects bounce, backoff kicks in
    write_epochs(p, 10);
    std::thread::sleep(Duration::from_millis(50));
    proxy.set_refuse(false);
    proxy.set_delay(Some(Duration::from_millis(1))); // slow link
    write_epochs(p, 10);
    proxy.set_delay(None);

    let target = p.stats().read_epoch;
    wait_until("replica to converge through faults", Duration::from_secs(20), || {
        replica_gre(&replica) >= target
    });

    assert_no_divergence(p, replica.as_plain().unwrap(), 1, target);
    assert!(!runner.state().replication_failed());

    runner.shutdown();
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn replica_restart_mid_catchup_resumes_from_durable_epoch() {
    let p_dir = tempfile::tempdir().unwrap();
    let r_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    let server = Server::start(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p = primary.as_plain().unwrap();
    write_epochs(p, 60);

    // First incarnation: let it apply part of the history, then stop it.
    let replica = open_engine(r_dir.path());
    let state = Arc::new(ReplicationState::replica());
    let runner = start_replica(Arc::clone(&replica), state, server.local_addr(), fast_opts());
    wait_until("replica to make partial progress", Duration::from_secs(10), || {
        replica_gre(&replica) > 0
    });
    runner.shutdown();
    let resumed_from = replica_gre(&replica);
    drop(replica);

    // The progress survived the restart: recovery replays the replica's own
    // WAL, and the second incarnation resumes from there, not from zero.
    assert!(
        livegraph::core::local_durable_epoch(r_dir.path()).unwrap() >= resumed_from,
        "replica progress must be durable before restart"
    );
    let replica = open_engine(r_dir.path());
    assert!(replica_gre(&replica) >= resumed_from, "restart lost applied epochs");

    let state = Arc::new(ReplicationState::replica());
    let runner = start_replica(Arc::clone(&replica), state, server.local_addr(), fast_opts());
    let target = p.stats().read_epoch;
    wait_until("restarted replica to catch up", Duration::from_secs(10), || {
        replica_gre(&replica) >= target
    });
    assert_no_divergence(p, replica.as_plain().unwrap(), 1, target);

    runner.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Bootstrap: checkpoint + WAL tail, not unbounded history
// ---------------------------------------------------------------------------

#[test]
fn bootstrap_ships_checkpoint_plus_tail_not_full_history() {
    let p_dir = tempfile::tempdir().unwrap();
    let r_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    let server = Server::start(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let p = primary.as_plain().unwrap();

    // A checkpoint advances the primary's WAL prune floor: epochs at or
    // below it are only reachable through the checkpoint image.
    write_epochs(p, 40);
    p.checkpoint().unwrap();
    write_epochs(p, 10);
    let floor = p.wal_prune_floor();
    assert!(floor > 0, "checkpoint must advance the prune floor");

    // A fresh replica must come up via the checkpoint, not a WAL replay
    // from epoch 1 (which the primary no longer retains).
    let epoch = bootstrap_replica(r_dir.path(), server.local_addr(), &fast_opts()).unwrap();
    assert!(
        epoch >= floor,
        "bootstrap returned epoch {epoch}, below the prune floor {floor}: \
         that would require unbounded WAL history"
    );

    let replica = open_engine(r_dir.path());
    assert!(replica_gre(&replica) >= floor, "bootstrap image not visible after open");
    let r = replica.as_plain().unwrap();
    // The replica holds a checkpoint image plus a WAL tail, never the full
    // per-epoch history: its own prune floor starts at the image epoch.
    assert!(
        r.wal_prune_floor() >= floor,
        "replica prune floor {} below the primary's {floor}: bootstrap \
         shipped replayable history instead of an image",
        r.wal_prune_floor()
    );

    // Traffic committed *after* the bootstrap streams epoch by epoch, so
    // the divergence oracle has a real per-epoch range to check.
    let state = Arc::new(ReplicationState::replica());
    let runner = start_replica(Arc::clone(&replica), state, server.local_addr(), fast_opts());
    write_epochs(p, 10);
    let target = p.stats().read_epoch;
    wait_until("bootstrapped replica to catch up", Duration::from_secs(10), || {
        replica_gre(&replica) >= target
    });

    // Epochs at or below the image epoch exist on the replica only as the
    // flattened image; per-epoch snapshots are comparable strictly after it.
    assert_no_divergence(p, r, epoch + 1, target);
    assert_eq!(p.vertex_count(), r.vertex_count());

    runner.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Failover: kill the primary, promote the replica, lose nothing acked
// ---------------------------------------------------------------------------

struct ReplicaServer {
    engine: Arc<Engine>,
    server: Server,
    runner: ReplicaRunner,
}

fn start_replica_server(dir: &Path, primary: SocketAddr) -> ReplicaServer {
    let engine = open_engine(dir);
    let state = Arc::new(ReplicationState::replica());
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig::default().with_replication(Arc::clone(&state)),
    )
    .unwrap();
    let runner = start_replica(Arc::clone(&engine), state, primary, fast_opts());
    ReplicaServer { engine, server, runner }
}

#[test]
fn promotion_after_primary_kill_loses_no_acked_commit() {
    let p_dir = tempfile::tempdir().unwrap();
    let r_dir = tempfile::tempdir().unwrap();
    let primary = open_engine(p_dir.path());
    // Semi-sync: a commit is acknowledged only after the replica confirmed
    // its epoch durable — the precondition for zero acked-commit loss.
    let p_state = Arc::new(ReplicationState::primary(1, Duration::from_secs(5)));
    let p_server = Server::start(
        Arc::clone(&primary),
        "127.0.0.1:0",
        ServerConfig::default().with_replication(Arc::clone(&p_state)),
    )
    .unwrap();
    let p_addr = p_server.local_addr();

    let replica = start_replica_server(r_dir.path(), p_addr);
    wait_until("replica to attach to the primary", Duration::from_secs(10), || {
        p_state.connected_replicas() == 1
    });

    // Kill the primary mid-load, from under the writer.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        p_server.shutdown();
    });

    // Commit until the kill severs the connection; only an Ok response
    // counts as acked. A replication timeout for a commit caught mid-gate
    // by the kill is precisely an *un*-acknowledged commit the failover
    // contract says may be lost. Any other server error means the load
    // ended before the kill, so the test would prove nothing.
    let mut client = Client::connect(p_addr).unwrap();
    let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
    loop {
        let payload = format!("acked{}", acked.len()).into_bytes();
        match client.create_vertex_auto(&payload) {
            Ok(v) => acked.push((v, payload)),
            Err(ClientError::Server { code: ErrorCode::ReplicationTimeout, .. }) => {}
            Err(e @ ClientError::Server { .. }) => panic!("commit refused before the kill: {e:?}"),
            Err(_) => break,
        }
    }
    killer.join().unwrap();
    assert!(!acked.is_empty(), "no commit was acked before the kill");

    // Promote over the wire, exactly like a failover controller would.
    let mut rc = Client::connect(replica.server.local_addr()).unwrap();
    let promoted_epoch = rc.promote().unwrap();
    assert!(promoted_epoch > 0);

    // Zero acked-commit loss: every acknowledged write is readable on the
    // promoted primary.
    for (v, payload) in &acked {
        assert_eq!(
            rc.get_vertex(None, *v).unwrap().as_ref(),
            Some(payload),
            "acked commit for vertex {v} lost in failover"
        );
    }

    // And the promoted primary accepts new writes.
    let v = rc.create_vertex_auto(b"post-failover").unwrap();
    assert_eq!(rc.get_vertex(None, v).unwrap(), Some(b"post-failover".to_vec()));

    drop(rc);
    replica.runner.shutdown();
    replica.server.shutdown();
    drop(replica.engine);
}

#[test]
fn replica_rejects_writes_until_promoted() {
    let dir = tempfile::tempdir().unwrap();
    let engine = open_engine(dir.path());
    let state = Arc::new(ReplicationState::replica());
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig::default().with_replication(state),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Explicit transactions, auto-commit writes and checkpoints are all
    // refused with a typed error while the server is a replica.
    for result in [
        client.begin_write().map(|_| ()),
        client.create_vertex_auto(b"x").map(|_| ()),
        client.checkpoint(),
    ] {
        match result {
            Err(ClientError::Server { code: ErrorCode::ReadOnlyReplica, .. }) => {}
            other => panic!("expected ReadOnlyReplica, got {other:?}"),
        }
    }
    // Reads are served.
    assert_eq!(client.get_vertex(None, 0).unwrap(), None);

    client.promote().unwrap();
    let v = client.create_vertex_auto(b"writable").unwrap();
    assert_eq!(client.get_vertex(None, v).unwrap(), Some(b"writable".to_vec()));

    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Client socket timeouts (satellite): a wedged server can't hang a client
// ---------------------------------------------------------------------------

#[test]
fn client_io_timeout_turns_a_wedged_server_into_a_typed_error() {
    // A listener that accepts and then never responds.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let wedge = std::thread::spawn(move || {
        let conn = listener.accept().ok().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });

    let mut client =
        Client::connect_with_timeout(addr, Some(Duration::from_millis(100))).unwrap();
    let started = Instant::now();
    match client.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected an io timeout error, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "timeout did not bound the blocking read"
    );
    assert!(client.is_poisoned(), "a timed-out connection must be poisoned");
    wedge.join().unwrap();
}
