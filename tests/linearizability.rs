//! Model-based concurrency oracle.
//!
//! Concurrent writer threads run randomized transactions against a real
//! engine and record every *committed* transaction's operations together
//! with its write epoch. Afterwards the committed log is replayed, in epoch
//! order, into a trivially correct single-threaded `BTreeMap` model; at
//! every commit epoch the engine's time-travel snapshot
//! (`begin_read_at(epoch)`) must agree with the model exactly — vertex
//! payloads, per-label neighbour sets with edge payloads, degrees, and the
//! set of labels carrying visible edges.
//!
//! Because commit epochs are the engine's serialization order under
//! snapshot isolation, this is an end-to-end check that the concurrent
//! history is equivalent to the serial epoch-order history — a far stronger
//! oracle than the coarse invariants in `stress_concurrent.rs`. It runs
//! against both the plain [`LiveGraph`] engine and the sharded multi-writer
//! engine ([`ShardedGraph`]), whose cross-shard commit handshake must make
//! multi-shard transactions visible atomically at one epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use livegraph::core::{
    GroupCommitConfig, LiveGraph, LiveGraphOptions, ShardedGraph, ShardedGraphOptions, SyncMode,
    Timestamp,
};

const VERTICES: u64 = 24;
const LABELS: u16 = 2;
const WRITERS: usize = 4;
const TXNS_PER_WRITER: usize = 150; // 600 committed transactions ≥ 500

/// One logical operation of a test transaction.
#[derive(Debug, Clone)]
enum TestOp {
    PutEdge(u64, u16, u64, Vec<u8>),
    DeleteEdge(u64, u16, u64),
    PutVertex(u64, Vec<u8>),
}

/// What a snapshot of the world looks like, for both the model and the
/// engine: per vertex, the visible payload and the per-label adjacency map
/// (destination → edge payload).
type VertexView = (Option<Vec<u8>>, BTreeMap<u16, BTreeMap<u64, Vec<u8>>>);
type Snapshot = BTreeMap<u64, VertexView>;

/// The single-threaded reference model.
#[derive(Default)]
struct Model {
    vertices: BTreeMap<u64, Vec<u8>>,
    edges: BTreeMap<(u64, u16), BTreeMap<u64, Vec<u8>>>,
}

impl Model {
    fn apply(&mut self, ops: &[TestOp]) {
        for op in ops {
            match op {
                TestOp::PutEdge(src, label, dst, payload) => {
                    self.edges
                        .entry((*src, *label))
                        .or_default()
                        .insert(*dst, payload.clone());
                }
                TestOp::DeleteEdge(src, label, dst) => {
                    if let Some(adj) = self.edges.get_mut(&(*src, *label)) {
                        adj.remove(dst);
                    }
                }
                TestOp::PutVertex(v, payload) => {
                    self.vertices.insert(*v, payload.clone());
                }
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::new();
        for v in 0..VERTICES {
            let mut adj: BTreeMap<u16, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
            for label in 0..LABELS {
                if let Some(edges) = self.edges.get(&(v, label)) {
                    if !edges.is_empty() {
                        adj.insert(label, edges.clone());
                    }
                }
            }
            out.insert(v, (self.vertices.get(&v).cloned(), adj));
        }
        out
    }
}

/// The engine surface the oracle drives — implemented for both engines.
trait Engine: Send + Sync {
    /// Creates vertices `0..VERTICES`; returns the setup commit epoch.
    fn setup(&self) -> Timestamp;
    /// Attempts one transaction; `Ok((epoch, effective_ops))` on commit,
    /// `Err(())` on a write-write conflict (the caller retries the same
    /// operation list). `effective_ops` keeps only the operations the
    /// engine actually performed — a `DeleteEdge` of an absent edge buffers
    /// nothing and must not reach the model either: the engine assigns such
    /// a transaction no real epoch (an all-no-op "commit" just reports the
    /// current GRE), and replaying the phantom delete at a sorted epoch
    /// could remove an edge a concurrent committer had just created.
    fn try_txn(&self, ops: &[TestOp]) -> Result<(Timestamp, Vec<TestOp>), ()>;
    /// The engine's view of the world at `epoch`.
    fn snapshot_at(&self, epoch: Timestamp) -> Snapshot;
    fn compact(&self);
    fn name(&self) -> &'static str;
    /// `(flushed_wal_batches, records_across_batches)` for durable engines,
    /// `None` for in-memory ones. The group-commit oracle variants use this
    /// to pin that multi-transaction batches actually formed.
    fn wal_batching(&self) -> Option<(u64, u64)>;
}

fn engine_snapshot(
    get_vertex: impl Fn(u64) -> Option<Vec<u8>>,
    edges_of: impl Fn(u64, u16) -> BTreeMap<u64, Vec<u8>>,
    degree_of: impl Fn(u64, u16) -> usize,
    labels_of: impl Fn(u64) -> BTreeSet<u16>,
) -> Snapshot {
    let mut out = Snapshot::new();
    for v in 0..VERTICES {
        let mut adj: BTreeMap<u16, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
        let mut labels_with_edges = BTreeSet::new();
        for label in 0..LABELS {
            let edges = edges_of(v, label);
            // Degrees must agree with the scan on the engine side itself.
            assert_eq!(degree_of(v, label), edges.len(), "degree/scan mismatch");
            if !edges.is_empty() {
                labels_with_edges.insert(label);
                adj.insert(label, edges);
            }
        }
        // The engine's label index, filtered to labels with visible edges,
        // must match the adjacency view (the label index itself also lists
        // labels whose lists are empty at this epoch).
        let listed: BTreeSet<u16> = labels_of(v)
            .into_iter()
            .filter(|&l| degree_of(v, l) > 0)
            .collect();
        assert_eq!(listed, labels_with_edges, "label set mismatch for vertex {v}");
        out.insert(v, (get_vertex(v), adj));
    }
    out
}

struct PlainEngine {
    graph: LiveGraph,
    /// Keeps the data directory alive for durable configurations.
    _dir: Option<tempfile::TempDir>,
}

impl Engine for PlainEngine {
    fn setup(&self) -> Timestamp {
        let mut txn = self.graph.begin_write().unwrap();
        for v in 0..VERTICES {
            assert_eq!(txn.create_vertex(format!("init-{v}").as_bytes()).unwrap(), v);
        }
        txn.commit().unwrap()
    }

    fn try_txn(&self, ops: &[TestOp]) -> Result<(Timestamp, Vec<TestOp>), ()> {
        let mut txn = self.graph.begin_write().unwrap();
        let mut effective = Vec::with_capacity(ops.len());
        for op in ops {
            let r = match op {
                TestOp::PutEdge(s, l, d, p) => txn.put_edge(*s, *l, *d, p).map(|_| true),
                TestOp::DeleteEdge(s, l, d) => txn.delete_edge(*s, *l, *d),
                TestOp::PutVertex(v, p) => txn.put_vertex(*v, p).map(|()| true),
            };
            match r {
                Ok(true) => effective.push(op.clone()),
                Ok(false) => {} // no-op delete: nothing buffered, nothing modelled
                Err(_) => return Err(()),
            }
        }
        let epoch = txn.commit().map_err(|_| ())?;
        Ok((epoch, effective))
    }

    fn snapshot_at(&self, epoch: Timestamp) -> Snapshot {
        let read = self.graph.begin_read_at(epoch).unwrap();
        engine_snapshot(
            |v| read.get_vertex(v).map(|p| p.to_vec()),
            |v, l| read.edges(v, l).map(|e| (e.dst, e.properties.to_vec())).collect(),
            |v, l| read.degree(v, l),
            |v| read.labels(v).collect(),
        )
    }

    fn compact(&self) {
        self.graph.compact();
    }

    fn name(&self) -> &'static str {
        "livegraph"
    }

    fn wal_batching(&self) -> Option<(u64, u64)> {
        self._dir.as_ref()?;
        let s = self.graph.stats();
        Some((s.wal_groups, s.wal_group_records))
    }
}

struct ShardedEngine {
    graph: ShardedGraph,
    /// Keeps the data directory alive for durable configurations.
    _dir: Option<tempfile::TempDir>,
}

impl Engine for ShardedEngine {
    fn setup(&self) -> Timestamp {
        let mut txn = self.graph.begin_write().unwrap();
        for v in 0..VERTICES {
            assert_eq!(txn.create_vertex(format!("init-{v}").as_bytes()).unwrap(), v);
        }
        txn.commit().unwrap()
    }

    fn try_txn(&self, ops: &[TestOp]) -> Result<(Timestamp, Vec<TestOp>), ()> {
        let mut txn = self.graph.begin_write().unwrap();
        let mut effective = Vec::with_capacity(ops.len());
        for op in ops {
            let r = match op {
                TestOp::PutEdge(s, l, d, p) => txn.put_edge(*s, *l, *d, p).map(|_| true),
                TestOp::DeleteEdge(s, l, d) => txn.delete_edge(*s, *l, *d),
                TestOp::PutVertex(v, p) => txn.put_vertex(*v, p).map(|()| true),
            };
            match r {
                Ok(true) => effective.push(op.clone()),
                Ok(false) => {} // no-op delete: nothing buffered, nothing modelled
                Err(_) => return Err(()),
            }
        }
        let epoch = txn.commit().map_err(|_| ())?;
        Ok((epoch, effective))
    }

    fn snapshot_at(&self, epoch: Timestamp) -> Snapshot {
        let read = self.graph.begin_read_at(epoch).unwrap();
        engine_snapshot(
            |v| read.get_vertex(v).map(|p| p.to_vec()),
            |v, l| read.edges(v, l).map(|e| (e.dst, e.properties.to_vec())).collect(),
            |v, l| read.degree(v, l),
            |v| read.labels(v).collect(),
        )
    }

    fn compact(&self) {
        self.graph.compact();
    }

    fn name(&self) -> &'static str {
        "sharded"
    }

    fn wal_batching(&self) -> Option<(u64, u64)> {
        self._dir.as_ref()?;
        let s = self.graph.stats();
        Some((s.wal_groups(), s.wal_group_records()))
    }
}

/// Deterministic per-writer op generation (splitmix-style).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn random_txn(rng: &mut Rng, writer: usize, seq: usize) -> Vec<TestOp> {
    let ops = 1 + (rng.next() % 3) as usize;
    let mut out = Vec::with_capacity(ops);
    for k in 0..ops {
        let src = rng.next() % VERTICES;
        let dst = rng.next() % VERTICES;
        let label = (rng.next() % LABELS as u64) as u16;
        match rng.next() % 10 {
            0..=5 => out.push(TestOp::PutEdge(
                src,
                label,
                dst,
                format!("w{writer}t{seq}k{k}").into_bytes(),
            )),
            6..=7 => out.push(TestOp::DeleteEdge(src, label, dst)),
            _ => out.push(TestOp::PutVertex(
                src,
                format!("v-w{writer}t{seq}k{k}").into_bytes(),
            )),
        }
    }
    out
}

/// Runs the concurrent workload and checks every epoch snapshot against the
/// model.
fn run_oracle(engine: Arc<dyn Engine>) {
    let setup_epoch = engine.setup();
    type CommitLog = Vec<(Timestamp, Vec<TestOp>)>;
    let log: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let engine = Arc::clone(&engine);
            let log = Arc::clone(&log);
            scope.spawn(move || {
                let mut rng = Rng(0xC0FFEE ^ (writer as u64) << 32);
                for seq in 0..TXNS_PER_WRITER {
                    let ops = random_txn(&mut rng, writer, seq);
                    let mut attempts = 0;
                    let (epoch, effective) = loop {
                        match engine.try_txn(&ops) {
                            Ok(committed) => break committed,
                            Err(()) => {
                                attempts += 1;
                                assert!(attempts < 100_000, "writer {writer} livelocked");
                                std::thread::yield_now();
                            }
                        }
                    };
                    // All-no-op transactions consume no epoch (commit just
                    // reports the current GRE) and leave the graph
                    // untouched; they have no place in the serial history.
                    if !effective.is_empty() {
                        log.lock().unwrap().push((epoch, effective));
                    }
                }
            });
        }
        // Background compaction must never change what any epoch can see
        // (history retention keeps every version).
        let engine = Arc::clone(&engine);
        scope.spawn(move || {
            for _ in 0..20 {
                engine.compact();
                std::thread::yield_now();
            }
        });
    });

    let mut log = Arc::try_unwrap(log)
        .map_err(|_| ())
        .unwrap()
        .into_inner()
        .unwrap();
    assert!(
        log.len() >= 500,
        "oracle needs ≥ 500 effective transactions, got {}",
        log.len()
    );
    log.sort_by_key(|(epoch, _)| *epoch);
    assert!(
        log.first().unwrap().0 > setup_epoch,
        "writer commits must be serialized after the setup epoch"
    );

    // Replay into the model in epoch order; verify at every epoch boundary.
    let mut model = Model::default();
    for v in 0..VERTICES {
        model.vertices.insert(v, format!("init-{v}").into_bytes());
    }
    assert_eq!(
        engine.snapshot_at(setup_epoch),
        model.snapshot(),
        "{}: setup snapshot diverged",
        engine.name()
    );

    let mut checked_epochs = 0usize;
    let mut i = 0;
    while i < log.len() {
        let epoch = log[i].0;
        // Apply every transaction of this (group-commit) epoch, then check.
        while i < log.len() && log[i].0 == epoch {
            model.apply(&log[i].1);
            i += 1;
        }
        let engine_view = engine.snapshot_at(epoch);
        let model_view = model.snapshot();
        assert_eq!(
            engine_view,
            model_view,
            "{}: snapshot at epoch {epoch} diverged from the model",
            engine.name()
        );
        checked_epochs += 1;
    }
    assert!(checked_epochs > 0);
    // Durable group-commit variants: batching must have actually happened,
    // otherwise this run pinned nothing about epoch visibility under
    // multi-transaction WAL batches.
    if let Some((groups, records)) = engine.wal_batching() {
        assert!(
            records > groups,
            "{}: {} records in {} flushed batches — group commit never \
             batched more than one transaction",
            engine.name(),
            records,
            groups
        );
    }
    println!(
        "{}: verified {} committed txns across {} epochs",
        engine.name(),
        log.len(),
        checked_epochs
    );
}

fn plain_engine() -> Arc<dyn Engine> {
    Arc::new(PlainEngine {
        graph: LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 26)
                .with_max_vertices(1 << 12)
                // Compaction slices every few commits interleave with the
                // committers (beside the explicit `compact()` thread).
                .with_auto_compaction(true)
                .with_compaction_interval(64)
                // Keep every version so the oracle can time-travel to any
                // commit epoch after the run.
                .with_history_retention(1 << 40),
        )
        .unwrap(),
        _dir: None,
    })
}

fn sharded_engine(shards: usize) -> Arc<dyn Engine> {
    Arc::new(ShardedEngine {
        graph: ShardedGraph::open(
            ShardedGraphOptions::in_memory(shards).with_base(
                LiveGraphOptions::in_memory()
                    .with_capacity(1 << 24)
                    .with_max_vertices(1 << 12)
                    .with_auto_compaction(true)
                    .with_compaction_interval(64)
                    .with_history_retention(1 << 40),
            ),
        )
        .unwrap(),
        _dir: None,
    })
}

/// Group-commit tuning for the durable oracle variants: a simulated flush
/// latency gives concurrent committers a window to pile into each other's
/// batches, and `max_batch > 1` lets the flush leader take them all.
fn grouped() -> (SyncMode, GroupCommitConfig) {
    (
        SyncMode::Simulated(std::time::Duration::from_micros(100)),
        GroupCommitConfig::default()
            .with_max_batch(8)
            .with_max_wait(std::time::Duration::from_micros(100)),
    )
}

fn durable_plain_engine_grouped() -> Arc<dyn Engine> {
    let dir = tempfile::tempdir().unwrap();
    let (sync, group_commit) = grouped();
    Arc::new(PlainEngine {
        graph: LiveGraph::open(
            LiveGraphOptions::durable(dir.path())
                .with_capacity(1 << 26)
                .with_max_vertices(1 << 12)
                .with_auto_compaction(false)
                .with_history_retention(1 << 40)
                .with_sync_mode(sync)
                .with_group_commit(group_commit),
        )
        .unwrap(),
        _dir: Some(dir),
    })
}

fn durable_sharded_engine_grouped(shards: usize) -> Arc<dyn Engine> {
    let dir = tempfile::tempdir().unwrap();
    let (sync, group_commit) = grouped();
    Arc::new(ShardedEngine {
        graph: ShardedGraph::open(
            ShardedGraphOptions::durable(shards, dir.path()).with_base(
                LiveGraphOptions::durable(dir.path())
                    .with_capacity(1 << 24)
                    .with_max_vertices(1 << 12)
                    .with_auto_compaction(false)
                    .with_history_retention(1 << 40)
                    .with_sync_mode(sync)
                    .with_group_commit(group_commit),
            ),
        )
        .unwrap(),
        _dir: Some(dir),
    })
}

#[test]
fn concurrent_history_matches_serial_epoch_order_on_livegraph() {
    run_oracle(plain_engine());
}

#[test]
fn concurrent_history_matches_serial_epoch_order_on_sharded_graph() {
    run_oracle(sharded_engine(3));
}

#[test]
fn group_commit_batches_never_reorder_epoch_visibility_on_livegraph() {
    run_oracle(durable_plain_engine_grouped());
}

#[test]
fn group_commit_batches_never_reorder_epoch_visibility_on_sharded_graph() {
    run_oracle(durable_sharded_engine_grouped(3));
}
