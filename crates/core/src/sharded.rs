//! Sharded multi-writer engine: N independent [`LiveGraph`] shards behind
//! one transactional facade.
//!
//! The paper's evaluation (§6) scales LiveGraph by partitioning vertices
//! across workers; [`ShardedGraph`] turns that into an engine-level
//! construct. Vertices are hash-partitioned (`vertex % shards`) across N
//! full engines — each with its own TEL arena, per-vertex lock table,
//! commit coordinator and WAL file — so writers on different shards never
//! contend on a commit pipeline or a WAL. What keeps the federation
//! transactional is a single shared *epoch service*:
//!
//! * one epoch manager (`GRE`/`GWE` counters + reading-epoch table) serves
//!   every shard, so "epoch" means the same instant everywhere;
//! * one group clock orders `GRE` publication across all shards' commit
//!   groups: an epoch becomes readable only once every transaction of every
//!   earlier epoch — on *any* shard — has finished its apply phase.
//!
//! **Reads.** [`ShardedGraph::begin_read`] loads `GRE` once and pins every
//! shard at that epoch, so a cross-shard snapshot is one consistent
//! timestamp across all shards.
//!
//! **Writes.** [`ShardedGraph::begin_write`] routes each operation to the
//! owning shard's private sub-transaction. A commit that touched one shard
//! takes that shard's ordinary group-commit path. A commit that touched
//! several runs the *cross-shard handshake*: one epoch is drawn from the
//! shared clock with one apply obligation per participating shard, the full
//! operation list is appended (and fsynced) to **every** participant's WAL,
//! and only then do the parts apply. Readers pin `GRE`, and `GRE` cannot
//! reach the transaction's epoch until all parts applied — so a multi-shard
//! transaction becomes visible atomically: all shards' effects or none.
//!
//! **Recovery.** Replicating the full record to every participant's WAL
//! makes torn cross-shard writes harmless: [`ShardedGraph::open`] merges
//! all N WALs, de-duplicates cross-shard records by epoch (epochs are
//! globally unique, so the same epoch appearing in two WALs *is* the same
//! transaction), sorts by epoch and replays — a transaction whose record
//! survived in any one WAL is recovered entirely, and one that survived in
//! none is lost entirely. No transaction is ever half-visible across
//! shards.
//!
//! Deliberate v1 limitations (documented, asserted where cheap):
//! checkpointing is per-plain-graph only (a sharded graph recovers from its
//! WALs), and vertex ids freed by aborts or deletions are not recycled
//! across shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::commit::GroupClock;
use crate::compaction::CompactionStats;
use crate::epoch::EpochManager;
use crate::error::{Error, Result};
use crate::graph::{EngineHooks, GraphStats, LiveGraph, LiveGraphOptions};
use crate::txn::{EdgeIter, LabelIter, ReadTxn, WriteTxn};
use crate::types::{Label, Timestamp, VertexId};
use crate::wal::{read_wal, WalOp, WalRecord};

/// Configuration for a [`ShardedGraph`].
///
/// `base` configures every shard identically; `base.data_dir`, if set, is
/// the *root* directory under which each shard keeps its own `shard-<i>/`
/// subdirectory (its WAL).
#[derive(Debug, Clone)]
pub struct ShardedGraphOptions {
    /// Number of shards (≥ 1). Vertex `v` lives on shard `v % shards`.
    pub shards: usize,
    /// Per-shard engine options (capacity and `max_vertices` are per shard,
    /// but the vertex id space is global, so `max_vertices` must cover the
    /// full id range on every shard).
    pub base: LiveGraphOptions,
}

impl ShardedGraphOptions {
    /// In-memory configuration with `shards` shards.
    pub fn in_memory(shards: usize) -> Self {
        Self {
            shards,
            base: LiveGraphOptions::in_memory(),
        }
    }

    /// Durable configuration rooted at `dir` with `shards` shards.
    pub fn durable(shards: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            shards,
            base: LiveGraphOptions::durable(dir),
        }
    }

    /// Replaces the per-shard base options.
    pub fn with_base(mut self, base: LiveGraphOptions) -> Self {
        self.base = base;
        self
    }
}

/// Aggregated statistics of a [`ShardedGraph`].
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Per-shard engine statistics, indexed by shard.
    pub shards: Vec<GraphStats>,
    /// Number of vertex ids allocated globally.
    pub vertex_count: u64,
    /// Current shared global read epoch.
    pub read_epoch: Timestamp,
    /// Current shared global write epoch.
    pub write_epoch: Timestamp,
}

impl ShardedStats {
    /// Total committed edge insertions across all shards.
    pub fn edge_insert_count(&self) -> u64 {
        self.shards.iter().map(|s| s.edge_insert_count).sum()
    }

    /// Total bytes written to all shard WALs.
    pub fn wal_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_bytes).sum()
    }

    /// Total device syncs issued across all shard WALs.
    pub fn wal_fsyncs(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_fsyncs).sum()
    }

    /// Total flushed commit batches across all shard WALs.
    pub fn wal_groups(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_groups).sum()
    }

    /// Total transaction records across all shards' flushed batches.
    pub fn wal_group_records(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_group_records).sum()
    }

    /// True if any shard's WAL recorded a fault-injected tear.
    pub fn wal_torn(&self) -> bool {
        self.shards.iter().any(|s| s.wal_torn)
    }

    /// Compaction statistics summed over all shards.
    pub fn compaction(&self) -> CompactionStats {
        let sum = |field: fn(&CompactionStats) -> u64| -> u64 {
            self.shards.iter().map(|s| field(&s.compaction)).sum()
        };
        CompactionStats {
            passes: sum(|c| c.passes),
            vertices_compacted: sum(|c| c.vertices_compacted),
            blocks_freed: sum(|c| c.blocks_freed),
            entries_dropped: sum(|c| c.entries_dropped),
            retired_pending: sum(|c| c.retired_pending),
            debt: sum(|c| c.debt),
        }
    }
}

/// A transactional graph engine that hash-partitions vertices across N
/// independent [`LiveGraph`] shards sharing one epoch service.
///
/// # Example
/// ```
/// use livegraph_core::{ShardedGraph, ShardedGraphOptions};
///
/// let graph = ShardedGraph::open(ShardedGraphOptions::in_memory(4)).unwrap();
/// let mut txn = graph.begin_write().unwrap();
/// let a = txn.create_vertex(b"alice").unwrap(); // lives on shard 0
/// let b = txn.create_vertex(b"bob").unwrap(); // lives on shard 1
/// txn.put_edge(a, 0, b, b"friends").unwrap();
/// txn.put_edge(b, 0, a, b"friends").unwrap(); // touches a second shard
/// txn.commit().unwrap(); // atomic across both shards
///
/// let read = graph.begin_read().unwrap();
/// assert_eq!(read.degree(a, 0), 1);
/// assert_eq!(read.degree(b, 0), 1);
/// ```
pub struct ShardedGraph {
    shards: Vec<LiveGraph>,
    epochs: Arc<EpochManager>,
    clock: Arc<GroupClock>,
    /// One registry shared by every shard (totals are pre-flattened).
    telemetry: Arc<crate::telemetry::Telemetry>,
    /// Global vertex id allocator (ids are dense across shards).
    next_vertex: AtomicU64,
    options: ShardedGraphOptions,
}

impl ShardedGraph {
    /// Opens (and, for durable configurations, recovers) a sharded graph.
    pub fn open(options: ShardedGraphOptions) -> Result<Self> {
        if options.shards == 0 {
            return Err(Error::Corruption("ShardedGraph needs at least one shard".into()));
        }
        // A thread that touches all shards (every reader does) consumes one
        // worker slot *per shard* in the shared reading-epoch table, so the
        // table is sized `max_workers × shards` to keep the configured
        // `max_workers` meaning "concurrent threads", not "thread-shard
        // pairs". Every shard's per-worker state must be sized identically.
        let worker_slots = options.base.max_workers * options.shards;
        let epochs = Arc::new(EpochManager::new(worker_slots));
        let clock = GroupClock::new();
        let telemetry = crate::telemetry::Telemetry::new(worker_slots);
        telemetry.set_enabled(true);
        let mut shards = Vec::with_capacity(options.shards);
        for i in 0..options.shards {
            let mut base = options.base.clone();
            base.max_workers = worker_slots;
            if let Some(root) = &options.base.data_dir {
                base.data_dir = Some(root.join(format!("shard-{i}")));
            }
            shards.push(LiveGraph::open_with_hooks(
                base,
                Some(EngineHooks {
                    epochs: Arc::clone(&epochs),
                    clock: Arc::clone(&clock),
                    telemetry: Arc::clone(&telemetry),
                    defer_recovery: true,
                }),
            )?);
        }
        let graph = Self {
            shards,
            epochs,
            clock,
            telemetry,
            next_vertex: AtomicU64::new(0),
            options,
        };
        if graph.options.base.data_dir.is_some() {
            graph.recover()?;
        }
        Ok(graph)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `vertex` (its out-adjacency and its versions).
    #[inline]
    pub fn shard_of(&self, vertex: VertexId) -> usize {
        (vertex % self.shards.len() as u64) as usize
    }

    /// The underlying shard engines (read-only access, e.g. for per-shard
    /// statistics or targeted compaction).
    pub fn shards(&self) -> &[LiveGraph] {
        &self.shards
    }

    /// Number of vertex ids allocated globally (including aborted ids).
    pub fn vertex_count(&self) -> u64 {
        // ORDERING: Acquire pairs with the AcqRel id-allocation RMWs, so an
        // observed id's shard-side bookkeeping is visible.
        self.next_vertex.load(Ordering::Acquire)
    }

    /// True if `vertex` has been allocated globally.
    #[inline]
    fn vertex_allocated(&self, vertex: VertexId) -> bool {
        // ORDERING: Acquire — same allocation edge as `vertex_count`.
        vertex < self.next_vertex.load(Ordering::Acquire)
    }

    /// Starts a read-only transaction on one consistent epoch across all
    /// shards.
    pub fn begin_read(&self) -> Result<ShardedReadTxn<'_>> {
        let guard = self.pin_epoch(None)?;
        self.read_at_pinned(guard)
    }

    /// Starts a time-travel read pinned at `epoch` on all shards.
    pub fn begin_read_at(&self, epoch: Timestamp) -> Result<ShardedReadTxn<'_>> {
        let gre = self.epochs.gre();
        if epoch < 0 || epoch > gre {
            return Err(Error::EpochUnavailable { requested: epoch, newest: gre });
        }
        let guard = self.pin_epoch(Some(epoch))?;
        self.read_at_pinned(guard)
    }

    /// Registers a pin in the shared reading-epoch table (through shard 0's
    /// worker slot) so the chosen epoch stays protected from compaction
    /// while per-shard transactions register their own pins.
    fn pin_epoch(&self, epoch: Option<Timestamp>) -> Result<EpochPin<'_>> {
        let worker = self.shards[0].inner().worker_slot()?;
        let tre = match epoch {
            Some(e) => self.epochs.begin_read_at(worker, e),
            None => self.epochs.begin_read(worker),
        };
        Ok(EpochPin { epochs: &self.epochs, worker, tre })
    }

    fn read_at_pinned(&self, guard: EpochPin<'_>) -> Result<ShardedReadTxn<'_>> {
        let tre = guard.tre;
        let mut txns = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            // The guard pin keeps `tre` protected until every shard has
            // registered its own pin; errors drop the partial set cleanly.
            txns.push(shard.begin_read_at(tre)?);
        }
        drop(guard);
        Ok(ShardedReadTxn { graph: self, txns, tre })
    }

    /// Starts a read-write transaction whose snapshot is one consistent
    /// epoch across all shards.
    pub fn begin_write(&self) -> Result<ShardedWriteTxn<'_>> {
        let guard = self.pin_epoch(None)?;
        let tre = guard.tre;
        let subs = (0..self.shards.len()).map(|_| None).collect();
        Ok(ShardedWriteTxn {
            graph: self,
            tre,
            guard: Some(guard),
            subs,
        })
    }

    /// Runs a full compaction pass on every shard.
    pub fn compact(&self) {
        for shard in &self.shards {
            shard.compact();
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            shards: self.shards.iter().map(|s| s.stats()).collect(),
            vertex_count: self.vertex_count(),
            read_epoch: self.epochs.gre(),
            write_epoch: self.epochs.gwe(),
        }
    }

    /// The options this graph was opened with.
    pub fn options(&self) -> &ShardedGraphOptions {
        &self.options
    }

    /// The shared telemetry registry (one instance for all shards).
    pub fn telemetry(&self) -> &Arc<crate::telemetry::Telemetry> {
        &self.telemetry
    }

    /// Full metrics dump, flattened across shards: the shared registry
    /// plus engine-derived totals summed over every shard (mirroring
    /// [`ShardedStats`]'s flattening helpers).
    pub fn metrics(&self) -> crate::telemetry::MetricsSnapshot {
        let mut snap = self.telemetry.snapshot();
        let stats = self.stats();
        let mut flat = self.shards[0].stats();
        flat.vertex_count = stats.vertex_count;
        flat.edge_insert_count = stats.edge_insert_count();
        flat.wal_bytes = stats.wal_bytes();
        flat.wal_fsyncs = stats.wal_fsyncs();
        flat.wal_groups = stats.wal_groups();
        flat.wal_group_records = stats.wal_group_records();
        flat.wal_torn = stats.wal_torn();
        flat.compaction = stats.compaction();
        flat.read_epoch = stats.read_epoch;
        flat.write_epoch = stats.write_epoch;
        flat.scans = crate::graph::ScanStats {
            sealed_scans: stats.shards.iter().map(|s| s.scans.sealed_scans).sum(),
            checked_scans: stats.shards.iter().map(|s| s.scans.checked_scans).sum(),
            edge_lookups: stats.shards.iter().map(|s| s.scans.edge_lookups).sum(),
            edge_lookup_entries_scanned: stats
                .shards
                .iter()
                .map(|s| s.scans.edge_lookup_entries_scanned)
                .sum(),
            edge_lookup_bloom_negatives: stats
                .shards
                .iter()
                .map(|s| s.scans.edge_lookup_bloom_negatives)
                .sum(),
        };
        crate::graph::push_engine_metrics(&mut snap, &flat);
        snap
    }

    // ------------------------------------------------------------------
    // Cross-shard commit
    // ------------------------------------------------------------------

    /// The all-shards group-commit handshake for a transaction that touched
    /// more than one shard (see the module docs for the protocol).
    fn commit_cross_shard<'a>(&'a self, mut parts: Vec<(usize, WriteTxn<'a>)>) -> Result<Timestamp> {
        debug_assert!(parts.len() >= 2);
        // One logical commit regardless of how many shards participate —
        // tallied into the coordinating part's worker slot, with the same
        // sampled span tracing as the single-shard path.
        let tel = &self.telemetry;
        let worker = parts[0].1.worker();
        let commit_timer = if tel.trace_commit(worker) {
            tel.timer()
        } else {
            None
        };
        // Concatenate the parts' operations in shard order. Reordering
        // across shards is safe: every vertex's operations live entirely on
        // its owning shard, so ops from different shards never target the
        // same vertex or edge.
        let mut all_ops = Vec::new();
        for (_, txn) in parts.iter_mut() {
            all_ops.extend(txn.take_wal_ops());
        }
        // One epoch for the whole transaction, with one apply obligation
        // per participating shard: GRE cannot reach `epoch` before every
        // shard's part has applied. The full record is replicated to every
        // participant's WAL — any single durable copy is enough to recover
        // the transaction entirely, which is what makes torn multi-WAL
        // writes atomic. Staging on all participants happens inside the
        // clock lock (epoch order == per-WAL file order), but the waits run
        // afterwards: concurrent cross-shard transactions stage into each
        // other's batches and each participant log fsyncs once per *batch*
        // of transactions instead of once per transaction, so an N-shard
        // commit under load no longer pays N serial device flushes. During
        // recovery the parts build no ops, so nothing is staged.
        let (epoch, tickets) = self.clock.begin_group_with(&self.epochs, parts.len(), |epoch| {
            parts
                .iter()
                .filter_map(|(shard, _)| {
                    let commit = &self.shards[*shard].inner().commit;
                    commit.stage(epoch, &all_ops).map(|t| (*shard, t))
                })
                .collect::<Vec<_>>()
        });
        let mut failure = None;
        for (shard, ticket) in tickets {
            if let Err(e) = self.shards[shard].inner().commit.wait_ticket(ticket) {
                failure = Some(e);
                break;
            }
        }
        if let Some(e) = failure {
            // Discharge the obligations so GRE does not stall, and let
            // the parts' drops roll back their private stamps: the
            // epoch becomes an empty commit. Known anomaly (shared with
            // the plain engine's WAL-error path): shards whose flush
            // already succeeded retain a durable copy of the record, so
            // a transaction reported as failed here can resurrect on
            // the next `open`. WAL flush errors are effectively fatal
            // for the data directory; callers should treat them as
            // such rather than retry.
            for _ in 0..parts.len() {
                self.clock.finish_apply(&self.epochs, epoch);
            }
            drop(parts);
            return Err(e);
        }
        for (_, txn) in parts.iter_mut() {
            txn.apply_external(epoch);
            self.clock.finish_apply(&self.epochs, epoch);
        }
        // Session consistency, mirroring the single-graph commit: wait for
        // GRE to cover this commit so the caller's next transaction sees it.
        self.clock.wait_for_gre(&self.epochs, epoch);
        // Compaction slices run only now, as on the single-graph path: a
        // slice run while the epoch is unapplied would hold GRE, and with
        // it every committer on every shard.
        for (shard, txn) in &parts {
            crate::compaction::after_commit(self.shards[*shard].inner(), txn.worker());
        }
        if tel.enabled() {
            tel.inc_commit(worker);
        }
        let total = tel.commit_seconds.observe_timer(commit_timer);
        tel.maybe_slow_op("commit_cross_shard", total, Vec::new);
        Ok(epoch)
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Replays all shard WALs to one consistent cut (see module docs).
    fn recover(&self) -> Result<()> {
        for shard in &self.shards {
            // ORDERING: Release pairs with the Acquire load in the commit
            // path, which skips WAL work while replay is in progress.
            shard.inner().recovery_mode.store(true, Ordering::Release);
        }
        let result = self.recover_inner();
        for shard in &self.shards {
            // ORDERING: Release — replayed state precedes the flag clear.
            shard.inner().recovery_mode.store(false, Ordering::Release);
        }
        result
    }

    fn recover_inner(&self) -> Result<()> {
        use std::collections::BTreeMap;
        // epoch → (first shard that contributed it, its records in file
        // order). A cross-shard record is replicated to every participant's
        // WAL under the same (globally unique) epoch, so records for an
        // epoch arriving from a *second* shard are duplicates and dropped.
        let mut by_epoch: BTreeMap<Timestamp, (usize, Vec<WalRecord>)> = BTreeMap::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(dir) = &shard.options().data_dir else { continue };
            let wal = dir.join("wal.log");
            if !wal.exists() {
                continue;
            }
            for record in read_wal(&wal)? {
                match by_epoch.entry(record.epoch) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert((i, vec![record]));
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if e.get().0 == i {
                            e.get_mut().1.push(record);
                        }
                        // else: duplicate copy of a cross-shard record.
                    }
                }
            }
        }
        let mut max_epoch: Timestamp = 0;
        for (epoch, (_, records)) in by_epoch {
            for record in records {
                self.replay_record(&record.ops)?;
            }
            max_epoch = max_epoch.max(epoch);
        }
        if max_epoch > 0 {
            self.epochs.reset_to(max_epoch);
        }
        Ok(())
    }

    /// Replays one committed transaction's operations through the regular
    /// sharded write path (routing each op to its owning shard).
    fn replay_record(&self, ops: &[WalOp]) -> Result<()> {
        let mut txn = self.begin_write()?;
        for op in ops {
            match op {
                WalOp::CreateVertex { vertex, properties } => {
                    txn.create_vertex_with_id(*vertex, properties)?;
                }
                WalOp::PutVertex { vertex, properties } => {
                    txn.reserve_vertex(*vertex)?;
                    txn.put_vertex(*vertex, properties)?;
                }
                WalOp::PutEdge { src, label, dst, properties } => {
                    txn.reserve_vertex(*src)?;
                    txn.reserve_vertex(*dst)?;
                    txn.put_edge(*src, *label, *dst, properties)?;
                }
                WalOp::DeleteEdge { src, label, dst } => {
                    if self.vertex_allocated(*src) {
                        txn.delete_edge(*src, *label, *dst)?;
                    }
                }
                WalOp::DeleteVertex { vertex } => {
                    txn.reserve_vertex(*vertex)?;
                    txn.delete_vertex(*vertex)?;
                }
            }
        }
        txn.commit()?;
        Ok(())
    }
}

impl std::fmt::Debug for ShardedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGraph")
            .field("shards", &self.shards.len())
            .field("vertices", &self.vertex_count())
            .field("gre", &self.epochs.gre())
            .field("gwe", &self.epochs.gwe())
            .finish()
    }
}

/// RAII pin in the shared reading-epoch table, protecting an epoch from
/// compaction between choosing it and registering per-shard transactions.
struct EpochPin<'g> {
    epochs: &'g EpochManager,
    worker: usize,
    tre: Timestamp,
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.epochs.finish(self.worker);
    }
}

/// A read-only transaction over every shard, pinned at one epoch.
pub struct ShardedReadTxn<'g> {
    graph: &'g ShardedGraph,
    txns: Vec<ReadTxn<'g>>,
    tre: Timestamp,
}

impl<'g> ShardedReadTxn<'g> {
    /// The snapshot epoch this transaction reads (identical on all shards).
    pub fn read_epoch(&self) -> Timestamp {
        self.tre
    }

    #[inline]
    fn txn_of(&self, vertex: VertexId) -> &ReadTxn<'g> {
        &self.txns[self.graph.shard_of(vertex)]
    }

    /// Number of vertex ids allocated at the time of the snapshot (upper
    /// bound across shards).
    pub fn vertex_count(&self) -> u64 {
        self.txns.iter().map(|t| t.vertex_count()).max().unwrap_or(0)
    }

    /// Reads the properties of `vertex` as of this snapshot.
    pub fn get_vertex(&self, vertex: VertexId) -> Option<&[u8]> {
        self.txn_of(vertex).get_vertex(vertex)
    }

    /// True if `vertex` has a visible, non-deleted version in this snapshot.
    pub fn contains_vertex(&self, vertex: VertexId) -> bool {
        self.txn_of(vertex).contains_vertex(vertex)
    }

    /// The labels under which `vertex` has adjacency lists.
    pub fn labels(&self, vertex: VertexId) -> LabelIter<'_> {
        self.txn_of(vertex).labels(vertex)
    }

    /// Sequentially scans the adjacency list of `(vertex, label)` on the
    /// owning shard.
    pub fn edges(&self, vertex: VertexId, label: Label) -> EdgeIter<'_> {
        self.txn_of(vertex).edges(vertex, label)
    }

    /// Invokes `f` with every visible neighbour of `(vertex, label)`,
    /// newest first (sealed zero-check fast path when available).
    pub fn for_each_neighbor<F: FnMut(VertexId)>(&self, vertex: VertexId, label: Label, f: F) {
        self.txn_of(vertex).for_each_neighbor(vertex, label, f)
    }

    /// Number of visible edges of `(vertex, label)`.
    pub fn degree(&self, vertex: VertexId, label: Label) -> usize {
        self.txn_of(vertex).degree(vertex, label)
    }

    /// O(1) degree when the owning shard's TEL is sealed for this snapshot
    /// (`None` when counting would require a scan).
    pub fn sealed_degree(&self, vertex: VertexId, label: Label) -> Option<usize> {
        self.txn_of(vertex).sealed_degree(vertex, label)
    }

    /// Total visible degree of `vertex` across all labels.
    pub fn total_degree(&self, vertex: VertexId) -> usize {
        self.txn_of(vertex).total_degree(vertex)
    }

    /// Bloom-assisted point lookup of one edge's properties.
    pub fn get_edge(&self, src: VertexId, label: Label, dst: VertexId) -> Option<&[u8]> {
        self.txn_of(src).get_edge(src, label, dst)
    }

    /// Iterates `(vertex id, properties)` over every vertex visible in this
    /// snapshot, in global id order.
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, &[u8])> + '_ {
        (0..self.vertex_count()).filter_map(move |v| self.get_vertex(v).map(|p| (v, p)))
    }
}

/// A read-write transaction routing operations to owning shards, committed
/// atomically across shards.
pub struct ShardedWriteTxn<'g> {
    graph: &'g ShardedGraph,
    tre: Timestamp,
    /// Pin keeping `tre` protected for the lifetime of the transaction
    /// (sub-transactions are begun lazily, possibly much later).
    guard: Option<EpochPin<'g>>,
    subs: Vec<Option<WriteTxn<'g>>>,
}

impl<'g> ShardedWriteTxn<'g> {
    /// The snapshot epoch this transaction reads (identical on all shards).
    pub fn read_epoch(&self) -> Timestamp {
        self.tre
    }

    /// The lazily-created sub-transaction on `shard`.
    fn sub(&mut self, shard: usize) -> Result<&mut WriteTxn<'g>> {
        if self.subs[shard].is_none() {
            let graph: &'g ShardedGraph = self.graph;
            self.subs[shard] = Some(WriteTxn::begin_pinned(graph.shards[shard].inner(), self.tre)?);
        }
        Ok(self.subs[shard].as_mut().expect("just created"))
    }

    fn require_allocated(&self, vertex: VertexId) -> Result<()> {
        if self.graph.vertex_allocated(vertex) {
            Ok(())
        } else {
            Err(Error::VertexNotFound(vertex))
        }
    }

    /// Creates a new vertex with a globally allocated id and returns it.
    pub fn create_vertex(&mut self, properties: &[u8]) -> Result<VertexId> {
        // ORDERING: AcqRel — hands out unique ids and pairs with the
        // Acquire loads in `vertex_count`/`vertex_allocated`.
        let id = self.graph.next_vertex.fetch_add(1, Ordering::AcqRel);
        if id as usize >= self.graph.options.base.max_vertices {
            return Err(Error::Storage(livegraph_storage::StorageError::OutOfSpace {
                requested: 1,
                capacity: self.graph.options.base.max_vertices,
            }));
        }
        let shard = self.graph.shard_of(id);
        self.sub(shard)?.create_vertex_with_id(id, properties)?;
        Ok(id)
    }

    /// Creates a vertex with an explicit global id (bulk loading, replay).
    pub fn create_vertex_with_id(&mut self, vertex: VertexId, properties: &[u8]) -> Result<()> {
        if vertex as usize >= self.graph.options.base.max_vertices {
            return Err(Error::Storage(livegraph_storage::StorageError::OutOfSpace {
                requested: vertex as usize,
                capacity: self.graph.options.base.max_vertices,
            }));
        }
        // ORDERING: AcqRel — monotonic bump of the allocation watermark;
        // pairs with the Acquire loads in `vertex_allocated`.
        self.graph.next_vertex.fetch_max(vertex + 1, Ordering::AcqRel);
        let shard = self.graph.shard_of(vertex);
        self.sub(shard)?.create_vertex_with_id(vertex, properties)
    }

    /// Marks a global id as allocated (recovery replay of ops that
    /// reference ids whose vertex record was never committed).
    fn reserve_vertex(&mut self, vertex: VertexId) -> Result<()> {
        // ORDERING: AcqRel — same watermark bump as `create_vertex_with_id`.
        self.graph.next_vertex.fetch_max(vertex + 1, Ordering::AcqRel);
        let shard = self.graph.shard_of(vertex);
        self.sub(shard)?.reserve_vertex_id(vertex);
        Ok(())
    }

    /// Overwrites the properties of an existing vertex.
    pub fn put_vertex(&mut self, vertex: VertexId, properties: &[u8]) -> Result<()> {
        self.require_allocated(vertex)?;
        let shard = self.graph.shard_of(vertex);
        let sub = self.sub(shard)?;
        sub.reserve_vertex_id(vertex);
        sub.put_vertex(vertex, properties)
    }

    /// Deletes a vertex (tombstone + invalidation of its out-edges).
    pub fn delete_vertex(&mut self, vertex: VertexId) -> Result<bool> {
        self.require_allocated(vertex)?;
        let shard = self.graph.shard_of(vertex);
        let sub = self.sub(shard)?;
        sub.reserve_vertex_id(vertex);
        sub.delete_vertex(vertex)
    }

    /// Inserts or updates (`upsert`) the edge `(src, label, dst)` on the
    /// shard owning `src`.
    pub fn put_edge(
        &mut self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        properties: &[u8],
    ) -> Result<bool> {
        self.require_allocated(src)?;
        self.require_allocated(dst)?;
        let shard = self.graph.shard_of(src);
        let sub = self.sub(shard)?;
        // The destination may live on another shard; teach the owning shard
        // that the global id exists before the per-shard existence check.
        sub.reserve_vertex_id(src);
        sub.reserve_vertex_id(dst);
        sub.put_edge(src, label, dst, properties)
    }

    /// Deletes the edge `(src, label, dst)`. Returns `true` if a visible
    /// version existed.
    pub fn delete_edge(&mut self, src: VertexId, label: Label, dst: VertexId) -> Result<bool> {
        self.require_allocated(src)?;
        let shard = self.graph.shard_of(src);
        let sub = self.sub(shard)?;
        sub.reserve_vertex_id(src);
        sub.delete_edge(src, label, dst)
    }

    /// Pre-acquires the write locks of `vertices` in global
    /// `(shard, vertex id)` order, making multi-vertex cross-shard
    /// transactions deadlock-free: every transaction that declares its
    /// write set acquires locks along the same global order, so a wait
    /// cycle can never form (see [`WriteTxn::lock_vertices`] for the
    /// single-engine equivalent).
    pub fn lock_vertices(&mut self, vertices: &[VertexId]) -> Result<()> {
        let mut sorted: Vec<VertexId> = vertices.to_vec();
        let graph = self.graph;
        sorted.sort_unstable_by_key(|&v| (graph.shard_of(v), v));
        sorted.dedup();
        for vertex in sorted {
            self.require_allocated(vertex)?;
            let shard = graph.shard_of(vertex);
            let sub = self.sub(shard)?;
            sub.reserve_vertex_id(vertex);
            // LOCK ORDER: the loop walks `sorted`, ascending by the global
            // (shard, vertex id) key, so all transactions acquire along
            // one total order and a wait cycle cannot form.
            sub.acquire_lock(vertex)?;
        }
        Ok(())
    }

    /// Reads a vertex, seeing this transaction's own writes.
    pub fn get_vertex(&self, vertex: VertexId) -> Option<&[u8]> {
        let shard = self.graph.shard_of(vertex);
        match &self.subs[shard] {
            Some(sub) => sub.get_vertex(vertex),
            None => self.graph.shards[shard]
                .inner()
                .read_vertex_version(vertex, self.tre, 0),
        }
    }

    /// Number of visible edges of `(vertex, label)`, own writes included.
    pub fn degree(&self, vertex: VertexId, label: Label) -> usize {
        let shard = self.graph.shard_of(vertex);
        match &self.subs[shard] {
            Some(sub) => sub.degree(vertex, label),
            None => {
                let inner = self.graph.shards[shard].inner();
                match inner.find_tel(vertex, label) {
                    Some(ptr) => {
                        let tel = inner.tel_ref_auto(ptr);
                        let log = tel.log_size();
                        tel.scan(log).filter(|e| e.visible(self.tre, 0)).count()
                    }
                    None => 0,
                }
            }
        }
    }

    /// Point lookup of one edge, seeing this transaction's own writes.
    pub fn get_edge(&self, src: VertexId, label: Label, dst: VertexId) -> Option<&[u8]> {
        let shard = self.graph.shard_of(src);
        match &self.subs[shard] {
            Some(sub) => sub.get_edge(src, label, dst),
            None => {
                let inner = self.graph.shards[shard].inner();
                let ptr = inner.find_tel(src, label)?;
                let tel = inner.tel_ref_auto(ptr);
                let log = tel.log_size();
                let entry = tel.find_edge(log, dst, self.tre, 0)?;
                Some(tel.properties(&entry))
            }
        }
    }

    /// Commits the transaction atomically across all touched shards and
    /// returns its commit epoch.
    pub fn commit(mut self) -> Result<Timestamp> {
        let subs = std::mem::take(&mut self.subs);
        let mut parts: Vec<(usize, WriteTxn<'g>)> = Vec::new();
        for (shard, sub) in subs.into_iter().enumerate() {
            if let Some(txn) = sub {
                if txn.has_writes() {
                    parts.push((shard, txn));
                }
                // Write-free sub-transactions are simply dropped (no-op
                // abort that releases their epoch pin).
            }
        }
        match parts.len() {
            0 => Ok(self.graph.epochs.gre()),
            1 => {
                let (_, txn) = parts.pop().expect("one part");
                txn.commit()
            }
            _ => self.graph.commit_cross_shard(parts),
        }
    }

    /// Aborts the transaction, rolling back every shard's private updates.
    pub fn abort(mut self) {
        for sub in std::mem::take(&mut self.subs).into_iter().flatten() {
            sub.abort();
        }
    }
}

impl Drop for ShardedWriteTxn<'_> {
    fn drop(&mut self) {
        // Sub-transactions abort themselves on drop; the guard pin releases
        // via EpochPin::drop.
        self.guard.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DEFAULT_LABEL;

    fn sharded(n: usize) -> ShardedGraph {
        ShardedGraph::open(ShardedGraphOptions::in_memory(n).with_base(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 22)
                .with_max_vertices(1 << 12),
        ))
        .unwrap()
    }

    #[test]
    fn vertices_are_routed_by_modulo_and_ids_are_global() {
        let g = sharded(4);
        let mut txn = g.begin_write().unwrap();
        for i in 0..8u64 {
            assert_eq!(txn.create_vertex(format!("v{i}").as_bytes()).unwrap(), i);
        }
        txn.commit().unwrap();
        assert_eq!(g.vertex_count(), 8);
        for i in 0..8u64 {
            assert_eq!(g.shard_of(i), (i % 4) as usize);
        }
        let read = g.begin_read().unwrap();
        for i in 0..8u64 {
            assert_eq!(read.get_vertex(i), Some(format!("v{i}").as_bytes()));
        }
        // Each shard holds exactly its own vertices' blocks.
        let stats = g.stats();
        assert_eq!(stats.vertex_count, 8);
    }

    #[test]
    fn cross_shard_transaction_commits_atomically() {
        let g = sharded(2);
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap(); // shard 0
        let b = setup.create_vertex(b"b").unwrap(); // shard 1
        setup.commit().unwrap();

        let mut txn = g.begin_write().unwrap();
        txn.put_edge(a, DEFAULT_LABEL, b, b"ab").unwrap();
        txn.put_edge(b, DEFAULT_LABEL, a, b"ba").unwrap();
        // Uncommitted: invisible on both shards.
        let before = g.begin_read().unwrap();
        assert_eq!(before.degree(a, DEFAULT_LABEL), 0);
        assert_eq!(before.degree(b, DEFAULT_LABEL), 0);
        let epoch = txn.commit().unwrap();
        assert!(epoch > 0);

        // Old snapshot still empty, new snapshot sees both halves.
        assert_eq!(before.degree(a, DEFAULT_LABEL), 0);
        let after = g.begin_read().unwrap();
        assert_eq!(after.degree(a, DEFAULT_LABEL), 1);
        assert_eq!(after.degree(b, DEFAULT_LABEL), 1);
        assert_eq!(after.get_edge(a, DEFAULT_LABEL, b), Some(&b"ab"[..]));
        assert_eq!(after.get_edge(b, DEFAULT_LABEL, a), Some(&b"ba"[..]));
    }

    #[test]
    fn cross_shard_abort_rolls_back_every_shard() {
        let g = sharded(2);
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.put_edge(a, 0, b, b"keep").unwrap();
        setup.commit().unwrap();

        let mut txn = g.begin_write().unwrap();
        txn.delete_edge(a, 0, b).unwrap();
        txn.put_edge(b, 0, a, b"new").unwrap();
        txn.put_vertex(b, b"changed").unwrap();
        txn.abort();

        let read = g.begin_read().unwrap();
        assert_eq!(read.degree(a, 0), 1, "deleted edge restored");
        assert_eq!(read.degree(b, 0), 0, "new edge rolled back");
        assert_eq!(read.get_vertex(b), Some(&b"b"[..]));
    }

    #[test]
    fn snapshots_are_consistent_across_shards() {
        // A reader that starts between two commits sees the epoch boundary
        // on *all* shards at once.
        let g = sharded(3);
        let mut setup = g.begin_write().unwrap();
        let ids: Vec<u64> = (0..6).map(|i| setup.create_vertex(&[i as u8]).unwrap()).collect();
        setup.commit().unwrap();

        let mut t1 = g.begin_write().unwrap();
        for &v in &ids {
            t1.put_edge(v, 0, ids[0], b"round1").unwrap();
        }
        let e1 = t1.commit().unwrap();

        let pinned = g.begin_read().unwrap();
        assert_eq!(pinned.read_epoch(), e1);

        let mut t2 = g.begin_write().unwrap();
        for &v in &ids {
            t2.put_edge(v, 0, ids[1], b"round2").unwrap();
        }
        t2.commit().unwrap();

        for &v in &ids {
            assert_eq!(pinned.degree(v, 0), 1, "pinned snapshot sees round 1 only");
        }
        let fresh = g.begin_read().unwrap();
        for &v in &ids {
            assert_eq!(fresh.degree(v, 0), 2);
        }
        // Time travel back to e1.
        let old = g.begin_read_at(e1).unwrap();
        for &v in &ids {
            assert_eq!(old.degree(v, 0), 1);
        }
    }

    #[test]
    fn writer_reads_its_own_cross_shard_writes() {
        let g = sharded(2);
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"a").unwrap();
        let b = txn.create_vertex(b"b").unwrap();
        txn.put_edge(a, 0, b, b"x").unwrap();
        assert_eq!(txn.get_vertex(a), Some(&b"a"[..]));
        assert_eq!(txn.get_vertex(b), Some(&b"b"[..]));
        assert_eq!(txn.degree(a, 0), 1);
        assert_eq!(txn.get_edge(a, 0, b), Some(&b"x"[..]));
        assert_eq!(txn.degree(b, 0), 0);
        txn.commit().unwrap();
    }

    #[test]
    fn single_shard_matches_plain_engine_semantics() {
        let g = sharded(1);
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"a").unwrap();
        let b = txn.create_vertex(b"b").unwrap();
        txn.put_edge(a, 0, b, b"1").unwrap();
        txn.commit().unwrap();
        let mut txn = g.begin_write().unwrap();
        assert!(!txn.put_edge(a, 0, b, b"2").unwrap(), "upsert updates");
        txn.commit().unwrap();
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(a, 0), 1);
        assert_eq!(r.get_edge(a, 0, b), Some(&b"2"[..]));
    }

    #[test]
    fn durable_sharded_graph_recovers_cross_shard_commits() {
        let dir = tempfile::tempdir().unwrap();
        let options = || {
            ShardedGraphOptions::durable(2, dir.path()).with_base(
                LiveGraphOptions::durable(dir.path())
                    .with_capacity(1 << 22)
                    .with_max_vertices(1 << 12)
                    .with_sync_mode(crate::wal::SyncMode::NoSync),
            )
        };
        let (a, b);
        {
            let g = ShardedGraph::open(options()).unwrap();
            let mut txn = g.begin_write().unwrap();
            a = txn.create_vertex(b"a").unwrap();
            b = txn.create_vertex(b"b").unwrap();
            txn.put_edge(a, 0, b, b"ab").unwrap();
            txn.put_edge(b, 0, a, b"ba").unwrap();
            txn.commit().unwrap();
            let mut txn = g.begin_write().unwrap();
            txn.delete_edge(a, 0, b).unwrap();
            txn.commit().unwrap();
        }
        let g = ShardedGraph::open(options()).unwrap();
        let r = g.begin_read().unwrap();
        assert_eq!(r.get_vertex(a), Some(&b"a"[..]));
        assert_eq!(r.get_vertex(b), Some(&b"b"[..]));
        assert_eq!(r.degree(a, 0), 0, "deletion replayed");
        assert_eq!(r.get_edge(b, 0, a), Some(&b"ba"[..]));
        assert_eq!(g.vertex_count(), 2);
        // New commits get fresh epochs after recovery.
        let mut txn = g.begin_write().unwrap();
        txn.put_edge(a, 0, b, b"again").unwrap();
        assert!(txn.commit().unwrap() > 0);
    }

    #[test]
    fn ordered_lock_vertices_accepts_any_declaration_order() {
        let g = sharded(2);
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.commit().unwrap();
        let mut t = g.begin_write().unwrap();
        t.lock_vertices(&[b, a]).unwrap();
        t.put_edge(a, 0, b, b"x").unwrap();
        t.commit().unwrap();
        assert_eq!(g.begin_read().unwrap().degree(a, 0), 1);
    }

    #[test]
    fn compaction_debt_is_summed_over_shards_and_cleared_by_compact() {
        let g = sharded(2);
        let debt = |g: &ShardedGraph| g.metrics().gauge("livegraph_compaction_debt_entries").unwrap();
        assert_eq!(debt(&g), 0);
        let mut txn = g.begin_write().unwrap();
        let vertices: Vec<VertexId> = (0..8).map(|_| txn.create_vertex(b"v").unwrap()).collect();
        txn.commit().unwrap();
        let after_create = debt(&g);
        assert!(after_create >= 8, "8 vertices over 2 shards are dirty, debt {after_create}");
        let mut txn = g.begin_write().unwrap();
        txn.put_edge(vertices[0], DEFAULT_LABEL, vertices[1], b"e").unwrap();
        txn.commit().unwrap();
        assert_eq!(debt(&g), after_create, "a re-dirtied vertex is counted once");
        let stats = g.stats();
        assert!(stats.shards.iter().all(|s| s.compaction.debt > 0), "both shards carry debt");
        assert_eq!(stats.compaction().debt as i64, after_create);
        g.compact();
        assert_eq!(debt(&g), 0);
    }
}
