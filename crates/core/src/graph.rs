//! The `LiveGraph` storage engine: public API and internal storage plumbing.
//!
//! A [`LiveGraph`] owns the block store, the vertex/edge index arrays, the
//! per-vertex lock table, the epoch manager and the commit coordinator, and
//! hands out [`ReadTxn`](crate::txn::ReadTxn) / [`WriteTxn`](crate::txn::WriteTxn)
//! handles. All data lives in power-of-two blocks inside one memory region
//! (§3, Figure 2): vertex blocks, label index blocks and TELs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use livegraph_storage::{BlockPtr, BlockStore, BlockStoreOptions, BlockStoreStats, NULL_BLOCK};

use crate::commit::{CommitCoordinator, GroupClock};
use crate::compaction::{CompactionState, CompactionStats};
use crate::epoch::EpochManager;
use crate::error::Result;
use crate::index::{IndexArray, LabelIndexRef};
use crate::locks::VertexLockTable;
use crate::tel::{TelRef, EDGE_ENTRY_SIZE, TEL_HEADER_SIZE};
use crate::txn::{ReadTxn, WriteTxn};
use crate::types::{Label, Timestamp, TxnId, VertexId};
use crate::vertex::VertexBlockRef;
use crate::wal::{GroupCommitConfig, SyncMode};
use crate::bloom::bloom_bytes_for_block;

/// Configuration for a [`LiveGraph`] instance.
#[derive(Debug, Clone)]
pub struct LiveGraphOptions {
    /// Capacity of the block store region in bytes.
    pub block_store_capacity: usize,
    /// Maximum number of vertices (sizes the index arrays and lock table;
    /// the reservation is virtual memory only).
    pub max_vertices: usize,
    /// Directory for durable state (WAL and checkpoints). `None` disables
    /// durability entirely.
    pub data_dir: Option<PathBuf>,
    /// Whether WAL flush batches `fsync` the log.
    pub sync_mode: SyncMode,
    /// Number of a worker's commits between compaction boundaries (the
    /// paper's default is 65 536 transactions). At each boundary the
    /// worker's dirty set becomes a work list that its commits work off in
    /// bounded slices over the next interval.
    pub compaction_interval: u64,
    /// Compact automatically on the committing thread: every
    /// `compaction_interval` commits a worker's dirty vertices are queued,
    /// and they are compacted a slice (≤ ~0.5 ms) at a time, spread over
    /// the following interval. Off, only [`LiveGraph::compact`] compacts.
    pub auto_compaction: bool,
    /// Deadlock-avoidance timeout for per-vertex locks.
    pub lock_timeout: Duration,
    /// Maximum number of worker threads that may run transactions.
    pub max_workers: usize,
    /// Number of recent epochs whose superseded versions compaction must
    /// keep, enabling time-travel reads via
    /// [`LiveGraph::begin_read_at`]. `0` (the default) reproduces the
    /// paper's prototype, which garbage-collects aggressively and keeps only
    /// what active transactions still need.
    pub history_retention: i64,
    /// Group-commit tuning for the WAL: how many transaction records one
    /// write + fsync may cover, and how long a flush leader lingers for
    /// joiners. Ignored without `data_dir`.
    pub group_commit: GroupCommitConfig,
}

impl Default for LiveGraphOptions {
    fn default() -> Self {
        Self {
            block_store_capacity: 1 << 30,
            max_vertices: 1 << 24,
            data_dir: None,
            sync_mode: SyncMode::Fsync,
            compaction_interval: 65_536,
            auto_compaction: true,
            lock_timeout: Duration::from_millis(100),
            max_workers: 256,
            history_retention: 0,
            group_commit: GroupCommitConfig::default(),
        }
    }
}

impl LiveGraphOptions {
    /// Pure in-memory configuration (no WAL, no durability).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Durable configuration rooted at `dir` (WAL + checkpoints).
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Sets the block store capacity.
    pub fn with_capacity(mut self, bytes: usize) -> Self {
        self.block_store_capacity = bytes;
        self
    }

    /// Sets the maximum vertex count.
    pub fn with_max_vertices(mut self, n: usize) -> Self {
        self.max_vertices = n;
        self
    }

    /// Sets the WAL sync mode.
    pub fn with_sync_mode(mut self, mode: SyncMode) -> Self {
        self.sync_mode = mode;
        self
    }

    /// Enables or disables automatic compaction.
    pub fn with_auto_compaction(mut self, on: bool) -> Self {
        self.auto_compaction = on;
        self
    }

    /// Sets the automatic compaction interval: the number of a worker's
    /// commits over which each boundary's work list is spread.
    pub fn with_compaction_interval(mut self, every: u64) -> Self {
        self.compaction_interval = every;
        self
    }

    /// Keeps superseded versions of the last `epochs` commit epochs so they
    /// remain readable through [`LiveGraph::begin_read_at`].
    pub fn with_history_retention(mut self, epochs: i64) -> Self {
        self.history_retention = epochs;
        self
    }

    /// Sets the WAL group-commit tuning (batch cap and leader linger).
    pub fn with_group_commit(mut self, config: GroupCommitConfig) -> Self {
        self.group_commit = config;
        self
    }
}

/// Counters describing how adjacency reads were served (sealed fast path
/// vs. checked scans, and the effort of Bloom-assisted point lookups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Neighbourhood scans served by the zero-check sealed fast path.
    pub sealed_scans: u64,
    /// Neighbourhood scans that fell back to the per-entry checked path
    /// (dirty TEL, uncovered commit, or a writer transaction reading).
    pub checked_scans: u64,
    /// `get_edge` point lookups issued through the public API.
    pub edge_lookups: u64,
    /// Log entries examined by those lookups (0 for a Bloom negative).
    pub edge_lookup_entries_scanned: u64,
    /// Lookups short-circuited by a definite Bloom-filter miss.
    pub edge_lookup_bloom_negatives: u64,
}

/// One worker's scan counters, padded to a cache line so the per-scan
/// increment on the hot path never contends with other workers.
#[repr(align(64))]
#[derive(Default)]
struct WorkerScanCounters {
    sealed: AtomicU64,
    checked: AtomicU64,
}

/// Internal atomic mirror of [`ScanStats`]. Scan counts are sharded per
/// worker slot (they fire once per adjacency scan, i.e. once per vertex per
/// analytics iteration across all threads); the point-lookup counters fire
/// once per `get_edge` — which does orders of magnitude more work than one
/// increment — and stay shared.
pub(crate) struct ScanCounters {
    per_worker: Vec<WorkerScanCounters>,
    edge_lookups: AtomicU64,
    edge_lookup_entries_scanned: AtomicU64,
    edge_lookup_bloom_negatives: AtomicU64,
}

impl ScanCounters {
    fn new(max_workers: usize) -> Self {
        Self {
            per_worker: (0..max_workers).map(|_| WorkerScanCounters::default()).collect(),
            edge_lookups: AtomicU64::new(0),
            edge_lookup_entries_scanned: AtomicU64::new(0),
            edge_lookup_bloom_negatives: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record_scan(&self, worker: usize, sealed: bool) {
        let slot = &self.per_worker[worker];
        // ORDERING: Relaxed — monitoring counters; readers only want a
        // statistically correct total, no data is published through them.
        if sealed {
            slot.sealed.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.checked.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_lookup(&self, probe: crate::tel::EdgeProbe) {
        // ORDERING: Relaxed — monitoring counters, no publication.
        self.edge_lookups.fetch_add(1, Ordering::Relaxed);
        if probe.bloom_negative {
            self.edge_lookup_bloom_negatives.fetch_add(1, Ordering::Relaxed);
        }
        // ORDERING: Relaxed — monitoring counter, no publication.
        self.edge_lookup_entries_scanned
            .fetch_add(probe.entries_scanned as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ScanStats {
        let (mut sealed, mut checked) = (0u64, 0u64);
        for w in &self.per_worker {
            // ORDERING: Relaxed — stats snapshot tolerates torn totals.
            sealed += w.sealed.load(Ordering::Relaxed);
            checked += w.checked.load(Ordering::Relaxed);
        }
        ScanStats {
            sealed_scans: sealed,
            checked_scans: checked,
            // ORDERING: Relaxed — stats snapshot tolerates torn totals.
            edge_lookups: self.edge_lookups.load(Ordering::Relaxed),
            edge_lookup_entries_scanned: self.edge_lookup_entries_scanned.load(Ordering::Relaxed),
            edge_lookup_bloom_negatives: self.edge_lookup_bloom_negatives.load(Ordering::Relaxed),
        }
    }
}

/// Aggregated engine statistics (memory consumption, compaction, WAL).
///
/// **Snapshot contract:** [`LiveGraph::stats`] reads each counter with an
/// independent relaxed load while writers proceed, so a `GraphStats` is a
/// *weak* snapshot — it is **not** a consistent cut across fields. What
/// *is* guaranteed: every individual field is monotone across successive
/// snapshots, and cross-field invariants whose underlying counters are
/// published in a fixed order hold within a single snapshot — in
/// particular `wal_group_records >= wal_groups` (a flushed batch always
/// has at least one record; the WAL bumps `group_records` *before*
/// `groups` with release/acquire pairing so no reader can observe the
/// batch without its records). Pinned by the `stats_snapshot` test.
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Number of vertices ever created.
    pub vertex_count: u64,
    /// Number of committed edge insertions (upserts counted once).
    pub edge_insert_count: u64,
    /// Block store statistics, including the block size distribution used
    /// for Figure 7b.
    pub blocks: BlockStoreStats,
    /// Compaction statistics.
    pub compaction: CompactionStats,
    /// Adjacency-scan and point-lookup path statistics.
    pub scans: ScanStats,
    /// Bytes written to the WAL so far.
    pub wal_bytes: u64,
    /// Device syncs the WAL has issued (`fsync`s, or simulated flushes).
    /// With group commit this stays below the commit count under
    /// concurrency: one sync covers a whole batch of transactions.
    pub wal_fsyncs: u64,
    /// Commit batches the WAL has flushed (each = one write + one sync).
    pub wal_groups: u64,
    /// Transaction records across all flushed WAL batches;
    /// `wal_group_records > wal_groups` means multi-transaction batches
    /// actually formed.
    pub wal_group_records: u64,
    /// True once a fault-injected [`SyncMode::CrashAt`] tear has dropped
    /// WAL bytes (always false outside the crash-consistency harness).
    pub wal_torn: bool,
    /// Current global read epoch.
    pub read_epoch: Timestamp,
    /// Current global write epoch.
    pub write_epoch: Timestamp,
}

static GRAPH_IDS: AtomicUsize = AtomicUsize::new(0);

/// Internal shared state. Public API types borrow this through [`LiveGraph`].
pub(crate) struct GraphInner {
    pub(crate) id: usize,
    pub(crate) store: BlockStore,
    pub(crate) vertex_index: IndexArray,
    pub(crate) edge_index: IndexArray,
    pub(crate) locks: VertexLockTable,
    pub(crate) epochs: Arc<EpochManager>,
    pub(crate) commit: CommitCoordinator,
    pub(crate) compaction: CompactionState,
    pub(crate) next_vertex: AtomicU64,
    pub(crate) edge_insert_count: AtomicU64,
    pub(crate) scan_counters: ScanCounters,
    pub(crate) telemetry: Arc<crate::telemetry::Telemetry>,
    /// Ids of deleted vertices reclaimed by compaction, available for reuse
    /// by [`crate::WriteTxn::create_vertex`].
    pub(crate) free_vertex_ids: parking_lot::Mutex<Vec<VertexId>>,
    /// Set while recovery replays the checkpoint/WAL, so committed replays
    /// are not re-appended to the WAL.
    pub(crate) recovery_mode: AtomicBool,
    /// Highest epoch pruned out of the WAL (the snapshot epoch of the last
    /// checkpoint, restored from the checkpoint file on recovery). The WAL
    /// on disk holds exactly the records with epochs above this floor, so a
    /// replication tail can resume from epoch `e` iff `e >= prune_floor` —
    /// otherwise the replica must re-bootstrap from the checkpoint.
    pub(crate) prune_floor: std::sync::atomic::AtomicI64,
    pub(crate) options: LiveGraphOptions,
}

thread_local! {
    /// Worker slot of the current thread, per graph instance id.
    static WORKER_SLOTS: std::cell::RefCell<Vec<(usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl GraphInner {
    /// Returns (allocating on first use) the calling thread's worker slot.
    pub(crate) fn worker_slot(&self) -> Result<usize> {
        WORKER_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some(&(_, slot)) = slots.iter().find(|(id, _)| *id == self.id) {
                return Ok(slot);
            }
            let slot = self.epochs.allocate_worker()?;
            slots.push((self.id, slot));
            Ok(slot)
        })
    }

    /// Smallest size-class order whose TEL can hold `log_bytes` of edge
    /// entries plus `prop_bytes` of properties (accounting for the header
    /// and the Bloom filter share of the block).
    pub(crate) fn tel_order_for(log_bytes: u64, prop_bytes: u64) -> u8 {
        let needed = log_bytes as usize + prop_bytes as usize;
        let mut order = 1u8; // 128 bytes: header + 2 entries minimum
        loop {
            let size = 64usize << order;
            let usable = size - TEL_HEADER_SIZE - bloom_bytes_for_block(size);
            if usable >= needed {
                return order;
            }
            order += 1;
        }
    }

    /// Allocates and initialises an empty TEL of at least the given usable
    /// capacity.
    pub(crate) fn alloc_tel(
        &self,
        src: VertexId,
        label: Label,
        log_bytes: u64,
        prop_bytes: u64,
        prev: BlockPtr,
    ) -> Result<BlockPtr> {
        let order = Self::tel_order_for(log_bytes, prop_bytes);
        let ptr = self.store.allocate_zeroed(order)?;
        let tel = self.tel_ref(ptr, order);
        tel.init(src, label, order, prev);
        Ok(ptr)
    }

    /// Wraps a block pointer whose order is already known.
    pub(crate) fn tel_ref(&self, ptr: BlockPtr, order: u8) -> TelRef<'_> {
        // SAFETY: the block was allocated with this order and never moves.
        unsafe { TelRef::from_raw(self.store.block_ptr(ptr), 64usize << order) }
    }

    /// Wraps a block pointer, reading the order from the TEL header.
    pub(crate) fn tel_ref_auto(&self, ptr: BlockPtr) -> TelRef<'_> {
        debug_assert_ne!(ptr, NULL_BLOCK);
        // SAFETY: order byte lives at a fixed header offset (48) in every TEL.
        let order = unsafe { *self.store.block_ptr(ptr).add(48) };
        self.tel_ref(ptr, order)
    }

    /// Wraps a vertex block pointer, reading the order from its header.
    pub(crate) fn vertex_ref(&self, ptr: BlockPtr) -> VertexBlockRef<'_> {
        debug_assert_ne!(ptr, NULL_BLOCK);
        // SAFETY: order byte lives at header offset 20 in every vertex block.
        let order = unsafe { *self.store.block_ptr(ptr).add(20) };
        unsafe { VertexBlockRef::from_raw(self.store.block_ptr(ptr), 64usize << order) }
    }

    /// Wraps a label index block pointer. The order is stored in its header.
    pub(crate) fn label_index_ref(&self, ptr: BlockPtr) -> LabelIndexRef<'_> {
        debug_assert_ne!(ptr, NULL_BLOCK);
        // SAFETY: order byte lives at header offset 8 in label index blocks.
        let order = unsafe { *self.store.block_ptr(ptr).add(8) };
        unsafe { LabelIndexRef::from_raw(self.store.block_ptr(ptr), 64usize << order) }
    }

    /// Looks up the committed TEL for `(vertex, label)`.
    pub(crate) fn find_tel(&self, vertex: VertexId, label: Label) -> Option<BlockPtr> {
        let li_ptr = self.edge_index.get(vertex);
        if li_ptr == NULL_BLOCK {
            return None;
        }
        let li = self.label_index_ref(li_ptr);
        li.find(label).filter(|&p| p != NULL_BLOCK)
    }

    /// Ensures a label-index entry and TEL exist for `(vertex, label)`,
    /// creating (and, if necessary, upgrading the label index block) under
    /// the caller-held vertex lock. Returns the TEL pointer.
    pub(crate) fn ensure_tel(&self, vertex: VertexId, label: Label) -> Result<BlockPtr> {
        // Label index block.
        let mut li_ptr = self.edge_index.get(vertex);
        if li_ptr == NULL_BLOCK {
            let order = 0u8; // 64-byte block: 3 label slots
            li_ptr = self.store.allocate_zeroed(order)?;
            self.label_index_ref(li_ptr).init(order);
            self.edge_index.set(vertex, li_ptr);
        }
        let li = self.label_index_ref(li_ptr);
        if let Some(tel) = li.find(label) {
            if tel != NULL_BLOCK {
                return Ok(tel);
            }
        }
        // Need a fresh TEL for this label.
        let tel_ptr = self.alloc_tel(vertex, label, EDGE_ENTRY_SIZE as u64, 0, NULL_BLOCK)?;
        if !li.push(label, tel_ptr) {
            // Label index block full: upgrade it (double the size).
            let new_order = li.order() + 1;
            let new_ptr = self.store.allocate_zeroed(new_order)?;
            let new_li = self.label_index_ref_with_order(new_ptr, new_order);
            new_li.init(new_order);
            li.copy_into(&new_li);
            let pushed = new_li.push(label, tel_ptr);
            debug_assert!(pushed);
            self.edge_index.set(vertex, new_ptr);
            // The old label index block may still be referenced by readers
            // that loaded the edge-index slot before the swap; retire it.
            self.compaction
                .retire(self.epochs.gre(), li_ptr, li.order());
        }
        Ok(tel_ptr)
    }

    fn label_index_ref_with_order(&self, ptr: BlockPtr, order: u8) -> LabelIndexRef<'_> {
        // SAFETY: freshly allocated with this order.
        unsafe { LabelIndexRef::from_raw(self.store.block_ptr(ptr), 64usize << order) }
    }

    /// Reads the committed vertex payload visible at `(tre, tid)`. Returns
    /// `None` if the visible version is a deletion tombstone.
    pub(crate) fn read_vertex_version(
        &self,
        vertex: VertexId,
        tre: Timestamp,
        tid: TxnId,
    ) -> Option<&[u8]> {
        // ORDERING: Acquire pairs with the Release bump of `next_vertex` in
        // vertex allocation, so an id observed here has its index slot and
        // lock-table entry initialized.
        if vertex >= self.next_vertex.load(Ordering::Acquire) {
            return None;
        }
        let mut ptr = self.vertex_index.get(vertex);
        // Walk the copy-on-write chain until a visible version is found.
        while ptr != NULL_BLOCK {
            let block = self.vertex_ref(ptr);
            if block.visible(tre, tid) {
                if block.is_deleted() {
                    return None;
                }
                return Some(block.data());
            }
            ptr = block.prev_ptr();
        }
        None
    }

    /// True if the version of `vertex` visible at `tre` is a deletion
    /// tombstone (as opposed to the id simply never having been committed).
    pub(crate) fn vertex_deleted_at(&self, vertex: VertexId, tre: Timestamp) -> bool {
        // ORDERING: Acquire — same allocation edge as `read_vertex_version`.
        if vertex >= self.next_vertex.load(Ordering::Acquire) {
            return false;
        }
        let mut ptr = self.vertex_index.get(vertex);
        while ptr != NULL_BLOCK {
            let block = self.vertex_ref(ptr);
            if block.visible(tre, 0) {
                return block.is_deleted();
            }
            ptr = block.prev_ptr();
        }
        false
    }

    /// The labels for which `vertex` has a (possibly empty) TEL.
    /// ([`crate::txn::LabelIter`] is the single source of truth for the
    /// label-index walk; this is its collecting convenience.)
    pub(crate) fn labels_of(&self, vertex: VertexId) -> Vec<Label> {
        crate::txn::LabelIter::new(self, vertex).collect()
    }

    /// Pops a recycled vertex id, if one is available.
    pub(crate) fn pop_free_vertex_id(&self) -> Option<VertexId> {
        self.free_vertex_ids.lock().pop()
    }

    /// Returns a vertex id to the free list for reuse.
    pub(crate) fn push_free_vertex_id(&self, vertex: VertexId) {
        self.free_vertex_ids.lock().push(vertex);
    }

    /// True if `vertex` has been allocated (it may still lack a committed
    /// vertex block if its creating transaction is in flight or aborted).
    pub(crate) fn vertex_exists(&self, vertex: VertexId) -> bool {
        // ORDERING: Acquire — same allocation edge as `read_vertex_version`.
        vertex < self.next_vertex.load(Ordering::Acquire)
    }

    /// Number of label-slot entries a fresh label index block of order 0
    /// offers (used by tests and sizing heuristics).
    #[cfg(test)]
    pub(crate) fn label_slots_for_order(order: u8) -> usize {
        use crate::index::{LABEL_INDEX_HEADER, LABEL_SLOT_SIZE};
        ((64usize << order) - LABEL_INDEX_HEADER) / LABEL_SLOT_SIZE
    }
}

/// A transactional graph storage engine with purely sequential adjacency
/// list scans (the system described in the paper).
///
/// `LiveGraph` is cheap to clone-by-reference (`&LiveGraph`) across threads:
/// all shared state is internally synchronised. Transactions borrow the
/// graph, so the graph must outlive them.
///
/// # Example
/// ```
/// use livegraph_core::{LiveGraph, LiveGraphOptions};
///
/// let graph = LiveGraph::open(LiveGraphOptions::in_memory()).unwrap();
/// let mut txn = graph.begin_write().unwrap();
/// let alice = txn.create_vertex(b"alice").unwrap();
/// let bob = txn.create_vertex(b"bob").unwrap();
/// txn.put_edge(alice, 0, bob, b"friends").unwrap();
/// txn.commit().unwrap();
///
/// let read = graph.begin_read().unwrap();
/// let neighbours: Vec<_> = read.edges(alice, 0).map(|e| e.dst).collect();
/// assert_eq!(neighbours, vec![bob]);
/// ```
pub struct LiveGraph {
    inner: Arc<GraphInner>,
}

/// Shared infrastructure injected into a shard of a
/// [`crate::sharded::ShardedGraph`]: one epoch manager and one commit clock
/// serve every shard, so all shards agree on a single `GRE`/`GWE` timeline.
pub(crate) struct EngineHooks {
    pub(crate) epochs: Arc<EpochManager>,
    pub(crate) clock: Arc<GroupClock>,
    /// One registry for every shard, so exported totals are pre-flattened
    /// across shards (mirroring the single GRE/GWE timeline).
    pub(crate) telemetry: Arc<crate::telemetry::Telemetry>,
    /// Skip per-graph recovery on open; the sharded engine replays all
    /// shard WALs itself, merged into one consistent epoch order.
    pub(crate) defer_recovery: bool,
}

impl LiveGraph {
    /// Opens a graph with the given options. If a data directory with an
    /// existing checkpoint and/or WAL is supplied, the previous state is
    /// recovered before the call returns.
    pub fn open(options: LiveGraphOptions) -> Result<Self> {
        Self::open_with_hooks(options, None)
    }

    pub(crate) fn open_with_hooks(
        options: LiveGraphOptions,
        hooks: Option<EngineHooks>,
    ) -> Result<Self> {
        if let Some(dir) = &options.data_dir {
            std::fs::create_dir_all(dir)?;
        }
        let store = BlockStore::with_options(BlockStoreOptions {
            capacity: options.block_store_capacity,
            ..Default::default()
        })?;
        let wal_path = options.data_dir.as_ref().map(|d| d.join("wal.log"));
        let (epochs, mut commit, telemetry, defer_recovery) = match hooks {
            Some(h) => {
                assert_eq!(
                    h.epochs.max_workers(),
                    options.max_workers,
                    "shared epoch manager must be sized for the shard's max_workers"
                );
                let commit = CommitCoordinator::with_clock(
                    wal_path.as_deref(),
                    options.sync_mode,
                    options.group_commit,
                    h.clock,
                )?;
                (h.epochs, commit, h.telemetry, h.defer_recovery)
            }
            None => {
                let commit = CommitCoordinator::new(
                    wal_path.as_deref(),
                    options.sync_mode,
                    options.group_commit,
                )?;
                let telemetry = crate::telemetry::Telemetry::new(options.max_workers);
                telemetry.set_enabled(true);
                (
                    Arc::new(EpochManager::new(options.max_workers)),
                    commit,
                    telemetry,
                    false,
                )
            }
        };
        commit.set_telemetry(Arc::clone(&telemetry));
        let inner = GraphInner {
            // ORDERING: Relaxed — process-unique id; atomicity suffices.
            id: GRAPH_IDS.fetch_add(1, Ordering::Relaxed),
            vertex_index: IndexArray::new(options.max_vertices)?,
            edge_index: IndexArray::new(options.max_vertices)?,
            locks: VertexLockTable::new(options.max_vertices)?,
            epochs,
            commit,
            compaction: CompactionState::new(options.max_workers),
            next_vertex: AtomicU64::new(0),
            edge_insert_count: AtomicU64::new(0),
            scan_counters: ScanCounters::new(options.max_workers),
            telemetry,
            free_vertex_ids: parking_lot::Mutex::new(Vec::new()),
            recovery_mode: AtomicBool::new(false),
            prune_floor: std::sync::atomic::AtomicI64::new(0),
            store,
            options,
        };
        debug_assert_eq!(inner.epochs.max_workers(), inner.options.max_workers);
        debug_assert_eq!(inner.vertex_index.capacity(), inner.options.max_vertices);
        debug_assert_eq!(inner.locks.capacity(), inner.options.max_vertices);
        let graph = Self {
            inner: Arc::new(inner),
        };
        if !defer_recovery {
            graph.recover_existing_state()?;
        }
        Ok(graph)
    }

    /// Internal shared state, for the in-crate sharded engine.
    pub(crate) fn inner(&self) -> &GraphInner {
        self.inner.as_ref()
    }

    /// Convenience constructor for a default in-memory graph.
    pub fn in_memory() -> Result<Self> {
        Self::open(LiveGraphOptions::in_memory())
    }

    /// Starts a read-only transaction on a consistent snapshot.
    pub fn begin_read(&self) -> Result<ReadTxn<'_>> {
        ReadTxn::begin(self.inner.as_ref())
    }

    /// Starts a time-travel read-only transaction pinned at `epoch`.
    ///
    /// The epoch must be between 0 and the current global read epoch (see
    /// [`GraphStats::read_epoch`]). Whether versions older than the pinned
    /// epoch are still materialised depends on
    /// [`LiveGraphOptions::history_retention`]: with the default aggressive
    /// garbage collection only epochs newer than the oldest running
    /// transaction are guaranteed to be complete.
    pub fn begin_read_at(&self, epoch: Timestamp) -> Result<ReadTxn<'_>> {
        ReadTxn::begin_at(self.inner.as_ref(), epoch)
    }

    /// Starts a read-write transaction.
    pub fn begin_write(&self) -> Result<WriteTxn<'_>> {
        WriteTxn::begin(self.inner.as_ref())
    }

    /// Number of vertices ever created (including uncommitted/aborted ids).
    pub fn vertex_count(&self) -> u64 {
        // ORDERING: Acquire — pairs with the Release bump in allocation.
        self.inner.next_vertex.load(Ordering::Acquire)
    }

    /// Runs a full compaction pass over every dirty vertex and every
    /// pending work list (all workers), skipping vertices an open
    /// transaction holds locked (they stay queued for later).
    pub fn compact(&self) {
        crate::compaction::compact_all(&self.inner);
    }

    /// Writes a checkpoint of the latest committed snapshot into the data
    /// directory and prunes the WAL. Requires a durable configuration.
    pub fn checkpoint(&self) -> Result<()> {
        crate::checkpoint::write_checkpoint(&self.inner).map(|_| ())
    }

    /// Highest epoch pruned out of the WAL by checkpointing (0 if the WAL
    /// has never been pruned). The on-disk log holds exactly the records
    /// with epochs above this floor; see
    /// [`LiveGraph::wal_tail`](crate::replication::WalTail) for how
    /// replication uses it to decide between resume and re-bootstrap.
    pub fn wal_prune_floor(&self) -> Timestamp {
        // ORDERING: Acquire pairs with the Release store after checkpoint
        // pruning, so a floor observed here implies the checkpoint files
        // that replace the pruned records are fully on disk.
        self.inner.prune_floor.load(Ordering::Acquire)
    }

    /// The oldest snapshot epoch any *currently active* transaction has
    /// pinned in the reading-epoch table, or `None` when no transaction is
    /// active. Lets admin tooling (and the service layer's
    /// disconnect-cleanup regression tests) verify that finished or
    /// abandoned sessions left no epoch pins behind — a leaked pin would
    /// hold back compaction indefinitely.
    pub fn oldest_active_read_epoch(&self) -> Option<Timestamp> {
        let min = self.inner.epochs.min_active_reader_epoch();
        (min != crate::epoch::IDLE_EPOCH).then_some(min)
    }

    /// Engine statistics.
    pub fn stats(&self) -> GraphStats {
        let wal = self.inner.commit.wal_stats();
        GraphStats {
            vertex_count: self.vertex_count(),
            // ORDERING: Relaxed — monitoring counter, no publication.
            edge_insert_count: self.inner.edge_insert_count.load(Ordering::Relaxed),
            blocks: self.inner.store.stats(),
            compaction: self.inner.compaction.stats(),
            scans: self.inner.scan_counters.snapshot(),
            wal_bytes: wal.bytes,
            wal_fsyncs: wal.fsyncs,
            wal_groups: wal.groups,
            wal_group_records: wal.group_records,
            wal_torn: wal.torn,
            read_epoch: self.inner.epochs.gre(),
            write_epoch: self.inner.epochs.gwe(),
        }
    }

    /// The options this graph was opened with.
    pub fn options(&self) -> &LiveGraphOptions {
        &self.inner.options
    }

    /// The live telemetry registry: hot-path counters, gauges and span
    /// histograms. Shared with the service layer (reactor/replication
    /// spans) and admin endpoints.
    pub fn telemetry(&self) -> &Arc<crate::telemetry::Telemetry> {
        &self.inner.telemetry
    }

    /// Full metrics dump: the telemetry registry plus engine-derived
    /// counters and gauges (epochs, WAL totals, scan path totals), under
    /// the weak-snapshot contract of
    /// [`MetricsSnapshot`](crate::telemetry::MetricsSnapshot).
    pub fn metrics(&self) -> crate::telemetry::MetricsSnapshot {
        let mut snap = self.inner.telemetry.snapshot();
        let stats = self.stats();
        push_engine_metrics(&mut snap, &stats);
        snap
    }

    fn recover_existing_state(&self) -> Result<()> {
        crate::checkpoint::recover(&self.inner)
    }
}

/// Extends a registry snapshot with the engine-derived counters and gauges
/// every dump exposes (epochs, WAL totals, scan path totals). Shared by
/// [`LiveGraph::metrics`] and the sharded engine's flattened dump.
pub(crate) fn push_engine_metrics(
    snap: &mut crate::telemetry::MetricsSnapshot,
    stats: &GraphStats,
) {
    snap.push_counter("livegraph_vertices_total", stats.vertex_count);
    snap.push_counter("livegraph_edge_inserts_total", stats.edge_insert_count);
    snap.push_counter("livegraph_wal_bytes_total", stats.wal_bytes);
    snap.push_counter("livegraph_wal_fsyncs_total", stats.wal_fsyncs);
    snap.push_counter("livegraph_wal_groups_total", stats.wal_groups);
    snap.push_counter("livegraph_wal_group_records_total", stats.wal_group_records);
    snap.push_counter("livegraph_sealed_scans_total", stats.scans.sealed_scans);
    snap.push_counter("livegraph_checked_scans_total", stats.scans.checked_scans);
    snap.push_counter("livegraph_edge_lookups_total", stats.scans.edge_lookups);
    snap.push_counter(
        "livegraph_compaction_passes_total",
        stats.compaction.passes,
    );
    snap.push_gauge(
        "livegraph_compaction_debt_entries",
        i64::try_from(stats.compaction.debt).unwrap_or(i64::MAX),
    );
    snap.push_gauge("livegraph_read_epoch", stats.read_epoch);
    snap.push_gauge("livegraph_write_epoch", stats.write_epoch);
    snap.push_gauge("livegraph_epoch_lag", stats.write_epoch - stats.read_epoch);
    snap.push_gauge("livegraph_wal_torn", i64::from(stats.wal_torn));
}

impl std::fmt::Debug for LiveGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveGraph")
            .field("vertices", &self.vertex_count())
            .field("gre", &self.inner.epochs.gre())
            .field("gwe", &self.inner.epochs.gwe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tel_order_sizing_accounts_for_header_and_bloom() {
        // 2 entries (64 bytes) fit in a 128-byte block.
        assert_eq!(GraphInner::tel_order_for(64, 0), 1);
        // 3 entries need 256 bytes (192 usable).
        assert_eq!(GraphInner::tel_order_for(96, 0), 2);
        // Large logs account for the 1/16 bloom share.
        let order = GraphInner::tel_order_for(10_000, 0);
        let size = 64usize << order;
        assert!(size - TEL_HEADER_SIZE - bloom_bytes_for_block(size) >= 10_000);
    }

    #[test]
    fn label_slot_capacity_matches_block_math() {
        assert_eq!(GraphInner::label_slots_for_order(0), 3);
        assert_eq!(GraphInner::label_slots_for_order(1), 7);
    }

    #[test]
    fn options_builders_compose() {
        let opts = LiveGraphOptions::in_memory()
            .with_capacity(1 << 20)
            .with_max_vertices(1024)
            .with_auto_compaction(false)
            .with_compaction_interval(7)
            .with_sync_mode(SyncMode::NoSync);
        assert_eq!(opts.block_store_capacity, 1 << 20);
        assert_eq!(opts.max_vertices, 1024);
        assert!(!opts.auto_compaction);
        assert_eq!(opts.compaction_interval, 7);
        assert_eq!(opts.sync_mode, SyncMode::NoSync);
    }

    #[test]
    fn open_in_memory_graph_and_query_stats() {
        let graph = LiveGraph::in_memory().unwrap();
        assert_eq!(graph.vertex_count(), 0);
        let stats = graph.stats();
        assert_eq!(stats.vertex_count, 0);
        assert_eq!(stats.wal_bytes, 0);
        assert_eq!(stats.read_epoch, 0);
    }
}
