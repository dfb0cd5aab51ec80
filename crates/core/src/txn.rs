//! Read and write transactions (§4 and §5 of the paper).
//!
//! * [`ReadTxn`] — snapshot-isolated read-only transaction. It records its
//!   read epoch `TRE` in the reading-epoch table and never takes locks; all
//!   adjacency-list accesses are purely sequential TEL scans that filter
//!   entries by the embedded creation/invalidation timestamps.
//! * [`WriteTxn`] — read-write transaction following the paper's three
//!   phases: the *work* phase makes transaction-private updates (timestamps
//!   `-TID`, entries appended past the committed log size) under per-vertex
//!   locks; the *persist* phase runs through the group-commit coordinator;
//!   the *apply* phase publishes the new commit timestamp / log sizes and
//!   converts `-TID` stamps to the assigned write epoch.
//!
//! One deliberate deviation from the paper: locks are released *after* the
//! timestamp-conversion step rather than before it. This keeps the invariant
//! that a vertex whose lock is free has no pending `-TID` stamps, which the
//! compactor relies on (it copies entries while holding the vertex lock).

use std::collections::HashMap;

use livegraph_storage::{BlockPtr, NULL_BLOCK};

use crate::error::{Error, Result};
use crate::graph::GraphInner;
use crate::tel::{TelRef, TelScan, EDGE_ENTRY_SIZE};
use crate::types::{Label, Timestamp, TxnId, VertexId, NULL_TS};
use crate::vertex::VertexBlockRef;
use crate::wal::WalOp;

/// One edge yielded by an adjacency list scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge<'t> {
    /// Destination vertex.
    pub dst: VertexId,
    /// Property payload of the visible version.
    pub properties: &'t [u8],
    /// Commit epoch of the visible version (negative for the scanning
    /// transaction's own uncommitted writes).
    pub created_at: Timestamp,
}

/// Iterator over the visible edges of one `(vertex, label)` adjacency list.
///
/// Yields edges newest-first, mirroring the TEL's scan direction.
pub struct EdgeIter<'t> {
    tel: Option<TelRef<'t>>,
    scan: Option<TelScan<'t>>,
    tre: Timestamp,
    tid: TxnId,
}

impl<'t> EdgeIter<'t> {
    fn empty(tre: Timestamp, tid: TxnId) -> Self {
        Self {
            tel: None,
            scan: None,
            tre,
            tid,
        }
    }

    fn new(tel: TelRef<'t>, log_bytes: u64, tre: Timestamp, tid: TxnId) -> Self {
        Self {
            scan: Some(tel.scan(log_bytes)),
            tel: Some(tel),
            tre,
            tid,
        }
    }
}

impl<'t> Iterator for EdgeIter<'t> {
    type Item = Edge<'t>;

    fn next(&mut self) -> Option<Self::Item> {
        let (tel, scan) = match (&self.tel, &mut self.scan) {
            (Some(tel), Some(scan)) => (tel, scan),
            _ => return None,
        };
        for entry in scan.by_ref() {
            if entry.visible(self.tre, self.tid) {
                return Some(Edge {
                    dst: entry.dst(),
                    properties: tel.properties(&entry),
                    created_at: entry.creation_ts(),
                });
            }
        }
        None
    }
}

/// A snapshot-isolated read-only transaction.
pub struct ReadTxn<'g> {
    graph: &'g GraphInner,
    worker: usize,
    tre: Timestamp,
}

impl<'g> ReadTxn<'g> {
    pub(crate) fn begin(graph: &'g GraphInner) -> Result<Self> {
        let worker = graph.worker_slot()?;
        let tre = graph.epochs.begin_read(worker);
        Ok(Self {
            graph,
            worker,
            tre,
        })
    }

    /// Begins a time-travel read pinned at `epoch` (≤ the current global read
    /// epoch). The epoch is registered in the reading-epoch table, so
    /// versions it can see are protected from compaction for the lifetime of
    /// the transaction. Whether versions *older than the graph's configured
    /// history retention* are still available depends on
    /// [`crate::LiveGraphOptions::history_retention`].
    pub(crate) fn begin_at(graph: &'g GraphInner, epoch: Timestamp) -> Result<Self> {
        let gre = graph.epochs.gre();
        if epoch < 0 || epoch > gre {
            return Err(Error::EpochUnavailable { requested: epoch, newest: gre });
        }
        let worker = graph.worker_slot()?;
        let tre = graph.epochs.begin_read_at(worker, epoch);
        Ok(Self {
            graph,
            worker,
            tre,
        })
    }

    /// The snapshot epoch this transaction reads.
    pub fn read_epoch(&self) -> Timestamp {
        self.tre
    }

    /// Number of vertex ids allocated so far (upper bound on vertex ids).
    pub fn vertex_count(&self) -> u64 {
        // ORDERING: Acquire pairs with the AcqRel allocation RMWs.
        self.graph.next_vertex.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Reads the properties of `vertex` as of this snapshot. Returns `None`
    /// for unallocated ids and for vertices whose visible version is a
    /// deletion tombstone.
    pub fn get_vertex(&self, vertex: VertexId) -> Option<&[u8]> {
        self.graph.read_vertex_version(vertex, self.tre, 0)
    }

    /// True if `vertex` has a visible, non-deleted version in this snapshot.
    pub fn contains_vertex(&self, vertex: VertexId) -> bool {
        self.get_vertex(vertex).is_some()
    }

    /// Iterates `(vertex id, properties)` over every vertex visible in this
    /// snapshot, in id order. Deleted vertices and ids whose creating
    /// transaction never committed are skipped.
    pub fn vertices(&self) -> VertexIter<'_> {
        VertexIter {
            graph: self.graph,
            tre: self.tre,
            next: 0,
            limit: self.vertex_count(),
        }
    }

    /// The labels under which `vertex` has (or ever had) adjacency lists, in
    /// creation order. Allocation-free; collect into a `Vec` if you need to
    /// sort or retain the labels.
    pub fn labels(&self, vertex: VertexId) -> LabelIter<'_> {
        LabelIter::new(self.graph, vertex)
    }

    /// Sequentially scans the adjacency list of `(vertex, label)`.
    pub fn edges(&self, vertex: VertexId, label: Label) -> EdgeIter<'_> {
        match self.graph.find_tel(vertex, label) {
            Some(ptr) => {
                let tel = self.graph.tel_ref_auto(ptr);
                let log = tel.log_size();
                EdgeIter::new(tel, log, self.tre, 0)
            }
            None => EdgeIter::empty(self.tre, 0),
        }
    }

    /// Invokes `f` with the destination of every visible edge of
    /// `(vertex, label)`, newest first.
    ///
    /// This is the monomorphized scan entry point for analytics: on a
    /// *sealed* TEL — last commit covered by this snapshot and no committed
    /// invalidations — it streams raw entries with **no per-entry visibility
    /// checks** ([`crate::tel::TelRef::for_each_dst_sealed`]); otherwise it
    /// falls back to the ordinary checked scan. Both paths are purely
    /// sequential within one block.
    #[inline]
    pub fn for_each_neighbor<F: FnMut(VertexId)>(&self, vertex: VertexId, label: Label, mut f: F) {
        let Some(ptr) = self.graph.find_tel(vertex, label) else {
            return;
        };
        let tel = self.graph.tel_ref_auto(ptr);
        if let Some(log) = tel.sealed_log(self.tre) {
            self.graph.scan_counters.record_scan(self.worker, true);
            let t0 = self.graph.telemetry.scan_timer(self.worker);
            tel.for_each_dst_sealed(log, f);
            self.graph.telemetry.scan_sealed_seconds.observe_timer(t0);
        } else {
            self.graph.scan_counters.record_scan(self.worker, false);
            let t0 = self.graph.telemetry.scan_timer(self.worker);
            let log = tel.log_size();
            checked_for_each_dst(&tel, log, self.tre, 0, &mut f);
            self.graph.telemetry.scan_checked_seconds.observe_timer(t0);
        }
    }

    /// Like [`ReadTxn::for_each_neighbor`], but delivers destinations in
    /// dense chunks of up to [`NEIGHBOR_CHUNK`] vertices, so callers behind
    /// a dynamic-dispatch boundary pay one indirect call per chunk instead
    /// of one per neighbour.
    pub fn for_each_neighbor_chunk<F: FnMut(&[VertexId])>(
        &self,
        vertex: VertexId,
        label: Label,
        mut f: F,
    ) {
        let mut buf = [0u64; NEIGHBOR_CHUNK];
        let mut len = 0usize;
        self.for_each_neighbor(vertex, label, |d| {
            buf[len] = d;
            len += 1;
            if len == NEIGHBOR_CHUNK {
                f(&buf);
                len = 0;
            }
        });
        if len > 0 {
            f(&buf[..len]);
        }
    }

    /// Scans the adjacency lists of *all* labels of `vertex`, yielding
    /// `(label, edge)` pairs label by label (newest-first within each label).
    pub fn edges_all_labels(&self, vertex: VertexId) -> impl Iterator<Item = (Label, Edge<'_>)> + '_ {
        self.labels(vertex)
            .flat_map(move |label| self.edges(vertex, label).map(move |e| (label, e)))
    }

    /// Number of visible edges of `(vertex, label)`.
    ///
    /// O(1) whenever this snapshot covers the TEL's last commit: the
    /// committed log size minus the committed-invalidation count from the
    /// header summary. Only TELs modified after the snapshot was taken pay
    /// a counting scan.
    pub fn degree(&self, vertex: VertexId, label: Label) -> usize {
        match self.graph.find_tel(vertex, label) {
            Some(ptr) => {
                let tel = self.graph.tel_ref_auto(ptr);
                match tel.sealed_visible_count(self.tre) {
                    Some(n) => n,
                    None => {
                        let log = tel.log_size();
                        tel.scan(log).filter(|e| e.visible(self.tre, 0)).count()
                    }
                }
            }
            None => 0,
        }
    }

    /// The degree of `(vertex, label)` if it is answerable in O(1) from the
    /// TEL header (this snapshot covers the TEL's last commit); `None` when
    /// counting would require a scan. Lets callers gate work on the cheap
    /// degree without ever paying for a counting scan (unlike
    /// [`ReadTxn::degree`], which falls back to one).
    pub fn sealed_degree(&self, vertex: VertexId, label: Label) -> Option<usize> {
        match self.graph.find_tel(vertex, label) {
            Some(ptr) => self.graph.tel_ref_auto(ptr).sealed_visible_count(self.tre),
            None => Some(0),
        }
    }

    /// Total number of visible edges of `vertex` across all labels.
    pub fn total_degree(&self, vertex: VertexId) -> usize {
        self.labels(vertex)
            .map(|label| self.degree(vertex, label))
            .sum()
    }

    /// Reads one edge's properties (Bloom-filter assisted point lookup).
    pub fn get_edge(&self, src: VertexId, label: Label, dst: VertexId) -> Option<&[u8]> {
        let ptr = self.graph.find_tel(src, label)?;
        let tel = self.graph.tel_ref_auto(ptr);
        let log = tel.log_size();
        let (entry, probe) = tel.find_edge_probed(log, dst, self.tre, 0);
        self.graph.scan_counters.record_lookup(probe);
        Some(tel.properties(&entry?))
    }
}

/// Number of destinations delivered per flush by the chunked neighbour
/// visitors ([`ReadTxn::for_each_neighbor_chunk`]).
pub const NEIGHBOR_CHUNK: usize = 64;

/// The per-entry-checked visitor loop shared by the neighbour visitors: the
/// fallback when a TEL is not sealed, and the only mode for writer
/// transactions. (`EdgeIter` keeps its own loop because it additionally
/// materialises property slices.)
#[inline]
fn checked_for_each_dst<F: FnMut(VertexId)>(
    tel: &TelRef<'_>,
    log: u64,
    tre: Timestamp,
    tid: TxnId,
    f: &mut F,
) {
    for entry in tel.scan(log) {
        if entry.visible(tre, tid) {
            f(entry.dst());
        }
    }
}

/// Allocation-free iterator over the labels of one vertex (see
/// [`ReadTxn::labels`]). Labels whose TEL was never created are skipped.
pub struct LabelIter<'t> {
    li: Option<crate::index::LabelIndexRef<'t>>,
    next: usize,
    count: usize,
}

impl<'t> LabelIter<'t> {
    pub(crate) fn new(graph: &'t GraphInner, vertex: VertexId) -> Self {
        let li = if graph.vertex_exists(vertex) {
            let ptr = graph.edge_index.get(vertex);
            if ptr == NULL_BLOCK {
                None
            } else {
                Some(graph.label_index_ref(ptr))
            }
        } else {
            None
        };
        // Snapshot the slot count up front: labels pushed by concurrent
        // writers after this point are not reported, matching the behaviour
        // of the former Vec-returning API.
        let count = li.as_ref().map(|li| li.count()).unwrap_or(0);
        Self { li, next: 0, count }
    }
}

impl Iterator for LabelIter<'_> {
    type Item = Label;

    fn next(&mut self) -> Option<Label> {
        let li = self.li.as_ref()?;
        while self.next < self.count {
            let idx = self.next;
            self.next += 1;
            if li.tel_at(idx) != NULL_BLOCK {
                return Some(li.label_at(idx));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.count - self.next.min(self.count)))
    }
}

/// Iterator over the vertices visible in a snapshot (see
/// [`ReadTxn::vertices`]).
pub struct VertexIter<'t> {
    graph: &'t GraphInner,
    tre: Timestamp,
    next: VertexId,
    limit: VertexId,
}

impl<'t> Iterator for VertexIter<'t> {
    type Item = (VertexId, &'t [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.limit {
            let vertex = self.next;
            self.next += 1;
            if let Some(props) = self.graph.read_vertex_version(vertex, self.tre, 0) {
                return Some((vertex, props));
            }
        }
        None
    }
}

impl Drop for ReadTxn<'_> {
    fn drop(&mut self) {
        self.graph.epochs.finish(self.worker);
    }
}

/// Per-TEL private write state of a [`WriteTxn`].
struct TelWrite {
    /// Block all other transactions currently reach through the index.
    original_ptr: BlockPtr,
    original_order: u8,
    /// Block this transaction appends to (== `original_ptr` unless upgraded).
    tel_ptr: BlockPtr,
    order: u8,
    /// Committed log / property sizes at first touch.
    base_log: u64,
    base_prop: u64,
    /// Sizes including this transaction's private appends.
    cur_log: u64,
    cur_prop: u64,
    /// Number of `-TID` invalidation marks (bounds the apply/abort scans).
    invalidations: u32,
    /// Number of entries appended by this transaction.
    appends: u32,
    /// Count of appends that were true insertions (for statistics).
    inserted: u32,
    upgraded: bool,
    label: Label,
}

/// Private vertex-write state of a [`WriteTxn`].
struct VertexWrite {
    new_ptr: BlockPtr,
    order: u8,
    /// The vertex id was freshly allocated by this transaction (used to
    /// return the id to the free list if the transaction aborts).
    created: bool,
    /// The private version is a deletion tombstone.
    deleted: bool,
}

/// A read-write transaction with snapshot-isolation semantics.
pub struct WriteTxn<'g> {
    graph: &'g GraphInner,
    worker: usize,
    tre: Timestamp,
    tid: TxnId,
    locked: Vec<VertexId>,
    tel_writes: HashMap<(VertexId, Label), TelWrite>,
    vertex_writes: HashMap<VertexId, VertexWrite>,
    /// Logical operations for the WAL frame; left empty while replaying
    /// (see `log_ops`).
    wal_ops: Vec<WalOp>,
    /// Logical writes performed, counted whether or not they are logged
    /// (a transaction with none commits as read-only).
    writes: usize,
    /// False while recovery replays already-logged operations: re-logging
    /// them would duplicate the WAL, so the ops are not even built.
    log_ops: bool,
    closed: bool,
    /// Whether this transaction's commit takes full span timestamps (see
    /// [`crate::telemetry::Telemetry::trace_commit`] — sampled, or every
    /// commit while the slow-op log is armed).
    traced: bool,
    /// Accumulated vertex-lock wait time (zero unless traced).
    lock_wait: std::time::Duration,
}

impl<'g> WriteTxn<'g> {
    pub(crate) fn begin(graph: &'g GraphInner) -> Result<Self> {
        let worker = graph.worker_slot()?;
        let (tre, tid) = graph.epochs.begin(worker);
        Ok(Self::with_snapshot(graph, worker, tre, tid))
    }

    /// Begins a write transaction whose snapshot is pinned at `tre` instead
    /// of the current `GRE` (the sharded engine pins every per-shard
    /// sub-transaction of one cross-shard transaction at one epoch). `tre`
    /// must not exceed the current `GRE`.
    pub(crate) fn begin_pinned(graph: &'g GraphInner, tre: Timestamp) -> Result<Self> {
        let worker = graph.worker_slot()?;
        let (tre, tid) = graph.epochs.begin_at(worker, tre);
        Ok(Self::with_snapshot(graph, worker, tre, tid))
    }

    fn with_snapshot(graph: &'g GraphInner, worker: usize, tre: Timestamp, tid: TxnId) -> Self {
        Self {
            graph,
            worker,
            tre,
            tid,
            locked: Vec::new(),
            tel_writes: HashMap::new(),
            vertex_writes: HashMap::new(),
            wal_ops: Vec::new(),
            writes: 0,
            // ORDERING: Acquire pairs with the Release stores bracketing
            // recovery, so replayed transactions skip logging reliably.
            log_ops: !graph
                .recovery_mode
                .load(std::sync::atomic::Ordering::Acquire),
            closed: false,
            traced: graph.telemetry.trace_commit(worker),
            lock_wait: std::time::Duration::ZERO,
        }
    }

    /// The snapshot epoch this transaction reads.
    pub fn read_epoch(&self) -> Timestamp {
        self.tre
    }

    /// This transaction's id.
    pub fn txn_id(&self) -> TxnId {
        self.tid
    }

    /// Worker slot this transaction occupies — the sharded engine's
    /// cross-shard commit path tallies its commits into this slot's
    /// telemetry cell, mirroring [`WriteTxn::commit`].
    pub(crate) fn worker(&self) -> usize {
        self.worker
    }

    /// Counts one logical write and, unless replaying, buffers its WAL op
    /// (built lazily, so replay copies no payloads).
    fn record(&mut self, op: impl FnOnce() -> WalOp) {
        self.writes += 1;
        if self.log_ops {
            self.wal_ops.push(op());
        }
    }

    fn ensure_open(&self) -> Result<()> {
        if self.closed {
            Err(Error::TransactionClosed)
        } else {
            Ok(())
        }
    }

    fn lock_vertex(&mut self, vertex: VertexId) -> Result<()> {
        if self.locked.contains(&vertex) {
            return Ok(());
        }
        let lock_timer = if self.traced {
            self.graph.telemetry.timer()
        } else {
            None
        };
        let acquired = self
            .graph
            .locks
            .lock_with_timeout(vertex, self.graph.options.lock_timeout);
        if let Some(t0) = lock_timer {
            self.lock_wait += t0.elapsed();
        }
        if !acquired {
            return Err(Error::WriteConflict { vertex });
        }
        self.locked.push(vertex);
        Ok(())
    }

    /// Pre-acquires the write locks of several vertices in ascending id
    /// order, regardless of the order in which they are passed.
    ///
    /// Per-vertex locks are normally taken lazily in operation order, which
    /// relies on the `lock_with_timeout` deadlock-*avoidance* timeout when
    /// two transactions touch the same vertices in opposite orders.
    /// Transactions that know their write set up front can call this instead
    /// and become deadlock-*free*: every transaction acquires locks along
    /// the same global order, so a cycle can never form. The sharded engine
    /// extends the same idea to a global `(shard, vertex)` order for
    /// cross-shard transactions.
    pub fn lock_vertices(&mut self, vertices: &[VertexId]) -> Result<()> {
        self.ensure_open()?;
        let mut sorted: Vec<VertexId> = vertices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for vertex in sorted {
            if !self.graph.vertex_exists(vertex) {
                return Err(Error::VertexNotFound(vertex));
            }
            self.lock_vertex(vertex)?;
        }
        Ok(())
    }

    /// Ordered-locking entry point for the sharded engine (no existence
    /// check: the global id may not have a block in this shard yet).
    pub(crate) fn acquire_lock(&mut self, vertex: VertexId) -> Result<()> {
        self.lock_vertex(vertex)
    }

    // ------------------------------------------------------------------
    // Vertex operations
    // ------------------------------------------------------------------

    /// Creates a new vertex with the given properties and returns its id.
    ///
    /// Ids of vertices deleted *and reclaimed by compaction* are recycled;
    /// otherwise a fresh id is allocated with an atomic fetch-and-add (§4).
    pub fn create_vertex(&mut self, properties: &[u8]) -> Result<VertexId> {
        self.ensure_open()?;
        let vertex = match self.graph.pop_free_vertex_id() {
            Some(recycled) => recycled,
            None => {
                // ORDERING: AcqRel — unique id hand-out; pairs with the
                // Acquire loads in `vertex_exists`/`vertex_count`.
                let fresh = self
                    .graph
                    .next_vertex
                    .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                if fresh as usize >= self.graph.options.max_vertices {
                    return Err(Error::Storage(livegraph_storage::StorageError::OutOfSpace {
                        requested: 1,
                        capacity: self.graph.options.max_vertices,
                    }));
                }
                fresh
            }
        };
        self.lock_vertex(vertex)?;
        self.write_vertex_block(vertex, properties, true, false)?;
        self.record(|| WalOp::CreateVertex {
            vertex,
            properties: properties.to_vec(),
        });
        Ok(vertex)
    }

    /// Creates a vertex with an explicit id, used for bulk loading and for
    /// WAL/checkpoint replay where vertex ids must be preserved exactly.
    ///
    /// The id allocator is advanced past `vertex`; ids skipped this way are
    /// never reused.
    pub fn create_vertex_with_id(&mut self, vertex: VertexId, properties: &[u8]) -> Result<()> {
        self.ensure_open()?;
        if vertex as usize >= self.graph.options.max_vertices {
            return Err(Error::Storage(livegraph_storage::StorageError::OutOfSpace {
                requested: vertex as usize,
                capacity: self.graph.options.max_vertices,
            }));
        }
        // ORDERING: AcqRel — monotonic watermark bump; pairs with the
        // Acquire loads in `vertex_exists`/`vertex_count`.
        self.graph
            .next_vertex
            .fetch_max(vertex + 1, std::sync::atomic::Ordering::AcqRel);
        self.lock_vertex(vertex)?;
        self.write_vertex_block(vertex, properties, true, false)?;
        self.record(|| WalOp::CreateVertex {
            vertex,
            properties: properties.to_vec(),
        });
        Ok(())
    }

    /// Marks a vertex id as allocated without writing a vertex block (used
    /// by recovery when an edge references an id whose vertex record was
    /// never committed).
    pub(crate) fn reserve_vertex_id(&mut self, vertex: VertexId) {
        // ORDERING: AcqRel — same watermark bump as `create_vertex_with_id`.
        self.graph
            .next_vertex
            .fetch_max(vertex + 1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Overwrites the properties of an existing vertex.
    pub fn put_vertex(&mut self, vertex: VertexId, properties: &[u8]) -> Result<()> {
        self.ensure_open()?;
        if !self.graph.vertex_exists(vertex) {
            return Err(Error::VertexNotFound(vertex));
        }
        self.lock_vertex(vertex)?;
        // First-updater-wins: abort if a newer committed version exists.
        let current = self.graph.vertex_index.get(vertex);
        if current != NULL_BLOCK {
            let block = self.graph.vertex_ref(current);
            let ts = block.creation_ts();
            if ts > 0 && ts > self.tre {
                return Err(Error::WriteConflict { vertex });
            }
        }
        self.write_vertex_block(vertex, properties, false, false)?;
        self.record(|| WalOp::PutVertex {
            vertex,
            properties: properties.to_vec(),
        });
        Ok(())
    }

    /// Deletes a vertex: writes a deletion tombstone version and invalidates
    /// every visible out-edge of the vertex (across all labels) in the same
    /// transaction. Returns `true` if a visible, non-deleted version existed.
    ///
    /// Once the tombstone falls behind every active snapshot, compaction
    /// reclaims the vertex's blocks and recycles its id (§6; the paper leaves
    /// this mechanism to future work). In-edges held in *other* vertices'
    /// adjacency lists are not touched: LiveGraph stores out-adjacency only,
    /// so callers that maintain reverse edges must delete them explicitly.
    pub fn delete_vertex(&mut self, vertex: VertexId) -> Result<bool> {
        self.ensure_open()?;
        if !self.graph.vertex_exists(vertex) {
            return Err(Error::VertexNotFound(vertex));
        }
        self.lock_vertex(vertex)?;
        // Determine whether a visible, non-deleted version exists, honouring
        // this transaction's own writes, and apply first-updater-wins.
        let existed = if let Some(w) = self.vertex_writes.get(&vertex) {
            !w.deleted
        } else {
            let current = self.graph.vertex_index.get(vertex);
            if current != NULL_BLOCK {
                let block = self.graph.vertex_ref(current);
                let ts = block.creation_ts();
                if ts > 0 && ts > self.tre {
                    return Err(Error::WriteConflict { vertex });
                }
            }
            self.graph
                .read_vertex_version(vertex, self.tre, self.tid)
                .is_some()
        };
        if !existed {
            return Ok(false);
        }
        // Tombstone version.
        self.write_vertex_block(vertex, &[], false, true)?;
        // Invalidate all visible out-edges, label by label.
        let labels = self.graph.labels_of(vertex);
        let tre = self.tre;
        let tid = self.tid;
        for label in labels {
            let graph = self.graph;
            let tw = self.touch_tel(vertex, label)?;
            let tel = graph.tel_ref(tw.tel_ptr, tw.order);
            let mut invalidated = 0u32;
            for entry in tel.scan(tw.cur_log) {
                if entry.visible(tre, tid) && entry.invalidation_ts() != -tid {
                    entry.set_invalidation_ts(-tid);
                    invalidated += 1;
                }
            }
            tw.invalidations += invalidated;
        }
        self.record(|| WalOp::DeleteVertex { vertex });
        Ok(true)
    }

    fn write_vertex_block(
        &mut self,
        vertex: VertexId,
        properties: &[u8],
        created: bool,
        deleted: bool,
    ) -> Result<()> {
        let prev = self.graph.vertex_index.get(vertex);
        let size = VertexBlockRef::required_size(properties.len());
        let order = livegraph_storage::order_for_size(size);
        let ptr = self.graph.store.allocate_zeroed(order)?;
        // SAFETY: freshly allocated block of exactly this order.
        let block = unsafe {
            VertexBlockRef::from_raw(self.graph.store.block_ptr(ptr), 64usize << order)
        };
        block.init(vertex, -self.tid, prev, order, properties);
        if deleted {
            block.mark_deleted();
        }
        // Replace (and recycle) a previous private version from this txn.
        let was_created = self
            .vertex_writes
            .get(&vertex)
            .map(|w| w.created)
            .unwrap_or(created);
        if let Some(old) = self.vertex_writes.insert(
            vertex,
            VertexWrite {
                new_ptr: ptr,
                order,
                created: was_created,
                deleted,
            },
        ) {
            self.graph.store.free(old.new_ptr, old.order);
        }
        Ok(())
    }

    /// Reads a vertex, seeing this transaction's own writes (including its
    /// own deletions, which read as `None`).
    pub fn get_vertex(&self, vertex: VertexId) -> Option<&[u8]> {
        if let Some(w) = self.vertex_writes.get(&vertex) {
            if w.deleted {
                return None;
            }
            let block = self.graph.vertex_ref(w.new_ptr);
            return Some(block.data());
        }
        self.graph.read_vertex_version(vertex, self.tre, self.tid)
    }

    /// The labels under which `vertex` has adjacency lists.
    pub fn labels(&self, vertex: VertexId) -> Vec<Label> {
        self.graph.labels_of(vertex)
    }

    // ------------------------------------------------------------------
    // Edge operations
    // ------------------------------------------------------------------

    fn touch_tel(&mut self, src: VertexId, label: Label) -> Result<&mut TelWrite> {
        if !self.tel_writes.contains_key(&(src, label)) {
            self.lock_vertex(src)?;
            let original = match self.graph.find_tel(src, label) {
                Some(ptr) => ptr,
                None => self.graph.ensure_tel(src, label)?,
            };
            let tel = self.graph.tel_ref_auto(original);
            // First-updater-wins: the adjacency list must not have been
            // modified by a transaction that committed after our snapshot.
            let ct = tel.commit_ts();
            if ct > 0 && ct > self.tre {
                return Err(Error::WriteConflict { vertex: src });
            }
            let base_log = tel.log_size();
            let base_prop = tel.prop_size();
            self.tel_writes.insert(
                (src, label),
                TelWrite {
                    original_ptr: original,
                    original_order: tel.order(),
                    tel_ptr: original,
                    order: tel.order(),
                    base_log,
                    base_prop,
                    cur_log: base_log,
                    cur_prop: base_prop,
                    invalidations: 0,
                    appends: 0,
                    inserted: 0,
                    upgraded: false,
                    label,
                },
            );
        }
        Ok(self.tel_writes.get_mut(&(src, label)).expect("just inserted"))
    }

    /// Inserts or updates (`upsert`) the edge `(src, label, dst)`.
    ///
    /// Returns `true` if the edge was newly inserted, `false` if an existing
    /// visible version was updated. Insertions are the amortised-O(1) fast
    /// path: the embedded Bloom filter usually proves the edge is new and no
    /// log scan is needed.
    pub fn put_edge(
        &mut self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        properties: &[u8],
    ) -> Result<bool> {
        self.ensure_open()?;
        if !self.graph.vertex_exists(src) {
            return Err(Error::VertexNotFound(src));
        }
        if !self.graph.vertex_exists(dst) {
            return Err(Error::VertexNotFound(dst));
        }
        let tre = self.tre;
        let tid = self.tid;
        let graph = self.graph;
        let tw = self.touch_tel(src, label)?;
        let tel = graph.tel_ref(tw.tel_ptr, tw.order);
        // Upsert: invalidate the previous visible version, if any.
        let mut inserted = true;
        if let Some(prev) = tel.find_edge(tw.cur_log, dst, tre, tid) {
            prev.set_invalidation_ts(-tid);
            tw.invalidations += 1;
            inserted = false;
        }
        // Append the new version, upgrading the block if it is full.
        let appended = tel.append(tw.cur_log, tw.cur_prop, dst, -tid, properties);
        match appended {
            Some((log, prop)) => {
                tw.cur_log = log;
                tw.cur_prop = prop;
            }
            None => {
                Self::upgrade_tel(graph, tw, src, properties.len())?;
                let tel = graph.tel_ref(tw.tel_ptr, tw.order);
                let (log, prop) = tel
                    .append(tw.cur_log, tw.cur_prop, dst, -tid, properties)
                    .expect("upgraded TEL must fit the new entry");
                tw.cur_log = log;
                tw.cur_prop = prop;
            }
        }
        tw.appends += 1;
        if inserted {
            tw.inserted += 1;
        }
        self.record(|| WalOp::PutEdge {
            src,
            label,
            dst,
            properties: properties.to_vec(),
        });
        Ok(inserted)
    }

    /// Deletes the edge `(src, label, dst)`. Returns `true` if a visible
    /// version existed.
    pub fn delete_edge(&mut self, src: VertexId, label: Label, dst: VertexId) -> Result<bool> {
        self.ensure_open()?;
        if !self.graph.vertex_exists(src) {
            return Err(Error::VertexNotFound(src));
        }
        let tre = self.tre;
        let tid = self.tid;
        let graph = self.graph;
        if graph.find_tel(src, label).is_none() && !self.tel_writes.contains_key(&(src, label)) {
            return Ok(false);
        }
        let tw = self.touch_tel(src, label)?;
        let tel = graph.tel_ref(tw.tel_ptr, tw.order);
        let existed = match tel.find_edge(tw.cur_log, dst, tre, tid) {
            Some(entry) => {
                entry.set_invalidation_ts(-tid);
                tw.invalidations += 1;
                true
            }
            None => false,
        };
        if existed {
            self.record(|| WalOp::DeleteEdge { src, label, dst });
        }
        Ok(existed)
    }

    /// Grows a full TEL into a block of (at least) twice the size, copying
    /// the committed log plus this transaction's private appends.
    fn upgrade_tel(graph: &GraphInner, tw: &mut TelWrite, src: VertexId, next_prop_len: usize) -> Result<()> {
        let needed_order = GraphInner::tel_order_for(
            tw.cur_log + EDGE_ENTRY_SIZE as u64,
            tw.cur_prop + next_prop_len as u64,
        )
        .max(tw.order + 1);
        let new_ptr = graph.store.allocate_zeroed(needed_order)?;
        let new_tel = graph.tel_ref(new_ptr, needed_order);
        let old_tel = graph.tel_ref(tw.tel_ptr, tw.order);
        new_tel.init(src, tw.label, needed_order, tw.original_ptr);
        let (log, prop) = old_tel.copy_into(tw.cur_log, &new_tel, |_| true);
        debug_assert_eq!(log, tw.cur_log);
        debug_assert_eq!(prop, tw.cur_prop);
        // The new block's *committed* view matches the original block,
        // including the committed invalidation summary (this transaction's
        // own -TID marks are only summarised at apply time).
        new_tel.set_commit_ts(old_tel.commit_ts());
        new_tel.set_log_size(tw.base_log);
        new_tel.set_prop_size(tw.base_prop);
        new_tel.set_invalidation_summary(old_tel.invalidated_count(), old_tel.max_invalidation_ts());
        if tw.upgraded {
            // The intermediate private block is unreachable by anyone else.
            graph.store.free(tw.tel_ptr, tw.order);
        }
        tw.tel_ptr = new_ptr;
        tw.order = needed_order;
        tw.upgraded = true;
        Ok(())
    }

    /// Scans the adjacency list of `(vertex, label)`, including this
    /// transaction's own uncommitted writes.
    pub fn edges(&self, vertex: VertexId, label: Label) -> EdgeIter<'_> {
        if let Some(tw) = self.tel_writes.get(&(vertex, label)) {
            let tel = self.graph.tel_ref(tw.tel_ptr, tw.order);
            return EdgeIter::new(tel, tw.cur_log, self.tre, self.tid);
        }
        match self.graph.find_tel(vertex, label) {
            Some(ptr) => {
                let tel = self.graph.tel_ref_auto(ptr);
                let log = tel.log_size();
                EdgeIter::new(tel, log, self.tre, self.tid)
            }
            None => EdgeIter::empty(self.tre, self.tid),
        }
    }

    /// Invokes `f` with the destination of every visible edge of
    /// `(vertex, label)`, newest first, including this transaction's own
    /// uncommitted writes.
    ///
    /// Writer transactions always take the per-entry checked scan: their
    /// private `-TID` stamps (hidden self-invalidations, not-yet-committed
    /// appends) make the zero-check sealed streaming unsound for them.
    pub fn for_each_neighbor<F: FnMut(VertexId)>(&self, vertex: VertexId, label: Label, mut f: F) {
        let (tel, log) = if let Some(tw) = self.tel_writes.get(&(vertex, label)) {
            (self.graph.tel_ref(tw.tel_ptr, tw.order), tw.cur_log)
        } else {
            let Some(ptr) = self.graph.find_tel(vertex, label) else {
                return;
            };
            let tel = self.graph.tel_ref_auto(ptr);
            let log = tel.log_size();
            (tel, log)
        };
        self.graph.scan_counters.record_scan(self.worker, false);
        let t0 = self.graph.telemetry.scan_timer(self.worker);
        checked_for_each_dst(&tel, log, self.tre, self.tid, &mut f);
        self.graph.telemetry.scan_checked_seconds.observe_timer(t0);
    }

    /// Number of visible edges of `(vertex, label)` (own writes included).
    pub fn degree(&self, vertex: VertexId, label: Label) -> usize {
        self.edges(vertex, label).count()
    }

    /// Point lookup of one edge, seeing this transaction's own writes.
    pub fn get_edge(&self, src: VertexId, label: Label, dst: VertexId) -> Option<&[u8]> {
        let (tel, log) = if let Some(tw) = self.tel_writes.get(&(src, label)) {
            (self.graph.tel_ref(tw.tel_ptr, tw.order), tw.cur_log)
        } else {
            let ptr = self.graph.find_tel(src, label)?;
            let tel = self.graph.tel_ref_auto(ptr);
            let log = tel.log_size();
            (tel, log)
        };
        let (entry, probe) = tel.find_edge_probed(log, dst, self.tre, self.tid);
        self.graph.scan_counters.record_lookup(probe);
        Some(tel.properties(&entry?))
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commits the transaction, returning its commit epoch.
    pub fn commit(mut self) -> Result<Timestamp> {
        self.ensure_open()?;
        if self.writes == 0 {
            // Read-only "write" transaction: nothing to persist.
            self.release_locks();
            self.closed = true;
            return Ok(self.graph.epochs.gre());
        }
        let tel = &self.graph.telemetry;
        // Span timestamps only on traced commits (sampled — see
        // `Telemetry::trace_commit`); the clock reads below would otherwise
        // dominate an in-memory commit. The commit *count* stays exact.
        let traced = self.traced;
        let commit_timer = if traced { tel.timer() } else { None };
        // Persist phase: epoch, frame staging, fsync wait. The coordinator
        // records the staging/fsync sub-spans itself. A replaying
        // transaction has no ops, so it stages nothing.
        let persist_timer = if traced { tel.timer() } else { None };
        let epoch = self
            .graph
            .commit
            .persist(&self.graph.epochs, &self.wal_ops, traced)?;
        let persist_span = persist_timer.map(|t0| t0.elapsed());
        let apply_timer = if traced { tel.timer() } else { None };
        self.apply(epoch);
        let apply_span = tel.commit_apply_seconds.observe_timer(apply_timer);
        self.graph.commit.finish_apply(&self.graph.epochs, epoch);
        // Wait for the global read epoch to cover this commit so that the
        // caller's *next* transaction is guaranteed to observe it (session
        // consistency). Usually satisfied immediately by our own
        // finish_apply; otherwise sleep on the clock's condvar rather than
        // spinning against the threads we are waiting for.
        let gre_timer = if traced { tel.timer() } else { None };
        self.graph.commit.wait_for_gre(&self.graph.epochs, epoch);
        let gre_span = tel.commit_gre_wait_seconds.observe_timer(gre_timer);
        self.closed = true;
        crate::compaction::after_commit(self.graph, self.worker);
        if tel.enabled() {
            tel.inc_commit(self.worker);
        }
        let total = tel.commit_seconds.observe_timer(commit_timer);
        if total.is_some() {
            tel.commit_lock_seconds.observe(self.lock_wait.as_nanos() as u64);
            let lock_wait = self.lock_wait;
            tel.maybe_slow_op("commit", total, || {
                vec![
                    ("lock", lock_wait),
                    ("persist", persist_span.unwrap_or_default()),
                    ("apply", apply_span.unwrap_or_default()),
                    ("gre_wait", gre_span.unwrap_or_default()),
                ]
            });
        }
        Ok(epoch)
    }

    /// Aborts the transaction, rolling back all private updates.
    pub fn abort(mut self) {
        self.do_abort();
        self.closed = true;
    }

    /// True if this transaction performed any logical write.
    pub(crate) fn has_writes(&self) -> bool {
        self.writes > 0
    }

    /// Drains the buffered logical operations (cross-shard commit path: the
    /// sharded engine persists them itself, replicated to every
    /// participating shard's WAL under one shared epoch).
    pub(crate) fn take_wal_ops(&mut self) -> Vec<WalOp> {
        std::mem::take(&mut self.wal_ops)
    }

    /// Apply phase with an externally assigned write epoch.
    ///
    /// The cross-shard commit path has already (a) drained this
    /// transaction's operations with [`WriteTxn::take_wal_ops`], (b)
    /// registered one apply obligation per participating shard under
    /// `epoch` through the shared clock, and (c) made the group durable.
    /// This performs the regular apply phase (publish CT/LS/PS, convert
    /// `-TID` stamps, release locks); the caller must still call
    /// `finish_apply(epoch)` on the shared clock afterwards, and run
    /// [`compaction::after_commit`](crate::compaction::after_commit) once
    /// GRE covers `epoch`, as [`WriteTxn::commit`] does.
    pub(crate) fn apply_external(&mut self, epoch: Timestamp) {
        debug_assert!(self.wal_ops.is_empty(), "ops must be drained before apply");
        self.apply(epoch);
        self.closed = true;
    }

    fn apply(&mut self, epoch: Timestamp) {
        let graph = self.graph;
        // Vertices: publish the new version through the index.
        for (&vertex, w) in &self.vertex_writes {
            let block = graph.vertex_ref(w.new_ptr);
            block.set_creation_ts(epoch);
            graph.vertex_index.set(vertex, w.new_ptr);
        }
        // Adjacency lists: publish CT / LS / PS and convert private stamps.
        let mut inserted_total = 0u64;
        for (&(vertex, label), tw) in &self.tel_writes {
            let tel = graph.tel_ref(tw.tel_ptr, tw.order);
            if tw.upgraded {
                // Make the upgraded block reachable (readers loading the
                // label index from now on see the new block).
                let li_ptr = graph.edge_index.get(vertex);
                debug_assert_ne!(li_ptr, NULL_BLOCK);
                let li = graph.label_index_ref(li_ptr);
                let updated = li.update(label, tw.tel_ptr);
                debug_assert!(updated);
            }
            // CT first, then LS, then PS, then the invalidation summary —
            // the store order of the seal protocol (model-checked via
            // `seal::publish_commit`; see crates/core/tests/model_seal.rs).
            tel.publish_commit(epoch, tw.cur_log);
            tel.set_prop_size(tw.cur_prop);
            tel.add_invalidations(tw.invalidations, epoch);
            // Convert -TID → TWE, scanning newest-first and stopping once all
            // private stamps of this transaction have been found.
            let mut remaining = tw.appends + tw.invalidations;
            for entry in tel.scan(tw.cur_log) {
                if remaining == 0 {
                    break;
                }
                if entry.creation_ts() == -self.tid {
                    entry.set_creation_ts(epoch);
                    remaining -= 1;
                }
                if entry.invalidation_ts() == -self.tid {
                    entry.set_invalidation_ts(epoch);
                    remaining -= 1;
                }
            }
            inserted_total += tw.inserted as u64;
        }
        // ORDERING: Relaxed — statistics counter, no publication.
        graph
            .edge_insert_count
            .fetch_add(inserted_total, std::sync::atomic::Ordering::Relaxed);
        self.release_locks();
        // Record dirty vertices for the compactor.
        let dirty: Vec<VertexId> = self
            .tel_writes
            .keys()
            .map(|&(v, _)| v)
            .chain(self.vertex_writes.keys().copied())
            .collect();
        graph.compaction.mark_dirty(self.worker, &dirty);
    }

    fn do_abort(&mut self) {
        let graph = self.graph;
        for (_, tw) in self.tel_writes.drain() {
            // Revert -TID invalidation marks in the block other transactions
            // can still reach (the original, committed block).
            if tw.invalidations > 0 {
                let tel = graph.tel_ref(tw.original_ptr, tw.original_order);
                let mut remaining = tw.invalidations;
                for entry in tel.scan(tw.base_log) {
                    if remaining == 0 {
                        break;
                    }
                    if entry.invalidation_ts() == -self.tid {
                        entry.set_invalidation_ts(NULL_TS);
                        remaining -= 1;
                    }
                }
            }
            // Private upgraded blocks were never published: recycle them.
            if tw.upgraded {
                graph.store.free(tw.tel_ptr, tw.order);
            }
            // Entries appended past the committed LS in the original block
            // are simply ignored by readers and overwritten by future
            // writers (§5, abort handling).
        }
        for (vertex, w) in self.vertex_writes.drain() {
            graph.store.free(w.new_ptr, w.order);
            // Ids allocated by this transaction never became visible; recycle
            // them so aborted bulk loads do not burn through the id space.
            if w.created && graph.vertex_index.get(vertex) == NULL_BLOCK {
                graph.push_free_vertex_id(vertex);
            }
        }
        self.wal_ops.clear();
        self.writes = 0;
        self.release_locks();
    }

    fn release_locks(&mut self) {
        for vertex in self.locked.drain(..) {
            self.graph.locks.unlock(vertex);
        }
    }
}

impl Drop for WriteTxn<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.do_abort();
        }
        self.graph.epochs.finish(self.worker);
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{LiveGraph, LiveGraphOptions};
    use crate::types::DEFAULT_LABEL;
    use crate::Error;

    fn graph() -> LiveGraph {
        LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 24)
                .with_max_vertices(1 << 16),
        )
        .unwrap()
    }

    #[test]
    fn create_vertices_and_read_back() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"alice").unwrap();
        let b = txn.create_vertex(b"bob").unwrap();
        assert_eq!(txn.get_vertex(a), Some(&b"alice"[..]));
        txn.commit().unwrap();

        let r = g.begin_read().unwrap();
        assert_eq!(r.get_vertex(a), Some(&b"alice"[..]));
        assert_eq!(r.get_vertex(b), Some(&b"bob"[..]));
        assert_eq!(r.get_vertex(999), None);
    }

    #[test]
    fn uncommitted_writes_are_invisible_to_readers() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.commit().unwrap();

        let mut w = g.begin_write().unwrap();
        w.put_edge(a, DEFAULT_LABEL, b, b"pending").unwrap();
        // Writer sees its own edge, a concurrent reader does not.
        assert_eq!(w.degree(a, DEFAULT_LABEL), 1);
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(a, DEFAULT_LABEL), 0);
        w.commit().unwrap();
        // The old reader still does not see it (snapshot isolation) …
        assert_eq!(r.degree(a, DEFAULT_LABEL), 0);
        // … but a new reader does.
        let r2 = g.begin_read().unwrap();
        assert_eq!(r2.degree(a, DEFAULT_LABEL), 1);
    }

    #[test]
    fn edge_scan_returns_newest_first_with_properties() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let src = txn.create_vertex(b"src").unwrap();
        let mut dsts = Vec::new();
        for i in 0..10u64 {
            let d = txn.create_vertex(format!("v{i}").as_bytes()).unwrap();
            dsts.push(d);
        }
        txn.commit().unwrap();
        for (i, &d) in dsts.iter().enumerate() {
            let mut txn = g.begin_write().unwrap();
            txn.put_edge(src, DEFAULT_LABEL, d, format!("e{i}").as_bytes())
                .unwrap();
            txn.commit().unwrap();
        }
        let r = g.begin_read().unwrap();
        let scanned: Vec<_> = r.edges(src, DEFAULT_LABEL).map(|e| e.dst).collect();
        let mut expected = dsts.clone();
        expected.reverse();
        assert_eq!(scanned, expected, "newest-first scan order");
        assert_eq!(
            r.get_edge(src, DEFAULT_LABEL, dsts[3]),
            Some(&b"e3"[..])
        );
    }

    #[test]
    fn upsert_updates_existing_edge_without_duplicates() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"").unwrap();
        let b = txn.create_vertex(b"").unwrap();
        assert!(txn.put_edge(a, 0, b, b"v1").unwrap(), "first put inserts");
        assert!(!txn.put_edge(a, 0, b, b"v2").unwrap(), "second put updates");
        txn.commit().unwrap();

        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(a, 0), 1);
        assert_eq!(r.get_edge(a, 0, b), Some(&b"v2"[..]));
    }

    #[test]
    fn delete_edge_hides_it_from_new_snapshots_only() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"").unwrap();
        let b = txn.create_vertex(b"").unwrap();
        txn.put_edge(a, 0, b, b"x").unwrap();
        txn.commit().unwrap();

        let before = g.begin_read().unwrap();
        let mut del = g.begin_write().unwrap();
        assert!(del.delete_edge(a, 0, b).unwrap());
        assert_eq!(del.degree(a, 0), 0, "deleter must not see its own deleted edge");
        assert_eq!(del.get_edge(a, 0, b), None);
        del.commit().unwrap();

        assert_eq!(before.degree(a, 0), 1, "old snapshot still sees the edge");
        let after = g.begin_read().unwrap();
        assert_eq!(after.degree(a, 0), 0);
        assert_eq!(after.get_edge(a, 0, b), None);
        // Deleting again reports absence.
        let mut del2 = g.begin_write().unwrap();
        assert!(!del2.delete_edge(a, 0, b).unwrap());
        del2.commit().unwrap();
    }

    #[test]
    fn abort_rolls_back_edges_vertices_and_invalidations() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.put_edge(a, 0, b, b"keep").unwrap();
        setup.commit().unwrap();

        let mut txn = g.begin_write().unwrap();
        txn.put_vertex(a, b"changed").unwrap();
        txn.delete_edge(a, 0, b).unwrap();
        let c = txn.create_vertex(b"c").unwrap();
        txn.put_edge(a, 0, c, b"new").unwrap();
        txn.abort();

        let r = g.begin_read().unwrap();
        assert_eq!(r.get_vertex(a), Some(&b"a"[..]), "vertex update rolled back");
        assert_eq!(r.degree(a, 0), 1, "deleted edge restored, new edge gone");
        assert_eq!(r.get_edge(a, 0, b), Some(&b"keep"[..]));
        assert_eq!(r.get_vertex(c), None, "created vertex has no committed block");
    }

    #[test]
    fn dropping_an_uncommitted_transaction_aborts_it() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.commit().unwrap();
        {
            let mut txn = g.begin_write().unwrap();
            txn.put_edge(a, 0, b, b"x").unwrap();
            // dropped here
        }
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(a, 0), 0);
        // The lock must have been released: a new writer can proceed.
        let mut w = g.begin_write().unwrap();
        w.put_edge(a, 0, b, b"y").unwrap();
        w.commit().unwrap();
    }

    #[test]
    fn tel_upgrade_preserves_committed_and_private_edges() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let hub = txn.create_vertex(b"hub").unwrap();
        let mut spokes = Vec::new();
        for i in 0..200u64 {
            spokes.push(txn.create_vertex(format!("s{i}").as_bytes()).unwrap());
        }
        txn.commit().unwrap();

        // Commit the first half, then add the second half in one big
        // transaction that forces several upgrades.
        let mut first = g.begin_write().unwrap();
        for &s in &spokes[..100] {
            first.put_edge(hub, 0, s, b"first").unwrap();
        }
        first.commit().unwrap();
        let mut second = g.begin_write().unwrap();
        for &s in &spokes[100..] {
            second.put_edge(hub, 0, s, b"second").unwrap();
        }
        assert_eq!(second.degree(hub, 0), 200, "writer sees all edges");
        second.commit().unwrap();

        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(hub, 0), 200);
        assert_eq!(r.get_edge(hub, 0, spokes[0]), Some(&b"first"[..]));
        assert_eq!(r.get_edge(hub, 0, spokes[150]), Some(&b"second"[..]));
    }

    #[test]
    fn write_write_conflict_aborts_second_writer() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        let c = setup.create_vertex(b"c").unwrap();
        setup.commit().unwrap();

        // t1 starts first and will commit an edge on `a`.
        let mut t2 = g.begin_write().unwrap();
        {
            let mut t1 = g.begin_write().unwrap();
            t1.put_edge(a, 0, b, b"t1").unwrap();
            t1.commit().unwrap();
        }
        // t2 read its snapshot before t1 committed, so touching `a` now is a
        // first-updater-wins conflict.
        let err = t2.put_edge(a, 0, c, b"t2").unwrap_err();
        assert!(matches!(err, Error::WriteConflict { vertex } if vertex == a));
    }

    #[test]
    fn vertex_update_is_versioned_for_old_snapshots() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"v1").unwrap();
        setup.commit().unwrap();

        let old = g.begin_read().unwrap();
        let mut w = g.begin_write().unwrap();
        w.put_vertex(a, b"v2").unwrap();
        w.commit().unwrap();

        assert_eq!(old.get_vertex(a), Some(&b"v1"[..]));
        let new = g.begin_read().unwrap();
        assert_eq!(new.get_vertex(a), Some(&b"v2"[..]));
    }

    #[test]
    fn multiple_labels_are_scanned_separately() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"").unwrap();
        let mut others = Vec::new();
        for i in 0..6u64 {
            others.push(txn.create_vertex(format!("{i}").as_bytes()).unwrap());
        }
        // Labels 0..6 exercise the label-index upgrade path (a 64-byte label
        // block holds only 3 labels).
        for (i, &o) in others.iter().enumerate() {
            txn.put_edge(a, i as u16, o, b"").unwrap();
        }
        txn.commit().unwrap();

        let r = g.begin_read().unwrap();
        for (i, &o) in others.iter().enumerate() {
            let found: Vec<_> = r.edges(a, i as u16).map(|e| e.dst).collect();
            assert_eq!(found, vec![o], "label {i} must only contain its edge");
        }
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let g = graph();
        let txn = g.begin_write().unwrap();
        let epoch_before = g.stats().write_epoch;
        txn.commit().unwrap();
        assert_eq!(g.stats().write_epoch, epoch_before, "no epoch consumed");
    }

    #[test]
    fn operations_on_missing_vertices_fail_cleanly() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"").unwrap();
        assert!(matches!(
            txn.put_edge(a, 0, 555, b""),
            Err(Error::VertexNotFound(555))
        ));
        assert!(matches!(
            txn.put_edge(777, 0, a, b""),
            Err(Error::VertexNotFound(777))
        ));
        assert!(matches!(
            txn.put_vertex(888, b""),
            Err(Error::VertexNotFound(888))
        ));
        assert!(!txn.delete_edge(a, 0, a).unwrap());
    }

    #[test]
    fn delete_vertex_hides_vertex_and_out_edges() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        let c = setup.create_vertex(b"c").unwrap();
        setup.put_edge(a, 0, b, b"ab").unwrap();
        setup.put_edge(a, 1, c, b"ac").unwrap();
        setup.commit().unwrap();

        let before = g.begin_read().unwrap();
        let mut del = g.begin_write().unwrap();
        assert!(del.delete_vertex(a).unwrap());
        assert_eq!(del.get_vertex(a), None, "deleter sees its own deletion");
        assert_eq!(del.degree(a, 0), 0);
        del.commit().unwrap();

        // Old snapshot unaffected.
        assert_eq!(before.get_vertex(a), Some(&b"a"[..]));
        assert_eq!(before.degree(a, 0), 1);
        assert_eq!(before.degree(a, 1), 1);
        // New snapshots see neither the vertex nor its out-edges.
        let after = g.begin_read().unwrap();
        assert_eq!(after.get_vertex(a), None);
        assert!(!after.contains_vertex(a));
        assert_eq!(after.degree(a, 0), 0);
        assert_eq!(after.degree(a, 1), 0);
        // Other vertices are untouched.
        assert_eq!(after.get_vertex(b), Some(&b"b"[..]));
        // Deleting again reports absence.
        let mut again = g.begin_write().unwrap();
        assert!(!again.delete_vertex(a).unwrap());
        again.commit().unwrap();
    }

    #[test]
    fn delete_vertex_of_unknown_id_errors() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        assert!(matches!(
            txn.delete_vertex(12345),
            Err(Error::VertexNotFound(12345))
        ));
    }

    #[test]
    fn deleted_vertex_id_is_recycled_after_compaction() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.put_edge(a, 0, b, b"x").unwrap();
        setup.commit().unwrap();

        let mut del = g.begin_write().unwrap();
        del.delete_vertex(a).unwrap();
        del.commit().unwrap();

        // Two passes: the first retires the blocks, the second frees them.
        g.compact();
        g.compact();

        let mut re = g.begin_write().unwrap();
        let reused = re.create_vertex(b"fresh").unwrap();
        re.commit().unwrap();
        assert_eq!(reused, a, "the reclaimed id must be recycled");
        let r = g.begin_read().unwrap();
        assert_eq!(r.get_vertex(reused), Some(&b"fresh"[..]));
        assert_eq!(r.degree(reused, 0), 0, "recycled id starts with no edges");
    }

    #[test]
    fn aborted_create_returns_the_fresh_id_to_the_free_list() {
        let g = graph();
        let id1;
        {
            let mut txn = g.begin_write().unwrap();
            id1 = txn.create_vertex(b"temp").unwrap();
            txn.abort();
        }
        let mut txn = g.begin_write().unwrap();
        let id2 = txn.create_vertex(b"real").unwrap();
        txn.commit().unwrap();
        assert_eq!(id2, id1, "aborted id must be reused");
    }

    #[test]
    fn time_travel_reads_pin_an_older_epoch() {
        let g = LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 24)
                .with_max_vertices(1 << 12)
                .with_history_retention(1_000),
        )
        .unwrap();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.commit().unwrap();

        let mut w1 = g.begin_write().unwrap();
        w1.put_edge(a, 0, b, b"v1").unwrap();
        let epoch1 = w1.commit().unwrap();

        let mut w2 = g.begin_write().unwrap();
        w2.put_edge(a, 0, b, b"v2").unwrap();
        let epoch2 = w2.commit().unwrap();

        let past = g.begin_read_at(epoch1).unwrap();
        assert_eq!(past.read_epoch(), epoch1);
        assert_eq!(past.get_edge(a, 0, b), Some(&b"v1"[..]));
        let present = g.begin_read_at(epoch2).unwrap();
        assert_eq!(present.get_edge(a, 0, b), Some(&b"v2"[..]));
        // Future epochs are rejected.
        assert!(matches!(
            g.begin_read_at(epoch2 + 100),
            Err(Error::EpochUnavailable { .. })
        ));
        assert!(g.begin_read_at(-1).is_err());
    }

    #[test]
    fn history_retention_keeps_old_versions_across_compaction() {
        let g = LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 24)
                .with_max_vertices(1 << 12)
                .with_auto_compaction(false)
                .with_history_retention(1_000_000),
        )
        .unwrap();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        setup.put_edge(a, 0, b, b"old").unwrap();
        let old_epoch = setup.commit().unwrap();

        let mut del = g.begin_write().unwrap();
        del.delete_edge(a, 0, b).unwrap();
        del.commit().unwrap();

        g.compact();
        g.compact();

        // With retention the invalidated entry must survive compaction.
        let past = g.begin_read_at(old_epoch).unwrap();
        assert_eq!(past.get_edge(a, 0, b), Some(&b"old"[..]));
        let now = g.begin_read().unwrap();
        assert_eq!(now.get_edge(a, 0, b), None);
    }

    #[test]
    fn vertices_iterator_skips_deleted_and_uncommitted() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"a").unwrap();
        let b = setup.create_vertex(b"b").unwrap();
        let c = setup.create_vertex(b"c").unwrap();
        setup.commit().unwrap();

        let mut del = g.begin_write().unwrap();
        del.delete_vertex(b).unwrap();
        del.commit().unwrap();

        // An uncommitted vertex from a live transaction must not appear.
        let mut pending = g.begin_write().unwrap();
        let _d = pending.create_vertex(b"d").unwrap();

        let r = g.begin_read().unwrap();
        let seen: Vec<_> = r.vertices().map(|(id, props)| (id, props.to_vec())).collect();
        assert_eq!(
            seen,
            vec![(a, b"a".to_vec()), (c, b"c".to_vec())],
            "only committed, non-deleted vertices in id order"
        );
        drop(pending);
    }

    #[test]
    fn labels_and_all_label_scans() {
        let g = graph();
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(b"a").unwrap();
        let b = txn.create_vertex(b"b").unwrap();
        let c = txn.create_vertex(b"c").unwrap();
        txn.put_edge(a, 3, b, b"x").unwrap();
        txn.put_edge(a, 7, c, b"y").unwrap();
        txn.put_edge(a, 7, b, b"z").unwrap();
        txn.commit().unwrap();

        let r = g.begin_read().unwrap();
        let mut labels: Vec<_> = r.labels(a).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec![3, 7]);
        assert_eq!(r.total_degree(a), 3);
        assert_eq!(r.labels(b).count(), 0);
        assert_eq!(r.labels(9999).count(), 0);

        let mut all: Vec<_> = r
            .edges_all_labels(a)
            .map(|(label, e)| (label, e.dst))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![(3, b), (7, b), (7, c)]);
    }

    #[test]
    fn sealed_fast_path_is_taken_and_falls_back_when_dirty() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let hub = setup.create_vertex(b"hub").unwrap();
        let mut dsts = Vec::new();
        for i in 0..50u64 {
            dsts.push(setup.create_vertex(format!("{i}").as_bytes()).unwrap());
        }
        for &d in &dsts {
            setup.put_edge(hub, 0, d, b"").unwrap();
        }
        setup.commit().unwrap();

        // Clean committed TEL: the zero-check path serves the scan.
        let before = g.stats().scans;
        let r = g.begin_read().unwrap();
        let mut via_fast = Vec::new();
        r.for_each_neighbor(hub, 0, |d| via_fast.push(d));
        let via_checked: Vec<_> = r.edges(hub, 0).map(|e| e.dst).collect();
        assert_eq!(via_fast, via_checked, "fast path must agree with EdgeIter");
        assert_eq!(r.degree(hub, 0), 50);
        let after = g.stats().scans;
        assert_eq!(after.sealed_scans, before.sealed_scans + 1);
        assert_eq!(after.checked_scans, before.checked_scans);
        drop(r);

        // A committed deletion dirties the summary: scans fall back, and the
        // O(1) degree still subtracts the invalidated entry.
        let mut del = g.begin_write().unwrap();
        del.delete_edge(hub, 0, dsts[7]).unwrap();
        del.commit().unwrap();
        let before = g.stats().scans;
        let r = g.begin_read().unwrap();
        let mut via_fallback = Vec::new();
        r.for_each_neighbor(hub, 0, |d| via_fallback.push(d));
        assert_eq!(via_fallback.len(), 49);
        assert!(!via_fallback.contains(&dsts[7]));
        assert_eq!(r.degree(hub, 0), 49);
        let after = g.stats().scans;
        assert_eq!(after.checked_scans, before.checked_scans + 1);
        assert_eq!(after.sealed_scans, before.sealed_scans);

        // A writer reading the same list always takes the checked path and
        // sees its own private writes.
        let mut w = g.begin_write().unwrap();
        let extra = w.create_vertex(b"x").unwrap();
        w.put_edge(hub, 0, extra, b"").unwrap();
        let mut writer_view = Vec::new();
        w.for_each_neighbor(hub, 0, |d| writer_view.push(d));
        assert_eq!(writer_view.len(), 50, "writer sees its uncommitted edge");
        assert_eq!(writer_view[0], extra, "newest first");
        w.abort();
    }

    #[test]
    fn chunked_neighbor_visitor_covers_partial_and_full_chunks() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let hub = setup.create_vertex(b"").unwrap();
        let n = super::NEIGHBOR_CHUNK as u64 * 2 + 17;
        let mut dsts = Vec::new();
        for i in 0..n {
            dsts.push(setup.create_vertex(format!("{i}").as_bytes()).unwrap());
        }
        for &d in &dsts {
            setup.put_edge(hub, 0, d, b"").unwrap();
        }
        setup.commit().unwrap();

        let r = g.begin_read().unwrap();
        let mut chunks = Vec::new();
        let mut collected = Vec::new();
        r.for_each_neighbor_chunk(hub, 0, |chunk| {
            chunks.push(chunk.len());
            collected.extend_from_slice(chunk);
        });
        let flat: Vec<_> = r.edges(hub, 0).map(|e| e.dst).collect();
        assert_eq!(collected, flat);
        assert_eq!(chunks, vec![super::NEIGHBOR_CHUNK, super::NEIGHBOR_CHUNK, 17]);
    }

    #[test]
    fn concurrent_writers_on_disjoint_vertices_all_commit() {
        let g = std::sync::Arc::new(graph());
        let mut setup = g.begin_write().unwrap();
        let mut hubs = Vec::new();
        for _ in 0..8 {
            hubs.push(setup.create_vertex(b"hub").unwrap());
        }
        let target = setup.create_vertex(b"t").unwrap();
        setup.commit().unwrap();

        let mut handles = Vec::new();
        for &hub in &hubs {
            let g = std::sync::Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let mut txn = g.begin_write().unwrap();
                    txn.put_edge(hub, 0, target, &i.to_le_bytes()).unwrap();
                    txn.put_edge(hub, 1, target, &i.to_le_bytes()).unwrap();
                    txn.commit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = g.begin_read().unwrap();
        for &hub in &hubs {
            assert_eq!(r.degree(hub, 0), 1, "upserts keep a single visible edge");
            assert_eq!(r.degree(hub, 1), 1);
        }
    }

    #[test]
    fn concurrent_writers_on_the_same_vertex_serialize_or_conflict() {
        let g = std::sync::Arc::new(graph());
        let mut setup = g.begin_write().unwrap();
        let hub = setup.create_vertex(b"hub").unwrap();
        let n = 64u64;
        let mut targets = Vec::new();
        for i in 0..n {
            targets.push(setup.create_vertex(format!("{i}").as_bytes()).unwrap());
        }
        setup.commit().unwrap();

        let committed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for chunk in targets.chunks(8) {
            let g = std::sync::Arc::clone(&g);
            let committed = std::sync::Arc::clone(&committed);
            let chunk: Vec<u64> = chunk.to_vec();
            handles.push(std::thread::spawn(move || {
                for dst in chunk {
                    // Retry on conflict, as a client of a SI system would.
                    loop {
                        let mut txn = g.begin_write().unwrap();
                        match txn.put_edge(hub, 0, dst, b"") {
                            Ok(_) => match txn.commit() {
                                Ok(_) => {
                                    committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    break;
                                }
                                Err(_) => continue,
                            },
                            Err(Error::WriteConflict { .. }) => {
                                drop(txn);
                                continue;
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(committed.load(std::sync::atomic::Ordering::Relaxed), n);
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(hub, 0) as u64, n, "every insert must be visible");
    }
}
