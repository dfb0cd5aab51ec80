//! Compaction and garbage collection (§6 of the paper).
//!
//! A TEL is implicitly a multi-version log: invalidated entries are useful
//! for historical snapshots but eventually bloat the block. Each worker
//! therefore keeps a *dirty vertex set* of vertices whose blocks it updated,
//! and compacts them on its own committing thread:
//!
//! * entries invisible to every current and future transaction are dropped
//!   by copying the surviving entries into a fresh (possibly smaller) block;
//! * superseded TEL versions (the `prev` chains left behind by block
//!   upgrades) and superseded vertex versions are reclaimed;
//! * blocks are only returned to the allocator once no active transaction
//!   can still hold a pointer to them — tracked with a *retired list* tagged
//!   with the global read epoch at retirement.
//!
//! **Pacing.** The paper compacts a worker's dirty set every
//! `compaction_interval` commits (65 536 by default) in one pass. Here the
//! interval is what that work is *spread over*: at each boundary the
//! worker's dirty set becomes its *work list* (in the set's hash order,
//! so high-degree vertices — which have low ids in generated graphs — do
//! not all land in one slice), and over the next
//! interval every commit that finds the worker behind schedule
//! (`done / len < commits / interval`) runs one *slice*: it compacts list
//! vertices until [`SLICE_BUDGET`] has elapsed, then frees retired blocks.
//! So each vertex is still compacted at most once per interval, but no
//! commit pays for more than one slice; what a slice does not reach by the
//! next boundary joins the next list. [`LiveGraph::compact`] still drains
//! every dirty set and work list in one pass.
//!
//! Compaction is vertex-wise and takes the ordinary per-vertex lock while
//! it rewrites a block, so it never blocks readers. It never waits for that
//! lock either: a vertex held by an open transaction goes back into the
//! dirty set for a later slice. Unlike an LSM-tree, there is never a
//! multi-file merge.
//!
//! [`LiveGraph::compact`]: crate::LiveGraph::compact

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use livegraph_storage::{BlockPtr, NULL_BLOCK};
use parking_lot::Mutex;

use crate::graph::GraphInner;
use crate::types::{Timestamp, VertexId, NULL_TS};

/// Wall-clock budget of one compaction slice. Long enough that slices run
/// on few commits (at 150 µs they hit over 1 % of a closed loop's
/// operations and showed in its p99), short enough that a paced stream
/// queued behind one slice stays sub-millisecond.
const SLICE_BUDGET: Duration = Duration::from_micros(500);

/// Statistics about compaction activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionStats {
    /// Compaction slices plus explicit [`LiveGraph::compact`] passes run.
    ///
    /// [`LiveGraph::compact`]: crate::LiveGraph::compact
    pub passes: u64,
    /// Vertices whose blocks were rewritten or trimmed.
    pub vertices_compacted: u64,
    /// Blocks returned to the allocator.
    pub blocks_freed: u64,
    /// Dead log entries dropped.
    pub entries_dropped: u64,
    /// Blocks currently awaiting a safe epoch before being freed.
    pub retired_pending: u64,
    /// Compaction debt: vertices in every worker's dirty set plus those
    /// still on a work list (a vertex on both counts twice).
    pub debt: u64,
}

struct RetiredBlock {
    epoch: Timestamp,
    ptr: BlockPtr,
    order: u8,
}

/// One interval's work list: the worker's dirty set as of the last
/// boundary, in the set's hash order, and how far slices have got through
/// it.
#[derive(Default)]
struct WorkList {
    vertices: Vec<VertexId>,
    done: usize,
}

impl WorkList {
    fn remaining(&self) -> usize {
        self.vertices.len() - self.done
    }

    /// True if fewer than `commits / interval` of the list is done.
    fn behind(&self, commits: u64, interval: u64) -> bool {
        (self.done as u128) * u128::from(interval)
            < u128::from(commits) * self.vertices.len() as u128
    }

    fn pop(&mut self) -> Option<VertexId> {
        let vertex = *self.vertices.get(self.done)?;
        self.done += 1;
        Some(vertex)
    }

    /// Empties the list, returning the vertices no slice has reached.
    fn take_remaining(&mut self) -> Vec<VertexId> {
        let mut vertices = std::mem::take(&mut self.vertices);
        vertices.drain(..self.done);
        self.done = 0;
        vertices
    }
}

/// One worker's compaction state. Lock order: `work` before `dirty`.
#[derive(Default)]
struct WorkerCompaction {
    /// Vertices written since the last boundary.
    dirty: Mutex<HashSet<VertexId>>,
    /// The current interval's work list.
    work: Mutex<WorkList>,
    /// Commits since the last boundary.
    commits: AtomicU64,
}

/// Shared compaction bookkeeping.
pub(crate) struct CompactionState {
    workers: Vec<WorkerCompaction>,
    /// Retired blocks in retirement order (see [`free_retired`]).
    retired: Mutex<VecDeque<RetiredBlock>>,
    passes: AtomicU64,
    vertices_compacted: AtomicU64,
    blocks_freed: AtomicU64,
    entries_dropped: AtomicU64,
}

impl CompactionState {
    pub(crate) fn new(max_workers: usize) -> Self {
        Self {
            workers: (0..max_workers).map(|_| WorkerCompaction::default()).collect(),
            retired: Mutex::new(VecDeque::new()),
            passes: AtomicU64::new(0),
            vertices_compacted: AtomicU64::new(0),
            blocks_freed: AtomicU64::new(0),
            entries_dropped: AtomicU64::new(0),
        }
    }

    /// Records vertices touched by a committed transaction of `worker`.
    pub(crate) fn mark_dirty(&self, worker: usize, vertices: &[VertexId]) {
        if vertices.is_empty() {
            return;
        }
        let mut set = self.workers[worker].dirty.lock();
        set.extend(vertices.iter().copied());
    }

    /// Queues a block for freeing once every transaction active at `epoch`
    /// has finished.
    pub(crate) fn retire(&self, epoch: Timestamp, ptr: BlockPtr, order: u8) {
        self.retired.lock().push_back(RetiredBlock { epoch, ptr, order });
    }

    /// Snapshot of compaction statistics.
    pub(crate) fn stats(&self) -> CompactionStats {
        let debt = self
            .workers
            .iter()
            .map(|w| {
                let pending = w.work.lock().remaining();
                (pending + w.dirty.lock().len()) as u64
            })
            .sum();
        CompactionStats {
            // ORDERING: Relaxed — stats snapshot tolerates torn totals.
            passes: self.passes.load(Ordering::Relaxed),
            vertices_compacted: self.vertices_compacted.load(Ordering::Relaxed),
            blocks_freed: self.blocks_freed.load(Ordering::Relaxed),
            entries_dropped: self.entries_dropped.load(Ordering::Relaxed),
            retired_pending: self.retired.lock().len() as u64,
            debt,
        }
    }

    /// `(done, len)` of the work lists, summed over workers.
    #[cfg(test)]
    fn work_progress(&self) -> (usize, usize) {
        self.workers.iter().fold((0, 0), |(done, len), w| {
            let work = w.work.lock();
            (done + work.done, len + work.vertices.len())
        })
    }
}

/// Automatic compaction, run by `worker`'s committing thread after each of
/// its commits once GRE covers the commit: counts the commit, turns the
/// dirty set into the work list at an interval boundary, and runs one slice
/// if the worker is behind. A no-op unless `auto_compaction` is on.
pub(crate) fn after_commit(graph: &GraphInner, worker: usize) {
    if !graph.options.auto_compaction {
        return;
    }
    let interval = graph.options.compaction_interval.max(1);
    let state = &graph.compaction.workers[worker];
    // ORDERING: Relaxed — per-worker pacing counter, touched only by the
    // owning worker thread; no data is published through it.
    let mut commits = state.commits.load(Ordering::Relaxed) + 1;
    if commits > interval {
        start_interval(state);
        commits = 1;
    }
    // ORDERING: Relaxed — as above.
    state.commits.store(commits, Ordering::Relaxed);
    if state.work.lock().behind(commits, interval) {
        run_slice(graph, worker);
    }
}

/// Interval boundary: the dirty set, plus whatever the last list still
/// holds, becomes the new work list. The set deduplicates, and draining it
/// yields ids in its (randomly seeded) hash order, which scatters the
/// low-id hubs of generated graphs over the slices. Draining (rather than
/// replacing) the set keeps its table, so the next interval does not rehash
/// it up from empty on the commit path.
fn start_interval(state: &WorkerCompaction) {
    let mut work = state.work.lock();
    let mut dirty = state.dirty.lock();
    dirty.extend(work.take_remaining());
    let vertices = dirty.drain().collect();
    *work = WorkList { vertices, done: 0 };
}

/// One slice of `worker`'s work list: vertices in list order until
/// [`SLICE_BUDGET`] has elapsed (at least one), then the retired list.
fn run_slice(graph: &GraphInner, worker: usize) {
    let timer = graph.telemetry.timer();
    let started = Instant::now();
    let safe = safe_epoch(graph);
    let state = &graph.compaction.workers[worker];
    loop {
        let Some(vertex) = state.work.lock().pop() else {
            break;
        };
        compact_or_requeue(graph, worker, vertex, safe);
        if started.elapsed() >= SLICE_BUDGET {
            break;
        }
    }
    finish_pass(graph, timer);
}

/// Compacts every dirty vertex and every work list of all workers in one
/// pass (manual trigger).
pub(crate) fn compact_all(graph: &GraphInner) {
    let timer = graph.telemetry.timer();
    let mut vertices: Vec<VertexId> = Vec::new();
    for state in &graph.compaction.workers {
        vertices.extend(state.dirty.lock().drain());
        vertices.extend(state.work.lock().take_remaining());
    }
    vertices.sort_unstable();
    vertices.dedup();
    let safe = safe_epoch(graph);
    for vertex in vertices {
        compact_or_requeue(graph, 0, vertex, safe);
    }
    finish_pass(graph, timer);
}

/// The oldest epoch whose versions must be kept: versions visible at or
/// after it stay. The history retention window lowers the bar further so
/// time-travel reads within the window keep working even with no
/// transaction pinning them.
fn safe_epoch(graph: &GraphInner) -> Timestamp {
    let retention_floor = graph
        .epochs
        .gre()
        .saturating_sub(graph.options.history_retention.max(0));
    graph.epochs.min_active_epoch().min(retention_floor)
}

/// Compacts `vertex`, or puts it back into `worker`'s dirty set if a
/// transaction holds its lock.
fn compact_or_requeue(graph: &GraphInner, worker: usize, vertex: VertexId, safe: Timestamp) {
    if !compact_vertex(graph, vertex, safe) {
        graph.compaction.workers[worker].dirty.lock().insert(vertex);
    }
}

fn finish_pass(graph: &GraphInner, timer: Option<Instant>) {
    free_retired(graph);
    // ORDERING: Relaxed — statistics counter, no publication.
    graph.compaction.passes.fetch_add(1, Ordering::Relaxed);
    graph.telemetry.compaction_pass_seconds.observe_timer(timer);
}

/// Compacts one vertex's blocks. Returns false, without waiting, if
/// another thread holds the vertex lock.
fn compact_vertex(graph: &GraphInner, vertex: VertexId, safe: Timestamp) -> bool {
    let state = &graph.compaction;
    if !graph.locks.try_lock(vertex) {
        return false;
    }
    let mut touched = false;

    // ---- Deleted vertices -------------------------------------------------
    // If the newest version is a tombstone that every current and future
    // transaction can see, the whole vertex (version chain, label index and
    // TELs) is reclaimed and its id recycled.
    let head = graph.vertex_index.get(vertex);
    if head != NULL_BLOCK {
        let block = graph.vertex_ref(head);
        let ts = block.creation_ts();
        if block.is_deleted() && ts > 0 && ts <= safe {
            reclaim_deleted_vertex(graph, vertex);
            graph.locks.unlock(vertex);
            // ORDERING: Relaxed — statistics counter, no publication.
            state.vertices_compacted.fetch_add(1, Ordering::Relaxed);
            return true;
        }
    }

    // ---- Adjacency lists -------------------------------------------------
    let li_ptr = graph.edge_index.get(vertex);
    if li_ptr != NULL_BLOCK {
        let li = graph.label_index_ref(li_ptr);
        let labels: Vec<(u16, BlockPtr)> = li.iter().collect();
        for (label, tel_ptr) in labels {
            if tel_ptr == NULL_BLOCK {
                continue;
            }
            let tel = graph.tel_ref_auto(tel_ptr);
            // Retire superseded versions left behind by block upgrades.
            let mut prev = tel.prev_ptr();
            if prev != NULL_BLOCK {
                tel.set_prev_ptr(NULL_BLOCK);
                while prev != NULL_BLOCK {
                    let old = graph.tel_ref_auto(prev);
                    let next = old.prev_ptr();
                    state.retire(graph.epochs.gre(), prev, old.order());
                    prev = next;
                }
                touched = true;
            }
            // Drop entries no current or future transaction can see. A TEL
            // without committed invalidations has none.
            if tel.invalidated_count() == 0 {
                continue;
            }
            let is_dead = |inv: Timestamp| inv != NULL_TS && inv > 0 && inv <= safe;
            let log = tel.log_size();
            // One scan sizes the rewrite and the invalidation summary of the
            // survivors: only invalidations still needed by history or
            // time-travel readers (inv > safe) are kept, so a fully
            // compacted TEL re-seals and regains the zero-check scan path.
            let mut dead = 0usize;
            let mut live_prop = 0u64;
            let mut kept_inv = 0u32;
            let mut kept_max = 0i64;
            for e in tel.scan(log) {
                let inv = e.invalidation_ts();
                if is_dead(inv) {
                    dead += 1;
                    continue;
                }
                live_prop += u64::from(e.prop_len());
                if inv != NULL_TS && inv > 0 {
                    kept_inv += 1;
                    kept_max = kept_max.max(inv);
                }
            }
            if dead == 0 {
                continue;
            }
            let live_log = log - (dead * crate::tel::EDGE_ENTRY_SIZE) as u64;
            let order = GraphInner::tel_order_for(live_log.max(64), live_prop);
            let new_ptr = match graph.store.allocate_zeroed(order) {
                Ok(p) => p,
                Err(_) => break, // out of space: skip compaction, not fatal
            };
            let new_tel = graph.tel_ref(new_ptr, order);
            new_tel.init(vertex, label, order, NULL_BLOCK);
            let (new_log, new_prop) = tel.copy_into(log, &new_tel, |e| !is_dead(e.invalidation_ts()));
            debug_assert_eq!((new_log, new_prop), (live_log, live_prop));
            new_tel.set_commit_ts(tel.commit_ts());
            new_tel.set_log_size(new_log);
            new_tel.set_prop_size(new_prop);
            new_tel.set_invalidation_summary(kept_inv, kept_max);
            let updated = li.update(label, new_ptr);
            debug_assert!(updated);
            state.retire(graph.epochs.gre(), tel_ptr, tel.order());
            // ORDERING: Relaxed — statistics counter, no publication.
            state
                .entries_dropped
                .fetch_add(dead as u64, Ordering::Relaxed);
            touched = true;
        }
    }

    // ---- Vertex version chain --------------------------------------------
    let head = graph.vertex_index.get(vertex);
    if head != NULL_BLOCK {
        // Find the newest version visible to every active/future transaction;
        // everything older can be reclaimed.
        let mut cut = head;
        loop {
            let block = graph.vertex_ref(cut);
            let ts = block.creation_ts();
            if ts > 0 && ts <= safe {
                let mut prev = block.prev_ptr();
                if prev != NULL_BLOCK {
                    block.set_prev_ptr(NULL_BLOCK);
                    while prev != NULL_BLOCK {
                        let old = graph.vertex_ref(prev);
                        let next = old.prev_ptr();
                        state.retire(graph.epochs.gre(), prev, old.order());
                        prev = next;
                    }
                    touched = true;
                }
                break;
            }
            let prev = block.prev_ptr();
            if prev == NULL_BLOCK {
                break;
            }
            cut = prev;
        }
    }

    graph.locks.unlock(vertex);
    if touched {
        // ORDERING: Relaxed — statistics counter, no publication.
        state.vertices_compacted.fetch_add(1, Ordering::Relaxed);
    }
    true
}

/// Reclaims every block belonging to a deleted vertex whose tombstone is
/// older than the safe epoch: the version chain, the label index block and
/// all TELs (including superseded versions). The vertex id is returned to
/// the free list so a later `create_vertex` can recycle it.
fn reclaim_deleted_vertex(graph: &GraphInner, vertex: VertexId) {
    let state = &graph.compaction;
    let retire_epoch = graph.epochs.gre();

    // Version chain.
    let mut ptr = graph.vertex_index.swap(vertex, NULL_BLOCK);
    while ptr != NULL_BLOCK {
        let block = graph.vertex_ref(ptr);
        debug_assert_eq!(block.vertex_id(), vertex, "version chain crossed vertices");
        let next = block.prev_ptr();
        state.retire(retire_epoch, ptr, block.order());
        ptr = next;
    }

    // Label index block and TELs (with their superseded versions).
    let li_ptr = graph.edge_index.swap(vertex, NULL_BLOCK);
    if li_ptr != NULL_BLOCK {
        let li = graph.label_index_ref(li_ptr);
        for (_, tel_ptr) in li.iter() {
            let mut tel_ptr = tel_ptr;
            while tel_ptr != NULL_BLOCK {
                let tel = graph.tel_ref_auto(tel_ptr);
                let next = tel.prev_ptr();
                state.retire(retire_epoch, tel_ptr, tel.order());
                tel_ptr = next;
            }
        }
        state.retire(retire_epoch, li_ptr, li.order());
    }

    graph.push_free_vertex_id(vertex);
}

/// Frees retired blocks whose retirement epoch is older than every active
/// transaction. Retired blocks are already unreachable through the indexes,
/// so only transactions that were live at retirement time can still hold
/// pointers into them.
///
/// Costs O(freed), not O(retired): the list is in retirement order, and
/// retirement epochs come from `gre()`, which never decreases — two racing
/// retirements may push slightly out of order, so stopping at the first
/// block that cannot be freed yet is conservative, never unsafe.
fn free_retired(graph: &GraphInner) {
    let min = graph.epochs.min_active_reader_epoch();
    let state = &graph.compaction;
    let mut freed = 0u64;
    let mut retired = state.retired.lock();
    while retired.front().is_some_and(|block| block.epoch < min) {
        let block = retired.pop_front().expect("front exists");
        graph.store.free(block.ptr, block.order);
        freed += 1;
    }
    drop(retired);
    // ORDERING: Relaxed — statistics counter, no publication.
    state.blocks_freed.fetch_add(freed, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use crate::graph::{LiveGraph, LiveGraphOptions};
    use crate::types::VertexId;

    fn graph() -> LiveGraph {
        LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 24)
                .with_max_vertices(1 << 14)
                .with_auto_compaction(false),
        )
        .unwrap()
    }

    #[test]
    fn compaction_reclaims_upgraded_blocks() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let hub = setup.create_vertex(b"").unwrap();
        let mut others = Vec::new();
        for i in 0..300u64 {
            others.push(setup.create_vertex(format!("{i}").as_bytes()).unwrap());
        }
        setup.commit().unwrap();
        for &o in &others {
            let mut txn = g.begin_write().unwrap();
            txn.put_edge(hub, 0, o, b"p").unwrap();
            txn.commit().unwrap();
        }
        let live_before = g.stats().blocks.live_bytes();
        g.compact();
        // Second pass frees blocks retired in the first (no active readers).
        g.compact();
        let stats = g.stats();
        assert!(stats.compaction.blocks_freed > 0, "upgrade chains must be freed");
        assert!(stats.blocks.live_bytes() <= live_before);
        // Data is intact after compaction.
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(hub, 0), 300);
    }

    #[test]
    fn compaction_drops_dead_entries_and_preserves_live_ones() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let hub = setup.create_vertex(b"").unwrap();
        let mut others = Vec::new();
        for i in 0..50u64 {
            others.push(setup.create_vertex(format!("{i}").as_bytes()).unwrap());
        }
        for &o in &others {
            setup.put_edge(hub, 0, o, b"x").unwrap();
        }
        setup.commit().unwrap();
        // Delete every other edge.
        let mut del = g.begin_write().unwrap();
        for &o in others.iter().step_by(2) {
            del.delete_edge(hub, 0, o).unwrap();
        }
        del.commit().unwrap();

        g.compact();
        g.compact();
        let stats = g.stats();
        assert!(stats.compaction.entries_dropped >= 25, "dead versions must be dropped");
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(hub, 0), 25);
        for (i, &o) in others.iter().enumerate() {
            let present = r.get_edge(hub, 0, o).is_some();
            assert_eq!(present, i % 2 == 1, "edge {i} visibility after compaction");
        }
    }

    #[test]
    fn compaction_respects_active_readers() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"").unwrap();
        let b = setup.create_vertex(b"").unwrap();
        setup.put_edge(a, 0, b, b"v1").unwrap();
        setup.commit().unwrap();

        let old_reader = g.begin_read().unwrap();
        let mut del = g.begin_write().unwrap();
        del.delete_edge(a, 0, b).unwrap();
        del.commit().unwrap();

        // The old reader still needs the invalidated version: compaction may
        // run but must not remove what the reader can see.
        g.compact();
        assert_eq!(old_reader.degree(a, 0), 1, "old snapshot must survive compaction");
        drop(old_reader);
        g.compact();
        g.compact();
        let r = g.begin_read().unwrap();
        assert_eq!(r.degree(a, 0), 0);
    }

    #[test]
    fn vertex_version_chains_are_trimmed() {
        let g = graph();
        let mut setup = g.begin_write().unwrap();
        let v = setup.create_vertex(b"v0").unwrap();
        setup.commit().unwrap();
        for i in 1..20u32 {
            let mut txn = g.begin_write().unwrap();
            txn.put_vertex(v, format!("v{i}").as_bytes()).unwrap();
            txn.commit().unwrap();
        }
        g.compact();
        g.compact();
        let stats = g.stats();
        assert!(stats.compaction.blocks_freed > 0);
        let r = g.begin_read().unwrap();
        assert_eq!(r.get_vertex(v), Some(&b"v19"[..]));
    }

    #[test]
    fn auto_compaction_triggers_on_interval() {
        let g = LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 22)
                .with_max_vertices(1 << 12)
                .with_auto_compaction(true)
                .with_compaction_interval(5),
        )
        .unwrap();
        let mut setup = g.begin_write().unwrap();
        let a = setup.create_vertex(b"").unwrap();
        let b = setup.create_vertex(b"").unwrap();
        setup.commit().unwrap();
        for i in 0..30u32 {
            let mut txn = g.begin_write().unwrap();
            txn.put_vertex(a, format!("{i}").as_bytes()).unwrap();
            txn.put_edge(a, 0, b, format!("{i}").as_bytes()).unwrap();
            txn.commit().unwrap();
        }
        assert!(g.stats().compaction.passes > 0, "interval must trigger passes");
    }

    fn auto_graph(interval: u64) -> LiveGraph {
        LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 26)
                .with_max_vertices(1 << 14)
                .with_auto_compaction(true)
                .with_compaction_interval(interval),
        )
        .unwrap()
    }

    /// Creates `n` vertices with four out-edges each to a shared sink.
    /// Returns the vertex ids and the sink.
    fn vertices_with_edges(g: &LiveGraph, n: u64) -> (Vec<VertexId>, VertexId) {
        let mut txn = g.begin_write().unwrap();
        let sink = txn.create_vertex(b"sink").unwrap();
        let mut vertices = Vec::new();
        for i in 0..n {
            let v = txn.create_vertex(format!("v{i}").as_bytes()).unwrap();
            for label in 0..4u16 {
                txn.put_edge(v, label, sink, b"e").unwrap();
            }
            vertices.push(v);
        }
        txn.commit().unwrap();
        (vertices, sink)
    }

    /// Deletes two of each vertex's four edges in one transaction.
    fn delete_half_the_edges(g: &LiveGraph, vertices: &[VertexId], sink: VertexId) {
        let mut txn = g.begin_write().unwrap();
        for &v in vertices {
            txn.delete_edge(v, 0, sink).unwrap();
            txn.delete_edge(v, 1, sink).unwrap();
        }
        txn.commit().unwrap();
    }

    fn commit_filler(g: &LiveGraph, filler: VertexId, i: usize) {
        let mut txn = g.begin_write().unwrap();
        txn.put_vertex(filler, format!("f{i}").as_bytes()).unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn slices_are_bounded_and_finish_within_one_interval() {
        const INTERVAL: u64 = 1024;
        let g = auto_graph(INTERVAL);
        let (vertices, sink) = vertices_with_edges(&g, 5_000);
        delete_half_the_edges(&g, &vertices, sink);
        let state = &g.inner().compaction;
        // Commit until the boundary turns the dirty set into a work list.
        let mut i = 0;
        while state.work_progress().1 == 0 {
            commit_filler(&g, sink, i);
            i += 1;
            assert!(i as u64 <= INTERVAL, "no boundary within one interval");
        }
        let total = state.work_progress().1;
        assert!(total > 5_000, "the list holds every dirty vertex, got {total}");
        // The boundary commit already ran one slice; the rest of the
        // interval works off the list without any commit doing all of it.
        let mut max_delta = g.stats().compaction.vertices_compacted;
        for _ in 1..INTERVAL {
            let before = g.stats().compaction.vertices_compacted;
            commit_filler(&g, sink, i);
            i += 1;
            max_delta = max_delta.max(g.stats().compaction.vertices_compacted - before);
        }
        assert!(
            max_delta < total as u64,
            "one commit compacted the whole list ({max_delta} of {total})"
        );
        let (done, len) = state.work_progress();
        assert_eq!(done, len, "the list must be worked off within one interval");
        let stats = g.stats().compaction;
        assert!(stats.entries_dropped >= 10_000, "dead entries dropped: {}", stats.entries_dropped);
        assert!(stats.passes > 1, "the list was worked off in several slices");
        let r = g.begin_read().unwrap();
        for &v in &vertices {
            let degrees: Vec<usize> = (0..4).map(|label| r.degree(v, label)).collect();
            assert_eq!(degrees, [0, 0, 1, 1], "vertex {v}");
        }
    }

    #[test]
    fn reader_opened_before_the_boundary_keeps_its_snapshot() {
        const INTERVAL: u64 = 64;
        let g = auto_graph(INTERVAL);
        let (vertices, sink) = vertices_with_edges(&g, 300);
        let pinned = g.begin_read().unwrap();
        let view = |r: &crate::txn::ReadTxn<'_>| -> Vec<(Option<Vec<u8>>, Vec<usize>)> {
            vertices
                .iter()
                .map(|&v| {
                    let payload = r.get_vertex(v).map(<[u8]>::to_vec);
                    (payload, (0..4).map(|label| r.degree(v, label)).collect())
                })
                .collect()
        };
        let before = view(&pinned);
        delete_half_the_edges(&g, &vertices, sink);
        let mut txn = g.begin_write().unwrap();
        for &v in &vertices {
            txn.put_vertex(v, b"updated").unwrap();
        }
        txn.commit().unwrap();
        // Two intervals: a boundary picks the writes up and slices work the
        // list off while the reader stays pinned.
        for i in 0..2 * INTERVAL as usize {
            commit_filler(&g, sink, i);
        }
        // Only the filler vertex may still be queued.
        let debt = g.stats().compaction.debt;
        assert!(debt <= 2, "the writes were not worked off: debt {debt}");
        assert_eq!(view(&pinned), before, "pinned snapshot changed under slices");
        drop(pinned);
        let fresh = g.begin_read().unwrap();
        for (payload, degrees) in view(&fresh) {
            assert_eq!(payload.as_deref(), Some(&b"updated"[..]));
            assert_eq!(degrees, [0, 0, 1, 1]);
        }
    }

    #[test]
    fn compaction_skips_vertices_an_open_transaction_holds() {
        let g = graph();
        let (vertices, sink) = vertices_with_edges(&g, 100);
        delete_half_the_edges(&g, &vertices, sink);
        let (locked_tx, locked_rx) = mpsc::channel();
        let (commit_tx, commit_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let vertices = &vertices;
            let g = &g;
            scope.spawn(move || {
                let mut txn = g.begin_write().unwrap();
                for &v in vertices {
                    txn.put_vertex(v, b"held").unwrap();
                }
                locked_tx.send(()).unwrap();
                commit_rx.recv().unwrap();
                txn.commit().unwrap();
            });
            locked_rx.recv().unwrap();
            let started = Instant::now();
            g.compact();
            let took = started.elapsed();
            assert!(took < Duration::from_millis(100), "compact() waited on held locks: {took:?}");
            assert_eq!(g.stats().compaction.entries_dropped, 0, "held vertices must be skipped");
            assert!(g.stats().compaction.debt >= 100, "held vertices stay queued");
            commit_tx.send(()).unwrap();
        });
        g.compact();
        assert!(g.stats().compaction.entries_dropped >= 200);
        let r = g.begin_read().unwrap();
        for &v in &vertices {
            assert_eq!(r.get_vertex(v), Some(&b"held"[..]));
            assert_eq!(r.degree(v, 0) + r.degree(v, 2), 1);
        }
    }

    #[test]
    fn debt_gauge_rises_with_commits_and_clears_on_compact() {
        let g = graph();
        let debt = |g: &LiveGraph| g.metrics().gauge("livegraph_compaction_debt_entries").unwrap();
        assert_eq!(debt(&g), 0);
        let (vertices, sink) = vertices_with_edges(&g, 10);
        let after_setup = debt(&g);
        assert!(after_setup >= 10, "setup dirtied 10 vertices, debt {after_setup}");
        delete_half_the_edges(&g, &vertices[..5], sink);
        let mut txn = g.begin_write().unwrap();
        let fresh = txn.create_vertex(b"new").unwrap();
        txn.commit().unwrap();
        assert!(debt(&g) > after_setup, "a new dirty vertex ({fresh}) adds debt");
        g.compact();
        assert_eq!(debt(&g), 0);
        assert_eq!(g.stats().compaction.debt, 0);
    }
}
