//! Checkpointing and recovery (§6 of the paper).
//!
//! A checkpoint persists the latest consistent snapshot (taken through a
//! read-only transaction, so concurrent writers are unaffected) and prunes
//! every WAL record already covered by the snapshot. Recovery loads the most
//! recent checkpoint and replays the remaining committed WAL records through
//! the regular write path.
//!
//! The checkpoint file reuses the WAL frame format: it is simply a sequence
//! of [`WalRecord`]s, all tagged with the snapshot epoch, containing one
//! `CreateVertex` per visible vertex and one `PutEdge` per visible edge.
//! This keeps one serialisation format for everything that crosses a crash
//! boundary.
//!
//! Recovery streams both files frame by frame ([`for_each_record`]), with
//! ops borrowed from one reused read buffer, and replays them through
//! write transactions that build no WAL ops of their own.

use std::path::{Path, PathBuf};

use crate::error::{Error, Result};
use crate::graph::GraphInner;
use crate::types::{Timestamp, VertexId};
use crate::wal::{for_each_record, sync_dir, SyncMode, WalOp, WalOpRef, WalRecord, WalWriter};

/// Number of operations bundled per checkpoint record / recovery batch.
const CHECKPOINT_BATCH: usize = 4096;

pub(crate) fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.dat")
}

pub(crate) fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// Writes a checkpoint of the latest committed snapshot and prunes the WAL.
/// Returns the snapshot epoch (which becomes the WAL prune floor).
pub(crate) fn write_checkpoint(graph: &GraphInner) -> Result<Timestamp> {
    let dir = graph
        .options
        .data_dir
        .clone()
        .ok_or_else(|| Error::Corruption("checkpoint requires a data directory".into()))?;

    // Register as a reader so compaction keeps everything we are dumping.
    let worker = graph.worker_slot()?;
    let snapshot_epoch = graph.epochs.begin_read(worker);
    let result = dump_snapshot(graph, &dir, snapshot_epoch);
    graph.epochs.finish(worker);
    result?;

    // Prune WAL records the checkpoint already covers (`dump_snapshot` made
    // the checkpoint durable, directory entry included, before returning).
    // Holding the WAL lock keeps flush leaders out while the file is
    // rewritten, and the writer is re-pointed at the replacement file so
    // later commits are not lost in the unlinked old inode.
    graph.commit.with_wal_locked(|wal| -> Result<()> {
        if let Some(wal) = wal {
            wal.prune_through(snapshot_epoch)?;
            // Publish the floor while the WAL lock pins the file contents,
            // so a tail can never observe a pruned log with a stale floor.
            // ORDERING: AcqRel — pairs with the Acquire in
            // `wal_prune_floor`, publishing the on-disk checkpoint state.
            graph
                .prune_floor
                .fetch_max(snapshot_epoch, std::sync::atomic::Ordering::AcqRel);
        }
        Ok(())
    })?;
    Ok(snapshot_epoch)
}

fn dump_snapshot(graph: &GraphInner, dir: &Path, epoch: Timestamp) -> Result<()> {
    let tmp = dir.join("checkpoint.tmp");
    let _ = std::fs::remove_file(&tmp);
    let mut writer = WalWriter::open(&tmp, SyncMode::Fsync)?;
    let mut batch: Vec<WalOp> = Vec::with_capacity(CHECKPOINT_BATCH);
    let flush = |batch: &mut Vec<WalOp>, writer: &mut WalWriter| -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        writer.append_frames(&[WalRecord {
            epoch,
            ops: std::mem::take(batch),
        }])
    };

    // ORDERING: Acquire — pairs with the AcqRel id-allocation RMWs.
    let vertex_count = graph.next_vertex.load(std::sync::atomic::Ordering::Acquire);
    for vertex in 0..vertex_count {
        if let Some(props) = graph.read_vertex_version(vertex, epoch, 0) {
            batch.push(WalOp::CreateVertex {
                vertex,
                properties: props.to_vec(),
            });
        } else if graph.vertex_deleted_at(vertex, epoch) {
            // Preserve the deletion (and the id allocation) across recovery.
            batch.push(WalOp::DeleteVertex { vertex });
        }
        // Dump each label's visible adjacency list.
        let li_ptr = graph.edge_index.get(vertex);
        if li_ptr != livegraph_storage::NULL_BLOCK {
            let li = graph.label_index_ref(li_ptr);
            for (label, tel_ptr) in li.iter() {
                if tel_ptr == livegraph_storage::NULL_BLOCK {
                    continue;
                }
                let tel = graph.tel_ref_auto(tel_ptr);
                let log = tel.log_size();
                // The scan yields newest-first; recovery re-*appends* in
                // emitted order, so emit oldest-first to reconstruct the
                // TEL with its original recency order.
                let visible: Vec<_> = tel
                    .scan(log)
                    .filter(|entry| entry.visible(epoch, 0))
                    .collect();
                for entry in visible.into_iter().rev() {
                    batch.push(WalOp::PutEdge {
                        src: vertex,
                        label,
                        dst: entry.dst(),
                        properties: tel.properties(&entry).to_vec(),
                    });
                    if batch.len() >= CHECKPOINT_BATCH {
                        flush(&mut batch, &mut writer)?;
                    }
                }
            }
        }
        if batch.len() >= CHECKPOINT_BATCH {
            flush(&mut batch, &mut writer)?;
        }
    }
    // Record the total vertex-id space even if trailing ids carry no data,
    // so recovery restores the id allocator exactly.
    if vertex_count > 0 {
        let last = vertex_count - 1;
        match graph.read_vertex_version(last, epoch, 0) {
            Some(props) => batch.push(WalOp::PutVertex {
                vertex: last,
                properties: props.to_vec(),
            }),
            // A deleted or never-committed trailing id: reserve the id space
            // without resurrecting the vertex.
            None => batch.push(WalOp::DeleteVertex { vertex: last }),
        }
    }
    flush(&mut batch, &mut writer)?;
    // One sync for the whole image, then publish it. The directory sync
    // makes the rename durable: the caller prunes the WAL next, and a
    // power loss must never keep the prune but lose the checkpoint.
    writer.sync()?;
    std::fs::rename(&tmp, checkpoint_path(dir))?;
    sync_dir(dir)
}

/// Recovers graph state from an existing checkpoint and WAL, if present.
/// Called once from [`crate::LiveGraph::open`] before the graph is shared.
pub(crate) fn recover(graph: &GraphInner) -> Result<()> {
    let Some(dir) = graph.options.data_dir.clone() else {
        return Ok(());
    };
    // ORDERING: Release stores bracket replay; pair with the Acquire load
    // in the commit path, which skips WAL logging while replay runs.
    graph
        .recovery_mode
        .store(true, std::sync::atomic::Ordering::Release);
    let result = recover_inner(graph, &dir);
    // ORDERING: Release — replayed state precedes the flag clear.
    graph
        .recovery_mode
        .store(false, std::sync::atomic::Ordering::Release);
    result
}

fn recover_inner(graph: &GraphInner, dir: &Path) -> Result<()> {
    let mut max_epoch: Timestamp = 0;
    let cp = checkpoint_path(dir);
    // Every checkpoint record carries the snapshot epoch.
    let mut checkpoint_epoch: Timestamp = 0;
    if cp.exists() {
        for_each_record(&cp, |epoch, ops| {
            checkpoint_epoch = checkpoint_epoch.max(epoch);
            replay_ops(graph, ops)
        })?;
        max_epoch = max_epoch.max(checkpoint_epoch);
    }
    let wal = wal_path(dir);
    if wal.exists() {
        for_each_record(&wal, |epoch, ops| {
            if epoch > checkpoint_epoch {
                replay_ops(graph, ops)?;
                max_epoch = max_epoch.max(epoch);
            }
            Ok(())
        })?;
    }
    if max_epoch > 0 {
        graph.epochs.reset_to(max_epoch);
    }
    // Epochs at or below the checkpoint are not in the WAL; replication
    // resume requests below this floor need a fresh bootstrap.
    // ORDERING: AcqRel — pairs with the Acquire in `wal_prune_floor`.
    graph
        .prune_floor
        .fetch_max(checkpoint_epoch, std::sync::atomic::Ordering::AcqRel);
    Ok(())
}

/// Replays one WAL/checkpoint record through the normal write path.
/// Recovery mode (set by [`recover`]) suppresses re-logging to the WAL.
fn replay_ops(graph: &GraphInner, ops: &[WalOpRef<'_>]) -> Result<()> {
    for chunk in ops.chunks(CHECKPOINT_BATCH) {
        let mut txn = crate::txn::WriteTxn::begin(graph)?;
        apply_ops_in(graph, &mut txn, chunk.iter().copied())?;
        txn.commit()?;
    }
    Ok(())
}

/// Re-executes logged operations inside an already-open transaction.
/// Shared between recovery replay (which chunks ops across transactions for
/// memory locality) and replication apply (which must keep all of one
/// epoch's operations in a single transaction so the replica consumes
/// exactly one epoch per shipped epoch).
pub(crate) fn apply_ops_in<'a>(
    graph: &GraphInner,
    txn: &mut crate::txn::WriteTxn<'_>,
    ops: impl IntoIterator<Item = WalOpRef<'a>>,
) -> Result<()> {
    for op in ops {
        match op {
            WalOpRef::CreateVertex { vertex, properties } => {
                txn.create_vertex_with_id(vertex, properties)?;
            }
            WalOpRef::PutVertex { vertex, properties } => {
                ensure_vertex(graph, txn, vertex)?;
                txn.put_vertex(vertex, properties)?;
            }
            WalOpRef::PutEdge {
                src,
                label,
                dst,
                properties,
            } => {
                ensure_vertex(graph, txn, src)?;
                ensure_vertex(graph, txn, dst)?;
                txn.put_edge(src, label, dst, properties)?;
            }
            WalOpRef::DeleteEdge { src, label, dst } => {
                if graph.vertex_exists(src) {
                    txn.delete_edge(src, label, dst)?;
                }
            }
            WalOpRef::DeleteVertex { vertex } => {
                ensure_vertex(graph, txn, vertex)?;
                txn.delete_vertex(vertex)?;
            }
        }
    }
    Ok(())
}

/// Makes sure a vertex id referenced during replay is allocated (ids must be
/// preserved exactly across recovery).
fn ensure_vertex(
    graph: &GraphInner,
    txn: &mut crate::txn::WriteTxn<'_>,
    vertex: VertexId,
) -> Result<()> {
    if !graph.vertex_exists(vertex) {
        txn.reserve_vertex_id(vertex);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::graph::{LiveGraph, LiveGraphOptions};
    use crate::wal::SyncMode;

    fn durable_options(dir: &std::path::Path) -> LiveGraphOptions {
        LiveGraphOptions::durable(dir)
            .with_capacity(1 << 24)
            .with_max_vertices(1 << 14)
            .with_sync_mode(SyncMode::NoSync)
    }

    #[test]
    fn wal_replay_restores_graph_after_restart() {
        let dir = tempfile::tempdir().unwrap();
        let (a, b, c);
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            a = txn.create_vertex(b"alice").unwrap();
            b = txn.create_vertex(b"bob").unwrap();
            c = txn.create_vertex(b"carol").unwrap();
            txn.put_edge(a, 0, b, b"ab").unwrap();
            txn.put_edge(a, 0, c, b"ac").unwrap();
            txn.commit().unwrap();
            let mut txn = g.begin_write().unwrap();
            txn.delete_edge(a, 0, b).unwrap();
            txn.put_vertex(c, b"carol2").unwrap();
            txn.commit().unwrap();
        }
        let g = LiveGraph::open(durable_options(dir.path())).unwrap();
        let r = g.begin_read().unwrap();
        assert_eq!(r.get_vertex(a), Some(&b"alice"[..]));
        assert_eq!(r.get_vertex(c), Some(&b"carol2"[..]));
        assert_eq!(r.degree(a, 0), 1);
        assert_eq!(r.get_edge(a, 0, c), Some(&b"ac"[..]));
        assert_eq!(r.get_edge(a, 0, b), None, "deleted edge must stay deleted");
        assert_eq!(g.vertex_count(), 3, "vertex id space restored");
    }

    /// Adjacency lists must come back from a checkpoint in their original
    /// recency order (scans are newest-first; the checkpoint emits
    /// oldest-first precisely because recovery re-appends).
    #[test]
    fn checkpoint_recovery_preserves_neighbor_order() {
        let dir = tempfile::tempdir().unwrap();
        let (a, dsts);
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            a = txn.create_vertex(b"hub").unwrap();
            dsts = (0..8)
                .map(|i| {
                    let d = txn.create_vertex(format!("d{i}").as_bytes()).unwrap();
                    txn.put_edge(a, 0, d, b"").unwrap();
                    d
                })
                .collect::<Vec<_>>();
            txn.commit().unwrap();

            let r = g.begin_read().unwrap();
            let newest_first: Vec<_> = dsts.iter().rev().copied().collect();
            let mut scanned = Vec::new();
            r.for_each_neighbor(a, 0, |d| scanned.push(d));
            assert_eq!(scanned, newest_first);
            drop(r);
            g.checkpoint().unwrap();
        }
        let g = LiveGraph::open(durable_options(dir.path())).unwrap();
        let r = g.begin_read().unwrap();
        let newest_first: Vec<_> = dsts.iter().rev().copied().collect();
        let mut scanned = Vec::new();
        r.for_each_neighbor(a, 0, |d| scanned.push(d));
        assert_eq!(
            scanned, newest_first,
            "recovered scan order must stay newest-first"
        );
    }

    #[test]
    fn checkpoint_prunes_wal_and_recovery_uses_both() {
        let dir = tempfile::tempdir().unwrap();
        let (a, b, c);
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            a = txn.create_vertex(b"a").unwrap();
            b = txn.create_vertex(b"b").unwrap();
            txn.put_edge(a, 0, b, b"pre-checkpoint").unwrap();
            txn.commit().unwrap();

            g.checkpoint().unwrap();
            let wal_len_after_checkpoint =
                std::fs::metadata(dir.path().join("wal.log")).unwrap().len();

            // Post-checkpoint writes land only in the WAL.
            let mut txn = g.begin_write().unwrap();
            c = txn.create_vertex(b"c").unwrap();
            txn.put_edge(a, 0, c, b"post-checkpoint").unwrap();
            txn.commit().unwrap();
            assert!(
                std::fs::metadata(dir.path().join("wal.log")).unwrap().len()
                    > wal_len_after_checkpoint
            );
            assert!(dir.path().join("checkpoint.dat").exists());
        }
        let g = LiveGraph::open(durable_options(dir.path())).unwrap();
        let r = g.begin_read().unwrap();
        assert_eq!(r.get_edge(a, 0, b), Some(&b"pre-checkpoint"[..]));
        assert_eq!(r.get_edge(a, 0, c), Some(&b"post-checkpoint"[..]));
        assert_eq!(r.get_vertex(c), Some(&b"c"[..]));
    }

    #[test]
    fn new_writes_after_recovery_get_higher_epochs() {
        let dir = tempfile::tempdir().unwrap();
        let a;
        let epoch_before;
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            a = txn.create_vertex(b"a").unwrap();
            epoch_before = txn.commit().unwrap();
        }
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            let b = txn.create_vertex(b"b").unwrap();
            txn.put_edge(a, 0, b, b"").unwrap();
            let epoch_after = txn.commit().unwrap();
            assert!(
                epoch_after > epoch_before,
                "epochs must not go backwards across recovery"
            );
            let r = g.begin_read().unwrap();
            assert_eq!(r.degree(a, 0), 1);
        }
    }

    /// Every vertex's payload and label-0 adjacency list (newest first).
    type State = Vec<(Option<Vec<u8>>, Vec<(u64, Vec<u8>)>)>;

    fn state(g: &LiveGraph) -> State {
        let r = g.begin_read().unwrap();
        (0..g.vertex_count())
            .map(|v| {
                let edges = r
                    .edges(v, 0)
                    .map(|e| (e.dst, e.properties.to_vec()))
                    .collect();
                (r.get_vertex(v).map(<[u8]>::to_vec), edges)
            })
            .collect()
    }

    /// Recovery replays through write transactions that build no WAL ops,
    /// so reopening a graph must leave both files byte-for-byte unchanged
    /// and recover the same state every time.
    #[test]
    fn reopen_is_idempotent_on_disk_and_in_state() {
        let dir = tempfile::tempdir().unwrap();
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            let vs: Vec<_> = (0..6)
                .map(|i| txn.create_vertex(format!("v{i}").as_bytes()).unwrap())
                .collect();
            for w in vs.windows(2) {
                txn.put_edge(w[0], 0, w[1], b"pre").unwrap();
            }
            txn.commit().unwrap();
            g.checkpoint().unwrap();
            // The WAL tail: an update, an edge delete, a vertex delete and
            // a new edge, each in its own commit.
            let mut txn = g.begin_write().unwrap();
            txn.put_vertex(vs[0], b"v0-updated").unwrap();
            txn.commit().unwrap();
            let mut txn = g.begin_write().unwrap();
            txn.delete_edge(vs[1], 0, vs[2]).unwrap();
            txn.commit().unwrap();
            let mut txn = g.begin_write().unwrap();
            txn.delete_vertex(vs[4]).unwrap();
            txn.put_edge(vs[5], 0, vs[0], b"post").unwrap();
            txn.commit().unwrap();
        }
        let files = || {
            let read = |name: &str| std::fs::read(dir.path().join(name)).unwrap();
            (read("wal.log"), read("checkpoint.dat"))
        };
        let before = files();
        assert!(!before.0.is_empty() && !before.1.is_empty());
        let mut first: Option<State> = None;
        for round in 0..3 {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let now = state(&g);
            drop(g);
            assert!(
                files() == before,
                "reopen {round} rewrote the log or the image"
            );
            match &first {
                None => first = Some(now),
                Some(f) => assert_eq!(&now, f, "reopen {round} recovered a different state"),
            }
        }
        let first = first.unwrap();
        assert_eq!(first[0].0.as_deref(), Some(&b"v0-updated"[..]));
        assert_eq!(first[4].0, None, "the deleted vertex stays deleted");
        assert!(first[1].1.is_empty(), "the deleted edge stays deleted");
        assert_eq!(first[5].1, vec![(0, b"post".to_vec())]);
    }

    /// A checkpoint record whose checksum is right but whose content does
    /// not decode is corruption, reported by `open`, never a panic and
    /// never a silently shorter graph.
    #[test]
    fn checksummed_checkpoint_record_with_a_bad_op_tag_is_corruption() {
        let dir = tempfile::tempdir().unwrap();
        {
            let g = LiveGraph::open(durable_options(dir.path())).unwrap();
            let mut txn = g.begin_write().unwrap();
            let a = txn.create_vertex(b"a").unwrap();
            let b = txn.create_vertex(b"b").unwrap();
            txn.put_edge(a, 0, b, b"ab").unwrap();
            txn.commit().unwrap();
            g.checkpoint().unwrap();
        }
        let path = dir.path().join("checkpoint.dat");
        let mut bytes = std::fs::read(&path).unwrap();
        // Frame: magic (4) | len (4) | payload | checksum (8); the payload
        // starts with epoch (8) | op count (4) | first op's tag.
        let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        bytes[8 + 12] = 0xEE;
        let sum = crate::wal::checksum(&bytes[8..8 + len]);
        bytes[8 + len..16 + len].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match LiveGraph::open(durable_options(dir.path())) {
            Err(crate::Error::Corruption(msg)) => assert!(msg.contains("op tag"), "{msg}"),
            Err(other) => panic!("expected Corruption, got {other:?}"),
            Ok(g) => panic!(
                "a corrupt checkpoint opened with {} vertices",
                g.vertex_count()
            ),
        }
    }

    #[test]
    fn recovery_of_empty_directory_is_a_noop() {
        let dir = tempfile::tempdir().unwrap();
        let g = LiveGraph::open(durable_options(dir.path())).unwrap();
        assert_eq!(g.vertex_count(), 0);
    }

    #[test]
    fn checkpoint_without_data_dir_fails() {
        let g = LiveGraph::in_memory().unwrap();
        assert!(g.checkpoint().is_err());
    }
}
