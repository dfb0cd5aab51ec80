//! Engine-level primitives for WAL-shipping replication.
//!
//! The service layer (`livegraph-server`) streams committed WAL records from
//! a primary to read replicas. This module supplies the engine halves of
//! that pipeline, and nothing network-specific:
//!
//! * **Primary side** — [`WalTail`], an incremental cursor over the
//!   primary's on-disk WAL that only ever hands out *complete epochs* of
//!   *durable, applied* records. The tail rides the group-commit flush
//!   signal, survives checkpoint pruning (the WAL file is atomically
//!   rewritten) via the writer's generation counter, and reports
//!   [`TailChunk::FellBehind`] when the records a subscriber still needs
//!   have been pruned — the signal to re-bootstrap instead of resuming.
//! * **Replica side** — [`LiveGraph::apply_replicated`], which replays
//!   shipped records through the normal write path, one transaction per
//!   epoch, so the replica consumes *exactly* the primary's epoch sequence
//!   and `begin_read_at(e)` observes bit-identical snapshots on both sides.
//!   Applied epochs are re-logged to the replica's own WAL, which is what
//!   makes replica restart (resume from the last locally durable epoch) and
//!   promotion (serve as a durable primary) work with no extra machinery.
//! * **Bootstrap** — [`LiveGraph::bootstrap_snapshot`] /
//!   [`install_bootstrap`] / [`local_durable_epoch`]: a replica initialises
//!   from a checkpoint file plus the WAL tail above the checkpoint epoch,
//!   never from unbounded WAL history.
//!
//! # Why "complete epochs at or below the GRE" is the safety rule
//!
//! Every commit takes its own epoch, so an epoch is one WAL record, and a
//! group-commit flush batch carries many epochs. The tail still reasons in
//! whole epochs, which stays correct if an epoch ever spans several records.
//! The engine orders durability before apply and
//! apply before GRE advance, so `GRE >= e` implies *every* record of epoch
//! `e` is already durable in the WAL file — and WAL file order is epoch
//! order. [`WalTail::poll`] therefore snapshots the GRE *before* reading
//! the file and emits only epochs at or below it, whole epochs at a time.
//! Each emitted batch is a gap-free run of complete epochs, which is
//! exactly what [`LiveGraph::apply_replicated`] needs to merge each epoch
//! into a single replayed transaction.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::checkpoint::{apply_ops_in, checkpoint_path, wal_path};
use crate::error::{Error, Result};
use crate::graph::{GraphInner, LiveGraph};
use crate::types::Timestamp;
use crate::wal::{read_wal, read_wal_from, sync_dir, WalOp, WalRecord};

/// What one [`WalTail::poll`] produced.
#[derive(Debug)]
pub enum TailChunk {
    /// New committed records: a gap-free run of one or more *complete*
    /// epochs, in epoch order, every one of them durable and applied on the
    /// primary.
    Records(Vec<WalRecord>),
    /// Checkpoint pruning removed epochs the tail has not yet handed out.
    /// The subscriber's resume point predates the retained WAL tail and it
    /// must re-bootstrap from a checkpoint at or above `floor`.
    FellBehind {
        /// The primary's current WAL prune floor (see
        /// [`LiveGraph::wal_prune_floor`]).
        floor: Timestamp,
    },
    /// No new complete epoch became available within the poll's wait
    /// budget.
    Idle,
}

/// Incremental reader over a durable graph's WAL, for replication.
///
/// Created by [`LiveGraph::wal_tail`]. The tail tracks a byte offset into
/// the log file plus the writer's rewrite generation, so it reads only new
/// bytes in the steady state and transparently re-scans after checkpoint
/// pruning replaces the file. See the module docs for the epoch-completeness
/// rule that `poll` enforces.
pub struct WalTail<'g> {
    graph: &'g GraphInner,
    /// Byte offset of the next unread frame, valid for `generation`.
    offset: u64,
    /// WAL writer generation `offset` was captured against (`u64::MAX`
    /// forces the initial full scan).
    generation: u64,
    /// Highest epoch handed out via [`TailChunk::Records`] (whole epochs
    /// only, so this is also "every record at or below this epoch has been
    /// handed out").
    last_epoch: Timestamp,
    /// Records read from the file but not yet emitted (their epoch is still
    /// above the GRE snapshot, or they overflowed a batch).
    buffered: VecDeque<WalRecord>,
    /// Last observed durable-record count, used to sleep on the group-commit
    /// flush condvar between polls.
    durable_mark: u64,
}

impl<'g> WalTail<'g> {
    fn new(graph: &'g GraphInner, from_epoch: Timestamp) -> Self {
        Self {
            graph,
            offset: 0,
            generation: u64::MAX,
            last_epoch: from_epoch,
            buffered: VecDeque::new(),
            durable_mark: u64::MAX,
        }
    }

    /// Highest epoch this tail has handed out (initially the `from_epoch`
    /// it was created with).
    pub fn last_epoch(&self) -> Timestamp {
        self.last_epoch
    }

    /// Waits up to `wait` for new committed epochs and returns them.
    ///
    /// At most `max_records` records are returned per call, except that an
    /// epoch is never split across calls: a batch always ends on an epoch
    /// boundary and always contains at least one whole epoch when anything
    /// is ready. Returns [`TailChunk::Idle`] on timeout and
    /// [`TailChunk::FellBehind`] once pruning has outrun this tail.
    pub fn poll(&mut self, max_records: usize, wait: Duration) -> Result<TailChunk> {
        let deadline = Instant::now() + wait;
        loop {
            // ORDERING: Acquire pairs with the AcqRel floor bump under the
            // WAL lock, so a stale floor can never accompany a pruned log.
            let floor = self
                .graph
                .prune_floor
                .load(std::sync::atomic::Ordering::Acquire);
            if floor > self.last_epoch {
                return Ok(TailChunk::FellBehind { floor });
            }
            // GRE snapshot *before* the file read: `gre >= e` proves every
            // record of epoch e was durable before we read, hence is in
            // `buffered` now. Emitting only epochs <= gre keeps batches to
            // complete epochs.
            let gre = self.graph.epochs.gre();
            self.refill()?;
            let out = self.drain_complete(max_records, gre);
            if !out.is_empty() {
                return Ok(TailChunk::Records(out));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(TailChunk::Idle);
            }
            let remaining = deadline - now;
            if self.buffered.is_empty() {
                // Nothing unread on disk: sleep on the flush signal.
                let wal = self.graph.commit.group_wal().ok_or_else(|| {
                    Error::WalUnavailable("WAL tailing requires a durable graph".into())
                })?;
                self.durable_mark = wal.wait_durable_change(self.durable_mark, remaining);
            } else {
                // Records exist but their epoch is still above the GRE:
                // the commit is mid-apply and the GRE is about to
                // advance. A short nap, not a condvar, keeps this simple.
                std::thread::sleep(remaining.min(Duration::from_millis(1)));
            }
        }
    }

    /// Reads newly appended frames into `buffered`. Runs under the WAL
    /// writer lock so a concurrent checkpoint rewrite cannot swap the file
    /// between the generation check and the read.
    fn refill(&mut self) -> Result<()> {
        /// What one locked read hands back: the new records, the file
        /// offset after them, the WAL generation, and whether that
        /// generation changed (forcing a rescan dedup).
        type LockedRead = Option<(Vec<WalRecord>, u64, u64, bool)>;
        let offset = self.offset;
        let generation = self.generation;
        let last_epoch = self.last_epoch;
        let read = self.graph.commit.with_wal_locked(
            |writer| -> Result<LockedRead> {
                let Some(writer) = writer else {
                    return Ok(None);
                };
                let gen = writer.generation();
                let rescan = gen != generation;
                let from = if rescan { 0 } else { offset };
                if !rescan && !writer.path().exists() {
                    return Ok(Some((Vec::new(), offset, gen, false)));
                }
                let (records, new_offset) = read_wal_from(writer.path(), from)?;
                Ok(Some((records, new_offset, gen, rescan)))
            },
        )?;
        let Some((records, new_offset, gen, rescan)) = read else {
            return Err(Error::WalUnavailable(
                "WAL tailing requires a durable graph".into(),
            ));
        };
        if rescan {
            // The file was replaced (checkpoint pruning) or this is the
            // first scan. Everything already handed out is at or below
            // `last_epoch` — whole epochs only — so re-reading with that
            // filter is an exact dedup.
            self.buffered.clear();
            self.buffered
                .extend(records.into_iter().filter(|r| r.epoch > last_epoch));
        } else {
            self.buffered.extend(records);
        }
        self.offset = new_offset;
        self.generation = gen;
        Ok(())
    }

    /// Pops complete epochs at or below `gre` from `buffered`, respecting
    /// `max_records` only at epoch boundaries.
    fn drain_complete(&mut self, max_records: usize, gre: Timestamp) -> Vec<WalRecord> {
        let mut out: Vec<WalRecord> = Vec::new();
        while let Some(front) = self.buffered.front() {
            if front.epoch > gre {
                break;
            }
            let continues_epoch = out.last().is_some_and(|r| r.epoch == front.epoch);
            if out.len() >= max_records.max(1) && !continues_epoch {
                break;
            }
            let record = self.buffered.pop_front().expect("front exists");
            self.last_epoch = record.epoch;
            out.push(record);
        }
        out
    }
}

impl LiveGraph {
    /// Opens a WAL tail that yields committed records with epochs above
    /// `from_epoch`, for shipping to a replica. Requires a durable graph.
    ///
    /// Pass the replica's last durable epoch (see [`local_durable_epoch`])
    /// to resume an interrupted stream; the first [`WalTail::poll`] reports
    /// [`TailChunk::FellBehind`] if checkpoint pruning has already dropped
    /// epochs above `from_epoch`.
    pub fn wal_tail(&self, from_epoch: Timestamp) -> Result<WalTail<'_>> {
        if self.inner().commit.group_wal().is_none() {
            return Err(Error::WalUnavailable(
                "WAL tailing requires a durable graph".into(),
            ));
        }
        Ok(WalTail::new(self.inner(), from_epoch))
    }

    /// Replays records shipped from a primary, in epoch order, and returns
    /// the replica's global read epoch afterwards.
    ///
    /// All records of one epoch are applied in a single write transaction
    /// (one record per epoch from a plain primary; several records of one
    /// epoch would come from transactions with disjoint write sets, so the
    /// merge is conflict-free), which makes the replica consume exactly one
    /// epoch per primary epoch: after applying epoch `e`, this replica's
    /// `begin_read_at(e)` sees the same snapshot as the primary's. Epochs
    /// at or below the replica's write epoch are skipped, so redelivery
    /// after a reconnect is idempotent. The replayed epochs are re-logged
    /// to the replica's own WAL, keeping the replica durable in its own
    /// right (restart resume, promotion).
    pub fn apply_replicated(&self, records: &[WalRecord]) -> Result<Timestamp> {
        let graph = self.inner();
        let mut i = 0;
        while i < records.len() {
            let epoch = records[i].epoch;
            let mut j = i;
            while j < records.len() && records[j].epoch == epoch {
                j += 1;
            }
            let gwe = graph.epochs.gwe();
            if epoch <= gwe {
                i = j; // already applied (redelivery after reconnect)
                continue;
            }
            if epoch > gwe + 1 {
                // The primary consumed epochs this stream never carried
                // (it should not happen with a dense primary history, but a
                // gap must move the clock, not corrupt the mapping).
                graph.epochs.reset_to(epoch - 1);
            }
            let mut txn = crate::txn::WriteTxn::begin(graph)?;
            for record in &records[i..j] {
                apply_ops_in(graph, &mut txn, record.ops.iter().map(WalOp::borrowed))?;
            }
            let committed = txn.commit()?;
            if committed != epoch {
                return Err(Error::Corruption(format!(
                    "replica apply of epoch {epoch} committed as epoch {committed}"
                )));
            }
            i = j;
        }
        Ok(graph.epochs.gre())
    }

    /// Writes a fresh checkpoint and returns `(snapshot_epoch, bytes)` — the
    /// checkpoint file's contents — for shipping to a bootstrapping replica.
    ///
    /// Checkpointing also prunes the WAL, so the primary's retained log
    /// after this call is exactly the tail above `snapshot_epoch`: the
    /// replica installs the bytes via [`install_bootstrap`] and then streams
    /// from a [`LiveGraph::wal_tail`] at `snapshot_epoch`, never replaying
    /// unbounded history.
    pub fn bootstrap_snapshot(&self) -> Result<(Timestamp, Vec<u8>)> {
        let graph = self.inner();
        let epoch = crate::checkpoint::write_checkpoint(graph)?;
        let dir = graph
            .options
            .data_dir
            .as_ref()
            .expect("write_checkpoint verified the data dir");
        let bytes = std::fs::read(checkpoint_path(dir))?;
        Ok((epoch, bytes))
    }
}

/// Installs a shipped checkpoint into a replica data directory: the bytes
/// become `checkpoint.dat` (via a temp file + atomic rename) and any stale
/// WAL is removed. Opening a [`LiveGraph`] on the directory afterwards runs
/// ordinary recovery, which replays the checkpoint — the replica bootstraps
/// through the exact code path a crashed primary restarts through.
///
/// Must only be called before the replica engine is opened on `dir`.
pub fn install_bootstrap(dir: impl AsRef<Path>, bytes: &[u8]) -> Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join("checkpoint.tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, checkpoint_path(dir))?;
    let _ = std::fs::remove_file(wal_path(dir));
    sync_dir(dir)
}

/// The highest epoch durably recorded in a data directory (checkpoint and
/// WAL combined), or 0 for an empty/absent directory. A restarting replica
/// reports this as its resume point so the primary ships only what is
/// missing.
pub fn local_durable_epoch(dir: impl AsRef<Path>) -> Result<Timestamp> {
    let dir = dir.as_ref();
    let mut max: Timestamp = 0;
    for path in [checkpoint_path(dir), wal_path(dir)] {
        if path.exists() {
            for record in read_wal(&path)? {
                max = max.max(record.epoch);
            }
        }
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LiveGraph, LiveGraphOptions};
    use crate::wal::SyncMode;

    fn durable_options(dir: &std::path::Path) -> LiveGraphOptions {
        LiveGraphOptions::durable(dir)
            .with_capacity(1 << 24)
            .with_max_vertices(1 << 14)
            .with_sync_mode(SyncMode::NoSync)
            .with_history_retention(1 << 20)
    }

    fn commit_pair(g: &LiveGraph, tag: u8) -> (u64, u64) {
        let mut txn = g.begin_write().unwrap();
        let a = txn.create_vertex(&[tag]).unwrap();
        let b = txn.create_vertex(&[tag, tag]).unwrap();
        txn.put_edge(a, 0, b, &[tag]).unwrap();
        txn.commit().unwrap();
        (a, b)
    }

    fn poll_all(tail: &mut WalTail<'_>) -> Vec<WalRecord> {
        match tail.poll(1024, Duration::from_secs(5)).unwrap() {
            TailChunk::Records(r) => r,
            other => panic!("expected records, got {other:?}"),
        }
    }

    /// Every vertex/edge visible at `epoch` must match between the graphs.
    fn assert_same_snapshot(primary: &LiveGraph, replica: &LiveGraph, epoch: Timestamp) {
        let pr = primary.begin_read_at(epoch).unwrap();
        let rr = replica.begin_read_at(epoch).unwrap();
        let n = primary.vertex_count().max(replica.vertex_count());
        for v in 0..n {
            assert_eq!(pr.get_vertex(v), rr.get_vertex(v), "vertex {v} @ {epoch}");
            for label in pr.labels(v).collect::<Vec<_>>() {
                let pe: Vec<_> = pr.edges(v, label).map(|e| e.dst).collect();
                let re: Vec<_> = rr.edges(v, label).map(|e| e.dst).collect();
                assert_eq!(pe, re, "edges of ({v},{label}) @ {epoch}");
            }
        }
    }

    #[test]
    fn tail_ships_and_replica_applies_every_epoch() {
        let pdir = tempfile::tempdir().unwrap();
        let rdir = tempfile::tempdir().unwrap();
        let primary = LiveGraph::open(durable_options(pdir.path())).unwrap();
        let replica = LiveGraph::open(durable_options(rdir.path())).unwrap();
        for tag in 0..5u8 {
            commit_pair(&primary, tag);
        }
        let mut tail = primary.wal_tail(0).unwrap();
        let records = poll_all(&mut tail);
        let epochs: Vec<_> = records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3, 4, 5], "epoch order, no gaps");
        let gre = replica.apply_replicated(&records).unwrap();
        assert_eq!(gre, 5, "replica consumed exactly the primary's epochs");
        for e in 1..=5 {
            assert_same_snapshot(&primary, &replica, e);
        }
        // Idempotent redelivery: applying the same batch again is a no-op.
        assert_eq!(replica.apply_replicated(&records).unwrap(), 5);
        assert_eq!(replica.stats().write_epoch, 5);
    }

    #[test]
    fn tail_survives_checkpoint_pruning_via_generation_bump() {
        let dir = tempfile::tempdir().unwrap();
        let primary = LiveGraph::open(durable_options(dir.path())).unwrap();
        commit_pair(&primary, 1);
        commit_pair(&primary, 2);
        let mut tail = primary.wal_tail(0).unwrap();
        assert_eq!(poll_all(&mut tail).len(), 2);
        // Prune everything the tail already consumed, then write more.
        primary.checkpoint().unwrap();
        assert_eq!(primary.wal_prune_floor(), 2);
        commit_pair(&primary, 3);
        let records = poll_all(&mut tail);
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![3],
            "only the unseen epoch, despite the file rewrite"
        );
    }

    #[test]
    fn tail_reports_fell_behind_when_pruning_outruns_it() {
        let dir = tempfile::tempdir().unwrap();
        let primary = LiveGraph::open(durable_options(dir.path())).unwrap();
        commit_pair(&primary, 1);
        commit_pair(&primary, 2);
        primary.checkpoint().unwrap();
        let mut tail = primary.wal_tail(0).unwrap();
        match tail.poll(1024, Duration::from_millis(10)).unwrap() {
            TailChunk::FellBehind { floor } => assert_eq!(floor, 2),
            other => panic!("expected FellBehind, got {other:?}"),
        }
        // Resuming at the floor works: only post-checkpoint epochs ship.
        let mut tail = primary.wal_tail(2).unwrap();
        commit_pair(&primary, 3);
        assert_eq!(poll_all(&mut tail)[0].epoch, 3);
    }

    #[test]
    fn tail_idles_out_when_nothing_commits() {
        let dir = tempfile::tempdir().unwrap();
        let primary = LiveGraph::open(durable_options(dir.path())).unwrap();
        let mut tail = primary.wal_tail(0).unwrap();
        let start = Instant::now();
        assert!(matches!(
            tail.poll(16, Duration::from_millis(20)).unwrap(),
            TailChunk::Idle
        ));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn wal_tail_requires_durability() {
        let g = LiveGraph::in_memory().unwrap();
        assert!(matches!(g.wal_tail(0), Err(Error::WalUnavailable(_))));
    }

    #[test]
    fn bootstrap_ships_checkpoint_not_history() {
        let pdir = tempfile::tempdir().unwrap();
        let rdir = tempfile::tempdir().unwrap();
        let primary = LiveGraph::open(durable_options(pdir.path())).unwrap();
        for tag in 0..4u8 {
            commit_pair(&primary, tag);
        }
        let (snapshot_epoch, bytes) = primary.bootstrap_snapshot().unwrap();
        assert_eq!(snapshot_epoch, 4);
        assert_eq!(
            primary.wal_prune_floor(),
            snapshot_epoch,
            "bootstrap checkpoint prunes the WAL to a bounded tail"
        );
        commit_pair(&primary, 9); // epoch 5, lives only in the WAL tail

        install_bootstrap(rdir.path(), &bytes).unwrap();
        assert_eq!(local_durable_epoch(rdir.path()).unwrap(), snapshot_epoch);
        let replica = LiveGraph::open(durable_options(rdir.path())).unwrap();
        assert_eq!(replica.stats().write_epoch, snapshot_epoch);

        // Catch up from the snapshot epoch: exactly the WAL tail ships.
        let mut tail = primary.wal_tail(snapshot_epoch).unwrap();
        let records = poll_all(&mut tail);
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![5]);
        replica.apply_replicated(&records).unwrap();
        assert_same_snapshot(&primary, &replica, 5);

        // The replica's own durable state now covers the applied epoch, so
        // a restarted replica would resume from 5, not re-bootstrap.
        drop(replica);
        assert_eq!(local_durable_epoch(rdir.path()).unwrap(), 5);
        let reopened = LiveGraph::open(durable_options(rdir.path())).unwrap();
        assert_eq!(reopened.stats().write_epoch, 5);
        assert_same_snapshot(&primary, &reopened, 5);
    }

    #[test]
    fn concurrent_commits_ship_complete_epochs_in_order() {
        let pdir = tempfile::tempdir().unwrap();
        let rdir = tempfile::tempdir().unwrap();
        let primary = LiveGraph::open(durable_options(pdir.path())).unwrap();
        let replica = LiveGraph::open(durable_options(rdir.path())).unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        let applied = std::thread::scope(|s| {
            // Writers hammer the primary while the tail streams concurrently.
            let writers: Vec<_> = (0..4u8)
                .map(|t| {
                    let primary = &primary;
                    s.spawn(move || {
                        for i in 0..40u8 {
                            commit_pair(primary, t.wrapping_mul(40).wrapping_add(i));
                        }
                    })
                })
                .collect();
            let shipper = s.spawn(|| {
                let mut tail = primary.wal_tail(0).unwrap();
                let mut shipped: Vec<WalRecord> = Vec::new();
                loop {
                    match tail.poll(7, Duration::from_millis(20)).unwrap() {
                        TailChunk::Records(batch) => {
                            replica.apply_replicated(&batch).unwrap();
                            shipped.extend(batch);
                        }
                        TailChunk::Idle => {
                            if stop.load(std::sync::atomic::Ordering::Acquire) {
                                break;
                            }
                        }
                        TailChunk::FellBehind { .. } => panic!("no pruning in this test"),
                    }
                }
                shipped
            });
            for handle in writers {
                handle.join().unwrap();
            }
            // Writers are done; the shipper drains whatever remains, then
            // sees `stop` on its next idle poll.
            stop.store(true, std::sync::atomic::Ordering::Release);
            shipper.join().unwrap()
        });

        let final_epoch = primary.stats().write_epoch;
        assert_eq!(applied.last().unwrap().epoch, final_epoch);
        // Emitted epochs are non-decreasing and gap-free.
        let mut prev = 0;
        for r in &applied {
            assert!(r.epoch == prev || r.epoch == prev + 1, "gap at {}", r.epoch);
            prev = r.epoch;
        }
        for e in [1, final_epoch / 2, final_epoch] {
            assert_same_snapshot(&primary, &replica, e);
        }
    }
}
