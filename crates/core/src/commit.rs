//! Commit coordination (the paper's *persist phase*, §5).
//!
//! A write transaction that finished its work phase calls
//! [`CommitCoordinator::persist`]. Under the [`GroupClock`] lock it takes
//! the next write epoch (`TWE = ++GWE`), registers its apply obligation,
//! and encodes its WAL frame straight from its `&[WalOp]` into the
//! [`GroupWal`] staging buffer — one lock round, no queue, no hand-off.
//! It then waits for a WAL flush covering its frame: the first committer to
//! find no flush in progress becomes the flush leader and writes every
//! staged frame with one `write` and one `fsync`. Only after that
//! durability point does the committer perform its *apply phase*; the
//! global read epoch `GRE` only advances to an epoch once that epoch and
//! every earlier one have finished applying. This guarantees that a
//! transaction's read timestamp is always smaller than the write timestamp
//! of any ongoing transaction, and that nothing becomes visible before it
//! is durable.
//!
//! **Deviation from the paper.** The paper gives a whole commit group one
//! `TWE`. Here each commit gets its own epoch, and grouping happens at one
//! level only: the WAL flush batch, which is still the paper's group
//! commit — one log write plus one sync per batch. Epoch order equals WAL
//! order because frames are staged under the clock lock.

use std::collections::VecDeque;
use std::path::Path;

use crate::sync::{Arc, Condvar, Mutex};

use crate::epoch::EpochManager;
use crate::error::Result;
use crate::telemetry::Telemetry;
use crate::types::Timestamp;
use crate::wal::{GroupCommitConfig, GroupWal, SyncMode, WalOp, WalStats, WalWriter};

/// Tracks apply-phase completion so `GRE` advances in epoch order.
#[derive(Default)]
struct ApplyTracker {
    /// `(epoch, transactions still applying)` in epoch order: epochs are
    /// assigned under the tracker lock, so every push lands at the back.
    outstanding: VecDeque<(Timestamp, usize)>,
    /// Committers parked on `gre_cv`; `finish_apply` notifies only when
    /// this is non-zero.
    gre_waiters: usize,
}

/// The shared commit clock: pairs the global write epoch with the apply
/// tracker that gates `GRE` publication.
///
/// A plain [`crate::LiveGraph`] owns one privately. A
/// [`crate::ShardedGraph`](crate::sharded::ShardedGraph) hands the *same*
/// clock to every shard's coordinator so that (a) epoch assignment and
/// obligation registration are atomic across shards — otherwise a shard
/// could publish `GRE = e` while another shard's commit with epoch
/// `e' < e` is still applying — and (b) a cross-shard transaction becomes
/// visible on all shards at once: `GRE` only reaches its epoch after every
/// per-shard part has applied.
#[doc(hidden)]
pub struct GroupClock {
    tracker: Mutex<ApplyTracker>,
    /// Signalled whenever `GRE` advances while a committer waits for
    /// session consistency (on oversubscribed cores a spinning committer
    /// steals the quantum from the very threads whose applies it is
    /// waiting for).
    gre_cv: Condvar,
}

impl GroupClock {
    #[doc(hidden)]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            tracker: Mutex::new(ApplyTracker::default()),
            gre_cv: Condvar::new(),
        })
    }

    /// Blocks until `GRE >= epoch` (i.e. until every transaction of every
    /// epoch up to and including `epoch` has finished its apply phase).
    #[doc(hidden)]
    pub fn wait_for_gre(&self, epochs: &EpochManager, epoch: Timestamp) {
        // Fast path: the caller's own `finish_apply` usually advanced GRE
        // already (it always does when no other commits are in flight).
        // Under the model checker a single probe suffices — extra spins only
        // multiply the interleavings the checker must explore.
        #[cfg(livegraph_loom)]
        const SPINS: usize = 1;
        #[cfg(not(livegraph_loom))]
        const SPINS: usize = 64;
        for _ in 0..SPINS {
            if epochs.gre() >= epoch {
                return;
            }
            crate::sync::hint::spin_loop();
        }
        let mut t = self.tracker.lock();
        // GRE is published under the tracker lock, so re-checking it here
        // leaves no lost-wakeup window.
        while epochs.gre() < epoch {
            t.gre_waiters += 1;
            self.gre_cv.wait(&mut t);
            t.gre_waiters -= 1;
        }
    }

    /// Atomically advances `GWE`, registers `participants` apply
    /// obligations for the new epoch, and runs `log` with the new epoch —
    /// all while the tracker lock is held, which makes the triple atomic
    /// against other coordinators sharing this clock. Commit paths use
    /// `log` to stage their WAL frames *inside* epoch assignment, which
    /// pins per-WAL file order to epoch order: two commits can never appear
    /// in a log in the opposite order of their epochs, so a torn tail is
    /// always an epoch-prefix — the invariant the crash-recovery oracle
    /// checks. `log` must not block (a [`GroupWal::stage`] never does).
    #[doc(hidden)]
    pub fn begin_group_with<R>(
        &self,
        epochs: &EpochManager,
        participants: usize,
        log: impl FnOnce(Timestamp) -> R,
    ) -> (Timestamp, R) {
        let mut t = self.tracker.lock();
        let epoch = epochs.advance_gwe();
        t.outstanding.push_back((epoch, participants));
        let logged = log(epoch);
        (epoch, logged)
    }

    /// Marks one obligation of `epoch` as applied and advances `GRE` across
    /// every fully-applied prefix of epochs.
    #[doc(hidden)]
    pub fn finish_apply(&self, epochs: &EpochManager, epoch: Timestamp) {
        let mut t = self.tracker.lock();
        if let Ok(i) = t.outstanding.binary_search_by_key(&epoch, |&(e, _)| e) {
            t.outstanding[i].1 -= 1;
        }
        let mut new_gre = None;
        while let Some(&(e, 0)) = t.outstanding.front() {
            t.outstanding.pop_front();
            new_gre = Some(e);
        }
        if let Some(gre) = new_gre.filter(|&g| g > epochs.gre()) {
            epochs.publish_gre(gre);
            if t.gre_waiters > 0 {
                self.gre_cv.notify_all();
            }
        }
    }
}

/// Coordinates WAL persistence and epoch publication for commits.
pub struct CommitCoordinator {
    wal: Option<GroupWal>,
    clock: Arc<GroupClock>,
    /// Span histograms for the persist phase (epoch + staging, fsync
    /// wait). Defaults to a disabled registry; engines install their
    /// shared one on open.
    telemetry: Arc<Telemetry>,
}

impl CommitCoordinator {
    /// Creates a coordinator with a private clock. `wal_path = None`
    /// disables durability (pure in-memory operation); otherwise the WAL is
    /// opened in the given sync mode with the given group-commit tuning.
    pub fn new(
        wal_path: Option<&Path>,
        sync: SyncMode,
        group_commit: GroupCommitConfig,
    ) -> Result<Self> {
        Self::with_clock(wal_path, sync, group_commit, GroupClock::new())
    }

    /// Creates a coordinator sharing an externally owned clock (the sharded
    /// engine's epoch service).
    pub(crate) fn with_clock(
        wal_path: Option<&Path>,
        sync: SyncMode,
        group_commit: GroupCommitConfig,
        clock: Arc<GroupClock>,
    ) -> Result<Self> {
        let wal = match wal_path {
            Some(path) => Some(GroupWal::new(WalWriter::open(path, sync)?, group_commit)),
            None => None,
        };
        Ok(Self {
            wal,
            clock,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Installs the engine's shared telemetry registry (called once during
    /// engine open, before the coordinator is shared between threads).
    pub(crate) fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        if let Some(wal) = &mut self.wal {
            wal.set_telemetry(Arc::clone(&telemetry));
        }
        self.telemetry = telemetry;
    }

    /// Stages the record `(epoch, ops)` on this coordinator's WAL and
    /// returns the flush ticket to pass to
    /// [`CommitCoordinator::wait_ticket`] — `None` without a WAL or without
    /// ops (recovery replay builds none). Must run under the clock lock
    /// that assigned `epoch` (see [`GroupClock::begin_group_with`]). The
    /// cross-shard commit path stages its one record on every participant's
    /// WAL this way, so concurrent cross-shard commits share one fsync per
    /// participant log.
    pub(crate) fn stage(&self, epoch: Timestamp, ops: &[WalOp]) -> Option<u64> {
        let wal = self.wal.as_ref()?;
        (!ops.is_empty()).then(|| wal.stage(epoch, ops))
    }

    /// Blocks until the records behind `ticket` are durable on this
    /// coordinator's WAL (flushing as leader if nobody else is).
    pub(crate) fn wait_ticket(&self, ticket: u64) -> Result<()> {
        self.wal
            .as_ref()
            .expect("a flush ticket implies a WAL")
            .wait_durable(ticket)
    }

    /// True if a WAL is configured.
    #[cfg(test)]
    pub fn durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Counter snapshot for this coordinator's WAL (zeros without one).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// The group-commit coordinator itself, if durability is configured
    /// (WAL tails wait on its flush condvar between polls).
    pub(crate) fn group_wal(&self) -> Option<&GroupWal> {
        self.wal.as_ref()
    }

    /// Runs `f` while holding the WAL file exclusively (used by
    /// checkpointing to prune the log without racing flush leaders).
    pub fn with_wal_locked<R>(&self, f: impl FnOnce(Option<&mut WalWriter>) -> R) -> R {
        match &self.wal {
            Some(w) => w.with_writer(|writer| f(Some(writer))),
            None => f(None),
        }
    }

    /// Persist phase: takes this transaction's epoch, stages its WAL frame
    /// (unless `ops` is empty, as in recovery replay) and waits until the
    /// frame is durable. Returns the write timestamp.
    ///
    /// On return the epoch is registered with the apply tracker; the caller
    /// must perform its apply phase and then call
    /// [`CommitCoordinator::finish_apply`]. `traced` commits record the
    /// staging/fsync span histograms; the rest skip the clock reads (see
    /// `Telemetry::trace_commit`).
    pub fn persist(&self, epochs: &EpochManager, ops: &[WalOp], traced: bool) -> Result<Timestamp> {
        // Span: epoch assignment + frame staging, including the wait for
        // the clock lock.
        let enqueue_timer = if traced { self.telemetry.timer() } else { None };
        let (epoch, ticket) = self
            .clock
            .begin_group_with(epochs, 1, |epoch| self.stage(epoch, ops));
        self.telemetry
            .commit_wal_enqueue_seconds
            .observe_timer(enqueue_timer);
        self.await_durable(epochs, epoch, ticket, traced)
    }

    /// Durability point: blocks until the flush covering `ticket` lands.
    /// Success acks the commit; the caller then applies. On flush failure
    /// the transaction will never apply, so its obligation is discharged
    /// here — otherwise `GRE` would wedge behind the dead epoch and stall
    /// every later committer's session-consistency wait.
    fn await_durable(
        &self,
        epochs: &EpochManager,
        epoch: Timestamp,
        ticket: Option<u64>,
        traced: bool,
    ) -> Result<Timestamp> {
        if let Some(ticket) = ticket {
            // Span: fsync wait — the time this committer blocks until the
            // flush covering its frame lands on the device.
            let fsync_timer = if traced { self.telemetry.timer() } else { None };
            let waited = self.wait_ticket(ticket);
            self.telemetry
                .commit_fsync_wait_seconds
                .observe_timer(fsync_timer);
            if let Err(e) = waited {
                self.clock.finish_apply(epochs, epoch);
                return Err(e);
            }
        }
        Ok(epoch)
    }

    /// Apply-phase completion: marks one transaction of `epoch` as applied
    /// and advances `GRE` across every fully-applied prefix of epochs.
    pub fn finish_apply(&self, epochs: &EpochManager, epoch: Timestamp) {
        self.clock.finish_apply(epochs, epoch);
    }

    /// Blocks until `GRE >= epoch` (session consistency after a commit).
    pub(crate) fn wait_for_gre(&self, epochs: &EpochManager, epoch: Timestamp) {
        self.clock.wait_for_gre(epochs, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn coordinator(dir: &tempfile::TempDir, durable: bool) -> CommitCoordinator {
        let path = dir.path().join("wal.log");
        CommitCoordinator::new(
            durable.then_some(path.as_path()),
            SyncMode::NoSync,
            GroupCommitConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn single_commit_advances_gre_after_apply() {
        let dir = tempfile::tempdir().unwrap();
        let c = coordinator(&dir, false);
        let epochs = EpochManager::new(4);
        let epoch = c.persist(&epochs, &[], false).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(epochs.gre(), 0, "GRE must not move before apply completes");
        c.finish_apply(&epochs, epoch);
        assert_eq!(epochs.gre(), 1);
    }

    #[test]
    fn epochs_only_publish_in_order() {
        let dir = tempfile::tempdir().unwrap();
        let c = coordinator(&dir, false);
        let epochs = EpochManager::new(4);
        let e1 = c.persist(&epochs, &[], false).unwrap();
        let e2 = c.persist(&epochs, &[], false).unwrap();
        assert!(e2 > e1);
        // Finish the later epoch first: GRE must not jump over e1.
        c.finish_apply(&epochs, e2);
        assert_eq!(epochs.gre(), 0);
        c.finish_apply(&epochs, e1);
        assert_eq!(epochs.gre(), e2);
    }

    #[test]
    fn durable_commits_reach_the_wal() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let c = CommitCoordinator::new(
            Some(path.as_path()),
            SyncMode::Fsync,
            GroupCommitConfig::default(),
        )
        .unwrap();
        let epochs = EpochManager::new(4);
        let ops = vec![WalOp::CreateVertex {
            vertex: 1,
            properties: b"x".to_vec(),
        }];
        let epoch = c.persist(&epochs, &ops, false).unwrap();
        c.finish_apply(&epochs, epoch);
        let records = crate::wal::read_wal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, epoch);
        assert_eq!(records[0].ops, ops);
        assert!(c.durable());
        assert!(c.wal_stats().bytes > 0);
    }

    #[test]
    fn concurrent_commits_all_receive_epochs_and_gre_catches_up() {
        let dir = tempfile::tempdir().unwrap();
        let c = Arc::new(coordinator(&dir, true));
        let epochs = Arc::new(EpochManager::new(32));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            let epochs = Arc::clone(&epochs);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..50u64 {
                    let ops = vec![WalOp::PutEdge {
                        src: i,
                        label: 0,
                        dst: i + 1,
                        properties: vec![],
                    }];
                    let epoch = c.persist(&epochs, &ops, false).unwrap();
                    c.finish_apply(&epochs, epoch);
                    got.push(epoch);
                }
                got
            }));
        }
        let mut max_epoch = 0;
        for h in handles {
            for e in h.join().unwrap() {
                assert!(e > 0);
                max_epoch = max_epoch.max(e);
            }
        }
        assert_eq!(
            epochs.gre(),
            max_epoch,
            "GRE must catch up to the last commit"
        );
        assert_eq!(max_epoch, 8 * 50, "every commit gets its own epoch");
        assert_eq!(c.wal_stats().group_records, 8 * 50);
    }

    #[test]
    fn group_commit_batches_under_contention() {
        // Many concurrent committers on a slow (fsync) WAL: every commit
        // gets its own epoch and its own frame, while flush batches share
        // one write + one fsync each.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let c = Arc::new(
            CommitCoordinator::new(
                Some(path.as_path()),
                SyncMode::Fsync,
                GroupCommitConfig::default(),
            )
            .unwrap(),
        );
        let epochs = Arc::new(EpochManager::new(32));
        let txns_per_thread = 30;
        let threads = 8;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let c = Arc::clone(&c);
            let epochs = Arc::clone(&epochs);
            handles.push(std::thread::spawn(move || {
                let ops = vec![WalOp::DeleteVertex { vertex: 7 }];
                for _ in 0..txns_per_thread {
                    let e = c.persist(&epochs, &ops, false).unwrap();
                    c.finish_apply(&epochs, e);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * txns_per_thread) as i64;
        assert_eq!(epochs.gwe(), total);
        assert_eq!(epochs.gre(), total);
        let stats = c.wal_stats();
        assert_eq!(stats.group_records, total as u64);
        assert_eq!(stats.fsyncs, stats.groups, "one fsync per flush batch");
        let logged: Vec<_> = crate::wal::read_wal(&path)
            .unwrap()
            .iter()
            .map(|r| r.epoch)
            .collect();
        assert_eq!(
            logged,
            (1..=total).collect::<Vec<_>>(),
            "file order is epoch order"
        );
    }
}
