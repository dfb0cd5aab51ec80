//! Global epochs, worker slots and the reading-epoch table.
//!
//! §5 of the paper: all threads share two global epoch counters — `GRE` (the
//! read epoch handed to starting transactions) and `GWE` (the write epoch
//! advanced by the transaction manager for every commit) — plus a
//! *reading epoch table* with one slot per worker, used by compaction to
//! compute a safe timestamp below which old versions can be reclaimed.
//!
//! Each OS thread that starts transactions is lazily assigned a *worker
//! slot*. The slot index feeds into transaction ids (`TID = worker ‖ seq`),
//! the reading-epoch table and the per-worker dirty sets used by compaction.

use crate::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use crate::error::{Error, Result};
use crate::types::{make_txn_id, Timestamp, TxnId};

/// Value stored in a reading-epoch slot when the worker has no active
/// transaction.
pub const IDLE_EPOCH: i64 = i64::MAX;

/// Global epoch state shared by all transactions of one [`crate::LiveGraph`].
pub struct EpochManager {
    /// Global read epoch: the snapshot new transactions read.
    gre: AtomicI64,
    /// Global write epoch: advanced once per commit.
    gwe: AtomicI64,
    /// Reading-epoch table: `slots[w]` holds the smallest read epoch of
    /// worker `w`'s active transactions, or [`IDLE_EPOCH`].
    slots: Vec<AtomicI64>,
    /// Number of active transactions per worker (a thread may hold a read
    /// and a write transaction at once; the slot keeps the minimum epoch).
    active: Vec<AtomicU64>,
    /// Per-worker transaction sequence numbers (for TID generation).
    seqs: Vec<AtomicU64>,
    next_slot: AtomicUsize,
}

impl EpochManager {
    /// Creates an epoch manager with room for `max_workers` worker threads.
    pub fn new(max_workers: usize) -> Self {
        Self {
            gre: AtomicI64::new(0),
            gwe: AtomicI64::new(0),
            slots: (0..max_workers).map(|_| AtomicI64::new(IDLE_EPOCH)).collect(),
            active: (0..max_workers).map(|_| AtomicU64::new(0)).collect(),
            seqs: (0..max_workers).map(|_| AtomicU64::new(0)).collect(),
            next_slot: AtomicUsize::new(0),
        }
    }

    /// Maximum number of worker slots.
    pub fn max_workers(&self) -> usize {
        self.slots.len()
    }

    /// Current global read epoch.
    #[inline]
    pub fn gre(&self) -> Timestamp {
        // ORDERING: Acquire pairs with the Release store in `publish_gre`,
        // so a reader that observes epoch E also sees every version the
        // commit tracker applied up to E.
        self.gre.load(Ordering::Acquire)
    }

    /// Current global write epoch.
    #[inline]
    pub fn gwe(&self) -> Timestamp {
        // ORDERING: Acquire pairs with the AcqRel `advance_gwe` RMW so the
        // debug invariant TRE <= GWE observes a current value.
        self.gwe.load(Ordering::Acquire)
    }

    /// Advances the global write epoch by one and returns the new value
    /// (the write timestamp assigned to the committing transaction).
    #[inline]
    pub fn advance_gwe(&self) -> Timestamp {
        // ORDERING: AcqRel makes successive group timestamps form a single
        // modification order each committer both observes and extends.
        self.gwe.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publishes a new global read epoch. Monotonicity is asserted in debug
    /// builds; callers (the commit tracker) only ever move it forward.
    #[inline]
    pub fn publish_gre(&self, epoch: Timestamp) {
        debug_assert!(epoch >= self.gre());
        // ORDERING: Release pairs with the Acquire load in `gre`; all block
        // writes applied for epochs <= `epoch` happen-before this store.
        self.gre.store(epoch, Ordering::Release);
    }

    /// Allocates a worker slot for the calling thread.
    pub fn allocate_worker(&self) -> Result<usize> {
        // ORDERING: Relaxed — the counter only hands out unique indices; no
        // other data is published through it.
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        if slot >= self.slots.len() {
            // Roll back so the counter does not run away on repeated errors.
            // ORDERING: Relaxed — same counter, still no data published.
            self.next_slot.fetch_sub(1, Ordering::Relaxed);
            return Err(Error::TooManyWorkers {
                max_workers: self.slots.len(),
            });
        }
        Ok(slot)
    }

    /// Begins a transaction on `worker`: registers the current `GRE` in the
    /// reading-epoch table and returns `(read_epoch, txn_id)`.
    pub fn begin(&self, worker: usize) -> (Timestamp, TxnId) {
        let tre = self.register(worker);
        // ORDERING: Relaxed — the per-worker sequence is only touched by the
        // owning thread; uniqueness needs atomicity, not ordering.
        let seq = self.seqs[worker].fetch_add(1, Ordering::Relaxed);
        (tre, make_txn_id(worker, seq))
    }

    /// Begins a read-only transaction (no TID needed).
    pub fn begin_read(&self, worker: usize) -> Timestamp {
        self.register(worker)
    }

    /// Begins a write transaction whose snapshot is pinned at `epoch` rather
    /// than the current `GRE`. Used by the sharded engine so every per-shard
    /// sub-transaction of one cross-shard transaction reads the same
    /// globally consistent snapshot, no matter when the shard is first
    /// touched.
    pub fn begin_at(&self, worker: usize, epoch: Timestamp) -> (Timestamp, TxnId) {
        let tre = self.begin_read_at(worker, epoch);
        // ORDERING: Relaxed — per-worker sequence, owner-thread only.
        let seq = self.seqs[worker].fetch_add(1, Ordering::Relaxed);
        (tre, make_txn_id(worker, seq))
    }

    /// Begins a read-only transaction pinned at an *older* epoch (time-travel
    /// read). The epoch is registered in the reading-epoch table so that
    /// compaction keeps every version the transaction can still see.
    pub fn begin_read_at(&self, worker: usize, epoch: Timestamp) -> Timestamp {
        // ORDERING: AcqRel on `active` orders the slot update after the
        // count bump so `finish` cannot interleave an IDLE store between
        // them; Release on the slot store pairs with the Acquire scans in
        // `min_active_epoch` / `min_active_reader_epoch`.
        if self.active[worker].fetch_add(1, Ordering::AcqRel) == 0 {
            self.slots[worker].store(epoch, Ordering::Release);
        } else {
            // ORDERING: AcqRel — RMW keeps the slot's minimum consistent
            // with concurrent `finish`/`register` on the same worker.
            self.slots[worker].fetch_min(epoch, Ordering::AcqRel);
        }
        epoch
    }

    fn register(&self, worker: usize) -> Timestamp {
        let tre = self.gre();
        // ORDERING: AcqRel on `active` + Release on the slot store — same
        // protocol as `begin_read_at`; compaction's Acquire scan of the
        // table must see the registered epoch before trusting the count.
        if self.active[worker].fetch_add(1, Ordering::AcqRel) == 0 {
            self.slots[worker].store(tre, Ordering::Release);
        } else {
            // Keep the minimum epoch of all this worker's live transactions.
            // ORDERING: AcqRel — RMW against concurrent finish/register.
            self.slots[worker].fetch_min(tre, Ordering::AcqRel);
        }
        tre
    }

    /// Marks one of the worker's transactions as finished.
    #[inline]
    pub fn finish(&self, worker: usize) {
        // ORDERING: AcqRel on `active` synchronizes with the fetch_add in
        // register/begin_read_at so only the last finisher parks the slot;
        // Release on the IDLE store pairs with compaction's Acquire scan.
        if self.active[worker].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.slots[worker].store(IDLE_EPOCH, Ordering::Release);
        }
    }

    /// Fast-forwards both epochs after recovery so that new commits receive
    /// timestamps strictly greater than anything replayed from the WAL.
    pub fn reset_to(&self, epoch: Timestamp) {
        // ORDERING: AcqRel — recovery publishes the fast-forwarded epochs to
        // worker threads that start right after; pairs with the Acquire
        // loads in `gre`/`gwe`.
        self.gwe.fetch_max(epoch, Ordering::AcqRel);
        let _ = self
            .gre
            // ORDERING: AcqRel success / Acquire failure — same publication
            // edge as above, expressed as a monotonic fetch_update.
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                Some(cur.max(epoch))
            });
    }

    /// The smallest read epoch any active transaction may be using: the
    /// minimum over the reading-epoch table and the current `GRE` (future
    /// transactions will read at ≥ `GRE`). Compaction must not reclaim
    /// versions visible at or after this epoch.
    pub fn min_active_epoch(&self) -> Timestamp {
        let mut min = self.gre();
        for slot in &self.slots {
            // ORDERING: Acquire pairs with the Release slot stores in
            // register/begin_read_at/finish; seeing IDLE here proves the
            // worker's previous transaction fully finished.
            let v = slot.load(Ordering::Acquire);
            if v < min {
                min = v;
            }
        }
        min
    }

    /// The smallest read epoch among *currently active* transactions only
    /// ([`IDLE_EPOCH`] if none). Unlike [`EpochManager::min_active_epoch`],
    /// future transactions are not accounted for — used to decide when a
    /// block that is no longer reachable through any index (so future
    /// transactions cannot find it) may be physically freed.
    pub fn min_active_reader_epoch(&self) -> Timestamp {
        self.slots
            .iter()
            // ORDERING: Acquire — same pairing as `min_active_epoch`.
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .unwrap_or(IDLE_EPOCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_start_at_zero_and_advance() {
        let em = EpochManager::new(4);
        assert_eq!(em.gre(), 0);
        assert_eq!(em.gwe(), 0);
        assert_eq!(em.advance_gwe(), 1);
        assert_eq!(em.advance_gwe(), 2);
        em.publish_gre(2);
        assert_eq!(em.gre(), 2);
    }

    #[test]
    fn worker_allocation_is_bounded() {
        let em = EpochManager::new(2);
        assert_eq!(em.allocate_worker().unwrap(), 0);
        assert_eq!(em.allocate_worker().unwrap(), 1);
        assert!(matches!(
            em.allocate_worker(),
            Err(Error::TooManyWorkers { max_workers: 2 })
        ));
    }

    #[test]
    fn begin_registers_read_epoch_and_unique_tids() {
        let em = EpochManager::new(2);
        em.publish_gre(7);
        let (tre, tid1) = em.begin(0);
        assert_eq!(tre, 7);
        assert_eq!(em.min_active_epoch(), 7);
        let (_, tid2) = em.begin(0);
        assert_ne!(tid1, tid2);
        let (_, tid3) = em.begin(1);
        assert_ne!(tid1, tid3);
    }

    #[test]
    fn begin_read_at_pins_an_older_epoch_in_the_table() {
        let em = EpochManager::new(2);
        em.publish_gre(50);
        let tre = em.begin_read_at(0, 12);
        assert_eq!(tre, 12);
        assert_eq!(em.min_active_epoch(), 12, "pinned epoch protects old versions");
        em.finish(0);
        assert_eq!(em.min_active_epoch(), 50);
    }

    #[test]
    fn min_active_epoch_tracks_oldest_reader() {
        let em = EpochManager::new(3);
        em.publish_gre(10);
        let _ = em.begin_read(0); // reads at 10
        em.publish_gre(20);
        let _ = em.begin_read(1); // reads at 20
        assert_eq!(em.min_active_epoch(), 10);
        em.finish(0);
        assert_eq!(em.min_active_epoch(), 20);
        em.finish(1);
        assert_eq!(em.min_active_epoch(), 20, "idle workers fall back to GRE");
    }

    #[test]
    fn nested_transactions_on_one_worker_keep_the_oldest_epoch() {
        let em = EpochManager::new(1);
        em.publish_gre(5);
        let _ = em.begin_read(0); // epoch 5
        em.publish_gre(9);
        let _ = em.begin(0); // epoch 9, same worker
        assert_eq!(em.min_active_epoch(), 5, "slot must keep the minimum");
        em.finish(0);
        assert_eq!(em.min_active_epoch(), 5, "still one txn active");
        em.finish(0);
        assert_eq!(em.min_active_epoch(), 9, "idle → falls back to GRE");
    }

    #[test]
    fn reset_to_fast_forwards_both_epochs_monotonically() {
        let em = EpochManager::new(1);
        em.reset_to(42);
        assert_eq!(em.gre(), 42);
        assert_eq!(em.gwe(), 42);
        em.reset_to(10); // never goes backwards
        assert_eq!(em.gre(), 42);
        assert_eq!(em.gwe(), 42);
        assert_eq!(em.advance_gwe(), 43);
    }

    #[test]
    fn read_epoch_never_exceeds_write_epoch_guarantee() {
        // The protocol invariant "TRE < TWE of any ongoing transaction" is
        // maintained by advancing GWE before assigning TWE and publishing
        // GRE only after apply; here we check the counters themselves.
        let em = EpochManager::new(1);
        for _ in 0..100 {
            let twe = em.advance_gwe();
            em.publish_gre(twe);
            let (tre, _) = em.begin(0);
            assert!(tre <= em.gwe());
            em.finish(0);
        }
    }
}
