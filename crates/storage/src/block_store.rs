//! Power-of-two block store with buddy-style free lists.
//!
//! This is the allocator described in §6 of the paper:
//!
//! * every block has a power-of-two size starting at 64 bytes;
//! * an array of free lists `L[i]` tracks recycled blocks of size `64 << i`;
//! * free lists for *small* classes (order ≤ `m`, default 14 → 1 MiB) are
//!   partitioned between threads to avoid contention on hot small-block
//!   allocation, while large classes share a single global list;
//! * new blocks are carved off the tail of the region only when the relevant
//!   free list is empty, so space freed by compaction is recycled first.
//!
//! Blocks never move and are only recycled through [`BlockStore::free`], so a
//! raw pointer obtained from [`BlockStore::block_ptr`] stays valid until the
//! owning layer explicitly frees the block (LiveGraph's compactor only does
//! so once no live transaction can reference it).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::region::Region;
use crate::size_class::{size_for_order, MAX_ORDER, MIN_BLOCK_SIZE};
use crate::stats::{BlockStoreStats, SizeClassStats};
use crate::{Result, StorageError};

/// A block pointer: byte offset of the block inside the store's region.
///
/// Offset `0` is reserved as the null pointer ([`NULL_BLOCK`]); the first
/// real block starts at `MIN_BLOCK_SIZE`.
pub type BlockPtr = u64;

/// The null block pointer.
pub const NULL_BLOCK: BlockPtr = 0;

/// Tracked size classes. Orders above this are rejected; a graph whose
/// single adjacency list needs more than `64 << 40` bytes (≈ 64 TiB) is out
/// of scope.
const TRACKED_ORDERS: usize = 41;

/// Configuration for a [`BlockStore`].
#[derive(Debug, Clone)]
pub struct BlockStoreOptions {
    /// Total capacity to reserve, in bytes.
    pub capacity: usize,
    /// Orders `<= small_class_threshold` use per-shard free lists; larger
    /// orders share one global list. This is the paper's tunable `m`.
    pub small_class_threshold: u8,
    /// Number of shards for small-class free lists (typically ≥ the number
    /// of worker threads).
    pub free_list_shards: usize,
}

impl Default for BlockStoreOptions {
    fn default() -> Self {
        Self {
            capacity: 1 << 30, // 1 GiB reserved; anonymous pages are lazy.
            small_class_threshold: 14,
            free_list_shards: 16,
        }
    }
}

struct SizeClassCounters {
    live: AtomicU64,
    total: AtomicU64,
    free: AtomicU64,
}

impl SizeClassCounters {
    fn new() -> Self {
        Self {
            live: AtomicU64::new(0),
            total: AtomicU64::new(0),
            free: AtomicU64::new(0),
        }
    }
}

/// Power-of-two block allocator over a fixed [`Region`].
pub struct BlockStore {
    region: Region,
    /// Bump pointer for fresh allocations (bytes). Starts at
    /// `MIN_BLOCK_SIZE` so offset 0 can serve as null.
    tail: AtomicUsize,
    small_threshold: u8,
    /// `small_free[shard][order]` for `order <= small_threshold`.
    small_free: Vec<Vec<Mutex<Vec<BlockPtr>>>>,
    /// `large_free[order - small_threshold - 1]` for larger orders.
    large_free: Vec<Mutex<Vec<BlockPtr>>>,
    counters: Vec<SizeClassCounters>,
    shard_counter: AtomicUsize,
}

thread_local! {
    /// Cached shard index for the current thread (assigned round-robin on
    /// first use per store; collisions across stores are harmless).
    static SHARD_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

impl BlockStore {
    /// Creates an in-memory (anonymous mapping) store with default options
    /// and the given capacity.
    pub fn in_memory(capacity: usize) -> Result<Self> {
        Self::with_options(BlockStoreOptions {
            capacity,
            ..Default::default()
        })
    }

    /// Creates an in-memory store from explicit options.
    pub fn with_options(options: BlockStoreOptions) -> Result<Self> {
        let region = Region::anonymous(options.capacity)?;
        let m = options.small_class_threshold.min(MAX_ORDER) as usize;
        let shards = options.free_list_shards.max(1);
        let small_free = (0..shards)
            .map(|_| (0..=m).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let large_free = (0..TRACKED_ORDERS.saturating_sub(m + 1))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let counters = (0..TRACKED_ORDERS).map(|_| SizeClassCounters::new()).collect();
        Ok(Self {
            region,
            tail: AtomicUsize::new(MIN_BLOCK_SIZE),
            small_threshold: m as u8,
            small_free,
            large_free,
            counters,
            shard_counter: AtomicUsize::new(0),
        })
    }

    /// Total reserved capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.region.capacity()
    }

    /// High-water mark of the bump allocator in bytes.
    pub fn bump_bytes(&self) -> usize {
        // ORDERING: Relaxed — statistics read; allocation correctness is
        // carried by the fetch_add's atomicity, not by this load.
        self.tail.load(Ordering::Relaxed)
    }

    /// Allocates a block of the given order. The contents are unspecified
    /// (possibly recycled); use [`BlockStore::allocate_zeroed`] if the caller
    /// relies on zero-initialised memory.
    pub fn allocate(&self, order: u8) -> Result<BlockPtr> {
        if order as usize >= TRACKED_ORDERS {
            return Err(StorageError::InvalidSizeClass { order });
        }
        if let Some(ptr) = self.pop_free(order) {
            // ORDERING: Relaxed — statistics counter, no publication.
            self.counters[order as usize].free.fetch_sub(1, Ordering::Relaxed);
            self.note_alloc(order);
            return Ok(ptr);
        }
        let size = size_for_order(order);
        // ORDERING: Relaxed — the RMW's atomicity makes ranges disjoint;
        // the block's contents are published via the index pointer
        // (Release) after initialisation, not via `tail`.
        let offset = self.tail.fetch_add(size, Ordering::Relaxed);
        if offset + size > self.region.capacity() {
            // Roll back so repeated failures do not overflow the counter.
            // ORDERING: Relaxed — same counter, atomicity suffices.
            self.tail.fetch_sub(size, Ordering::Relaxed);
            return Err(StorageError::OutOfSpace {
                requested: size,
                capacity: self.region.capacity(),
            });
        }
        self.note_alloc(order);
        Ok(offset as BlockPtr)
    }

    /// Allocates a block of the given order and zeroes its contents.
    pub fn allocate_zeroed(&self, order: u8) -> Result<BlockPtr> {
        let ptr = self.allocate(order)?;
        let size = size_for_order(order);
        // SAFETY: `ptr` was just allocated and is exclusively owned by the
        // caller; the range lies within the region.
        unsafe {
            std::ptr::write_bytes(self.block_ptr(ptr), 0, size);
        }
        Ok(ptr)
    }

    /// Returns a block of the given order to the appropriate free list.
    ///
    /// The caller must guarantee that no live reference into the block
    /// remains (in LiveGraph this is established by the compaction
    /// visibility rules).
    pub fn free(&self, ptr: BlockPtr, order: u8) {
        debug_assert_ne!(ptr, NULL_BLOCK, "cannot free the null block");
        debug_assert!((order as usize) < TRACKED_ORDERS);
        let c = &self.counters[order as usize];
        // ORDERING: Relaxed — statistics counters; the free list itself is
        // protected by its mutex below.
        c.live.fetch_sub(1, Ordering::Relaxed);
        c.free.fetch_add(1, Ordering::Relaxed);
        if order <= self.small_threshold {
            let shard = self.shard_index();
            self.small_free[shard][order as usize].lock().push(ptr);
        } else {
            self.large_free[(order - self.small_threshold - 1) as usize]
                .lock()
                .push(ptr);
        }
    }

    /// Translates a block pointer to a raw pointer into the region.
    ///
    /// # Safety contract (upheld by callers in `livegraph-core`)
    /// The returned pointer is valid for the block's size. Concurrent
    /// readers/writers must synchronise through the block's own atomics, as
    /// the TEL protocol does.
    #[inline]
    pub fn block_ptr(&self, ptr: BlockPtr) -> *mut u8 {
        debug_assert!((ptr as usize) < self.region.capacity());
        // SAFETY: offset is within the mapping (checked at allocation time).
        unsafe { self.region.as_ptr().add(ptr as usize) }
    }

    /// Snapshot of allocation statistics (Figure 7b block-size distribution).
    pub fn stats(&self) -> BlockStoreStats {
        let classes = self
            .counters
            .iter()
            .enumerate()
            // ORDERING: Relaxed — stats snapshot tolerates torn totals.
            .filter(|(_, c)| c.total.load(Ordering::Relaxed) > 0)
            .map(|(order, c)| SizeClassStats {
                order: order as u8,
                block_size: size_for_order(order as u8),
                // ORDERING: Relaxed — stats snapshot, see above.
                live_blocks: c.live.load(Ordering::Relaxed),
                free_blocks: c.free.load(Ordering::Relaxed),
                total_allocations: c.total.load(Ordering::Relaxed),
            })
            .collect();
        BlockStoreStats {
            classes,
            bump_bytes: self.bump_bytes(),
            capacity: self.capacity(),
        }
    }

    fn note_alloc(&self, order: u8) {
        let c = &self.counters[order as usize];
        // ORDERING: Relaxed — statistics counters, no publication.
        c.live.fetch_add(1, Ordering::Relaxed);
        c.total.fetch_add(1, Ordering::Relaxed);
    }

    fn pop_free(&self, order: u8) -> Option<BlockPtr> {
        if order <= self.small_threshold {
            let shard = self.shard_index();
            let shards = self.small_free.len();
            // Try the local shard first, then steal from the others.
            for i in 0..shards {
                let idx = (shard + i) % shards;
                if let Some(ptr) = self.small_free[idx][order as usize].lock().pop() {
                    return Some(ptr);
                }
            }
            None
        } else {
            self.large_free[(order - self.small_threshold - 1) as usize]
                .lock()
                .pop()
        }
    }

    fn shard_index(&self) -> usize {
        let shards = self.small_free.len();
        SHARD_HINT.with(|hint| {
            let mut v = hint.get();
            if v == usize::MAX {
                // ORDERING: Relaxed — round-robin shard assignment only
                // needs unique values, not ordering.
                v = self.shard_counter.fetch_add(1, Ordering::Relaxed);
                hint.set(v);
            }
            v % shards
        })
    }
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("capacity", &self.capacity())
            .field("bump_bytes", &self.bump_bytes())
            .field("small_threshold", &self.small_threshold)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let store = BlockStore::in_memory(1 << 20).unwrap();
        let mut seen = HashSet::new();
        for order in [0u8, 0, 1, 2, 0, 3] {
            let ptr = store.allocate(order).unwrap();
            assert_ne!(ptr, NULL_BLOCK);
            assert_eq!(ptr as usize % MIN_BLOCK_SIZE, 0, "64-byte alignment");
            assert!(seen.insert(ptr), "block pointers must be unique");
        }
    }

    #[test]
    fn freed_blocks_are_recycled_before_bumping() {
        let store = BlockStore::in_memory(1 << 20).unwrap();
        let a = store.allocate(3).unwrap();
        let bump_after_a = store.bump_bytes();
        store.free(a, 3);
        let b = store.allocate(3).unwrap();
        assert_eq!(a, b, "same-size allocation should reuse the freed block");
        assert_eq!(store.bump_bytes(), bump_after_a, "no new bump allocation");
    }

    #[test]
    fn large_blocks_use_the_global_list() {
        let options = BlockStoreOptions {
            capacity: 1 << 26,
            small_class_threshold: 2,
            free_list_shards: 4,
        };
        let store = BlockStore::with_options(options).unwrap();
        let big = store.allocate(5).unwrap();
        store.free(big, 5);
        assert_eq!(store.allocate(5).unwrap(), big);
    }

    #[test]
    fn allocate_zeroed_clears_recycled_contents() {
        let store = BlockStore::in_memory(1 << 20).unwrap();
        let ptr = store.allocate(1).unwrap();
        unsafe { std::ptr::write_bytes(store.block_ptr(ptr), 0xFF, 128) };
        store.free(ptr, 1);
        let again = store.allocate_zeroed(1).unwrap();
        assert_eq!(again, ptr);
        let slice = unsafe { std::slice::from_raw_parts(store.block_ptr(again), 128) };
        assert!(slice.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_space_is_reported_and_recoverable() {
        let store = BlockStore::in_memory(256).unwrap();
        // Capacity 256, first usable offset 64 → three 64-byte blocks fit.
        assert!(store.allocate(0).is_ok());
        assert!(store.allocate(0).is_ok());
        assert!(store.allocate(0).is_ok());
        let err = store.allocate(0).unwrap_err();
        assert!(matches!(err, StorageError::OutOfSpace { .. }));
        // Freeing one block makes allocation possible again.
        let stats_before = store.stats();
        assert_eq!(stats_before.classes[0].live_blocks, 3);
    }

    #[test]
    fn invalid_order_is_rejected() {
        let store = BlockStore::in_memory(1 << 16).unwrap();
        assert!(matches!(
            store.allocate(60),
            Err(StorageError::InvalidSizeClass { order: 60 })
        ));
    }

    #[test]
    fn stats_track_live_free_and_distribution() {
        let store = BlockStore::in_memory(1 << 20).unwrap();
        let a = store.allocate(0).unwrap();
        let _b = store.allocate(0).unwrap();
        let _c = store.allocate(2).unwrap();
        store.free(a, 0);
        let stats = store.stats();
        let class0 = stats.classes.iter().find(|c| c.order == 0).unwrap();
        let class2 = stats.classes.iter().find(|c| c.order == 2).unwrap();
        assert_eq!(class0.live_blocks, 1);
        assert_eq!(class0.free_blocks, 1);
        assert_eq!(class0.total_allocations, 2);
        assert_eq!(class2.live_blocks, 1);
        assert!(stats.occupancy() <= 1.0);
    }

    #[test]
    fn concurrent_allocation_yields_unique_blocks() {
        let store = Arc::new(BlockStore::in_memory(1 << 24).unwrap());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut ptrs = Vec::new();
                for i in 0..500u32 {
                    let order = (i % 3) as u8;
                    ptrs.push((store.allocate(order).unwrap(), order));
                }
                // Free half of them to exercise the free lists concurrently.
                for &(ptr, order) in ptrs.iter().step_by(2) {
                    store.free(ptr, order);
                }
                ptrs
            }));
        }
        let mut live = HashSet::new();
        for h in handles {
            for (i, (ptr, _)) in h.join().unwrap().into_iter().enumerate() {
                if i % 2 == 1 {
                    // Only the blocks we did not free must be globally unique.
                    assert!(live.insert(ptr), "live blocks must not alias");
                }
            }
        }
    }
}
