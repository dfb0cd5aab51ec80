//! Blocked Bloom filter embedded in TEL headers.
//!
//! §4 of the paper: every TEL block larger than 256 bytes reserves 1/16 of
//! its capacity for a Bloom filter over destination vertex IDs, so that edge
//! *insertions* (the common case) can skip the tail-to-head log scan that
//! updates and deletions need. A *blocked* implementation is used for cache
//! efficiency: each key maps to a single 64-byte block of the filter and all
//! of its probe bits live inside that cache line.
//!
//! The filter lives inside raw TEL block memory, so this module operates on
//! a `*mut u8` region. Bits are set and read through `AtomicU64` words: a
//! concurrent reader may miss a bit that is being set (and then take the
//! conservative scan path), but it can never observe a torn word, so false
//! negatives for *committed* data cannot occur — inserts into the filter
//! happen while the vertex lock is held and before the entry becomes visible.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per filter block (one cache line).
pub const BLOOM_BLOCK_BYTES: usize = 64;
/// Number of probe bits set per key.
pub const BLOOM_PROBES: usize = 8;
/// TEL blocks of at least this many bytes carry a Bloom filter (paper: 256).
pub const MIN_TEL_SIZE_FOR_BLOOM: usize = 512;

/// Returns the Bloom filter size (bytes) for a TEL block of `block_size`
/// bytes: 1/16 of the block, rounded down to a whole number of 64-byte
/// filter blocks, or 0 for small TELs.
#[inline]
pub fn bloom_bytes_for_block(block_size: usize) -> usize {
    if block_size < MIN_TEL_SIZE_FOR_BLOOM {
        return 0;
    }
    let bytes = block_size / 16;
    bytes - (bytes % BLOOM_BLOCK_BYTES)
}

/// A view over a blocked Bloom filter stored in raw memory.
///
/// The view does not own the memory; the caller guarantees the region
/// `[ptr, ptr + len)` is valid for the lifetime of the view and is only
/// accessed through `BloomFilter` (or is otherwise synchronised).
pub struct BloomFilter {
    ptr: *mut u8,
    len: usize,
}

impl BloomFilter {
    /// Creates a view over `len` bytes at `ptr`.
    ///
    /// # Safety
    /// `ptr` must be valid for reads and writes of `len` bytes, 8-byte
    /// aligned, and must stay valid for the lifetime of the returned view.
    pub unsafe fn from_raw(ptr: *mut u8, len: usize) -> Self {
        debug_assert_eq!(ptr as usize % 8, 0, "bloom region must be 8-byte aligned");
        debug_assert_eq!(len % BLOOM_BLOCK_BYTES, 0);
        Self { ptr, len }
    }

    /// True if this filter has zero capacity (small TELs carry no filter).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-byte filter blocks.
    #[inline]
    fn num_blocks(&self) -> usize {
        self.len / BLOOM_BLOCK_BYTES
    }

    /// Inserts a key into the filter. A filter has one writer at a time:
    /// the thread holding its vertex's lock, or the thread filling a block
    /// no other thread can reach yet.
    pub fn insert(&self, key: u64) {
        if self.is_empty() {
            return;
        }
        let (block, mut h) = self.block_and_hash(key);
        for _ in 0..BLOOM_PROBES {
            let (word, mask) = next_probe(key, &mut h);
            let word = self.word(block, word);
            // ORDERING: Relaxed — the vertex lock makes this thread the
            // filter's only writer, so a plain load, or and store loses no
            // bits and needs no locked read-modify-write. Bloom bits are
            // advisory: a racing reader that misses a bit takes the
            // conservative scan path.
            word.store(word.load(Ordering::Relaxed) | mask, Ordering::Relaxed);
        }
    }

    /// Returns `false` if the key is definitely absent, `true` if it *may*
    /// be present.
    pub fn may_contain(&self, key: u64) -> bool {
        if self.is_empty() {
            // No filter → always take the conservative path.
            return true;
        }
        let (block, mut h) = self.block_and_hash(key);
        for _ in 0..BLOOM_PROBES {
            let (word, mask) = next_probe(key, &mut h);
            // ORDERING: Relaxed — entries below the committed log size are
            // published by LS's Release store, never through bloom bits;
            // stale bits only cost an extra scan.
            if self.word(block, word).load(Ordering::Relaxed) & mask == 0 {
                return false;
            }
        }
        true
    }

    /// Clears all bits (used when a TEL is compacted into a fresh block).
    pub fn clear(&self) {
        for block in 0..self.num_blocks() {
            for word in 0..BLOOM_BLOCK_BYTES / 8 {
                // ORDERING: Relaxed — runs on private (compaction) blocks.
                self.word(block, word).store(0, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn block_and_hash(&self, key: u64) -> (usize, u64) {
        let h = splitmix64(key);
        let block = (h % self.num_blocks() as u64) as usize;
        (block, h ^ (h >> 32))
    }

    #[inline]
    fn word(&self, block: usize, word: usize) -> &AtomicU64 {
        debug_assert!(block < self.num_blocks());
        debug_assert!(word < BLOOM_BLOCK_BYTES / 8);
        // SAFETY: within the region per the constructor contract; 8-aligned.
        unsafe {
            let p = self.ptr.add(block * BLOOM_BLOCK_BYTES + word * 8) as *const AtomicU64;
            &*p
        }
    }
}

/// The next probe of `key` within its filter block: the word index and the
/// bit mask, taking 9 bits of the running hash `h` (512 bits per block).
#[inline]
fn next_probe(key: u64, h: &mut u64) -> (usize, u64) {
    let bit = (*h & 0x1FF) as usize;
    *h >>= 9;
    if *h == 0 {
        *h = splitmix64(key ^ h.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
    (bit / 64, 1u64 << (bit % 64))
}

/// SplitMix64 hash (public-domain constants), good avalanche for vertex IDs.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    struct OwnedBloom {
        buf: Vec<u64>,
    }

    impl OwnedBloom {
        fn new(bytes: usize) -> Self {
            Self {
                buf: vec![0u64; bytes / 8],
            }
        }
        fn view(&self) -> BloomFilter {
            unsafe { BloomFilter::from_raw(self.buf.as_ptr() as *mut u8, self.buf.len() * 8) }
        }
    }

    #[test]
    fn sizing_follows_the_paper() {
        assert_eq!(bloom_bytes_for_block(64), 0);
        assert_eq!(bloom_bytes_for_block(256), 0);
        assert_eq!(bloom_bytes_for_block(512), 0); // 512/16 = 32 < one filter block
        assert_eq!(bloom_bytes_for_block(1024), 64);
        assert_eq!(bloom_bytes_for_block(4096), 256);
        assert_eq!(bloom_bytes_for_block(1 << 20), (1 << 20) / 16);
    }

    #[test]
    fn no_false_negatives() {
        let owned = OwnedBloom::new(256);
        let bloom = owned.view();
        for key in 0..500u64 {
            bloom.insert(key * 7919);
        }
        for key in 0..500u64 {
            assert!(bloom.may_contain(key * 7919), "inserted key must be found");
        }
    }

    #[test]
    fn empty_filter_is_conservative() {
        let owned = OwnedBloom::new(0);
        let bloom = owned.view();
        bloom.insert(1); // no-op
        assert!(bloom.may_contain(42), "no filter → must say maybe");
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let owned = OwnedBloom::new(1024); // 8192 bits
        let bloom = owned.view();
        for key in 0..500u64 {
            bloom.insert(key);
        }
        let fp = (10_000..20_000u64).filter(|&k| bloom.may_contain(k)).count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.15, "false positive rate too high: {rate}");
    }

    #[test]
    fn clear_resets_all_bits() {
        let owned = OwnedBloom::new(256);
        let bloom = owned.view();
        for key in 0..64u64 {
            bloom.insert(key);
        }
        bloom.clear();
        let present = (0..64u64).filter(|&k| bloom.may_contain(k)).count();
        assert_eq!(present, 0, "cleared filter must reject everything");
    }

    proptest! {
        /// Whatever keys are inserted, none of them is ever reported absent.
        #[test]
        fn prop_no_false_negatives(keys in proptest::collection::vec(any::<u64>(), 1..200)) {
            let owned = OwnedBloom::new(512);
            let bloom = owned.view();
            for &k in &keys {
                bloom.insert(k);
            }
            for &k in &keys {
                prop_assert!(bloom.may_contain(k));
            }
        }
    }
}
