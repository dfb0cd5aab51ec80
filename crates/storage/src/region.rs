//! Fixed-size anonymous memory regions.
//!
//! LiveGraph keeps all blocks inside "a single large memory-mapped file"
//! (§6). A [`Region`] reserves the whole capacity up front with an
//! anonymous `mmap`, so block pointers (offsets into the region) can be
//! translated to raw pointers that remain stable for the lifetime of the
//! region. Pages are allocated lazily by the OS on first touch, so reserving
//! a large capacity is cheap. This reproduction is in-memory: durability
//! comes from the WAL and checkpoints, not from the region's bytes, and the
//! paper's out-of-core experiments are modelled by
//! [`ColdAccessSimulator`](crate::ColdAccessSimulator).

use memmap2::MmapMut;

use crate::Result;

/// A fixed-capacity, never-remapped byte region of anonymous memory.
///
/// All access goes through raw pointers handed out by [`Region::as_ptr`];
/// higher layers are responsible for synchronising concurrent access to the
/// bytes (the block store guarantees that distinct live blocks never alias).
#[derive(Debug)]
pub struct Region {
    map: MmapMut,
}

impl Region {
    /// Reserves `capacity` bytes of anonymous memory.
    pub fn anonymous(capacity: usize) -> Result<Self> {
        Ok(Self { map: MmapMut::map_anon(capacity)? })
    }

    /// Total capacity of the region in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.map.len()
    }

    /// Raw pointer to the start of the region.
    ///
    /// The pointer is valid for `capacity()` bytes and remains stable for the
    /// lifetime of the region.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.map.as_ptr() as *mut u8
    }
}

// SAFETY: the region is a plain byte arena; synchronisation of the bytes is
// the responsibility of the layers that hand out disjoint blocks.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_region_is_zeroed_and_writable() {
        let region = Region::anonymous(1 << 16).unwrap();
        assert_eq!(region.capacity(), 1 << 16);
        let ptr = region.as_ptr();
        unsafe {
            assert_eq!(*ptr, 0);
            *ptr = 0xAB;
            assert_eq!(*ptr, 0xAB);
            assert_eq!(*ptr.add(region.capacity() - 1), 0);
        }
    }
}
