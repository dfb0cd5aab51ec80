//! Error type for the storage layer.

use std::fmt;
use std::io;

/// Errors produced by the block storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// The backing region is exhausted: a block allocation would exceed the
    /// reserved capacity.
    OutOfSpace {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Total capacity of the region in bytes.
        capacity: usize,
    },
    /// A block size or order outside the supported range was requested.
    InvalidSizeClass {
        /// The offending order.
        order: u8,
    },
    /// An I/O error from the operating system (the region's `mmap`).
    Io(io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfSpace {
                requested,
                capacity,
            } => write!(
                f,
                "block store out of space: requested {requested} bytes, capacity {capacity} bytes"
            ),
            StorageError::InvalidSizeClass { order } => {
                write!(f, "invalid block size class (order {order})")
            }
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_space() {
        let e = StorageError::OutOfSpace {
            requested: 128,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("128"));
        assert!(s.contains("64"));
    }

    #[test]
    fn display_invalid_size_class() {
        let e = StorageError::InvalidSizeClass { order: 99 };
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        let e: StorageError = io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }
}
