//! Block storage layer for the LiveGraph reproduction.
//!
//! LiveGraph (VLDB 2020, §6) stores all graph data — vertex blocks, label
//! index blocks and Transactional Edge Logs (TELs) — inside a single large
//! memory-mapped region managed by a buddy-style allocator: every block has a
//! power-of-two size (minimum 64 bytes), free blocks are kept in per-size
//! free lists, and small-block free lists are partitioned to avoid
//! contention between worker threads.
//!
//! This crate provides that layer:
//!
//! * [`Region`] — a fixed virtual-address-space reservation of anonymous
//!   memory (`mmap`), so raw block pointers stay valid for the lifetime of
//!   the store.
//! * [`BlockStore`] — power-of-two block allocation on top of a [`Region`]
//!   with sharded small-block free lists and a shared large-block free list,
//!   mirroring the paper's threshold `m` design.
//! * [`ColdAccessSimulator`] — a user-level page-cache model used by the
//!   benchmark harness to simulate the paper's out-of-core experiments
//!   (which on the authors' testbed used cgroup memory caps) in a portable,
//!   deterministic way. The store itself is always in memory; durability
//!   comes from the WAL and checkpoints in `livegraph-core`.
//!
//! The TEL itself (layout, timestamps, Bloom filter) lives in
//! `livegraph-core`; this crate is deliberately unaware of what the blocks
//! contain.
//!
//! The workspace-level architecture map — TEL block layout, the commit
//! path, and the crate dependency graph — lives in `docs/ARCHITECTURE.md`
//! at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod block_store;
mod cold;
mod error;
mod region;
mod size_class;
mod stats;

pub use block_store::{BlockPtr, BlockStore, BlockStoreOptions, NULL_BLOCK};
pub use cold::{ColdAccessSimulator, ColdAccessStats};
pub use error::StorageError;
pub use region::Region;
pub use size_class::{order_for_size, size_for_order, MAX_ORDER, MIN_BLOCK_SIZE};
pub use stats::{BlockStoreStats, SizeClassStats};

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
