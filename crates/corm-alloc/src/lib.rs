#![warn(missing_docs)]
//! CoRM's concurrent memory allocator (§2.1, §3.1.1).
//!
//! The allocator follows the classic two-level CMA architecture the paper
//! describes: every worker thread owns a [`ThreadAllocator`] serving
//! allocations from its own blocks without global synchronization, and a
//! shared [`ProcessAllocator`] hands out *blocks* — runs of pages carved
//! from 16 MiB memfd files — when a thread-local heap runs dry.
//!
//! Blocks store objects of exactly one size class. Classes are 8-byte
//! aligned and chosen to bound internal fragmentation (§3.1.1). Every block
//! keeps the metadata CoRM's compaction needs: a slot→ID array and the
//! open-addressed ID→slot table used for fast pointer correction
//! (§3.1.4), which are also what merges are planned on.
//!
//! Layering note: this crate knows nothing about RDMA. Registration keys
//! are attached to blocks by the CoRM server (`corm-core`), which owns the
//! simulated RNIC.

mod block;
mod classes;
pub mod process;
mod room;
mod stats;
pub mod thread_alloc;

pub use block::{Block, BlockId};
pub use classes::{ClassId, SizeClasses};
pub use process::{AllocConfig, AllocError, PhysBlock, ProcessAllocator};
pub use stats::{ClassStats, FragmentationReport};
pub use thread_alloc::ThreadAllocator;
