#![warn(missing_docs)]
//! Simulated OS memory subsystem for the CoRM reproduction.
//!
//! CoRM's compaction trick rests on three OS facilities: anonymous
//! `memfd_create` files that give physical pages an identity, `mmap` that
//! binds virtual pages to them, and remapping that lets *two different
//! virtual addresses alias one physical page* after compaction. This crate
//! models those facilities precisely enough that the hazards the paper
//! engineers around are real here too:
//!
//! - [`PhysicalMemory`]: a reference-counted frame table. Freed frames are
//!   poisoned, so any stale translation (e.g. an RNIC MTT entry that was not
//!   updated after a remap) observably reads garbage.
//! - [`MemFile`]: a memfd-style anonymous file — a named sequence of frames.
//!   CoRM identifies physical blocks as (file, page offset) tuples.
//! - [`AddressSpace`]: a per-process page table with `mmap`, `munmap`,
//!   `remap`, fixed-address mapping (for virtual-address reuse, §3.3), and
//!   per-page epochs that the simulated RNIC's ODP machinery checks for
//!   staleness.
//! - [`PagedTable`]: the directory-of-leaves table behind the page table,
//!   shared with the simulated RNIC's MTT and region table.
//!
//! Frame bytes are relaxed atomics: concurrent CPU stores and (simulated)
//! DMA reads race by design, so torn reads across cachelines are observable
//! — that is exactly what FaRM/CoRM cacheline versioning exists to detect.

mod file;
pub mod paged;
mod phys;
pub mod tier;
mod vspace;

pub use file::{FileId, MemFile};
pub use paged::PagedTable;
pub use phys::{
    DmaSession, FrameId, MemError, PhysicalMemory, Residency, ResidencySnapshot, PAGE_SIZE,
};
pub use tier::{FarTier, TierConfig, TierStats};
pub use vspace::{AddressSpace, FrameBuf, PageSpan, Translation};
