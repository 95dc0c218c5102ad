#![warn(missing_docs)]
//! CoRM: Compactable Remote Memory over RDMA.
//!
//! This crate implements the paper's system proper (§3): a shared-memory
//! server whose objects are remotely readable with one-sided RDMA *and*
//! relocatable by memory compaction, without indirection tables and without
//! ever invalidating the pointers or `r_key`s clients hold.
//!
//! The pieces:
//! - [`ptr`]: the 128-bit object pointers returned by `Alloc` (virtual
//!   address + `r_key` + block-local object ID + size class).
//! - [`header`]: the 8-byte on-memory object header (ID, version, 2-bit
//!   lock state, home-block address for virtual-address reuse, §3.3).
//! - [`consistency`]: FaRM-style cacheline versioning (§3.2.3) that lets
//!   lock-free RDMA readers detect torn or in-compaction objects.
//! - [`server`]: the CoRM node — worker-owned allocators, RPC handlers with
//!   transparent pointer correction (§3.2.1), the two-stage compaction
//!   leader (§3.1.4), RDMA-safe page remapping (§3.5), and virtual-address
//!   lifecycle tracking (§3.3).
//! - [`client`]: the Table 2 API (`Alloc`/`Free`/`Read`/`Write`/
//!   `DirectRead`/`ScanRead`/`ReleasePtr`) with client-side pointer
//!   correction for one-sided reads (§3.2.2).
//!
//! All operations return [`Timed`] values carrying their virtual-time cost,
//! so the same code drives both the threaded execution mode and the
//! event-driven reproduction of the paper's figures.

pub mod client;
pub mod consistency;
pub mod header;
pub mod ptr;
pub mod server;

pub use client::{CormClient, ReadOutcome};
pub use header::ObjectHeader;
pub use ptr::GlobalPtr;
pub use server::{
    lookahead::Lookahead, CompactionReport, CormError, CormServer, CorrectionStrategy, ServerConfig,
};

use corm_sim_core::time::SimDuration;

/// A value paired with the virtual time its production cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The operation's result.
    pub value: T,
    /// Virtual-time cost of the operation.
    pub cost: SimDuration,
}

impl<T> Timed<T> {
    /// Wraps `value` with `cost`.
    pub fn new(value: T, cost: SimDuration) -> Self {
        Timed { value, cost }
    }

    /// Maps the value, keeping the cost.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed { value: f(self.value), cost: self.cost }
    }

    /// Adds extra cost.
    pub(crate) fn add_cost(mut self, extra: SimDuration) -> Self {
        self.cost += extra;
        self
    }
}
