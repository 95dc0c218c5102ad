#![warn(missing_docs)]
//! Comparison baselines for the CoRM evaluation.
//!
//! The paper compares CoRM against:
//! - **FaRM** (§4.2, footnote 2): not open source, so the authors emulated
//!   it — the same two-level allocator and cacheline-versioned one-sided
//!   reads, but *no compaction*. [`farm::FarmServer`] does exactly that on
//!   top of the `corm-core` machinery.
//! - **Raw RDMA** reads (no consistency check) and **raw RPC** round trips
//!   — the hardware floors in Figs. 9–11. See [`RawRdmaClient`] and
//!   [`RpcEcho`].
//! - **Local `memcpy`** — the local-access floor in Fig. 11.

pub mod farm;
mod raw;

pub use farm::FarmServer;
pub use raw::{LocalMemcpy, RawRdmaClient, RpcEcho};
