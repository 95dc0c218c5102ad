#![warn(missing_docs)]
//! Simulated RDMA NIC and fabric for the CoRM reproduction.
//!
//! The defining property of RDMA that CoRM (§3.5) engineers around is that
//! the NIC translates virtual addresses with its **own** Memory Translation
//! Table (MTT), populated when memory is registered — *not* with the OS page
//! table. After compaction remaps a virtual page, the two disagree until the
//! MTT is explicitly updated, and one-sided reads silently hit the wrong
//! physical frame. This crate reproduces that hazard and the three repair
//! strategies the paper evaluates:
//!
//! 1. **`ibv_rereg_mr`** — re-snapshot the MTT, preserving keys, but any
//!    access during the re-registration window breaks the queue pair
//!    (observed by the authors on ConnectX-3/5, per the InfiniBand spec).
//! 2. **ODP** — the NIC lazily refetches stale translations from the OS at a
//!    large first-access cost (~63 µs on ConnectX-5).
//! 3. **ODP + `ibv_advise_mr` prefetch** — translations are pushed ahead of
//!    time (~4.5 µs), avoiding the miss. CoRM's default.
//!
//! Components:
//! - [`LatencyModel`]: per-device/per-CPU virtual-time costs calibrated to
//!   the paper's microbenchmarks (Figs. 8, 9, 15).
//! - [`Rnic`]: memory regions with `l_key`/`r_key`, the MTT, ODP regions,
//!   an LRU translation cache (the Zipf-locality effect of Fig. 12), and
//!   one-sided READ/WRITE verbs executed against physical frames.
//! - [`QueuePair`]: reliable connection semantics — invalid accesses move
//!   the QP to the error state and reconnecting costs milliseconds. QPs
//!   also expose the batched READ path, one synchronous doorbell:
//!   `read_batch_into` admits a caller-held batch of [`ReadReq`]s into the
//!   RNIC's engine scheduler for one doorbell cost plus per-WQE service and
//!   lands the payloads in the caller's buffers, one [`ReadResult`] per
//!   request. Every client, server path and figure uses it. `post`,
//!   `ring_doorbell` and `poll_cq` are a queued façade over the same
//!   doorbell, handing back [`Completion`]s; only the benchmark's
//!   `sim_rdma.batch_queued_ns_per_wqe` cell still calls it.
//!
//! The two-sided RPC path has no fabric here: the event-driven harness calls
//! the server's handlers directly, and the threaded CoRM server owns its
//! per-worker queues (`corm_core::server::threaded`).

mod fault;
mod latency;
mod mtt;
mod mux;
mod qp;
pub mod rnic;
mod sched;
mod wq;

pub use fault::{FaultConfig, FaultInjector, FaultKind, ScheduledFault};
pub use latency::{LatencyModel, MttUpdateStrategy};
pub use mux::{MuxQp, MuxTenant};
pub use qp::{QpState, QueuePair};
pub use rnic::{MemoryRegion, RdmaError, Rnic, RnicConfig, VerbOutcome};
pub use sched::{QosConfig, TrafficClass};
pub use wq::{Completion, ReadReq, ReadResult};
