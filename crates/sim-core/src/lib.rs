#![warn(missing_docs)]
//! Deterministic discrete-event simulation engine for the CoRM reproduction.
//!
//! The CoRM paper reports latencies and throughputs measured on an InfiniBand
//! testbed. This crate provides the substrate that lets us reproduce the
//! *shape* of those results without the hardware:
//!
//! - [`SimTime`] / [`SimDuration`]: a nanosecond-resolution virtual clock.
//! - [`EventQueue`]: a monotonic future-event list used to drive closed-loop
//!   client simulations (YCSB, throughput timelines).
//! - [`FifoResource`]: a multi-server FIFO queueing resource used to model
//!   server worker pools and the RNIC inbound engine.
//! - [`rng`]: seeded, reproducible random number utilities.
//! - [`stats`]: percentile estimation and time-bucketed series used by the
//!   benchmark harness.
//! - [`hash`]: a fast deterministic hasher for the simulator's hot lookup
//!   tables (`PagedTable` directories, the block directory, histograms).
//! - [`prefetch_read`], [`prefetch_lines`]: the cache hint that lets a
//!   doorbell's requests, and the closed loop's queued ops, miss side by
//!   side.
//!
//! Everything here is deterministic: the same seed and the same sequence of
//! calls produce bit-identical results, which the test suite relies on.

pub mod hash;
mod hint;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use hash::{FastHashMap, FastHasher};
pub use hint::{prefetch_lines, prefetch_read};
pub use queue::EventQueue;
pub use resource::FifoResource;
pub use stats::{Histogram, TimeSeries};
pub use time::{SimDuration, SimTime};
