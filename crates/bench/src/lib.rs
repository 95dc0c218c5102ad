//! Benchmark harness regenerating every table and figure of the CoRM paper.
//!
//! The figures are entries of one registry under one driver
//! (`src/bin/figures`, run with `cargo run -p corm-bench --release --bin
//! figures [--trace] [name…]`); this library holds the shared machinery:
//!
//! - [`report`]: the typed row sheet behind every aligned table, CSV and
//!   JSON row in `results/`, plus JSON metrics snapshots.
//! - [`sim`]: the closed-loop event-driven simulator that drives the *real*
//!   `corm-core` server/client code under virtual time, with queueing at
//!   the RPC ingress, the worker pool, and the RNIC inbound engine.
//! - [`setup`]: common population helpers (load N objects of a size,
//!   fragment heaps) and the batched-read stream the multi-get figures
//!   share.
//! - [`simspeed`]: four fixed seeded cells whose fingerprints gate the
//!   simulator's determinism.
//!
//! Scaling note: where the paper loads 8–16 M objects and measures for a
//! minute of wall-clock, the harness defaults to proportionally smaller
//! populations and windows (with the RNIC translation cache scaled by the
//! same factor), which preserves hit ratios and therefore the *shapes* the
//! paper reports. Every figure prints the scale it ran at;
//! EXPERIMENTS.md records paper-vs-measured values.

pub mod report;
pub mod setup;
pub mod sim;
pub mod simspeed;

pub use report::Sheet;
pub use setup::{populate_server, PopulatedStore};
pub use sim::{ClosedLoopSpec, ReadPath, SimOutput};
