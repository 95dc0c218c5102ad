//! `corm-trace`: always-on, low-overhead structured tracing + metrics for
//! the CoRM simulator, keyed to **virtual time**.
//!
//! The paper's evaluation (Figs. 9–13) is a latency-*breakdown* story:
//! the §3.5 MTT-update strategies differ only in *where* per-op
//! microseconds land, and NP-RDMA's measured anchors (0.25 µs doorbell,
//! ODP miss costs) are per-stage quantities. This crate attributes every
//! simulated nanosecond to a stage of the cross-layer taxonomy
//! ([`Stage`]) — client op → WQE post → doorbell → engine-unit service →
//! MTT lookup/miss → fault draw/backoff → RPC queue wait → worker serve →
//! registry resolve → compaction — and exports the result as a Perfetto
//! trace, a per-stage p50/p99/p999 table, and a diffable canonical text
//! artifact.
//!
//! Design rules (see `DESIGN.md` §10):
//!
//! 1. **Virtual time is primary.** Span timestamps are the simulation's
//!    existing [`SimTime`](corm_sim_core::time::SimTime) values; wall time
//!    is a secondary clock confined to aggregate counters.
//! 2. **Recording is observational.** No RNG draws, no virtual-time cost,
//!    no wall-clock reads on the event path — seeded replay stays
//!    byte-identical with tracing enabled, and `trace diff` proves it.
//! 3. **Disabled is free-ish.** [`TraceHandle::default()`] is a `None`
//!    check per call site; configs embed a handle without extra plumbing.

#![warn(missing_docs)]

mod diff;
mod export;
mod recorder;
mod stage;

pub use diff::{diff_canonical, diff_events, TraceDiff};
pub use export::{
    breakdown, canonical_lines, perfetto_json, reconcile, render_breakdown, validate_perfetto,
    Reconciliation, StageRow,
};
pub use recorder::{Event, StageTotal, TraceHandle};
pub use stage::{Stage, Track};
