#![warn(missing_docs)]
//! Compaction strategies and theory for CoRM (§3.1.2–§3.4, §4.4).
//!
//! This crate is the pure-algorithmic heart of the paper's contribution,
//! independent of the RDMA data path:
//!
//! - [`BitSet`]: fast fixed-size bitsets for conflict checks.
//! - [`BlockModel`]: an abstract view of a memory block — which object IDs and
//!   which slot offsets are occupied — sufficient to decide compactability.
//! - [`pairing`]: the greedy lowest-occupancy-first merge pass CoRM's
//!   compaction leader runs over collected blocks.
//! - [`strategy`]: the compaction rules compared in the evaluation —
//!   no-compaction, ideal, Mesh (offset conflicts), CoRM-n (random-ID
//!   conflicts), CoRM-0 (offset conflicts with CoRM's header), and the
//!   hybrid CoRM-0+CoRM-n scheme of §4.4.1.
//! - [`compaction_probability`]: the closed-form compaction probability
//!   `p(B1,B2) = C(n-b1, b2) / C(n, b2)` behind Fig. 7.
//! - [`header_bits`]: per-object metadata accounting behind Table 3.

mod bitset;
mod model;
mod overhead;
pub mod pairing;
mod probability;
pub mod strategy;

pub use bitset::BitSet;
pub use model::BlockModel;
pub use overhead::{header_bits, header_bytes};
pub use pairing::{compact_blocks, greedy_pass, CompactionOutcome, ConflictRule, GreedyPass};
pub use probability::{compaction_probability, corm_probability, mesh_probability};
pub use strategy::{CompactorKind, StrategyReport};
