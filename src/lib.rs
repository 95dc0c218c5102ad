#![warn(missing_docs)]
//! # CoRM: Compactable Remote Memory over RDMA
//!
//! A Rust reproduction of *CoRM: Compactable Remote Memory over RDMA*
//! (Taranov, Di Girolamo, Hoefler — SIGMOD 2021): a shared-memory system
//! whose objects are remotely readable with one-sided RDMA **and**
//! relocatable by memory compaction, without indirection tables and
//! without invalidating the pointers or `r_key`s clients hold.
//!
//! Real RDMA hardware is replaced by a faithful simulated substrate (see
//! `DESIGN.md`): a physical frame table, memfd-style files, per-process
//! page tables, and an RNIC with its own memory translation table, ODP,
//! and calibrated latencies — preserving every hazard the paper's design
//! navigates.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use corm::core::server::{CormServer, ServerConfig};
//! use corm::core::CormClient;
//! use corm::sim_core::time::SimTime;
//!
//! // Boot a CoRM node over simulated memory and connect (CreateCtx).
//! let server = Arc::new(CormServer::new(ServerConfig::default()));
//! let mut client = CormClient::connect(server.clone());
//!
//! // Alloc / Write / DirectRead / Free — the Table 2 API.
//! let mut ptr = client.alloc(64).unwrap().value;
//! client.write(&mut ptr, b"hello remote memory").unwrap();
//! let mut buf = [0u8; 19];
//! let n = client
//!     .direct_read_with_recovery(&mut ptr, &mut buf, SimTime::ZERO)
//!     .unwrap()
//!     .value;
//! assert_eq!(&buf[..n], b"hello remote memory");
//! client.free(&mut ptr).unwrap();
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `corm-core` | the CoRM server/client (the paper's contribution) |
//! | [`alloc`] | `corm-alloc` | two-level concurrent allocator |
//! | [`compact`] | `corm-compact` | compaction strategies & probability theory |
//! | [`workloads`] | `corm-workloads` | YCSB, synthetic and Redis traces |
//! | [`sim_core`] | `corm-sim-core` | discrete-event engine |
//! | [`sim_mem`] | `corm-sim-mem` | simulated OS memory |
//! | [`sim_rdma`] | `corm-sim-rdma` | simulated RNIC + fabric |

pub use corm_alloc as alloc;
pub use corm_compact as compact;
pub use corm_core as core;
pub use corm_sim_core as sim_core;
pub use corm_sim_mem as sim_mem;
pub use corm_sim_rdma as sim_rdma;
pub use corm_workloads as workloads;

// The paper's baselines (§4.2, Figs. 9–11) are configurations and calls of
// the substrate, not types of their own: FaRM is a `CormServer` with
// compaction off, raw RDMA is `QueuePair::read`, and the RPC and memcpy
// floors are `LatencyModel` costs. The two modules below pin each mapping.

#[cfg(test)]
mod farm {
    mod tests {
        use crate::core::server::{CormServer, ServerConfig};
        use crate::core::CormClient;
        use crate::sim_core::time::SimTime;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        #[test]
        fn farm_never_compacts() {
            // FaRM is CoRM with compaction off (§4.2, footnote 2).
            let farm = Arc::new(CormServer::new(ServerConfig {
                workers: 1,
                frag_threshold: f64::INFINITY,
                ..ServerConfig::default()
            }));
            let mut client = CormClient::connect(farm.clone());
            // Fragment heavily.
            let mut ptrs: Vec<_> = (0..256).map(|_| client.alloc(48).unwrap().value).collect();
            for p in ptrs.iter_mut().skip(1) {
                client.free(p).unwrap();
            }
            // The compaction trigger does nothing under an infinite threshold.
            let reports = farm.compact_if_fragmented(SimTime::ZERO).unwrap();
            assert!(reports.is_empty(), "FaRM must never compact");
            assert_eq!(farm.stats.compaction_blocks_freed.load(Ordering::Relaxed), 0);
            // The surviving object still reads back through the direct path.
            client.write(&mut ptrs[0], b"farm object").unwrap();
            let mut buf = [0u8; 11];
            let n = client
                .direct_read_with_recovery(&mut ptrs[0], &mut buf, SimTime::ZERO)
                .unwrap()
                .value;
            assert_eq!(&buf[..n], b"farm object");
        }
    }
}

#[cfg(test)]
mod raw {
    mod tests {
        use crate::sim_core::time::SimTime;
        use crate::sim_mem::{AddressSpace, PhysicalMemory};
        use crate::sim_rdma::{LatencyModel, QueuePair, Rnic, RnicConfig};
        use std::sync::Arc;

        #[test]
        fn raw_rdma_reads_bytes_without_validation() {
            let pm = Arc::new(PhysicalMemory::new());
            let frames = pm.alloc_n(1).unwrap();
            let aspace = Arc::new(AddressSpace::new(pm));
            let va = aspace.mmap(&frames).unwrap();
            let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
            let (mr, _) = rnic.register(va, 1, false).unwrap();
            aspace.write(va, b"raw!").unwrap();
            let qp = QueuePair::connect(rnic);
            let mut buf = [0u8; 4];
            let cold = qp.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap().latency;
            assert_eq!(&buf, b"raw!");
            // Raw read of a small object with warm cache ≈ 1.7 us.
            let warm = qp.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap().latency;
            assert!(warm < cold);
            assert!((warm.as_micros_f64() - 1.7).abs() < 0.2, "{warm}");
        }

        #[test]
        fn memcpy_copies_and_costs_scale() {
            let m = LatencyModel::connectx5();
            assert!(m.memcpy_cost(2048) > m.memcpy_cost(8));
            // A local copy is the floor under every remote read.
            assert!(m.memcpy_cost(8) < m.rdma_read_latency(8, true));
        }
    }
}
