//! `ycsb_rdma` and `ycsb_rpc`: the program's own closed-loop simulator,
//! `corm_bench::sim::run_closed_loop`, over a 1 M-object store.
//!
//! 48 MiB of blocks is about 11.8 K pages, fewer than the RNIC's 16 K-entry
//! translation cache, so one-sided reads run the cache's hit path. Both
//! workloads share the driver, the store and the client count; they differ
//! in which half of the program does the work:
//!
//! - `ycsb_rdma` — Zipf 0.99, 95:5, one-sided reads. The event queue, the
//!   Zipf draw and `CormClient::direct_read` → QP → RNIC → DMA →
//!   `gather_into` do most of it; server handlers see the 5 % writes.
//! - `ycsb_rpc` — uniform keys, 50:50, RPC reads. Every operation is
//!   `CormServer::read` or `write`; the one-sided path does nothing, so a
//!   gain there must show no change here.

use std::time::Instant;

use corm_bench::setup::{populate_server, PopulatedStore};
use corm_bench::sim::{run_closed_loop, ClosedLoopSpec, ReadPath};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_sim_core::time::SimDuration;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use super::{pattern_of, space_amp, Counters, Kind, Round, SimRound, OBJECT_BYTES};
use crate::spans::{Name, Probe};

pub const OBJECTS: usize = 1_000_000;
/// Simulated closed-loop clients, one outstanding request each.
pub const CLIENTS: usize = 16;
/// The payload `run_closed_loop` writes.
const WRITE_BYTE: u8 = 0xA5;

pub struct Ycsb {
    pub store: PopulatedStore,
    spec: ClosedLoopSpec,
    events: u64,
    conflicts: u64,
    sim_reads: u64,
}

impl Ycsb {
    pub fn build(kind: Kind) -> Ycsb {
        let store = populate_server(ServerConfig::default(), OBJECTS, OBJECT_BYTES);
        // Virtual window per round, sized for about 0.35 s of host time:
        // ≈ 0.9 M events one-sided, ≈ 0.43 M events over RPC.
        let (dist, mix, read_path, window_ms) = match kind {
            Kind::YcsbRdma => (KeyDist::Zipf(0.99), Mix::READ_HEAVY, ReadPath::Rdma, 400),
            _ => (KeyDist::Uniform, Mix::BALANCED, ReadPath::Rpc, 600),
        };
        let spec = ClosedLoopSpec {
            duration: SimDuration::from_millis(window_ms),
            warmup: SimDuration::from_millis(20),
            read_path,
            value_len: OBJECT_BYTES,
            ..ClosedLoopSpec::new(Workload::new(OBJECTS as u64, dist, mix), CLIENTS)
        };
        Ycsb { store, spec, events: 0, conflicts: 0, sim_reads: 0 }
    }

    /// The key and mix generator the rounds draw from.
    pub fn workload(&self) -> &Workload {
        &self.spec.workload
    }

    pub fn round<P: Probe>(&mut self, seed: u64, probe: &mut P) -> Round {
        self.spec.seed = seed;
        let start = Instant::now();
        probe.enter(Name::SimLoop);
        let out = run_closed_loop(&self.store.server, &mut self.store.ptrs, &self.spec);
        probe.exit();
        let host_ns = start.elapsed().as_nanos() as u64;
        self.events += out.events;
        self.conflicts += out.conflicts;
        self.sim_reads += out.reads;
        let q = out.read_latency.quantiles(&[0.5, 0.99]).unwrap_or_else(|| vec![0.0; 2]);
        Round {
            host_ns,
            // One op is one queue pop: what the host pays for, whether the
            // pop became a completed request, a torn read or a retry.
            ops: out.events,
            // `run_closed_loop` panics on any operation error.
            failed: 0,
            sim: SimRound {
                ops: out.completed,
                virt_ns: self.spec.duration.as_nanos(),
                p50_us: q[0],
                p99_us: q[1],
                space_amp: space_amp(&self.store, OBJECTS),
                compact_ms: 0.0,
            },
        }
    }

    /// Every key must hold its populate pattern or the simulator's write
    /// payload.
    pub fn verify(&mut self) -> (u64, u64) {
        let mut client = CormClient::connect(self.store.server.clone());
        super::verify_by_direct_read(&mut self.store, &mut client, |key, got| {
            got == pattern_of(key) || got.iter().all(|&b| b == WRITE_BYTE)
        })
    }

    pub fn counters(&self) -> Counters {
        Counters {
            events: self.events,
            conflicts: self.conflicts,
            sim_reads: self.sim_reads,
            ..Counters::of_store(&self.store)
        }
    }
}
