//! The four workloads. Each builds a store, runs rounds of fixed work and
//! verifies the store's contents afterwards. Fixed work, not fixed time,
//! makes every simulated statistic of a round a function of its seed alone.

mod churn;
mod multiget;
mod ycsb;

use std::sync::atomic::Ordering::Relaxed;

use corm_bench::setup::{fill_pattern, PopulatedStore};
use corm_core::client::CormClient;

use crate::spans::Probe;
use crate::stats::nearest_rank;

pub use churn::Churn;
pub use multiget::Multiget;
pub use ycsb::Ycsb;

/// Payload bytes of every object in every workload.
pub const OBJECT_BYTES: usize = 32;

/// What one round of fixed work produced.
pub struct Round {
    /// Host wall time of the round's work.
    pub host_ns: u64,
    /// Operations in the round; the unit is the workload's (see README).
    pub ops: u64,
    /// Operations that returned an error or wrong bytes.
    pub failed: u64,
    pub sim: SimRound,
}

/// The exact simulated statistics of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRound {
    /// Operations completed in virtual time.
    pub ops: u64,
    /// Virtual time they took.
    pub virt_ns: u64,
    /// Virtual latency of the read unit: one read (`ycsb_*`), one depth-16
    /// batch (`multiget`), one recovery read (`churn_compact`).
    pub p50_us: f64,
    pub p99_us: f64,
    /// Active bytes ÷ live payload bytes.
    pub space_amp: f64,
    /// Virtual cost of the round's compaction passes.
    pub compact_ms: f64,
}

/// The program's public counters the ledger reads, as running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub rnic_reads: u64,
    pub wqes: u64,
    pub doorbells: u64,
    pub odp_misses: u64,
    pub mtt_sync_verbs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub allocs: u64,
    pub frees: u64,
    pub reads: u64,
    pub writes: u64,
    pub corrections: u64,
    pub refills: u64,
    pub blocks_freed: u64,
    pub objects_copied: u64,
    pub lock_retries: u64,
    pub remaps: u64,
    /// Queue pops of `run_closed_loop` (`SimOutput::events`).
    pub events: u64,
    /// Torn DirectReads (`SimOutput::conflicts`) and the reads they are a
    /// share of (`SimOutput::reads`).
    pub conflicts: u64,
    pub sim_reads: u64,
    /// `CormClient::failed_direct_reads` of the workload's own client.
    pub client_failed_reads: u64,
}

impl Counters {
    /// Reads the counters the server, its RNIC and its address space keep.
    fn of_store(store: &PopulatedStore) -> Counters {
        let server = &store.server;
        let rnic = &server.rnic().stats;
        let (cache_hits, cache_misses) = server.rnic().cache_stats();
        let s = &server.stats;
        Counters {
            rnic_reads: rnic.reads.load(Relaxed),
            wqes: rnic.wqes.load(Relaxed),
            doorbells: rnic.doorbells.load(Relaxed),
            odp_misses: rnic.odp_misses.load(Relaxed),
            mtt_sync_verbs: rnic.reregs.load(Relaxed) + rnic.advises.load(Relaxed),
            cache_hits,
            cache_misses,
            allocs: s.allocs.load(Relaxed),
            frees: s.frees.load(Relaxed),
            reads: s.reads.load(Relaxed),
            writes: s.writes.load(Relaxed),
            corrections: s.corrections.load(Relaxed),
            refills: s.refills.load(Relaxed),
            blocks_freed: s.compaction_blocks_freed.load(Relaxed),
            objects_copied: s.objects_copied.load(Relaxed),
            lock_retries: s.rpc_lock_retries.load(Relaxed),
            remaps: server.aspace().remaps(),
            ..Counters::default()
        }
    }

    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            rnic_reads: self.rnic_reads - earlier.rnic_reads,
            wqes: self.wqes - earlier.wqes,
            doorbells: self.doorbells - earlier.doorbells,
            odp_misses: self.odp_misses - earlier.odp_misses,
            mtt_sync_verbs: self.mtt_sync_verbs - earlier.mtt_sync_verbs,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            corrections: self.corrections - earlier.corrections,
            refills: self.refills - earlier.refills,
            blocks_freed: self.blocks_freed - earlier.blocks_freed,
            objects_copied: self.objects_copied - earlier.objects_copied,
            lock_retries: self.lock_retries - earlier.lock_retries,
            remaps: self.remaps - earlier.remaps,
            events: self.events - earlier.events,
            conflicts: self.conflicts - earlier.conflicts,
            sim_reads: self.sim_reads - earlier.sim_reads,
            client_failed_reads: self.client_failed_reads - earlier.client_failed_reads,
        }
    }
}

/// The four workloads by their final names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    YcsbRdma,
    YcsbRpc,
    Multiget,
    ChurnCompact,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::YcsbRdma, Kind::YcsbRpc, Kind::Multiget, Kind::ChurnCompact];

    pub fn name(self) -> &'static str {
        match self {
            Kind::YcsbRdma => "ycsb_rdma",
            Kind::YcsbRpc => "ycsb_rpc",
            Kind::Multiget => "multiget",
            Kind::ChurnCompact => "churn_compact",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Unmeasured rounds before the measured ones: enough for the MTT cache
    /// to fill and, on `churn_compact`, for the alias count to level off.
    pub fn warmup_rounds(self) -> u64 {
        match self {
            Kind::ChurnCompact => 6,
            _ => 2,
        }
    }
}

/// A built workload.
pub enum Bench {
    Ycsb(Ycsb),
    Multiget(Multiget),
    Churn(Churn),
}

impl Bench {
    /// Builds the workload's store.
    pub fn build(kind: Kind) -> Bench {
        match kind {
            Kind::YcsbRdma | Kind::YcsbRpc => Bench::Ycsb(Ycsb::build(kind)),
            Kind::Multiget => Bench::Multiget(Multiget::build()),
            Kind::ChurnCompact => Bench::Churn(Churn::build()),
        }
    }

    /// Runs one round of fixed work drawn from `seed`.
    pub fn round<P: Probe>(&mut self, seed: u64, probe: &mut P) -> Round {
        match self {
            Bench::Ycsb(w) => w.round(seed, probe),
            Bench::Multiget(w) => w.round(seed, probe),
            Bench::Churn(w) => w.round(seed, probe),
        }
    }

    /// Re-reads every key and compares it with what the rounds left there.
    /// Returns (keys checked, keys wrong).
    pub fn verify(&mut self) -> (u64, u64) {
        match self {
            Bench::Ycsb(w) => w.verify(),
            Bench::Multiget(w) => w.verify(),
            Bench::Churn(w) => w.verify(),
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            Bench::Ycsb(w) => w.counters(),
            Bench::Multiget(w) => w.counters(),
            Bench::Churn(w) => w.counters(),
        }
    }

    pub fn store(&mut self) -> &mut PopulatedStore {
        match self {
            Bench::Ycsb(w) => &mut w.store,
            Bench::Multiget(w) => &mut w.store,
            Bench::Churn(w) => &mut w.store,
        }
    }
}

/// `fill_pattern(key)`: what populate wrote under `key`.
fn pattern_of(key: usize) -> [u8; OBJECT_BYTES] {
    let mut pattern = [0u8; OBJECT_BYTES];
    fill_pattern(&mut pattern, key as u64);
    pattern
}

/// Active bytes ÷ live payload bytes.
fn space_amp(store: &PopulatedStore, live_objects: usize) -> f64 {
    store.server.active_bytes() as f64 / (live_objects * OBJECT_BYTES) as f64
}

/// p50 and p99 of a round's virtual latencies (ns in, µs out). Sorts
/// `lat_ns` in place.
fn latency_p50_p99_us(lat_ns: &mut [u64]) -> (f64, f64) {
    if lat_ns.is_empty() {
        return (0.0, 0.0);
    }
    lat_ns.sort_unstable();
    let at = |q: f64| lat_ns[nearest_rank(lat_ns.len(), q)] as f64 / 1_000.0;
    (at(0.5), at(0.99))
}

/// Reads every key through `direct_read_with_recovery` and counts the keys
/// for which `ok(key, payload)` is false or the read failed.
fn verify_by_direct_read(
    store: &mut PopulatedStore,
    client: &mut CormClient,
    ok: impl Fn(usize, &[u8]) -> bool,
) -> (u64, u64) {
    let mut buf = [0u8; OBJECT_BYTES];
    let mut wrong = 0;
    for (key, ptr) in store.ptrs.iter_mut().enumerate() {
        let now = corm_sim_core::time::SimTime::ZERO;
        match client.direct_read_with_recovery(ptr, &mut buf, now) {
            Ok(t) if t.value == OBJECT_BYTES && ok(key, &buf) => {}
            _ => wrong += 1,
        }
    }
    (store.ptrs.len() as u64, wrong)
}
