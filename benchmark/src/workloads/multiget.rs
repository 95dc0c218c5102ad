//! `multiget`: depth-16 `CormClient::read_batch` calls, uniform over 2 M
//! objects.
//!
//! 2 M × 32 B objects fill about 23.5 K pages, more than the RNIC's
//! 16 K-entry translation cache, so about three reads in ten take the
//! cache's miss path. There is no event queue and no server handler: the
//! workload isolates the batched verb service, the MTT shards and their LRU,
//! and DMA staging.

use std::time::Instant;

use rand::Rng;

use corm_bench::setup::{fill_pattern, populate_server, PopulatedStore};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_core::GlobalPtr;
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::SimTime;

use super::{latency_p50_p99_us, pattern_of, space_amp, Counters, Round, SimRound, OBJECT_BYTES};
use crate::spans::{Name, Probe};

pub const OBJECTS: usize = 2_000_000;
/// Reads under one doorbell.
pub const DEPTH: usize = 16;
/// Doorbells per round: 640 K reads, about 0.4 s of host time.
pub const BATCHES: usize = 40_000;
/// Label of the key stream within a round's seed.
const KEY_STREAM: u64 = 0x6D67;

pub struct Multiget {
    pub store: PopulatedStore,
    client: CormClient,
    /// One clock across all rounds: the RNIC engine remembers when it is
    /// busy until, so a round restarting at zero would queue behind the
    /// previous one.
    clock: SimTime,
    keys: Vec<u32>,
    batch_ptrs: Vec<GlobalPtr>,
    bufs: Vec<Vec<u8>>,
    lat_ns: Vec<u64>,
}

impl Multiget {
    pub fn build() -> Multiget {
        let store = populate_server(ServerConfig::default(), OBJECTS, OBJECT_BYTES);
        let client = CormClient::connect(store.server.clone());
        Multiget {
            store,
            client,
            clock: SimTime::ZERO,
            keys: vec![0; BATCHES * DEPTH],
            batch_ptrs: Vec::with_capacity(DEPTH),
            bufs: vec![vec![0u8; OBJECT_BYTES]; DEPTH],
            lat_ns: Vec::with_capacity(BATCHES),
        }
    }

    pub fn round<P: Probe>(&mut self, seed: u64, probe: &mut P) -> Round {
        // Keys are drawn before the clock starts: the round times the
        // program, not the generator.
        let mut rng = stream_rng(seed, KEY_STREAM);
        for k in self.keys.iter_mut() {
            *k = rng.gen_range(0..OBJECTS as u32);
        }
        self.lat_ns.clear();
        let began = self.clock;
        let mut failed = 0u64;
        let start = Instant::now();
        for chunk in self.keys.chunks_exact(DEPTH) {
            self.batch_ptrs.clear();
            self.batch_ptrs.extend(chunk.iter().map(|&k| self.store.ptrs[k as usize]));
            probe.enter(Name::ReadBatch);
            let batch = self.client.read_batch(&mut self.batch_ptrs, &mut self.bufs, self.clock);
            probe.exit();
            match batch {
                Ok(t) => {
                    // In the rounds only the length and the first byte of
                    // each payload are compared; `verify` compares all of
                    // every payload through the same call.
                    for ((&k, buf), &len) in chunk.iter().zip(&self.bufs).zip(&t.value) {
                        let mut expect = [0u8; 1];
                        fill_pattern(&mut expect, u64::from(k));
                        failed += u64::from(len != OBJECT_BYTES || buf[0] != expect[0]);
                    }
                    self.clock += t.cost;
                    self.lat_ns.push(t.cost.as_nanos());
                }
                Err(_) => failed += DEPTH as u64,
            }
        }
        let host_ns = start.elapsed().as_nanos() as u64;
        let (p50_us, p99_us) = latency_p50_p99_us(&mut self.lat_ns);
        let reads = (BATCHES * DEPTH) as u64;
        Round {
            host_ns,
            ops: reads,
            failed,
            sim: SimRound {
                ops: reads,
                virt_ns: self.clock.saturating_since(began).as_nanos(),
                p50_us,
                p99_us,
                space_amp: space_amp(&self.store, OBJECTS),
                compact_ms: 0.0,
            },
        }
    }

    /// Reads every key once, in key order, through `read_batch` and compares
    /// whole payloads.
    pub fn verify(&mut self) -> (u64, u64) {
        let mut wrong = 0u64;
        for first in (0..OBJECTS).step_by(DEPTH) {
            self.batch_ptrs.clear();
            self.batch_ptrs.extend_from_slice(&self.store.ptrs[first..first + DEPTH]);
            match self.client.read_batch(&mut self.batch_ptrs, &mut self.bufs, self.clock) {
                Ok(t) => {
                    self.clock += t.cost;
                    for (i, buf) in self.bufs.iter().enumerate() {
                        let ok = t.value[i] == OBJECT_BYTES && buf[..] == pattern_of(first + i);
                        wrong += u64::from(!ok);
                    }
                }
                Err(_) => wrong += DEPTH as u64,
            }
        }
        (OBJECTS as u64, wrong)
    }

    pub fn counters(&self) -> Counters {
        Counters {
            client_failed_reads: self.client.failed_direct_reads,
            ..Counters::of_store(&self.store)
        }
    }
}
