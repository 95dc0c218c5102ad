//! `churn_compact`: free, compact, read, refill — the paper's contribution.
//!
//! One round is one cycle over 256 Ki objects: free a random 60 %, run
//! `compact_if_fragmented`, read every survivor with
//! `direct_read_with_recovery` and compare its payload, then `alloc` and
//! `write` the freed keys back. That drives the allocator, the merge plan,
//! `remap`, the MTT sync, alias chains and scan recovery, none of which the
//! other three workloads reach.

use std::time::Instant;

use rand::Rng;

use corm_bench::setup::{populate_server, PopulatedStore};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::{SimDuration, SimTime};

use super::{latency_p50_p99_us, pattern_of, Counters, Round, SimRound, OBJECT_BYTES};
use crate::spans::{Name, Probe};

pub const OBJECTS: usize = 256 * 1024;
/// Keys freed, and later refilled, per cycle.
pub const FREED: usize = OBJECTS * 6 / 10;
/// Label of the free-set stream within a round's seed.
const FREE_STREAM: u64 = 0x6672;

pub struct Churn {
    pub store: PopulatedStore,
    client: CormClient,
    clock: SimTime,
    /// A permutation of the keys; each cycle shuffles its first `FREED`
    /// entries into place and frees those.
    order: Vec<u32>,
    lat_ns: Vec<u64>,
}

impl Churn {
    pub fn build() -> Churn {
        let store = populate_server(ServerConfig::default(), OBJECTS, OBJECT_BYTES);
        let client = CormClient::connect(store.server.clone());
        Churn {
            store,
            client,
            clock: SimTime::ZERO,
            order: (0..OBJECTS as u32).collect(),
            lat_ns: Vec::with_capacity(OBJECTS - FREED),
        }
    }

    pub fn round<P: Probe>(&mut self, seed: u64, probe: &mut P) -> Round {
        let mut rng = stream_rng(seed, FREE_STREAM);
        for i in 0..FREED {
            let j = rng.gen_range(i..OBJECTS);
            self.order.swap(i, j);
        }
        let (freed, survivors) = self.order.split_at(FREED);
        self.lat_ns.clear();
        let began = self.clock;
        let mut failed = 0u64;
        let mut buf = [0u8; OBJECT_BYTES];
        let server = self.store.server.clone();
        let ptrs = &mut self.store.ptrs;
        let start = Instant::now();

        for &k in freed {
            probe.enter(Name::Free);
            let r = self.client.free(&mut ptrs[k as usize]);
            probe.exit();
            match r {
                Ok(t) => self.clock += t.cost,
                Err(_) => failed += 1,
            }
        }

        probe.enter(Name::Compact);
        let passes = server.compact_if_fragmented(self.clock);
        probe.exit();
        let mut compact = SimDuration::ZERO;
        match passes {
            Ok(reports) => reports.iter().for_each(|r| compact += r.total_cost()),
            Err(_) => failed += 1,
        }
        self.clock += compact;
        let amp = server.active_bytes() as f64 / (survivors.len() * OBJECT_BYTES) as f64;

        for &k in survivors {
            probe.enter(Name::RecoveryRead);
            let r =
                self.client.direct_read_with_recovery(&mut ptrs[k as usize], &mut buf, self.clock);
            probe.exit();
            match r {
                Ok(t) => {
                    let ok = t.value == OBJECT_BYTES && buf == pattern_of(k as usize);
                    failed += u64::from(!ok);
                    self.clock += t.cost;
                    self.lat_ns.push(t.cost.as_nanos());
                }
                Err(_) => failed += 1,
            }
        }

        for &k in freed {
            probe.enter(Name::Alloc);
            let r = self.client.alloc(OBJECT_BYTES);
            probe.exit();
            let Ok(t) = r else {
                failed += 2;
                continue;
            };
            ptrs[k as usize] = t.value;
            self.clock += t.cost;
            probe.enter(Name::Write);
            let r = self.client.write(&mut ptrs[k as usize], &pattern_of(k as usize));
            probe.exit();
            match r {
                Ok(t) => self.clock += t.cost,
                Err(_) => failed += 1,
            }
        }

        let host_ns = start.elapsed().as_nanos() as u64;
        let (p50_us, p99_us) = latency_p50_p99_us(&mut self.lat_ns);
        // One op is one client API call; the cycle's compaction is
        // amortised over them.
        let ops = (3 * FREED + survivors.len()) as u64;
        Round {
            host_ns,
            ops,
            failed,
            sim: SimRound {
                ops,
                virt_ns: self.clock.saturating_since(began).as_nanos(),
                p50_us,
                p99_us,
                space_amp: amp,
                compact_ms: compact.as_nanos() as f64 / 1e6,
            },
        }
    }

    /// Every cycle ends with the store full again, each key holding its
    /// pattern.
    pub fn verify(&mut self) -> (u64, u64) {
        super::verify_by_direct_read(&mut self.store, &mut self.client, |key, got| {
            got == pattern_of(key)
        })
    }

    pub fn counters(&self) -> Counters {
        Counters {
            client_failed_reads: self.client.failed_direct_reads,
            ..Counters::of_store(&self.store)
        }
    }
}
