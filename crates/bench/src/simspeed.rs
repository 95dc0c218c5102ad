//! The simulator's determinism gate: four fixed, seeded cells whose
//! virtual-time results fold into fingerprints pinned here as constants.
//! Perf work may make the cells faster, never different — a fingerprint
//! that moves means seeded behaviour changed. Nothing here reads the wall
//! clock: the host-time instrument is `benchmark/` (DESIGN §12 says why
//! there is only one).
//!
//! - **fig12 cell** — the closed-loop event-driven simulator
//!   ([`run_closed_loop`]) under a Zipf read/write mix: exercises the
//!   [`EventQueue`](corm_sim_core::queue::EventQueue) hot loop, the
//!   queueing stations, and the DirectRead/conflict/retry machinery. An
//!   *event* is one queue pop.
//! - **fig13 cell** — the batched DirectRead verb path from
//!   `ext_scalability`'s NIC axis: doorbell batches of depth 16 against
//!   the RNIC's sharded MTT, translation cache, and fault injector. An
//!   *event* is one executed WQE.
//! - **fig21 cell** — the same stream in shared-connection mode: several
//!   clients, each its own tenant, share one `Arc<QueuePair>` with the
//!   weighted QoS scheduler on, so the deficit-weighted admission is on
//!   the hot path.
//! - **fig22 cell** — the same stream against a 2×-oversubscribed pinless
//!   server (NP-RDMA dynamic pinning over an NVMe-ish far tier), the pin
//!   budget enforced every 64 batches, so residency checks, the NIC fault
//!   path and heat-ranked eviction are on the hot path. The fingerprint
//!   also folds the eviction order.

use std::sync::atomic::Ordering::Relaxed;

use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_trace::TraceHandle;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::setup::{populate_server, read_stream, Batch, PopulatedStore};
use crate::sim::{run_closed_loop, ClosedLoopSpec, ReadPath};

/// Seed shared by every cell.
pub const SEED: u64 = 0x51EED;

/// fig12 cell: closed-loop clients.
const FIG12_CLIENTS: usize = 8;
/// fig12 cell: key population.
pub const FIG12_OBJECTS: usize = 4_096;
/// fig12 cell: payload bytes.
pub const FIG12_SIZE: usize = 32;
/// fig12 cell: measurement window (virtual).
const FIG12_DURATION: SimDuration = SimDuration::from_millis(120);
/// fig12 cell: warmup (virtual).
const FIG12_WARMUP: SimDuration = SimDuration::from_millis(30);

/// Batched cells: key population.
const FIG13_OBJECTS: usize = 4_096;
/// Batched cells: payload bytes.
const FIG13_SIZE: usize = 64;
/// Batched cells: WQEs per doorbell.
const FIG13_BATCH_DEPTH: usize = 16;
/// fig13 cell: DirectReads issued.
const FIG13_OPS: usize = 131_072;

/// fig21 cell: tenants sharing the one QP.
const FIG21_TENANTS: usize = 4;
/// fig21 cell: DirectReads issued (across all tenants).
const FIG21_OPS: usize = 65_536;

/// fig22 cell: DirectReads issued against the tiered pinless server.
const FIG22_OPS: usize = 32_768;
/// fig22 cell: oversubscription ratio (logical footprint / DRAM budget).
const FIG22_RATIO: u64 = 2;
/// fig22 cell: budget enforcement period, in doorbell batches.
const FIG22_ENFORCE_EVERY: usize = 64;

/// The pinned fingerprints, in [`run_cells`] order. An intentional
/// semantic change republishes them here, in the PR that says why.
pub const FINGERPRINTS: [u64; 4] = [
    18_184_976_033_452_833_882,
    6_224_905_876_370_571_183,
    12_278_282_108_582_985_647,
    16_331_014_339_256_421_756,
];

/// One cell's run.
#[derive(Debug, Clone)]
pub struct SpeedCell {
    /// `"fig12"`, `"fig13"`, `"fig21"` or `"fig22"`.
    pub workload: &'static str,
    /// Discrete events processed (queue pops / WQEs).
    pub events: u64,
    /// Virtual time the run covered.
    pub virt: SimDuration,
    /// Order-sensitive digest of the run's virtual-time results.
    pub fingerprint: u64,
    /// What [`FINGERPRINTS`] says the digest must be.
    pub pinned: u64,
}

/// Start value of a [`mix`] fold.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a-style fold for result fingerprints.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// What one run of a cell yields: events, virtual time covered,
/// fingerprint.
type Once = (u64, SimDuration, u64);

fn fig12_once(trace: &TraceHandle) -> Once {
    let config = ServerConfig { trace: trace.clone(), ..ServerConfig::default() };
    let mut store = populate_server(config, FIG12_OBJECTS, FIG12_SIZE);
    let spec = ClosedLoopSpec {
        duration: FIG12_DURATION,
        warmup: FIG12_WARMUP,
        read_path: ReadPath::Rdma,
        seed: SEED,
        ..ClosedLoopSpec::new(
            Workload::new(FIG12_OBJECTS as u64, KeyDist::Zipf(0.99), Mix::BALANCED),
            FIG12_CLIENTS,
        )
    };
    let out = run_closed_loop(&store.server, &mut store.ptrs, &spec);
    let results = [
        out.completed,
        out.reads,
        out.writes,
        out.conflicts,
        out.corrections,
        out.median_read_us().to_bits(),
    ];
    (out.events, FIG12_WARMUP + FIG12_DURATION, results.into_iter().fold(FNV_OFFSET, mix))
}

/// The batched cells' common run: `ops` uniform keys from [`SEED`] as
/// depth-[`FIG13_BATCH_DEPTH`] multi-gets through `clients` in turn, the
/// clock folded into the fingerprint after every batch, then `each`.
fn stream_once(
    store: &PopulatedStore,
    clients: &mut [CormClient],
    ops: usize,
    mut each: impl FnMut(&Batch<'_>),
) -> Once {
    let rnic = store.server.rnic();
    let mut rng = corm_sim_core::rng::root_rng(SEED);
    let keys: Vec<usize> =
        (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..FIG13_OBJECTS)).collect();
    let wqes0 = rnic.stats.wqes.load(Relaxed);
    let mut clock = SimTime::ZERO;
    let mut fp = FNV_OFFSET;
    read_stream(clients, &store.ptrs, &keys, FIG13_BATCH_DEPTH, FIG13_SIZE, &mut clock, |batch| {
        fp = mix(fp, batch.done.as_nanos());
        each(&batch);
    });
    let events = rnic.stats.wqes.load(Relaxed) - wqes0;
    (events, clock.saturating_since(SimTime::ZERO), fp)
}

fn fig13_once(ops: usize, trace: &TraceHandle) -> Once {
    let config = ServerConfig { workers: 1, trace: trace.clone(), ..ServerConfig::default() };
    let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
    let mut client = CormClient::connect(store.server.clone());
    stream_once(&store, std::slice::from_mut(&mut client), ops, |_| {})
}

fn fig21_once(ops: usize, trace: &TraceHandle) -> Once {
    use corm_sim_rdma::{QosConfig, QueuePair, RnicConfig};
    let config = ServerConfig {
        workers: 1,
        rnic: RnicConfig { qos: Some(QosConfig::default()), ..RnicConfig::default() },
        trace: trace.clone(),
        ..ServerConfig::default()
    };
    let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
    let shared = std::sync::Arc::new(QueuePair::connect(store.server.rnic().clone()));
    let mut clients: Vec<CormClient> = (0..FIG21_TENANTS as u32)
        .map(|t| CormClient::connect_shared(store.server.clone(), shared.clone(), t))
        .collect();
    stream_once(&store, &mut clients, ops, |_| {})
}

fn fig22_once(ops: usize, trace: &TraceHandle) -> Once {
    use corm_sim_mem::TierConfig;
    use corm_sim_rdma::{MttUpdateStrategy, RnicConfig};
    let config = ServerConfig {
        workers: 1,
        mtt_strategy: MttUpdateStrategy::Rereg,
        tier: Some(TierConfig::nvme()),
        rnic: RnicConfig { dynamic_pin: true, ..RnicConfig::default() },
        trace: trace.clone(),
        ..ServerConfig::default()
    };
    let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
    let server = &store.server;
    let (live, _) = server.block_frames();
    assert!(server.set_pin_budget((live / FIG22_RATIO).max(1) as usize));
    server.enforce_pin_budget(SimTime::ZERO).expect("initial enforcement");

    let mut client = CormClient::connect(server.clone());
    let turn = std::slice::from_mut(&mut client);
    let (events, virt, mut fp) = stream_once(&store, turn, ops, |batch| {
        for &k in batch.keys {
            server.note_access(&store.ptrs[k]);
        }
        if (batch.index + 1) % FIG22_ENFORCE_EVERY == 0 {
            server.enforce_pin_budget(batch.done).expect("periodic enforcement");
        }
    });
    if let Some(t) = server.tiering() {
        fp = t.eviction_log().into_iter().fold(fp, mix);
    }
    (events, virt, fp)
}

/// Runs the four cells, once each (the `*_replays_from_seed` tests hold
/// repeats to agree).
pub fn run_cells(trace: &TraceHandle) -> [SpeedCell; 4] {
    let cell = |workload, (events, virt, fingerprint): Once, pinned| SpeedCell {
        workload,
        events,
        virt,
        fingerprint,
        pinned,
    };
    let [fig12, fig13, fig21, fig22] = FINGERPRINTS;
    [
        cell("fig12", fig12_once(trace), fig12),
        cell("fig13", fig13_once(FIG13_OPS, trace), fig13),
        cell("fig21", fig21_once(FIG21_OPS, trace), fig21),
        cell("fig22", fig22_once(FIG22_OPS, trace), fig22),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_core::GlobalPtr;
    use corm_trace::{canonical_lines, diff_canonical};

    /// S4: same seed → identical virtual-time results and identical
    /// canonical trace streams (`trace_diff` would exit 0).
    #[test]
    fn simspeed_cells_are_deterministic_and_trace_diffable() {
        let run = || {
            let trace = TraceHandle::recording();
            let (events, virt, fp) = fig13_once(512, &trace);
            (events, virt, fp, canonical_lines(&trace.drain()))
        };
        let (ea, va, fa, ta) = run();
        let (eb, vb, fb, tb) = run();
        assert_eq!((ea, va, fa), (eb, vb, fb), "virtual results must replay");
        let d = diff_canonical(&ta, &tb);
        assert!(d.is_clean(), "canonical trace streams diverge: {}", d.describe());
    }

    #[test]
    fn fig21_mux_cell_replays_from_seed() {
        let t = TraceHandle::disabled();
        let (a, b) = (fig21_once(512, &t), fig21_once(512, &t));
        assert_eq!(a, b, "shared-QP cell must replay from its seed");
        assert_eq!(a.0, 512, "every key becomes exactly one WQE");
    }

    /// The tiered pinless cell is seeded-deterministic end to end: costs,
    /// fault counts (via the folded clock), and eviction order all replay.
    #[test]
    fn fig22_tiered_cell_replays_from_seed() {
        let t = TraceHandle::disabled();
        let (a, b) = (fig22_once(2048, &t), fig22_once(2048, &t));
        assert_eq!(a, b, "tiered cell must replay from its seed");
        assert_eq!(a.0, 2048, "every key becomes exactly one WQE");
    }

    #[test]
    fn fig12_cell_replays_from_seed() {
        let t = TraceHandle::disabled();
        let (a, b) = (fig12_once(&t), fig12_once(&t));
        assert_eq!(a, b);
        assert!(a.0 > 0, "closed loop must process events");
    }

    /// [`read_stream`] allocates its pointer and payload buffers once; the
    /// figures it replaced allocated them per batch. Both give the same
    /// clock after every batch, and on the fig13 cell's store and key
    /// stream that sequence folds to the pinned fig13 fingerprint.
    #[test]
    fn read_stream_matches_per_batch_buffers_and_the_fig13_fingerprint() {
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let mut rng = corm_sim_core::rng::root_rng(SEED);
        let keys: Vec<usize> =
            (0..FIG13_OPS).map(|_| rand::Rng::gen_range(&mut rng, 0..FIG13_OBJECTS)).collect();

        let store = populate_server(config.clone(), FIG13_OBJECTS, FIG13_SIZE);
        let mut client = CormClient::connect(store.server.clone());
        let (mut clock, mut hoisted) = (SimTime::ZERO, Vec::new());
        read_stream(
            std::slice::from_mut(&mut client),
            &store.ptrs,
            &keys,
            FIG13_BATCH_DEPTH,
            FIG13_SIZE,
            &mut clock,
            |batch| hoisted.push(batch.done),
        );

        let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
        let mut client = CormClient::connect(store.server.clone());
        let (mut clock, mut per_batch) = (SimTime::ZERO, Vec::new());
        for chunk in keys.chunks(FIG13_BATCH_DEPTH) {
            let mut ptrs: Vec<GlobalPtr> = chunk.iter().map(|&k| store.ptrs[k]).collect();
            let mut bufs = vec![vec![0u8; FIG13_SIZE]; chunk.len()];
            clock += client.read_batch(&mut ptrs, &mut bufs, clock).expect("batch").cost;
            per_batch.push(clock);
        }

        assert_eq!(hoisted, per_batch);
        let fold = hoisted.iter().fold(FNV_OFFSET, |fp, at| mix(fp, at.as_nanos()));
        assert_eq!(fold, FINGERPRINTS[1]);
    }
}
