//! Fig. 22 (extension): oversubscribed serving under a DRAM pin budget —
//! pinned-only vs ODP vs pinless (NP-RDMA-style dynamic pinning).
//!
//! Setup: one populated server with an NVMe-ish far tier and a pin budget
//! sized *after* population to `live_frames / ratio`, swept over
//! oversubscription ratios 1× → 4×. A Zipf(0.99) multi-get stream (depth
//! 16) drives batched DirectReads while a background enforcement pass
//! (modelling the host's reclaim daemon — its spill transfers are not
//! charged to the client clock) evicts the coldest blocks back under
//! budget every `ENFORCE_EVERY` batches.
//!
//! The three one-sided access modes differ only in how the NIC resolves a
//! translation whose frame is no longer DRAM-pinned:
//! - **pinned-only** — classic RDMA: the access stalls for the fetch plus
//!   a hard re-registration penalty (the §3.5 rereg world under memory
//!   pressure).
//! - **odp** — the fetch plus the ODP page-fault round trip; pages stay
//!   merely resident, so the NIC faults lazily but never re-pins.
//! - **pinless** — NP-RDMA dynamic pinning: the fetch plus a µs-scale
//!   pin-fault, after which the page is pinned again.
//!
//! At 1× every mode is identical (the budget never binds — a built-in
//! sanity row). Past 2× the hard-miss penalty dominates pinned-only while
//! pinless pays only fetch + pin-fault on the Zipf tail, so its throughput
//! stays within a small factor of the unpressured baseline.
//!
//! Determinism: each cell folds its virtual clock after every batch, every
//! payload byte, and the eviction order into one fingerprint; the pinless
//! 2× cell is run a second time and must replay byte-identically. Pinless
//! is gated at ≥5× pinned-only at 2×.

use std::sync::atomic::Ordering::Relaxed;

use corm_bench::report::{engine_metrics, f1, tier_metrics, Cell, Json, JsonObject, Sheet};
use corm_bench::setup::{fill_pattern, populate_server, read_stream};
use corm_bench::simspeed::{mix, FNV_OFFSET};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::SimTime;
use corm_sim_mem::TierConfig;
use corm_sim_rdma::{MttUpdateStrategy, RnicConfig};
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::run::Run;

/// Objects in the store.
const OBJECTS: usize = 32 * 1024;
/// Payload bytes per object.
const SIZE: usize = 64;
/// DirectReads per cell.
const OPS: usize = 16 * 1024;
/// Multi-get depth (WQEs per doorbell).
const BATCH_DEPTH: usize = 16;
/// Budget enforcement period, in doorbell batches.
const ENFORCE_EVERY: usize = 64;
/// Seed for the key stream.
const SEED: u64 = 0x22F1;

/// Oversubscription ratios swept (logical footprint / DRAM budget).
const RATIOS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];

/// One access mode's NIC-side configuration.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    PinnedOnly,
    Odp,
    Pinless,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::PinnedOnly, Mode::Odp, Mode::Pinless];

    fn name(self) -> &'static str {
        match self {
            Mode::PinnedOnly => "pinned_only",
            Mode::Odp => "odp",
            Mode::Pinless => "pinless",
        }
    }

    fn strategy(self) -> MttUpdateStrategy {
        match self {
            // Pinned-only and pinless register classic (non-ODP) regions;
            // the ODP mode's regions fault lazily and stay unpinned.
            Mode::PinnedOnly | Mode::Pinless => MttUpdateStrategy::Rereg,
            Mode::Odp => MttUpdateStrategy::Odp,
        }
    }
}

/// Runs one (mode, ratio) cell: boot + populate, size the budget from the
/// *measured* live footprint, then serve the Zipf stream with periodic
/// background enforcement. Returns the cell's row, what the row does not
/// hold (budget, fingerprint, the engine and tier snapshots), the
/// fingerprint, and the WQEs the client's QP posted.
fn run_cell(mode: Mode, ratio: f64) -> (Vec<Cell>, Json, u64, u64) {
    let config = ServerConfig {
        mtt_strategy: mode.strategy(),
        // The budget is sized after population (the logical footprint is
        // not known up front); until then the director's budget is
        // unbounded and enforcement inert.
        tier: Some(TierConfig::nvme()),
        rnic: RnicConfig { dynamic_pin: mode == Mode::Pinless, ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let store = populate_server(config, OBJECTS, SIZE);
    let server = &store.server;
    let rnic = server.rnic().clone();

    // Size the DRAM budget from the measured logical footprint (frames
    // owned by live blocks) and spill the initial overflow before
    // measuring.
    let (live, _) = server.block_frames();
    let budget = ((live as f64 / ratio).floor() as usize).max(1);
    assert!(server.set_pin_budget(budget), "tier director must exist");
    let mut clock = SimTime::ZERO;
    server.enforce_pin_budget(clock).expect("initial enforcement");

    let workload = Workload::new(OBJECTS as u64, KeyDist::Zipf(0.99), Mix::READ_ONLY);
    let mut rng = stream_rng(SEED, 22);
    let keys: Vec<usize> = (0..OPS).map(|_| workload.next_key(&mut rng) as usize).collect();
    let mut client = CormClient::connect(server.clone());
    let mut fp = FNV_OFFSET;
    let mut expect = vec![0u8; SIZE];
    let turn = std::slice::from_mut(&mut client);
    read_stream(turn, &store.ptrs, &keys, BATCH_DEPTH, SIZE, &mut clock, |batch| {
        fp = mix(fp, batch.done.as_nanos());
        for (&key, payload) in batch.keys.iter().zip(batch.payloads) {
            fill_pattern(&mut expect, key as u64);
            assert_eq!(payload, &expect, "payload mismatch for key {key}");
            for w in payload.chunks_exact(8) {
                fp = mix(fp, u64::from_le_bytes(w.try_into().unwrap()));
            }
            // The host's access-sampling daemon feeding block heat: one
            // sided reads bypass the server CPU, so heat is fed here.
            server.note_access(&store.ptrs[key]);
        }
        if (batch.index + 1).is_multiple_of(ENFORCE_EVERY) {
            // Background reclaim: spills run on the daemon's clock, not
            // the serving clients'.
            server.enforce_pin_budget(batch.done).expect("periodic enforcement");
        }
    });

    // Eviction order is part of the replayable result.
    if let Some(t) = server.tiering() {
        fp = t.eviction_log().into_iter().fold(fp, mix);
    }

    let elapsed = clock.saturating_since(SimTime::ZERO);
    let kreqs = if elapsed.as_nanos() > 0 { OPS as f64 / elapsed.as_secs_f64() / 1e3 } else { 0.0 };
    let tier = rnic.tier().expect("tier attached").stats();
    let detail = JsonObject::new()
        .uint("budget_frames", budget as u64)
        .uint("fingerprint", fp)
        .field("engine", engine_metrics(&rnic, client.qp(), clock))
        .field("tier", tier_metrics(server))
        .build();
    let row = vec![
        mode.name().into(),
        f1(ratio),
        f1(kreqs),
        tier.hard_misses.into(),
        tier.pin_faults.into(),
        rnic.stats.odp_misses.load(Relaxed).into(),
        server.tiering().map_or(0, |t| t.evictions()).into(),
        tier.fetches.into(),
    ];
    (row, detail, fp, client.qp().depth_stats().posted)
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 22: throughput under memory oversubscription (Kreq/s)",
        &[
            "mode",
            "ratio",
            "kreqs",
            "hard_misses",
            "pin_faults",
            "odp_misses",
            "evictions",
            "fetches",
        ],
    );
    let mut details: Vec<Json> = Vec::new();
    let mut pinless_2x = 0;
    let mut min_posted = u64::MAX;
    for ratio in RATIOS {
        for mode in Mode::ALL {
            let (row, detail, fingerprint, posted) = run_cell(mode, ratio);
            t.row(&row);
            details.push(detail);
            min_posted = min_posted.min(posted);
            if mode == Mode::Pinless && ratio == 2.0 {
                pinless_2x = fingerprint;
            }
        }
    }
    run.emit("fig22_memory_pressure", &t);
    // `detail[i]` belongs to `rows[i]`.
    let doc = JsonObject::new().field("rows", t.to_json()).field("detail", Json::Arr(details));
    run.json("fig22_memory_pressure", &doc.build());

    run.gate(
        min_posted >= OPS as u64,
        format!("every cell's engine snapshot reads the QP that posted its reads ({min_posted})"),
    );

    let at = |mode: Mode, ratio: &str| t.find(&[("mode", mode.name()), ("ratio", ratio)]);
    run.gate(
        Mode::ALL.iter().all(|&mode| {
            let r = at(mode, "1.0");
            (r.num("hard_misses"), r.num("pin_faults"), r.num("evictions")) == (0.0, 0.0, 0.0)
        }),
        "at 1x the budget never binds: no mode pays any tier cost",
    );

    // The headline claim at 2×: dynamic pinning keeps serving fast where
    // hard re-registration collapses.
    let (pinless, pinned) = (at(Mode::Pinless, "2.0"), at(Mode::PinnedOnly, "2.0"));
    run.gate(
        pinless.num("pin_faults") > 0.0 && pinned.num("hard_misses") > 0.0,
        "at 2x the pinless cell fault-pins and the pinned-only cell hard-misses",
    );
    let factor = pinless.num("kreqs") / pinned.num("kreqs");
    run.gate(
        factor >= 5.0,
        format!("at 2x oversubscription pinless holds >= 5x pinned-only throughput ({factor:.1}x)"),
    );
    // Replay: the tiered cell is a pure function of its seed — costs,
    // payloads, and eviction order all fold into the fingerprint.
    run.gate(
        run_cell(Mode::Pinless, 2.0).2 == pinless_2x,
        "the pinless 2x cell replays byte-identically",
    );
}
