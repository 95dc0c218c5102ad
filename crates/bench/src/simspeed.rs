//! Simulator-speed benchmark: how fast the discrete-event simulator runs
//! in *wall clock*, independent of the virtual-time results it computes.
//!
//! Every ROADMAP direction (cluster scale-out, million-client QoS,
//! interleaving checking) is bounded by simulator wall-clock, so this
//! module gives the repo a perf trajectory: four fixed workloads whose
//! events/sec and wall-seconds-per-virtual-second are published as
//! `BENCH_simspeed.json` and gated in CI against >10% regressions.
//!
//! - **fig12 cell** — the closed-loop event-driven simulator
//!   ([`run_closed_loop`]) under a Zipf read/write mix: exercises the
//!   [`EventQueue`](corm_sim_core::queue::EventQueue) hot loop, the
//!   queueing stations, and the DirectRead/conflict/retry machinery. An
//!   *event* is one queue pop.
//! - **fig13 cell** — the batched DirectRead verb path from
//!   `fig13_scalability`'s NIC axis: doorbell batches of depth 16 against
//!   the RNIC's sharded MTT, translation cache, and fault injector. An
//!   *event* is one executed WQE.
//! - **fig21 cell** — the same batched path in shared-connection mode:
//!   several tenants ride one [`MuxQp`](corm_sim_rdma::MuxQp) with the
//!   weighted QoS scheduler on, so the mux completion routing and the
//!   deficit-weighted admission are on the measured hot path. An *event*
//!   is one executed WQE.
//! - **fig22 cell** — the batched path against a 2×-oversubscribed
//!   pinless server, so residency checks, the NIC fault path and
//!   heat-ranked eviction are on the measured hot path. An *event* is one
//!   executed WQE.
//!
//! Every cell is fully deterministic: same seed → identical virtual-time
//! results and identical `corm-trace` canonical event streams (pinned by
//! tests below). Wall-clock numbers are taken as the best of [`REPEATS`]
//! runs to damp scheduler noise.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_core::GlobalPtr;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_trace::TraceHandle;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::report::{Json, JsonObject};
use crate::setup::populate_server;
use crate::sim::{run_closed_loop, ClosedLoopSpec, ReadPath};

/// Seed shared by both cells.
pub const SEED: u64 = 0x51EED;
/// Wall-clock measurements take the best of this many runs.
pub const REPEATS: usize = 3;

/// fig12 cell: closed-loop clients.
pub const FIG12_CLIENTS: usize = 8;
/// fig12 cell: key population.
pub const FIG12_OBJECTS: usize = 4_096;
/// fig12 cell: payload bytes.
pub const FIG12_SIZE: usize = 32;
/// fig12 cell: measurement window (virtual).
pub const FIG12_DURATION: SimDuration = SimDuration::from_millis(120);
/// fig12 cell: warmup (virtual).
pub const FIG12_WARMUP: SimDuration = SimDuration::from_millis(30);

/// fig13 cell: key population.
pub const FIG13_OBJECTS: usize = 4_096;
/// fig13 cell: payload bytes.
pub const FIG13_SIZE: usize = 64;
/// fig13 cell: WQEs per doorbell.
pub const FIG13_BATCH_DEPTH: usize = 16;
/// fig13 cell: DirectReads issued.
pub const FIG13_OPS: usize = 131_072;

/// fig21 cell: tenants sharing the one mux'd QP.
pub const FIG21_TENANTS: usize = 4;
/// fig21 cell: DirectReads issued (across all tenants).
pub const FIG21_OPS: usize = 65_536;

/// fig22 cell: DirectReads issued against the tiered pinless server.
pub const FIG22_OPS: usize = 32_768;
/// fig22 cell: oversubscription ratio (logical footprint / DRAM budget).
pub const FIG22_RATIO: u64 = 2;
/// fig22 cell: budget enforcement period, in doorbell batches.
pub const FIG22_ENFORCE_EVERY: usize = 64;

/// Logical CPUs on this host, published as provenance next to the cells.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// One workload's speed measurement.
#[derive(Debug, Clone)]
pub struct SpeedCell {
    /// `"fig12"` or `"fig13"`.
    pub workload: &'static str,
    /// Discrete events processed (queue pops / WQEs).
    pub events: u64,
    /// Best-of-[`REPEATS`] wall-clock seconds for one run.
    pub wall_secs: f64,
    /// Virtual time the run covered.
    pub virt: SimDuration,
    /// Order-sensitive digest of the run's virtual-time results; byte-equal
    /// across same-seed runs (the determinism the queue/arena swaps must
    /// preserve).
    pub fingerprint: u64,
}

impl SpeedCell {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    /// Wall-clock seconds burned per virtual second simulated.
    pub fn wall_per_virtual_sec(&self) -> f64 {
        self.wall_secs / self.virt.as_secs_f64()
    }

    /// The cell as a JSON object for `BENCH_simspeed.json`.
    pub fn json(&self) -> Json {
        JsonObject::new()
            .uint("events", self.events)
            .float("wall_secs", self.wall_secs)
            .uint("virt_ns", self.virt.as_nanos())
            .float("events_per_sec", self.events_per_sec())
            .float("wall_per_virtual_sec", self.wall_per_virtual_sec())
            .uint("fingerprint", self.fingerprint)
            .build()
    }
}

/// FNV-1a-style fold for result fingerprints.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// Runs the fig12-style closed-loop cell once and returns (events, virt,
/// fingerprint, wall seconds).
fn fig12_once(trace: &TraceHandle) -> (u64, SimDuration, u64, f64) {
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
    let wall = Instant::now();
    let out = run_closed_loop(&store.server, &mut store.ptrs, &spec);
    let wall_secs = wall.elapsed().as_secs_f64();
    let mut fp = 0xcbf29ce484222325;
    for v in [
        out.completed,
        out.reads,
        out.writes,
        out.conflicts,
        out.corrections,
        out.median_read_us().to_bits(),
    ] {
        fp = mix(fp, v);
    }
    (out.events, FIG12_WARMUP + FIG12_DURATION, fp, wall_secs)
}

/// Runs the fig13-style batched-DirectRead cell once and returns (events,
/// virt, fingerprint, wall seconds).
fn fig13_once(ops: usize, trace: &TraceHandle) -> (u64, SimDuration, u64, f64) {
    let config = ServerConfig { workers: 1, trace: trace.clone(), ..ServerConfig::default() };
    let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
    let rnic = store.server.rnic().clone();
    let mut client = CormClient::connect(store.server.clone());
    let mut rng = corm_sim_core::rng::root_rng(SEED);
    let keys: Vec<usize> =
        (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..FIG13_OBJECTS)).collect();

    let wqes0 = rnic.stats.wqes.load(Relaxed);
    let mut clock = SimTime::ZERO;
    let mut fp = 0xcbf29ce484222325;
    // Buffers are hoisted: the bench measures the simulator, not its driver.
    let mut bptrs: Vec<GlobalPtr> = Vec::with_capacity(FIG13_BATCH_DEPTH);
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; FIG13_SIZE]; FIG13_BATCH_DEPTH];
    let wall = Instant::now();
    for chunk in keys.chunks(FIG13_BATCH_DEPTH) {
        bptrs.clear();
        bptrs.extend(chunk.iter().map(|&k| store.ptrs[k]));
        let tb = client
            .read_batch(&mut bptrs, &mut bufs[..chunk.len()], clock)
            .expect("batch read in speed cell");
        debug_assert!(tb.value.iter().all(|&n| n == FIG13_SIZE));
        clock += tb.cost;
        fp = mix(fp, clock.as_nanos());
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    let events = rnic.stats.wqes.load(Relaxed) - wqes0;
    (events, clock.saturating_since(SimTime::ZERO), fp, wall_secs)
}

/// Runs the fig21-style mux-mode cell once: [`FIG21_TENANTS`] clients
/// share one `MuxQp` (weighted QoS on) and take turns issuing doorbell
/// batches. Returns (events, virt, fingerprint, wall seconds).
fn fig21_once(ops: usize, trace: &TraceHandle) -> (u64, SimDuration, u64, f64) {
    use corm_sim_rdma::{MuxQp, QosConfig};
    let config = ServerConfig {
        workers: 1,
        qos: Some(QosConfig::default()),
        trace: trace.clone(),
        ..ServerConfig::default()
    };
    let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
    let rnic = store.server.rnic().clone();
    let shared = MuxQp::connect(rnic.clone(), FIG21_TENANTS);
    let mut clients: Vec<CormClient> = (0..FIG21_TENANTS)
        .map(|_| CormClient::connect_mux(store.server.clone(), shared.attach().expect("attach")))
        .collect();
    let mut rng = corm_sim_core::rng::root_rng(SEED);
    let keys: Vec<usize> =
        (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..FIG13_OBJECTS)).collect();

    let wqes0 = rnic.stats.wqes.load(Relaxed);
    let mut clock = SimTime::ZERO;
    let mut fp = 0xcbf29ce484222325;
    let mut bptrs: Vec<GlobalPtr> = Vec::with_capacity(FIG13_BATCH_DEPTH);
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; FIG13_SIZE]; FIG13_BATCH_DEPTH];
    let wall = Instant::now();
    for (turn, chunk) in keys.chunks(FIG13_BATCH_DEPTH).enumerate() {
        bptrs.clear();
        bptrs.extend(chunk.iter().map(|&k| store.ptrs[k]));
        let client = &mut clients[turn % FIG21_TENANTS];
        let tb = client
            .read_batch(&mut bptrs, &mut bufs[..chunk.len()], clock)
            .expect("mux batch read in speed cell");
        debug_assert!(tb.value.iter().all(|&n| n == FIG13_SIZE));
        clock += tb.cost;
        fp = mix(fp, clock.as_nanos());
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    let events = rnic.stats.wqes.load(Relaxed) - wqes0;
    (events, clock.saturating_since(SimTime::ZERO), fp, wall_secs)
}

/// Runs the fig22-style tiered-serving cell once: a 2×-oversubscribed
/// pinless server (NP-RDMA dynamic pinning over an NVMe-ish far tier)
/// under the fig13-shaped batched DirectRead stream, with the pin budget
/// enforced every [`FIG22_ENFORCE_EVERY`] batches — so the residency
/// checks, NIC fault path, spill/fetch byte movement, and heat-ranked
/// eviction are all on the measured hot path. The fingerprint folds the
/// virtual clock after every batch plus the eviction order. Returns
/// (events, virt, fingerprint, wall seconds).
fn fig22_once(ops: usize, trace: &TraceHandle) -> (u64, SimDuration, u64, f64) {
    use corm_sim_mem::TierConfig;
    use corm_sim_rdma::{MttUpdateStrategy, RnicConfig};
    let config = ServerConfig {
        workers: 1,
        mtt_strategy: MttUpdateStrategy::Rereg,
        pin_budget_frames: Some(usize::MAX),
        tier: Some(TierConfig::nvme()),
        rnic: RnicConfig { dynamic_pin: true, ..RnicConfig::default() },
        trace: trace.clone(),
        ..ServerConfig::default()
    };
    let store = populate_server(config, FIG13_OBJECTS, FIG13_SIZE);
    let server = &store.server;
    let rnic = server.rnic().clone();
    let (live, _) = server.block_frames();
    assert!(server.set_pin_budget((live / FIG22_RATIO).max(1) as usize));
    let mut clock = SimTime::ZERO;
    server.enforce_pin_budget(clock).expect("initial enforcement");

    let mut client = CormClient::connect(server.clone());
    let mut rng = corm_sim_core::rng::root_rng(SEED);
    let keys: Vec<usize> =
        (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..FIG13_OBJECTS)).collect();

    let wqes0 = rnic.stats.wqes.load(Relaxed);
    let mut fp = 0xcbf29ce484222325;
    let mut bptrs: Vec<GlobalPtr> = Vec::with_capacity(FIG13_BATCH_DEPTH);
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; FIG13_SIZE]; FIG13_BATCH_DEPTH];
    let wall = Instant::now();
    for (batch, chunk) in keys.chunks(FIG13_BATCH_DEPTH).enumerate() {
        bptrs.clear();
        bptrs.extend(chunk.iter().map(|&k| store.ptrs[k]));
        let tb = client
            .read_batch(&mut bptrs, &mut bufs[..chunk.len()], clock)
            .expect("tiered batch read in speed cell");
        debug_assert!(tb.value.iter().all(|&n| n == FIG13_SIZE));
        clock += tb.cost;
        fp = mix(fp, clock.as_nanos());
        for &k in chunk {
            server.note_access(&store.ptrs[k]);
        }
        if (batch + 1) % FIG22_ENFORCE_EVERY == 0 {
            server.enforce_pin_budget(clock).expect("periodic enforcement");
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    if let Some(t) = server.tiering() {
        for base in t.eviction_log() {
            fp = mix(fp, base);
        }
    }
    let events = rnic.stats.wqes.load(Relaxed) - wqes0;
    (events, clock.saturating_since(SimTime::ZERO), fp, wall_secs)
}

fn best_of(repeats: usize, run: impl Fn() -> (u64, SimDuration, u64, f64)) -> SpeedCell {
    let mut best: Option<(u64, SimDuration, u64, f64)> = None;
    for _ in 0..repeats.max(1) {
        let r = run();
        if let Some(b) = &best {
            assert_eq!((r.0, r.1, r.2), (b.0, b.1, b.2), "same-seed repeats must agree");
            if r.3 < b.3 {
                best = Some(r);
            }
        } else {
            best = Some(r);
        }
    }
    let (events, virt, fingerprint, wall_secs) = best.expect("repeats >= 1");
    SpeedCell { workload: "", events, wall_secs, virt, fingerprint }
}

/// Runs the fig12 cell, best-of-[`REPEATS`] wall clock.
pub fn run_fig12_cell(trace: &TraceHandle) -> SpeedCell {
    let mut c = best_of(REPEATS, || fig12_once(trace));
    c.workload = "fig12";
    c
}

/// Runs the fig13 cell, best-of-[`REPEATS`] wall clock.
pub fn run_fig13_cell(trace: &TraceHandle) -> SpeedCell {
    let mut c = best_of(REPEATS, || fig13_once(FIG13_OPS, trace));
    c.workload = "fig13";
    c
}

/// Runs the fig21 mux-mode cell, best-of-[`REPEATS`] wall clock.
pub fn run_fig21_cell(trace: &TraceHandle) -> SpeedCell {
    let mut c = best_of(REPEATS, || fig21_once(FIG21_OPS, trace));
    c.workload = "fig21";
    c
}

/// Runs the fig22 tiered-serving cell, best-of-[`REPEATS`] wall clock.
pub fn run_fig22_cell(trace: &TraceHandle) -> SpeedCell {
    let mut c = best_of(REPEATS, || fig22_once(FIG22_OPS, trace));
    c.workload = "fig22";
    c
}

/// One point of the bounded measurement history kept in
/// `BENCH_simspeed.json`: the events/sec of every serial cell at one
/// `--update`, keyed by the git commit and its date. The committed file
/// keeps the last [`TRAJECTORY_KEEP`] points so speed regressions (and
/// wins) stay visible across PRs without unbounded file growth.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// Abbreviated git commit SHA at measurement time (`unknown` when the
    /// binary runs outside a work tree).
    pub sha: String,
    /// Commit date, `YYYY-MM-DD`.
    pub date: String,
    /// fig12 events/sec.
    pub fig12_events_per_sec: f64,
    /// fig13 events/sec.
    pub fig13_events_per_sec: f64,
    /// fig21 events/sec.
    pub fig21_events_per_sec: f64,
    /// fig22 events/sec.
    pub fig22_events_per_sec: f64,
}

impl TrajectoryEntry {
    /// The entry as a JSON object.
    pub fn json(&self) -> Json {
        JsonObject::new()
            .str("sha", &self.sha)
            .str("date", &self.date)
            .float("fig12_events_per_sec", self.fig12_events_per_sec)
            .float("fig13_events_per_sec", self.fig13_events_per_sec)
            .float("fig21_events_per_sec", self.fig21_events_per_sec)
            .float("fig22_events_per_sec", self.fig22_events_per_sec)
            .build()
    }
}

/// How many trajectory points `--update` keeps (oldest dropped first).
pub const TRAJECTORY_KEEP: usize = 20;

/// Parses the `"trajectory":[...]` array out of a committed
/// `BENCH_simspeed.json`. Hand-rolled like [`parse_committed`]; snapshots
/// that predate the trajectory (or fail to parse) yield an empty history.
pub fn parse_trajectory(json: &str) -> Vec<TrajectoryEntry> {
    let Some(start) = json.find("\"trajectory\":") else { return Vec::new() };
    let rest = &json[start..];
    let Some(open) = rest.find('[') else { return Vec::new() };
    let Some(close) = rest[open..].find(']') else { return Vec::new() };
    let body = &rest[open + 1..open + close];
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(obj_start) = body[at..].find('{') {
        let Some(obj_end) = body[at + obj_start..].find('}') else { break };
        let obj = &body[at + obj_start..at + obj_start + obj_end + 1];
        at += obj_start + obj_end + 1;
        let entry = (|| {
            Some(TrajectoryEntry {
                sha: extract_str(obj, "sha")?,
                date: extract_str(obj, "date")?,
                fig12_events_per_sec: extract_number(obj, "{", "fig12_events_per_sec")?,
                fig13_events_per_sec: extract_number(obj, "{", "fig13_events_per_sec")?,
                fig21_events_per_sec: extract_number(obj, "{", "fig21_events_per_sec")?,
                fig22_events_per_sec: extract_number(obj, "{", "fig22_events_per_sec")?,
            })
        })();
        if let Some(e) = entry {
            out.push(e);
        }
    }
    out
}

/// Appends this run's entry to the committed history, replacing any
/// existing point for the same SHA (re-publishing before committing must
/// not duplicate), and trims to the last [`TRAJECTORY_KEEP`] points.
pub fn push_trajectory(
    mut history: Vec<TrajectoryEntry>,
    entry: TrajectoryEntry,
) -> Vec<TrajectoryEntry> {
    history.retain(|e| e.sha != entry.sha);
    history.push(entry);
    let excess = history.len().saturating_sub(TRAJECTORY_KEEP);
    history.drain(..excess);
    history
}

/// Extracts the string following `"key":"` in `json`.
fn extract_str(json: &str, key: &str) -> Option<String> {
    let k = format!("\"{key}\":\"");
    let at = json.find(&k)? + k.len();
    let tail = &json[at..];
    let end = tail.find('"')?;
    Some(tail[..end].to_string())
}

/// A committed `BENCH_simspeed.json` snapshot, as far as the regression
/// gate needs it.
#[derive(Debug, Clone, Copy)]
pub struct CommittedBench {
    /// fig12 events/sec at commit time.
    pub fig12_events_per_sec: f64,
    /// fig13 events/sec at commit time.
    pub fig13_events_per_sec: f64,
    /// fig21 mux-mode events/sec at commit time; `None` for snapshots
    /// published before the mux cell existed (the gate then skips it).
    pub fig21_events_per_sec: Option<f64>,
    /// fig22 tiered-serving events/sec at commit time; `None` for
    /// snapshots published before the tiering cell existed.
    pub fig22_events_per_sec: Option<f64>,
    /// Pre-optimization `BinaryHeap` baseline, carried forward.
    pub heap_fig12_events_per_sec: f64,
    /// Pre-optimization `BinaryHeap` baseline, carried forward.
    pub heap_fig13_events_per_sec: f64,
    /// fig12 result fingerprint at commit time (`None` for old snapshots).
    pub fig12_fingerprint: Option<u64>,
    /// fig13 result fingerprint at commit time (`None` for old snapshots).
    pub fig13_fingerprint: Option<u64>,
    /// fig21 result fingerprint at commit time (`None` for old snapshots).
    pub fig21_fingerprint: Option<u64>,
    /// fig22 result fingerprint at commit time (`None` for old snapshots).
    pub fig22_fingerprint: Option<u64>,
}

/// Extracts the number following `"key":` after the first occurrence of
/// `anchor` (a scoping object name like `"fig13"`). Hand-rolled — the
/// workspace builds offline, without serde.
fn extract_number(json: &str, anchor: &str, key: &str) -> Option<f64> {
    let scope = json.find(anchor)? + anchor.len();
    let rest = &json[scope..];
    let k = format!("\"{key}\":");
    let at = rest.find(&k)? + k.len();
    let tail = &rest[at..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Extracts the unsigned integer following `"key":` after the first
/// occurrence of `anchor`, without a float round-trip — fingerprints are
/// full-width `u64`s that do not survive `f64` parsing.
fn extract_u64(json: &str, anchor: &str, key: &str) -> Option<u64> {
    let scope = json.find(anchor)? + anchor.len();
    let rest = &json[scope..];
    let k = format!("\"{key}\":");
    let at = rest.find(&k)? + k.len();
    let tail = &rest[at..];
    let end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Parses a committed `BENCH_simspeed.json`.
pub fn parse_committed(json: &str) -> Option<CommittedBench> {
    Some(CommittedBench {
        fig12_events_per_sec: extract_number(json, "\"fig12\"", "events_per_sec")?,
        fig13_events_per_sec: extract_number(json, "\"fig13\"", "events_per_sec")?,
        fig21_events_per_sec: extract_number(json, "\"fig21\"", "events_per_sec"),
        fig22_events_per_sec: extract_number(json, "\"fig22\"", "events_per_sec"),
        heap_fig12_events_per_sec: extract_number(
            json,
            "\"baseline_heap\"",
            "fig12_events_per_sec",
        )?,
        heap_fig13_events_per_sec: extract_number(
            json,
            "\"baseline_heap\"",
            "fig13_events_per_sec",
        )?,
        fig12_fingerprint: extract_u64(json, "\"fig12\"", "fingerprint"),
        fig13_fingerprint: extract_u64(json, "\"fig13\"", "fingerprint"),
        fig21_fingerprint: extract_u64(json, "\"fig21\"", "fingerprint"),
        fig22_fingerprint: extract_u64(json, "\"fig22\"", "fingerprint"),
    })
}

/// Locates the committed `BENCH_simspeed.json` at the workspace root
/// (probing upward like [`crate::report::results_dir`]).
pub fn committed_bench_path() -> PathBuf {
    let candidates = [
        Path::new("BENCH_simspeed.json"),
        Path::new("../BENCH_simspeed.json"),
        Path::new("../../BENCH_simspeed.json"),
    ];
    for c in candidates {
        if c.exists() {
            return c.to_path_buf();
        }
    }
    PathBuf::from("BENCH_simspeed.json")
}

/// Renders the full benchmark document. `heap` is the pre-optimization
/// `BinaryHeap` baseline (carried forward from the committed file,
/// recomputed from the slowest trajectory point when the committed value
/// went missing, or the measurement itself on first publish);
/// `speedup_vs_heap` is always recomputed from the fresh cells so a stale
/// committed ratio can never survive a publish. `trajectory` is the
/// bounded per-`--update` history (last [`TRAJECTORY_KEEP`] points).
pub fn bench_json(
    fig12: &SpeedCell,
    fig13: &SpeedCell,
    fig21: &SpeedCell,
    fig22: &SpeedCell,
    heap: (f64, f64),
    trajectory: &[TrajectoryEntry],
) -> Json {
    JsonObject::new()
        .str("schema", "corm-simspeed-v1")
        .uint("fig13_ops", FIG13_OPS as u64)
        .uint("fig12_clients", FIG12_CLIENTS as u64)
        .uint("fig21_ops", FIG21_OPS as u64)
        .uint("fig21_tenants", FIG21_TENANTS as u64)
        .uint("fig22_ops", FIG22_OPS as u64)
        .uint("fig22_ratio", FIG22_RATIO)
        .uint("seed", SEED)
        .uint("host_cpus", host_cpus() as u64)
        .field("fig12", fig12.json())
        .field("fig13", fig13.json())
        .field("fig21", fig21.json())
        .field("fig22", fig22.json())
        .field(
            "baseline_heap",
            JsonObject::new()
                .float("fig12_events_per_sec", heap.0)
                .float("fig13_events_per_sec", heap.1)
                .build(),
        )
        .field(
            "speedup_vs_heap",
            JsonObject::new()
                .float("fig12", fig12.events_per_sec() / heap.0)
                .float("fig13", fig13.events_per_sec() / heap.1)
                .build(),
        )
        .field("trajectory", Json::Arr(trajectory.iter().map(TrajectoryEntry::json).collect()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_trace::{canonical_lines, diff_canonical};

    fn entry(sha: &str, eps: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            sha: sha.to_string(),
            date: "2026-08-07".to_string(),
            fig12_events_per_sec: eps,
            fig13_events_per_sec: eps * 2.0,
            fig21_events_per_sec: eps * 3.0,
            fig22_events_per_sec: eps * 4.0,
        }
    }

    /// S2: the trajectory survives a render → parse round trip through the
    /// hand-rolled JSON layer, embedded in a full benchmark document.
    #[test]
    fn trajectory_round_trips_through_bench_json() {
        let cell = SpeedCell {
            workload: "fig12",
            events: 1000,
            wall_secs: 0.5,
            virt: SimDuration::from_millis(10),
            fingerprint: u64::MAX - 7,
        };
        let history = vec![entry("aaa111", 1.0e6), entry("bbb222", 2.5e6)];
        let doc = bench_json(&cell, &cell, &cell, &cell, (1.0e6, 2.0e6), &history);
        let parsed = parse_trajectory(&doc.render());
        assert_eq!(parsed, history);
    }

    /// S2: publishing replaces a same-SHA point instead of duplicating it
    /// and keeps only the last [`TRAJECTORY_KEEP`] points.
    #[test]
    fn trajectory_push_dedupes_and_bounds() {
        let mut history = Vec::new();
        for i in 0..TRAJECTORY_KEEP + 5 {
            history = push_trajectory(history, entry(&format!("sha{i}"), i as f64));
        }
        assert_eq!(history.len(), TRAJECTORY_KEEP);
        assert_eq!(history[0].sha, "sha5", "oldest points are dropped first");
        // Re-publishing at the head SHA replaces the entry in place.
        let republished = push_trajectory(history.clone(), entry("sha24", 99.0));
        assert_eq!(republished.len(), TRAJECTORY_KEEP);
        assert_eq!(republished.last().unwrap().fig12_events_per_sec, 99.0);
        assert_eq!(republished.iter().filter(|e| e.sha == "sha24").count(), 1);
    }

    /// Snapshots that predate the trajectory parse to an empty history.
    #[test]
    fn missing_trajectory_parses_empty() {
        assert!(parse_trajectory("{\"fig12\":{\"events_per_sec\":1.0}}").is_empty());
    }

    /// S4: same seed → identical virtual-time results and identical
    /// canonical trace streams (`trace_diff` would exit 0).
    #[test]
    fn simspeed_cells_are_deterministic_and_trace_diffable() {
        let run = || {
            let trace = TraceHandle::recording();
            let (events, virt, fp, _) = fig13_once(512, &trace);
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
        let (ea, va, fa, _) = fig21_once(512, &t);
        let (eb, vb, fb, _) = fig21_once(512, &t);
        assert_eq!((ea, va, fa), (eb, vb, fb), "mux-mode cell must replay from its seed");
        assert_eq!(ea, 512, "every key becomes exactly one WQE");
    }

    /// The tiered pinless cell is seeded-deterministic end to end: costs,
    /// fault counts (via the folded clock), and eviction order all replay.
    #[test]
    fn fig22_tiered_cell_replays_from_seed() {
        let t = TraceHandle::disabled();
        let (ea, va, fa, _) = fig22_once(2048, &t);
        let (eb, vb, fb, _) = fig22_once(2048, &t);
        assert_eq!((ea, va, fa), (eb, vb, fb), "tiered cell must replay from its seed");
        assert_eq!(ea, 2048, "every key becomes exactly one WQE");
    }

    #[test]
    fn fig12_cell_replays_from_seed() {
        let t = TraceHandle::disabled();
        let (ea, va, fa, _) = fig12_once(&t);
        let (eb, vb, fb, _) = fig12_once(&t);
        assert_eq!((ea, va, fa), (eb, vb, fb));
        assert!(ea > 0, "closed loop must process events");
    }

    #[test]
    fn committed_json_round_trips() {
        let a = SpeedCell {
            workload: "fig12",
            events: 1000,
            wall_secs: 0.5,
            virt: SimDuration::from_millis(150),
            fingerprint: 18_184_976_033_452_833_882,
        };
        let b = SpeedCell {
            workload: "fig13",
            events: 2000,
            wall_secs: 0.25,
            virt: SimDuration::from_millis(300),
            fingerprint: 43,
        };
        let c = SpeedCell {
            workload: "fig21",
            events: 3000,
            wall_secs: 0.5,
            virt: SimDuration::from_millis(300),
            fingerprint: 44,
        };
        let d = SpeedCell {
            workload: "fig22",
            events: 1500,
            wall_secs: 0.5,
            virt: SimDuration::from_millis(300),
            fingerprint: 46,
        };
        let doc = bench_json(&a, &b, &c, &d, (1000.0, 4000.0), &[]).render();
        let parsed = parse_committed(&doc).expect("parse back");
        assert!((parsed.fig12_events_per_sec - 2000.0).abs() < 1e-9);
        assert!((parsed.fig13_events_per_sec - 8000.0).abs() < 1e-9);
        assert!((parsed.fig21_events_per_sec.expect("fig21 present") - 6000.0).abs() < 1e-9);
        assert!((parsed.fig22_events_per_sec.expect("fig22 present") - 3000.0).abs() < 1e-9);
        assert_eq!(parsed.fig22_fingerprint, Some(46));
        assert!((parsed.heap_fig12_events_per_sec - 1000.0).abs() < 1e-9);
        assert!((parsed.heap_fig13_events_per_sec - 4000.0).abs() < 1e-9);
        assert_eq!(
            (parsed.fig12_fingerprint, parsed.fig13_fingerprint, parsed.fig21_fingerprint),
            (Some(18_184_976_033_452_833_882), Some(43), Some(44)),
            "fingerprints must round-trip exactly (no f64 loss)"
        );
    }

    /// Snapshots published before the mux cell existed still parse; the
    /// gate simply has no fig21 floor to enforce.
    #[test]
    fn pre_mux_snapshot_still_parses() {
        let doc = r#"{"schema":"corm-simspeed-v1","fig13_ops":131072,
            "fig12":{"events_per_sec":2000.0},
            "fig13":{"events_per_sec":8000.0},
            "baseline_heap":{"fig12_events_per_sec":1000.0,"fig13_events_per_sec":4000.0}}"#;
        let parsed = parse_committed(doc).expect("parse");
        assert!(parsed.fig21_events_per_sec.is_none());
    }
}
