//! Gate on the `corm-trace` subsystem.
//!
//! Runs one deterministic workload touching every traced layer — a
//! workers=1 `ThreadedServer` RPC phase (worker track), sequential
//! direct reads and batched multi-gets (client, NIC, and engine-unit
//! tracks), and a compaction pass (compaction track) — and checks the
//! subsystem's load-bearing properties:
//!
//! 1. **Replay transparency**: the virtual-time results (per-op costs)
//!    are byte-identical with tracing enabled and disabled.
//! 2. **Event-order determinism**: two traced same-seed runs produce
//!    identical event streams (`trace diff` reports zero divergence).
//! 3. **Reconciliation**: per-op leaf spans sum to each op's total
//!    virtual latency.
//! 4. **Export validity**: the emitted Perfetto JSON parses, is
//!    non-empty, and carries the expected per-layer tracks.
//! 5. **Overhead**: recorder overhead is ≤5% wall-clock on the paced
//!    closed-loop RPC workload (`ext_scalability`'s cell — ops take their
//!    virtual cost in wall time, so this is the figures' notion of
//!    wall-clock), and ≤50% on a maximally adversarial spawn-free hot
//!    loop where each op is pure simulation arithmetic with zero host
//!    work to amortize a single buffered event against.
//!
//! It records with handles of its own, whatever `--trace` says, and always
//! writes `results/trace_smoke.events` and `.trace.json`.

use std::time::Instant;

use corm_bench::setup::{populate_server, read_stream};
use corm_core::client::CormClient;
use corm_core::server::threaded::{Request, Response, ThreadedServer};
use corm_core::server::ServerConfig;
use corm_sim_core::time::SimTime;
use corm_trace::{diff_events, Event, TraceHandle};

use crate::ext_scalability::run_rpc_cell;
use crate::run::Run;

const SIZE: usize = 64;
const OBJECTS: usize = 512;
const RPC_OPS: usize = 64;
const DIRECT_OPS: usize = 256;
const BATCHES: usize = 16;
const BATCH_DEPTH: usize = 8;
const SEED: u64 = 0x7_74CE;

/// One deterministic pass over every traced layer. Returns the virtual
/// per-op costs in nanoseconds — the replay fingerprint the gates compare.
fn pass(trace: &TraceHandle) -> Vec<u64> {
    let config = ServerConfig { workers: 1, trace: trace.clone(), ..ServerConfig::default() };
    let mut store = populate_server(config, OBJECTS, SIZE);
    let mut fingerprint = Vec::new();

    // Phase 1: worker track. One worker + one sequential caller is the
    // deterministic corner of the threaded path (no stealing).
    let ts = ThreadedServer::start(store.server.clone());
    let rpc = ts.rpc_client();
    let mut rng = corm_sim_core::rng::stream_rng(SEED, 1);
    for _ in 0..RPC_OPS {
        let key = rand::Rng::gen_range(&mut rng, 0..OBJECTS);
        match rpc.call(Request::Read { ptr: store.ptrs[key], len: SIZE }) {
            Ok(Response::Data { data, .. }) => assert_eq!(data.len(), SIZE),
            other => panic!("rpc read failed: {other:?}"),
        }
    }
    fingerprint.push(ts.now().as_nanos());
    ts.shutdown();

    // Phase 2: client track, synchronous verb path.
    let mut client = CormClient::connect(store.server.clone());
    let mut buf = vec![0u8; SIZE];
    let mut clock = SimTime::ZERO;
    let mut rng = corm_sim_core::rng::stream_rng(SEED, 2);
    for _ in 0..DIRECT_OPS {
        let key = rand::Rng::gen_range(&mut rng, 0..OBJECTS);
        let mut ptr = store.ptrs[key];
        let d = client.direct_read_with_recovery(&mut ptr, &mut buf, clock).expect("direct read");
        fingerprint.push(d.cost.as_nanos());
        clock += d.cost;
    }

    // Phase 3: engine-unit tracks via batched multi-gets.
    let mut rng = corm_sim_core::rng::stream_rng(SEED, 3);
    let keys: Vec<usize> =
        (0..BATCHES * BATCH_DEPTH).map(|_| rand::Rng::gen_range(&mut rng, 0..OBJECTS)).collect();
    let turn = std::slice::from_mut(&mut client);
    read_stream(turn, &store.ptrs, &keys, BATCH_DEPTH, SIZE, &mut clock, |batch| {
        fingerprint.push(batch.cost.as_nanos());
    });

    // Phase 4: compaction track. Fragment, then compact the class.
    store.fragment(0.75, SEED);
    let class =
        corm_core::consistency::class_for_payload(store.server.classes(), SIZE).expect("class");
    let timed = store.server.compact_class(class, clock).expect("compact");
    assert!(timed.value.merges > 0, "fragmented store must merge something");
    fingerprint.push(timed.cost.as_nanos());

    fingerprint
}

/// Whether the event stream carries every per-layer track the taxonomy
/// promises.
fn has_every_track(events: &[Event]) -> bool {
    ["client", "nic", "worker-0", "engine-unit-0", "compaction"]
        .iter()
        .all(|label| events.iter().any(|e| e.track.label() == *label))
}

pub(crate) fn run(run: &mut Run) {
    // Gates 2 + 3 + 4: two traced runs, identical streams, clean
    // reconciliation (gated by `write_trace`), valid artifacts.
    let t1 = TraceHandle::recording();
    let r1 = pass(&t1);
    let events1 = run.write_trace("trace_smoke", &t1);
    run.gate(
        has_every_track(&events1),
        "the trace carries client, nic, worker, engine-unit and compaction tracks",
    );

    let t2 = TraceHandle::recording();
    let r2 = pass(&t2);
    let d = diff_events(&events1, &t2.drain());
    run.gate(
        r1 == r2 && d.is_clean(),
        format!("same-seed traced runs agree in results and event order: {}", d.describe()),
    );

    // Gate 1: tracing is observational.
    run.gate(
        r1 == pass(&TraceHandle::disabled()),
        "tracing does not perturb virtual-time results: traced == untraced",
    );

    // Gate 5a: the ≤5% wall-clock budget, measured on the workload class
    // the budget is written for — a paced closed-loop RPC cell, where a
    // worker is wall-clock occupied for each op's virtual cost.
    // One cell's wall clock swings by about a quarter from the next one's
    // on a shared 2-vCPU host, independently of its neighbours: compare the
    // arms' medians over many rounds, each arm first in every other one.
    const PACED_ROUNDS: usize = 64;
    const PACED_OPS: usize = 1_000;
    let paced_cell = |traced: bool| {
        let trace = if traced { TraceHandle::recording() } else { TraceHandle::disabled() };
        run_rpc_cell(2, 2, PACED_OPS, &trace).0.as_secs_f64()
    };
    let mut arms = [Vec::new(), Vec::new()];
    for round in 0..PACED_ROUNDS {
        for traced in [round % 2 == 0, round % 2 == 1] {
            arms[usize::from(traced)].push(paced_cell(traced));
        }
    }
    let [paced_off, paced_on] = arms.map(|mut cells| {
        cells.sort_by(f64::total_cmp);
        cells[PACED_ROUNDS / 2]
    });
    run.gate(
        paced_on / paced_off <= 1.05,
        format!(
            "recorder overhead on the paced RPC cell is within 5%: median of {PACED_ROUNDS} traced \
             {:.1} ms vs untraced {:.1} ms ({:.3}x)",
            paced_on * 1e3,
            paced_off * 1e3,
            paced_on / paced_off
        ),
    );

    // Gate 5b: adversarial backstop. A spawn-free synchronous-read loop is
    // pure simulation arithmetic — a few hundred ns of host work per op
    // against ~3 buffered events — so the *relative* overhead here is the
    // recorder's worst case (~1.1x when healthy). The generous 1.5x budget
    // only exists to catch structural regressions (e.g. a lock or syscall
    // sneaking onto the hot path).
    const ROUNDS: usize = 9;
    const HOT_OPS: usize = 20_000;
    let traced = TraceHandle::recording();
    let store_on = populate_server(
        ServerConfig { workers: 1, trace: traced.clone(), ..ServerConfig::default() },
        OBJECTS,
        SIZE,
    );
    let store_off =
        populate_server(ServerConfig { workers: 1, ..ServerConfig::default() }, OBJECTS, SIZE);
    let hot_loop = |store: &corm_bench::setup::PopulatedStore| {
        let mut client = CormClient::connect(store.server.clone());
        let mut buf = vec![0u8; SIZE];
        let mut clock = SimTime::ZERO;
        let mut rng = corm_sim_core::rng::stream_rng(SEED, 4);
        let w = Instant::now();
        for _ in 0..HOT_OPS {
            let key = rand::Rng::gen_range(&mut rng, 0..OBJECTS);
            let mut ptr = store.ptrs[key];
            let d = client.direct_read_with_recovery(&mut ptr, &mut buf, clock).expect("read");
            clock += d.cost;
        }
        w.elapsed().as_secs_f64()
    };
    hot_loop(&store_on); // warm-up
    drop(traced.drain());
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    for _ in 0..ROUNDS {
        best_on = best_on.min(hot_loop(&store_on));
        drop(traced.drain());
        best_off = best_off.min(hot_loop(&store_off));
    }
    run.gate(
        best_on / best_off <= 1.5,
        format!(
            "recorder overhead on the adversarial hot loop is within 50%: best-of-{ROUNDS} traced \
             {:.2} ms vs untraced {:.2} ms ({:.3}x)",
            best_on * 1e3,
            best_off * 1e3,
            best_on / best_off
        ),
    );
}
