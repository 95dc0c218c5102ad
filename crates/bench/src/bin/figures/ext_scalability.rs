//! Hot-path scalability (a companion beyond the paper): wall-clock
//! scalability of the sharded hot path.
//!
//! CoRM's §4 scaling results assume the NIC and the block metadata do not
//! serialize CPU workers against one-sided readers. This sweep measures
//! the two axes the sharding PR actually moves:
//!
//! **RPC workers** — client threads spray Read RPCs across the per-worker
//! queues of a real [`ThreadedServer`] running with [`Pacing::Virtual`]:
//! each worker stays wall-clock occupied for its op's virtual cost, so a
//! worker is a genuine service station and adding workers (with client
//! threads scaled alongside — the closed-loop shape of the paper's
//! Fig. 11–12 setup) overlaps their occupancy. *Wall-clock* ops/s then
//! grows with `workers` on any host core count, and it only can because
//! the per-worker queues, the sharded registry, and the sharded MTT keep
//! the workers off shared locks. Virtual-time ops/s is reported
//! alongside: the virtual clock charges the same per-op handler cost
//! regardless of worker count, so it stays flat — the wall-clock column
//! is the metric the sharding moves.
//!
//! **NIC processing units** — a batched DirectRead workload sweeps
//! `rnic_processing_units`; round-robin WQE dispatch across per-unit
//! engines shortens the *virtual-time* makespan of each doorbell batch, so
//! virtual ops/s grows with units while per-WQE service cost is unchanged.
//!
//! Gated: ≥2× wall-clock ops/s at 8 workers / 8 client threads vs. 1
//! worker, and virtual ops/s growing with every doubling of NIC units.
//! The wall-clock columns make this the one figure whose files are not
//! reproducible byte for byte.
//!
//! `--trace` records the sweep with `corm-trace` and writes Perfetto +
//! canonical-event artifacts: per-worker tracks from the ThreadedServer
//! cells, per-engine-unit tracks from the NIC cells. Multi-worker cells
//! steal work, so the traced stream is *not* diffable across runs — use
//! `ext_batch_depth --trace` or `trace_smoke` for that.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corm_bench::report::{f1, f2, JsonObject, Sheet};
use corm_bench::setup::{populate_server, read_stream};
use corm_core::client::CormClient;
use corm_core::server::threaded::{Pacing, Request, Response, ThreadedServer};
use corm_core::server::ServerConfig;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::RnicConfig;
use corm_trace::TraceHandle;

use crate::run::Run;

const SIZE: usize = 64;
const OBJECTS: usize = 4_096;
const BATCH_DEPTH: usize = 16;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const UNITS: [usize; 4] = [1, 2, 4, 8];
const OPS_PER_CLIENT: usize = 4_000;
const NIC_OPS: usize = 4_096;

/// Runs one closed-loop RPC cell: `clients` threads each issue
/// `ops_per_client` Read RPCs against a `workers`-worker ThreadedServer.
/// Returns the wall-clock and the virtual time the cell took.
pub(crate) fn run_rpc_cell(
    clients: usize,
    workers: usize,
    ops_per_client: usize,
    trace: &TraceHandle,
) -> (Duration, SimDuration) {
    let config = ServerConfig { workers, trace: trace.clone(), ..ServerConfig::default() };
    let store = populate_server(config, OBJECTS, SIZE);
    let ptrs = Arc::new(store.ptrs.clone());
    // Paced mode: each worker is occupied for its op's virtual cost in
    // wall clock, so worker-count scaling is overlapped occupancy — the
    // paper's service-station model — not host scheduling luck.
    let ts = ThreadedServer::start_with_pacing(store.server.clone(), Pacing::Virtual);

    let virt_start = ts.now();
    let wall_start = Instant::now();
    let mut threads = Vec::with_capacity(clients);
    for tid in 0..clients {
        let client = ts.rpc_client();
        let ptrs = ptrs.clone();
        threads.push(std::thread::spawn(move || {
            let mut rng = corm_sim_core::rng::stream_rng(0xF13, tid as u64);
            for _ in 0..ops_per_client {
                let key = rand::Rng::gen_range(&mut rng, 0..ptrs.len());
                match client.call(Request::Read { ptr: ptrs[key], len: SIZE }) {
                    Ok(Response::Data { data, .. }) => assert_eq!(data.len(), SIZE),
                    other => panic!("read rpc failed: {other:?}"),
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    let wall = wall_start.elapsed();
    let virt = ts.now().saturating_since(virt_start);
    let served: u64 = ts.shutdown().iter().sum();
    assert_eq!(served, (clients * ops_per_client) as u64, "every request served exactly once");
    (wall, virt)
}

/// Runs one NIC cell: batched DirectReads (depth [`BATCH_DEPTH`]) against
/// an RNIC with `units` processing units; the virtual-time makespan of
/// each batch shrinks as units go up. Returns virtual Kreq/s.
fn run_nic_cell(units: usize, trace: &TraceHandle) -> f64 {
    let config = ServerConfig {
        workers: 1,
        rnic: RnicConfig { processing_units: units, ..RnicConfig::default() },
        trace: trace.clone(),
        ..ServerConfig::default()
    };
    let store = populate_server(config, OBJECTS, SIZE);
    let mut client = CormClient::connect(store.server.clone());
    let mut rng = corm_sim_core::rng::root_rng(0xF13);
    let keys: Vec<usize> =
        (0..NIC_OPS).map(|_| rand::Rng::gen_range(&mut rng, 0..OBJECTS)).collect();
    let mut clock = SimTime::ZERO;
    let turn = std::slice::from_mut(&mut client);
    read_stream(turn, &store.ptrs, &keys, BATCH_DEPTH, SIZE, &mut clock, |_| {});
    NIC_OPS as f64 / clock.saturating_since(SimTime::ZERO).as_secs_f64() / 1e3
}

pub(crate) fn run(run: &mut Run) {
    let trace = run.trace().clone();
    let mut t = Sheet::new(
        "Hot-path scalability (sharded queues, registry, MTT, NIC units)",
        &["mode", "clients", "workers", "units", "wall_kops", "virt_kops", "speedup"],
    );

    // RPC axis: closed loop, clients scale with workers (fig11/12 shape).
    let mut base_wall = None;
    for w in WORKERS {
        let (wall, virt) = run_rpc_cell(w, w, OPS_PER_CLIENT, &trace);
        let ops = (w * OPS_PER_CLIENT) as f64;
        let wall_kops = ops / wall.as_secs_f64() / 1e3;
        let base_wall = *base_wall.get_or_insert(wall_kops);
        t.row(&[
            "rpc".into(),
            w.into(),
            w.into(),
            1usize.into(),
            f1(wall_kops),
            f1(ops / virt.as_secs_f64() / 1e3),
            f2(wall_kops / base_wall),
        ]);
    }

    // NIC axis: processing units shorten the virtual batch makespan.
    let mut base_virt = None;
    for u in UNITS {
        let virt_kops = run_nic_cell(u, &trace);
        let base_virt = *base_virt.get_or_insert(virt_kops);
        t.row(&[
            "nic".into(),
            1usize.into(),
            1usize.into(),
            u.into(),
            "-".into(),
            f1(virt_kops),
            f2(virt_kops / base_virt),
        ]);
    }

    run.emit("ext_scalability", &t);
    let detail = JsonObject::new()
        .uint("objects", OBJECTS as u64)
        .uint("payload_bytes", SIZE as u64)
        .uint("ops_per_client", OPS_PER_CLIENT as u64)
        .field("rows", t.to_json());
    run.json_traced("ext_scalability", detail);

    let rpc: Vec<_> = t.rows_where("mode", "rpc").collect();
    let speedup = rpc[rpc.len() - 1].num("speedup");
    run.gate(
        speedup >= 2.0,
        format!("8 workers serve >= 2x the wall-clock ops/s of 1 worker ({speedup:.2}x)"),
    );
    run.gate(
        rpc.iter().all(|r| (r.num("virt_kops") / rpc[0].num("virt_kops") - 1.0).abs() < 0.01),
        "virtual RPC ops/s is flat in the worker count (same per-op handler cost)",
    );
    let nic: Vec<f64> = t.rows_where("mode", "nic").map(|r| r.num("virt_kops")).collect();
    run.gate(
        nic.windows(2).all(|w| w[0] < w[1]),
        "virtual ops/s grows with every doubling of NIC processing units",
    );
}
