//! Fig. 21 companion (beyond the paper): QoS isolation and connection
//! scale.
//!
//! CoRM's evaluation stops at tens of clients per server; this sweep
//! probes the two mechanisms the QoS PR adds for the 100k-client regime
//! the paper's DCT discussion (§3.5) gestures at:
//!
//! **Panel A — SLO-class isolation.** A saturating bulk tenant shares one
//! NIC with a large population of latency-class tenants (plus a trickle
//! of compaction MTT-sync traffic). Every doorbell batch carries the bulk
//! scan WQEs *ahead of* the small gets, so the legacy FIFO engine makes
//! each get wait out the whole scan. With [`QosConfig`] weights the
//! deficit-weighted scheduler serves the latency class first in virtual
//! time. The sweep measures per-class completion latency (posting →
//! virtual completion) in three deterministic virtual-time cells:
//! latency tenants alone (unloaded), the full mix under weighted QoS, and
//! the full mix under legacy FIFO. Latency-tenant ids are drawn from the
//! full Panel-B client population, so the scheduler is exercised across a
//! 100k-flow space in the full run.
//!
//! **Panel B — connection scale.** `clients` connections are provisioned
//! twice: one reliable QP per client (the paper's setup) versus DCT-style
//! [`MuxQp`] groups of `K` tenants sharing one QP's rings. Host bytes of
//! connection state per client are censused via `state_bytes`, and a
//! sample of mux tenants runs real multi-gets through [`CormClient`] to
//! show the shared-connection data path works with the full population
//! attached.
//!
//! Gates (both panels are virtual-time deterministic):
//! - latency-class p99 under the saturating bulk tenant ≤ 2× unloaded,
//!   and strictly better than the legacy FIFO cell;
//! - per-client connection state in mux mode ≤ 1/50 of per-client-QP
//!   mode.

use std::sync::Arc;

use corm_bench::report::{f1, f2, JsonObject, Sheet};
use corm_bench::setup::{populate_server, read_stream};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_core::GlobalPtr;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{MuxQp, QosConfig, QueuePair, ReadReq, RnicConfig, TrafficClass};
use corm_trace::TraceHandle;

use crate::run::Run;

const LAT_SIZE: usize = 64;
const BULK_SIZE: usize = 2048;
const LAT_OBJECTS: usize = 1024;
const BULK_OBJECTS: usize = 64;
const SYNC_PER_ROUND: usize = 2;
/// wr_id bands so completions classify without a side table.
const BULK_BAND: u64 = 1 << 40;
const SYNC_BAND: u64 = 1 << 41;

// Latency tenants are sparse probes (a handful of gets per round, each
// from a different tenant); the bulk tenant is what saturates the
// engines. A deep latency batch would self-queue and pollute the
// unloaded yardstick with its own congestion.
const ROUNDS: usize = 1_500;
const LAT_PER_ROUND: usize = 8;
const BULK_PER_ROUND: usize = 128;
/// Panel B's client population; Panel A draws its tenant ids from it.
const CLIENTS: usize = 100_000;
const MUX_GROUP: usize = 1_024;
const SAMPLE: usize = 64;

/// Runs one Panel-A cell: [`ROUNDS`] doorbell batches, each posting the
/// bulk scan ahead of the latency gets (plus a sync trickle) when
/// `loaded`, against an RNIC with the given QoS config. Returns per-class
/// completion latencies. Entirely virtual-time deterministic.
fn run_isolation_cell(qos: Option<QosConfig>, loaded: bool) -> [Histogram; TrafficClass::COUNT] {
    let config = ServerConfig {
        rnic: RnicConfig { qos, processing_units: 2, ..RnicConfig::default() },
        trace: TraceHandle::disabled(),
        ..ServerConfig::default()
    };
    let server = Arc::new(corm_core::server::CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let alloc_batch = |client: &mut CormClient, n: usize, size: usize| -> Vec<GlobalPtr> {
        (0..n)
            .map(|_| {
                let mut ptr = client.alloc(size).expect("alloc").value;
                client.write(&mut ptr, &vec![7u8; size]).expect("write");
                ptr
            })
            .collect()
    };
    let lat_ptrs = alloc_batch(&mut client, LAT_OBJECTS, LAT_SIZE);
    let bulk_ptrs = alloc_batch(&mut client, BULK_OBJECTS, BULK_SIZE);

    let qp = QueuePair::connect(server.rnic().clone());
    let mut rng = corm_sim_core::rng::root_rng(0xF21);
    let mut hists: [Histogram; TrafficClass::COUNT] =
        [Histogram::new(), Histogram::new(), Histogram::new()];
    let mut clock = SimTime::ZERO;
    // One request batch, payload buffers and results, recycled across
    // rounds.
    let mut reqs = Vec::new();
    let mut outs: Vec<Vec<u8>> = Vec::new();
    let mut results = Vec::new();
    // Warm the NIC's translation cache over the whole working set before
    // measuring: otherwise the unloaded baseline's p99 is just the
    // first-round cold misses and the isolation gate compares against an
    // inflated yardstick.
    reqs.extend(
        lat_ptrs
            .iter()
            .chain(bulk_ptrs.iter())
            .enumerate()
            .map(|(i, p)| ReadReq::new(i as u64, p.rkey, p.vaddr, LAT_SIZE)),
    );
    outs.resize(reqs.len(), Vec::new());
    qp.read_batch_into(&reqs, &mut outs, clock, &mut results);
    for r in &results {
        assert!(r.result.is_ok(), "warmup verbs must succeed: {:?}", r.result);
        clock = clock.max(r.completed_at);
    }
    clock += SimDuration::from_micros(1);
    for _ in 0..ROUNDS {
        reqs.clear();
        // The saturator posts first: worst case for FIFO, the case the
        // weighted scheduler exists to absorb.
        if loaded {
            for i in 0..BULK_PER_ROUND {
                let p = bulk_ptrs[rand::Rng::gen_range(&mut rng, 0..BULK_OBJECTS)];
                reqs.push(ReadReq {
                    class: TrafficClass::Bulk,
                    ..ReadReq::new(BULK_BAND | i as u64, p.rkey, p.vaddr, BULK_SIZE)
                });
            }
            for i in 0..SYNC_PER_ROUND {
                let p = lat_ptrs[rand::Rng::gen_range(&mut rng, 0..LAT_OBJECTS)];
                reqs.push(ReadReq {
                    class: TrafficClass::Sync,
                    ..ReadReq::new(SYNC_BAND | i as u64, p.rkey, p.vaddr, LAT_SIZE)
                });
            }
        }
        for i in 0..LAT_PER_ROUND {
            let p = lat_ptrs[rand::Rng::gen_range(&mut rng, 0..LAT_OBJECTS)];
            let tenant = 1 + rand::Rng::gen_range(&mut rng, 0..CLIENTS as u32);
            reqs.push(ReadReq { tenant, ..ReadReq::new(i as u64, p.rkey, p.vaddr, LAT_SIZE) });
        }
        qp.read_batch_into(&reqs, &mut outs, clock, &mut results);
        let mut makespan = SimDuration::ZERO;
        for r in &results {
            assert!(r.result.is_ok(), "isolation cell verbs must succeed: {:?}", r.result);
            let class = if r.wr_id & BULK_BAND != 0 {
                TrafficClass::Bulk
            } else if r.wr_id & SYNC_BAND != 0 {
                TrafficClass::Sync
            } else {
                TrafficClass::Latency
            };
            let wait = r.completed_at.saturating_since(clock);
            hists[class.index()].record_duration(wait);
            makespan = makespan.max(wait);
        }
        // The next round's doorbell rings after this batch drains plus a
        // little client think time — a closed loop, so queueing never
        // compounds across rounds.
        clock += makespan + SimDuration::from_micros(1);
    }
    hists
}

/// Panel B: census [`CLIENTS`] connections' host state in both modes and
/// run sample traffic through the mux path with the full population
/// attached. One row per mode; returns own-QP over mux bytes per client.
fn run_scale(t: &mut Sheet) -> f64 {
    let store = populate_server(ServerConfig::default(), LAT_OBJECTS, LAT_SIZE);
    let rnic = store.server.rnic().clone();
    let mut mode = |name: &str, group: usize, bytes: usize, (p50, p99): (f64, f64)| {
        t.row(&[
            name.into(),
            CLIENTS.into(),
            group.into(),
            (bytes / CLIENTS).into(),
            f1(p50),
            f1(p99),
        ]);
        bytes / CLIENTS
    };

    // Per-client-QP mode: every client pins its own send/completion rings
    // at provisioned depth.
    let own_qps: Vec<QueuePair> = (0..CLIENTS).map(|_| QueuePair::connect(rnic.clone())).collect();
    let own_bytes: usize = own_qps.iter().map(|q| q.state_bytes()).sum();
    // One virtual clock carries across every sampled client and both
    // modes: the NIC engine's availability is monotone in virtual time,
    // so restarting each client at t=0 would charge later samples the
    // entire backlog of earlier ones.
    let mut clock = SimTime::ZERO;
    let own = mode("own-qp", 1, own_bytes, run_sample_traffic(&store, None, &mut clock));
    drop(own_qps);

    // Mux mode: ceil(clients / group) shared connections, every tenant
    // attached before any traffic flows.
    let groups = CLIENTS.div_ceil(MUX_GROUP);
    let mut muxes = Vec::with_capacity(groups);
    let mut tenants = Vec::with_capacity(CLIENTS);
    for g in 0..groups {
        let cap = MUX_GROUP.min(CLIENTS - g * MUX_GROUP);
        let mux = MuxQp::connect(rnic.clone(), cap);
        for _ in 0..cap {
            tenants.push(mux.attach().expect("attach under capacity"));
        }
        muxes.push(mux);
    }
    let mux_bytes: usize = muxes.iter().map(|m| m.state_bytes()).sum();
    let sample = run_sample_traffic(&store, Some(&tenants), &mut clock);
    let mux = mode("mux", MUX_GROUP, mux_bytes, sample);
    own as f64 / mux.max(1) as f64
}

/// Multi-get latency (p50, p99 in µs) for [`SAMPLE`] clients, four depth-8
/// batches each; mux tenants are drawn striding across the attached
/// population when provided.
fn run_sample_traffic(
    store: &corm_bench::setup::PopulatedStore,
    tenants: Option<&[corm_sim_rdma::MuxTenant]>,
    clock: &mut SimTime,
) -> (f64, f64) {
    let mut h = Histogram::new();
    let mut rng = corm_sim_core::rng::stream_rng(0xF21, 7);
    for s in 0..SAMPLE {
        let mut client = match tenants {
            Some(ts) => {
                let stride = (ts.len() / SAMPLE).max(1);
                CormClient::connect_mux(store.server.clone(), ts[(s * stride) % ts.len()].clone())
            }
            None => CormClient::connect(store.server.clone()),
        };
        let keys: Vec<usize> =
            (0..4 * 8).map(|_| rand::Rng::gen_range(&mut rng, 0..store.ptrs.len())).collect();
        let turn = std::slice::from_mut(&mut client);
        read_stream(turn, &store.ptrs, &keys, 8, LAT_SIZE, clock, |b| h.record_duration(b.cost));
    }
    let q = h.quantiles(&[0.5, 0.99]).expect("sample traffic non-empty");
    (q[0], q[1])
}

pub(crate) fn run(run: &mut Run) {
    // Panel A: three deterministic cells.
    let cells = [
        ("unloaded", run_isolation_cell(Some(QosConfig::default()), false)),
        ("qos-weighted", run_isolation_cell(Some(QosConfig::default()), true)),
        ("legacy-fifo", run_isolation_cell(None, true)),
    ];
    let mut t = Sheet::new(
        "Fig. 21 companion: QoS isolation (per-class completion latency) and connection scale",
        &["cell", "class", "p50_us", "p99_us", "samples"],
    );
    for (label, hists) in &cells {
        for class in TrafficClass::ALL {
            let h = &hists[class.index()];
            let Some(q) = h.quantiles(&[0.5, 0.99]) else { continue };
            t.row(&[(*label).into(), class.name().into(), f2(q[0]), f2(q[1]), h.len().into()]);
        }
    }

    // Panel B: connection-state census + sampled traffic at scale.
    let mut t2 = Sheet::new(
        "Panel B: per-client connection state (host bytes) and sampled multi-get latency",
        &["mode", "clients", "group", "bytes_per_client", "p50_us", "p99_us"],
    );
    let ratio = run_scale(&mut t2);

    run.emit("fig21_qos_scale", &t);
    t2.print();
    let detail = JsonObject::new()
        .uint("clients", CLIENTS as u64)
        .uint("mux_group", MUX_GROUP as u64)
        .field("isolation", t.to_json())
        .field("scale", t2.to_json())
        .float("state_bytes_ratio", ratio);
    run.json("fig21_qos_scale", &detail.build());

    let p99 = |cell: &str| t.find(&[("cell", cell), ("class", "latency")]).num("p99_us");
    let (unl, on, off) = (p99("unloaded"), p99("qos-weighted"), p99("legacy-fifo"));
    run.gate(
        on <= 2.0 * unl,
        format!(
            "latency-class p99 under a saturating bulk tenant stays within 2x unloaded: \
             {on:.2} us vs {unl:.2} us"
        ),
    );
    run.gate(
        on < off,
        format!("weighted QoS beats legacy FIFO for the latency class: {on:.2} us vs {off:.2} us"),
    );
    let bytes: Vec<f64> = t2.rows().map(|r| r.num("bytes_per_client")).collect();
    run.gate(
        ratio >= 50.0,
        format!(
            "mux-mode connection state is <= 1/50 of per-client QPs: {} B/client vs {} B/client \
             ({ratio:.0}x) at {CLIENTS} clients",
            bytes[1], bytes[0]
        ),
    );
}
