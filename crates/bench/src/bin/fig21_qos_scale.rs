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
//! Gates (both panels are virtual-time deterministic, so smoke and full
//! assert the same invariants on different sizes):
//! - latency-class p99 under the saturating bulk tenant ≤ 2× unloaded,
//!   and strictly better than the legacy FIFO cell;
//! - per-client connection state in mux mode ≤ 1/50 of per-client-QP
//!   mode.

use std::sync::Arc;

use corm_bench::report::{f1, f2, write_csv, write_json, Json, JsonObject, Table};
use corm_bench::setup::populate_server;
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_core::GlobalPtr;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{MuxQp, QosConfig, QueuePair, ReadReq, RnicConfig, TrafficClass};
use corm_trace::TraceHandle;

const LAT_SIZE: usize = 64;
const BULK_SIZE: usize = 2048;
const LAT_OBJECTS: usize = 1024;
const BULK_OBJECTS: usize = 64;
const SYNC_PER_ROUND: usize = 2;
/// wr_id bands so completions classify without a side table.
const BULK_BAND: u64 = 1 << 40;
const SYNC_BAND: u64 = 1 << 41;

struct PanelASizes {
    rounds: usize,
    lat_per_round: usize,
    bulk_per_round: usize,
    tenant_space: u32,
}

struct ClassDist {
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

fn dist(h: &Histogram) -> ClassDist {
    let q = h.quantiles(&[0.5, 0.99]).unwrap_or(vec![0.0, 0.0]);
    ClassDist { p50_us: q[0], p99_us: q[1], samples: h.len() }
}

struct IsolationCell {
    label: &'static str,
    classes: [ClassDist; TrafficClass::COUNT],
}

/// Runs one Panel-A cell: `rounds` doorbell batches, each posting the
/// bulk scan ahead of the latency gets (plus a sync trickle) when
/// `loaded`, against an RNIC with the given QoS config. Returns per-class
/// completion-latency distributions. Entirely virtual-time deterministic.
fn run_isolation_cell(
    label: &'static str,
    qos: Option<QosConfig>,
    loaded: bool,
    sizes: &PanelASizes,
) -> IsolationCell {
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
    // Warm the NIC's translation cache over the whole working set before
    // measuring: otherwise the unloaded baseline's p99 is just the
    // first-round cold misses and the isolation gate compares against an
    // inflated yardstick.
    for (i, p) in lat_ptrs.iter().chain(bulk_ptrs.iter()).enumerate() {
        qp.post_read(p.rkey, p.vaddr, LAT_SIZE, i as u64);
    }
    qp.ring_doorbell(clock);
    for c in qp.poll_cq(usize::MAX) {
        assert!(c.is_ok(), "warmup verbs must succeed: {:?}", c.result);
        clock = clock.max(c.completed_at);
    }
    clock += SimDuration::from_micros(1);
    for _ in 0..sizes.rounds {
        // The saturator posts first: worst case for FIFO, the case the
        // weighted scheduler exists to absorb.
        if loaded {
            for i in 0..sizes.bulk_per_round {
                let p = bulk_ptrs[rand::Rng::gen_range(&mut rng, 0..BULK_OBJECTS)];
                qp.post(ReadReq {
                    class: TrafficClass::Bulk,
                    ..ReadReq::new(BULK_BAND | i as u64, p.rkey, p.vaddr, BULK_SIZE)
                });
            }
            for i in 0..SYNC_PER_ROUND {
                let p = lat_ptrs[rand::Rng::gen_range(&mut rng, 0..LAT_OBJECTS)];
                qp.post(ReadReq {
                    class: TrafficClass::Sync,
                    ..ReadReq::new(SYNC_BAND | i as u64, p.rkey, p.vaddr, LAT_SIZE)
                });
            }
        }
        for i in 0..sizes.lat_per_round {
            let p = lat_ptrs[rand::Rng::gen_range(&mut rng, 0..LAT_OBJECTS)];
            let tenant = 1 + rand::Rng::gen_range(&mut rng, 0..sizes.tenant_space);
            qp.post(ReadReq { tenant, ..ReadReq::new(i as u64, p.rkey, p.vaddr, LAT_SIZE) });
        }
        qp.ring_doorbell(clock);
        let mut makespan = SimDuration::ZERO;
        for c in qp.poll_cq(usize::MAX) {
            assert!(c.is_ok(), "isolation cell verbs must succeed: {:?}", c.result);
            let class = if c.wr_id & BULK_BAND != 0 {
                TrafficClass::Bulk
            } else if c.wr_id & SYNC_BAND != 0 {
                TrafficClass::Sync
            } else {
                TrafficClass::Latency
            };
            let wait = c.completed_at.saturating_since(clock);
            hists[class.index()].record_duration(wait);
            makespan = makespan.max(wait);
        }
        // The next round's doorbell rings after this batch drains plus a
        // little client think time — a closed loop, so queueing never
        // compounds across rounds.
        clock += makespan + SimDuration::from_micros(1);
    }
    IsolationCell { label, classes: hists.each_ref().map(dist) }
}

struct ScaleCell {
    mode: &'static str,
    clients: usize,
    group: usize,
    bytes_per_client: usize,
    sample_p50_us: f64,
    sample_p99_us: f64,
}

/// Panel B: census `clients` connections' host state in both modes and
/// run sample traffic through the mux path with the full population
/// attached.
fn run_scale(clients: usize, group: usize, sample: usize) -> (ScaleCell, ScaleCell) {
    let store = populate_server(ServerConfig::default(), LAT_OBJECTS, LAT_SIZE);
    let rnic = store.server.rnic().clone();

    // Per-client-QP mode: every client pins its own send/completion rings
    // at provisioned depth.
    let own_qps: Vec<QueuePair> = (0..clients).map(|_| QueuePair::connect(rnic.clone())).collect();
    let own_bytes: usize = own_qps.iter().map(|q| q.state_bytes()).sum();
    // One virtual clock carries across every sampled client and both
    // modes: the NIC engine's availability is monotone in virtual time,
    // so restarting each client at t=0 would charge later samples the
    // entire backlog of earlier ones.
    let mut clock = SimTime::ZERO;
    let own_sample = run_sample_traffic(&store, sample, None, &mut clock);
    drop(own_qps);

    // Mux mode: ceil(clients / group) shared connections, every tenant
    // attached before any traffic flows.
    let groups = clients.div_ceil(group);
    let mut muxes = Vec::with_capacity(groups);
    let mut tenants = Vec::with_capacity(clients);
    for g in 0..groups {
        let cap = group.min(clients - g * group);
        let mux = MuxQp::connect(rnic.clone(), cap);
        for _ in 0..cap {
            tenants.push(mux.attach().expect("attach under capacity"));
        }
        muxes.push(mux);
    }
    let mux_bytes: usize = muxes.iter().map(|m| m.state_bytes()).sum();
    let mux_sample = run_sample_traffic(&store, sample, Some(&tenants), &mut clock);

    let own = ScaleCell {
        mode: "own-qp",
        clients,
        group: 1,
        bytes_per_client: own_bytes / clients,
        sample_p50_us: own_sample.0,
        sample_p99_us: own_sample.1,
    };
    let mux = ScaleCell {
        mode: "mux",
        clients,
        group,
        bytes_per_client: mux_bytes / clients,
        sample_p50_us: mux_sample.0,
        sample_p99_us: mux_sample.1,
    };
    (own, mux)
}

/// Multi-get latency (p50, p99 in µs) for `sample` clients; mux tenants
/// are drawn striding across the attached population when provided.
fn run_sample_traffic(
    store: &corm_bench::setup::PopulatedStore,
    sample: usize,
    tenants: Option<&[corm_sim_rdma::MuxTenant]>,
    clock: &mut SimTime,
) -> (f64, f64) {
    let mut h = Histogram::new();
    let mut rng = corm_sim_core::rng::stream_rng(0xF21, 7);
    for s in 0..sample {
        let mut client = match tenants {
            Some(ts) => {
                let stride = (ts.len() / sample).max(1);
                CormClient::connect_mux(store.server.clone(), ts[(s * stride) % ts.len()].clone())
            }
            None => CormClient::connect(store.server.clone()),
        };
        for _ in 0..4 {
            let mut bptrs: Vec<GlobalPtr> = (0..8)
                .map(|_| store.ptrs[rand::Rng::gen_range(&mut rng, 0..store.ptrs.len())])
                .collect();
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; LAT_SIZE]; bptrs.len()];
            let t = client.read_batch(&mut bptrs, &mut bufs, *clock).expect("sample batch");
            h.record_duration(t.cost);
            *clock += t.cost;
        }
    }
    let q = h.quantiles(&[0.5, 0.99]).expect("sample traffic non-empty");
    (q[0], q[1])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Latency tenants are sparse probes (a handful of gets per round, each
    // from a different tenant); the bulk tenant is what saturates the
    // engines. A deep latency batch would self-queue and pollute the
    // unloaded yardstick with its own congestion.
    let (sizes, clients, group, sample) = if smoke {
        (
            PanelASizes { rounds: 150, lat_per_round: 8, bulk_per_round: 64, tenant_space: 8_192 },
            8_192usize,
            256usize,
            32usize,
        )
    } else {
        (
            PanelASizes {
                rounds: 1_500,
                lat_per_round: 8,
                bulk_per_round: 128,
                tenant_space: 100_000,
            },
            100_000usize,
            1_024usize,
            64usize,
        )
    };

    // Panel A: three deterministic cells.
    let unloaded = run_isolation_cell("unloaded", Some(QosConfig::default()), false, &sizes);
    let qos_on = run_isolation_cell("qos-weighted", Some(QosConfig::default()), true, &sizes);
    let fifo = run_isolation_cell("legacy-fifo", None, true, &sizes);

    let mut t = Table::new(
        "Fig. 21 companion: QoS isolation (per-class completion latency) and connection scale",
        &["cell", "class", "p50_us", "p99_us", "samples"],
    );
    let mut iso_rows: Vec<Json> = Vec::new();
    for cell in [&unloaded, &qos_on, &fifo] {
        for class in TrafficClass::ALL {
            let d = &cell.classes[class.index()];
            if d.samples == 0 {
                continue;
            }
            t.row(&[
                cell.label.to_string(),
                class.name().to_string(),
                f2(d.p50_us),
                f2(d.p99_us),
                d.samples.to_string(),
            ]);
            iso_rows.push(
                JsonObject::new()
                    .str("cell", cell.label)
                    .str("class", class.name())
                    .float("p50_us", d.p50_us)
                    .float("p99_us", d.p99_us)
                    .uint("samples", d.samples as u64)
                    .build(),
            );
        }
    }

    // Panel B: connection-state census + sampled traffic at scale.
    let (own, mux) = run_scale(clients, group, sample);
    let ratio = own.bytes_per_client as f64 / mux.bytes_per_client.max(1) as f64;
    let mut t2 = Table::new(
        "Panel B: per-client connection state (host bytes) and sampled multi-get latency",
        &["mode", "clients", "group", "bytes_per_client", "p50_us", "p99_us"],
    );
    let mut scale_rows: Vec<Json> = Vec::new();
    for cell in [&own, &mux] {
        t2.row(&[
            cell.mode.to_string(),
            cell.clients.to_string(),
            cell.group.to_string(),
            cell.bytes_per_client.to_string(),
            f1(cell.sample_p50_us),
            f1(cell.sample_p99_us),
        ]);
        scale_rows.push(
            JsonObject::new()
                .str("mode", cell.mode)
                .uint("clients", cell.clients as u64)
                .uint("group", cell.group as u64)
                .uint("bytes_per_client", cell.bytes_per_client as u64)
                .float("sample_p50_us", cell.sample_p50_us)
                .float("sample_p99_us", cell.sample_p99_us)
                .build(),
        );
    }

    t.print();
    println!();
    t2.print();
    let csv = write_csv("fig21_qos_scale", &t).expect("write csv");
    println!("\ncsv: {}", csv.display());
    let detail = JsonObject::new()
        .field("smoke", Json::Bool(smoke))
        .uint("clients", clients as u64)
        .uint("mux_group", group as u64)
        .uint("tenant_space", sizes.tenant_space as u64)
        .field("isolation", Json::Arr(iso_rows))
        .field("scale", Json::Arr(scale_rows))
        .float("state_bytes_ratio", ratio);
    let json = write_json("fig21_qos_scale", &detail.build()).expect("write json");
    println!("json: {}", json.display());

    // Gates — virtual-time deterministic, so smoke and full assert the
    // same shape on different sizes.
    let lat = TrafficClass::Latency.index();
    let (unl, on, off) =
        (unloaded.classes[lat].p99_us, qos_on.classes[lat].p99_us, fifo.classes[lat].p99_us);
    assert!(
        on <= 2.0 * unl,
        "latency-class p99 under a saturating bulk tenant must stay within 2x unloaded: \
         {on:.2}us vs {unl:.2}us unloaded"
    );
    assert!(
        on < off,
        "weighted QoS must beat legacy FIFO for the latency class: {on:.2}us vs {off:.2}us"
    );
    println!(
        "\nisolation gate passed: latency p99 {on:.2}us <= 2x unloaded {unl:.2}us \
         (legacy FIFO: {off:.2}us)"
    );
    assert!(
        ratio >= 50.0,
        "mux-mode connection state must be <= 1/50 of per-client QPs: \
         {} B/client vs {} B/client ({ratio:.0}x)",
        mux.bytes_per_client,
        own.bytes_per_client
    );
    println!(
        "scale gate passed: {} clients at {} B/client mux vs {} B/client own-QP ({ratio:.0}x)",
        clients, mux.bytes_per_client, own.bytes_per_client
    );
}
