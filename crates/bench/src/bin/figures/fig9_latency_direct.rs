//! Fig. 9: median latency of CoRM operations with direct pointers, per
//! object size (8 B – 2 KiB), against the RPC and raw-RDMA baselines.
//!
//! Paper setup: CoRM preloaded with 10,000 objects of each size class
//! (≈40 MiB), a single remote client, all pointers direct. Anchors: raw
//! RDMA ≥ 1.7 µs and < 4 µs at 2 KiB; Alloc/Free ≈ RPC + 0.5 µs;
//! DirectRead ≈ raw RDMA for objects < 256 B.

use corm_bench::report::{f2, median_us, Sheet};
use corm_bench::setup::populate_server;
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_core::ReadOutcome;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::QueuePair;

use crate::run::Run;

const SIZES: [usize; 9] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048];
const PRELOAD_PER_SIZE: usize = 2_000; // paper: 10,000 (scaled; same shape)
const OPS: usize = 500;

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 9: median operation latency with direct pointers (us)",
        &["size", "alloc", "free", "rpc_read", "rpc_write", "direct_read", "rpc_base", "rdma_base"],
    );

    for size in SIZES {
        // A fresh store per size keeps the working set ≈ the paper's.
        let store = populate_server(ServerConfig::default(), PRELOAD_PER_SIZE, size);
        let server = store.server.clone();
        let mut client = CormClient::connect(server.clone());
        let raw = QueuePair::connect(server.rnic().clone());

        let mut h_alloc = Histogram::new();
        let mut h_free = Histogram::new();
        let mut h_read = Histogram::new();
        let mut h_write = Histogram::new();
        let mut h_direct = Histogram::new();
        let mut h_raw = Histogram::new();
        let mut buf = vec![0u8; size];
        let payload = vec![0x5Au8; size];

        // The virtual clock advances with every issued op so the NIC sees
        // genuine arrival times rather than a wall of requests at t=0.
        let mut clock = SimTime::ZERO;

        // Prime the NIC translation cache like the paper's warmup phase.
        for ptr in store.ptrs.iter().take(256) {
            if let Ok(out) = raw.read(ptr.rkey, ptr.vaddr, &mut buf, clock) {
                clock += out.latency;
            }
        }

        for i in 0..OPS {
            let key = (i * 7) % store.ptrs.len();
            // Alloc + Free pair (state-neutral).
            let alloc = client.alloc(size).expect("alloc");
            h_alloc.record_duration(alloc.cost);
            clock += alloc.cost;
            let mut p = alloc.value;
            let free_cost = client.free(&mut p).expect("free").cost;
            h_free.record_duration(free_cost);
            clock += free_cost;

            let mut ptr = store.ptrs[key];
            let read_cost = client.read(&mut ptr, &mut buf).expect("read").cost;
            h_read.record_duration(read_cost);
            clock += read_cost;
            let write_cost = client.write(&mut ptr, &payload).expect("write").cost;
            h_write.record_duration(write_cost);
            clock += write_cost;
            let d = client.direct_read(&ptr, &mut buf, clock).expect("qp");
            assert!(matches!(d.value, ReadOutcome::Ok(_)), "direct pointers only");
            h_direct.record_duration(d.cost);
            clock += d.cost;
            let raw_cost = raw.read(ptr.rkey, ptr.vaddr, &mut buf, clock).expect("raw").latency;
            h_raw.record_duration(raw_cost);
            clock += raw_cost;
        }

        // Client-API costs are already end-to-end round trips.
        t.row(&[
            size.into(),
            f2(median_us(&h_alloc)),
            f2(median_us(&h_free)),
            f2(median_us(&h_read)),
            f2(median_us(&h_write)),
            f2(median_us(&h_direct)),
            f2(server.model().rpc_latency(size).as_micros_f64()),
            f2(median_us(&h_raw)),
        ]);
    }
    run.emit("fig9_latency_direct", &t);
    println!(
        "(the paper's IPoIB reference on the same link: {:.1} us)",
        corm_sim_rdma::LatencyModel::connectx5().ipoib_rtt.as_micros_f64()
    );
}
