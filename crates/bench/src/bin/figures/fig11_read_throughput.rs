//! Fig. 11: read throughput of CoRM vs FaRM vs the raw floors, for remote
//! (one-sided RDMA, left panel) and local (right panel) accesses.
//!
//! Paper setup: 8 GiB per size class, uniform access, one client with one
//! outstanding request — a working set far larger than the RNIC
//! translation cache, so remote reads are miss-dominated (~380 Kreq/s for
//! small objects). We scale the population and the translation cache by
//! the same factor, preserving the miss ratio and hence the shape.
//!
//! Expected shapes: raw RDMA fastest; CoRM ≈ FaRM (same consistency
//! check), within ~2% of raw for small objects; locally, CoRM ≈ FaRM ≈
//! 1.33× slower than memcpy for small objects, converging for large.

use std::sync::Arc;

use corm_bench::report::{f1, f2, kreqs_from_median, mreqs_from_median, Sheet};
use corm_bench::setup::populate_server;
use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::ReadOutcome;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{QueuePair, RnicConfig};

use crate::run::Run;

const SIZES: [usize; 9] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048];
/// Scaled working set: 16 MiB per class (paper: 8 GiB), with the
/// translation cache scaled from 16 K entries to 512 to keep the
/// pages-to-cache ratio (and so the miss ratio) comparable.
const WORKING_SET_BYTES: usize = 16 << 20;
const CACHE_ENTRIES: usize = 512;
const OPS: usize = 4_000;

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 11: single-client read throughput",
        &[
            "size",
            "corm_kreqs",
            "farm_kreqs",
            "rdma_kreqs",
            "corm_local_mreqs",
            "farm_local_mreqs",
            "memcpy_mreqs",
        ],
    );
    for size in SIZES {
        let gross = {
            let cfg = ServerConfig::default();
            let class =
                corm_core::consistency::class_for_payload(&cfg.alloc.classes, size).expect("class");
            cfg.alloc.classes.size_of(class)
        };
        let objects = WORKING_SET_BYTES / gross;
        let config = ServerConfig {
            rnic: RnicConfig { cache_entries: CACHE_ENTRIES, ..RnicConfig::default() },
            ..ServerConfig::default()
        };
        let store = populate_server(config.clone(), objects, size);
        let server = &store.server;
        let mut client = CormClient::connect(server.clone());
        let raw = QueuePair::connect(server.rnic().clone());

        // FaRM over the same scaled working set (1 MiB blocks), emulated as
        // CoRM with compaction off (§4.2, footnote 2).
        let farm = Arc::new(CormServer::new(ServerConfig {
            alloc: corm_alloc::AllocConfig { block_bytes: 1 << 20, ..config.alloc.clone() },
            frag_threshold: f64::INFINITY,
            ..config.clone()
        }));
        let mut farm_client = CormClient::connect(farm);
        let mut farm_ptrs = Vec::with_capacity(objects);
        for _ in 0..objects {
            farm_ptrs.push(farm_client.alloc(size).expect("farm alloc").value);
        }

        let mut h_corm = Histogram::new();
        let mut h_farm = Histogram::new();
        let mut h_raw = Histogram::new();
        let mut h_local = Histogram::new();
        let mut h_farm_local = Histogram::new();
        let mut buf = vec![0u8; size];

        // Uniform random keys (uncorrelated pages, like the paper). The
        // virtual clock advances with every op, so NIC busy windows and
        // time-based fault schedules see genuine arrival times instead of
        // a wall of requests at t=0.
        let mut rng = corm_sim_core::rng::root_rng(0xF11 + size as u64);
        let mut clock = SimTime::ZERO;
        for _ in 0..OPS {
            let key = rand::Rng::gen_range(&mut rng, 0..objects);
            let ptr = store.ptrs[key];
            let d = client.direct_read(&ptr, &mut buf, clock).expect("qp");
            assert!(matches!(d.value, ReadOutcome::Ok(_)));
            h_corm.record_duration(d.cost);
            clock += d.cost;
            // Raw reads draw their own keys so the CoRM read has not just
            // warmed the page's translation.
            let raw_key = rand::Rng::gen_range(&mut rng, 0..objects);
            let raw_ptr = store.ptrs[raw_key];
            let raw_cost =
                raw.read(raw_ptr.rkey, raw_ptr.vaddr, &mut buf, clock).expect("raw").latency;
            h_raw.record_duration(raw_cost);
            clock += raw_cost;
            let mut fp = farm_ptrs[key];
            let farm_cost =
                farm_client.direct_read_with_recovery(&mut fp, &mut buf, clock).expect("farm").cost;
            h_farm.record_duration(farm_cost);
            clock += farm_cost;
            let mut lp = store.ptrs[key];
            h_local.record_duration(client.local_read(&mut lp, &mut buf).expect("local").cost);
            let mut flp = farm_ptrs[key];
            h_farm_local
                .record_duration(farm_client.local_read(&mut flp, &mut buf).expect("fl").cost);
        }

        t.row(&[
            size.into(),
            f1(kreqs_from_median(&h_corm)),
            f1(kreqs_from_median(&h_farm)),
            f1(kreqs_from_median(&h_raw)),
            f2(mreqs_from_median(&h_local)),
            f2(mreqs_from_median(&h_farm_local)),
            f2(1.0 / server.model().memcpy_cost(size).as_micros_f64()),
        ]);
    }
    run.emit("fig11_read_throughput", &t);
    println!(
        "Scale: {} MiB/class working set, {}-entry translation cache\n\
         (paper: 8 GiB and 16 K — same pages:cache ratio).",
        WORKING_SET_BYTES >> 20,
        CACHE_ENTRIES
    );
}
