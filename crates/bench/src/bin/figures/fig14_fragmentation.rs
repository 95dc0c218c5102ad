//! Fig. 14: DirectRead throughput under fragmentation, read-only YCSB,
//! sweeping Zipf skewness at 8 clients.
//!
//! Paper setup: the "no fragmentation" store loads 8 M 32-byte objects;
//! the "high fragmentation" store loads 16 M and randomly frees 50% — the
//! same live data spread over twice the pages, so the RNIC translation
//! cache misses more often. Expected shape: unfragmented ≈ 1.25× faster
//! for moderate skew, converging at θ=0.99 where the hot set fits the
//! cache either way.

use corm_bench::report::{f1, f2, Sheet};
use corm_bench::setup::populate_server;
use corm_bench::sim::{run_closed_loop, ClosedLoopSpec, ReadPath};
use corm_core::server::ServerConfig;
use corm_core::GlobalPtr;
use corm_sim_core::time::SimDuration;
use corm_sim_rdma::RnicConfig;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::run::Run;

const LIVE_OBJECTS: usize = 256 * 1024;
const THETAS: [f64; 5] = [0.6, 0.7, 0.8, 0.9, 0.99];
const CLIENTS: usize = 8;

fn throughput(
    store_ptrs: &mut [GlobalPtr],
    server: &std::sync::Arc<corm_core::CormServer>,
    theta: f64,
) -> f64 {
    let workload = Workload::new(store_ptrs.len() as u64, KeyDist::Zipf(theta), Mix::READ_ONLY);
    let spec = ClosedLoopSpec {
        duration: SimDuration::from_millis(200),
        warmup: SimDuration::from_millis(50),
        read_path: ReadPath::Rdma,
        ..ClosedLoopSpec::new(workload, CLIENTS)
    };
    run_closed_loop(server, store_ptrs, &spec).kreqs
}

pub(crate) fn run(run: &mut Run) {
    let config = ServerConfig {
        rnic: RnicConfig { cache_entries: 3072, ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    // No fragmentation: exactly the live population.
    let nofrag = populate_server(config.clone(), LIVE_OBJECTS, 32);

    // High fragmentation: double population, then free 50% at random.
    let mut frag = populate_server(config, 2 * LIVE_OBJECTS, 32);
    let survivors = frag.fragment(0.5, 7);
    let mut frag_ptrs: Vec<GlobalPtr> = survivors.into_iter().map(|(_, p)| p).collect();

    let mut t = Sheet::new(
        "Fig. 14: DirectRead throughput (Kreq/s), 100:0 mix, 8 clients",
        &["theta", "no_fragmentation", "high_fragmentation", "speedup"],
    );
    let mut nofrag_ptrs = nofrag.ptrs.clone();
    for &theta in &THETAS {
        let a = throughput(&mut nofrag_ptrs, &nofrag.server, theta);
        let b = throughput(&mut frag_ptrs, &frag.server, theta);
        t.row(&[theta.into(), f1(a), f1(b), f2(a / b)]);
    }
    run.emit("fig14_fragmentation", &t);

    let gaps: Vec<f64> = t.rows().map(|r| r.num("speedup")).collect();
    run.gate(gaps.iter().all(|&g| g > 1.0), "the unfragmented store wins at every theta");
    run.gate(
        gaps.windows(2).all(|w| w[0] > w[1]),
        "the gap is largest at moderate skew and closes toward theta = 0.99",
    );
    // Deviation 2 of EXPERIMENTS.md, asserted as measured: the paper's gap
    // reaches 1.25x. Ours peaks at ~1.08x: the NIC model has an LRU
    // translation cache but no MTT-swap cliff. ROADMAP item 8 raises this
    // band when `mtt.rs` models the spill cost.
    run.gate(
        (1.05..=1.12).contains(&gaps[0]),
        format!(
            "known deviation: the gap peaks at ~1.08x, measured {:.3}x (paper: 1.25x)",
            gaps[0]
        ),
    );
}
