//! Fig. 12: aggregate YCSB throughput vs number of clients, for uniform
//! and Zipf(0.99) keys, read:write mixes 100:0 / 95:5 / 50:50, and reads
//! over RPC vs one-sided RDMA.
//!
//! Paper setup: 8 M 32-byte objects, one-minute steady state. Scaled here
//! to 256 K objects with a proportionally smaller translation cache (same
//! pages:cache ratio) and a sub-second measured window — shapes preserved:
//! RPC plateaus ≈ 700 Kreq/s; DirectReads reach ≈ 2× (50:50) to ≈ 3×
//! (Zipf 100:0) that, with Zipf above uniform for the read-dominated
//! mixes thanks to translation-cache locality. At 50:50 the two
//! distributions saturate together (the RPC write path is the
//! bottleneck), so no order between them is asserted there.

use corm_bench::report::{f1, Sheet};
use corm_bench::setup::populate_server;
use corm_bench::sim::{run_closed_loop, ClosedLoopSpec, ReadPath};
use corm_core::server::ServerConfig;
use corm_sim_core::time::SimDuration;
use corm_sim_rdma::RnicConfig;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::run::Run;

const OBJECTS: usize = 256 * 1024;
const CACHE_ENTRIES: usize = 512;
const CLIENTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

pub(crate) fn run(run: &mut Run) {
    let config = ServerConfig {
        rnic: RnicConfig { cache_entries: CACHE_ENTRIES, ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let mut store = populate_server(config, OBJECTS, 32);
    let mut t = Sheet::new(
        "Fig. 12: YCSB aggregate throughput (Kreq/s)",
        &["dist", "mix", "path", "clients", "kreqs"],
    );
    for dist_name in ["uniform", "zipf"] {
        for mix in [Mix::READ_ONLY, Mix::READ_HEAVY, Mix::BALANCED] {
            for path in [ReadPath::Rpc, ReadPath::Rdma] {
                for &clients in &CLIENTS {
                    let dist = match dist_name {
                        "uniform" => KeyDist::Uniform,
                        _ => KeyDist::Zipf(0.99),
                    };
                    let workload = Workload::new(OBJECTS as u64, dist, mix);
                    let spec = ClosedLoopSpec {
                        duration: SimDuration::from_millis(150),
                        warmup: SimDuration::from_millis(50),
                        read_path: path,
                        ..ClosedLoopSpec::new(workload, clients)
                    };
                    let out = run_closed_loop(&store.server, &mut store.ptrs, &spec);
                    t.row(&[
                        dist_name.into(),
                        mix.label().into(),
                        format!("{path:?}").into(),
                        clients.into(),
                        f1(out.kreqs),
                    ]);
                }
            }
        }
    }
    run.emit("fig12_ycsb_throughput", &t);
    println!(
        "Scale: {OBJECTS} × 32 B objects, {CACHE_ENTRIES}-entry translation\n\
         cache, 150 ms measured window (paper: 8 M objects, 16 K entries, 60 s)."
    );

    let kreqs = |dist: &str, mix: &str, path: &str, clients: usize| {
        let clients = clients.to_string();
        t.find(&[("dist", dist), ("mix", mix), ("path", path), ("clients", &clients)]).num("kreqs")
    };
    let plateau = |dist: &str, mix: &str, path: &str| kreqs(dist, mix, path, 32);
    run.gate(
        t.rows_where("path", "Rpc")
            .filter(|r| r.num("clients") >= 2.0)
            .all(|r| (550.0..=800.0).contains(&r.num("kreqs"))),
        "RPC reads plateau inside 550-800 Kreq/s from 2 clients on (paper: ~700)",
    );
    run.gate(
        t.rows_where("path", "Rdma").all(|r| {
            r.num("kreqs")
                > kreqs(&r.text("dist"), &r.text("mix"), "Rpc", r.num("clients") as usize)
        }),
        "one-sided reads beat RPC reads at every client count, mix and distribution",
    );
    for dist in ["uniform", "zipf"] {
        let ratio = plateau(dist, "50:50", "Rdma") / plateau(dist, "50:50", "Rpc");
        run.gate(
            (1.8..=2.2).contains(&ratio),
            format!("{dist} 50:50: the one-sided plateau is ~2x RPC ({ratio:.2}x)"),
        );
        run.gate(
            plateau(dist, "100:0", "Rdma") > plateau(dist, "95:5", "Rdma")
                && plateau(dist, "95:5", "Rdma") > plateau(dist, "50:50", "Rdma"),
            format!("{dist}: one-sided plateaus order 100:0 > 95:5 > 50:50"),
        );
    }
    let ratio = plateau("zipf", "100:0", "Rdma") / plateau("zipf", "100:0", "Rpc");
    run.gate(
        (2.7..=3.3).contains(&ratio),
        format!("Zipf 100:0: the one-sided plateau is ~3x RPC ({ratio:.2}x)"),
    );
    run.gate(
        ["100:0", "95:5"].iter().all(|mix| {
            CLIENTS
                .iter()
                .all(|&c| kreqs("zipf", mix, "Rdma", c) > kreqs("uniform", mix, "Rdma", c))
        }),
        "Zipf beats uniform for 100:0 and 95:5 at every client count (translation-cache locality)",
    );
}
