//! Batch-depth sweep (a companion beyond the paper, the mechanism behind
//! Fig. 11/12's plateaus): aggregate DirectRead throughput as a function
//! of outstanding-request depth, uniform vs Zipf(0.99) keys.
//!
//! The paper reaches its throughput plateau (~2.2 Mreq/s aggregate) by
//! keeping many WQEs in flight per doorbell; this sweep shows the same
//! mechanism in the simulator. Each cell issues the same key stream as a
//! sequence of `read_batch` multi-gets of the given depth over a
//! miss-dominated population (fig11's scaled shape: 16 MiB working set,
//! 512-entry translation cache), reporting Kreq/s, speedup over the
//! single-outstanding-request baseline, and the NIC inbound-engine
//! utilization over the cell's virtual-time window. The rows are exported
//! as JSON next to the final cell's engine and fault/recovery counters.
//!
//! Under `--trace` the whole sweep is recorded; it is single-threaded, so
//! the traced event stream is fully deterministic and `trace_diff`-able
//! across same-seed runs.

use corm_bench::report::{engine_metrics, f2, f3, fault_metrics, JsonObject, Sheet};
use corm_bench::setup::{populate_server, read_stream};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_core::ReadOutcome;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::RnicConfig;
use corm_workloads::zipf::Zipfian;

use crate::run::Run;

const SIZE: usize = 512;
const CACHE_ENTRIES: usize = 512;
const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

const WORKING_SET: usize = 16 << 20;
const OPS: usize = 4_096;

pub(crate) fn run(run: &mut Run) {
    let trace = run.trace().clone();
    let mut t = Sheet::new(
        "Batch-depth sweep: batched DirectRead throughput",
        &["dist", "depth", "kreqs", "speedup", "engine_util", "sq_max", "cq_max"],
    );
    let mut final_json = None;

    for dist in ["uniform", "zipf"] {
        let gross = {
            let cfg = ServerConfig::default();
            let class =
                corm_core::consistency::class_for_payload(&cfg.alloc.classes, SIZE).expect("class");
            cfg.alloc.classes.size_of(class)
        };
        let objects = WORKING_SET / gross;
        let config = ServerConfig {
            rnic: RnicConfig { cache_entries: CACHE_ENTRIES, ..RnicConfig::default() },
            trace: trace.clone(),
            ..ServerConfig::default()
        };
        let store = populate_server(config, objects, SIZE);
        let server = store.server.clone();
        let rnic = server.rnic().clone();

        // One key stream per distribution, shared by every depth so the
        // cells differ only in batching.
        let mut rng = corm_sim_core::rng::root_rng(0xF12);
        let zipf = Zipfian::new(objects as u64, 0.99).scrambled();
        let keys: Vec<usize> = (0..OPS)
            .map(|_| match dist {
                "zipf" => (zipf.sample(&mut rng) % objects as u64) as usize,
                _ => rand::Rng::gen_range(&mut rng, 0..objects),
            })
            .collect();

        // The engine's FIFO admission clamps to its last admit time, so a
        // single monotonically advancing clock spans every cell; per-cell
        // utilization is the busy-time delta over the elapsed delta.
        let mut clock = SimTime::ZERO;

        // Single-outstanding-request baseline (the fig11 loop). The
        // synchronous verb path bypasses the inbound engine, so it has no
        // utilization figure.
        let mut client = CormClient::connect(server.clone());
        let mut buf = vec![0u8; SIZE];
        let start = clock;
        for &key in &keys {
            let d = client.direct_read(&store.ptrs[key], &mut buf, clock).expect("qp");
            assert!(matches!(d.value, ReadOutcome::Ok(_)));
            clock += d.cost;
        }
        let seq_kreqs = OPS as f64 / clock.saturating_since(start).as_secs_f64() / 1e3;
        t.row(&[
            dist.into(),
            "seq".into(),
            f2(seq_kreqs),
            f2(1.0),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);

        for depth in DEPTHS {
            // A fresh client per cell keeps the QP depth maxima and
            // doorbell counts attributable to this cell alone.
            let mut client = CormClient::connect(server.clone());
            let start = clock;
            let busy0 = rnic.engine_busy();
            let turn = std::slice::from_mut(&mut client);
            read_stream(turn, &store.ptrs, &keys, depth, SIZE, &mut clock, |_| {});
            let elapsed = clock.saturating_since(start);
            let kreqs = OPS as f64 / elapsed.as_secs_f64() / 1e3;
            let util = (rnic.engine_busy() - busy0).as_secs_f64() / elapsed.as_secs_f64();
            let d = client.qp().depth_stats();
            t.row(&[
                dist.into(),
                depth.into(),
                f2(kreqs),
                f2(kreqs / seq_kreqs),
                f3(util),
                d.sq_depth_max.into(),
                d.cq_depth_max.into(),
            ]);
            if dist == "zipf" && depth == *DEPTHS.last().unwrap() {
                // Full engine + fault snapshot from the final cell, so the
                // JSON carries both counter families side by side.
                final_json = Some(
                    JsonObject::new()
                        .field("engine_metrics", engine_metrics(&rnic, client.qp(), clock))
                        .field(
                            "fault_metrics",
                            fault_metrics(
                                &rnic,
                                client.qp().breaks(),
                                client.qp().reconnects(),
                                client.qp_recoveries,
                            ),
                        )
                        .build(),
                );
            }
        }
    }

    run.emit("ext_batch_depth", &t);
    let detail = JsonObject::new()
        .uint("ops", OPS as u64)
        .uint("payload_bytes", SIZE as u64)
        .field("cells", t.to_json())
        .field("final", final_json.expect("DEPTHS is non-empty"));
    run.json_traced("ext_batch_depth", detail);

    for dist in ["uniform", "zipf"] {
        let batched: Vec<_> = t.rows_where("dist", dist).skip(1).collect();
        let seq = t.find(&[("dist", dist), ("depth", "seq")]).num("kreqs");
        let grows = |col: &str| batched.windows(2).all(|w| w[0].num(col) < w[1].num(col));
        let deepest = batched.last().expect("DEPTHS is non-empty").num("engine_util");
        run.gate(
            grows("kreqs") && grows("engine_util") && (0.85..1.0).contains(&deepest),
            format!("{dist}: throughput grows with depth as the engine fills ({deepest:.2} at 32)"),
        );
        run.gate(
            batched[5].num("kreqs") / batched[4].num("kreqs")
                < batched[1].num("kreqs") / batched[0].num("kreqs"),
            format!("{dist}: the gain per doubling shrinks as the engine saturates"),
        );
        run.gate(
            (0.85..0.95).contains(&(batched[0].num("kreqs") / seq)),
            format!(
                "{dist}: depth 1 pays the doorbell without amortizing it (~0.91x of sequential)"
            ),
        );
    }
    run.gate(
        t.rows_where("dist", "zipf")
            .zip(t.rows_where("dist", "uniform"))
            .all(|(z, u)| z.num("kreqs") > u.num("kreqs")),
        "Zipf skew warms the translation cache and lifts every depth's Kreq/s",
    );
}
