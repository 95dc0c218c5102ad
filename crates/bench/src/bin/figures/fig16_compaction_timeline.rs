//! Fig. 16: client read throughput before, during, and after a large
//! compaction pass, for the two pointer-correction strategies.
//!
//! Paper setup: 8 M 32-byte objects, 75% randomly freed, a client reading
//! all objects sequentially; compaction triggered at t = 2 s (5,794 blocks
//! compacted in one unbounded pass). Top panel: server corrects pointers
//! via *thread messaging* — the RPC client stalls (~700 ms) because the
//! owner of every collected block is the busy leader, while the RDMA
//! client recovers itself via ScanRead and never stalls. Bottom panel:
//! server corrects by *block scanning* — no long stall, a transient
//! slowdown instead; the RDMA client using RPC corrections degrades more.
//!
//! A fifth panel runs the worst case (thread messaging, RPC client) with a
//! pause budget: the pass yields between merges, queued corrections are
//! answered at every yield, and the stall collapses to roughly the budget.
//! The per-panel pause columns report p50/p99 of the busy intervals
//! between yields (one whole-pass interval without a budget).
//!
//! Scaled to 256 K objects; the same qualitative regimes appear.
//!
//! The pause gate runs on a smaller store, the size its bound is
//! calibrated for: with a pause budget, p99 read latency during the pass
//! stays under budget + one merge + one op.

use std::collections::BTreeMap;

use corm_bench::report::{f1, Sheet};
use corm_bench::setup::populate_server;
use corm_bench::sim::{run_closed_loop, ClosedLoopSpec, ReadPath, SimOutput};
use corm_core::client::FixStrategy;
use corm_core::server::{CompactionReport, CorrectionStrategy, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::RnicConfig;
use corm_workloads::ycsb::{KeyDist, Mix, Workload};

use crate::run::Run;

const OBJECTS: usize = 256 * 1024;
/// Store size of the pause gate.
const GATE_OBJECTS: usize = 48 * 1024;
const TRIGGER: SimTime = SimTime::from_millis(2_000);
/// Pause budget for the budgeted panel and the pause gate.
const BUDGET: SimDuration = SimDuration::from_micros(200);

struct Panel {
    out: SimOutput,
    window: (f64, f64),
}

impl Panel {
    fn report(&self) -> &CompactionReport {
        self.out.compaction_report.as_ref().expect("compaction fired")
    }

    /// p50/p99 of the pass's busy intervals between yields, in µs.
    fn pause_us(&self) -> (f64, f64) {
        let mut pauses = Histogram::new();
        for &chunk in &self.report().chunks {
            pauses.record_duration(chunk);
        }
        (pauses.median().unwrap_or(0.0), pauses.p99().unwrap_or(0.0))
    }
}

fn server_config(correction: CorrectionStrategy, budget: Option<SimDuration>) -> ServerConfig {
    ServerConfig {
        correction,
        compaction_budget: budget,
        rnic: RnicConfig { cache_entries: 512, ..RnicConfig::default() },
        ..ServerConfig::default()
    }
}

fn run_panel(
    correction: CorrectionStrategy,
    read_path: ReadPath,
    fix: FixStrategy,
    budget: Option<SimDuration>,
    objects: usize,
) -> Panel {
    let mut store = populate_server(server_config(correction, budget), objects, 32);
    let survivors = store.fragment(0.75, 13);
    let mut ptrs: Vec<GlobalPtr> = survivors.iter().map(|&(_, p)| p).collect();
    let class = corm_core::consistency::class_for_payload(store.server.classes(), 32).unwrap();
    let workload = Workload::new(ptrs.len() as u64, KeyDist::Uniform, Mix::READ_ONLY);
    let spec = ClosedLoopSpec {
        duration: SimDuration::from_millis(5_500),
        warmup: SimDuration::from_millis(500),
        read_path,
        fix_strategy: fix,
        timeline_bucket: Some(SimDuration::from_millis(100)),
        compaction_at: Some((TRIGGER, class)),
        ..ClosedLoopSpec::new(workload, 1)
    };
    let out = run_closed_loop(&store.server, &mut ptrs, &spec);
    let window = out
        .compaction_window
        .map(|(a, b)| (a.as_secs_f64(), b.as_secs_f64()))
        .unwrap_or((0.0, 0.0));
    Panel { out, window }
}

fn pause_gate(run: &mut Run) {
    // Pause-bounded pass: during the pass, a corrected read stalls at
    // most to the end of the running chunk (budget + the merge that
    // overran it), then costs one op. Bound the merge overshoot by a
    // full block's merge cost from the model.
    let p = run_panel(
        CorrectionStrategy::ThreadMessaging,
        ReadPath::Rpc,
        FixStrategy::ScanRead,
        Some(BUDGET),
        GATE_OBJECTS,
    );
    let report = p.report();
    run.gate(report.yields >= 1, format!("the budgeted pass yields ({} yields)", report.yields));
    let model = corm_sim_rdma::LatencyModel::default();
    let class = corm_core::consistency::class_for_payload(&corm_alloc::SizeClasses::standard(), 32)
        .unwrap();
    let slot = corm_alloc::SizeClasses::standard().size_of(class);
    let slots = 4096 / slot;
    let strategy = server_config(CorrectionStrategy::ThreadMessaging, None).mtt_strategy;
    let merge_us = model.block_compaction_cost(strategy, 1, slots * slot, slots).as_micros_f64();
    let during = p.out.read_latency_during.p99().expect("reads during the pass");
    let outside = p.out.read_latency_outside.p99().expect("reads outside the pass");
    let bound = BUDGET.as_micros_f64() + merge_us + outside;
    run.gate(
        during < bound,
        format!(
            "a pause-bounded pass bounds serve latency: p99 during the pass {during:.1} us < \
             {bound:.1} us (budget {:.0} + merge {merge_us:.1} + op {outside:.1})",
            BUDGET.as_micros_f64()
        ),
    );
}

pub(crate) fn run(run: &mut Run) {
    type PanelSpec = (&'static str, CorrectionStrategy, ReadPath, FixStrategy, Option<SimDuration>);
    let panels: [PanelSpec; 5] = [
        (
            "messaging/rpc-client",
            CorrectionStrategy::ThreadMessaging,
            ReadPath::Rpc,
            FixStrategy::ScanRead,
            None,
        ),
        (
            "messaging/rdma-client+scan",
            CorrectionStrategy::ThreadMessaging,
            ReadPath::Rdma,
            FixStrategy::ScanRead,
            None,
        ),
        (
            "scan/rpc-client",
            CorrectionStrategy::BlockScan,
            ReadPath::Rpc,
            FixStrategy::ScanRead,
            None,
        ),
        (
            "scan/rdma-client+rpcfix",
            CorrectionStrategy::BlockScan,
            ReadPath::Rdma,
            FixStrategy::RpcRead,
            None,
        ),
        (
            "messaging/rpc+budget",
            CorrectionStrategy::ThreadMessaging,
            ReadPath::Rpc,
            FixStrategy::ScanRead,
            Some(BUDGET),
        ),
    ];
    let mut t = Sheet::new(
        "Fig. 16: read throughput timeline around compaction (Kreq/s per 100 ms bucket)",
        &["panel", "t_sec", "kreqs"],
    );
    let mut pauses = Sheet::new(
        "Per-panel compaction pause and read p99 (us)",
        &["panel", "pause_p50", "pause_p99", "p99_during", "p99_outside"],
    );
    for (name, correction, path, fix, budget) in panels {
        let p = run_panel(correction, path, fix, budget, OBJECTS);
        println!(
            "{name}: compaction window {:.3}s..{:.3}s, {} blocks freed, {} yields",
            p.window.0,
            p.window.1,
            p.report().merges,
            p.report().yields
        );
        for (t_sec, rate) in p.out.timeline.as_ref().expect("timeline").rates() {
            t.row(&[name.into(), f1(t_sec), f1(rate / 1e3)]);
        }
        let (p50, p99) = p.pause_us();
        pauses.row(&[
            name.into(),
            f1(p50),
            f1(p99),
            f1(p.out.read_latency_during.p99().unwrap_or(0.0)),
            f1(p.out.read_latency_outside.p99().unwrap_or(0.0)),
        ]);
    }
    // The full sheet is long; print a summary instead: per-panel
    // throughput before/during/after the trigger.
    run.csv("fig16_compaction_timeline", &t);
    let means = summarize(&t);
    means.print();
    pauses.print();

    let panel =
        |sheet: &Sheet, name: &str, column: &str| sheet.find(&[("panel", name)]).num(column);
    let dip = |name: &str| 1.0 - panel(&means, name, "2-3s") / panel(&means, name, "before");
    run.gate(
        dip("messaging/rpc-client") > 0.15,
        format!(
            "thread messaging stalls the RPC client: its 2-3 s window dips {:.0}% below before",
            100.0 * dip("messaging/rpc-client")
        ),
    );
    run.gate(
        ["messaging/rdma-client+scan", "scan/rpc-client", "scan/rdma-client+rpcfix"]
            .iter()
            .all(|p| dip(p) < 0.03),
        "an RDMA client and block-scan correction each keep the dip under 3%",
    );
    let stalled = panel(&pauses, "messaging/rpc-client", "p99_during");
    let budgeted = panel(&pauses, "messaging/rpc+budget", "p99_during");
    run.gate(
        budgeted < 2.0 * BUDGET.as_micros_f64() && stalled > 100.0 * budgeted,
        format!(
            "the pause budget collapses the RPC client's stall: read p99 during the pass \
             {stalled:.0} us -> {budgeted:.0} us"
        ),
    );
    run.gate(
        means.rows().all(|r| (r.num("after") / r.num("before") - 1.0).abs() < 0.01),
        "every panel returns to its pre-compaction throughput",
    );
    pause_gate(run);
}

/// Mean Kreq/s per panel before the trigger, in the 2-3 s window that
/// holds the pass, and after it.
fn summarize(t: &Sheet) -> Sheet {
    let mut per: BTreeMap<String, [Vec<f64>; 3]> = BTreeMap::new();
    for r in t.rows() {
        let (bucket, rate) = ((r.num("t_sec") * 10.0).round() as u32, r.num("kreqs"));
        if rate == 0.0 && bucket < 10 {
            continue; // warmup buckets carry no samples
        }
        let window = match bucket {
            0..20 => 0,
            20..30 => 1,
            _ => 2,
        };
        per.entry(r.text("panel")).or_default()[window].push(rate);
    }
    let mut means =
        Sheet::new("Per-panel mean throughput (Kreq/s)", &["panel", "before", "2-3s", "after"]);
    for (panel, windows) in per {
        let [before, during, after] = windows.map(|v| f1(v.iter().sum::<f64>() / v.len() as f64));
        means.row(&[panel.into(), before, during, after]);
    }
    means
}
