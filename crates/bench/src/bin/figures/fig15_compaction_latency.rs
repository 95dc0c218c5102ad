//! Fig. 15: compaction latencies, measured by running the real compaction
//! leader over real blocks:
//!
//! - left: collection time vs number of worker threads (Intel vs AMD);
//! - center: compaction time vs number of 4 KiB blocks (ConnectX-3,
//!   ConnectX-5 with `rereg_mr`, ConnectX-5 with ODP prefetch);
//! - right: compaction time of a *single* block vs block size in pages.
//!
//! Paper anchors: collection 10 µs @ 2 threads (Intel) vs 2 µs (AMD),
//! ≈ 31 µs @ 16 threads; ≈ 100 µs per 4 KiB block on CX-3 (70 µs of it in
//! `rereg_mr`) growing linearly with the block count; 12 ms for a 256-page
//! block on CX-3, with CX-5 cheaper and ODP cheapest.
//!
//! Every pass's full [`CompactionReport`] — blocks freed, objects
//! relocated/copied, per-stage costs — is exported as JSON alongside the
//! CSVs, one array per panel.

use std::sync::Arc;

use corm_bench::report::{compaction_metrics, f1, Cell, Json, JsonObject, Sheet};
use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::CompactionReport;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{LatencyModel, MttUpdateStrategy, RnicConfig};

use crate::run::Run;

/// Builds a server where each of `blocks` blocks holds exactly one 32-byte
/// object (always compactable), then runs one compaction pass.
fn run_compaction(
    workers: usize,
    blocks: usize,
    block_bytes: usize,
    model: LatencyModel,
    strategy: MttUpdateStrategy,
) -> corm_core::server::CompactionReport {
    let server = Arc::new(CormServer::new(ServerConfig {
        workers,
        mtt_strategy: strategy,
        alloc: corm_alloc::AllocConfig {
            block_bytes,
            file_bytes: (16 << 20).max(block_bytes),
            ..Default::default()
        },
        rnic: RnicConfig { model, ..RnicConfig::default() },
        ..ServerConfig::default()
    }));
    let mut client = CormClient::connect(server.clone());
    let class = corm_core::consistency::class_for_payload(server.classes(), 32).unwrap();
    // One object per block: fill a block's worth minus all but one, or
    // simpler — allocate one object, force the thread allocator to open a
    // new block by filling the current one? With one object per *thread*
    // per block we exploit the per-worker allocators: allocate `blocks`
    // objects and free everything that shares a block with an earlier
    // object.
    // Two phases so freed slots are never refilled: allocate every slot of
    // every block, then free all but the first object per block.
    let slots = server.block_bytes() / server.classes().size_of(class);
    let mut all: Vec<_> =
        (0..blocks * slots).map(|_| client.alloc(32).expect("alloc").value).collect();
    for (i, p) in all.iter_mut().enumerate() {
        if i % slots != 0 {
            client.free(p).expect("free filler");
        }
    }
    server.compact_class(class, SimTime::ZERO).expect("compaction").value
}

/// Tags a pass's [`CompactionReport`] metrics with its panel coordinates.
fn pass_json(coord: &str, value: usize, variant: &str, report: &CompactionReport) -> Json {
    JsonObject::new()
        .uint(coord, value as u64)
        .str("variant", variant)
        .field("report", compaction_metrics(report))
        .build()
}

/// A device/CPU variant of a panel: its column name and how its server
/// is configured.
type Variant = (&'static str, LatencyModel, MttUpdateStrategy);

/// The three NIC variants of the center and right panels.
fn nics() -> [Variant; 3] {
    [
        ("connectx3", LatencyModel::connectx3(), MttUpdateStrategy::Rereg),
        ("connectx5", LatencyModel::connectx5(), MttUpdateStrategy::Rereg),
        ("connectx5_odp", LatencyModel::connectx5(), MttUpdateStrategy::OdpPrefetch),
    ]
}

/// One panel: a row per value of `coord` in `xs`, a column per variant
/// holding `cost` of the pass `pass` runs for it. Returns the sheet and
/// every pass's report as JSON.
fn panel(
    title: &str,
    coord: &str,
    xs: &[usize],
    variants: &[Variant],
    pass: impl Fn(usize, LatencyModel, MttUpdateStrategy) -> CompactionReport,
    cost: impl Fn(&CompactionReport) -> SimDuration,
) -> (Sheet, Vec<Json>) {
    let header: Vec<&str> = [coord].into_iter().chain(variants.iter().map(|v| v.0)).collect();
    let mut sheet = Sheet::new(title, &header);
    let mut passes = Vec::new();
    for &x in xs {
        let mut row: Vec<Cell> = vec![x.into()];
        for (variant, model, strategy) in variants {
            let report = pass(x, model.clone(), *strategy);
            row.push(f1(cost(&report).as_micros_f64()));
            passes.push(pass_json(coord, x, variant, &report));
        }
        sheet.row(&row);
    }
    (sheet, passes)
}

pub(crate) fn run(run: &mut Run) {
    let (left, left_passes) = panel(
        "Fig. 15 (left): collection time vs threads (us)",
        "threads",
        &[2, 4, 8, 16],
        &[
            ("intel", LatencyModel::connectx5(), MttUpdateStrategy::OdpPrefetch),
            ("amd", LatencyModel::connectx5_amd(), MttUpdateStrategy::OdpPrefetch),
        ],
        |threads, model, strategy| run_compaction(threads, threads, 4096, model, strategy),
        |report| report.collection_cost,
    );
    run.emit("fig15_collection", &left);

    let (center, center_passes) = panel(
        "Fig. 15 (center): compaction time of 4 KiB blocks (us)",
        "blocks",
        &[2, 4, 8, 16],
        &nics(),
        |blocks, model, strategy| {
            let report = run_compaction(1, blocks, 4096, model, strategy);
            assert_eq!(report.merges, blocks - 1, "all blocks must merge into one");
            report
        },
        |report| report.compaction_cost,
    );
    run.emit("fig15_compaction_blocks", &center);

    let (right, right_passes) = panel(
        "Fig. 15 (right): compaction time of one block vs size (us)",
        "pages",
        &[1, 4, 16, 64, 256],
        &nics(),
        |pages, model, strategy| run_compaction(1, 2, pages * 4096, model, strategy),
        |report| report.compaction_cost,
    );
    run.emit("fig15_compaction_block_size", &right);

    run.json(
        "fig15_compaction_latency",
        &JsonObject::new()
            .field("collection_vs_threads", Json::Arr(left_passes))
            .field("compaction_vs_blocks", Json::Arr(center_passes))
            .field("compaction_vs_block_size", Json::Arr(right_passes))
            .build(),
    );
}
