//! Fig. 18: active memory under the Redis memefficiency traces with
//! *vanilla* CoRM — classes whose blocks hold more objects than the ID
//! space can address are simply not compacted (§4.4.1).
//!
//! Traces t1/t2/t3 per §4.4.3; allocations are served by 1/8/16/32
//! thread-local allocators with the thread picked uniformly at random.
//! Expected shapes: fragmentation grows strongly with the thread count;
//! Mesh beats vanilla CoRM wherever small classes dominate (CoRM cannot
//! compact them); CoRM-16 wins on t1/t3.

use corm_bench::report::{gib, Cell, Sheet};
use corm_compact::strategy::CompactorKind;
use corm_workloads::redis::{redis_trace, RedisTrace};
use corm_workloads::replay::ModelHeap;

use crate::fig17_synthetic_memory::VANILLA_KINDS;
use crate::run::Run;

const BLOCK: usize = 1 << 20;
const THREADS: [usize; 4] = [1, 8, 16, 32];

/// Replays the three Redis traces at every thread count under each of
/// `kinds`, one column per kind (Figs. 18 and 19 differ in the kinds).
pub(crate) fn redis_sheet(title: &str, header: &[&str], kinds: [CompactorKind; 6]) -> Sheet {
    let mut t = Sheet::new(title, header);
    for trace_kind in [RedisTrace::T1, RedisTrace::T2, RedisTrace::T3] {
        let ops = redis_trace(trace_kind, 0x12ED);
        for &threads in &THREADS {
            let mut row: Vec<Cell> = vec![trace_kind.label().into(), threads.into()];
            for kind in kinds {
                let mut heap = ModelHeap::new(kind, BLOCK, threads, 0xD15 + threads as u64);
                heap.replay(&ops);
                row.push(gib(heap.finish().active_bytes));
            }
            t.row(&row);
        }
    }
    t
}

pub(crate) fn run(run: &mut Run) {
    let t = redis_sheet(
        "Fig. 18: active memory (GiB), Redis traces, vanilla CoRM, 1 MiB blocks",
        &["trace", "threads", "No", "Ideal", "Mesh", "CoRM-8", "CoRM-12", "CoRM-16"],
        VANILLA_KINDS,
    );
    run.emit("fig18_redis_vanilla", &t);

    let no: Vec<f64> = t.rows_where("trace", "redis-mem-t1").map(|r| r.num("No")).collect();
    run.gate(
        no.windows(2).all(|w| w[0] < w[1]) && (3.0..=12.0).contains(&(no[3] / no[0])),
        format!("t1 fragmentation grows 3-12x from 1 to 32 threads ({:.1}x)", no[3] / no[0]),
    );
    run.gate(
        t.rows_where("threads", "1").all(|r| {
            ["Mesh", "CoRM-8", "CoRM-12", "CoRM-16"].iter().all(|c| r.num(c) >= 0.99 * r.num("No"))
        }),
        "single-threaded there is no allocation spike and no strategy helps",
    );
    let spiky = t.rows().filter(|r| r.num("threads") >= 8.0);
    run.gate(
        spiky
            .clone()
            .filter(|r| r.text("trace") != "redis-mem-t2")
            .all(|r| ["Mesh", "CoRM-8", "CoRM-12"].iter().all(|c| r.num("CoRM-16") <= r.num(c))),
        "CoRM-16 is the best strategy on t1 and t3",
    );
    run.gate(
        spiky
            .filter(|r| r.text("trace") == "redis-mem-t2")
            .all(|r| r.num("Mesh") < r.num("CoRM-16")),
        "Mesh beats vanilla CoRM-16 on t2, whose tiny-key classes CoRM cannot compact",
    );
}
