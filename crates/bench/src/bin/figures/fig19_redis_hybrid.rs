//! Fig. 19: active memory under the Redis traces with *hybrid* CoRM —
//! classes beyond the ID space fall back to offset-based CoRM-0 (§4.4.1),
//! removing vanilla CoRM's blind spot.
//!
//! Expected shape: hybrid CoRM is at least as good as Mesh on every trace
//! (paper: 12% better on t1, 5% on t2 for CoRM-16).

use corm_compact::strategy::CompactorKind;

use crate::fig18_redis_vanilla::redis_sheet;
use crate::run::Run;

pub(crate) fn run(run: &mut Run) {
    let t = redis_sheet(
        "Fig. 19: active memory (GiB), Redis traces, hybrid CoRM, 1 MiB blocks",
        &["trace", "threads", "No", "Ideal", "Mesh", "CoRM-0+8", "CoRM-0+12", "CoRM-0+16"],
        [
            CompactorKind::NoCompaction,
            CompactorKind::Ideal,
            CompactorKind::Mesh,
            CompactorKind::Hybrid { id_bits: 8 },
            CompactorKind::Hybrid { id_bits: 12 },
            CompactorKind::Hybrid { id_bits: 16 },
        ],
    );
    run.emit("fig19_redis_hybrid", &t);

    run.gate(
        t.rows()
            .all(|r| ["CoRM-0+8", "CoRM-0+12"].iter().all(|c| r.num(c) <= 1.015 * r.num("Mesh"))),
        "hybrid CoRM-0+8/12 match or beat Mesh everywhere (within the 1.5% their headers cost)",
    );
    let spiky = t.rows().filter(|r| r.num("threads") >= 8.0);
    run.gate(
        spiky.clone().filter(|r| r.text("trace") != "redis-mem-t2").all(|r| {
            ["CoRM-0+8", "CoRM-0+12", "CoRM-0+16"].iter().all(|c| r.num(c) < r.num("Mesh"))
        }),
        "every hybrid beats Mesh on t1 and t3",
    );
    // Deviation 3 of EXPERIMENTS.md, asserted as measured: the paper has
    // hybrid-16 5% *better* than Mesh on t2. Here it trails by ~2.5% at 32
    // threads: FIFO eviction leaves old blocks occupied at high offsets
    // and new blocks at low offsets — structure the offset rule exploits
    // but random IDs cannot. ROADMAP item 8 flips this gate.
    let t2_32 = t.find(&[("trace", "redis-mem-t2"), ("threads", "32")]);
    let gap = t2_32.num("CoRM-0+16") / t2_32.num("Mesh") - 1.0;
    run.gate(
        (0.01..=0.04).contains(&gap),
        format!(
            "known deviation: on t2 at 32 threads hybrid-16 trails Mesh by {:.1}% (paper: 5% ahead)",
            100.0 * gap
        ),
    );
}
