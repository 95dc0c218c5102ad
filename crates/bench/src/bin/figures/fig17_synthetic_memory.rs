//! Fig. 17: active memory under synthetic allocation-spike workloads,
//! 1 MiB blocks.
//!
//! Traces allocate N objects of one size, then randomly deallocate a
//! fixed fraction (x-axis 0.4–0.9); strategies: No compaction, Ideal,
//! Mesh, CoRM-8/12/16 (vanilla — classes beyond the ID space are not
//! compacted; CoRM's header overhead is charged).
//!
//! The paper's text says 8 M objects, but its y-axis scales (e.g. 12 GiB
//! peak for 12,288-byte objects) correspond to ~1 M objects — we use 2^20
//! and note this in EXPERIMENTS.md. Expected shapes: Mesh works only for
//! large objects + high dealloc; CoRM-16 tracks Ideal from 2 KiB up;
//! CoRM-16 *exceeds* No-compaction for 256-byte objects (ID collisions
//! make compaction useless while headers still cost).

use corm_bench::report::{f1, gib, Cell, Sheet};
use corm_compact::strategy::CompactorKind;
use corm_workloads::replay::{ClassPolicy, ModelHeap};
use corm_workloads::synthetic::{synthetic_trace, SyntheticSpec};

use crate::run::Run;

const OBJECTS: u64 = 1 << 20;
const SIZES: [usize; 4] = [256, 2048, 8192, 12288];
const RATES: [f64; 6] = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const BLOCK: usize = 1 << 20;

/// The strategies of Figs. 17 and 18, in column order.
pub(crate) const VANILLA_KINDS: [CompactorKind; 6] = [
    CompactorKind::NoCompaction,
    CompactorKind::Ideal,
    CompactorKind::Mesh,
    CompactorKind::Corm { id_bits: 8 },
    CompactorKind::Corm { id_bits: 12 },
    CompactorKind::Corm { id_bits: 16 },
];

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fig. 17: active memory (GiB) under synthetic workloads, 1 MiB blocks",
        &["size", "dealloc", "No", "Ideal", "Mesh", "CoRM-8", "CoRM-12", "CoRM-16"],
    );
    for size in SIZES {
        for rate in RATES {
            let spec = SyntheticSpec {
                objects: OBJECTS,
                size,
                dealloc_rate: rate,
                seed: 0x17AC + size as u64,
            };
            let trace = synthetic_trace(&spec);
            let mut row: Vec<Cell> = vec![size.into(), f1(rate)];
            for kind in VANILLA_KINDS {
                let mut heap =
                    ModelHeap::with_policy(kind, BLOCK, 1, 0xF17, ClassPolicy::Dedicated);
                heap.replay(&trace);
                row.push(gib(heap.finish().active_bytes));
            }
            t.row(&row);
        }
    }
    run.emit("fig17_synthetic_memory", &t);
    println!("Scale: {OBJECTS} objects (2^20; see EXPERIMENTS.md on the paper's ambiguous count).");

    run.gate(
        t.rows_where("size", "256").all(|r| (r.num("Mesh") / r.num("No") - 1.0).abs() < 0.001),
        "Mesh = No for 256 B objects at every deallocation rate",
    );
    run.gate(
        t.rows()
            .filter(|r| r.num("Mesh") < 0.9 * r.num("No"))
            .all(|r| r.num("size") >= 2048.0 && r.num("dealloc") >= 0.7),
        "Mesh saves 10% or more only for objects >= 2 KiB at deallocation >= 0.7",
    );
    let large = t.rows().filter(|r| r.num("size") >= 2048.0 && r.num("dealloc") >= 0.5);
    run.gate(
        large.clone().all(|r| r.num("CoRM-16") < 1.3 * r.num("Ideal"))
            && large
                .filter(|r| r.num("dealloc") == 0.5)
                .all(|r| r.num("CoRM-16") < 1.02 * r.num("Ideal")),
        "CoRM-16 tracks Ideal for >= 2 KiB at deallocation >= 0.5 (within 2% at 0.5, 30% beyond)",
    );
    run.gate(
        t.rows_where("size", "256")
            .filter(|r| r.num("dealloc") <= 0.8)
            .all(|r| r.num("CoRM-16") > r.num("No")),
        "CoRM-16 costs more than No for 256 B up to 0.8 (headers without compaction gains)",
    );
    run.gate(
        t.rows().filter(|r| r.num("size") < 4096.0).all(|r| r.num("CoRM-8") >= r.num("No"))
            && t.rows()
                .filter(|r| r.num("size") >= 8192.0 && r.num("dealloc") >= 0.7)
                .all(|r| r.num("CoRM-8") < 0.6 * r.num("No")),
        "vanilla CoRM-8 never compacts below 4 KiB objects (slots > 256 IDs) and does at 8/12 KiB",
    );
}
