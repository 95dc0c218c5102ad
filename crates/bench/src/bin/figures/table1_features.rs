//! Table 1: comparison of FaRM, CoRM, and Mesh.
//!
//! The matrix is the paper's; what backs each cell in this repository:
//! Mesh's strategy (`corm-compact`) has no RDMA path, FaRM is emulated as
//! a `CormServer` with `frag_threshold = ∞` (CoRM's data path, compaction
//! never triggered; §4.2, footnote 2), and CoRM reuses virtual addresses
//! via the tracker in `corm-core`.

use corm_bench::report::Sheet;

use crate::run::Run;

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Table 1: Comparison of FaRM, CoRM, and Mesh",
        &["System", "Type", "RDMA", "Mem. Compaction", "Vaddr Reuse"],
    );
    // Mesh is a malloc replacement: compaction without RDMA or vaddr reuse.
    t.row(&["Mesh".into(), "Allocator".into(), "no".into(), "yes".into(), "no".into()]);
    // FaRM: RDMA DSM, no compaction (vaddr reuse is moot: objects never
    // move, so no old addresses accumulate).
    t.row(&["FaRM".into(), "DSM".into(), "yes".into(), "no".into(), "-".into()]);
    // CoRM: all three.
    t.row(&["CoRM".into(), "DSM".into(), "yes".into(), "yes".into(), "yes".into()]);
    run.emit("table1_features", &t);

    let all_three: Vec<String> = t
        .rows()
        .filter(|r| ["RDMA", "Mem. Compaction", "Vaddr Reuse"].iter().all(|c| r.text(c) == "yes"))
        .map(|r| r.text("System"))
        .collect();
    run.gate(all_three == ["CoRM"], "CoRM is the one system with RDMA, compaction and vaddr reuse");
    run.gate(
        t.rows_where("System", "Mesh").all(|r| r.text("RDMA") == "no")
            && t.rows_where("System", "FaRM").all(|r| r.text("Mem. Compaction") == "no"),
        "Mesh has no RDMA path and FaRM never compacts",
    );
}
