//! Fingerprint identity against the committed benchmark snapshot.
//!
//! The four `simspeed` cells fold their seeded results into order-sensitive
//! digests that `BENCH_simspeed.json` pins. Perf work on the simulator is
//! allowed to make these cells faster, never different: any drift here
//! means seeded behaviour changed. This is the same check `simspeed
//! --smoke` enforces in CI, available as a plain test so `cargo test`
//! catches a drift before a benchmark run does.

use corm_bench::simspeed::{
    committed_bench_path, parse_committed, run_fig12_cell, run_fig13_cell, run_fig21_cell,
    run_fig22_cell,
};
use corm_trace::TraceHandle;

#[test]
fn seeded_cells_match_committed_fingerprints() {
    let path = committed_bench_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("skipping: no committed snapshot at {}", path.display());
        return;
    };
    let committed = parse_committed(&text)
        .unwrap_or_else(|| panic!("{} exists but did not parse", path.display()));
    let trace = TraceHandle::disabled();
    let checks: [(&str, u64, Option<u64>); 4] = [
        ("fig12", run_fig12_cell(&trace).fingerprint, committed.fig12_fingerprint),
        ("fig13", run_fig13_cell(&trace).fingerprint, committed.fig13_fingerprint),
        ("fig21", run_fig21_cell(&trace).fingerprint, committed.fig21_fingerprint),
        ("fig22", run_fig22_cell(&trace).fingerprint, committed.fig22_fingerprint),
    ];
    for (name, got, want) in checks {
        match want {
            Some(fp) => assert_eq!(
                got, fp,
                "seeded {name} results drifted from the committed fingerprint \
                 (perf changes must keep results byte-identical; an intentional \
                 semantic change must refresh BENCH_simspeed.json with --update)",
            ),
            None => eprintln!("no committed {name} fingerprint to pin (snapshot predates it)"),
        }
    }
}
