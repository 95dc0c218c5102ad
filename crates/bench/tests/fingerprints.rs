//! Fingerprint identity of the four `simspeed` cells.
//!
//! The cells fold their seeded results into order-sensitive digests that
//! `corm_bench::simspeed::FINGERPRINTS` pins. Perf work on the simulator
//! is allowed to make these cells faster, never different: any drift here
//! means seeded behaviour changed. This is the check the `simspeed` figure
//! gates on, through the same `run_cells`, available as a plain test so
//! `cargo test` catches a drift before a figure run does.

use corm_bench::simspeed::{run_cells, FINGERPRINTS};
use corm_trace::TraceHandle;

#[test]
fn seeded_cells_match_pinned_fingerprints() {
    assert_eq!(
        FINGERPRINTS,
        [
            18_184_976_033_452_833_882,
            6_224_905_876_370_571_183,
            12_278_282_108_582_985_647,
            16_331_014_339_256_421_756
        ],
        "the pinned values themselves changed: say why in CHANGES.md and update this test"
    );
    let cells = run_cells(&TraceHandle::disabled());
    assert_eq!(cells.each_ref().map(|c| c.workload), ["fig12", "fig13", "fig21", "fig22"]);
    for (cell, want) in cells.iter().zip(FINGERPRINTS) {
        assert_eq!(cell.pinned, want);
        assert_eq!(
            cell.fingerprint, want,
            "seeded {} results drifted from the pinned fingerprint (perf changes must \
             keep results byte-identical)",
            cell.workload,
        );
    }
}
