//! The simulator's determinism gate (`corm_bench::simspeed`): the four
//! seeded cells, run once each, must fold to their pinned fingerprints.
//! No wall clock is read: the host-time instrument is `benchmark/`.

use corm_bench::report::{f2, Sheet};
use corm_bench::simspeed::run_cells;

use crate::run::Run;

pub(crate) fn run(run: &mut Run) {
    let cells = run_cells(run.trace());
    let mut t = Sheet::new(
        "simspeed: the four seeded cells",
        &["workload", "events", "virtual_ms", "fingerprint"],
    );
    for c in &cells {
        t.row(&[
            c.workload.into(),
            c.events.into(),
            f2(c.virt.as_secs_f64() * 1e3),
            c.fingerprint.into(),
        ]);
    }
    t.print();
    for c in &cells {
        run.gate(
            c.fingerprint == c.pinned,
            format!(
                "the seeded {} cell folds to its pinned fingerprint {} (got {})",
                c.workload, c.pinned, c.fingerprint
            ),
        );
    }
}
