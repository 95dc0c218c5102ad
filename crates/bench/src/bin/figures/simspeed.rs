//! The simulator's determinism gate (`corm_bench::simspeed`): the four
//! seeded cells must fold to their pinned fingerprints. Their events/sec
//! are printed for orientation and gate nothing — the host-time
//! instrument is `benchmark/`.

use corm_bench::report::{f2, Cell, Sheet};
use corm_bench::simspeed::{host_cpus, run_cells};

use crate::run::Run;

pub fn run(run: &mut Run) {
    let cells = run_cells(run.trace());
    let mut t = Sheet::new(
        format!("simspeed: simulator wall-clock speed (host_cpus={})", host_cpus()),
        &["workload", "events", "wall_ms", "events_per_sec", "wall_per_virt_sec"],
    );
    for c in &cells {
        t.row(&[
            c.workload.into(),
            c.events.into(),
            f2(c.wall_secs * 1e3),
            Cell::Float { value: c.events_per_sec(), decimals: Some(0) },
            f2(c.wall_per_virtual_sec()),
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
