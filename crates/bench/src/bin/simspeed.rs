//! Simulator-speed benchmark binary.
//!
//! Measures events/sec and wall-seconds-per-virtual-second on the fixed
//! `simspeed` workloads (see `corm_bench::simspeed`) and prints the
//! measurement; a plain run writes nothing.
//!
//! - `--update` rewrites the committed `BENCH_simspeed.json` at the
//!   workspace root, carrying the `baseline_heap` section forward from the
//!   existing file (or seeding it from this run on first publish, or from
//!   `CORM_SIMSPEED_HEAP_FIG12`/`_FIG13` if set), and appends a trajectory
//!   point keyed by `HEAD` — `<HEAD>+dirty` when the work tree differs
//!   from it, as it does when the measured change is not committed yet.
//! - `--smoke` is the CI gate: it compares the fresh measurement against
//!   the committed `BENCH_simspeed.json` and exits non-zero if any
//!   workload's events/sec regressed by more than the tolerance (10% by
//!   default; override with `CORM_SIMSPEED_TOL=0.25` for noisier hosts)
//!   or any cell's fingerprint differs from the committed one.

use corm_bench::report::{f2, Table};
use corm_bench::simspeed::{
    bench_json, committed_bench_path, host_cpus, parse_committed, parse_trajectory,
    push_trajectory, run_fig12_cell, run_fig13_cell, run_fig21_cell, run_fig22_cell, SpeedCell,
    TrajectoryEntry,
};
use corm_trace::TraceHandle;

/// `git <args>` in the current directory, trimmed stdout; `None` off a
/// work tree (the committed history then records `unknown`).
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let t = s.trim();
    (!t.is_empty()).then(|| t.to_string())
}

/// The commit a trajectory point is keyed by: `HEAD`, marked `+dirty`
/// when the measured tree is not what `HEAD` holds.
fn measured_sha() -> String {
    let Some(head) = git(&["rev-parse", "--short=12", "HEAD"]) else { return "unknown".into() };
    match git(&["status", "--porcelain"]) {
        Some(_) => format!("{head}+dirty"),
        None => head,
    }
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.parse().ok()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let update = std::env::args().any(|a| a == "--update");
    let trace = TraceHandle::disabled();

    let fig12 = run_fig12_cell(&trace);
    let fig13 = run_fig13_cell(&trace);
    let fig21 = run_fig21_cell(&trace);
    let fig22 = run_fig22_cell(&trace);

    let mut t = Table::new(
        format!("simspeed: simulator wall-clock speed (host_cpus={})", host_cpus()),
        &["workload", "events", "wall_ms", "events_per_sec", "wall_per_virt_sec"],
    );
    for c in [&fig12, &fig13, &fig21, &fig22] {
        t.row(&[
            c.workload.to_string(),
            c.events.to_string(),
            f2(c.wall_secs * 1e3),
            format!("{:.0}", c.events_per_sec()),
            f2(c.wall_per_virtual_sec()),
        ]);
    }
    t.print();

    let committed_path = committed_bench_path();
    let committed_text = std::fs::read_to_string(&committed_path).ok();
    let committed = committed_text.as_deref().and_then(|s| {
        let parsed = parse_committed(s);
        if parsed.is_none() {
            eprintln!("warning: {} exists but did not parse", committed_path.display());
        }
        parsed
    });
    let mut trajectory = committed_text.as_deref().map(parse_trajectory).unwrap_or_default();
    if update {
        trajectory = push_trajectory(
            trajectory,
            TrajectoryEntry {
                sha: measured_sha(),
                date: git(&["show", "-s", "--format=%cs", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
                fig12_events_per_sec: fig12.events_per_sec(),
                fig13_events_per_sec: fig13.events_per_sec(),
                fig21_events_per_sec: fig21.events_per_sec(),
                fig22_events_per_sec: fig22.events_per_sec(),
            },
        );
    }

    // The BinaryHeap-era baseline rides along in every snapshot so the
    // speedup column stays anchored to the pre-optimization simulator. A
    // snapshot that lost it (hand edit, truncated publish) is recomputed
    // from the slowest trajectory point — the closest surviving record of
    // the pre-optimization speed — before falling back to this run.
    let slowest = |pick: fn(&TrajectoryEntry) -> f64| {
        trajectory.iter().map(pick).fold(f64::INFINITY, f64::min)
    };
    let heap = (
        env_f64("CORM_SIMSPEED_HEAP_FIG12")
            .or(committed.as_ref().map(|c| c.heap_fig12_events_per_sec))
            .or((!trajectory.is_empty()).then(|| slowest(|e| e.fig12_events_per_sec)))
            .unwrap_or_else(|| fig12.events_per_sec()),
        env_f64("CORM_SIMSPEED_HEAP_FIG13")
            .or(committed.as_ref().map(|c| c.heap_fig13_events_per_sec))
            .or((!trajectory.is_empty()).then(|| slowest(|e| e.fig13_events_per_sec)))
            .unwrap_or_else(|| fig13.events_per_sec()),
    );
    println!(
        "\nspeedup vs BinaryHeap baseline: fig12 {:.2}x, fig13 {:.2}x",
        fig12.events_per_sec() / heap.0,
        fig13.events_per_sec() / heap.1
    );

    if update {
        let doc = bench_json(&fig12, &fig13, &fig21, &fig22, heap, &trajectory);
        std::fs::write(&committed_path, doc.render()).expect("write BENCH_simspeed.json");
        println!("updated {}", committed_path.display());
    }

    if smoke {
        let committed = committed.unwrap_or_else(|| {
            panic!(
                "--smoke needs a parseable committed {} (run with --update first)",
                committed_path.display()
            )
        });
        let tol = env_f64("CORM_SIMSPEED_TOL").unwrap_or(0.10);
        let gate = |cell: &SpeedCell, committed_eps: f64| {
            let floor = committed_eps * (1.0 - tol);
            let measured = cell.events_per_sec();
            assert!(
                measured >= floor,
                "simspeed regression on {}: measured {:.0} events/sec is more than {:.0}% \
                 below the committed {:.0} (floor {:.0}); if intentional, refresh \
                 BENCH_simspeed.json with --update",
                cell.workload,
                measured,
                tol * 100.0,
                committed_eps,
                floor,
            );
            println!(
                "smoke gate passed: {} {:.0} events/sec vs committed {:.0} (floor {:.0})",
                cell.workload, measured, committed_eps, floor
            );
        };
        gate(&fig12, committed.fig12_events_per_sec);
        gate(&fig13, committed.fig13_events_per_sec);
        // Snapshots published before the mux cell carry no fig21 floor;
        // the first --update after this binary lands establishes one.
        match committed.fig21_events_per_sec {
            Some(eps) => gate(&fig21, eps),
            None => println!(
                "smoke gate skipped for fig21: committed snapshot predates the mux cell \
                 (refresh with --update)"
            ),
        }
        match committed.fig22_events_per_sec {
            Some(eps) => gate(&fig22, eps),
            None => println!(
                "smoke gate skipped for fig22: committed snapshot predates the tiering cell \
                 (refresh with --update)"
            ),
        }
        // Determinism gate: the serial cells' fingerprints are a pure
        // function of the seed, so they must match the committed snapshot
        // bit for bit — any drift means the simulator's seeded behaviour
        // changed, which no perf work is allowed to do.
        let mut pinned = 0;
        for (cell, want) in [
            (&fig12, committed.fig12_fingerprint),
            (&fig13, committed.fig13_fingerprint),
            (&fig21, committed.fig21_fingerprint),
            (&fig22, committed.fig22_fingerprint),
        ] {
            match want {
                Some(fp) => {
                    assert_eq!(
                        cell.fingerprint, fp,
                        "seeded {} results drifted from the committed fingerprint",
                        cell.workload,
                    );
                    pinned += 1;
                }
                None => println!(
                    "fingerprint gate skipped for {}: committed snapshot predates \
                     fingerprint publication (refresh with --update)",
                    cell.workload,
                ),
            }
        }
        if pinned > 0 {
            println!("fingerprint gate passed: {pinned} serial cells match the committed snapshot");
        }
    }
}
