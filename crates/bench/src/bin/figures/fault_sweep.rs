//! Fault sweep: client survival under injected NIC/fabric faults.
//!
//! Not a paper figure — a robustness scenario for the §3.5 recovery
//! machinery. A client loops DirectReads with full recovery while the
//! simulated NIC injects transient faults, latency spikes, forced
//! MTT-cache misses, and outright QP breaks at swept per-verb rates.
//! Every run is deterministic from its seed; the full fault log and
//! recovery counters are exported as JSON next to the CSV.

use corm_bench::report::{f2, fault_kind_name, Json, JsonObject, Sheet};
use corm_bench::sim::{run_fault_sweep, FaultSweepSpec};
use corm_sim_rdma::FaultConfig;

use crate::run::Run;

const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
const OPS: u64 = 2_000;

fn spec_for(rate: f64) -> FaultSweepSpec {
    FaultSweepSpec {
        ops: OPS,
        fault: FaultConfig {
            seed: 0xFA17,
            transient_prob: rate,
            delay_prob: rate,
            cache_miss_prob: rate,
            qp_break_prob: rate / 2.0,
            ..FaultConfig::default()
        },
        ..FaultSweepSpec::default()
    }
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fault sweep: DirectRead recovery under injected faults",
        &["fault_rate", "ops", "qp_breaks", "reconnects", "corrupted", "vtime_ms"],
    );
    let mut heaviest_log = Vec::new();
    for &rate in &RATES {
        let out = run_fault_sweep(&spec_for(rate));
        t.row(&[
            rate.into(),
            out.completed.into(),
            out.qp_breaks.into(),
            out.qp_reconnects.into(),
            out.corrupted.into(),
            f2(out.virtual_time.as_secs_f64() * 1e3),
        ]);
        heaviest_log = out.fault_log;
    }
    run.emit("fault_sweep", &t);

    // The heaviest rate's full fault log makes the run replayable and
    // auditable offline.
    let log: Vec<Json> = heaviest_log
        .iter()
        .map(|&(op, kind)| {
            JsonObject::new().uint("op", op).str("kind", fault_kind_name(kind)).build()
        })
        .collect();
    let detail = JsonObject::new()
        .field("runs", t.to_json())
        .field("heaviest_fault_log", Json::Arr(log))
        .build();
    run.json("fault_sweep", &detail);

    run.gate(
        t.rows().all(|r| r.num("ops") == OPS as f64 && r.num("corrupted") == 0.0),
        "every op completes at every fault rate, with zero corrupted reads",
    );
    run.gate(
        t.rows().all(|r| r.num("qp_breaks") == r.num("reconnects"))
            && t.rows().last().is_some_and(|r| r.num("qp_breaks") > 0.0),
        "QP breaks are injected, and each is recovered by exactly one reconnect",
    );
}
