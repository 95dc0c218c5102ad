//! Fault sweep: client survival under injected NIC/fabric faults.
//!
//! Not a paper figure — a robustness scenario for the §3.5 recovery
//! machinery. A client loops DirectReads with full recovery while the
//! simulated NIC injects transient faults, latency spikes, forced
//! MTT-cache misses, and outright QP breaks at swept per-verb rates.
//! Every run is deterministic from its seed; the full fault log and
//! recovery counters are exported as JSON next to the CSV.

use corm_bench::report::{f2, fault_kind_name, Json, JsonObject, Sheet};
use corm_bench::setup::{fill_pattern, populate_server};
use corm_core::client::CormClient;
use corm_core::server::ServerConfig;
use corm_sim_core::rng::stream_rng;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{FaultConfig, RnicConfig};

use crate::run::Run;

const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
const OBJECTS: usize = 512;
const VALUE_LEN: usize = 32;
const OPS: u64 = 2_000;
/// Seeds the fault draws at every rate, and the key selection.
const SEED: u64 = 0xFA17;

fn faults_at(rate: f64) -> FaultConfig {
    FaultConfig {
        seed: SEED,
        transient_prob: rate,
        delay_prob: rate,
        cache_miss_prob: rate,
        qp_break_prob: rate / 2.0,
        ..FaultConfig::default()
    }
}

/// One client loops `OPS` DirectReads with recovery over `OBJECTS` objects
/// on a server whose NIC injects `fault`, checking every payload against
/// its key's pattern. Returns the reads completed and corrupted, their
/// total virtual time, and the client (its QP counts breaks and
/// reconnects, its server's NIC holds the fault log).
///
/// Panics if any read fails outright: recovery must absorb every fault.
fn sweep(fault: FaultConfig) -> (u64, u64, SimDuration, CormClient) {
    let config = ServerConfig {
        rnic: RnicConfig { faults: Some(fault), ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    // Population runs over RPC, so it consumes no one-sided verbs and the
    // fault stream starts exactly at the first DirectRead.
    let mut store = populate_server(config, OBJECTS, VALUE_LEN);
    let mut client = CormClient::connect(store.server.clone());
    let mut rng = stream_rng(SEED, 7);
    let mut buf = [0u8; VALUE_LEN];
    let mut expect = [0u8; VALUE_LEN];
    let (mut completed, mut corrupted) = (0, 0);
    let mut clock = SimTime::ZERO;
    for _ in 0..OPS {
        let key = rand::Rng::gen_range(&mut rng, 0..OBJECTS as u64);
        let ptr = &mut store.ptrs[key as usize];
        let t = client
            .direct_read_with_recovery(ptr, &mut buf, clock)
            .unwrap_or_else(|e| panic!("read of key {key} must survive faults: {e}"));
        fill_pattern(&mut expect, key);
        if buf[..t.value] != expect[..] {
            corrupted += 1;
        }
        completed += 1;
        clock += t.cost;
    }
    (completed, corrupted, clock - SimTime::ZERO, client)
}

pub(crate) fn run(run: &mut Run) {
    let mut t = Sheet::new(
        "Fault sweep: DirectRead recovery under injected faults",
        &["fault_rate", "ops", "qp_breaks", "reconnects", "corrupted", "vtime_ms"],
    );
    let mut heaviest_log = Vec::new();
    for &rate in &RATES {
        let (completed, corrupted, vtime, client) = sweep(faults_at(rate));
        t.row(&[
            rate.into(),
            completed.into(),
            client.qp().breaks().into(),
            client.qp().reconnects().into(),
            corrupted.into(),
            f2(vtime.as_secs_f64() * 1e3),
        ]);
        heaviest_log = client.server().rnic().fault_log();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_survives_injected_faults_without_corruption() {
        let (completed, corrupted, _, client) = sweep(FaultConfig {
            seed: 11,
            transient_prob: 0.01,
            delay_prob: 0.01,
            cache_miss_prob: 0.02,
            qp_break_prob: 0.005,
            ..FaultConfig::default()
        });
        assert_eq!(completed, OPS);
        assert_eq!(corrupted, 0, "no injected fault may corrupt data");
        assert!(!client.server().rnic().fault_log().is_empty(), "these rates must fire");
        assert!(client.qp().breaks() > 0, "transients and breaks must break the QP");
        assert_eq!(client.qp().breaks(), client.qp().reconnects(), "every break recovered");
    }

    #[test]
    fn fault_sweep_replays_byte_for_byte_from_seed() {
        let fault = FaultConfig {
            seed: 99,
            transient_prob: 0.02,
            qp_break_prob: 0.01,
            ..FaultConfig::default()
        };
        let (_, _, a_time, a) = sweep(fault.clone());
        let (_, _, b_time, b) = sweep(fault);
        assert_eq!(
            a.server().rnic().fault_log(),
            b.server().rnic().fault_log(),
            "same seed, same fault schedule"
        );
        assert_eq!(a_time, b_time, "recovery costs replay too");
        assert_eq!(a.qp().reconnects(), b.qp().reconnects());
    }

    #[test]
    fn fault_sweep_disabled_faults_cost_nothing_extra() {
        let (_, _, clean_time, clean) = sweep(FaultConfig::default());
        assert_eq!(clean.qp().breaks(), 0);
        assert!(clean.server().rnic().fault_log().is_empty());
        let (_, _, faulty_time, _) =
            sweep(FaultConfig { seed: 3, qp_break_prob: 0.01, ..FaultConfig::default() });
        assert!(
            faulty_time > clean_time,
            "reconnects must cost virtual time: {faulty_time} vs {clean_time}"
        );
    }
}
