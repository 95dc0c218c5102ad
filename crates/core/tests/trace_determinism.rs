//! Replay-determinism coverage for the `corm-trace` subsystem (the
//! tentpole's hard constraint): tracing is purely observational, so
//!
//! - seeded runs produce byte-identical results with tracing enabled and
//!   disabled;
//! - two traced same-seed runs produce identical event orders (zero
//!   `trace diff` divergence) and reconcile per-op;
//! - the determinism-pinned configuration (`processing_units = 1`) and a
//!   four-unit NIC produce identical results and identical client-track
//!   event orders, traced or not.
//!
//! The workloads mirror the fig11 (sequential DirectRead under faults)
//! and fig12 (batched multi-get depth sweep) smoke shapes.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{FaultConfig, RnicConfig};
use corm_trace::{diff_events, reconcile, Event, TraceHandle, Track};

const SIZE: usize = 48;
const OBJECTS: usize = 64;
const OPS: usize = 200;

fn populate(config: ServerConfig) -> (Arc<CormServer>, Vec<GlobalPtr>) {
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(OBJECTS);
    let payload = vec![7u8; SIZE];
    for _ in 0..OBJECTS {
        let mut ptr = client.alloc(SIZE).expect("alloc").value;
        client.write(&mut ptr, &payload).expect("write");
        ptrs.push(ptr);
    }
    (server, ptrs)
}

fn faulty_config(trace: TraceHandle) -> ServerConfig {
    let faults = FaultConfig {
        seed: 0xBEEF,
        transient_prob: 0.02,
        delay_prob: 0.05,
        cache_miss_prob: 0.05,
        qp_break_prob: 0.01,
        ..FaultConfig::default()
    };
    ServerConfig {
        rnic: RnicConfig { faults: Some(faults), ..RnicConfig::default() },
        trace,
        ..ServerConfig::default()
    }
}

/// Fig11 shape: sequential DirectReads with recovery under a seeded fault
/// schedule. Returns per-op virtual costs and payloads — the replay
/// fingerprint.
fn run_fig11_shape(config: ServerConfig) -> (Vec<u64>, Vec<Vec<u8>>) {
    let (server, ptrs) = populate(config);
    let mut client = CormClient::connect(server.clone());
    let keys: Vec<usize> = {
        let mut rng = corm_sim_core::rng::stream_rng(11, 5);
        (0..OPS).map(|_| rand::Rng::gen_range(&mut rng, 0..OBJECTS)).collect()
    };
    let mut costs = Vec::with_capacity(OPS);
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; SIZE]; OPS];
    let mut clock = SimTime::ZERO;
    for (k, &key) in keys.iter().enumerate() {
        let mut ptr = ptrs[key];
        let t = client.direct_read_with_recovery(&mut ptr, &mut bufs[k], clock).expect("read");
        costs.push(t.cost.as_nanos());
        clock += t.cost;
    }
    (costs, bufs)
}

/// Fig12 shape: the same key stream issued as multi-gets over a depth
/// sweep. Returns per-batch virtual costs.
fn run_fig12_shape(config: ServerConfig) -> Vec<u64> {
    let (server, ptrs) = populate(config);
    let keys: Vec<usize> = {
        let mut rng = corm_sim_core::rng::stream_rng(12, 5);
        (0..OPS).map(|_| rand::Rng::gen_range(&mut rng, 0..OBJECTS)).collect()
    };
    let mut costs = Vec::new();
    let mut clock = SimTime::ZERO;
    for depth in [1usize, 4, 16] {
        let mut client = CormClient::connect(server.clone());
        for chunk in keys.chunks(depth) {
            let mut bptrs: Vec<GlobalPtr> = chunk.iter().map(|&k| ptrs[k]).collect();
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; SIZE]; chunk.len()];
            let t = client.read_batch(&mut bptrs, &mut bufs, clock).expect("batch");
            assert!(t.value.iter().all(|&n| n == SIZE));
            costs.push(t.cost.as_nanos());
            clock += t.cost;
        }
    }
    costs
}

#[test]
fn tracing_does_not_perturb_seeded_results() {
    let traced = TraceHandle::recording();
    let (costs_on, bufs_on) = run_fig11_shape(faulty_config(traced.clone()));
    let (costs_off, bufs_off) = run_fig11_shape(faulty_config(TraceHandle::disabled()));
    assert!(!traced.drain().is_empty(), "traced run must record events");
    assert_eq!(costs_on, costs_off, "fig11 costs must be identical traced vs untraced");
    assert_eq!(bufs_on, bufs_off, "fig11 payloads must be identical traced vs untraced");

    let traced = TraceHandle::recording();
    let batch_on = run_fig12_shape(faulty_config(traced.clone()));
    let batch_off = run_fig12_shape(faulty_config(TraceHandle::disabled()));
    assert!(!traced.drain().is_empty(), "traced batch run must record events");
    assert_eq!(batch_on, batch_off, "fig12 costs must be identical traced vs untraced");
}

#[test]
fn same_seed_traced_runs_have_identical_event_order_and_reconcile() {
    let t1 = TraceHandle::recording();
    let r1 = run_fig11_shape(faulty_config(t1.clone()));
    let e1 = t1.drain();
    let t2 = TraceHandle::recording();
    let r2 = run_fig11_shape(faulty_config(t2.clone()));
    let e2 = t2.drain();

    assert_eq!(r1, r2, "same-seed runs must produce identical results");
    assert!(!e1.is_empty());
    let d = diff_events(&e1, &e2);
    assert!(d.is_clean(), "same-seed event order must not diverge:\n{}", d.describe());

    let recon = reconcile(&e1);
    assert!(recon.ops > 0, "ops must be traced");
    assert!(
        recon.is_clean(),
        "{}/{} ops mismatched (max error {} ns)",
        recon.mismatched,
        recon.ops,
        recon.max_error_ns
    );

    let t3 = TraceHandle::recording();
    let b1 = run_fig12_shape(faulty_config(t3.clone()));
    let e3 = t3.drain();
    let t4 = TraceHandle::recording();
    let b2 = run_fig12_shape(faulty_config(t4.clone()));
    let e4 = t4.drain();
    assert_eq!(b1, b2);
    assert!(diff_events(&e3, &e4).is_clean(), "batched event order must not diverge");
    assert!(reconcile(&e3).is_clean(), "batched spans must reconcile");
}

/// The client-visible event stream, with NIC-internal detail tracks
/// (engine units, nic) filtered out: those legitimately re-attribute
/// across unit counts while the client-observed order must not.
fn client_track(events: &[Event]) -> Vec<Event> {
    events.iter().copied().filter(|e| e.track == Track::Client).collect()
}

#[test]
fn pinned_and_sharded_configs_trace_identically() {
    let pin = |trace: TraceHandle| {
        let mut c = faulty_config(trace);
        c.rnic.processing_units = 1;
        c
    };
    let shard = |trace: TraceHandle| {
        let mut c = faulty_config(trace);
        c.rnic.processing_units = 4;
        c
    };

    let tp = TraceHandle::recording();
    let rp = run_fig11_shape(pin(tp.clone()));
    let ts = TraceHandle::recording();
    let rs = run_fig11_shape(shard(ts.clone()));
    assert_eq!(rp, rs, "the unit count must not perturb seeded results");

    let (ep, es) = (tp.drain(), ts.drain());
    assert!(!ep.is_empty());
    let d = diff_events(&client_track(&ep), &client_track(&es));
    assert!(d.is_clean(), "client-track event order must match across configs:\n{}", d.describe());
    assert!(reconcile(&ep).is_clean());
    assert!(reconcile(&es).is_clean());
}
