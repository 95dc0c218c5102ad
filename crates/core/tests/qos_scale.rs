//! QoS-scheduler and shared-connection replay pins.
//!
//! Four invariants guard the QoS scheduler and shared queue pairs:
//!
//! 1. **Uniform QoS is invisible**: a seeded run with an equal-weights
//!    [`QosConfig`] (scheduler on, uniform discipline) is byte-identical —
//!    costs, payloads, *and* the traced event stream — to the same run
//!    with QoS off. Enabling the feature without skewing weights cannot
//!    perturb any pinned replay.
//! 2. **Shared replay identity**: a client riding a DCT-style shared
//!    queue pair (`CormClient::connect_shared`) alone replays a seeded
//!    faulty workload byte-for-byte like a client owning its QP.
//! 3. **Shared-connection recovery**: a QP break on a shared
//!    `Arc<QueuePair>` fails all its clients, and every client recovers
//!    through its ordinary backoff path; the first reconnect heals the
//!    connection for everyone.
//! 4. **Tenants are stamped**: each client's multi-gets reach the QoS
//!    scheduler as its own tenant, so two sharers with distinct tenants
//!    are scheduled apart.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{FaultConfig, FaultKind, QosConfig, QueuePair, RnicConfig, ScheduledFault};
use corm_trace::{diff_events, TraceHandle};

const SIZE: usize = 48;
const OBJECTS: usize = 48;
const OPS: usize = 160;

fn populate(config: ServerConfig) -> (Arc<CormServer>, Vec<GlobalPtr>) {
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(OBJECTS);
    let payload = vec![3u8; SIZE];
    for _ in 0..OBJECTS {
        let mut ptr = client.alloc(SIZE).expect("alloc").value;
        client.write(&mut ptr, &payload).expect("write");
        ptrs.push(ptr);
    }
    (server, ptrs)
}

fn faulty_config(trace: TraceHandle, qos: Option<QosConfig>) -> ServerConfig {
    let faults = FaultConfig {
        seed: 0xFEED,
        transient_prob: 0.02,
        delay_prob: 0.04,
        cache_miss_prob: 0.04,
        qp_break_prob: 0.01,
        ..FaultConfig::default()
    };
    ServerConfig {
        rnic: RnicConfig { faults: Some(faults), qos, ..RnicConfig::default() },
        trace,
        ..ServerConfig::default()
    }
}

/// Batched multi-get workload under seeded faults; `shared` rides the
/// client on a shared queue pair (as its only holder, tenant 0). Returns
/// per-batch costs and the payloads — the replay fingerprint.
fn run_batched(config: ServerConfig, shared: bool) -> (Vec<u64>, Vec<Vec<u8>>) {
    let (server, ptrs) = populate(config);
    let mut client = if shared {
        let qp = Arc::new(QueuePair::connect(server.rnic().clone()));
        CormClient::connect_shared(server.clone(), qp, 0)
    } else {
        CormClient::connect(server.clone())
    };
    let keys: Vec<usize> = {
        let mut rng = corm_sim_core::rng::stream_rng(21, 5);
        (0..OPS).map(|_| rand::Rng::gen_range(&mut rng, 0..OBJECTS)).collect()
    };
    let mut costs = Vec::new();
    let mut payloads = Vec::new();
    let mut clock = SimTime::ZERO;
    for chunk in keys.chunks(8) {
        let mut bptrs: Vec<GlobalPtr> = chunk.iter().map(|&k| ptrs[k]).collect();
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; SIZE]; chunk.len()];
        let t = client.read_batch(&mut bptrs, &mut bufs, clock).expect("batch");
        costs.push(t.cost.as_nanos());
        payloads.extend(bufs);
        clock += t.cost;
    }
    (costs, payloads)
}

#[test]
fn uniform_qos_replays_byte_identically_to_qos_off() {
    let t_off = TraceHandle::recording();
    let off = run_batched(faulty_config(t_off.clone(), None), false);
    let t_on = TraceHandle::recording();
    let on = run_batched(faulty_config(t_on.clone(), Some(QosConfig::equal_weights())), false);
    assert_eq!(off.0, on.0, "per-batch costs must be identical with uniform QoS");
    assert_eq!(off.1, on.1, "payloads must be identical with uniform QoS");
    // The uniform discipline imposes zero class wait, so not even the
    // trace stream may differ (no QosClassWait spans).
    let (e_off, e_on) = (t_off.drain(), t_on.drain());
    assert!(!e_off.is_empty());
    let d = diff_events(&e_off, &e_on);
    assert!(d.is_clean(), "uniform QoS must not perturb the event stream:\n{}", d.describe());
}

#[test]
fn shared_client_replays_byte_identically_to_own_qp() {
    let own = run_batched(faulty_config(TraceHandle::disabled(), None), false);
    let shared = run_batched(faulty_config(TraceHandle::disabled(), None), true);
    assert_eq!(own.0, shared.0, "per-batch costs must be identical shared vs own QP");
    assert_eq!(own.1, shared.1, "payloads must be identical shared vs own QP");
}

#[test]
fn qp_break_on_shared_connection_recovers_every_tenant() {
    // Script a break at an op index both tenants' traffic straddles; no
    // probabilistic faults so the test pins the recovery path exactly.
    let faults =
        FaultConfig::scripted(vec![ScheduledFault { at_op: 12, kind: FaultKind::QpBreak }]);
    let config = ServerConfig {
        rnic: RnicConfig { faults: Some(faults), ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let (server, ptrs) = populate(config);
    let shared = Arc::new(QueuePair::connect(server.rnic().clone()));
    let mut clients: Vec<CormClient> =
        (0..3).map(|t| CormClient::connect_shared(server.clone(), shared.clone(), t)).collect();
    let mut clock = SimTime::ZERO;
    let mut buf = vec![0u8; SIZE];
    // Interleave tenants so the scripted break lands mid-stream; every
    // read must succeed via each client's own recovery loop.
    for round in 0..8 {
        for (c, client) in clients.iter_mut().enumerate() {
            let mut ptr = ptrs[round * 3 + c];
            let t = client
                .direct_read_with_recovery(&mut ptr, &mut buf, clock)
                .expect("read must survive the shared break");
            assert_eq!(buf, vec![3u8; SIZE]);
            clock += t.cost;
        }
    }
    // The break fired, the connection healed exactly once, and at least
    // one tenant went through its recovery path.
    assert_eq!(shared.breaks(), 1, "the scripted break must fire");
    assert_eq!(shared.reconnects(), 1, "one reconnect heals all tenants");
    let recoveries: u64 = clients.iter().map(|c| c.qp_recoveries).sum();
    assert!(recoveries >= 1, "the broken tenant must recover via backoff");
}

/// Two clients share one QP under the weighted scheduler and ring 16-entry
/// multi-gets at the same instant. As distinct tenants the second batch is
/// scheduled beside the first; as one tenant it queues behind it. The
/// difference is the tenant each client stamps on its requests.
#[test]
fn shared_clients_are_scheduled_as_their_own_tenants() {
    let second_cost = |tenants: [u32; 2]| {
        let config = ServerConfig {
            rnic: RnicConfig { qos: Some(QosConfig::default()), ..RnicConfig::default() },
            ..ServerConfig::default()
        };
        let (server, ptrs) = populate(config);
        let qp = Arc::new(QueuePair::connect(server.rnic().clone()));
        let [_, second] = tenants.map(|t| {
            let mut client = CormClient::connect_shared(server.clone(), qp.clone(), t);
            let mut bptrs: Vec<GlobalPtr> = ptrs[..16].to_vec();
            let mut bufs = vec![vec![0u8; SIZE]; 16];
            client.read_batch(&mut bptrs, &mut bufs, SimTime::ZERO).expect("batch").cost
        });
        second
    };
    let apart = second_cost([1, 2]);
    let together = second_cost([1, 1]);
    assert!(
        apart < together,
        "distinct tenants must not queue behind each other: {apart:?} vs {together:?}"
    );
}
