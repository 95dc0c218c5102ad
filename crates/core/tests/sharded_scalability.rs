//! Coverage for the sharded hot path: compaction racing a fleet of
//! hammering RPC clients against the block directory and per-worker
//! queues, plus determinism regressions pinning the single-shard,
//! single-unit RNIC configuration to byte-identical seeded replay.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::threaded::{Request, Response, ThreadedServer};
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{CormError, GlobalPtr};
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{FaultConfig, RnicConfig};

const SIZE: usize = 48;

/// The per-key payload pattern (mirrors the bench harness's).
fn fill_pattern(buf: &mut [u8], key: u64) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (key as usize).wrapping_mul(31).wrapping_add(i) as u8;
    }
}

fn populate(config: ServerConfig, objects: usize) -> (Arc<CormServer>, Vec<GlobalPtr>) {
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(objects);
    let mut payload = vec![0u8; SIZE];
    for key in 0..objects {
        let mut ptr = client.alloc(SIZE).expect("populate alloc").value;
        fill_pattern(&mut payload, key as u64);
        client.write(&mut ptr, &payload).expect("populate write");
        ptrs.push(ptr);
    }
    (server, ptrs)
}

/// Seeded stress: 8 client threads hammer the per-worker RPC queues
/// (reads of shared survivors plus private alloc/write/read/free churn)
/// while the leader runs compaction passes against the sharded registry.
/// Every held pointer must still resolve afterwards — possibly via an
/// alias — and shutdown must account for every single request (no reply
/// lost).
#[test]
fn compaction_races_hammering_clients_on_sharded_registry() {
    const CLIENTS: usize = 8;
    const CHURN_ROUNDS: usize = 5;
    const CHURN_OBJS: usize = 16;
    const SURVIVOR_READS: usize = 64;

    let config = ServerConfig { workers: CLIENTS, ..ServerConfig::default() };
    let class = corm_core::consistency::class_for_payload(&config.alloc.classes, SIZE).unwrap();
    let (server, mut ptrs) = populate(config, 512);

    // Fragment: free 3 of every 4 objects so compaction has sources.
    {
        let mut client = CormClient::connect(server.clone());
        for (i, ptr) in ptrs.iter_mut().enumerate() {
            if i % 4 != 0 {
                client.free(ptr).expect("fragment free");
            }
        }
    }
    let survivors: Vec<(u64, GlobalPtr)> =
        (0..ptrs.len()).step_by(4).map(|i| (i as u64, ptrs[i])).collect();
    let survivors = Arc::new(survivors);

    let ts = ThreadedServer::start(server.clone());
    let mut threads = Vec::with_capacity(CLIENTS);
    for tid in 0..CLIENTS {
        let client = ts.rpc_client();
        let survivors = survivors.clone();
        threads.push(std::thread::spawn(move || {
            let mut rng = corm_sim_core::rng::stream_rng(0x51A6, tid as u64);
            let mut issued = 0u64;
            let mut expect = vec![0u8; SIZE];
            // Shared-pointer reads racing compaction.
            for _ in 0..SURVIVOR_READS {
                let pick = rand::Rng::gen_range(&mut rng, 0..survivors.len());
                let (key, ptr) = survivors[pick];
                issued += 1;
                match client.call(Request::Read { ptr, len: SIZE }).unwrap() {
                    Response::Data { data, .. } => {
                        fill_pattern(&mut expect, key);
                        assert_eq!(data, expect, "survivor {key} must read its payload");
                    }
                    other => panic!("survivor read failed: {other:?}"),
                }
            }
            // Private churn: allocate, write, read back, free.
            for round in 0..CHURN_ROUNDS {
                let mut mine = Vec::with_capacity(CHURN_OBJS);
                for k in 0..CHURN_OBJS {
                    issued += 1;
                    let ptr = match client.call(Request::Alloc { len: SIZE }).unwrap() {
                        Response::Ptr(p) => p,
                        other => panic!("alloc failed: {other:?}"),
                    };
                    let key = (tid * 1000 + round * CHURN_OBJS + k) as u64;
                    fill_pattern(&mut expect, key);
                    issued += 1;
                    match client.call(Request::Write { ptr, data: expect.clone() }).unwrap() {
                        Response::Done(p) => mine.push((key, p)),
                        other => panic!("write failed: {other:?}"),
                    }
                }
                for &(key, ptr) in &mine {
                    issued += 1;
                    match client.call(Request::Read { ptr, len: SIZE }).unwrap() {
                        Response::Data { data, .. } => {
                            fill_pattern(&mut expect, key);
                            assert_eq!(data, expect, "churn object {key}");
                        }
                        other => panic!("churn read failed: {other:?}"),
                    }
                }
                for &(_, ptr) in &mine {
                    issued += 1;
                    match client.call(Request::Free { ptr }).unwrap() {
                        Response::Done(_) => {}
                        other => panic!("free failed: {other:?}"),
                    }
                }
            }
            issued
        }));
    }

    // Compaction passes concurrent with the hammering clients.
    let mut merges = 0u64;
    for _ in 0..6 {
        let report = ts.compact_class(class).expect("compaction pass");
        merges += report.merges as u64;
        std::thread::yield_now();
    }

    let issued: u64 = threads.into_iter().map(|t| t.join().expect("client thread")).sum();
    assert!(merges > 0, "fragmented blocks must have merged while clients hammered");

    // Every held pointer still resolves — through an alias where its
    // block was consumed as a compaction source.
    let aliases = server.alias_count();
    let client = ts.rpc_client();
    let mut expect = vec![0u8; SIZE];
    for &(key, ptr) in survivors.iter() {
        match client.call(Request::Read { ptr, len: SIZE }).unwrap() {
            Response::Data { data, .. } => {
                fill_pattern(&mut expect, key);
                assert_eq!(data, expect, "post-compaction read of survivor {key}");
            }
            other => panic!("post-compaction read failed: {other:?}"),
        }
    }
    drop(client);

    // No reply lost: the workers served exactly the requests issued, the
    // hammering clients' plus this thread's verification reads.
    let served: u64 = ts.shutdown().iter().sum();
    assert_eq!(served, issued + survivors.len() as u64);
    assert!(aliases > 0, "compaction under churn must have left alias entries");
}

/// One seeded DirectRead run: returns the fired fault log and every
/// payload read, for byte-for-byte comparison across configurations.
fn seeded_fault_run(config: ServerConfig) -> (Vec<(u64, corm_sim_rdma::FaultKind)>, Vec<Vec<u8>>) {
    let objects = 64usize;
    let ops = 200usize;
    let (server, ptrs) = populate(config, objects);
    let mut client = CormClient::connect(server.clone());
    let keys: Vec<usize> = {
        let mut rng = corm_sim_core::rng::stream_rng(11, 5);
        (0..ops).map(|_| rand::Rng::gen_range(&mut rng, 0..objects)).collect()
    };
    let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; SIZE]; ops];
    let mut clock = SimTime::ZERO;
    for (k, &key) in keys.iter().enumerate() {
        let mut ptr = ptrs[key];
        let t =
            client.direct_read_with_recovery(&mut ptr, &mut bufs[k], clock).expect("seeded read");
        clock += t.cost;
    }
    (server.rnic().fault_log(), bufs)
}

/// Determinism regression: with `processing_units = 1` the seeded fault
/// schedule replays byte-for-byte — and a four-unit NIC fires the identical
/// schedule, because fault draws precede every translation and every engine
/// dispatch.
#[test]
fn seeded_replay_is_byte_identical_at_single_unit() {
    let faults = FaultConfig {
        seed: 0xBEEF,
        transient_prob: 0.02,
        delay_prob: 0.05,
        cache_miss_prob: 0.05,
        qp_break_prob: 0.01,
        ..FaultConfig::default()
    };
    let pinned = ServerConfig {
        rnic: RnicConfig {
            processing_units: 1,
            faults: Some(faults.clone()),
            ..RnicConfig::default()
        },
        ..ServerConfig::default()
    };
    let four_units = ServerConfig {
        rnic: RnicConfig { processing_units: 4, faults: Some(faults), ..RnicConfig::default() },
        ..ServerConfig::default()
    };

    let (log_a, bufs_a) = seeded_fault_run(pinned.clone());
    let (log_b, bufs_b) = seeded_fault_run(pinned);
    assert!(!log_a.is_empty(), "the fault schedule must actually fire");
    assert_eq!(log_a, log_b, "same seed and config must replay byte-for-byte");
    assert_eq!(bufs_a, bufs_b, "payloads must replay byte-for-byte");

    let (log_c, bufs_c) = seeded_fault_run(four_units);
    assert_eq!(log_a, log_c, "the unit count must not perturb the fault draw order");
    assert_eq!(bufs_a, bufs_c, "the unit count must not perturb payloads");
}

/// A single worker drives the flat-alias protocol end to end (compaction
/// + reads) with no second thread anywhere near the directory.
#[test]
fn single_worker_directory_survives_compaction_end_to_end() {
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let class = corm_core::consistency::class_for_payload(&config.alloc.classes, SIZE).unwrap();
    let (server, mut ptrs) = populate(config, 256);
    let mut client = CormClient::connect(server.clone());
    for (i, ptr) in ptrs.iter_mut().enumerate() {
        if i % 4 != 0 {
            client.free(ptr).expect("fragment free");
        }
    }
    let report = server.compact_class(class, SimTime::ZERO).expect("compact").value;
    assert!(report.merges > 0);
    let mut expect = vec![0u8; SIZE];
    for i in (0..ptrs.len()).step_by(4) {
        let mut ptr = ptrs[i];
        let mut buf = vec![0u8; SIZE];
        let n = client.read(&mut ptr, &mut buf).expect("post-compaction read").value;
        fill_pattern(&mut expect, i as u64);
        assert_eq!(&buf[..n], &expect[..]);
    }
    // Reading a freed object still errors cleanly.
    let mut gone = ptrs[1];
    let mut buf = vec![0u8; SIZE];
    match client.read(&mut gone, &mut buf) {
        Err(CormError::ObjectNotFound | CormError::UnknownBlock(_)) => {}
        other => panic!("freed object should be gone, got {other:?}"),
    }
}
