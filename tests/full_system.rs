//! Cross-crate integration tests: the whole system working together,
//! from the simulated frames up through compaction and workloads.

use std::sync::Arc;

use corm::core::client::{CormClient, FixStrategy};
use corm::core::server::{CormServer, CorrectionStrategy, ServerConfig};
use corm::sim_core::time::{SimDuration, SimTime};
use corm::sim_rdma::{FaultConfig, FaultKind, MttUpdateStrategy, RnicConfig, ScheduledFault};
use corm::workloads::ycsb::{KeyDist, Mix, Workload};

fn config() -> ServerConfig {
    ServerConfig { workers: 4, ..ServerConfig::default() }
}

#[test]
fn ycsb_workload_over_live_server_with_periodic_compaction() {
    let server = Arc::new(CormServer::new(config()));
    let mut client = CormClient::connect(server.clone());
    let n = 2_000;
    let mut ptrs = Vec::new();
    for i in 0..n {
        let mut p = client.alloc(32).unwrap().value;
        client.write(&mut p, format!("v{i:04}").as_bytes()).unwrap();
        ptrs.push(p);
    }
    let workload = Workload::new(n as u64, KeyDist::Zipf(0.9), Mix::BALANCED);
    let mut rng = corm::sim_core::rng::root_rng(5);
    let mut now = SimTime::ZERO;
    let mut buf = [0u8; 32];
    for step in 0..20_000 {
        match workload.next_op(&mut rng) {
            corm::workloads::ycsb::Op::Read(k) => {
                let n = client
                    .direct_read_with_recovery(&mut ptrs[k as usize], &mut buf, now)
                    .unwrap()
                    .value;
                assert!(n >= 5);
            }
            corm::workloads::ycsb::Op::Write(k) => {
                client.write(&mut ptrs[k as usize], format!("w{step:05}").as_bytes()).unwrap();
            }
        }
        if step % 5_000 == 4_999 {
            // Churn + compact mid-workload.
            for p in ptrs.iter_mut().skip(n / 2).take(200) {
                client.free(p).unwrap();
                *p = client.alloc(32).unwrap().value;
                client.write(p, b"refreshed").unwrap();
            }
            for r in server.compact_if_fragmented(now).unwrap() {
                now += r.total_cost();
            }
            now += corm::sim_core::time::SimDuration::from_millis(1);
        }
    }
    assert_eq!(client.qp().breaks(), 0, "ODP default never breaks QPs");
}

#[test]
fn corm_beats_farm_on_active_memory_after_spike() {
    // The paper's headline: same workload, FaRM cannot reclaim fragmented
    // blocks, CoRM can.
    let corm = Arc::new(CormServer::new(config()));
    // FaRM is CoRM with compaction off (§4.2, footnote 2).
    let farm =
        Arc::new(CormServer::new(ServerConfig { frag_threshold: f64::INFINITY, ..config() }));
    let mut cc = CormClient::connect(corm.clone());
    let mut fc = CormClient::connect(farm.clone());

    let mut corm_ptrs = Vec::new();
    let mut farm_ptrs = Vec::new();
    for _ in 0..4_096 {
        corm_ptrs.push(cc.alloc(48).unwrap().value);
        farm_ptrs.push(fc.alloc(48).unwrap().value);
    }
    // Deallocation spike: free 7 of every 8.
    for i in 0..corm_ptrs.len() {
        if i % 8 != 0 {
            cc.free(&mut corm_ptrs[i]).unwrap();
            fc.free(&mut farm_ptrs[i]).unwrap();
        }
    }
    corm.compact_if_fragmented(SimTime::ZERO).unwrap();
    assert!(farm.compact_if_fragmented(SimTime::ZERO).unwrap().is_empty(), "FaRM never compacts");
    let corm_active = corm.active_bytes();
    let farm_active = farm.active_bytes();
    assert!(
        corm_active * 3 < farm_active,
        "CoRM {corm_active} should be ≳3x below FaRM {farm_active}"
    );
    // And the surviving FaRM/CoRM objects both still read fine.
    let mut buf = [0u8; 8];
    cc.direct_read_with_recovery(&mut corm_ptrs[0], &mut buf, SimTime::from_millis(1)).unwrap();
    fc.direct_read_with_recovery(&mut farm_ptrs[0], &mut buf, SimTime::from_millis(1)).unwrap();
}

#[test]
fn all_mtt_strategies_preserve_objects_across_compaction() {
    for strategy in
        [MttUpdateStrategy::Rereg, MttUpdateStrategy::Odp, MttUpdateStrategy::OdpPrefetch]
    {
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 1,
            mtt_strategy: strategy,
            ..ServerConfig::default()
        }));
        let mut client = CormClient::connect_with(server.clone(), FixStrategy::ScanRead);
        let mut ptrs: Vec<_> = (0..256)
            .map(|i| {
                let mut p = client.alloc(48).unwrap().value;
                client.write(&mut p, format!("obj{i}").as_bytes()).unwrap();
                p
            })
            .collect();
        for (i, p) in ptrs.iter_mut().enumerate() {
            if i % 16 != 0 {
                client.free(p).unwrap();
            }
        }
        let class = corm::core::consistency::class_for_payload(server.classes(), 48).unwrap();
        let t = server.compact_class(class, SimTime::ZERO).unwrap();
        // Read comfortably after any rereg window.
        let after = SimTime::ZERO + t.cost + corm::sim_core::time::SimDuration::from_millis(10);
        for i in (0..256).step_by(16) {
            let mut buf = [0u8; 8];
            let n = client.direct_read_with_recovery(&mut ptrs[i], &mut buf, after).unwrap().value;
            let expect = format!("obj{i}");
            let m = expect.len().min(n);
            assert_eq!(&buf[..m], expect.as_bytes(), "{strategy:?}");
        }
    }
}

/// §3.5 end to end: a client reading *inside* the compaction's MTT-repair
/// window. Under `rereg_mr` the region is busy, the verb fails, the QP
/// breaks — and the recovery loop reconnects (charging the §3.5 cost to
/// virtual time) and still returns the right bytes. Under both ODP
/// variants the same reads never break a QP.
#[test]
fn reads_inside_mtt_repair_window_recover_per_strategy() {
    for strategy in
        [MttUpdateStrategy::Rereg, MttUpdateStrategy::Odp, MttUpdateStrategy::OdpPrefetch]
    {
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 1,
            mtt_strategy: strategy,
            ..ServerConfig::default()
        }));
        let mut client = CormClient::connect_with(server.clone(), FixStrategy::ScanRead);
        let size = 48;
        let mut ptrs: Vec<_> = (0..256)
            .map(|i| {
                let mut p = client.alloc(size).unwrap().value;
                client.write(&mut p, &vec![i as u8; size]).unwrap();
                p
            })
            .collect();
        for (i, p) in ptrs.iter_mut().enumerate() {
            if i % 16 != 0 {
                client.free(p).unwrap();
            }
        }
        let class = corm::core::consistency::class_for_payload(server.classes(), size).unwrap();
        server.compact_class(class, SimTime::ZERO).unwrap();
        // Read at the compaction timestamp itself: still inside every
        // `rereg_mr` busy window the pass opened.
        let mut vtime = SimDuration::ZERO;
        let mut buf = vec![0u8; size];
        for i in (0..256).step_by(16) {
            let t =
                client.direct_read_with_recovery(&mut ptrs[i], &mut buf, SimTime::ZERO).unwrap();
            assert!(
                buf[..t.value].iter().all(|&b| b == i as u8),
                "object {i} corrupt under {strategy:?}"
            );
            vtime += t.cost;
        }
        let breaks = client.qp().breaks();
        match strategy {
            MttUpdateStrategy::Rereg => {
                assert!(breaks > 0, "reads inside the rereg window must break the QP");
                assert_eq!(client.qp().reconnects(), breaks, "every break must be healed");
                assert_eq!(client.qp_recoveries, client.qp().reconnects());
                // Each reconnect charges at least the §3.5 cost to the op.
                assert!(
                    vtime >= server.model().qp_reconnect * breaks,
                    "recovery time uncharged: {vtime:?} for {breaks} breaks"
                );
            }
            MttUpdateStrategy::Odp | MttUpdateStrategy::OdpPrefetch => {
                assert_eq!(breaks, 0, "{strategy:?} must never break QPs");
            }
        }
    }
}

/// One full faulted run: a client surviving ≥1000 DirectReads against a NIC
/// injecting scripted + probabilistic faults. Returns everything observable
/// so the caller can assert byte-for-byte reproducibility.
fn faulted_run(seed: u64) -> (Vec<(u64, FaultKind)>, SimDuration, u64, u64, u64) {
    let server = Arc::new(CormServer::new(ServerConfig {
        workers: 2,
        rnic: RnicConfig {
            faults: Some(FaultConfig {
                seed,
                transient_prob: 0.01,
                delay_prob: 0.01,
                cache_miss_prob: 0.02,
                qp_break_prob: 0.005,
                // Scripted faults pin down exact ops regardless of the
                // probabilistic draws.
                schedule: vec![
                    ScheduledFault { at_op: 5, kind: FaultKind::QpBreak },
                    ScheduledFault { at_op: 17, kind: FaultKind::Transient },
                ],
            }),
            ..RnicConfig::default()
        },
        ..ServerConfig::default()
    }));
    let mut client = CormClient::connect(server.clone());
    let size = 32;
    let n = 64usize;
    // Population goes over RPC: it consumes no one-sided verbs, so the
    // fault stream starts exactly at the first DirectRead.
    let mut ptrs: Vec<_> = (0..n)
        .map(|i| {
            let mut p = client.alloc(size).unwrap().value;
            client.write(&mut p, &vec![i as u8; size]).unwrap();
            p
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut vtime = SimDuration::ZERO;
    let mut buf = vec![0u8; size];
    for op in 0..1_000usize {
        let i = (op * 31) % n;
        let t = client.direct_read_with_recovery(&mut ptrs[i], &mut buf, now).unwrap();
        assert!(
            buf[..t.value].iter().all(|&b| b == i as u8),
            "op {op}: object {i} corrupted by fault recovery"
        );
        vtime += t.cost;
        now += t.cost;
    }
    (
        server.rnic().fault_log(),
        vtime,
        client.qp().breaks(),
        client.qp().reconnects(),
        client.qp_recoveries,
    )
}

/// The acceptance bar for the fault substrate: ≥1000 client ops survive
/// injected QP breaks with zero corruption, every recovery is charged to
/// virtual time, and the whole run — fault log included — replays
/// byte-for-byte from the seed.
#[test]
fn seeded_fault_schedule_survives_1000_ops_and_replays() {
    let (log, vtime, breaks, reconnects, recoveries) = faulted_run(7);
    assert!(breaks > 0, "the schedule guarantees at least one QP break");
    assert_eq!(reconnects, breaks, "every QP break must be healed");
    assert_eq!(recoveries, reconnects);
    assert!(
        vtime >= SimDuration::from_millis(3) * breaks,
        "reconnects uncharged: {vtime:?} for {breaks} breaks"
    );
    // Scripted entries land at their exact verb indices.
    assert!(log.contains(&(5, FaultKind::QpBreak)), "scripted break missing: {log:?}");
    assert!(log.contains(&(17, FaultKind::Transient)), "scripted transient missing");
    // Same seed: the full fault schedule and all costs replay identically.
    let rerun = faulted_run(7);
    assert_eq!(rerun.0, log, "fault log must replay byte-for-byte");
    assert_eq!(rerun.1, vtime);
    assert_eq!((rerun.2, rerun.3, rerun.4), (breaks, reconnects, recoveries));
    // A different seed shifts the probabilistic stream (the scripted
    // entries stay pinned).
    let other = faulted_run(8);
    assert!(other.0.contains(&(5, FaultKind::QpBreak)));
    assert_ne!(other.0, log, "different seeds must differ");
}

#[test]
fn correction_strategies_equivalent_results() {
    // Thread messaging and block scanning must find the same objects.
    let mut answers = Vec::new();
    for correction in [CorrectionStrategy::ThreadMessaging, CorrectionStrategy::BlockScan] {
        let server = Arc::new(CormServer::new(ServerConfig {
            workers: 1,
            correction,
            seed: 99, // identical layout across runs
            ..ServerConfig::default()
        }));
        let mut client = CormClient::connect(server.clone());
        let mut ptrs: Vec<_> = (0..128).map(|_| client.alloc(48).unwrap().value).collect();
        for (i, p) in ptrs.iter_mut().enumerate() {
            client.write(p, format!("x{i}").as_bytes()).unwrap();
            if !matches!(i, 0 | 64 | 66) {
                client.free(p).unwrap();
            }
        }
        let class = corm::core::consistency::class_for_payload(server.classes(), 48).unwrap();
        server.compact_class(class, SimTime::ZERO).unwrap();
        let mut run = Vec::new();
        for &i in &[0usize, 64, 66] {
            let mut buf = [0u8; 4];
            let mut p = ptrs[i];
            let n = client.read(&mut p, &mut buf).unwrap().value;
            run.push(buf[..n].to_vec());
        }
        answers.push(run);
    }
    assert_eq!(answers[0], answers[1]);
}

#[test]
fn capacity_pressure_triggers_compaction_and_recovers() {
    // A capped physical memory: allocation fails, compaction frees blocks,
    // allocation succeeds again (§3.1.3's second trigger).
    let phys = Arc::new(corm::sim_mem::PhysicalMemory::with_capacity(4096 + 64));
    let server = Arc::new(CormServer::with_memory(
        phys,
        ServerConfig { workers: 1, ..ServerConfig::default() },
    ));
    let mut client = CormClient::connect(server.clone());
    // Fill until allocation fails.
    let mut ptrs = Vec::new();
    loop {
        match client.alloc(48) {
            Ok(t) => ptrs.push(t.value),
            Err(corm::core::CormError::Alloc(corm::alloc::AllocError::OutOfMemory)) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    // Free 80% and compact: physical blocks return to the pool.
    let total = ptrs.len();
    for (i, p) in ptrs.iter_mut().enumerate() {
        if i % 5 != 0 {
            client.free(p).unwrap();
        }
    }
    server.compact_if_fragmented(SimTime::ZERO).unwrap();
    // Allocation works again without growing the file set.
    for _ in 0..total / 2 {
        client.alloc(48).expect("compaction freed room");
    }
}
