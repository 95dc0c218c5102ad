//! Property-based tests of the simulated RNIC.

use std::sync::Arc;

use corm_check::{check, ensure, ensure_eq};

use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::{AddressSpace, PhysicalMemory, PAGE_SIZE};
use corm_sim_rdma::{
    FaultConfig, FaultKind, QosConfig, QueuePair, RdmaError, ReadReq, ReadResult, Rnic, RnicConfig,
    ScheduledFault, TrafficClass,
};

fn setup(pages: usize) -> (Arc<AddressSpace>, Arc<Rnic>, u64) {
    let pm = Arc::new(PhysicalMemory::new());
    let frames = pm.alloc_n(pages).unwrap();
    let aspace = Arc::new(AddressSpace::new(pm));
    let va = aspace.mmap(&frames).unwrap();
    let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
    (aspace, rnic, va)
}

/// Pages of the region the adapter property reads from.
const ADAPTER_PAGES: usize = 8;

/// A NIC over a patterned `ADAPTER_PAGES`-page region, plus a QP on it.
fn adapter_setup(config: RnicConfig) -> (Arc<Rnic>, QueuePair, u32, u64) {
    let pm = Arc::new(PhysicalMemory::new());
    let frames = pm.alloc_n(ADAPTER_PAGES).unwrap();
    let aspace = Arc::new(AddressSpace::new(pm));
    let va = aspace.mmap(&frames).unwrap();
    let pattern: Vec<u8> = (0..ADAPTER_PAGES * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    aspace.write(va, &pattern).unwrap();
    let rnic = Arc::new(Rnic::new(aspace, config));
    let (mr, _) = rnic.register(va, ADAPTER_PAGES, false).unwrap();
    let qp = QueuePair::connect(rnic.clone());
    (rnic, qp, mr.rkey, va)
}

/// Every observable the façade and the synchronous doorbell must leave
/// equal on their NIC and QP.
fn adapter_state(rnic: &Rnic, qp: &QueuePair) -> impl PartialEq + std::fmt::Debug {
    let s = &rnic.stats;
    let counters = [&s.reads, &s.odp_misses, &s.doorbells, &s.wqes]
        .map(|c| c.load(std::sync::atomic::Ordering::Relaxed));
    (
        counters,
        (qp.state(), qp.breaks()),
        (rnic.engine_busy(), rnic.engine_admitted()),
        rnic.cache_stats(),
        rnic.fault_log(),
    )
}

/// The queued façade (`post` + `ring_doorbell` + `poll_cq`) and the
/// synchronous doorbell under it (`read_batch_into`) agree: for random
/// batches — page-crossing reads, neighbours on one page, bad rkeys,
/// reads off the region's end, a scripted fault of any kind at a
/// random index — under every scheduling discipline and unit count,
/// they produce the same `(wr_id, completed_at, result)` per entry, the
/// same payload bytes, and leave NIC and QP in the same state. Three
/// doorbells per case: the second finds the QP broken if the first
/// broke it, the third follows a reconnect.
#[test]
fn queued_and_synchronous_adapters_agree() {
    check(48, |g| {
        let batch = g.vec(1..=32, |g| {
            (
                g.range(0usize..ADAPTER_PAGES),
                g.range(0usize..PAGE_SIZE),
                g.range(2usize..300),
                g.range(0u8..16),
                g.range(0u32..12),
            )
        });
        let fault = (g.range(0u64..40), g.range(0u8..5));
        let (qos, units) = (g.range(0u8..3), g.range(1usize..=4));
        let config = RnicConfig {
            processing_units: units,
            qos: match qos {
                0 => None,
                1 => Some(QosConfig::equal_weights()),
                _ => Some(QosConfig::default()),
            },
            faults: Some(FaultConfig::scripted(match fault.1 {
                0 => vec![],
                k => vec![ScheduledFault {
                    at_op: fault.0,
                    kind: [
                        FaultKind::Transient,
                        FaultKind::QpBreak,
                        FaultKind::DelaySpike,
                        FaultKind::CacheMiss,
                    ][k as usize - 1],
                }],
            })),
            ..RnicConfig::default()
        };
        let (rnic_q, qp_q, rkey, va) = adapter_setup(config.clone());
        let (rnic_s, qp_s, rkey_s, va_s) = adapter_setup(config);
        ensure_eq!((rkey, va), (rkey_s, va_s));
        let mut last_page = 0;
        let reqs: Vec<ReadReq> = batch
            .iter()
            .enumerate()
            .map(|(k, &(page, off, len, kind, flow))| {
                // A sixteenth carry a bad rkey, three in sixteen straddle a
                // page boundary (off the region's end on the last page),
                // and three in sixteen read the page the request before
                // them read: one MTT slot, one recency-list node, hinted
                // twice by the resolve pass and promoted twice after it.
                let off = if (1..=3).contains(&kind) { PAGE_SIZE - len / 2 } else { off };
                let page = if (4..=6).contains(&kind) { last_page } else { page };
                last_page = page;
                ReadReq {
                    tenant: flow / 3,
                    class: TrafficClass::ALL[flow as usize % 3],
                    ..ReadReq::new(
                        k as u64,
                        if kind == 0 { rkey + 2 } else { rkey },
                        va + (page * PAGE_SIZE + off) as u64,
                        len,
                    )
                }
            })
            .collect();
        let mut outs = vec![Vec::new(); reqs.len()];
        let mut results: Vec<ReadResult> = Vec::new();
        for (round, now) in [3u64, 50, 100].into_iter().enumerate() {
            let now = SimTime::from_micros(now);
            if round == 2 {
                ensure_eq!(qp_q.reconnect(), qp_s.reconnect());
            }
            for req in &reqs {
                qp_q.post(*req);
            }
            ensure_eq!(qp_q.ring_doorbell(now), reqs.len());
            let comps = qp_q.poll_cq(usize::MAX);
            qp_s.read_batch_into(&reqs, &mut outs, now, &mut results);
            // In completion order, the synchronous results are the queued
            // completions.
            results.sort_by_key(|r| r.completed_at);
            ensure_eq!(comps.len(), results.len());
            for (c, r) in comps.iter().zip(&results) {
                ensure_eq!(
                    (c.wr_id, c.completed_at, &c.result),
                    (r.wr_id, r.completed_at, &r.result)
                );
                if c.is_ok() {
                    ensure_eq!(&c.data[..], &outs[c.wr_id as usize][..]);
                } else {
                    ensure!(c.data.is_empty());
                }
            }
            ensure_eq!(adapter_state(&rnic_q, &qp_q), adapter_state(&rnic_s, &qp_s));
        }
        Ok(())
    });
}

/// Pages of the region the verb-core property reads: more than a frame
/// buffer holds inline, over every MTT shard.
const CORE_PAGES: usize = 12;

/// A NIC over a patterned `CORE_PAGES`-page mapping registered twice, pinned
/// and ODP, with a translation cache of two entries per shard, plus a QP.
fn core_setup(config: RnicConfig) -> (Arc<AddressSpace>, Arc<Rnic>, QueuePair, [u32; 2], u64) {
    let pm = Arc::new(PhysicalMemory::new());
    let frames = pm.alloc_n(CORE_PAGES).unwrap();
    let aspace = Arc::new(AddressSpace::new(pm));
    let va = aspace.mmap(&frames).unwrap();
    let pattern: Vec<u8> = (0..CORE_PAGES * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
    aspace.write(va, &pattern).unwrap();
    let rnic = Arc::new(Rnic::new(aspace.clone(), config));
    let (pinned, _) = rnic.register(va, CORE_PAGES, false).unwrap();
    let (odp, _) = rnic.register(va, CORE_PAGES, true).unwrap();
    let qp = QueuePair::connect(rnic.clone());
    (aspace, rnic, qp, [pinned.rkey, odp.rkey], va)
}

/// Everything a single verb and a doorbell of one must leave equal on
/// their NICs (doorbell, WQE and engine counts are the doorbell's own).
fn verb_core_state(rnic: &Rnic) -> impl PartialEq + std::fmt::Debug {
    let s = &rnic.stats;
    let counters = [&s.reads, &s.odp_misses].map(|c| c.load(std::sync::atomic::Ordering::Relaxed));
    (counters, rnic.cache_stats(), rnic.fault_log())
}

/// One verb core under both entries: the same access through
/// `QueuePair::read` and through a one-WQE `read_batch_into` on twin NICs
/// — small, page-crossing and more-than-eight-page reads over pinned and
/// ODP regions, bad rkeys, remaps behind the NIC's back, and a scripted
/// fault of each kind — gives the same bytes, the same `VerbOutcome` or
/// error, and the same read count, ODP misses, cache counters and fault
/// log. The doorbell completes at exactly the single verb's latency
/// composed with the doorbell charge and an idle engine's admission.
#[test]
fn single_verb_and_doorbell_of_one_share_the_verb_core() {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    const KINDS: [FaultKind; 4] =
        [FaultKind::Transient, FaultKind::QpBreak, FaultKind::DelaySpike, FaultKind::CacheMiss];
    // Outcomes seen over all cases: long reads, ODP misses, bad rkeys.
    let seen: [AtomicU64; 3] = Default::default();
    check(48, |g| {
        let accesses = g.vec(24..=24, |g| {
            (g.range(0u8..16), g.range(0usize..CORE_PAGES), g.range(0usize..PAGE_SIZE))
        });
        let lens = g.vec(24..=24, |g| g.range(0usize..300));
        let long = g.vec(24..=24, |g| g.range(8 * PAGE_SIZE + 1..=10 * PAGE_SIZE));
        // One fault of each kind, each in a window of six verbs of its own.
        let schedule = (0u64..)
            .zip(KINDS)
            .map(|(j, kind)| ScheduledFault { at_op: 6 * j + g.range(0u64..6), kind })
            .collect();
        let config = RnicConfig {
            cache_entries: 16,
            faults: Some(FaultConfig::scripted(schedule)),
            ..RnicConfig::default()
        };
        let (aspace_s, rnic_s, qp_s, rkeys, va) = core_setup(config.clone());
        let (aspace_d, rnic_d, qp_d, ..) = core_setup(config);
        let model = rnic_s.model().clone();
        let mut outs = vec![Vec::new()];
        let mut results = Vec::new();
        for (i, &(kind, page, off)) in accesses.iter().enumerate() {
            let now = SimTime::from_micros(1_000 * i as u64);
            let (rkey, at, len) = match kind {
                0 => (0xdead, page * PAGE_SIZE + off, lens[i]),
                // More pages than a frame buffer holds inline.
                1 | 2 => (rkeys[kind as usize - 1], (page % 2) * PAGE_SIZE + off, long[i]),
                // Page-crossing, off the region's end on the last page.
                3..=5 => (rkeys[kind as usize % 2], (page + 1) * PAGE_SIZE - lens[i] / 2, lens[i]),
                // Behind the NIC's back: the page moves to a fresh frame
                // with new bytes, so the ODP region misses and the pinned
                // one reads the old frame.
                6 => {
                    for aspace in [&aspace_s, &aspace_d] {
                        let page_va = va + (page * PAGE_SIZE) as u64;
                        aspace.remap(page_va, &[aspace.phys().alloc().unwrap()]).unwrap();
                        aspace.write(page_va + off as u64 / 2, &[kind; 64]).unwrap();
                    }
                    (rkeys[1], page * PAGE_SIZE + off / 2, lens[i])
                }
                _ => (rkeys[kind as usize % 2], page * PAGE_SIZE + off, lens[i]),
            };
            let at = va + at as u64;
            let mut buf = vec![0u8; len];
            let single = qp_s.read(rkey, at, &mut buf, now);
            qp_d.read_batch_into(&[ReadReq::new(0, rkey, at, len)], &mut outs, now, &mut results);
            ensure_eq!(results.len(), 1);
            let door = &results[0];
            ensure_eq!(&door.result, &single, "access {i}");
            let arrival = now + model.doorbell_cost;
            match single {
                Ok(verb) => {
                    ensure_eq!(&outs[0][..], &buf[..], "access {i}");
                    let service = model.rdma_read_service(len, verb.cache_hit)
                        + model.odp_miss.unwrap_or(SimDuration::ZERO) * verb.odp_misses as u64;
                    let composed = arrival + service + verb.latency.saturating_sub(service);
                    ensure_eq!(door.completed_at, composed, "access {i}");
                    seen[0].fetch_add((len > 8 * PAGE_SIZE) as u64, Relaxed);
                    seen[1].fetch_add(verb.odp_misses as u64, Relaxed);
                }
                Err(e) => {
                    ensure_eq!(door.completed_at, arrival);
                    seen[2].fetch_add((e == RdmaError::InvalidKey(0xdead)) as u64, Relaxed);
                    ensure_eq!(qp_s.state(), qp_d.state());
                    qp_s.reconnect();
                    qp_d.reconnect();
                }
            }
            ensure_eq!(verb_core_state(&rnic_s), verb_core_state(&rnic_d), "access {i}");
        }
        let fired: Vec<FaultKind> = rnic_s.fault_log().into_iter().map(|(_, k)| k).collect();
        ensure_eq!(fired, KINDS);
        Ok(())
    });
    let seen = seen.map(|n| n.into_inner());
    assert!(seen.iter().all(|&n| n > 0), "long reads, ODP misses, bad rkeys: {seen:?}");
}

/// RDMA reads return exactly what the CPU wrote, for arbitrary
/// offsets/lengths inside the region (including page-crossing).
#[test]
fn rdma_read_your_writes() {
    check(48, |g| {
        let (pages, offset) = (g.range(1usize..4), g.range(0usize..(3 * PAGE_SIZE)));
        let data = g.vec(1..300, |g| g.range(0..=u8::MAX));
        let (aspace, rnic, va) = setup(pages);
        let (mr, _) = rnic.register(va, pages, false).unwrap();
        let span = pages * PAGE_SIZE;
        let offset = offset % span;
        if offset + data.len() > span {
            let mut buf = vec![0u8; data.len()];
            ensure!(rnic.read(mr.rkey, va + offset as u64, &mut buf, SimTime::ZERO).is_err());
            return Ok(());
        }
        aspace.write(va + offset as u64, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        rnic.read(mr.rkey, va + offset as u64, &mut buf, SimTime::ZERO).unwrap();
        ensure_eq!(buf, data);
        Ok(())
    });
}

/// After any remap sequence, an ODP region's reads always agree with
/// the CPU view, paying at most one miss per remap.
#[test]
fn odp_always_coherent() {
    check(48, |g| {
        let flips = g.vec(1..12, |g| g.bool());
        let pm = Arc::new(PhysicalMemory::new());
        let f1 = pm.alloc().unwrap();
        let f2 = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f1]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, true).unwrap();
        let mut total_misses = 0;
        let mut remaps = 0;
        for (i, flip) in flips.iter().enumerate() {
            if *flip {
                aspace.remap(va, &[if i % 2 == 0 { f2 } else { f1 }]).unwrap();
                remaps += 1;
            }
            let tag = [i as u8; 4];
            aspace.write(va, &tag).unwrap();
            let mut buf = [0u8; 4];
            let out = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
            ensure_eq!(buf, tag, "ODP read diverged at step {}", i);
            total_misses += out.odp_misses;
        }
        ensure!(total_misses as usize <= remaps + 1, "{total_misses} misses for {remaps} remaps");
        Ok(())
    });
}

/// Non-ODP regions are exactly snapshot-consistent: reads reflect the
/// mapping at registration (or last rereg) time, never the page table.
#[test]
fn non_odp_reads_are_snapshots() {
    check(48, |g| {
        let writes = g.vec(1..8, |g| g.range(0..=u8::MAX));
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm.clone()));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        // Stamp the old frame, remap, stamp the new frame differently.
        aspace.write(va, b"OLD!").unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        for (i, w) in writes.iter().enumerate() {
            aspace.write(va + i as u64, &[*w]).unwrap();
        }
        let mut buf = [0u8; 4];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        ensure_eq!(&buf, b"OLD!", "stale snapshot must read the old frame");
        // rereg resynchronizes.
        let t0 = SimTime::from_micros(50);
        let cost = rnic.rereg(mr.rkey, t0).unwrap();
        let mut buf2 = [0u8; 4];
        rnic.read(mr.rkey, va, &mut buf2, t0 + cost).unwrap();
        let mut cpu = [0u8; 4];
        aspace.read(va, &mut cpu).unwrap();
        ensure_eq!(buf2, cpu);
        Ok(())
    });
}

/// Cache hit/miss accounting is exact for any access pattern: hits +
/// misses equals the number of page translations performed.
#[test]
fn cache_accounting_exact() {
    check(48, |g| {
        let accesses = g.vec(1..64, |g| g.range(0usize..8));
        let (_aspace, rnic, va) = setup(8);
        let (mr, _) = rnic.register(va, 8, false).unwrap();
        let mut buf = [0u8; 16];
        for page in &accesses {
            rnic.read(mr.rkey, va + (page * PAGE_SIZE) as u64, &mut buf, SimTime::ZERO).unwrap();
        }
        let (hits, misses) = rnic.cache_stats();
        ensure_eq!(hits + misses, accesses.len() as u64);
        // Distinct pages touched = cold misses (cache holds 16K entries).
        let distinct: std::collections::HashSet<_> = accesses.iter().collect();
        ensure_eq!(misses, distinct.len() as u64);
        Ok(())
    });
}
