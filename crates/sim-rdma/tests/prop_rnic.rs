//! Property-based tests of the simulated RNIC.

use std::sync::Arc;

use proptest::prelude::*;

use corm_sim_core::time::SimTime;
use corm_sim_mem::{AddressSpace, PhysicalMemory, PAGE_SIZE};
use corm_sim_rdma::{
    FaultConfig, FaultKind, QosConfig, QueuePair, ReadReq, ReadResult, Rnic, RnicConfig,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
    fn queued_and_synchronous_adapters_agree(
        batch in prop::collection::vec(
            (0usize..ADAPTER_PAGES, 0usize..PAGE_SIZE, 2usize..300, 0u8..16, 0u32..12),
            1..=32,
        ),
        fault in (0u64..40, 0u8..5),
        qos in 0u8..3,
        units in 1usize..=4,
    ) {
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
        prop_assert_eq!((rkey, va), (rkey_s, va_s));
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
                prop_assert_eq!(qp_q.reconnect(), qp_s.reconnect());
            }
            for req in &reqs {
                qp_q.post(*req);
            }
            prop_assert_eq!(qp_q.ring_doorbell(now), reqs.len());
            let comps = qp_q.poll_cq(usize::MAX);
            qp_s.read_batch_into(&reqs, &mut outs, now, &mut results);
            // In completion order, the synchronous results are the queued
            // completions.
            results.sort_by_key(|r| r.completed_at);
            prop_assert_eq!(comps.len(), results.len());
            for (c, r) in comps.iter().zip(&results) {
                prop_assert_eq!(
                    (c.wr_id, c.completed_at, &c.result),
                    (r.wr_id, r.completed_at, &r.result)
                );
                if c.is_ok() {
                    prop_assert_eq!(&c.data[..], &outs[c.wr_id as usize][..]);
                } else {
                    prop_assert!(c.data.is_empty());
                }
            }
            prop_assert_eq!(adapter_state(&rnic_q, &qp_q), adapter_state(&rnic_s, &qp_s));
        }
    }

    /// RDMA reads return exactly what the CPU wrote, for arbitrary
    /// offsets/lengths inside the region (including page-crossing).
    #[test]
    fn rdma_read_your_writes(
        pages in 1usize..4,
        offset in 0usize..(3 * PAGE_SIZE),
        data in prop::collection::vec(any::<u8>(), 1..300),
    ) {
        let (aspace, rnic, va) = setup(pages);
        let (mr, _) = rnic.register(va, pages, false).unwrap();
        let span = pages * PAGE_SIZE;
        let offset = offset % span;
        if offset + data.len() > span {
            let mut buf = vec![0u8; data.len()];
            prop_assert!(rnic.read(mr.rkey, va + offset as u64, &mut buf, SimTime::ZERO).is_err());
            return Ok(());
        }
        aspace.write(va + offset as u64, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        rnic.read(mr.rkey, va + offset as u64, &mut buf, SimTime::ZERO).unwrap();
        prop_assert_eq!(buf, data);
    }

    /// After any remap sequence, an ODP region's reads always agree with
    /// the CPU view, paying at most one miss per remap.
    #[test]
    fn odp_always_coherent(flips in prop::collection::vec(any::<bool>(), 1..12)) {
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
            prop_assert_eq!(buf, tag, "ODP read diverged at step {}", i);
            total_misses += out.odp_misses;
        }
        prop_assert!(total_misses as usize <= remaps + 1, "{total_misses} misses for {remaps} remaps");
    }

    /// Non-ODP regions are exactly snapshot-consistent: reads reflect the
    /// mapping at registration (or last rereg) time, never the page table.
    #[test]
    fn non_odp_reads_are_snapshots(writes in prop::collection::vec(any::<u8>(), 1..8)) {
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
        prop_assert_eq!(&buf, b"OLD!", "stale snapshot must read the old frame");
        // rereg resynchronizes.
        let t0 = SimTime::from_micros(50);
        let cost = rnic.rereg(mr.rkey, t0).unwrap();
        let mut buf2 = [0u8; 4];
        rnic.read(mr.rkey, va, &mut buf2, t0 + cost).unwrap();
        let mut cpu = [0u8; 4];
        aspace.read(va, &mut cpu).unwrap();
        prop_assert_eq!(buf2, cpu);
    }

    /// Cache hit/miss accounting is exact for any access pattern: hits +
    /// misses equals the number of page translations performed.
    #[test]
    fn cache_accounting_exact(accesses in prop::collection::vec(0usize..8, 1..64)) {
        let (_aspace, rnic, va) = setup(8);
        let (mr, _) = rnic.register(va, 8, false).unwrap();
        let mut buf = [0u8; 16];
        for page in &accesses {
            rnic.read(mr.rkey, va + (page * PAGE_SIZE) as u64, &mut buf, SimTime::ZERO).unwrap();
        }
        let (hits, misses) = rnic.cache_stats();
        prop_assert_eq!(hits + misses, accesses.len() as u64);
        // Distinct pages touched = cold misses (cache holds 16K entries).
        let distinct: std::collections::HashSet<_> = accesses.iter().collect();
        prop_assert_eq!(misses, distinct.len() as u64);
    }
}
