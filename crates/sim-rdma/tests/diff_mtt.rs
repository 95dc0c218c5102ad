//! Differential test of the RNIC's fused MTT and translation cache against
//! a naive reference: a `HashMap` MTT and, per shard, a `Vec` of cached
//! pages in recency order.
//!
//! Random register / deregister / rereg / advise / remap / unmap / read /
//! doorbell sequences (reads forced down the miss path now and then) run
//! against both. Every verb must report the same `cache_hit` and
//! `odp_misses` and return the bytes of the frame the reference translates
//! to, and after every step the two must agree on each page's translation,
//! on which pages are cached — so on every eviction victim — and on
//! `cache_stats()`.
//!
//! A doorbell step rings two to four reads through a queue pair, so the
//! NIC's read-only resolve pass peeks at every request's translation before
//! the first is served. The reference knows nothing of that pass and serves
//! the requests one by one: whatever the pass counted, promoted or
//! installed would show as a difference.

use std::collections::HashMap;
use std::sync::Arc;

use corm_check::{check, ensure_eq};

use corm_sim_core::time::SimTime;
use corm_sim_mem::{AddressSpace, FrameId, MemError, PhysicalMemory, Translation, PAGE_SIZE};
use corm_sim_rdma::{
    FaultConfig, FaultKind, MemoryRegion, QueuePair, RdmaError, ReadReq, Rnic, RnicConfig,
    ScheduledFault, VerbOutcome,
};

/// Pages of virtual address space the sequences play on.
const PAGES: usize = 96;
const PAGE: u64 = PAGE_SIZE as u64;
/// The NIC's shard count (`MTT_SHARDS` in `rnic.rs`), which the reference
/// has to deal pages and split the cache budget by.
const SHARDS: usize = 8;

/// One generated step: an operation selector and its raw operands.
type Step = (u8, usize, usize, bool);

/// How many verbs the step puts to the NIC: one for a read, the batch for
/// a doorbell.
fn verbs(step: &Step) -> usize {
    match step.0 {
        6..=9 => 1,
        10.. => 2 + step.1 % 3,
        _ => 0,
    }
}

/// Every fifth verb or so takes the injected MTT-cache-miss fault.
fn is_forced(step: &Step, verb: usize) -> bool {
    (step.2 + verb).is_multiple_of(5)
}

/// The `[start, start + len)` that verb `verb` of a step reads from `mr`.
fn target(mr: &MemoryRegion, step: &Step, verb: usize) -> (u64, usize) {
    let (a, b) = (step.1 + 7919 * verb, step.2 + 4099 * verb);
    let span = mr.pages * PAGE_SIZE;
    let offset = b % span;
    let len = if step.3 { 1 + a % 64 } else { 1 + a % (2 * PAGE_SIZE) }.min(span - offset);
    (mr.base + offset as u64, len)
}

struct Reference {
    per_shard: usize,
    mtt: HashMap<u64, Translation>,
    /// Cached pages per shard, most recently used first.
    cached: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Reference {
    fn uncache(&mut self, vpn: u64) {
        self.cached[vpn as usize % SHARDS].retain(|&v| v != vpn);
    }

    /// Installs fresh translations of the pages from `base` on.
    fn install(&mut self, base: u64, fresh: Vec<Translation>, uncache: bool) {
        for (p, t) in fresh.into_iter().enumerate() {
            let vpn = base / PAGE + p as u64;
            self.mtt.insert(vpn, t);
            if uncache {
                self.uncache(vpn);
            }
        }
    }

    /// One cache look-up; returns whether it hit.
    fn touch(&mut self, vpn: u64) -> bool {
        let lru = &mut self.cached[vpn as usize % SHARDS];
        match lru.iter().position(|&v| v == vpn) {
            Some(pos) => {
                lru.remove(pos);
                lru.insert(0, vpn);
                self.hits += 1;
                true
            }
            None => {
                if lru.len() == self.per_shard {
                    lru.pop();
                }
                lru.insert(0, vpn);
                self.misses += 1;
                false
            }
        }
    }

    /// The verb path of a read of pages `first..=last`: the frames it
    /// reads, whether every page hit, and the ODP misses it took.
    fn read(
        &mut self,
        aspace: &AddressSpace,
        odp: bool,
        first: u64,
        last: u64,
        forced: bool,
    ) -> Result<(Vec<FrameId>, bool, u32), RdmaError> {
        let (mut frames, mut all_hit, mut odp_misses) = (Vec::new(), true, 0);
        for vpn in first..=last {
            if forced {
                self.uncache(vpn);
            }
            let entry = match self.mtt.get(&vpn).copied() {
                Some(e) if !odp => e,
                stale => {
                    let now = aspace
                        .translate(vpn * PAGE)
                        .map_err(|_| RdmaError::OdpFault(vpn * PAGE))?;
                    if stale.map(|e| e.epoch) != Some(now.epoch) {
                        odp_misses += 1;
                        self.mtt.insert(vpn, now);
                    }
                    now
                }
            };
            all_hit &= self.touch(vpn);
            frames.push(entry.frame);
        }
        Ok((frames, all_hit, odp_misses))
    }
}

/// A registration-path verb succeeds exactly when every page of its range
/// translates, and fails naming the first one that does not. Returns the
/// verb's value and the translations the reference installs.
fn settled<T: std::fmt::Debug>(
    got: Result<T, RdmaError>,
    pages: Result<Vec<Translation>, MemError>,
) -> Result<Option<(T, Vec<Translation>)>, String> {
    match (got, pages) {
        (Ok(value), Ok(fresh)) => Ok(Some((value, fresh))),
        (Err(e), Err(unmapped)) => {
            ensure_eq!(e, RdmaError::Mem(unmapped));
            Ok(None)
        }
        (got, want) => Err(format!("verb {got:?}, page table {want:?}")),
    }
}

/// A fresh frame whose every byte names it.
fn tagged_frame(pm: &PhysicalMemory) -> FrameId {
    let frame = pm.alloc().unwrap();
    pm.write(frame, 0, &[frame.0 as u8; PAGE_SIZE]).unwrap();
    frame
}

/// Whether the reference has lost a translation of a pinned region's
/// `[start, start + len)` — which the NIC treats as a bug in its caller.
fn untranslated(model: &Reference, mr: &MemoryRegion, start: u64, len: usize) -> bool {
    let (first, last) = (start / PAGE, (start + len as u64 - 1) / PAGE);
    !mr.odp && (first..=last).any(|vpn| !model.mtt.contains_key(&vpn))
}

/// Puts `n` verbs that fail on their key to the NIC: each takes its fault
/// draw and nothing else.
fn spend_verbs(rnic: &Rnic, n: usize) -> Result<(), String> {
    for _ in 0..n {
        let bad = rnic.read(0xdead, 0, &mut [0u8; 8], SimTime::ZERO);
        ensure_eq!(bad, Err(RdmaError::InvalidKey(0xdead)));
    }
    Ok(())
}

/// One read's outcome against the reference's: the same cache and ODP
/// verdict and the bytes of the frames the reference translated to, or the
/// same error.
fn settle_read(
    step: usize,
    start: u64,
    buf: &[u8],
    got: Result<VerbOutcome, RdmaError>,
    want: Result<(Vec<FrameId>, bool, u32), RdmaError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(out), Ok((frames, all_hit, odp_misses))) => {
            ensure_eq!((out.cache_hit, out.odp_misses), (all_hit, odp_misses), "step {}", step);
            for (k, byte) in buf.iter().enumerate() {
                let frame = frames[((start + k as u64) / PAGE - start / PAGE) as usize];
                ensure_eq!(*byte, frame.0 as u8, "step {} byte {}", step, k);
            }
        }
        (Err(got), Err(want)) => ensure_eq!(got, want, "step {}", step),
        (got, want) => return Err(format!("step {step}: read {got:?} vs {want:?}")),
    }
    Ok(())
}

fn run(capacity: usize, steps: &[Step]) -> Result<(), String> {
    let pm = Arc::new(PhysicalMemory::new());
    let aspace = Arc::new(AddressSpace::new(pm.clone()));
    let frames: Vec<FrameId> = (0..PAGES).map(|_| tagged_frame(&pm)).collect();
    let va = aspace.mmap(&frames).unwrap();
    // Every step puts exactly `verbs(step)` verbs to the NIC, so the k-th
    // verb of the sequence is the NIC's k-th fault draw.
    let schedule = steps
        .iter()
        .flat_map(|s| (0..verbs(s)).map(move |verb| is_forced(s, verb)))
        .enumerate()
        .filter(|&(_, forced)| forced)
        .map(|(k, _)| ScheduledFault { at_op: k as u64, kind: FaultKind::CacheMiss })
        .collect();
    let rnic = Arc::new(Rnic::new(
        aspace.clone(),
        RnicConfig {
            cache_entries: capacity,
            faults: Some(FaultConfig::scripted(schedule)),
            ..RnicConfig::default()
        },
    ));
    let qp = QueuePair::connect(rnic.clone());
    let mut model = Reference {
        per_shard: capacity.div_ceil(SHARDS).max(1),
        mtt: HashMap::new(),
        cached: vec![Vec::new(); SHARDS],
        hits: 0,
        misses: 0,
    };
    let mut live: Vec<MemoryRegion> = Vec::new();
    let translate_all = |base: u64, pages: usize| -> Result<Vec<Translation>, MemError> {
        (0..pages as u64).map(|i| aspace.translate(base + i * PAGE)).collect()
    };

    for (i, step) in steps.iter().enumerate() {
        // Far enough apart that no verb lands in an earlier rereg's window.
        let now = SimTime::from_millis(i as u64);
        let &(kind, a, b, flag) = step;
        let region = (!live.is_empty()).then(|| live[a % live.len()]);
        match (kind, region) {
            (0, _) => {
                let first = a % PAGES;
                let pages = (1 + b % 4).min(PAGES - first);
                let base = va + first as u64 * PAGE;
                let got = rnic.register(base, pages, flag);
                if let Some(((mr, _), fresh)) = settled(got, translate_all(base, pages))? {
                    live.push(mr);
                    model.install(base, fresh, false);
                }
            }
            (1, Some(mr)) => {
                rnic.deregister(mr.rkey).unwrap();
                live.swap_remove(a % live.len());
                for p in 0..mr.pages as u64 {
                    model.mtt.remove(&(mr.base / PAGE + p));
                    model.uncache(mr.base / PAGE + p);
                }
                ensure_eq!(rnic.deregister(mr.rkey), Err(RdmaError::InvalidKey(mr.rkey)));
            }
            (2, Some(mr)) => {
                let got = rnic.rereg(mr.rkey, now);
                if let Some((_, fresh)) = settled(got, translate_all(mr.base, mr.pages))? {
                    model.install(mr.base, fresh, true);
                }
            }
            (3, Some(mr)) => {
                let skip = b % mr.pages;
                let (base, pages) = (mr.base + skip as u64 * PAGE, mr.pages - skip);
                let got = rnic.advise(mr.rkey, base, pages);
                // Every page or none: a page that does not translate fails
                // the verb with the MTT as it was.
                if !mr.odp {
                    ensure_eq!(got, Err(RdmaError::OdpUnsupported));
                } else if let Some((_, fresh)) = settled(got, translate_all(base, pages))? {
                    model.install(base, fresh, false);
                }
            }
            (4, _) => {
                // Move a page to a new frame behind the NIC's back.
                let page_va = va + (a % PAGES) as u64 * PAGE;
                if aspace.is_mapped(page_va) {
                    aspace.remap(page_va, &[tagged_frame(&pm)]).unwrap();
                }
            }
            (5, _) => {
                let page_va = va + (a % PAGES) as u64 * PAGE;
                if aspace.is_mapped(page_va) {
                    aspace.munmap(page_va, 1).unwrap();
                } else {
                    aspace.mmap_fixed(page_va, &[tagged_frame(&pm)]).unwrap();
                }
            }
            (6..=9, Some(mr)) => {
                let (start, len) = target(&mr, step, 0);
                let mut buf = vec![0u8; len];
                if untranslated(&model, &mr, start, len) {
                    // An overlapping region's deregistration took this
                    // one's translations with it: no such read is issued
                    // (the verb still has to happen, to keep the count).
                    spend_verbs(&rnic, 1)?;
                } else {
                    let (first, last) = (start / PAGE, (start + len as u64 - 1) / PAGE);
                    let want = model.read(&aspace, mr.odp, first, last, is_forced(step, 0));
                    let got = rnic.read(mr.rkey, start, &mut buf, now);
                    settle_read(i, start, &buf, got, want)?;
                }
            }
            (10.., Some(mr)) => {
                let reqs: Vec<ReadReq> = (0..verbs(step))
                    .map(|verb| {
                        let (start, len) = target(&mr, step, verb);
                        // See above: in a doorbell, the read that cannot
                        // be issued is one with a bad key.
                        let rkey =
                            if untranslated(&model, &mr, start, len) { 0xdead } else { mr.rkey };
                        ReadReq::new(verb as u64, rkey, start, len)
                    })
                    .collect();
                let mut outs = vec![Vec::new(); reqs.len()];
                let mut results = Vec::new();
                qp.read_batch_into(&reqs, &mut outs, now, &mut results);
                // The reference serves them one by one, up to the first
                // that fails; the NIC flushes the rest without a draw.
                let mut served = 0;
                let mut broken = false;
                for (verb, (req, got)) in reqs.iter().zip(&results).enumerate() {
                    let got = got.result.clone();
                    if broken {
                        ensure_eq!(got, Err(RdmaError::QpBroken), "step {}", i);
                        continue;
                    }
                    served += 1;
                    broken = got.is_err();
                    if req.rkey != mr.rkey {
                        ensure_eq!(got, Err(RdmaError::InvalidKey(req.rkey)), "step {}", i);
                        continue;
                    }
                    let (first, last) = (req.va / PAGE, (req.va + req.len as u64 - 1) / PAGE);
                    let want = model.read(&aspace, mr.odp, first, last, is_forced(step, verb));
                    settle_read(i, req.va, &outs[verb], got, want)?;
                }
                spend_verbs(&rnic, reqs.len() - served)?;
                qp.reconnect();
            }
            (6.., None) => spend_verbs(&rnic, verbs(step))?,
            _ => {}
        }
        for p in 0..PAGES as u64 {
            let (page_va, vpn) = (va + p * PAGE, va / PAGE + p);
            ensure_eq!(
                rnic.mtt_lookup(page_va),
                model.mtt.get(&vpn).map(|t| t.frame),
                "step {} page {}: translation",
                i,
                p
            );
            ensure_eq!(
                rnic.mtt_cached(page_va),
                model.cached[vpn as usize % SHARDS].contains(&vpn),
                "step {} page {}: cached",
                i,
                p
            );
        }
        ensure_eq!(rnic.cache_stats(), (model.hits, model.misses), "step {}", i);
    }
    Ok(())
}

#[test]
fn mtt_and_cache_match_the_reference() {
    check(64, |g| {
        let capacity = g.range(1usize..=64);
        let steps = g.vec(1..=2_000, |g| {
            (g.range(0u8..12), g.range(0usize..10_000), g.range(0usize..10_000), g.bool())
        });
        run(capacity, &steps)
    });
}
