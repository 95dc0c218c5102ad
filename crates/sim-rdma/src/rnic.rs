//! The simulated RDMA NIC.
//!
//! An [`Rnic`] sits between remote peers and a host [`AddressSpace`]. It
//! owns a Memory Translation Table (MTT) that is synchronized with the OS
//! page table only at registration time (or lazily through ODP), plus an LRU
//! cache of hot MTT entries. One-sided READ/WRITE verbs translate through
//! the MTT — never through the page table directly — so a compaction remap
//! that is not propagated to the NIC makes reads hit stale physical frames.
//! That is the central hazard of the paper, and it is fully observable here.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use corm_sim_core::prefetch_read;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::{
    AddressSpace, DmaSession, FarTier, FrameId, MemError, PagedTable, Residency, Translation,
    PAGE_SIZE,
};
use corm_trace::{Stage, TraceHandle, Track};

use crate::fault::{FaultBlock, FaultConfig, FaultInjector, FaultKind};
use crate::latency::LatencyModel;
use crate::mtt::MttShard;
use crate::sched::{QosConfig, QosScheduler};
use crate::wq::{ReadReq, ReadResult};

/// Errors surfaced by RNIC verbs. Any error on a one-sided access breaks
/// the issuing queue pair, per reliable-connection semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// No region with this key (or the key was invalidated).
    InvalidKey(u32),
    /// The access falls outside the registered region.
    OutOfRange {
        /// Region key used.
        rkey: u32,
        /// Target virtual address.
        va: u64,
        /// Access length.
        len: usize,
    },
    /// The region is being re-registered; accesses during the window break
    /// the QP (InfiniBand spec behaviour observed by the authors).
    RegionBusy(u32),
    /// ODP was requested on a device without ODP support.
    OdpUnsupported,
    /// An ODP fetch found the page unmapped in the OS page table.
    OdpFault(u64),
    /// Underlying memory error.
    Mem(MemError),
    /// The queue pair is in the error state and must be reconnected.
    QpBroken,
    /// A transient NIC/PCIe fault injected by the fault layer. The region
    /// and data are intact; a reconnect fully recovers.
    InjectedFault,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::InvalidKey(k) => write!(f, "invalid rkey {k:#x}"),
            RdmaError::OutOfRange { rkey, va, len } => {
                write!(f, "access out of range: rkey={rkey:#x} va={va:#x} len={len}")
            }
            RdmaError::RegionBusy(k) => write!(f, "region {k:#x} busy re-registering"),
            RdmaError::OdpUnsupported => write!(f, "device has no ODP support"),
            RdmaError::OdpFault(va) => write!(f, "ODP fault: va {va:#x} unmapped"),
            RdmaError::Mem(e) => write!(f, "memory error: {e}"),
            RdmaError::QpBroken => write!(f, "queue pair in error state"),
            RdmaError::InjectedFault => write!(f, "transient NIC/PCIe fault (injected)"),
        }
    }
}

impl std::error::Error for RdmaError {}

impl From<MemError> for RdmaError {
    fn from(e: MemError) -> Self {
        RdmaError::Mem(e)
    }
}

/// A registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRegion {
    /// Key for local access.
    pub lkey: u32,
    /// Key handed to remote peers.
    pub rkey: u32,
    /// Base virtual address (page aligned).
    pub base: u64,
    /// Length in pages.
    pub pages: usize,
    /// Whether the region uses On-Demand Paging.
    pub odp: bool,
}

impl MemoryRegion {
    /// Whether `[va, va+len)` lies inside the region.
    pub fn covers(&self, va: u64, len: usize) -> bool {
        let end = self.base + (self.pages * PAGE_SIZE) as u64;
        va >= self.base && va.checked_add(len as u64).is_some_and(|e| e <= end)
    }
}

/// RNIC configuration.
#[derive(Debug, Clone)]
pub struct RnicConfig {
    /// The device/CPU latency model.
    pub model: LatencyModel,
    /// Capacity of the on-chip MTT translation cache, in page entries.
    pub cache_entries: usize,
    /// Deterministic fault injection. `None` (the default) disables it
    /// entirely: the NIC behaves bit-identically to a fault-free build.
    pub faults: Option<FaultConfig>,
    /// Number of independent on-NIC processing units. Each unit owns its
    /// own inbound FIFO engine — one server calibrated to
    /// `nic_read_service`, which reproduces the aggregate plateau of a
    /// pipelining ConnectX unit — and WQEs are dispatched round-robin
    /// across units, the NP-RDMA model of an internally parallel RNIC.
    pub processing_units: usize,
    /// Trace recorder for NIC-side spans (doorbells, engine service, MTT
    /// and fault events). The default is disabled; recording is purely
    /// observational, so it never changes virtual time or fault draws.
    pub trace: TraceHandle,
    /// SLO-class-aware engine scheduling for the batched verb path. `None`
    /// (the default) and any equal-weight config run the scheduler's
    /// uniform discipline — round-robin over per-unit FIFO engines; skewed
    /// weights buy latency-class isolation — see [`QosConfig`].
    pub qos: Option<QosConfig>,
    /// The far tier behind unpinned memory, when the host runs a pin
    /// budget. `None` (the default) disables tiering entirely: residency
    /// is never consulted and the NIC is byte-identical to the pre-tiering
    /// build. When set, an access resolving to a non-pinned frame pays the
    /// tier's fault-path charge (see [`RnicConfig::dynamic_pin`]). A CoRM
    /// server overwrites it with the tier of its own pin-budget manager.
    pub tier: Option<Arc<FarTier>>,
    /// Whether the NIC supports NP-RDMA-style dynamic pinning: an MTT
    /// lookup that resolves to an unpinned or far frame triggers a
    /// host round trip that (fetches and) pins the page, charging
    /// `TierConfig::dynamic_pin` instead of failing. Without it, an ODP
    /// region degenerates to its existing lazy fault (the page is serviced
    /// in place and stays unpinned), and a non-ODP region takes the
    /// pinned-only *hard miss*: a synchronous host fault charged
    /// `TierConfig::hard_miss_extra` on top of the fetch.
    pub dynamic_pin: bool,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            model: LatencyModel::default(),
            cache_entries: 16 * 1024,
            faults: None,
            processing_units: 1,
            trace: TraceHandle::disabled(),
            qos: None,
            tier: None,
            dynamic_pin: false,
        }
    }
}

/// Number of MTT shards. Translations are sharded by page-aligned virtual
/// address, so concurrent one-sided verbs from different QPs touching
/// different pages never contend on the same translation lock. The
/// translation cache splits its capacity evenly across shards.
const MTT_SHARDS: usize = 8;

/// The first key issued. Keys go out in pairs — `lkey` even, `rkey` the odd
/// number after it — and are never reissued.
const FIRST_KEY: u32 = 0x1000;

/// One region-table slot, padded from 40 bytes to a cache line of its own
/// so that a verb's look-up never reads two.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct RegionSlot {
    mr: MemoryRegion,
    /// End of the region's latest `rereg_mr` busy window (zero: none yet).
    busy_until: SimTime,
}

const _: () = assert!(std::mem::size_of::<Option<RegionSlot>>() == 64);

/// Region/key metadata, touched on every verb only for a read-mostly
/// lookup. Registration paths take the write lock; the hot path never
/// does.
struct RegionTable {
    /// Indexed by the rkey's position in the issue order.
    regions: PagedTable<RegionSlot>,
    next_key: u32,
}

impl RegionTable {
    /// Where `rkey`'s slot sits, if `rkey` has the form of an issued key.
    #[inline]
    fn index(rkey: u32) -> Option<u64> {
        let nth = rkey.checked_sub(FIRST_KEY + 1)?;
        nth.is_multiple_of(2).then_some(nth as u64 / 2)
    }

    #[inline]
    fn get(&self, rkey: u32) -> Result<&RegionSlot, RdmaError> {
        Self::index(rkey).and_then(|i| self.regions.get(i)).ok_or(RdmaError::InvalidKey(rkey))
    }

    fn get_mut(&mut self, rkey: u32) -> Result<&mut RegionSlot, RdmaError> {
        Self::index(rkey).and_then(|i| self.regions.get_mut(i)).ok_or(RdmaError::InvalidKey(rkey))
    }
}

/// Doorbell-batch-scoped MTT shard guards. The serve paths prescan which
/// shards a batch's pages hash to and lock exactly those once, in
/// ascending index order, instead of locking per page per WQE. Ascending
/// acquisition gives concurrent batches one global order, and every other
/// shard user (registration, rereg, advise, the single-verb path) holds at
/// most one shard at a time, so no cycle is possible. Wall-clock-only: the
/// guards serialize exactly the accesses the per-page locks would have,
/// batch-at-a-time instead of page-at-a-time, and virtual time never
/// depends on lock timing.
struct ShardGuards<'a> {
    guards: [Option<MutexGuard<'a, MttShard>>; MTT_SHARDS],
}

impl<'a> ShardGuards<'a> {
    /// The held guard for shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the prescan did not cover `idx` — the mask is computed
    /// from the same request list the serve loop walks, so a miss is a
    /// bug, not a recoverable state (locking late would break the
    /// ascending-order invariant).
    #[inline]
    fn shard(&mut self, idx: usize) -> &mut MttShard {
        self.guards[idx].as_mut().expect("shard prescan covered every page")
    }
}

/// The outcome of a one-sided verb: end-to-end latency plus diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbOutcome {
    /// End-to-end latency charged to the issuing client.
    pub latency: SimDuration,
    /// Whether every page translation hit the RNIC cache.
    pub cache_hit: bool,
    /// Number of ODP misses taken.
    pub odp_misses: u32,
}

/// Counters exposed for the benchmark harness. Injected faults are counted
/// by the fault log ([`Rnic::fault_log`]), pin faults and hard misses by
/// the far tier ([`FarTier::stats`]).
#[derive(Debug, Default)]
pub struct RnicStats {
    /// One-sided reads served.
    pub reads: AtomicU64,
    /// ODP misses taken.
    pub odp_misses: AtomicU64,
    /// `rereg_mr` calls.
    pub reregs: AtomicU64,
    /// `advise_mr` calls.
    pub advises: AtomicU64,
    /// Doorbells rung (each admits one posted batch).
    pub doorbells: AtomicU64,
    /// WQEs executed through the batched path (including failed, excluding
    /// flushed ones, which never reach the NIC).
    pub wqes: AtomicU64,
    /// Pages fetched from the far tier on the NIC fault path.
    pub tier_fetches: AtomicU64,
}

/// The simulated RDMA-capable NIC.
pub struct Rnic {
    aspace: Arc<AddressSpace>,
    regions: RwLock<RegionTable>,
    /// MTT + translation-cache shards; see [`Rnic::locate`].
    shards: [Mutex<MttShard>; MTT_SHARDS],
    config: RnicConfig,
    /// The fault injector, when `RnicConfig::faults` configured one.
    faults: Option<FaultInjector>,
    /// The inbound verb engines behind their one admission path: every
    /// doorbell-batched WQE is admitted here.
    sched: Mutex<QosScheduler>,
    /// Public counters.
    pub stats: RnicStats,
}

impl fmt::Debug for Rnic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rnic").field("device", &self.config.model.device).finish()
    }
}

impl Rnic {
    /// Creates a NIC attached to `aspace`.
    pub fn new(aspace: Arc<AddressSpace>, config: RnicConfig) -> Self {
        let faults = config.faults.clone().map(FaultInjector::new);
        // Split the cache budget evenly; every shard keeps at least one
        // entry so small caches still cache.
        let per_shard = config.cache_entries.div_ceil(MTT_SHARDS).max(1);
        let shards = std::array::from_fn(|_| Mutex::new(MttShard::new(per_shard)));
        let sched = Mutex::new(QosScheduler::new(
            config.qos.clone().unwrap_or_else(QosConfig::equal_weights),
            config.processing_units,
        ));
        Rnic {
            aspace,
            regions: RwLock::new(RegionTable {
                regions: PagedTable::default(),
                next_key: FIRST_KEY,
            }),
            shards,
            config,
            faults,
            sched,
            stats: RnicStats::default(),
        }
    }

    /// Where the MTT keeps a virtual page: the shard, and the page's index
    /// within it. Pages are dealt round-robin, so each shard's indexes are
    /// as dense as the vpns themselves.
    #[inline]
    fn locate(&self, vpn: u64) -> (usize, u64) {
        let n = MTT_SHARDS as u64;
        ((vpn % n) as usize, vpn / n)
    }

    /// Locks the MTT shards a doorbell batch will touch, once, in
    /// ascending index order. `accesses` yields each WQE's `(va, len)`;
    /// pages of requests that later fail region checks are harmlessly
    /// over-approximated into the mask.
    fn lock_batch_shards(&self, accesses: impl Iterator<Item = (u64, usize)>) -> ShardGuards<'_> {
        const _: () = assert!(MTT_SHARDS <= u8::BITS as usize);
        let full = u8::MAX >> (u8::BITS as usize - MTT_SHARDS);
        let mut mask = 0u8;
        for (va, len) in accesses {
            let first = va / PAGE_SIZE as u64;
            let last = (va + len.max(1) as u64 - 1) / PAGE_SIZE as u64;
            if last - first + 1 >= MTT_SHARDS as u64 {
                mask = full;
            } else {
                for vpn in first..=last {
                    mask |= 1 << self.locate(vpn).0;
                }
            }
            if mask == full {
                break;
            }
        }
        // `from_fn` walks the indexes forward: ascending lock order.
        let guards = std::array::from_fn(|i| ((mask >> i) & 1 == 1).then(|| self.shards[i].lock()));
        ShardGuards { guards }
    }

    /// The fault injector, if fault injection is enabled.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// The replay log of injected faults (empty when injection is off).
    pub fn fault_log(&self) -> Vec<(u64, FaultKind)> {
        self.faults.as_ref().map(|f| f.fired()).unwrap_or_default()
    }

    /// The latency model in force.
    pub fn model(&self) -> &LatencyModel {
        &self.config.model
    }

    /// The trace recorder (disabled unless the config enabled one).
    pub fn trace(&self) -> &TraceHandle {
        &self.config.trace
    }

    /// The host address space this NIC is attached to.
    pub fn aspace(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// The page table's current translation of every page of
    /// `[base, base + pages*PAGE_SIZE)`. Read-only: a page that fails to
    /// translate fails the caller before it has changed anything.
    fn snapshot(&self, base: u64, pages: usize) -> Result<Vec<Translation>, RdmaError> {
        (0..pages).map(|i| Ok(self.aspace.translate(base + (i * PAGE_SIZE) as u64)?)).collect()
    }

    /// Installs `t` as the MTT's translation of page `vpn`. `uncache` also
    /// drops the page from the translation cache.
    fn install(&self, vpn: u64, t: Translation, uncache: bool) {
        let (shard, page) = self.locate(vpn);
        let mut shard = self.shards[shard].lock();
        shard.install(page, t);
        if uncache {
            shard.uncache(page);
        }
    }

    /// Installs a [`Rnic::snapshot`] of the pages from `base` on.
    fn install_all(&self, base: u64, fresh: &[Translation], uncache: bool) {
        for (i, &t) in fresh.iter().enumerate() {
            self.install(base / PAGE_SIZE as u64 + i as u64, t, uncache);
        }
    }

    /// Registers `[base, base + pages*PAGE_SIZE)`. Snapshot-copies the
    /// current page-table entries into the MTT (pinning semantics) and
    /// returns keys. Cost is the same order as `rereg_mr`.
    pub fn register(
        &self,
        base: u64,
        pages: usize,
        odp: bool,
    ) -> Result<(MemoryRegion, SimDuration), RdmaError> {
        if odp && self.config.model.odp_miss.is_none() {
            return Err(RdmaError::OdpUnsupported);
        }
        if !base.is_multiple_of(PAGE_SIZE as u64) {
            return Err(RdmaError::Mem(MemError::Unaligned(base)));
        }
        let fresh = self.snapshot(base, pages)?;
        let lkey = {
            let mut rt = self.regions.write();
            let lkey = rt.next_key;
            rt.next_key += 2;
            lkey
        };
        self.install_all(base, &fresh, false);
        let mr = MemoryRegion { lkey, rkey: lkey + 1, base, pages, odp };
        let index = RegionTable::index(mr.rkey).expect("a key just issued");
        self.regions.write().regions.insert(index, RegionSlot { mr, busy_until: SimTime::ZERO });
        Ok((mr, self.config.model.rereg_cost(pages)))
    }

    /// Deregisters a region, dropping its MTT entries.
    pub fn deregister(&self, rkey: u32) -> Result<(), RdmaError> {
        let removed = RegionTable::index(rkey).and_then(|i| self.regions.write().regions.remove(i));
        let mr = removed.ok_or(RdmaError::InvalidKey(rkey))?.mr;
        for i in 0..mr.pages {
            let (shard, page) = self.locate(mr.base / PAGE_SIZE as u64 + i as u64);
            self.shards[shard].lock().remove(page);
        }
        Ok(())
    }

    /// Re-snapshots every region in `rkeys` under one busy window. Every
    /// key and every page is checked first, read-only, so a failure leaves
    /// no window open and the MTT as it was.
    fn rereg_regions(&self, rkeys: &[u32], now: SimTime) -> Result<SimDuration, RdmaError> {
        let (fresh, cost) = {
            let mut rt = self.regions.write();
            let mut fresh = Vec::with_capacity(rkeys.len());
            let mut max_pages = 0;
            for &rkey in rkeys {
                let mr = rt.get(rkey)?.mr;
                max_pages = max_pages.max(mr.pages);
                fresh.push((mr.base, self.snapshot(mr.base, mr.pages)?));
            }
            let cost = self.config.model.rereg_cost(max_pages);
            // Open the busy windows before any translation changes:
            // concurrent one-sided accesses see RegionBusy first, as on
            // real hardware.
            for &rkey in rkeys {
                rt.get_mut(rkey).expect("checked under this lock").busy_until = now + cost;
            }
            (fresh, cost)
        };
        for (base, fresh) in &fresh {
            self.install_all(*base, fresh, true);
        }
        self.stats.reregs.fetch_add(rkeys.len() as u64, Ordering::Relaxed);
        Ok(cost)
    }

    /// `ibv_rereg_mr`: re-snapshots the region's translations, preserving
    /// keys. The region is unavailable for `[now, now+cost)`; one-sided
    /// accesses inside the window break the QP. A region with an unmapped
    /// page fails the verb and stays as it was, window closed.
    pub fn rereg(&self, rkey: u32, now: SimTime) -> Result<SimDuration, RdmaError> {
        self.rereg_regions(&[rkey], now)
    }

    /// Batched `ibv_rereg_mr`: re-snapshots every region in `rkeys` with a
    /// single posted verb, preserving keys. All regions in the batch share
    /// one busy window `[now, now + cost)` — the batch rides one
    /// doorbell/transition, so the cost is that of re-registering the
    /// largest region in the batch rather than the per-region sum (the
    /// compaction batch's regions all alias the same destination frames).
    ///
    /// The whole batch is validated before any region is touched: an
    /// unknown key or an unmapped page fails the batch with no busy window
    /// opened.
    pub fn rereg_batch(&self, rkeys: &[u32], now: SimTime) -> Result<SimDuration, RdmaError> {
        if rkeys.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        self.rereg_regions(rkeys, now)
    }

    /// Prefetches the translations of every `(rkey, va, pages)` target,
    /// after checking all of them. Costs one advise over the largest.
    fn advise_targets(&self, targets: &[(u32, u64, usize)]) -> Result<SimDuration, RdmaError> {
        let mut max_pages = 0usize;
        {
            let rt = self.regions.read();
            for &(rkey, va, pages) in targets {
                let mr = rt.get(rkey)?.mr;
                if !mr.odp {
                    return Err(RdmaError::OdpUnsupported);
                }
                if !mr.covers(va, pages * PAGE_SIZE) {
                    return Err(RdmaError::OutOfRange { rkey, va, len: pages * PAGE_SIZE });
                }
                max_pages = max_pages.max(pages);
            }
        }
        for &(_, va, pages) in targets {
            for i in 0..pages {
                let page_va = va + (i * PAGE_SIZE) as u64;
                self.install(page_va / PAGE_SIZE as u64, self.aspace.translate(page_va)?, false);
            }
        }
        self.stats.advises.fetch_add(targets.len() as u64, Ordering::Relaxed);
        Ok(self.config.model.advise_cost(max_pages))
    }

    /// Batched `ibv_advise_mr`: prefetches translations for every
    /// `(rkey, va, pages)` target with a single posted verb. Costs one
    /// advise over the largest target (the batch shares a
    /// doorbell/transition; compaction's targets all map the same frames).
    ///
    /// The whole batch is validated before any translation is installed.
    pub fn advise_batch(&self, targets: &[(u32, u64, usize)]) -> Result<SimDuration, RdmaError> {
        if targets.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        self.advise_targets(targets)
    }

    /// `ibv_advise_mr` prefetch: refreshes translations of an ODP region's
    /// pages ahead of the first access.
    pub fn advise(&self, rkey: u32, va: u64, pages: usize) -> Result<SimDuration, RdmaError> {
        self.advise_targets(&[(rkey, va, pages)])
    }

    /// One-sided RDMA READ of `buf.len()` bytes at `(rkey, va)`.
    ///
    /// Translation is performed through the MTT. For non-ODP regions the
    /// snapshot is authoritative even if stale — the dangerous case. For
    /// ODP regions, stale/missing entries are refetched from the OS page
    /// table at the ODP miss cost.
    pub fn read(
        &self,
        rkey: u32,
        va: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        let outcome = self.access(rkey, va, now, buf)?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Serves one doorbell of READs through the inbound engine: the one
    /// core under [`crate::QueuePair::read_batch_into`] and the
    /// post/ring/poll façade over it.
    ///
    /// The batch arrives at `now + doorbell_cost` — one doorbell pays for
    /// the whole batch. A read-only [`Rnic::resolve`] pass first starts
    /// every request's lines loading; the commit pass below then finds
    /// them in cache. Each WQE then runs the full verb path (fault draw,
    /// region checks, per-page MTT/cache lookup, DMA into `outs[k]`,
    /// resized to the request's length) and is admitted into the engine
    /// scheduler for its service time; its completion lands at
    /// `engine_done + (end_to_end_latency − service)`, the same composition
    /// the closed-loop simulations use. The first failing WQE stops
    /// execution and completes at the batch's arrival; the remaining WQEs
    /// are *flushed* there with [`RdmaError::QpBroken`] and consume no
    /// fault draws, mirroring the sequential path where a broken QP rejects
    /// follow-up verbs before they reach the NIC.
    ///
    /// Appends one result per request to `results`, in posting order; a
    /// failed request's buffer holds nothing meaningful. Returns whether a
    /// WQE failed; the caller moves its QP to the error state then.
    pub(crate) fn serve_doorbell(
        &self,
        reqs: &[ReadReq],
        now: SimTime,
        outs: &mut [Vec<u8>],
        results: &mut Vec<ReadResult>,
    ) -> bool {
        let model = &self.config.model;
        let trace = &self.config.trace;
        let arrival = now + model.doorbell_cost;
        self.stats.doorbells.fetch_add(1, Ordering::Relaxed);
        trace.span(Track::Nic, Stage::Doorbell, 0, now, model.doorbell_cost);
        // Shared-state locks are taken once per doorbell, not once per WQE,
        // in the one global order regions -> DMA session -> scheduler ->
        // fault -> shards ascending. Virtual-time results are identical to
        // per-WQE locking — these guards only serialize wall-clock access.
        let rt = self.regions.read();
        let dma = self.aspace.phys().dma();
        let mut sched = self.sched.lock();
        let mut fault = self.faults.as_ref().map(|inj| inj.begin_block());
        let held = self.lock_batch_shards(reqs.iter().map(|r| (r.va, r.len)));
        // A lone request has no other chain to overlap with.
        if reqs.len() >= 2 {
            self.resolve(&rt, &dma, &held, reqs);
        }
        let mut held = Some(held);
        let mut memo = None;
        // How many requests reached the NIC, and whether the last one failed.
        let mut executed = 0usize;
        let mut failed = false;
        for (req, out) in reqs.iter().zip(outs.iter_mut()) {
            executed += 1;
            out.resize(req.len, 0);
            let (completed_at, result) = match self.access_locked(
                &rt, &dma, &mut fault, &mut held, &mut memo, req.rkey, req.va, arrival, out,
            ) {
                Ok(verb) => {
                    let mut service = model.rdma_read_service(req.len, verb.cache_hit);
                    if verb.odp_misses > 0 {
                        service +=
                            model.odp_miss.unwrap_or(SimDuration::ZERO) * verb.odp_misses as u64;
                    }
                    let adm = sched.admit(req.tenant, req.class, arrival, service);
                    if adm.class_wait > SimDuration::ZERO {
                        trace.span(
                            Track::Nic,
                            Stage::QosClassWait,
                            req.wr_id,
                            arrival,
                            adm.class_wait,
                        );
                    }
                    trace.span(
                        Track::EngineUnit(adm.unit as u32),
                        Stage::EngineService,
                        req.wr_id,
                        SimTime::from_nanos(adm.done.as_nanos() - service.as_nanos()),
                        service,
                    );
                    (adm.done + verb.latency.saturating_sub(service), Ok(verb))
                }
                Err(e) => {
                    failed = true;
                    (arrival, Err(e))
                }
            };
            results.push(ReadResult { wr_id: req.wr_id, completed_at, result });
            if failed {
                break;
            }
        }
        results.extend(reqs[executed..].iter().map(|req| ReadResult::flushed(req, arrival)));
        self.stats.wqes.fetch_add(executed as u64, Ordering::Relaxed);
        let reads = (executed - failed as usize) as u64;
        if reads > 0 {
            self.stats.reads.fetch_add(reads, Ordering::Relaxed);
        }
        failed
    }

    /// The resolve pass of a doorbell: per request, starts the loads that
    /// the commit pass would otherwise wait for one after another — region
    /// slot, the first page's MTT slot, that page's recency-list node, the
    /// frame-table entry and the payload's first line. No request's loads
    /// depend on another's, so the CPU keeps all of them in flight at once,
    /// as a real RNIC overlaps the translations behind one doorbell.
    ///
    /// Strictly read-only under the guards the doorbell already holds: it
    /// draws no fault, counts nothing, promotes, installs and evicts
    /// nothing, traces nothing and charges no virtual time, so the commit
    /// pass decides exactly what it would have decided without it. A
    /// request that will fail its region checks resolves nothing.
    fn resolve(
        &self,
        rt: &RegionTable,
        dma: &DmaSession<'_>,
        held: &ShardGuards<'_>,
        reqs: &[ReadReq],
    ) {
        for req in reqs {
            if !rt.get(req.rkey).is_ok_and(|slot| slot.mr.covers(req.va, req.len)) {
                continue;
            }
            let (shard, page) = self.locate(req.va / PAGE_SIZE as u64);
            let translated = held.guards[shard].as_ref().and_then(|shard| shard.peek(page));
            if let Some((frame, node)) = translated {
                if let Some(node) = node {
                    prefetch_read(node);
                }
                dma.prefetch(frame, (req.va % PAGE_SIZE as u64) as usize);
            }
        }
    }

    /// Number of on-NIC processing units.
    pub fn processing_units(&self) -> usize {
        self.config.processing_units.max(1)
    }

    /// Total WQEs admitted into the inbound verb engines, summed over all
    /// processing units.
    pub fn engine_admitted(&self) -> u64 {
        self.sched.lock().admitted()
    }

    /// Cumulative busy time of the inbound verb engines, summed over all
    /// processing units. Differences of this across a measurement window,
    /// divided by the window length, give the engine utilization over that
    /// window.
    pub fn engine_busy(&self) -> SimDuration {
        self.sched.lock().busy()
    }

    /// Mean inbound-engine utilization over `[0, horizon]`, across every
    /// server of every processing unit.
    pub fn engine_utilization(&self, horizon: SimTime) -> f64 {
        self.sched.lock().utilization(horizon)
    }

    fn access(
        &self,
        rkey: u32,
        va: u64,
        now: SimTime,
        buf: &mut [u8],
    ) -> Result<VerbOutcome, RdmaError> {
        let rt = self.regions.read();
        let dma = self.aspace.phys().dma();
        let mut fault = self.faults.as_ref().map(|inj| inj.begin_block());
        self.access_locked(&rt, &dma, &mut fault, &mut None, &mut None, rkey, va, now, buf)
    }

    /// The verb path proper, under a caller-held region-table snapshot,
    /// DMA session, and fault-draw block. [`Rnic::serve_doorbell`] acquires
    /// all three once per doorbell batch, plus batch-held shard guards in
    /// `held` and a one-entry region memo in `memo` (valid because the
    /// region snapshot is pinned and every WQE in a batch shares one
    /// arrival time); the sequential [`Rnic::read`] wrapper passes `None`
    /// for both and acquires per verb. The READ is of `buf.len()` bytes.
    #[allow(clippy::too_many_arguments)]
    fn access_locked(
        &self,
        rt: &RegionTable,
        dma: &DmaSession<'_>,
        fault: &mut Option<FaultBlock<'_>>,
        held: &mut Option<ShardGuards<'_>>,
        memo: &mut Option<(u32, MemoryRegion)>,
        rkey: u32,
        va: u64,
        now: SimTime,
        buf: &mut [u8],
    ) -> Result<VerbOutcome, RdmaError> {
        let len = buf.len();
        // Consult the fault layer first: injected failures model the NIC or
        // the fabric going wrong before the verb touches any state.
        let mut injected_delay = SimDuration::ZERO;
        let mut forced_miss = false;
        let trace = &self.config.trace;
        if let Some(inj) = fault.as_mut() {
            let decision = inj.decide();
            if decision.is_some() {
                // The draw fired: record it as an instantaneous NIC event.
                // Tracing observes the decision after the fact — it never
                // consumes draws of its own, so replay order is untouched.
                trace.event(Track::Nic, Stage::FaultDraw, 0, now);
            }
            match decision {
                Some(FaultKind::QpBreak) => return Err(RdmaError::QpBroken),
                Some(FaultKind::Transient) => return Err(RdmaError::InjectedFault),
                Some(FaultKind::DelaySpike) => {
                    injected_delay = inj.delay_spike();
                    trace.sample(Stage::FaultDelay, injected_delay);
                }
                Some(FaultKind::CacheMiss) => forced_miss = true,
                None => {}
            }
        }
        let mr = match memo {
            Some((k, mr)) if *k == rkey => *mr,
            _ => {
                let slot = rt.get(rkey)?;
                if now < slot.busy_until {
                    return Err(RdmaError::RegionBusy(rkey));
                }
                *memo = Some((rkey, slot.mr));
                slot.mr
            }
        };
        if !mr.covers(va, len) {
            return Err(RdmaError::OutOfRange { rkey, va, len });
        }
        // Resolve the translation of every page the access touches. Each
        // page locks only its own MTT shard, so concurrent verbs from
        // different QPs touching different pages proceed in parallel.
        // Translations live on the stack for typical verb sizes; only an
        // access spanning more than eight pages spills to the heap.
        let first_vpn = va / PAGE_SIZE as u64;
        let last_vpn = (va + len.max(1) as u64 - 1) / PAGE_SIZE as u64;
        let pages = (last_vpn - first_vpn + 1) as usize;
        let mut inline = [FrameId(0); 8];
        let mut spill = Vec::new();
        let frames: &mut [FrameId] = if pages <= inline.len() {
            &mut inline[..pages]
        } else {
            spill.resize(pages, FrameId(0));
            &mut spill
        };
        let mut all_hit = true;
        let mut odp_misses = 0u32;
        for vpn in first_vpn..=last_vpn {
            let (shard, page) = self.locate(vpn);
            let mut fresh;
            let shard: &mut MttShard = match held {
                Some(h) => h.shard(shard),
                None => {
                    fresh = self.shards[shard].lock();
                    &mut fresh
                }
            };
            if forced_miss {
                // A forced MTT-cache-miss fault evicts the page's
                // translation so the normal lookup below takes a genuine
                // miss.
                shard.uncache(page);
            }
            let entry = match shard.get(page) {
                Some(e) if !mr.odp => e,
                maybe => {
                    // ODP region (or missing entry on one): validate epoch
                    // against the OS page table.
                    debug_assert!(mr.odp || maybe.is_some());
                    let current = self
                        .aspace
                        .translate(vpn * PAGE_SIZE as u64)
                        .map_err(|_| RdmaError::OdpFault(vpn * PAGE_SIZE as u64))?;
                    match maybe {
                        Some(e) if e.epoch == current.epoch => e,
                        _ => {
                            // Stale or absent: take the ODP miss and install.
                            odp_misses += 1;
                            self.stats.odp_misses.fetch_add(1, Ordering::Relaxed);
                            shard.install(page, current);
                            current
                        }
                    }
                }
            };
            all_hit &= shard.touch(page);
            frames[(vpn - first_vpn) as usize] = entry.frame;
        }
        // Tiering fault path (NP-RDMA): an access that resolved to an
        // unpinned or far frame cannot DMA yet — the page must be made
        // DMA-able first, and the cost model charges the host round trip
        // into the verb's latency. Deliberately *after* every fault draw
        // and translation above and *before* the DMA below: residency is a
        // deterministic check that consumes no RNG, so seeded fault-draw
        // order is byte-identical with and without a tier attached.
        let mut tier_delay = SimDuration::ZERO;
        if let Some(tier) = &self.config.tier {
            for &frame in frames.iter() {
                match dma.residency(frame) {
                    Some(Residency::Pinned) | None => continue,
                    Some(res) => {
                        let tcfg = tier.config();
                        if self.config.dynamic_pin || mr.odp {
                            // NIC-side faults fetch through the tier's
                            // parallel channels: a batch of faulting reads
                            // overlaps its transfers.
                            let fetch = if res == Residency::Far {
                                let d = tier.fetch_with(dma, frame, now)?;
                                self.stats.tier_fetches.fetch_add(1, Ordering::Relaxed);
                                trace.span(Track::Nic, Stage::TierFetch, 0, now, d);
                                d
                            } else {
                                SimDuration::ZERO
                            };
                            if self.config.dynamic_pin {
                                // Dynamic pin: the NIC faults to the host,
                                // which pins the (now resident) page; DMA
                                // then proceeds against pinned memory.
                                dma.set_residency(frame, Residency::Pinned)?;
                                tier.note_pin_fault();
                                trace.span(Track::Nic, Stage::DynamicPin, 0, now, tcfg.dynamic_pin);
                                tier_delay += fetch + tcfg.dynamic_pin;
                            } else if res == Residency::Far {
                                // ODP degenerates to its existing lazy
                                // fault: a far page is fetched and serviced
                                // in place, staying unpinned; a page that is
                                // already resident needs no fault at all.
                                odp_misses += 1;
                                self.stats.odp_misses.fetch_add(1, Ordering::Relaxed);
                                tier_delay += fetch;
                            }
                        } else {
                            // Pinned-only hard miss: the host services the
                            // fault synchronously (swap-in + re-pin +
                            // re-registration) while the verb stalls, and
                            // concurrent hard misses serialize on the
                            // host's single fault path.
                            let far = res == Residency::Far;
                            let d = tier.hard_miss_with(dma, frame, now)?;
                            if far {
                                self.stats.tier_fetches.fetch_add(1, Ordering::Relaxed);
                                trace.span(Track::Nic, Stage::TierFetch, 0, now, d);
                            }
                            dma.set_residency(frame, Residency::Pinned)?;
                            tier_delay += d;
                        }
                    }
                }
            }
        }
        // Perform the DMA against the translated frames.
        let mut done = 0usize;
        let mut addr = va;
        let mut frame_idx = 0usize;
        while done < len {
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let frame = frames[frame_idx];
            dma.read(frame, off, &mut buf[done..done + n])?;
            done += n;
            addr += n as u64;
            frame_idx += 1;
        }
        trace.add(Stage::MttLookup, last_vpn - first_vpn + 1);
        if !all_hit {
            trace.event(Track::Nic, Stage::MttMiss, 0, now);
        }
        if odp_misses > 0 {
            trace.add(Stage::OdpMiss, odp_misses as u64);
        }
        let model = &self.config.model;
        let mut latency = model.rdma_read_latency(len, all_hit);
        if odp_misses > 0 {
            latency += model.odp_miss.unwrap_or(SimDuration::ZERO) * odp_misses as u64;
        }
        latency += injected_delay + tier_delay;
        Ok(VerbOutcome { latency, cache_hit: all_hit, odp_misses })
    }

    /// The far tier attached to this NIC, if the host runs a pin budget.
    pub fn tier(&self) -> Option<&Arc<FarTier>> {
        self.config.tier.as_ref()
    }

    /// Cache hit/miss counters of the translation cache, summed over all
    /// MTT shards.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(hits, misses), shard| {
            let (h, m) = shard.lock().stats();
            (hits + h, misses + m)
        })
    }

    /// The MTT's current translation for a page, if any (test/diagnostic
    /// hook: lets tests assert MTT-vs-page-table divergence).
    pub fn mtt_lookup(&self, va: u64) -> Option<FrameId> {
        let (shard, page) = self.locate(va / PAGE_SIZE as u64);
        self.shards[shard].lock().peek(page).map(|(frame, _)| frame)
    }

    /// Whether the page's translation sits in the on-chip cache (test/
    /// diagnostic hook like [`Rnic::mtt_lookup`]: promotes and counts
    /// nothing).
    pub fn mtt_cached(&self, va: u64) -> bool {
        let (shard, page) = self.locate(va / PAGE_SIZE as u64);
        self.shards[shard].lock().is_cached(page)
    }

    /// Resident leaves of the region table.
    #[cfg(test)]
    fn region_leaves(&self) -> usize {
        self.regions.read().regions.leaves()
    }

    /// Looks up a region by rkey.
    pub fn region(&self, rkey: u32) -> Option<MemoryRegion> {
        self.regions.read().get(rkey).ok().map(|slot| slot.mr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_sim_mem::PhysicalMemory;

    fn setup(pages: usize) -> (Arc<AddressSpace>, Arc<Rnic>, u64, Vec<FrameId>) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        (aspace, rnic, va, frames)
    }

    #[test]
    fn register_and_read_round_trip() {
        let (aspace, rnic, va, _) = setup(2);
        let (mr, _cost) = rnic.register(va, 2, false).unwrap();
        aspace.write(va + 100, b"remote").unwrap();
        let mut buf = [0u8; 6];
        let out = rnic.read(mr.rkey, va + 100, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"remote");
        assert!(out.latency > SimDuration::ZERO);
        assert_eq!(rnic.stats.reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn read_crossing_page_boundary() {
        let (aspace, rnic, va, _) = setup(2);
        let (mr, _) = rnic.register(va, 2, false).unwrap();
        let addr = va + PAGE_SIZE as u64 - 3;
        aspace.write(addr, b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        rnic.read(mr.rkey, addr, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn invalid_key_and_out_of_range() {
        let (_aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            rnic.read(0xdead, va, &mut buf, SimTime::ZERO),
            Err(RdmaError::InvalidKey(0xdead))
        );
        let mut big = vec![0u8; PAGE_SIZE + 1];
        assert!(matches!(
            rnic.read(mr.rkey, va, &mut big, SimTime::ZERO),
            Err(RdmaError::OutOfRange { .. })
        ));
    }

    #[test]
    fn stale_mtt_after_remap_reads_old_frame() {
        // THE hazard: remap without MTT update → RDMA read returns the old
        // frame's (stale) bytes even though the CPU sees the new ones.
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, false).unwrap();

        aspace.write(va, b"old!").unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap(); // CPU writes through new mapping

        let mut buf = [0u8; 4];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"old!", "non-ODP NIC must read the stale frame");
        // CPU sees the new data.
        let mut cpu = [0u8; 4];
        aspace.read(va, &mut cpu).unwrap();
        assert_eq!(&cpu, b"new!");
    }

    #[test]
    fn rereg_fixes_stale_mtt_but_busy_window_rejects() {
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap();

        let t0 = SimTime::from_micros(100);
        let cost = rnic.rereg(mr.rkey, t0).unwrap();
        // Access inside the window breaks (RegionBusy).
        let mut buf = [0u8; 4];
        assert_eq!(rnic.read(mr.rkey, va, &mut buf, t0), Err(RdmaError::RegionBusy(mr.rkey)));
        // After the window, reads see the new frame with the same rkey.
        let after = t0 + cost;
        rnic.read(mr.rkey, va, &mut buf, after).unwrap();
        assert_eq!(&buf, b"new!");
    }

    #[test]
    fn rereg_of_a_region_with_an_unmapped_page_changes_nothing() {
        let (aspace, rnic, va, frames) = setup(4);
        let page = PAGE_SIZE as u64;
        let (a, _) = rnic.register(va, 2, false).unwrap();
        let (b, _) = rnic.register(va + 2 * page, 2, false).unwrap();
        let spare = aspace.phys().alloc().unwrap();
        aspace.remap(va, &[spare]).unwrap();
        aspace.remap(va + 2 * page, &[spare]).unwrap();
        aspace.munmap(va + 3 * page, 1).unwrap();
        let t0 = SimTime::from_micros(100);
        let unmapped = RdmaError::Mem(MemError::Unmapped(va + 3 * page));
        assert_eq!(rnic.rereg(b.rkey, t0), Err(unmapped.clone()));
        assert_eq!(rnic.rereg_batch(&[a.rkey, b.rkey], t0), Err(unmapped));
        assert_eq!(rnic.rereg_batch(&[a.rkey, 0xdead], t0), Err(RdmaError::InvalidKey(0xdead)));
        // No window opened, no translation moved, nothing counted.
        let mut buf = [0u8; 4];
        rnic.read(a.rkey, va, &mut buf, t0).unwrap();
        rnic.read(b.rkey, va + 2 * page, &mut buf, t0).unwrap();
        assert_eq!(rnic.mtt_lookup(va), Some(frames[0]));
        assert_eq!(rnic.mtt_lookup(va + 2 * page), Some(frames[2]));
        assert_eq!(rnic.stats.reregs.load(Ordering::Relaxed), 0);
        // The mapped region still re-registers.
        let cost = rnic.rereg(a.rkey, t0).unwrap();
        assert_eq!(rnic.mtt_lookup(va), Some(spare));
        assert_eq!(rnic.read(a.rkey, va, &mut buf, t0), Err(RdmaError::RegionBusy(a.rkey)));
        rnic.read(a.rkey, va, &mut buf, t0 + cost).unwrap();
    }

    #[test]
    fn region_table_follows_the_live_key_window() {
        // rkeys are never reissued: 20 K regions pass through a 600-region
        // window, and the table holds the window, not the history.
        const WINDOW: usize = 600;
        let (_aspace, rnic, va, _) = setup(1);
        assert_eq!(rnic.region_leaves(), 0);
        let mut live = std::collections::VecDeque::new();
        for i in 0..20_000u32 {
            let (mr, _) = rnic.register(va, 1, i % 2 == 0).unwrap();
            assert_eq!((mr.lkey, mr.rkey), (FIRST_KEY + 2 * i, FIRST_KEY + 2 * i + 1));
            live.push_back(mr);
            if live.len() > WINDOW {
                let old = live.pop_front().unwrap();
                rnic.deregister(old.rkey).unwrap();
                assert_eq!(rnic.deregister(old.rkey), Err(RdmaError::InvalidKey(old.rkey)));
            }
            assert!(rnic.region_leaves() <= WINDOW / corm_sim_mem::paged::LEAF_SLOTS + 2);
        }
        assert!(live.iter().all(|mr| rnic.region(mr.rkey) == Some(*mr)));
        // Keys that were never issued — below the first, an lkey, past the
        // last — and a retired one.
        for rkey in [0, FIRST_KEY - 1, live[0].lkey, live[0].rkey - 2, FIRST_KEY + 40_001, u32::MAX]
        {
            assert_eq!(rnic.region(rkey), None, "{rkey:#x}");
        }
    }

    #[test]
    fn odp_detects_remap_with_miss_cost_then_fast() {
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, true).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap();

        let mut buf = [0u8; 4];
        let first = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"new!", "ODP must see the fresh mapping");
        assert_eq!(first.odp_misses, 1);
        assert!(first.latency.as_micros_f64() > 60.0, "{}", first.latency);

        let second = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(second.odp_misses, 0);
        assert!(second.latency.as_micros_f64() < 4.0, "{}", second.latency);
    }

    #[test]
    fn odp_prefetch_avoids_miss() {
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, true).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap();

        let advise_cost = rnic.advise(mr.rkey, va, 1).unwrap();
        assert!((4.4..=4.7).contains(&advise_cost.as_micros_f64()));
        let mut buf = [0u8; 4];
        let out = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"new!");
        assert_eq!(out.odp_misses, 0, "prefetch must absorb the miss");
    }

    #[test]
    fn odp_requires_device_support() {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Rnic::new(
            aspace,
            RnicConfig { model: LatencyModel::connectx3(), ..RnicConfig::default() },
        );
        assert_eq!(rnic.register(va, 1, true).unwrap_err(), RdmaError::OdpUnsupported);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        assert_eq!(rnic.advise(mr.rkey, va, 1).unwrap_err(), RdmaError::OdpUnsupported);
    }

    #[test]
    fn dynamic_pin_fetches_pins_and_charges() {
        use corm_sim_mem::{Residency, TierConfig};
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm.clone()));
        let va = aspace.mmap(&frames).unwrap();
        let tier = Arc::new(FarTier::new(TierConfig::nvme()));
        let rnic = Rnic::new(
            aspace.clone(),
            RnicConfig { tier: Some(tier.clone()), dynamic_pin: true, ..RnicConfig::default() },
        );
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.write(va, b"tiered").unwrap();
        let mut buf = [0u8; 6];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(tier.stats().pin_faults, 0);

        tier.spill(&pm, frames[0], SimTime::ZERO).unwrap();
        let faulted = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"tiered", "fetch must restore the page byte-exactly");
        assert_eq!(tier.stats().pin_faults, 1);
        assert_eq!(
            faulted.latency,
            warm.latency + tier.config().fetch_cost() + tier.config().dynamic_pin
        );
        assert_eq!(pm.residency(frames[0]), Residency::Pinned);

        // Once pinned, the fault path is off again.
        let again = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(again.latency, warm.latency);
        assert_eq!(tier.stats().pin_faults, 1);
        assert_eq!(rnic.stats.tier_fetches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hard_miss_and_odp_degenerate_paths() {
        use corm_sim_mem::{Residency, TierConfig};
        // Pinned-only NIC (no dynamic pin, non-ODP region): a far page is a
        // hard miss — fetch plus the synchronous host fault charge — and
        // the host re-pins the page.
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm.clone()));
        let va = aspace.mmap(&frames).unwrap();
        let tier = Arc::new(FarTier::new(TierConfig::cxl()));
        let rnic = Rnic::new(
            aspace.clone(),
            RnicConfig { tier: Some(tier.clone()), ..RnicConfig::default() },
        );
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        tier.spill(&pm, frames[0], SimTime::ZERO).unwrap();
        let hard = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(
            hard.latency,
            warm.latency + tier.config().fetch_cost() + tier.config().hard_miss_extra
        );
        assert_eq!(tier.stats().pin_faults, 0);
        assert_eq!(pm.residency(frames[0]), Residency::Pinned);
        assert_eq!(tier.stats().hard_misses, 1);

        // ODP region: the far page degenerates to the existing lazy fault
        // (odp_miss charge) and stays unpinned afterwards.
        let pm2 = Arc::new(PhysicalMemory::new());
        let frames2 = pm2.alloc_n(1).unwrap();
        let aspace2 = Arc::new(AddressSpace::new(pm2.clone()));
        let va2 = aspace2.mmap(&frames2).unwrap();
        let tier2 = Arc::new(FarTier::new(TierConfig::cxl()));
        let rnic2 =
            Rnic::new(aspace2, RnicConfig { tier: Some(tier2.clone()), ..RnicConfig::default() });
        let (mr2, _) = rnic2.register(va2, 1, true).unwrap();
        rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        let warm2 = rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        tier2.spill(&pm2, frames2[0], SimTime::ZERO).unwrap();
        let lazy = rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        let odp_miss = rnic2.config.model.odp_miss.unwrap();
        assert_eq!(lazy.odp_misses, 1);
        assert_eq!(lazy.latency, warm2.latency + tier2.config().fetch_cost() + odp_miss);
        assert_eq!(pm2.residency(frames2[0]), Residency::Resident);
        // Resident-but-unpinned is free under ODP.
        let settled = rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(settled.latency, warm2.latency);
        assert_eq!(pm2.residency(frames2[0]), Residency::Resident);
    }

    #[test]
    fn cache_miss_then_hit_latency() {
        let (_aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        let cold = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(cold.latency > warm.latency);
    }

    #[test]
    fn deregister_invalidates_key() {
        let (_aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        rnic.deregister(mr.rkey).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO),
            Err(RdmaError::InvalidKey(mr.rkey))
        );
    }

    fn faulty_setup(cfg: FaultConfig) -> (Arc<AddressSpace>, Rnic, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic =
            Rnic::new(aspace.clone(), RnicConfig { faults: Some(cfg), ..RnicConfig::default() });
        (aspace, rnic, va)
    }

    #[test]
    fn scripted_faults_fail_delay_and_miss_verbs() {
        use crate::fault::{FaultKind, ScheduledFault};
        let (_aspace, rnic, va) = faulty_setup(FaultConfig::scripted(vec![
            ScheduledFault { at_op: 0, kind: FaultKind::QpBreak },
            ScheduledFault { at_op: 1, kind: FaultKind::Transient },
            ScheduledFault { at_op: 4, kind: FaultKind::DelaySpike },
            ScheduledFault { at_op: 6, kind: FaultKind::CacheMiss },
        ]));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        // op 0: QP break; op 1: transient fault.
        assert_eq!(rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO), Err(RdmaError::QpBroken));
        assert_eq!(rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO), Err(RdmaError::InjectedFault));
        // op 2 warms the cache, op 3 is the warm baseline, op 4 is delayed.
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let clean = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let spiked = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let spike = rnic.fault_injector().unwrap().delay_spike();
        assert_eq!(spiked.latency, clean.latency + spike);
        // op 5 warm again; op 6 is forced down the miss path.
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(warm.cache_hit);
        let missed = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(!missed.cache_hit, "forced miss must evict the translation");
        assert!(missed.latency > warm.latency);

        assert_eq!(
            rnic.fault_log(),
            vec![
                (0, FaultKind::QpBreak),
                (1, FaultKind::Transient),
                (4, FaultKind::DelaySpike),
                (6, FaultKind::CacheMiss)
            ]
        );
    }

    #[test]
    fn failed_verbs_do_not_count_as_served() {
        use crate::fault::{FaultKind, ScheduledFault};
        let (_aspace, rnic, va) = faulty_setup(FaultConfig::scripted(vec![ScheduledFault {
            at_op: 0,
            kind: FaultKind::Transient,
        }]));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        assert!(rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).is_err());
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(rnic.stats.reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn multi_unit_engine_shortens_batch_makespan() {
        // The same 8-WQE batch on a 2-unit NIC must finish strictly sooner
        // than on a 1-unit NIC: round-robin dispatch halves the per-unit
        // queueing.
        let makespan = |units: usize| {
            let pm = Arc::new(PhysicalMemory::new());
            let frames = pm.alloc_n(1).unwrap();
            let aspace = Arc::new(AddressSpace::new(pm));
            let va = aspace.mmap(&frames).unwrap();
            let rnic = Arc::new(Rnic::new(
                aspace,
                RnicConfig { processing_units: units, ..RnicConfig::default() },
            ));
            let (mr, _) = rnic.register(va, 1, false).unwrap();
            let qp = crate::QueuePair::connect(rnic.clone());
            let reqs: Vec<ReadReq> = (0..8u64).map(|i| ReadReq::new(i, mr.rkey, va, 64)).collect();
            let mut outs = vec![Vec::new(); 8];
            let mut results = Vec::new();
            qp.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
            assert_eq!(rnic.processing_units(), units);
            assert_eq!(rnic.engine_admitted(), 8);
            results.iter().map(|r| r.completed_at).max().unwrap()
        };
        let one = makespan(1);
        let two = makespan(2);
        assert!(two < one, "2 units {two} must beat 1 unit {one}");
    }

    #[test]
    fn concurrent_reads_across_shards_stay_correct() {
        use std::thread;
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(8).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        let (mr, _) = rnic.register(va, 8, false).unwrap();
        for p in 0..8u64 {
            aspace.write(va + p * PAGE_SIZE as u64, &[p as u8; 32]).unwrap();
        }
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let rnic = rnic.clone();
            threads.push(thread::spawn(move || {
                let mut buf = [0u8; 32];
                for i in 0..200u64 {
                    let page = (t * 2 + i) % 8;
                    rnic.read(mr.rkey, va + page * PAGE_SIZE as u64, &mut buf, SimTime::ZERO)
                        .unwrap();
                    assert_eq!(buf, [page as u8; 32]);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rnic.stats.reads.load(Ordering::Relaxed), 800);
    }

    /// Everything a doorbell's commit pass reads or writes, the order of
    /// every shard's recency list included.
    fn doorbell_visible_state(rnic: &Rnic, va: u64, pages: usize) -> impl PartialEq + fmt::Debug {
        let cached: Vec<bool> =
            (0..pages as u64).map(|p| rnic.mtt_cached(va + p * PAGE_SIZE as u64)).collect();
        let lru: Vec<Vec<u64>> = rnic.shards.iter().map(|shard| shard.lock().lru()).collect();
        (
            format!("{:?}", rnic.stats),
            rnic.cache_stats(),
            (cached, lru),
            (rnic.fault_log(), rnic.fault_injector().unwrap().ops()),
            (rnic.engine_admitted(), rnic.engine_busy()),
        )
    }

    #[test]
    fn resolve_pass_alone_changes_nothing_for_any_request_list() {
        use rand::Rng;
        const PAGES: usize = 24;
        let page = PAGE_SIZE as u64;
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(PAGES).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        // Two cached translations per shard of three pages, so the lists
        // are full, ordered and evicting; faults likely enough that a draw
        // by the pass would show.
        let faults = FaultConfig {
            seed: 16,
            delay_prob: 0.2,
            cache_miss_prob: 0.2,
            transient_prob: 0.05,
            ..FaultConfig::default()
        };
        let rnic = Arc::new(Rnic::new(
            aspace.clone(),
            RnicConfig { cache_entries: 16, faults: Some(faults), ..RnicConfig::default() },
        ));
        let (pinned, _) = rnic.register(va, 16, false).unwrap();
        let (odp, _) = rnic.register(va + 16 * page, 6, true).unwrap();
        let (retired, _) = rnic.register(va + 22 * page, 2, false).unwrap();
        rnic.deregister(retired.rkey).unwrap();
        // Behind the NIC's back: one ODP page gone from the page table,
        // one pinned page moved, so the MTT is stale on both.
        aspace.munmap(odp.base + 2 * page, 1).unwrap();
        aspace.remap(va + page, &[aspace.phys().alloc().unwrap()]).unwrap();

        let qp = crate::QueuePair::connect(rnic.clone());
        let mut rng = corm_sim_core::rng::stream_rng(16, 0);
        let mut outs = vec![Vec::new(); 40];
        let mut results = Vec::new();
        for round in 0..300u64 {
            let reqs: Vec<ReadReq> = (0..rng.gen_range(0..=40u64))
                .map(|k| {
                    let at = rng.gen_range(0..16 * page);
                    let (rkey, va, len) = match rng.gen_range(0..30u32) {
                        0 => (0xdead, va + at, 64),
                        1 => (pinned.lkey, va + at, 64),
                        2 => (retired.rkey, retired.base, 64),
                        // Unmapped: past every region, and an ODP page the
                        // page table no longer has.
                        3 => (pinned.rkey, va + PAGES as u64 * page + at, 64),
                        4 => (odp.rkey, odp.base + 2 * page + at % page, 8),
                        // Off the region's end, from inside it.
                        5 => (pinned.rkey, va + 16 * page - 5, 64),
                        6 => (pinned.rkey, va + at, 0),
                        // Page-crossing.
                        7 => (pinned.rkey, va + at / page * page + page - 9, 64),
                        // As many pages as there are shards, and more.
                        8 => (pinned.rkey, va + at % (4 * page), 8 * PAGE_SIZE + 1),
                        9 => (odp.rkey, odp.base + at % (2 * page), 16),
                        _ => (pinned.rkey, va + at.min(16 * page - 64), 64),
                    };
                    ReadReq::new(k, rkey, va, len)
                })
                .collect();

            let before = doorbell_visible_state(&rnic, va, PAGES);
            {
                let rt = rnic.regions.read();
                let dma = rnic.aspace.phys().dma();
                let held = rnic.lock_batch_shards(reqs.iter().map(|r| (r.va, r.len)));
                rnic.resolve(&rt, &dma, &held, &reqs);
            }
            assert_eq!(doorbell_visible_state(&rnic, va, PAGES), before, "round {round}");

            // Then the doorbell proper, so the next round finds the lists
            // reordered, pages evicted and the QP broken or not.
            qp.read_batch_into(&reqs, &mut outs, SimTime::from_micros(round), &mut results);
            qp.reconnect();
        }
        let (hits, misses) = rnic.cache_stats();
        assert!(hits > 200 && misses > 200, "both paths ran: {hits} hits, {misses} misses");
    }

    #[test]
    fn mtt_lookup_reflects_registration() {
        let (_aspace, rnic, va, frames) = setup(1);
        assert_eq!(rnic.mtt_lookup(va), None);
        let (_mr, _) = rnic.register(va, 1, false).unwrap();
        assert_eq!(rnic.mtt_lookup(va), Some(frames[0]));
    }
}
