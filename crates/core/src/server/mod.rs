//! The CoRM server node.
//!
//! A [`CormServer`] owns the whole §3 machinery: the two-level allocator
//! with per-worker thread allocators, the simulated RNIC the blocks are
//! registered with, the block directory (live blocks, post-compaction
//! aliases and the home counts that gate virtual-address reuse), and the
//! RPC handlers with transparent pointer correction. Compaction is
//! [`CormServer::compact_class`], reported as a [`CompactionReport`]; the
//! threaded execution mode is in [`threaded`].
//!
//! Every handler returns a [`Timed`] result carrying the *server-side*
//! virtual-time cost; clients add wire latency, and the event-driven
//! harness uses the same costs as queueing service times.

mod compaction;
pub(crate) mod lookahead;
pub mod registry;
pub mod threaded;
pub mod tiering;

pub use compaction::CompactionReport;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use corm_alloc::process::SharedBlock;
use corm_alloc::{
    AllocConfig, AllocError, Block, FragmentationReport, ProcessAllocator, SizeClasses,
    ThreadAllocator,
};
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::{
    AddressSpace, DmaSession, FarTier, FrameId, MemError, PageSpan, PhysicalMemory, Residency,
    TierConfig, PAGE_SIZE,
};
use corm_sim_rdma::{LatencyModel, MttUpdateStrategy, RdmaError, Rnic, RnicConfig};
use corm_trace::{Stage, TraceHandle, Track};

use crate::consistency::{self, ReadFailure};
use crate::header::{home_base, home_index, LockState, ObjectHeader, HEADER_BYTES};
use crate::ptr::GlobalPtr;
use crate::Timed;

use registry::BlockRegistry;
use tiering::TierDirector;

/// How many times an RPC handler re-attempts an object that is transiently
/// locked, torn, or mid-migration before giving up with
/// [`CormError::ObjectLocked`]. The lock window is bounded by one block
/// merge (microseconds of real time), so with a yield per late attempt this
/// budget is only exhausted if a lock leaks.
const RPC_BACKOFF_ATTEMPTS: usize = 100_000;

/// How a worker locates an object accessed through an indirect pointer
/// (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionStrategy {
    /// Forward the request to the thread owning the block, which answers
    /// from its ID→offset metadata table.
    ThreadMessaging,
    /// Scan the block's headers directly on the serving worker.
    BlockScan,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads (the paper's default is 8).
    pub workers: usize,
    /// Allocator configuration (block size, size classes, ID width).
    pub alloc: AllocConfig,
    /// Pointer-correction strategy for RPC accesses.
    pub correction: CorrectionStrategy,
    /// MTT-update strategy after compaction remaps (§3.5): one `rereg_mr`
    /// or `advise_mr` per remapped region, or none under plain ODP.
    pub mtt_strategy: MttUpdateStrategy,
    /// Per-class fragmentation ratio beyond which compaction triggers
    /// (§3.1.3).
    pub frag_threshold: f64,
    /// RNIC configuration (device model, translation-cache size).
    pub rnic: RnicConfig,
    /// Pause budget (virtual time) for pause-bounded compaction passes:
    /// after this much merge-phase time the pass yields so queued RPCs can
    /// interleave, then resumes. `None` runs each pass to completion.
    pub compaction_budget: Option<SimDuration>,
    /// The far tier's cost model: tiering is on iff this is `Some`. The
    /// server then attaches the tier to its RNIC and runs a pin-budget
    /// manager whose budget starts unbounded; [`CormServer::set_pin_budget`]
    /// sizes it and [`CormServer::enforce_pin_budget`], invoked from the
    /// same maintenance context that drives compaction, spills cold blocks
    /// down to it. `None` (the default) disables tiering entirely —
    /// residency is never consulted and seeded replays are byte-identical
    /// to pre-tiering builds.
    pub tier: Option<TierConfig>,
    /// Root seed for object-ID generation.
    pub seed: u64,
    /// Trace recorder for the node. Disabled by default; recording is
    /// purely observational (zero virtual-time cost, zero RNG draws), so
    /// enabling it cannot perturb seeded replays. Propagated into the
    /// RNIC's config unless that config carries its own handle.
    pub trace: TraceHandle,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            alloc: AllocConfig::default(),
            correction: CorrectionStrategy::ThreadMessaging,
            mtt_strategy: MttUpdateStrategy::OdpPrefetch,
            frag_threshold: 1.5,
            rnic: RnicConfig::default(),
            compaction_budget: None,
            tier: None,
            seed: 0xC0_4D,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Errors surfaced by server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CormError {
    /// Allocation failed.
    Alloc(AllocError),
    /// RDMA verb failed.
    Rdma(RdmaError),
    /// Simulated memory failed.
    Mem(MemError),
    /// The pointer's block is unknown (likely a released vaddr).
    UnknownBlock(u64),
    /// The pointer's offset is not slot-aligned for the block's class.
    BadPointer,
    /// The object was not found (freed, or the pointer is stale).
    ObjectNotFound,
    /// The object is transiently locked or being written; retry after a
    /// backoff.
    ObjectLocked,
    /// The payload exceeds every size class.
    PayloadTooLarge(usize),
}

impl std::fmt::Display for CormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CormError::Alloc(e) => write!(f, "alloc: {e}"),
            CormError::Rdma(e) => write!(f, "rdma: {e}"),
            CormError::Mem(e) => write!(f, "mem: {e}"),
            CormError::UnknownBlock(b) => write!(f, "unknown block {b:#x}"),
            CormError::BadPointer => write!(f, "malformed pointer"),
            CormError::ObjectNotFound => write!(f, "object not found"),
            CormError::ObjectLocked => write!(f, "object transiently locked; retry"),
            CormError::PayloadTooLarge(n) => write!(f, "payload too large: {n}"),
        }
    }
}

impl std::error::Error for CormError {}

impl From<AllocError> for CormError {
    fn from(e: AllocError) -> Self {
        CormError::Alloc(e)
    }
}
impl From<RdmaError> for CormError {
    fn from(e: RdmaError) -> Self {
        CormError::Rdma(e)
    }
}
impl From<MemError> for CormError {
    fn from(e: MemError) -> Self {
        CormError::Mem(e)
    }
}

/// Lifetime counters, readable at any point.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Successful Alloc calls.
    pub allocs: AtomicU64,
    /// Successful Free calls.
    pub frees: AtomicU64,
    /// RPC reads served.
    pub reads: AtomicU64,
    /// RPC writes served.
    pub writes: AtomicU64,
    /// Pointer corrections performed (indirect accesses).
    pub corrections: AtomicU64,
    /// Thread-local allocator refills.
    pub refills: AtomicU64,
    /// Compaction passes run.
    pub(crate) compactions: AtomicU64,
    /// Blocks freed by compaction.
    pub compaction_blocks_freed: AtomicU64,
    /// Total objects copied between blocks by compaction, offset-preserving
    /// copies included. Matches `CompactionReport::objects_copied` summed
    /// over passes.
    pub objects_copied: AtomicU64,
    /// Virtual addresses released for reuse.
    pub vaddrs_released: AtomicU64,
    /// RPC operations that found an object transiently locked, torn, or
    /// mid-migration and backed off for a retry (§3.2.3).
    pub rpc_lock_retries: AtomicU64,
}

pub(crate) struct WorkerState {
    pub alloc: ThreadAllocator,
    pub rng: DetRng,
}

thread_local! {
    /// The handlers' slot-image scratch. Every use rebuilds or overwrites
    /// the whole image first, so recycling the buffer is invisible.
    static SLOT_IMAGE: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The address and pages of `slot` in the locked block `b`, translated
/// through the block's own frame list — which the held block lock keeps in
/// sync with the page table — instead of a page-table walk per access.
fn slot_span(b: &Block, slot: u32) -> Result<(u64, PageSpan<'_>), CormError> {
    let vaddr = b.slot_vaddr(slot);
    PageSpan::from_frames(vaddr, b.obj_size(), b.vaddr(), b.frames())
        .map(|span| (vaddr, span))
        .ok_or(CormError::BadPointer)
}

/// The pages of a whole locked block mapped at `base`, translated the same
/// way: a merge touches every live slot of two blocks and builds one span
/// each.
fn block_span(base: u64, frames: &[FrameId]) -> Result<PageSpan<'_>, CormError> {
    PageSpan::from_frames(base, frames.len() * PAGE_SIZE, base, frames).ok_or(CormError::BadPointer)
}

/// A live object's slot, as a mutating handler finds it under its block's
/// lock ([`CormServer::live_slot`]): the slot's address and pages, the DMA
/// session that read its header, and that header.
struct LiveSlot<'b, 'm> {
    vaddr: u64,
    span: PageSpan<'b>,
    dma: DmaSession<'m>,
    header: ObjectHeader,
}

/// A CoRM node: allocator, RNIC, registry, and RPC handlers.
pub struct CormServer {
    config: ServerConfig,
    phys: Arc<PhysicalMemory>,
    aspace: Arc<AddressSpace>,
    rnic: Arc<Rnic>,
    proc: ProcessAllocator,
    pub(crate) workers: Vec<Mutex<WorkerState>>,
    pub(crate) registry: BlockRegistry,
    /// Pin-budget manager, present iff `ServerConfig::tier`.
    pub(crate) tiering: Option<TierDirector>,
    /// Lifetime counters.
    pub stats: ServerStats,
}

impl std::fmt::Debug for CormServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CormServer")
            .field("workers", &self.config.workers)
            .field("blocks", &self.registry.len())
            .finish()
    }
}

impl CormServer {
    /// Boots a server over fresh simulated memory.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_memory(Arc::new(PhysicalMemory::new()), config)
    }

    /// Boots a server over the given physical memory (e.g. capacity-capped
    /// to exercise the allocation-failure compaction trigger).
    pub fn with_memory(phys: Arc<PhysicalMemory>, config: ServerConfig) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(config.alloc.id_bits <= 16, "the data-plane header stores 16-bit object IDs");
        let aspace = Arc::new(AddressSpace::new(phys.clone()));
        // One recorder per node: the server's handle flows into the RNIC
        // so NIC-side spans land in the same sink, unless the RNIC config
        // was given its own recorder explicitly.
        let mut rnic_config = config.rnic.clone();
        if !rnic_config.trace.is_enabled() {
            rnic_config.trace = config.trace.clone();
        }
        // The director and the RNIC share one tier instance so NIC-side
        // fetches and server-side spills contend for the same virtual-time
        // channels.
        let tiering =
            config.tier.clone().map(|tier| TierDirector::new(Arc::new(FarTier::new(tier))));
        rnic_config.tier = tiering.as_ref().map(|t| t.tier().clone());
        let rnic = Arc::new(Rnic::new(aspace.clone(), rnic_config));
        if config.mtt_strategy.needs_odp() {
            assert!(rnic.model().odp_miss.is_some(), "ODP strategy requires an ODP-capable device");
        }
        let proc = ProcessAllocator::new(phys.clone(), aspace.clone(), config.alloc.clone());
        let n_classes = config.alloc.classes.len();
        let workers = (0..config.workers)
            .map(|w| {
                Mutex::new(WorkerState {
                    alloc: ThreadAllocator::new(w as u16, n_classes),
                    rng: stream_rng(config.seed, w as u64),
                })
            })
            .collect();
        CormServer {
            config,
            phys,
            aspace,
            rnic,
            proc,
            workers,
            registry: BlockRegistry::new(),
            tiering,
            stats: ServerStats::default(),
        }
    }

    /// The server's RNIC (clients connect QPs to it).
    pub fn rnic(&self) -> &Arc<Rnic> {
        &self.rnic
    }

    /// The node's trace recorder (disabled unless the config enabled it).
    pub fn trace(&self) -> &TraceHandle {
        &self.config.trace
    }

    /// The node's address space.
    pub fn aspace(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// Number of alias entries currently in the block registry (bases
    /// whose physical block was consumed by compaction).
    pub fn alias_count(&self) -> usize {
        self.registry.alias_count()
    }

    /// The node's physical memory.
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    /// The pin-budget manager, when tiering is enabled.
    pub fn tiering(&self) -> Option<&TierDirector> {
        self.tiering.as_ref()
    }

    /// Frames owned by live blocks as `(total, dram_resident)` — the
    /// logical footprint the pin budget is enforced against (benches size
    /// the budget as a fraction of the total). File frames never handed
    /// to a block are excluded on both sides.
    pub fn block_frames(&self) -> (u64, u64) {
        let mut total = 0u64;
        let mut in_dram = 0u64;
        for b in self.registry.live_blocks() {
            let g = b.lock();
            for &f in g.frames() {
                total += 1;
                if self.phys.residency(f) != Residency::Far {
                    in_dram += 1;
                }
            }
        }
        (total, in_dram)
    }

    /// Adjusts the pin budget at runtime (benches size it after populating,
    /// once the logical footprint is known). Returns `false` when tiering
    /// is disabled.
    pub fn set_pin_budget(&self, frames: usize) -> bool {
        match &self.tiering {
            Some(t) => {
                t.set_budget(frames);
                true
            }
            None => false,
        }
    }

    /// Feeds one access into the block-heat counters — the hook for
    /// one-sided traffic, which bypasses the RPC handlers that feed heat
    /// implicitly. Models the host's access-sampling daemon (NP-RDMA's
    /// host agent sees every dynamic-pin fault and samples the rest).
    /// No-op without tiering.
    pub fn note_access(&self, ptr: &GlobalPtr) {
        if let Some(t) = &self.tiering {
            t.touch(ptr.block_base(self.block_bytes()));
        }
    }

    /// Fetches any far frames of the locked block `b` back into DRAM so
    /// CPU-side access (header reads, scatter/gather, compaction copies)
    /// sees real bytes instead of spill poison. Returns the virtual-time
    /// fetch cost, which the caller charges into its RPC/merge total. Zero
    /// without tiering.
    fn ensure_resident(&self, b: &Block) -> Result<SimDuration, CormError> {
        let Some(t) = &self.tiering else {
            return Ok(SimDuration::ZERO);
        };
        let mut cost = SimDuration::ZERO;
        let dma = self.phys.dma();
        for &f in b.frames() {
            if dma.residency(f) == Some(Residency::Far) {
                cost += t.tier().fetch_untimed(&dma, f).map_err(CormError::Mem)?;
            }
        }
        if cost > SimDuration::ZERO {
            self.config.trace.sample(Stage::TierFetch, cost);
        }
        Ok(cost)
    }

    /// Enforces the pin budget: while more than `budget` frames sit in
    /// DRAM, the coldest live block — ranked by `(heat, base)` ascending,
    /// so seeded replays evict in identical order — is spilled whole to
    /// the far tier. Each pass ends with a heat decay (LRU aging).
    ///
    /// Runs from the same maintenance context as compaction (never
    /// concurrently with a pass: eviction poisons DRAM copies, and a
    /// mid-merge source must not lose its bytes). Returns the number of
    /// blocks evicted; the cost is the virtual time until the last spill
    /// transfer completes, counted from `now`.
    pub fn enforce_pin_budget(&self, now: SimTime) -> Result<Timed<usize>, CormError> {
        let Some(t) = &self.tiering else {
            return Ok(Timed::new(0, SimDuration::ZERO));
        };
        let budget = t.budget() as u64;
        let trace = &self.config.trace;
        // Budget accounting covers frames owned by live blocks only — file
        // frames never handed to a block carry no data and would not be
        // faulted in on a real host, so they are not chargeable.
        let mut in_dram = 0u64;
        let mut ranked: Vec<(u64, u64, SharedBlock)> = self
            .registry
            .live_blocks()
            .into_iter()
            .map(|b| {
                let (base, resident) = {
                    let g = b.lock();
                    let resident = g
                        .frames()
                        .iter()
                        .filter(|&&f| self.phys.residency(f) != Residency::Far)
                        .count() as u64;
                    (g.vaddr(), resident)
                };
                in_dram += resident;
                (t.heat_of(base), base, b)
            })
            .collect();
        if in_dram <= budget {
            t.decay();
            return Ok(Timed::new(0, SimDuration::ZERO));
        }
        ranked.sort_by_key(|&(heat, base, _)| (heat, base));
        let mut evicted = 0usize;
        let mut cost = SimDuration::ZERO;
        for (_, base, block) in ranked {
            if in_dram <= budget {
                break;
            }
            let b = block.lock();
            let dma = self.phys.dma();
            let mut block_cost = SimDuration::ZERO;
            let mut spilled = 0u64;
            for &f in b.frames() {
                if dma.residency(f) == Some(Residency::Far) {
                    continue;
                }
                let d = t.tier().spill(&dma, f, now).map_err(CormError::Mem)?;
                block_cost = block_cost.max(d);
                spilled += 1;
            }
            drop(dma);
            drop(b);
            if spilled > 0 {
                in_dram -= spilled;
                evicted += 1;
                t.note_eviction(base);
                trace.add(Stage::TierSpill, spilled);
                trace.span(Track::Compaction, Stage::Evict, 0, now, block_cost);
                // Spills queue on shared tier channels; the pass completes
                // when the slowest transfer does.
                cost = cost.max(block_cost);
            }
        }
        t.decay();
        Ok(Timed::new(evicted, cost))
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The latency model in force.
    pub fn model(&self) -> &LatencyModel {
        self.rnic.model()
    }

    /// The size-class table.
    pub fn classes(&self) -> &SizeClasses {
        &self.config.alloc.classes
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.config.alloc.block_bytes
    }

    /// Bytes currently held in blocks (the paper's "active memory").
    pub fn active_bytes(&self) -> u64 {
        self.proc.active_bytes()
    }

    /// Process-wide allocator (diagnostics).
    pub fn process_allocator(&self) -> &ProcessAllocator {
        &self.proc
    }

    /// Per-class fragmentation snapshot (§3.1.3). Takes the live blocks'
    /// locks one at a time, so it can run beside a compaction pass.
    pub fn fragmentation_report(&self) -> FragmentationReport {
        let blocks = self.registry.live_blocks();
        FragmentationReport::from_blocks(blocks.iter().map(|b| b.lock()), self.block_bytes())
    }

    fn mmap_base(&self) -> u64 {
        AddressSpace::MMAP_BASE
    }

    // ------------------------------------------------------------------
    // RPC handlers
    // ------------------------------------------------------------------

    /// Allocates an object of `payload_len` bytes on behalf of a client,
    /// served by `worker`. Returns the 128-bit pointer.
    pub fn alloc(&self, worker: usize, payload_len: usize) -> Result<Timed<GlobalPtr>, CormError> {
        let class = consistency::class_for_payload(self.classes(), payload_len)
            .ok_or(CormError::PayloadTooLarge(payload_len))?;
        let model = self.model();
        let mut cost = model.alloc_free_extra;

        // The worker stays locked until the object is stamped and counted.
        // The compaction leader and the release of emptied blocks take
        // blocks out of a bin under this lock, so neither can merge the
        // block away, or release its vaddr as unhomed, in between.
        let mut w = self.workers[worker].lock();
        let WorkerState { alloc, rng } = &mut *w;
        let out = alloc.alloc(class, &self.proc, rng)?;
        let mut b = out.block.lock();
        let base = b.vaddr();
        if out.refilled {
            // Fresh block: register with the RNIC and publish it.
            let odp = self.config.mtt_strategy.needs_odp();
            let (mr, _reg_cost) = self.rnic.register(base, b.pages(), odp)?;
            b.set_keys(mr.lkey, mr.rkey);
            self.registry.insert_block(base, out.block.clone());
            // §4.1: the +5 µs refill penalty covers both fetching the block
            // and registering its memory on the RNIC.
            cost += model.block_refill_extra;
            self.stats.refills.fetch_add(1, Ordering::Relaxed);
        }
        // A recycled slot may sit in a spilled block; the header stamp
        // below must land on real bytes, and the fresh allocation makes
        // the block hot by definition.
        cost += self.ensure_resident(&b)?;
        if let Some(t) = &self.tiering {
            t.touch(base);
        }
        // Stamp the slot: header + version bytes over the whole slot so
        // lock-free readers of a never-written object still validate.
        let home = home_index(base, self.mmap_base(), self.block_bytes());
        let header = ObjectHeader::new(out.id as u16, 1, home);
        let (slot_vaddr, span) = slot_span(&b, out.slot)?;
        SLOT_IMAGE.with(|cell| {
            let mut image = cell.borrow_mut();
            consistency::scatter_into(header, &[], b.obj_size(), &mut image);
            span.write(&self.phys.dma(), slot_vaddr, &image)
        })?;
        let rkey = b.rkey().expect("registered above or earlier");
        self.registry.home_inc(base);
        drop((b, w));
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);

        Ok(Timed::new(
            GlobalPtr {
                vaddr: slot_vaddr,
                rkey,
                obj_id: out.id as u16,
                class: class.0 as u8,
                flags: 0,
            },
            cost,
        ))
    }

    /// The live block a pointer's base resolves to: the block mapped there
    /// or, for an alias, the block it was merged into.
    fn resolve(&self, ptr: &GlobalPtr) -> Result<SharedBlock, CormError> {
        let base = ptr.block_base(self.block_bytes());
        // Registry resolution is host work with no virtual-time charge.
        // Counting it (rather than wall-timing it) keeps this — the hottest
        // server-side call — at one relaxed fetch_add when tracing.
        self.config.trace.count(Stage::RegistryResolve);
        self.registry.resolve(base).ok_or(CormError::UnknownBlock(base))
    }

    /// The one retry protocol of the RPC handlers (§3.2.3). Each attempt
    /// walks the chain a [`crate::Lookahead`] prefetches, in its order:
    ///
    /// 1. resolve the pointer's base and lock the live block it maps to. A
    ///    block the compaction leader retired in between — merged away, so
    ///    its base now resolves to the destination holding its objects —
    ///    is unlocked and backed off, and the next attempt resolves again;
    /// 2. find the object's slot: the pointer's own, or, when that slot
    ///    holds another ID, the slot of the object's ID (§3.2.1), to which
    ///    the pointer is corrected in place. The correction's cost and any
    ///    far-tier fetch are summed over the attempts;
    /// 3. run `action` on the locked block, the slot and the object's ID.
    ///    `Ok(None)` means the slot is write-locked, `CompactionLocked`,
    ///    torn, or holds another ID because its image lags the block
    ///    metadata until a merge's remap lands: the block is unlocked and
    ///    backed off, and the next attempt starts again at 1.
    ///
    /// `Ok(Some(value))` returns the value, the summed cost and the
    /// resolved block, unlocked. An error — an unknown block, a pointer off
    /// the slot grid, an ID in no slot, an invalid slot — ends the call at
    /// once. Every condition that backs off clears when a writer unlocks or
    /// a merge's remap lands; one that outlasts [`RPC_BACKOFF_ATTEMPTS`]
    /// attempts surfaces as [`CormError::ObjectLocked`], which callers tell
    /// apart from a deletion.
    fn with_object<T>(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
        mut action: impl FnMut(&mut Block, u32, u16) -> Result<Option<T>, CormError>,
    ) -> Result<(T, SimDuration, SharedBlock), CormError> {
        let block_bytes = self.block_bytes();
        let mut cost = SimDuration::ZERO;
        for attempt in 0..RPC_BACKOFF_ATTEMPTS {
            let block = self.resolve(ptr)?;
            let mut b = block.lock();
            if !b.is_retired() {
                // Heat feeds off the *resolved* block (not the pointer's
                // possibly aliased base), so eviction ranks live blocks by
                // real traffic.
                if let Some(t) = &self.tiering {
                    t.touch(b.vaddr());
                }
                let offset = ptr.block_offset(block_bytes);
                let mut slot = b.slot_of_offset(offset).ok_or(CormError::BadPointer)?;
                if b.id_at_slot(slot) != Some(ptr.obj_id as u32) {
                    let model = self.model();
                    cost += match self.config.correction {
                        // Round trip to the owning thread, which answers
                        // from its metadata table.
                        CorrectionStrategy::ThreadMessaging if b.owner() as usize != worker => {
                            model.collection_pair
                        }
                        CorrectionStrategy::ThreadMessaging => SimDuration::ZERO,
                        CorrectionStrategy::BlockScan => model.scan_cost(b.slots()),
                    };
                    slot = b.slot_of_id(ptr.obj_id as u32).ok_or(CormError::ObjectNotFound)?;
                    ptr.correct_offset(block_bytes, b.slot_offset(slot));
                    self.stats.corrections.fetch_add(1, Ordering::Relaxed);
                }
                cost += self.ensure_resident(&b)?;
                if let Some(value) = action(&mut b, slot, ptr.obj_id)? {
                    drop(b);
                    return Ok((value, cost, block));
                }
            }
            drop(b);
            // Cheap spin first, then yield so the writer or compaction
            // leader being raced gets scheduled.
            self.stats.rpc_lock_retries.fetch_add(1, Ordering::Relaxed);
            self.config.trace.count(Stage::LockRetry);
            if attempt >= 16 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        Err(CormError::ObjectLocked)
    }

    /// Reads the header of the slot a mutating handler is about to touch.
    /// `Ok(None)` is a slot [`Self::with_object`] backs off from — locked,
    /// or its image lags the block metadata until the remap lands; an
    /// invalid slot is `ObjectNotFound`.
    fn live_slot<'b>(
        &self,
        b: &'b Block,
        slot: u32,
        obj_id: u16,
    ) -> Result<Option<LiveSlot<'b, '_>>, CormError> {
        let (vaddr, span) = slot_span(b, slot)?;
        let dma = self.phys.dma();
        let mut bytes = [0u8; HEADER_BYTES];
        span.read(&dma, vaddr, &mut bytes)?;
        let header = ObjectHeader::from_bytes(bytes);
        if !header.valid {
            return Err(CormError::ObjectNotFound);
        }
        let live = header.obj_id == obj_id && header.readable();
        Ok(live.then_some(LiveSlot { vaddr, span, dma, header }))
    }

    /// RPC read (Table 2 `Read`): copies up to `buf.len()` object bytes
    /// into `buf`; returns the bytes read. Corrects the pointer in place.
    /// A slot a writer or the compaction leader holds is retried as
    /// `with_object` states; only an invalid slot is `ObjectNotFound`.
    pub fn read(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
    ) -> Result<Timed<usize>, CormError> {
        let (n, cost, _) = self.with_object(worker, ptr, |b, slot, obj_id| {
            // The slot image lands in the per-thread scratch buffer and
            // payload bytes are gathered straight into `buf`: the hot read
            // path allocates nothing after warm-up.
            let gathered = SLOT_IMAGE.with(|cell| {
                let mut image = cell.borrow_mut();
                image.resize(b.obj_size(), 0);
                let (slot_vaddr, span) = slot_span(b, slot)?;
                span.read(&self.phys.dma(), slot_vaddr, &mut image)?;
                Ok::<_, CormError>(consistency::gather_into(&image, Some(obj_id), buf))
            })?;
            match gathered {
                Ok((_, n)) => Ok(Some(n)),
                Err(ReadFailure::NotValid) => Err(CormError::ObjectNotFound),
                Err(
                    ReadFailure::Locked | ReadFailure::TornRead | ReadFailure::IdMismatch { .. },
                ) => Ok(None),
            }
        })?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let model = self.model();
        Ok(Timed::new(n, model.rpc_worker_service + model.copy_cost(n) + cost))
    }

    /// Batched RPC read (multi-get): one request carries many pointers, so
    /// the wire/ingress overhead is paid once by the caller while each
    /// entry still pays the per-object handler work. Outcomes are
    /// per-entry, one per pointer into the caller's `outcomes` — one
    /// relocated-and-freed or contended object does not poison the rest of
    /// the batch, which is what lets the client repair only its failed
    /// entries. Pointers are corrected in place; the cost returned is the
    /// summed handler time of the entries that produced an outcome.
    pub(crate) fn read_many(
        &self,
        worker: usize,
        ptrs: &mut [GlobalPtr],
        bufs: &mut [Vec<u8>],
        outcomes: &mut Vec<Result<usize, CormError>>,
    ) -> SimDuration {
        assert_eq!(ptrs.len(), bufs.len(), "one buffer per pointer");
        outcomes.clear();
        let mut cost = SimDuration::ZERO;
        for (ptr, buf) in ptrs.iter_mut().zip(bufs.iter_mut()) {
            outcomes.push(self.read(worker, ptr, buf).map(|t| {
                cost += t.cost;
                t.value
            }));
        }
        cost
    }

    /// RPC write (Table 2 `Write`): replaces the object's contents with
    /// `data`. Bumps the version; lock-free readers racing this write see
    /// mismatched cacheline versions and retry.
    ///
    /// If the slot is `CompactionLocked` — the leader is mid-migration and
    /// the copy already happened or is about to — writing through would
    /// both corrupt the migration marker and lose the update once the
    /// remap lands, so the write backs off (`with_object`); after the
    /// remap it finds the object at its new block and applies there.
    pub fn write(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
        data: &[u8],
    ) -> Result<Timed<()>, CormError> {
        let ((), cost, _) = self.with_object(worker, ptr, |b, slot, obj_id| {
            let slot_bytes = b.obj_size();
            if data.len() > consistency::layout(slot_bytes).capacity {
                return Err(CormError::PayloadTooLarge(data.len()));
            }
            // One pinned DMA session for the whole operation: the header
            // read and the three ordered writes below cost zero
            // translations and zero extra lock acquisitions.
            let Some(LiveSlot { vaddr, span, dma, header }) = self.live_slot(b, slot, obj_id)?
            else {
                return Ok(None);
            };
            // 1) lock, 2) body with new version, 3) unlocked header. The
            // intermediate states are what concurrent DirectReads can
            // observe — the lock must land as its own store *before* the
            // payload image is even assembled, so the locked window spans
            // the whole update the way the paper's protocol intends
            // (tests/races.rs asserts real-thread readers catch it).
            let locked = header.with_lock(LockState::WriteLocked);
            span.write(&dma, vaddr, &locked.to_bytes())?;
            let new_header = header.bump_version();
            SLOT_IMAGE.with(|cell| {
                let mut image = cell.borrow_mut();
                consistency::scatter_into(new_header, data, slot_bytes, &mut image);
                span.write(&dma, vaddr + HEADER_BYTES as u64, &image[HEADER_BYTES..])
            })?;
            span.write(&dma, vaddr, &new_header.to_bytes())?;
            Ok(Some(()))
        })?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        let model = self.model();
        Ok(Timed::new((), model.rpc_worker_service + model.copy_cost(data.len()) + cost))
    }

    /// RPC free (Table 2 `Free`): releases the object and updates the
    /// home-vaddr accounting (§3.3). Mid-migration it backs off
    /// (`with_object`): freeing the source copy would leave the migrated
    /// copy alive, so it frees the object at its new home once the remap
    /// lands.
    pub fn free(&self, worker: usize, ptr: &mut GlobalPtr) -> Result<Timed<()>, CormError> {
        let ((block_empty, live_base), cost, block) =
            self.with_object(worker, ptr, |b, slot, obj_id| {
                let Some(LiveSlot { vaddr, span, dma, header }) =
                    self.live_slot(b, slot, obj_id)?
                else {
                    return Ok(None);
                };
                span.write(&dma, vaddr, &header.invalidated().to_bytes())?;
                drop(dma);
                b.free_slot(slot);
                // The home is counted down, and an alias that this leaves
                // homing nothing is released, under the block lock like the
                // slot itself: whoever finds the block empty finds its
                // objects' homes settled too, and a merge of this block,
                // which needs this lock, finds each alias of it gone or
                // still homing something.
                let home_addr = home_base(header.home_block, self.mmap_base(), self.block_bytes());
                if self.registry.home_dec(home_addr) == 0 {
                    self.try_release_vaddr(home_addr);
                }
                Ok(Some((b.is_empty(), b.vaddr())))
            })?;
        if block_empty {
            self.try_release_empty_block(&block, live_base);
        }
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
        Ok(Timed::new((), self.model().alloc_free_extra + cost))
    }

    /// RPC ReleasePtr (Table 2): the client has corrected all copies of an
    /// old pointer; re-home the object at its current block so the old
    /// virtual address can be reused (§3.3). Returns the fresh pointer.
    /// Mid-migration it backs off (`with_object`): re-homing then would
    /// stamp a home index the remap is about to invalidate.
    pub fn release_ptr(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
    ) -> Result<Timed<GlobalPtr>, CormError> {
        let old_base = ptr.block_base(self.block_bytes());
        let ((vaddr, rkey), cost, _) = self.with_object(worker, ptr, |b, slot, obj_id| {
            let Some(LiveSlot { vaddr, span, dma, mut header }) =
                self.live_slot(b, slot, obj_id)?
            else {
                return Ok(None);
            };
            let new_base = b.vaddr();
            header.home_block = home_index(new_base, self.mmap_base(), self.block_bytes());
            span.write(&dma, vaddr, &header.to_bytes())?;
            let rkey = b.rkey().expect("live block is registered");
            drop(dma);
            // Under the block lock, for the reasons `free` gives.
            if new_base != old_base {
                self.registry.home_inc(new_base);
                if self.registry.home_dec(old_base) == 0 {
                    self.try_release_vaddr(old_base);
                }
            }
            Ok(Some((vaddr, rkey)))
        })?;
        let new_ptr = GlobalPtr { vaddr, rkey, obj_id: ptr.obj_id, class: ptr.class, flags: 0 };
        Ok(Timed::new(new_ptr, self.model().release_ptr_extra + cost))
    }

    // ------------------------------------------------------------------
    // vaddr + block lifecycle
    // ------------------------------------------------------------------

    /// Releases the vaddr of an alias (a base whose physical block was
    /// compacted away) that homes no live object; does nothing for any
    /// other base. Live blocks are handled by
    /// [`Self::try_release_empty_block`].
    pub(crate) fn try_release_vaddr(&self, base: u64) {
        let Some(info) = self.registry.take_unhomed_alias(base) else {
            return;
        };
        // The alias region is gone for good: deregister its keys and unmap
        // its pages, making the vaddr reusable (§3.3).
        let _ = self.rnic.deregister(info.rkey);
        self.aspace.munmap(base, info.pages).expect("alias vaddr must be mapped");
        self.stats.vaddrs_released.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases an emptied live block: pulls it from its owner's bin,
    /// deregisters it, unmaps its vaddr (no object can be homed there once
    /// it is empty — moved-out objects only exist in alias blocks), and
    /// recycles its physical pages.
    pub(crate) fn try_release_empty_block(&self, block: &SharedBlock, base: u64) {
        // Re-check emptiness under the owner lock to avoid racing an alloc.
        let (owner, class) = {
            let b = block.lock();
            if !b.is_empty() {
                return;
            }
            (b.owner() as usize, b.class())
        };
        let mut w = self.workers[owner].lock();
        {
            let b = block.lock();
            if !b.is_empty() {
                return;
            }
        }
        if !w.alloc.remove_block(class, block) {
            return; // someone else released it first
        }
        drop(w);
        self.registry.remove_live(base);
        if let Some(t) = &self.tiering {
            t.forget(base);
        }
        let b = block.lock();
        if let Some((_, rkey)) = b.keys() {
            let _ = self.rnic.deregister(rkey);
        }
        let pages = b.pages();
        let (file, page) = b.phys_identity();
        let frames = b.frames().to_vec();
        drop(b);
        self.aspace.munmap(base, pages).expect("block vaddr mapped");
        self.proc.release_block_phys(file, page, frames);
    }
}
