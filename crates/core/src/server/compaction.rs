//! The compaction leader (§3.1.2–§3.1.4, §3.5).
//!
//! Compaction runs in two stages. **Collection**: the leader asks every
//! worker for its low-occupancy blocks of the target class — an ownership
//! transfer, so no concurrent data structures are needed. **Compaction**:
//! the greedy pairing (least-utilized sources into the most-utilized
//! compatible destinations) is planned up front by [`plan_merges`] into
//! one ordered list of merges, then executed merge by merge; objects are
//! locked, copied — preserving their offsets when possible, relocating on
//! conflicts (§3.1.2) — and then the source block's virtual address is
//! *remapped* onto the destination's physical frames. The RNIC's MTT is
//! brought back in sync per the configured §3.5 strategy — one verb per
//! remap target, as `ibv_rereg_mr` takes one region — preserving the
//! `r_key` clients hold, and the source's physical pages are returned to
//! the process-wide allocator.
//!
//! One leader thread runs the merges back to back in plan order on one
//! virtual clock, so the merge phase costs the sum of its merges. A
//! `compaction_budget` bounds how long the pass runs between yields: at
//! each yield the caller (e.g. [`super::threaded`]) interleaves queued
//! RPCs, and the pass resumes — so serving latency during compaction is
//! bounded by the budget instead of the whole pass.
//!
//! The net effect, visible to clients: every pointer they hold still
//! resolves (possibly via pointer correction), RDMA access never breaks
//! (except transiently under the `rereg_mr` strategy, exactly as the paper
//! observes), and physical memory shrinks.

use std::sync::atomic::Ordering;

use corm_alloc::process::SharedBlock;
use corm_alloc::ClassId;
use corm_compact::{greedy_pass, GreedyPass};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::MttUpdateStrategy;
use corm_trace::{Stage, Track};

use crate::header::{LockState, ObjectHeader, HEADER_BYTES};

use super::{block_span, CormError, CormServer};

/// Occupancy above which a block is not collected for compaction.
const COLLECT_MAX_OCCUPANCY: f64 = 0.9;

/// Outcome of one compaction pass over a size class.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// The class compacted.
    pub class: ClassId,
    /// Blocks gathered in the collection stage.
    pub collected: usize,
    /// Source blocks merged away. Each merge returns exactly its source's
    /// physical frames to the process-wide allocator, so this is also the
    /// count of blocks freed.
    pub merges: usize,
    /// Objects whose offset changed (their pointers became indirect).
    pub objects_relocated: usize,
    /// Total objects copied between blocks.
    pub objects_copied: usize,
    /// Virtual time spent in the collection stage.
    pub collection_cost: SimDuration,
    /// Virtual time of the merge phase: the sum of its merges, run back to
    /// back.
    pub compaction_cost: SimDuration,
    /// Times the pass yielded to interleave queued RPCs (pause-bounded
    /// passes only; 0 without a budget).
    pub yields: usize,
    /// Busy intervals between yields, in plan order. Without a budget this
    /// is the single whole merge phase; their sum is `compaction_cost`.
    pub chunks: Vec<SimDuration>,
    /// Alias remap targets beyond the primary vaddr, summed over merges:
    /// each pays its own `mmap` and MTT sync.
    pub extra_remaps: u64,
}

impl CompactionReport {
    /// Total virtual time of the pass.
    pub fn total_cost(&self) -> SimDuration {
        self.collection_cost + self.compaction_cost
    }
}

struct MergeStats {
    relocated: usize,
    copied: usize,
    cost: SimDuration,
    extra_remaps: u64,
}

/// Plans a pass's merges before any of them runs: [`greedy_pass`], the
/// one copy of the §3.1.4 loop, over `candidates` — already sorted by
/// ascending live count, ties broken as the caller sees fit (by heat,
/// under a pin budget). Sources ascend from the front, destinations are
/// tried from the back, and the returned pairs are the merges in the order
/// the leader runs them.
///
/// Nothing is merged while planning, so what a block *will* hold by the
/// time a pair is tried is kept beside the blocks: its live count after
/// the merges planned so far, and the chain of candidates whose objects it
/// will hold (itself, then the sources planned into it). A pair is
/// compatible when the counts fit the destination and no block of one
/// chain shares an ID with a block of the other — asked of the blocks' own
/// ID tables, two locked at a time. Handlers can only free objects in
/// collected blocks meanwhile, which keeps a planned pair compatible.
fn plan_merges(candidates: &[SharedBlock]) -> GreedyPass {
    let n = candidates.len();
    let (mut live, slots): (Vec<usize>, Vec<usize>) = candidates
        .iter()
        .map(|b| {
            let b = b.lock();
            (b.live(), b.slots())
        })
        .unzip();
    // The chains, as lists threaded through the candidate indices.
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut tail: Vec<usize> = (0..n).collect();
    greedy_pass(n, |s, d| {
        if live[s] + live[d] > slots[d] {
            return false;
        }
        let chain = |head: usize| std::iter::successors(Some(head), |&i| next[i]);
        let disjoint = chain(s).all(|x| {
            let x = candidates[x].lock();
            chain(d).all(|y| candidates[y].lock().corm_compactable(&x))
        });
        if disjoint {
            live[d] += live[s];
            next[tail[d]] = Some(s);
            tail[d] = tail[s];
        }
        disjoint
    })
}

impl CormServer {
    /// Runs one two-stage compaction pass over `class`, starting at virtual
    /// time `now` (relevant for `rereg_mr` busy windows).
    pub fn compact_class(
        &self,
        class: ClassId,
        now: SimTime,
    ) -> Result<crate::Timed<CompactionReport>, CormError> {
        self.compact_class_with(class, now, &mut |_| {})
    }

    /// [`Self::compact_class`] with a yield hook: when the configured
    /// `compaction_budget` elapses on the merge timeline, `on_yield` is
    /// called with the finished chunk's duration so the caller can
    /// interleave queued RPCs before the pass resumes. The final chunk is
    /// not reported through the hook (it is in the report's `chunks`).
    ///
    /// The hook may free objects of a planned source that is not merged
    /// yet: its merge then moves only what is still live, and a source
    /// emptied that way is merged with nothing to copy and its vaddr
    /// released on the spot.
    pub(crate) fn compact_class_with(
        &self,
        class: ClassId,
        now: SimTime,
        on_yield: &mut dyn FnMut(SimDuration),
    ) -> Result<crate::Timed<CompactionReport>, CormError> {
        let model = self.model().clone();
        // Passes are numbered from 1 so trace spans of one pass share an op
        // id; the leader is single-threaded, so the pre-increment read of
        // the counter (bumped at the end of the pass) is race-free.
        let pass = self.stats.compactions.load(Ordering::Relaxed) + 1;

        // Stage 1: collection. The leader broadcasts and every worker
        // replies with its sufficiently-low-occupancy blocks (§3.1.4).
        let collection_cost = model.collection_cost(self.config().workers);
        self.trace().span(Track::Compaction, Stage::CompactionCollect, pass, now, collection_cost);
        let mut candidates: Vec<SharedBlock> = Vec::new();
        for w in &self.workers {
            let mut state = w.lock();
            candidates.extend(state.alloc.collect_for_compaction(class, COLLECT_MAX_OCCUPANCY));
        }
        for block in &candidates {
            block.lock().set_owner(0); // the leader owns collected blocks
        }
        let collected = candidates.len();

        // Stage 2: plan the greedy merge pairing up front (least-utilized
        // sources into the most-utilized compatible destinations). Planning
        // is metadata-only and free. Under a pin budget the plan breaks
        // live-count ties by heat, so hot blocks survive as destinations
        // and stay pinned while cold blocks drain away — packing the
        // working set under the budget.
        candidates.sort_by_cached_key(|b| {
            let b = b.lock();
            (b.live(), self.tiering.as_ref().map_or(0, |t| t.heat_of(b.vaddr())))
        });
        let plan = plan_merges(&candidates);
        let start = now + collection_cost;
        self.trace().span(Track::Compaction, Stage::CompactionPlan, pass, start, SimDuration::ZERO);

        // Execute the plan in its order, back to back on the leader's one
        // clock. A configured budget yields whenever a budget's worth of
        // merging has elapsed since the last yield: queued RPCs
        // interleave, then the pass resumes where it stopped.
        let budget = self.config().compaction_budget;
        let mut scratch = Vec::new();
        let mut clock = start;
        let mut chunk_start = start;
        let mut chunks: Vec<SimDuration> = Vec::new();
        let mut relocated = 0;
        let mut copied = 0;
        let mut extra_remaps = 0u64;
        let merges = plan.pairs.len();
        for (i, &(s, d)) in plan.pairs.iter().enumerate() {
            let stats = self.merge_blocks(&candidates[s], &candidates[d], clock, &mut scratch)?;
            self.trace().span(Track::Compaction, Stage::CompactionMerge, pass, clock, stats.cost);
            clock += stats.cost;
            relocated += stats.relocated;
            copied += stats.copied;
            extra_remaps += stats.extra_remaps;
            if let Some(budget) = budget {
                if clock - chunk_start >= budget && i + 1 < merges {
                    let chunk = clock - chunk_start;
                    chunks.push(chunk);
                    self.trace().event(Track::Compaction, Stage::CompactionYield, pass, clock);
                    on_yield(chunk);
                    chunk_start = clock;
                }
            }
        }
        let yields = chunks.len();
        if clock > chunk_start || chunks.is_empty() {
            chunks.push(clock - chunk_start);
        }
        let compaction_cost = clock - start;

        // Survivors go back to the worker allocators round-robin, so
        // repeated passes do not pile every collected block onto the
        // leader's thread.
        let n_workers = self.workers.len();
        let survivors = candidates.iter().zip(&plan.gone).filter(|&(_, &gone)| !gone);
        for (i, (block, _)) in survivors.enumerate() {
            self.workers[i % n_workers].lock().alloc.adopt(block.clone());
        }

        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats.compaction_blocks_freed.fetch_add(merges as u64, Ordering::Relaxed);
        self.stats.objects_copied.fetch_add(copied as u64, Ordering::Relaxed);

        let report = CompactionReport {
            class,
            collected,
            merges,
            objects_relocated: relocated,
            objects_copied: copied,
            collection_cost,
            compaction_cost,
            yields,
            chunks,
            extra_remaps,
        };
        let total = report.total_cost();
        Ok(crate::Timed::new(report, total))
    }

    /// Compacts every class whose fragmentation ratio exceeds the
    /// configured threshold (§3.1.3). Returns one report per class.
    ///
    /// The report is recomputed before each pass: blocks freed by an
    /// earlier class's pass can pull a later class back under the
    /// threshold, in which case that class is skipped.
    pub fn compact_if_fragmented(&self, now: SimTime) -> Result<Vec<CompactionReport>, CormError> {
        let mut out = Vec::new();
        let mut clock = now;
        let mut done: Vec<ClassId> = Vec::new();
        loop {
            let report = self.fragmentation_report();
            let next = report
                .classes_exceeding(self.config().frag_threshold)
                .into_iter()
                .find(|c| !done.contains(c));
            let Some(class) = next else { break };
            done.push(class);
            let timed = self.compact_class(class, clock)?;
            clock += timed.cost;
            out.push(timed.value);
        }
        Ok(out)
    }

    /// Merges `src` into `dst`: lock, copy (offset-preserving where
    /// possible), demote the source's vaddr to an alias, remap, update the
    /// MTT, and release the source's physical pages. `scratch` is the
    /// pass's reusable copy buffer.
    ///
    /// Both blocks stay locked until the last remap and MTT update have
    /// landed and the source is retired (DESIGN §8, lock extents of a
    /// merge): a handler waiting on either lock then finds the source
    /// retired or the destination complete, and no `free` releases an
    /// alias between the directory naming it a remap target and the MTT
    /// sync that uses its key.
    fn merge_blocks(
        &self,
        src: &SharedBlock,
        dst: &SharedBlock,
        now: SimTime,
        scratch: &mut Vec<u8>,
    ) -> Result<MergeStats, CormError> {
        let model = self.model();
        // Lock both blocks in address order. Two block locks are only ever
        // held together by the leader: here and in the planner's pair check.
        let (src_base, dst_base) = (src.lock().vaddr(), dst.lock().vaddr());
        assert_ne!(src_base, dst_base);
        let (mut s, mut d) = if src_base < dst_base {
            let s = src.lock();
            let d = dst.lock();
            (s, d)
        } else {
            let d = dst.lock();
            let s = src.lock();
            (s, d)
        };
        assert!(d.corm_compactable(&s), "planner must check compatibility");
        // Spilled blocks must come back to DRAM before the CPU copies any
        // bytes (the spill poisoned their frames); the fetch transfers are
        // folded into the merge's cost below.
        let tier_cost = self.ensure_resident(&s)? + self.ensure_resident(&d)?;
        let slot_bytes = s.obj_size();
        let pages = s.pages();
        let objects: Vec<(u32, u32)> = s.live_objects().collect();

        // Phase 1: lock every object under migration (§3.2.3), so
        // lock-free readers of the source observe invalid objects and back
        // off instead of reading half-copied state. One DMA session and
        // the two blocks' own frame lists serve this phase and the next —
        // the destination's as the copy phase 3 needs anyway, so that
        // phase 2 can insert into the destination while its span is held.
        let dma = self.phys().dma();
        let dst_frames = d.frames().to_vec();
        let s_span = block_span(src_base, s.frames())?;
        let d_span = block_span(dst_base, &dst_frames)?;
        for &(_, slot) in &objects {
            let va = s.slot_vaddr(slot);
            let mut hdr = [0u8; HEADER_BYTES];
            s_span.read(&dma, va, &mut hdr)?;
            let h = ObjectHeader::from_bytes(hdr).with_lock(LockState::CompactionLocked);
            s_span.write(&dma, va, &h.to_bytes())?;
        }

        // Phase 2: copy. Preserve offsets when free in the destination;
        // relocate to the lowest free slot otherwise (Fig. 5). The pass's
        // scratch buffer is reused across objects and merges — every byte
        // is overwritten by the read before it is consumed.
        if scratch.len() < slot_bytes {
            scratch.resize(slot_bytes, 0);
        }
        let image = &mut scratch[..slot_bytes];
        let mut relocated = 0;
        let mut bytes_copied = 0;
        for &(id, slot) in &objects {
            s_span.read(&dma, s.slot_vaddr(slot), image)?;
            // The copy lands unlocked and otherwise bit-identical.
            let mut header =
                ObjectHeader::from_bytes(image[..HEADER_BYTES].try_into().expect("header"));
            header.lock = LockState::Free;
            image[..HEADER_BYTES].copy_from_slice(&header.to_bytes());

            let dst_slot = if d.insert_object(id, slot) {
                slot
            } else {
                let hint = d.free_slot_hint().expect("compactability guarantees room");
                let ok = d.insert_object(id, hint);
                debug_assert!(ok, "free hint must be insertable");
                relocated += 1;
                hint
            };
            d_span.write(&dma, d.slot_vaddr(dst_slot), image)?;
            bytes_copied += slot_bytes;
        }
        // Remapping takes the frame table for writing.
        drop(dma);

        // Phase 3: remap the source vaddr — and every alias vaddr that was
        // pointing at the source's frames — onto the destination frames,
        // repairing the MTT per the §3.5 strategy. Every region keeps its
        // original r_key, so clients' pointers stay valid.
        let src_rkey = s.rkey().expect("collected blocks are registered");
        let (file, page) = s.phys_identity();
        let old_frames = s.frames().to_vec();
        let repointed = self.registry.demote_to_alias(src_base, dst_base, src_rkey, pages);
        // Each target is remapped, then synced by its own verb; plain ODP
        // issues none and faults the new translation in on next access.
        let strategy = self.config().mtt_strategy;
        let targets = std::iter::once((src_rkey, src_base))
            .chain(repointed.iter().map(|(base, info)| (info.rkey, *base)));
        for (rkey, base) in targets {
            self.aspace().remap(base, &dst_frames)?;
            match strategy {
                MttUpdateStrategy::Rereg => self.rnic().rereg(rkey, now)?,
                MttUpdateStrategy::Odp => continue,
                MttUpdateStrategy::OdpPrefetch => self.rnic().advise(rkey, base, pages)?,
            };
            self.trace().add(Stage::MttSync, 1);
        }
        s.retire();
        drop((s, d));

        // Phase 4: release the source's physical pages back to the
        // process-wide allocator.
        self.process_allocator().release_block_phys(file, page, old_frames);

        // If no live object is homed at the source (its original objects
        // were all freed before compaction), nothing will ever decrement
        // its count — release the alias vaddr right away (§3.3).
        self.try_release_vaddr(src_base);

        // The survivor inherits the merged-away block's heat, so packing
        // does not reset the destination's standing in the eviction rank.
        if let Some(t) = &self.tiering {
            t.merge_heat(src_base, dst_base);
        }

        // One block_compaction_cost covers bookkeeping + copies + the
        // primary remap; extra alias remaps each add an mmap + MTT update.
        let extra_remaps = repointed.len() as u64;
        let cost = model.block_compaction_cost(strategy, pages, bytes_copied, objects.len())
            + (model.mmap_cost(pages) + model.mtt_update_cost(strategy, pages)) * extra_remaps
            + tier_cost;
        Ok(MergeStats { relocated, copied: objects.len(), cost, extra_remaps })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use corm_sim_core::time::SimTime;

    use super::*;
    use crate::server::{CormServer, ServerConfig};
    use crate::GlobalPtr;

    const PAYLOAD: usize = 32;

    fn config(workers: usize, budget: Option<SimDuration>) -> ServerConfig {
        ServerConfig {
            workers,
            compaction_budget: budget,
            alloc: corm_alloc::AllocConfig {
                block_bytes: 4096,
                file_bytes: 16 << 20,
                ..Default::default()
            },
            ..ServerConfig::default()
        }
    }

    fn server_with(workers: usize, budget: Option<SimDuration>) -> Arc<CormServer> {
        Arc::new(CormServer::new(config(workers, budget)))
    }

    /// Fills `blocks` blocks of the 32-byte class on `worker`, then frees
    /// three of every five objects. Each block keeps 2/5 of its slots live:
    /// two such blocks exactly pair up, but a third never fits, so the
    /// greedy plan produces disjoint two-block merges.
    fn two_fifths_fill(server: &CormServer, worker: usize, blocks: usize) -> ClassId {
        let class = crate::consistency::class_for_payload(server.classes(), PAYLOAD).unwrap();
        let slots = server.block_bytes() / server.classes().size_of(class);
        let mut ptrs = Vec::new();
        for _ in 0..blocks * slots {
            ptrs.push(server.alloc(worker, PAYLOAD).expect("alloc").value);
        }
        for (i, p) in ptrs.iter_mut().enumerate() {
            if i % 5 >= 2 {
                server.free(worker, p).expect("free");
            }
        }
        class
    }

    #[test]
    fn survivors_rebalance_across_workers() {
        let server = server_with(4, None);
        let mut class = ClassId(0);
        for w in 0..4 {
            class = two_fifths_fill(&server, w, 2);
        }
        let report = server.compact_class(class, SimTime::ZERO).expect("pass").value;
        assert_eq!(report.collected, 8);
        assert_eq!(report.merges, 4);
        for w in 0..4 {
            let owned = server.workers[w].lock().alloc.blocks_in_class(class).len();
            assert_eq!(owned, 1, "worker {w} must adopt one survivor (round-robin), not pile on 0");
        }
    }

    /// What a handler that resolved a block just before it was merged away
    /// wakes up to once the merge lets go of the block's lock: the handle
    /// it holds says retired, and the same base now resolves to the
    /// destination, which holds the object.
    #[test]
    fn merged_away_block_is_retired_and_its_base_resolves_to_the_destination() {
        let server = server_with(1, None);
        let class = crate::consistency::class_for_payload(server.classes(), PAYLOAD).unwrap();
        let slots = server.block_bytes() / server.classes().size_of(class);
        let mut ptrs: Vec<_> =
            (0..2 * slots).map(|_| server.alloc(0, PAYLOAD).expect("alloc").value).collect();
        let bases = [ptrs[0], ptrs[slots]].map(|p| p.block_base(server.block_bytes()));
        for (i, p) in ptrs.iter_mut().enumerate() {
            // Two of five stay, each block's first object among them.
            if i % slots % 5 >= 2 {
                server.free(0, p).expect("free");
            }
        }
        let before = bases.map(|b| server.registry.resolve(b).expect("live"));
        assert!(before.iter().all(|b| !b.lock().is_retired()));

        let report = server.compact_class(class, SimTime::ZERO).expect("pass").value;
        assert_eq!(report.merges, 1);
        let src = before.iter().position(|b| b.lock().is_retired()).expect("one block retired");
        let dst = &before[1 - src];
        assert!(!dst.lock().is_retired());
        assert!(Arc::ptr_eq(&server.registry.resolve(bases[src]).expect("alias"), dst));
        assert_eq!(server.registry.alias_info(bases[src]).map(|i| i.target), Some(bases[1 - src]));
        // The handler's next attempt finds the object there.
        let mut buf = [0u8; PAYLOAD];
        let moved = &mut ptrs[src * slots];
        assert_eq!(server.read(0, moved, &mut buf).expect("read").value, PAYLOAD);
    }

    #[test]
    fn budget_bounds_pass_chunks_without_changing_costs() {
        let unbudgeted = {
            let server = server_with(1, None);
            let class = two_fifths_fill(&server, 0, 8);
            server.compact_class(class, SimTime::ZERO).expect("pass").value
        };
        assert_eq!(unbudgeted.yields, 0);
        assert_eq!(unbudgeted.chunks.len(), 1, "a budget-less pass is one chunk");
        assert_eq!(unbudgeted.chunks[0], unbudgeted.compaction_cost);

        // A budget far below one merge's cost yields at every boundary.
        let budget = SimDuration::from_micros(1);
        let server = server_with(1, Some(budget));
        let class = two_fifths_fill(&server, 0, 8);
        let mut yielded: Vec<SimDuration> = Vec::new();
        let timed = server
            .compact_class_with(class, SimTime::ZERO, &mut |chunk| yielded.push(chunk))
            .expect("pass");
        let report = timed.value;
        assert_eq!(report.merges, unbudgeted.merges);
        assert_eq!(
            report.compaction_cost, unbudgeted.compaction_cost,
            "the budget bounds pauses, never the pass's virtual cost"
        );
        assert_eq!(report.yields, report.merges - 1);
        assert_eq!(report.chunks.len(), report.yields + 1);
        assert_eq!(&report.chunks[..report.yields], &yielded[..], "hook sees every chunk in order");
        let sum = report.chunks.iter().fold(SimDuration::ZERO, |a, &b| a + b);
        assert_eq!(sum, report.compaction_cost, "chunks partition the merge phase");
        for &chunk in &report.chunks[..report.yields] {
            assert!(chunk >= budget, "a pass only yields once the budget has elapsed");
        }
    }

    /// The merge phase is one timeline: the pass's merge spans start at
    /// the end of collection, each where the previous one ended, and the
    /// last ends with the pass; a budgeted pass yields only between spans.
    #[test]
    fn one_merge_timeline() {
        let now = SimTime::from_millis(3);
        let unbudgeted = {
            let server = server_with(1, None);
            let class = two_fifths_fill(&server, 0, 8);
            server.compact_class(class, now).expect("pass").value.compaction_cost
        };
        // About a third of the phase: longer than one of the four merges,
        // so the pass yields at some boundaries and runs through others.
        for budget in [None, Some(unbudgeted / 3)] {
            let trace = corm_trace::TraceHandle::recording();
            let server =
                CormServer::new(ServerConfig { trace: trace.clone(), ..config(1, budget) });
            let class = two_fifths_fill(&server, 0, 8);
            let report = server.compact_class(class, now).expect("pass").value;
            let events = trace.drain();
            let spans: Vec<_> =
                events.iter().filter(|e| e.stage == Stage::CompactionMerge).collect();
            let yields: Vec<SimTime> = events
                .iter()
                .filter(|e| e.stage == Stage::CompactionYield)
                .map(|e| e.start)
                .collect();
            assert_eq!(spans.len(), report.merges);
            assert!(report.merges >= 4, "a multi-merge pass ({} merges)", report.merges);
            assert_eq!(spans[0].start, now + report.collection_cost);
            for w in spans.windows(2) {
                assert_eq!(w[1].start, w[0].start + w[0].dur, "merges run back to back");
            }
            let last = spans.last().expect("merges");
            assert_eq!(last.start + last.dur, now + report.total_cost());
            assert_eq!(yields.len(), report.yields);
            if budget.is_some() {
                assert!(0 < report.yields && report.yields < report.merges - 1, "{report:?}");
            }
            for at in yields {
                assert!(
                    spans.iter().any(|e| e.start + e.dur == at),
                    "yield at {at:?} off a boundary"
                );
            }
        }
    }

    /// The mid-pass free rule of `compact_class_with`: at a yield, every
    /// object of a planned source that is not merged yet is freed. The
    /// pass still completes, every other object reads back through its
    /// pre-pass pointer, and the emptied source's vaddr is released.
    #[test]
    fn freeing_an_unmerged_source_at_a_yield_releases_its_vaddr() {
        let server = server_with(1, Some(SimDuration::from_micros(1)));
        let class = crate::consistency::class_for_payload(server.classes(), PAYLOAD).unwrap();
        let slots = server.block_bytes() / server.classes().size_of(class);
        let block_bytes = server.block_bytes();
        // One destination two-fifths full, then three sources of three
        // objects each: the plan funnels every source into the
        // destination, one merge at a time.
        let mut ptrs: Vec<_> =
            (0..4 * slots).map(|_| server.alloc(0, PAYLOAD).expect("alloc").value).collect();
        let payload = |i: usize| [i as u8; PAYLOAD];
        let mut kept: Vec<(usize, GlobalPtr)> = Vec::new();
        for (i, p) in ptrs.iter_mut().enumerate() {
            let keep = if i < slots { i % 5 < 2 } else { i % slots < 3 };
            if keep {
                server.write(0, p, &payload(i)).expect("write");
                kept.push((i, *p));
            } else {
                server.free(0, p).expect("free");
            }
        }
        let sources: Vec<u64> = (1..4).map(|b| ptrs[b * slots].block_base(block_bytes)).collect();

        let mut emptied = None;
        let report = server
            .compact_class_with(class, SimTime::ZERO, &mut |_| {
                if emptied.is_some() {
                    return;
                }
                let unmerged = |&&base: &&u64| {
                    !server.registry.resolve(base).expect("mapped").lock().is_retired()
                };
                let base = *sources.iter().find(unmerged).expect("a source not merged yet");
                for (_, p) in kept.iter().filter(|(_, p)| p.block_base(block_bytes) == base) {
                    server.free(0, &mut p.clone()).expect("free mid-pass");
                }
                emptied = Some(base);
            })
            .expect("the pass completes")
            .value;
        let emptied = emptied.expect("the pass yielded");
        assert_eq!(report.merges, 3, "the emptied source is still merged: {report:?}");
        assert_eq!(report.objects_copied, 6, "its merge copies nothing: {report:?}");

        let mut buf = [0u8; PAYLOAD];
        let mut read_back = 0;
        for &(i, p) in kept.iter().filter(|(_, p)| p.block_base(block_bytes) != emptied) {
            let n = server.read(0, &mut p.clone(), &mut buf).expect("read").value;
            assert_eq!(&buf[..n], &payload(i), "object {i}");
            read_back += 1;
        }
        assert_eq!(read_back, kept.len() - 3);
        assert!(server.registry.resolve(emptied).is_none(), "the emptied source's vaddr is gone");
        assert!(server.registry.alias_info(emptied).is_none());
    }

    /// `fragmentation_report` holds one block lock at a time: while it
    /// waits for a block another thread holds, the blocks it has counted
    /// are free. Holding them all (as it once did) deadlocks against a
    /// merge or the planner, which lock two blocks in their own order.
    #[test]
    fn fragmentation_report_holds_one_block_lock_at_a_time() {
        let server = server_with(1, None);
        two_fifths_fill(&server, 0, 2);
        let blocks = server.registry.live_blocks();
        assert!(blocks.len() >= 2);
        let held = blocks[1].lock();
        let freed = std::thread::scope(|s| {
            let reporter = s.spawn(|| server.fragmentation_report());
            // Time for the reporter to count the first block and wait on
            // the held one. Nothing it can signal marks that point; the
            // pause lets the check see a reporter that holds the first
            // block, and a correct one passes however long it takes.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
            let freed = loop {
                if blocks[0].try_lock().is_some() {
                    break true;
                }
                if std::time::Instant::now() >= deadline {
                    break false;
                }
                std::thread::yield_now();
            };
            drop(held);
            let report = reporter.join().expect("reporter");
            let live: usize = blocks.iter().map(|b| b.lock().live()).sum();
            assert_eq!(report.classes.iter().map(|c| c.live).sum::<usize>(), live);
            freed
        });
        assert!(freed, "the first block stayed locked while the report waited on the second");
    }

    #[test]
    fn compact_if_fragmented_reevaluates_between_classes() {
        let server = server_with(1, None);
        let small = two_fifths_fill(&server, 0, 2);
        // A second fragmented class, allocated the same way.
        let big_payload = 200;
        let big = crate::consistency::class_for_payload(server.classes(), big_payload).unwrap();
        assert_ne!(small, big);
        let slots = server.block_bytes() / server.classes().size_of(big);
        let mut ptrs = Vec::new();
        for _ in 0..2 * slots {
            ptrs.push(server.alloc(0, big_payload).expect("alloc").value);
        }
        for (i, p) in ptrs.iter_mut().enumerate() {
            if i % 5 >= 2 {
                server.free(0, p).expect("free");
            }
        }
        let reports = server.compact_if_fragmented(SimTime::ZERO).expect("passes");
        let classes: Vec<ClassId> = reports.iter().map(|r| r.class).collect();
        assert!(classes.contains(&small), "fragmented class {small:?} must be compacted");
        assert!(classes.contains(&big), "fragmented class {big:?} must be compacted");
        // The report is recomputed before every pass; the done-list keeps a
        // still-exceeding class from being compacted twice.
        for (i, c) in classes.iter().enumerate() {
            assert!(!classes[..i].contains(c), "class {c:?} compacted more than once");
        }
        assert!(reports.iter().all(|r| r.merges >= 1));
    }

    /// A one-page test block with the given `(id, slot)` live objects.
    fn block(idx: u32, objects: &[(u32, u32)]) -> SharedBlock {
        let frames = vec![corm_sim_mem::FrameId(idx)];
        let mut b = corm_alloc::Block::new(
            corm_alloc::BlockId(idx as u64),
            ClassId(0),
            512,
            0x10_0000 + idx as u64 * 0x1000,
            1,
            corm_sim_mem::FileId(1),
            0,
            frames,
            1 << 16,
            0,
        );
        for &(id, slot) in objects {
            assert!(b.insert_object(id, slot));
        }
        Arc::new(parking_lot::Mutex::new(b))
    }

    /// `n` half-full blocks (4 of 8 slots) with distinct IDs.
    fn half_full_blocks(n: u32) -> Vec<SharedBlock> {
        (0..n)
            .map(|i| {
                let objs: Vec<(u32, u32)> = (0..4).map(|k| (i * 10 + k, k)).collect();
                block(i, &objs)
            })
            .collect()
    }

    #[test]
    fn pairing_matches_serial_greedy_order() {
        // Four half-full blocks: the serial loop pairs (0→3), (1→2) — src
        // ascending, dst from the most-utilized end, skipping destinations
        // the plan already filled.
        let plan = plan_merges(&half_full_blocks(4));
        assert_eq!(plan.pairs, vec![(0, 3), (1, 2)]);
        assert_eq!(plan.gone, vec![true, true, false, false]);
    }

    /// The order `compact_class_with` plans under a pin budget: `(live,
    /// heat)` ascending, stable.
    fn sort_by_live_then_heat(candidates: &mut [SharedBlock], heat_of: impl Fn(u64) -> u64) {
        candidates.sort_by_cached_key(|b| {
            let b = b.lock();
            (b.live(), heat_of(b.vaddr()))
        });
    }

    #[test]
    fn heat_aware_plan_keeps_hot_blocks_as_survivors() {
        // Four equally-utilized blocks with distinct heats: sorted by heat
        // within equal live counts, the cold blocks go in as sources, so
        // the two hottest blocks survive (and receive the merged objects).
        let mut candidates = half_full_blocks(4);
        let vaddrs: Vec<u64> = candidates.iter().map(|b| b.lock().vaddr()).collect();
        let heats = [9u64, 1, 5, 0];
        let heat_of = |base: u64| {
            let idx = vaddrs.iter().position(|&v| v == base).unwrap();
            heats[idx]
        };
        sort_by_live_then_heat(&mut candidates, heat_of);
        let plan = plan_merges(&candidates);
        let va = |i: usize| candidates[i].lock().vaddr();
        let pairs: Vec<(u64, u64)> = plan.pairs.iter().map(|&(s, d)| (va(s), va(d))).collect();
        // Sorted candidate order by heat ascending: [3, 1, 2, 0]. Sources
        // ascend from the cold end, destinations from the hot end:
        // block 3 (heat 0) → block 0 (heat 9), block 1 (heat 1) → block 2.
        assert_eq!(pairs, vec![(vaddrs[3], vaddrs[0]), (vaddrs[1], vaddrs[2])]);
        // Survivors are the hottest blocks.
        let survivor_vaddrs: Vec<u64> = (0..4).filter(|&i| !plan.gone[i]).map(va).collect();
        assert_eq!(survivor_vaddrs, vec![vaddrs[2], vaddrs[0]]);
        // With a constant heat signal, the stable sort leaves live-sorted
        // input untouched: same plan as without a heat signal.
        let mut flat = half_full_blocks(4);
        let baseline = plan_merges(&flat);
        sort_by_live_then_heat(&mut flat, |_| 0);
        assert_eq!(plan_merges(&flat).pairs, baseline.pairs);
    }

    /// `plan_merges` asks the blocks' own ID tables; the reference is the
    /// same §3.1.4 loop over [`corm_compact::BlockModel`]s with their ID
    /// bitsets. Small ID space, so shared IDs are common; live counts up
    /// to full.
    #[test]
    fn plan_matches_greedy_pass_over_block_models() {
        use corm_compact::BlockModel;
        use rand::Rng;

        const SLOTS: u32 = 8; // 512-byte objects in the helper's one page
        let mut rng = corm_sim_core::rng::root_rng(0x91A2);
        let (mut merges, mut rejected_ids, mut funnelled) = (0, 0, 0);
        for case in 0..400 {
            let mut sets: Vec<Vec<(u32, u32)>> = (0..rng.gen_range(2..=10))
                .map(|_| {
                    let mut objects: Vec<(u32, u32)> = Vec::new();
                    for _ in 0..rng.gen_range(1..=SLOTS) {
                        let (id, slot) = (rng.gen_range(0..40), rng.gen_range(0..SLOTS));
                        if objects.iter().all(|&(i, s)| i != id && s != slot) {
                            objects.push((id, slot));
                        }
                    }
                    objects
                })
                .collect();
            sets.sort_by_key(|objects| objects.len());

            let candidates: Vec<SharedBlock> =
                sets.iter().enumerate().map(|(i, objects)| block(i as u32, objects)).collect();
            let plan = plan_merges(&candidates);

            let mut models: Vec<BlockModel> = sets
                .iter()
                .map(|objects| {
                    let mut m = BlockModel::new(SLOTS as usize, 1 << 16);
                    for &(id, slot) in objects {
                        assert!(m.insert(id as usize, slot as usize));
                    }
                    m
                })
                .collect();
            let reference = greedy_pass(models.len(), |s, d| {
                let src = models[s].clone();
                let ok = models[d].corm_compactable(&src);
                if ok {
                    models[d].merge_corm(&src);
                } else if models[d].live() + src.live() <= SLOTS as usize {
                    rejected_ids += 1;
                }
                ok
            });

            assert_eq!(plan.pairs, reference.pairs, "case {case}: {sets:?}");
            assert_eq!(plan.gone, reference.gone, "case {case}: {sets:?}");
            let pairs = &plan.pairs;
            merges += pairs.len();
            funnelled += pairs.iter().filter(|&&(s, d)| pairs.contains(&(s + 1, d))).count();
        }
        // The cases reach what they are for: merges, pairs refused for a
        // shared ID alone, and destinations that took several sources, so
        // later checks ran against what was planned into them.
        assert!(
            merges > 400 && rejected_ids > 100 && funnelled > 50,
            "{merges} merges, {rejected_ids} ID refusals, {funnelled} funnelled"
        );
    }

    #[test]
    fn id_conflicts_block_pairing() {
        // Shared IDs are never mergeable under the CoRM rule.
        let plan = plan_merges(&[block(0, &[(7, 0)]), block(1, &[(7, 1)])]);
        assert!(plan.pairs.is_empty());
        assert_eq!(plan.gone, vec![false, false]);
    }
}
