//! Differential test of the thread allocator's bins.
//!
//! [`ThreadAllocator`] finds "the newest block with room" from a map the
//! blocks keep current, and a block derives its occupancy from one slot→ID
//! array. The reference below is the allocator both replaced: a newest-first
//! linear scan over blocks whose occupancy is a [`BlockModel`]. The two run
//! the same random sequence of allocations, frees through the block handle,
//! collections, adoptions and removals, each over its own memory and RNG of
//! the same seed, and must agree on every outcome and on the order of every
//! bin after every step.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use corm_check::{check, ensure, ensure_eq};
use rand::rngs::StdRng;
use rand::SeedableRng;

use corm_alloc::process::SharedBlock;
use corm_alloc::{AllocConfig, ClassId, ProcessAllocator, ThreadAllocator};
use corm_compact::BlockModel;
use corm_sim_mem::{AddressSpace, PhysicalMemory};

/// Classes of 2, 4 and 16 slots per 4 KiB block: blocks fill and drain
/// within a few operations.
const CLASSES: [ClassId; 3] = [ClassId(15), ClassId(12), ClassId(8)];

fn process_allocator() -> ProcessAllocator {
    let phys = Arc::new(PhysicalMemory::new());
    let aspace = Arc::new(AddressSpace::new(phys.clone()));
    ProcessAllocator::new(
        phys,
        aspace,
        AllocConfig { file_bytes: 1 << 20, ..AllocConfig::default() },
    )
}

struct RefBlock {
    vaddr: u64,
    class: ClassId,
    obj_size: usize,
    model: BlockModel,
    slot_id: Vec<Option<u32>>,
}

type RefShared = Rc<RefCell<RefBlock>>;

impl RefBlock {
    fn alloc(&mut self, rng: &mut StdRng) -> Option<(u32, u32)> {
        let (id, slot) = self.model.alloc(rng)?;
        self.slot_id[slot] = Some(id as u32);
        Some((id as u32, slot as u32))
    }

    fn free(&mut self, slot: u32) -> Option<u32> {
        let id = self.slot_id[slot as usize].take()?;
        assert!(self.model.free(id as usize, slot as usize));
        Some(id)
    }
}

/// `(vaddr, slot, id, refilled)` of an allocation.
type Outcome = (u64, u32, u32, bool);

#[derive(Default)]
struct RefAllocator {
    bins: Vec<Vec<RefShared>>,
}

impl RefAllocator {
    fn new() -> Self {
        RefAllocator { bins: vec![Vec::new(); AllocConfig::default().classes.len()] }
    }

    fn alloc(
        &mut self,
        class: ClassId,
        proc: &ProcessAllocator,
        rng: &mut StdRng,
    ) -> (RefShared, Outcome) {
        let bin = &mut self.bins[class.0 as usize];
        for block in bin.iter().rev() {
            let mut b = block.borrow_mut();
            if let Some((id, slot)) = b.alloc(rng) {
                let vaddr = b.vaddr + slot as u64 * b.obj_size as u64;
                return (block.clone(), (vaddr, slot, id, false));
            }
        }
        let fresh = proc.create_block(class, 0).expect("no memory cap");
        let mut b = RefBlock {
            vaddr: fresh.vaddr(),
            class,
            obj_size: fresh.obj_size(),
            model: BlockModel::new(fresh.slots(), proc.config().id_space().max(fresh.slots())),
            slot_id: vec![None; fresh.slots()],
        };
        let (id, slot) = b.alloc(rng).expect("fresh block must have room");
        let vaddr = b.vaddr + slot as u64 * b.obj_size as u64;
        let shared = Rc::new(RefCell::new(b));
        bin.push(shared.clone());
        (shared, (vaddr, slot, id, true))
    }

    fn adopt(&mut self, block: RefShared) {
        let class = block.borrow().class;
        self.bins[class.0 as usize].push(block);
    }

    fn drain_where(bin: &mut Vec<RefShared>, give: impl Fn(&RefBlock) -> bool) -> Vec<RefShared> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < bin.len() {
            if give(&bin[i].borrow()) {
                out.push(bin.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    fn take_empty_blocks(&mut self) -> Vec<RefShared> {
        self.bins
            .iter_mut()
            .flat_map(|bin| Self::drain_where(bin, |b| b.model.is_empty()))
            .collect()
    }

    fn collect_for_compaction(&mut self, class: ClassId, max_occupancy: f64) -> Vec<RefShared> {
        Self::drain_where(&mut self.bins[class.0 as usize], |b| {
            !b.model.is_empty() && b.model.occupancy() <= max_occupancy
        })
    }

    fn remove_block(&mut self, class: ClassId, block: &RefShared) -> bool {
        let bin = &mut self.bins[class.0 as usize];
        match bin.iter().position(|b| Rc::ptr_eq(b, block)) {
            Some(pos) => {
                bin.swap_remove(pos);
                true
            }
            None => false,
        }
    }
}

/// One side's allocators, memory and RNG.
struct Side<A> {
    allocs: [A; 2],
    proc: ProcessAllocator,
    rng: StdRng,
}

fn vaddrs(blocks: &[SharedBlock]) -> Vec<u64> {
    blocks.iter().map(|b| b.lock().vaddr()).collect()
}

fn ref_vaddrs(blocks: &[RefShared]) -> Vec<u64> {
    blocks.iter().map(|b| b.borrow().vaddr).collect()
}

#[test]
fn bins_match_the_linear_scan() {
    check(64, |g| {
        let ops =
            g.vec(1..400, |g| (g.range(0u8..16), g.range(0..=u8::MAX), g.range(0..=u16::MAX)));
        let n_classes = AllocConfig::default().classes.len();
        let mut real = Side {
            allocs: [ThreadAllocator::new(0, n_classes), ThreadAllocator::new(1, n_classes)],
            proc: process_allocator(),
            rng: StdRng::seed_from_u64(41),
        };
        let mut refr = Side {
            allocs: [RefAllocator::new(), RefAllocator::new()],
            proc: process_allocator(),
            rng: StdRng::seed_from_u64(41),
        };
        // Live objects: the real block and slot beside the reference's.
        let mut live: Vec<(SharedBlock, RefShared, u32)> = Vec::new();
        for (op, a, b) in ops {
            let who = a as usize % 2;
            let class = CLASSES[b as usize % CLASSES.len()];
            match op {
                0..=6 => {
                    let out = real.allocs[who].alloc(class, &real.proc, &mut real.rng).unwrap();
                    let (rblock, want) = refr.allocs[who].alloc(class, &refr.proc, &mut refr.rng);
                    ensure_eq!((out.vaddr, out.slot, out.id, out.refilled), want);
                    live.push((out.block, rblock, out.slot));
                }
                // Frees go through the block handle, whichever allocator
                // owns the block now and whether any does.
                7..=11 if !live.is_empty() => {
                    let (block, rblock, slot) = live.swap_remove(b as usize % live.len());
                    let freed = block.lock().free_slot(slot);
                    ensure!(freed.is_some());
                    ensure_eq!(freed, rblock.borrow_mut().free(slot));
                }
                12 => {
                    let max_occupancy = [0.25, 0.5, 0.9, 1.0][a as usize / 2 % 4];
                    let got = real.allocs[who].collect_for_compaction(class, max_occupancy);
                    let want = refr.allocs[who].collect_for_compaction(class, max_occupancy);
                    ensure_eq!(vaddrs(&got), ref_vaddrs(&want));
                    // Back round-robin, as the compaction leader does.
                    for (i, (block, rblock)) in got.into_iter().zip(want).enumerate() {
                        real.allocs[i % 2].adopt(block);
                        refr.allocs[i % 2].adopt(rblock);
                    }
                }
                13 => {
                    let got = real.allocs[who].take_empty_blocks();
                    let want = refr.allocs[who].take_empty_blocks();
                    ensure_eq!(vaddrs(&got), ref_vaddrs(&want));
                    if b % 2 == 0 {
                        for (block, rblock) in got.into_iter().zip(want) {
                            real.allocs[1 - who].adopt(block);
                            refr.allocs[1 - who].adopt(rblock);
                        }
                    }
                }
                14 | 15 if !live.is_empty() => {
                    // The block of a live object: in this allocator's bin,
                    // in the other's, or in none.
                    let (block, rblock, _) = &live[b as usize % live.len()];
                    let class = rblock.borrow().class;
                    let removed = real.allocs[who].remove_block(class, block);
                    ensure_eq!(removed, refr.allocs[who].remove_block(class, rblock));
                    if removed && op == 15 {
                        real.allocs[1 - who].adopt(block.clone());
                        refr.allocs[1 - who].adopt(rblock.clone());
                    }
                }
                _ => {}
            }
            for who in 0..2 {
                for class in CLASSES {
                    ensure_eq!(
                        vaddrs(real.allocs[who].blocks_in_class(class)),
                        ref_vaddrs(&refr.allocs[who].bins[class.0 as usize])
                    );
                }
            }
        }
        Ok(())
    });
}
