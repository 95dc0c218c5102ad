//! Property-based tests of the two-level allocator's invariants.

use std::sync::Arc;

use corm_check::{check, ensure, ensure_eq};

use corm_alloc::{AllocConfig, ClassId, FragmentationReport, ProcessAllocator, ThreadAllocator};
use corm_sim_mem::{AddressSpace, PhysicalMemory, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(block_bytes: usize) -> (ProcessAllocator, ThreadAllocator, StdRng) {
    let phys = Arc::new(PhysicalMemory::new());
    let aspace = Arc::new(AddressSpace::new(phys.clone()));
    let cfg = AllocConfig {
        block_bytes,
        file_bytes: (1 << 20).max(block_bytes),
        ..AllocConfig::default()
    };
    let n = cfg.classes.len();
    (
        ProcessAllocator::new(phys, aspace, cfg),
        ThreadAllocator::new(0, n),
        StdRng::seed_from_u64(77),
    )
}

/// Random alloc/free interleavings: no two live objects ever share a
/// vaddr, no object crosses a block boundary, and the live count in
/// the fragmentation report matches a shadow model.
#[test]
fn alloc_free_interleavings() {
    check(48, |g| {
        let ops = g.vec(1..300, |g| (g.bool(), g.range(0..=u8::MAX), g.range(0..=u16::MAX)));
        let (proc_alloc, mut ta, mut rng) = setup(4096);
        let classes = [ClassId(0), ClassId(4), ClassId(8)];
        let mut live: Vec<corm_alloc::thread_alloc::AllocOutcome> = Vec::new();
        for (is_alloc, class_pick, free_pick) in ops {
            if is_alloc || live.is_empty() {
                let class = classes[class_pick as usize % classes.len()];
                let out = ta.alloc(class, &proc_alloc, &mut rng).unwrap();
                // Object vaddr must be inside its block and slot-aligned.
                let b = out.block.lock();
                ensure!(out.vaddr >= b.vaddr());
                ensure!(out.vaddr + b.obj_size() as u64 <= b.vaddr() + b.len_bytes() as u64);
                ensure_eq!((out.vaddr - b.vaddr()) as usize % b.obj_size(), 0);
                drop(b);
                live.push(out);
            } else {
                let idx = free_pick as usize % live.len();
                let victim = live.swap_remove(idx);
                let freed = victim.block.lock().free_slot(victim.slot);
                ensure_eq!(freed, Some(victim.id));
            }
        }
        // No duplicate vaddrs among live objects.
        let mut addrs: Vec<u64> = live.iter().map(|o| o.vaddr).collect();
        addrs.sort_unstable();
        let before = addrs.len();
        addrs.dedup();
        ensure_eq!(addrs.len(), before, "duplicate object addresses");
        // Report totals agree with the shadow count.
        let blocks: Vec<_> = classes.iter().flat_map(|&c| ta.blocks_in_class(c).to_vec()).collect();
        let guards: Vec<_> = blocks.iter().map(|b| b.lock()).collect();
        let report = FragmentationReport::from_blocks(guards.iter().map(|g| &**g), 4096);
        let total_live: usize = report.classes.iter().map(|c| c.live).sum();
        ensure_eq!(total_live, live.len());
        Ok(())
    });
}

/// The process-wide allocator recycles every released block: after N
/// alloc/release rounds, live frames are exactly the high-water mark
/// of simultaneously-held blocks (files are backed block by block).
#[test]
fn phys_blocks_recycled() {
    check(48, |g| {
        let (rounds, held) = (g.range(1usize..20), g.range(1usize..8));
        let phys = Arc::new(PhysicalMemory::new());
        let aspace = Arc::new(AddressSpace::new(phys.clone()));
        let cfg = AllocConfig { file_bytes: 64 * 1024, ..AllocConfig::default() };
        let pa = ProcessAllocator::new(phys, aspace, cfg);
        for _ in 0..rounds {
            let blocks: Vec<_> = (0..held).map(|_| pa.alloc_phys_block().unwrap()).collect();
            for b in blocks {
                pa.release_phys_block(b);
            }
        }
        ensure_eq!(pa.blocks_in_use(), 0);
        ensure_eq!(pa.phys().live_frames(), held * pa.config().block_bytes / PAGE_SIZE);
        // Everything came from at most ceil(held/16) files of 16 blocks.
        let files_needed = held.div_ceil(16) as u64;
        ensure!(pa.granted_bytes() <= files_needed * 64 * 1024);
        Ok(())
    });
}

/// Collection + adoption round-trips preserve ownership and block
/// counts for any occupancy threshold.
#[test]
fn collection_roundtrip() {
    check(48, |g| {
        let objs = g.range(1usize..200);
        // 0.0..=1.0 on a grid of 2^53 steps.
        let threshold = g.range(0..=1u64 << 53) as f64 / (1u64 << 53) as f64;
        let (proc_alloc, mut ta, mut rng) = setup(4096);
        let class = ClassId(2); // 32-byte objects
        for _ in 0..objs {
            ta.alloc(class, &proc_alloc, &mut rng).unwrap();
        }
        let before = ta.blocks_in_class(class).len();
        let mut leader = ThreadAllocator::new(1, corm_alloc::SizeClasses::standard().len());
        let collected = ta.collect_for_compaction(class, threshold);
        for b in &collected {
            ensure!(b.lock().occupancy() <= threshold + 1e-9);
        }
        let n_collected = collected.len();
        for b in collected {
            leader.adopt(b);
        }
        ensure_eq!(ta.blocks_in_class(class).len() + n_collected, before);
        for b in leader.blocks_in_class(class) {
            ensure_eq!(b.lock().owner(), 1);
        }
        Ok(())
    });
}
