//! Property-based tests of the two-level allocator's invariants.

use std::sync::Arc;

use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random alloc/free interleavings: no two live objects ever share a
    /// vaddr, no object crosses a block boundary, and the live count in
    /// the fragmentation report matches a shadow model.
    #[test]
    fn alloc_free_interleavings(ops in prop::collection::vec((any::<bool>(), any::<u8>(), any::<u16>()), 1..300)) {
        let (proc_alloc, mut ta, mut rng) = setup(4096);
        let classes = [ClassId(0), ClassId(4), ClassId(8)];
        let mut live: Vec<corm_alloc::thread_alloc::AllocOutcome> = Vec::new();
        for (is_alloc, class_pick, free_pick) in ops {
            if is_alloc || live.is_empty() {
                let class = classes[class_pick as usize % classes.len()];
                let out = ta.alloc(class, &proc_alloc, &mut rng).unwrap();
                // Object vaddr must be inside its block and slot-aligned.
                let b = out.block.lock();
                prop_assert!(out.vaddr >= b.vaddr());
                prop_assert!(out.vaddr + b.obj_size() as u64 <= b.vaddr() + b.len_bytes() as u64);
                prop_assert_eq!((out.vaddr - b.vaddr()) as usize % b.obj_size(), 0);
                drop(b);
                live.push(out);
            } else {
                let idx = free_pick as usize % live.len();
                let victim = live.swap_remove(idx);
                let freed = victim.block.lock().free_slot(victim.slot);
                prop_assert_eq!(freed, Some(victim.id));
            }
        }
        // No duplicate vaddrs among live objects.
        let mut addrs: Vec<u64> = live.iter().map(|o| o.vaddr).collect();
        addrs.sort_unstable();
        let before = addrs.len();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), before, "duplicate object addresses");
        // Report totals agree with the shadow count.
        let blocks: Vec<_> = classes
            .iter()
            .flat_map(|&c| ta.blocks_in_class(c).to_vec())
            .collect();
        let guards: Vec<_> = blocks.iter().map(|b| b.lock()).collect();
        let report = FragmentationReport::from_blocks(guards.iter().map(|g| &**g), 4096);
        let total_live: usize = report.classes.iter().map(|c| c.live).sum();
        prop_assert_eq!(total_live, live.len());
    }

    /// The process-wide allocator recycles every released block: after N
    /// alloc/release rounds, live frames are exactly the high-water mark
    /// of simultaneously-held blocks (files are backed block by block).
    #[test]
    fn phys_blocks_recycled(rounds in 1usize..20, held in 1usize..8) {
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
        prop_assert_eq!(pa.blocks_in_use(), 0);
        prop_assert_eq!(pa.phys().live_frames(), held * pa.config().block_bytes / PAGE_SIZE);
        // Everything came from at most ceil(held/16) files of 16 blocks.
        let files_needed = held.div_ceil(16) as u64;
        prop_assert!(pa.granted_bytes() <= files_needed * 64 * 1024);
    }

    /// Collection + adoption round-trips preserve ownership and block
    /// counts for any occupancy threshold.
    #[test]
    fn collection_roundtrip(objs in 1usize..200, threshold in 0.0f64..=1.0) {
        let (proc_alloc, mut ta, mut rng) = setup(4096);
        let class = ClassId(2); // 32-byte objects
        for _ in 0..objs {
            ta.alloc(class, &proc_alloc, &mut rng).unwrap();
        }
        let before = ta.blocks_in_class(class).len();
        let mut leader = ThreadAllocator::new(1, corm_alloc::SizeClasses::standard().len());
        let collected = ta.collect_for_compaction(class, threshold);
        for b in &collected {
            prop_assert!(b.lock().occupancy() <= threshold + 1e-9);
        }
        let n_collected = collected.len();
        for b in collected {
            leader.adopt(b);
        }
        prop_assert_eq!(ta.blocks_in_class(class).len() + n_collected, before);
        for b in leader.blocks_in_class(class) {
            prop_assert_eq!(b.lock().owner(), 1);
        }
    }
}
