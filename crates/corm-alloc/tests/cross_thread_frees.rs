//! Real threads: frees landing on other workers' blocks while the owners
//! allocate. A free reaches a block through its handle and tells the owning
//! allocator's bin that the block has room again; if that signal were lost
//! or late, the owner would skip a block with room and fetch a fresh one.
//!
//! Each owner can bound its room from below without looking at a block:
//! frees *completed* on its blocks (counted by the freeing thread after the
//! free, read by the owner before the allocation) plus the slots of the
//! blocks it fetched since, minus its own allocations. Whenever that bound
//! is positive, the allocation must not refill.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::SeedableRng;

use corm_alloc::thread_alloc::AllocOutcome;
use corm_alloc::{AllocConfig, ClassId, ProcessAllocator, ThreadAllocator};
use corm_sim_mem::{AddressSpace, PhysicalMemory};

const WORKERS: usize = 8;
/// 256-byte objects: 16 slots per 4 KiB block.
const CLASS: ClassId = ClassId(8);
const SLOTS: usize = 16;
/// Objects per worker: 64 blocks, filled exactly.
const OBJECTS: usize = 64 * SLOTS;

#[test]
fn owners_never_refill_past_a_block_with_room() {
    let phys = Arc::new(PhysicalMemory::new());
    let aspace = Arc::new(AddressSpace::new(phys.clone()));
    let config = AllocConfig::default();
    let n_classes = config.classes.len();
    let proc = ProcessAllocator::new(phys, aspace, config);
    // Frees completed on each worker's blocks.
    let freed: Vec<AtomicUsize> = (0..WORKERS).map(|_| AtomicUsize::new(0)).collect();
    let filled = Barrier::new(WORKERS);
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..WORKERS).map(|_| mpsc::channel::<AllocOutcome>()).unzip();

    std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| {
                let (proc, freed, filled) = (&proc, &freed, &filled);
                // Worker `me` frees what its left neighbour allocated.
                let neighbour = (me + WORKERS - 1) % WORKERS;
                let to_right = senders[(me + 1) % WORKERS].clone();
                scope.spawn(move || {
                    let mut alloc = ThreadAllocator::new(me as u16, n_classes);
                    let mut rng = StdRng::seed_from_u64(me as u64);
                    for _ in 0..OBJECTS {
                        let out = alloc.alloc(CLASS, proc, &mut rng).expect("no memory cap");
                        to_right.send(out).expect("right neighbour is alive");
                    }
                    assert_eq!(alloc.blocks_in_class(CLASS).len(), OBJECTS / SLOTS);
                    filled.wait();

                    let (mut allocs, mut refills) = (0usize, 0usize);
                    for victim in inbox.iter().take(OBJECTS) {
                        assert!(victim.block.lock().free_slot(victim.slot).is_some());
                        // Release: the free, and the room it signalled,
                        // happen before the owner reads the count.
                        freed[neighbour].fetch_add(1, Ordering::Release);

                        let seen = freed[me].load(Ordering::Acquire);
                        let room_at_least = (seen + refills * SLOTS).saturating_sub(allocs);
                        let out = alloc.alloc(CLASS, proc, &mut rng).expect("no memory cap");
                        allocs += 1;
                        refills += usize::from(out.refilled);
                        assert!(
                            !(out.refilled && room_at_least > 0),
                            "worker {me} refilled with at least {room_at_least} free slots"
                        );
                    }
                    assert_eq!(alloc.blocks_in_class(CLASS).len(), OBJECTS / SLOTS + refills);
                })
            })
            .collect();
        drop(senders);
        for handle in handles {
            handle.join().expect("worker thread");
        }
    });
    assert_eq!(freed.iter().map(|f| f.load(Ordering::Relaxed)).sum::<usize>(), WORKERS * OBJECTS);
}
