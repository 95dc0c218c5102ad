//! Thread-local allocators (§2.1.1).
//!
//! Each worker thread serves allocations from blocks it owns, falling back
//! to the process-wide allocator only to fetch a whole new block. The
//! compaction leader pulls low-occupancy blocks out of thread allocators
//! during the collection phase (§3.1.4) — ownership transfer, never shared
//! mutation.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::Rng;

use crate::block::{Block, ObjectSlot};
use crate::classes::ClassId;
use crate::process::{AllocError, ProcessAllocator, SharedBlock};
use crate::room::BinRoom;

/// Result of a thread-local allocation.
#[derive(Debug, Clone)]
pub struct AllocOutcome {
    /// The block the object landed in.
    pub block: SharedBlock,
    /// Slot within the block.
    pub slot: ObjectSlot,
    /// The object's block-local random ID.
    pub id: u32,
    /// Virtual address of the object (block base + slot offset).
    pub vaddr: u64,
    /// Whether a fresh block had to be fetched from the process-wide
    /// allocator (costs an extra ~5 µs in the paper, §4.1).
    pub refilled: bool,
}

/// The blocks of one size class, oldest first, and which of them have room
/// (kept current by the blocks themselves, see [`BinRoom`]).
#[derive(Default)]
struct Bin {
    blocks: Vec<SharedBlock>,
    room: Arc<BinRoom>,
}

impl Bin {
    /// Appends `block` — held by the caller, locked or not yet shared — as
    /// the newest; the caller pushes its handle.
    fn bind_newest(&self, block: &mut Block) {
        block.set_bin(Some((self.room.clone(), self.blocks.len())));
    }

    /// `Vec::swap_remove`, telling both blocks involved where they are now.
    fn swap_remove(&mut self, pos: usize) -> SharedBlock {
        let removed = self.blocks.swap_remove(pos);
        removed.lock().set_bin(None);
        if let Some(moved) = self.blocks.get(pos) {
            moved.lock().set_bin(Some((self.room.clone(), pos)));
        }
        removed
    }

    /// Removes and returns the blocks `give` selects, visiting the bin the
    /// way a `swap_remove` sweep does (the order is part of the seeded
    /// behaviour: it decides where adopted blocks land later).
    fn drain_where(&mut self, mut give: impl FnMut(&Block) -> bool, out: &mut Vec<SharedBlock>) {
        let mut i = 0;
        while i < self.blocks.len() {
            if give(&self.blocks[i].lock()) {
                out.push(self.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
}

/// A per-worker allocator: one bin of blocks per size class.
pub struct ThreadAllocator {
    id: u16,
    bins: Vec<Bin>,
}

impl std::fmt::Debug for ThreadAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadAllocator")
            .field("id", &self.id)
            .field("blocks", &self.block_count())
            .finish()
    }
}

impl ThreadAllocator {
    /// Creates an empty allocator for worker `id` over `n_classes` classes.
    pub fn new(id: u16, n_classes: usize) -> Self {
        ThreadAllocator { id, bins: (0..n_classes).map(|_| Bin::default()).collect() }
    }

    /// The owning worker's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Total blocks currently owned.
    fn block_count(&self) -> usize {
        self.bins.iter().map(|bin| bin.blocks.len()).sum()
    }

    /// Blocks owned in one class.
    pub fn blocks_in_class(&self, class: ClassId) -> &[SharedBlock] {
        &self.bins[class.0 as usize].blocks
    }

    /// Allocates an object of `class` in the newest owned block with room
    /// (the "current" block, then older partials), refilling from `proc`
    /// when every owned block of the class is full.
    pub fn alloc(
        &mut self,
        class: ClassId,
        proc: &ProcessAllocator,
        rng: &mut impl Rng,
    ) -> Result<AllocOutcome, AllocError> {
        let bin = &mut self.bins[class.0 as usize];
        // A block clears its own bit the moment it fills, so a position
        // whose block turns out full is not offered again.
        while let Some(pos) = bin.room.newest() {
            let block = &bin.blocks[pos];
            let mut b = block.lock();
            if let Some((id, slot)) = b.alloc_object(rng) {
                let vaddr = b.slot_vaddr(slot);
                drop(b);
                return Ok(AllocOutcome { block: block.clone(), slot, id, vaddr, refilled: false });
            }
        }
        // Refill: fetch a new block from the process-wide allocator.
        let mut block = proc.create_block(class, self.id)?;
        let (id, slot) = block.alloc_object(rng).expect("fresh block must have room");
        let vaddr = block.slot_vaddr(slot);
        bin.bind_newest(&mut block);
        let shared: SharedBlock = Arc::new(Mutex::new(block));
        bin.blocks.push(shared.clone());
        Ok(AllocOutcome { block: shared, slot, id, vaddr, refilled: true })
    }

    /// Adopts a block (e.g. the merged result the compaction leader keeps,
    /// or a block handed back after compaction).
    pub fn adopt(&mut self, block: SharedBlock) {
        let mut b = block.lock();
        b.set_owner(self.id);
        let bin = &mut self.bins[b.class().0 as usize];
        bin.bind_newest(&mut b);
        drop(b);
        bin.blocks.push(block);
    }

    /// Removes and returns every empty block of every class (empty blocks
    /// can be returned to the process-wide allocator; partially used ones
    /// cannot — the root cause of fragmentation, §2.1.2).
    pub fn take_empty_blocks(&mut self) -> Vec<SharedBlock> {
        let mut out = Vec::new();
        for bin in &mut self.bins {
            bin.drain_where(Block::is_empty, &mut out);
        }
        out
    }

    /// The collection-phase reply (§3.1.4): removes and returns blocks of
    /// `class` whose occupancy is at most `max_occupancy` (and not empty —
    /// empty blocks are released, not compacted).
    pub fn collect_for_compaction(
        &mut self,
        class: ClassId,
        max_occupancy: f64,
    ) -> Vec<SharedBlock> {
        let mut out = Vec::new();
        self.bins[class.0 as usize]
            .drain_where(|b| !b.is_empty() && b.occupancy() <= max_occupancy, &mut out);
        out
    }

    /// Removes a specific block from its class bin (e.g. when the server
    /// releases an emptied block back to the process-wide allocator).
    /// Returns `true` if the block was owned here.
    pub fn remove_block(&mut self, class: ClassId, block: &SharedBlock) -> bool {
        let bin = &mut self.bins[class.0 as usize];
        let Some(pos) = block.lock().pos_in(&bin.room) else {
            return false;
        };
        debug_assert!(Arc::ptr_eq(&bin.blocks[pos], block));
        bin.swap_remove(pos);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::AllocConfig;
    use corm_sim_mem::{AddressSpace, PhysicalMemory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ProcessAllocator, ThreadAllocator, StdRng) {
        let phys = Arc::new(PhysicalMemory::new());
        let aspace = Arc::new(AddressSpace::new(phys.clone()));
        let cfg = AllocConfig { file_bytes: 64 * 1024, ..AllocConfig::default() };
        let n = cfg.classes.len();
        (
            ProcessAllocator::new(phys, aspace, cfg),
            ThreadAllocator::new(0, n),
            StdRng::seed_from_u64(9),
        )
    }

    #[test]
    fn first_alloc_refills_then_reuses() {
        let (proc, mut ta, mut rng) = setup();
        let class = ClassId(4); // 64-byte objects → 64 per 4 KiB block
        let first = ta.alloc(class, &proc, &mut rng).unwrap();
        assert!(first.refilled);
        let second = ta.alloc(class, &proc, &mut rng).unwrap();
        assert!(!second.refilled);
        assert_eq!(ta.block_count(), 1);
        assert_ne!(first.vaddr, second.vaddr);
    }

    #[test]
    fn refills_when_block_full() {
        let (proc, mut ta, mut rng) = setup();
        let class = ClassId(18); // 4096-byte objects → 1 per block
        let a = ta.alloc(class, &proc, &mut rng).unwrap();
        let b = ta.alloc(class, &proc, &mut rng).unwrap();
        assert!(a.refilled && b.refilled);
        assert_eq!(ta.block_count(), 2);
    }

    #[test]
    fn free_then_realloc_same_block() {
        let (proc, mut ta, mut rng) = setup();
        let class = ClassId(4);
        let out = ta.alloc(class, &proc, &mut rng).unwrap();
        out.block.lock().free_slot(out.slot).unwrap();
        let again = ta.alloc(class, &proc, &mut rng).unwrap();
        assert!(!again.refilled);
        assert_eq!(again.slot, out.slot, "lowest free slot reused");
    }

    #[test]
    fn take_empty_blocks_releases_only_empty() {
        let (proc, mut ta, mut rng) = setup();
        let class = ClassId(4);
        let a = ta.alloc(class, &proc, &mut rng).unwrap();
        // Fill one more object so the block is non-empty after one free.
        let _b = ta.alloc(class, &proc, &mut rng).unwrap();
        assert!(ta.take_empty_blocks().is_empty());
        a.block.lock().free_slot(a.slot).unwrap();
        assert!(ta.take_empty_blocks().is_empty(), "still one live object");
        _b.block.lock().free_slot(_b.slot).unwrap();
        let empties = ta.take_empty_blocks();
        assert_eq!(empties.len(), 1);
        assert_eq!(ta.block_count(), 0);
    }

    #[test]
    fn collection_takes_low_occupancy_blocks() {
        let (proc, mut ta, mut rng) = setup();
        let class = ClassId(0); // 16-byte objects → 256 per block
                                // Fill one block completely and another sparsely.
        for _ in 0..256 {
            ta.alloc(class, &proc, &mut rng).unwrap();
        }
        let sparse = ta.alloc(class, &proc, &mut rng).unwrap();
        assert_eq!(ta.block_count(), 2);
        let collected = ta.collect_for_compaction(class, 0.5);
        assert_eq!(collected.len(), 1);
        assert!(Arc::ptr_eq(&collected[0], &sparse.block));
        assert_eq!(ta.block_count(), 1, "full block stays");
    }

    #[test]
    fn adopt_transfers_ownership() {
        let (proc, mut ta, mut rng) = setup();
        let mut other = ThreadAllocator::new(7, size_classes_len());
        let class = ClassId(4);
        let out = ta.alloc(class, &proc, &mut rng).unwrap();
        let [block] = <[_; 1]>::try_from(ta.collect_for_compaction(class, 1.0)).unwrap();
        other.adopt(block.clone());
        assert_eq!(block.lock().owner(), 7);
        assert_eq!(other.block_count(), 1);
        assert_eq!(out.block.lock().owner(), 7);
    }

    fn size_classes_len() -> usize {
        crate::classes::SizeClasses::standard().len()
    }
}
