//! Data blocks: the unit of transfer between the process-wide and
//! thread-local allocators, and the unit of compaction.
//!
//! A [`Block`] couples three things:
//! - its *physical identity* — the memfd file and page run backing it, plus
//!   the frames themselves;
//! - its *virtual identity* — the vaddr it is mapped at and (once the
//!   server registers it) the RDMA keys;
//! - its *occupancy metadata* — one dense slot→ID array and the ID→slot
//!   table the paper keeps "for fast pointer correction" (§3.1.4), plus a
//!   live count. Everything else (lowest free slot, compactability) is
//!   derived from those two, merge planning included.

use std::sync::Arc;

use rand::Rng;

use corm_sim_core::prefetch_read;
use corm_sim_mem::{FileId, FrameId};

use crate::classes::ClassId;
use crate::room::BinRoom;

/// Globally unique block identifier (for diagnostics and ownership maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// A slot within a block: `byte_offset = slot * gross_object_size`.
pub(crate) type ObjectSlot = u32;

/// `slot_id` entry of a free slot and `id_slot` entry of an empty one; no
/// ID or slot index reaches it (IDs are ≤ 20 bits).
const VACANT: u32 = u32::MAX;

/// [`VACANT`] in a one-byte `id_slot` entry, so the largest block with
/// such entries has this many slots (indices up to one below it).
const NARROW_VACANT: u8 = u8::MAX;

/// `2^32 / φ`: multiplying by it spreads nearby IDs over the high bits,
/// which pick an ID's home entry in `id_slot`.
const FIBONACCI: u32 = 0x9e37_79b9;

/// A memory block holding objects of a single size class.
#[derive(Debug)]
pub struct Block {
    id: BlockId,
    class: ClassId,
    /// Gross object size (header included).
    obj_size: usize,
    /// Virtual base address the block is mapped at.
    vaddr: u64,
    /// Pages backing the block.
    pages: usize,
    /// Physical identity: owning file and first page within it.
    file: FileId,
    file_page: usize,
    /// The physical frames currently backing the block's vaddr.
    frames: Vec<FrameId>,
    /// Number of distinct object IDs (`n` in §3.4), at least the slot count.
    id_space: usize,
    /// Slot → ID, [`VACANT`] where free.
    slot_id: Vec<u32>,
    /// ID → slot: the per-block metadata table for pointer correction.
    /// Open addressing over a power of two of at least twice the slots,
    /// linear probing, backward-shift deletion; an entry is a slot index
    /// or [`VACANT`], and its key is that slot's `slot_id`.
    id_slot: IdTable,
    /// Live objects: the occupied entries of either table.
    live: u32,
    /// The lowest free slot; the slot count when full.
    first_free: ObjectSlot,
    /// RDMA keys once the server registers the block (lkey, rkey).
    keys: Option<(u32, u32)>,
    /// Owning worker thread.
    owner: u16,
    /// The owning allocator's bin and this block's position in it, told
    /// whenever the block turns full or gets room again. Frees come from
    /// any thread holding the block's lock, never through the allocator.
    bin: Option<(Arc<BinRoom>, usize)>,
    /// Set once compaction has merged the block away: its objects live in
    /// the destination and its frames are no longer its own.
    retired: bool,
}

impl Block {
    /// Builds a block of `class` with `obj_size`-byte objects over `pages`
    /// pages mapped at `vaddr`, with an ID space of `id_space` identifiers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: BlockId,
        class: ClassId,
        obj_size: usize,
        vaddr: u64,
        pages: usize,
        file: FileId,
        file_page: usize,
        frames: Vec<FrameId>,
        id_space: usize,
        owner: u16,
    ) -> Self {
        assert_eq!(frames.len(), pages, "frame count must match pages");
        let block_bytes = pages * corm_sim_mem::PAGE_SIZE;
        let slots = block_bytes / obj_size;
        assert!(slots > 0, "object size {obj_size} exceeds block {block_bytes}");
        Block {
            id,
            class,
            obj_size,
            vaddr,
            pages,
            file,
            file_page,
            frames,
            id_space: id_space.max(slots),
            slot_id: vec![VACANT; slots],
            id_slot: IdTable::new(slots),
            live: 0,
            first_free: 0,
            keys: None,
            owner,
            bin: None,
            retired: false,
        }
    }

    /// Unique id of this block.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The block's size class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Gross object size in bytes.
    pub fn obj_size(&self) -> usize {
        self.obj_size
    }

    /// Virtual base address.
    pub fn vaddr(&self) -> u64 {
        self.vaddr
    }

    /// Number of backing pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Block length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.pages * corm_sim_mem::PAGE_SIZE
    }

    /// Physical identity: (file, first page).
    pub fn phys_identity(&self) -> (FileId, usize) {
        (self.file, self.file_page)
    }

    /// The frames currently backing the block.
    pub fn frames(&self) -> &[FrameId] {
        &self.frames
    }

    /// Total object slots.
    pub fn slots(&self) -> usize {
        self.slot_id.len()
    }

    /// Live objects.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.live() as f64 / self.slots() as f64
    }

    /// Whether no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether every slot is taken.
    pub fn is_full(&self) -> bool {
        self.first_free as usize == self.slots()
    }

    /// Registered RDMA keys, if any.
    pub fn keys(&self) -> Option<(u32, u32)> {
        self.keys
    }

    /// Remote key, if registered.
    pub fn rkey(&self) -> Option<u32> {
        self.keys.map(|(_, r)| r)
    }

    /// Attaches RDMA keys after registration.
    pub fn set_keys(&mut self, lkey: u32, rkey: u32) {
        self.keys = Some((lkey, rkey));
    }

    /// Owning worker thread.
    pub fn owner(&self) -> u16 {
        self.owner
    }

    /// Reassigns ownership (blocks move to the compaction leader).
    pub fn set_owner(&mut self, owner: u16) {
        self.owner = owner;
    }

    /// Marks the block merged away. A handle taken before the merge still
    /// reaches it; whoever locks it afterwards must look the address up
    /// again instead of touching its slots.
    pub fn retire(&mut self) {
        self.retired = true;
    }

    /// Whether compaction has merged the block away.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Moves the block to position `bin.1` of an allocator's bin, or out of
    /// any bin: the previous bin forgets it, the new one learns whether it
    /// has room.
    pub(crate) fn set_bin(&mut self, bin: Option<(Arc<BinRoom>, usize)>) {
        self.tell_bin(false);
        self.bin = bin;
        self.tell_bin(!self.is_full());
    }

    /// The block's position in the bin `room` belongs to, if it is there.
    pub(crate) fn pos_in(&self, room: &Arc<BinRoom>) -> Option<usize> {
        self.bin.as_ref().filter(|(r, _)| Arc::ptr_eq(r, room)).map(|&(_, pos)| pos)
    }

    fn tell_bin(&self, has_room: bool) {
        if let Some((room, pos)) = &self.bin {
            room.set(*pos, has_room);
        }
    }

    /// Allocates the lowest free slot with a fresh random object ID drawn
    /// uniformly from the unused identifiers (§3.1.2: IDs are random;
    /// collisions within a block are re-drawn). Returns `(id, slot)`, or
    /// `None` when full.
    pub(crate) fn alloc_object(&mut self, rng: &mut impl Rng) -> Option<(u32, ObjectSlot)> {
        let slot = self.free_slot_hint()?;
        // A draw hits a taken ID with probability live / id_space, so the
        // expected number of draws is id_space / (id_space − live): about
        // one with 16-bit IDs, up to the slot count when the two are equal.
        let (id, entry) = loop {
            let cand = rng.gen_range(0..self.id_space) as u32;
            if let Err(entry) = self.find(cand) {
                break (cand, entry);
            }
        };
        self.place(id, slot, entry);
        Some((id, slot))
    }

    /// Inserts an object with an explicit ID at an explicit slot (used when
    /// compaction moves objects in). Returns `false` on conflict.
    pub fn insert_object(&mut self, id: u32, slot: ObjectSlot) -> bool {
        if self.slot_id[slot as usize] != VACANT {
            return false;
        }
        let Err(entry) = self.find(id) else { return false };
        self.place(id, slot, entry);
        true
    }

    /// Records `id` in the vacant `slot` and in the vacant `id_slot[entry]`
    /// that [`Self::find`] returned for it.
    fn place(&mut self, id: u32, slot: ObjectSlot, entry: usize) {
        debug_assert!(id != VACANT && (id as usize) < self.id_space);
        self.slot_id[slot as usize] = id;
        self.id_slot.set(entry, slot);
        self.live += 1;
        if slot == self.first_free {
            let above = &self.slot_id[slot as usize + 1..];
            let skip = above.iter().position(|&id| id == VACANT).unwrap_or(above.len());
            self.first_free = slot + 1 + skip as ObjectSlot;
            if self.is_full() {
                self.tell_bin(false);
            }
        }
    }

    /// Frees the object in `slot`; returns its ID, or `None` if vacant.
    pub fn free_slot(&mut self, slot: ObjectSlot) -> Option<u32> {
        let id = self.slot_id[slot as usize];
        if id == VACANT {
            return None;
        }
        // Unlinked while `slot_id[slot]` still names `id`: finding the
        // entry reads it.
        let entry = self.find(id).expect("a live ID has an entry");
        debug_assert_eq!(self.id_slot.get(entry), slot);
        self.unlink(entry);
        self.slot_id[slot as usize] = VACANT;
        self.live -= 1;
        if self.is_full() {
            self.tell_bin(true);
        }
        self.first_free = self.first_free.min(slot);
        Some(id)
    }

    /// The slot currently holding object `id` — the metadata lookup used
    /// for pointer correction (§3.2.1).
    pub fn slot_of_id(&self, id: u32) -> Option<ObjectSlot> {
        self.find(id).ok().map(|entry| self.id_slot.get(entry))
    }

    /// `id`'s home entry in `id_slot`: the top log2(len) bits of its
    /// Fibonacci product.
    fn home(&self, id: u32) -> usize {
        let bits = self.id_slot.len().trailing_zeros();
        (id.wrapping_mul(FIBONACCI) >> (32 - bits)) as usize
    }

    /// `Ok` with the `id_slot` index whose slot holds `id`, or `Err` with
    /// the vacant index that ends `id`'s probe, where it would go. Each
    /// step reads one table entry and, for an occupied one, that slot's
    /// `slot_id`.
    fn find(&self, id: u32) -> Result<usize, usize> {
        let mask = self.id_slot.len() - 1;
        let mut entry = self.home(id);
        loop {
            match self.id_slot.get(entry) {
                VACANT => return Err(entry),
                slot if self.slot_id[slot as usize] == id => return Ok(entry),
                _ => entry = (entry + 1) & mask,
            }
        }
    }

    /// Empties `id_slot[hole]` by backward shift: each later entry of the
    /// cluster whose home does not lie after the hole moves into it, and
    /// its old place becomes the hole. No tombstone is left, so a probe
    /// stops at the first vacant entry and the table is never rebuilt.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.id_slot.len() - 1;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let slot = self.id_slot.get(next);
            if slot == VACANT {
                break;
            }
            let home = self.home(self.slot_id[slot as usize]);
            // Distances back from `next`: the entry may move iff the hole
            // is no further from it than its home is.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.id_slot.set(hole, slot);
                hole = next;
            }
        }
        self.id_slot.set(hole, VACANT);
    }

    /// The ID of the object in `slot`, if any.
    pub fn id_at_slot(&self, slot: ObjectSlot) -> Option<u32> {
        self.slot_id.get(slot as usize).copied().filter(|&id| id != VACANT)
    }

    /// Hints the two lines a handler reads to reach `slot`'s bytes: the
    /// slot's `slot_id` entry and the frame of the page the slot starts
    /// in. Reads neither and checks nothing — a slot past the end is
    /// ignored — so the handler that follows behaves the same with or
    /// without it.
    pub fn hint_slot(&self, slot: ObjectSlot) {
        if let Some(id) = self.slot_id.get(slot as usize) {
            prefetch_read(id);
        }
        if let Some(frame) = self.frames.get(self.slot_offset(slot) / corm_sim_mem::PAGE_SIZE) {
            prefetch_read(frame);
        }
    }

    /// The first free slot, if any.
    pub fn free_slot_hint(&self) -> Option<ObjectSlot> {
        (!self.is_full()).then_some(self.first_free)
    }

    /// Byte offset of a slot within the block.
    pub fn slot_offset(&self, slot: ObjectSlot) -> usize {
        slot as usize * self.obj_size
    }

    /// Virtual address of a slot.
    pub fn slot_vaddr(&self, slot: ObjectSlot) -> u64 {
        self.vaddr + self.slot_offset(slot) as u64
    }

    /// The slot containing byte offset `off`, if exactly slot-aligned.
    pub fn slot_of_offset(&self, off: usize) -> Option<ObjectSlot> {
        if !off.is_multiple_of(self.obj_size) {
            return None;
        }
        let slot = off / self.obj_size;
        (slot < self.slots()).then_some(slot as ObjectSlot)
    }

    /// Iterates `(id, slot)` pairs of live objects in slot order.
    pub fn live_objects(&self) -> impl Iterator<Item = (u32, ObjectSlot)> + '_ {
        self.slot_id
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != VACANT)
            .map(|(slot, &id)| (id, slot as ObjectSlot))
    }

    /// Whether `other` can be merged into `self` under CoRM's ID rule:
    /// same class, disjoint ID sets, and the union fitting the slot count
    /// (§3.4).
    pub fn corm_compactable(&self, other: &Block) -> bool {
        self.class == other.class
            && self.obj_size == other.obj_size
            && self.live() + other.live() <= self.slots()
            && other.live_objects().all(|(id, _)| self.find(id).is_err())
    }
}

/// The entries of `Block::id_slot`: one byte each when every slot index
/// and the vacant marker fit in one, four otherwise. Only the width
/// differs, so a block answers every look-up alike in either.
#[derive(Debug)]
enum IdTable {
    /// At most [`NARROW_VACANT`] slots.
    Narrow(Box<[u8]>),
    Wide(Box<[u32]>),
}

impl IdTable {
    /// An empty table for `slots` slots. At most half full, so every probe
    /// ends at a vacant entry.
    fn new(slots: usize) -> Self {
        let len = (2 * slots).next_power_of_two();
        if slots <= NARROW_VACANT as usize {
            IdTable::Narrow(vec![NARROW_VACANT; len].into())
        } else {
            IdTable::Wide(vec![VACANT; len].into())
        }
    }

    fn len(&self) -> usize {
        match self {
            IdTable::Narrow(t) => t.len(),
            IdTable::Wide(t) => t.len(),
        }
    }

    /// Entry `i`: a slot index or [`VACANT`].
    #[inline]
    fn get(&self, i: usize) -> ObjectSlot {
        match self {
            IdTable::Narrow(t) => match t[i] {
                NARROW_VACANT => VACANT,
                slot => slot.into(),
            },
            IdTable::Wide(t) => t[i],
        }
    }

    /// Sets entry `i` to a slot index or [`VACANT`].
    #[inline]
    fn set(&mut self, i: usize, slot: ObjectSlot) {
        match self {
            // A narrow table's slot indices are all below `NARROW_VACANT`,
            // so the clamp changes only `VACANT`, into `NARROW_VACANT`.
            IdTable::Narrow(t) => t[i] = slot.min(NARROW_VACANT.into()) as u8,
            IdTable::Wide(t) => t[i] = slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, HashMap};

    fn mk_block(obj_size: usize, pages: usize) -> Block {
        mk_block_ids(obj_size, pages, 1 << 16)
    }

    fn mk_block_ids(obj_size: usize, pages: usize, id_space: usize) -> Block {
        let frames = (0..pages as u32).map(FrameId).collect();
        Block::new(
            BlockId(1),
            ClassId(0),
            obj_size,
            0x10_0000,
            pages,
            FileId(1),
            0,
            frames,
            id_space,
            0,
        )
    }

    #[test]
    fn benchmark_block_table_is_256_bytes() {
        let b = mk_block(48, 1);
        assert_eq!(b.slots(), 85);
        let IdTable::Narrow(table) = &b.id_slot else { panic!("85 slots take one-byte entries") };
        assert_eq!(std::mem::size_of_val(&**table), 256);
    }

    /// Holds every answer of `b` to a `HashMap` ID → slot, and `b`'s
    /// compactability with `other` (whose IDs are `other_ids`) both ways.
    fn check_against(
        b: &Block,
        refr: &HashMap<u32, ObjectSlot>,
        absent: &[u32],
        other: &Block,
        other_ids: &[u32],
    ) {
        for (&id, &slot) in refr {
            assert_eq!(b.slot_of_id(id), Some(slot), "live id {id}");
        }
        for &id in absent.iter().filter(|id| !refr.contains_key(id)) {
            assert_eq!(b.slot_of_id(id), None, "absent id {id}");
        }
        assert_eq!(b.live(), refr.len());
        let occupied = (0..b.id_slot.len()).filter(|&e| b.id_slot.get(e) != VACANT).count();
        assert_eq!(occupied, refr.len());
        assert_eq!(b.is_empty(), refr.is_empty());
        let by_slot: BTreeMap<ObjectSlot, u32> = refr.iter().map(|(&id, &s)| (s, id)).collect();
        let lowest_free = (0..b.slots() as ObjectSlot).find(|s| !by_slot.contains_key(s));
        assert_eq!(b.free_slot_hint(), lowest_free);
        assert_eq!(b.is_full(), lowest_free.is_none());
        let want: Vec<_> = by_slot.iter().map(|(&s, &id)| (id, s)).collect();
        assert_eq!(b.live_objects().collect::<Vec<_>>(), want);
        let fits = refr.len() + other_ids.len() <= b.slots();
        let merges = fits && other_ids.iter().all(|id| !refr.contains_key(id));
        assert_eq!(b.corm_compactable(other), merges);
        assert_eq!(other.corm_compactable(b), merges);
    }

    /// Seeded random `alloc_object` / `insert_object` / `free_slot`
    /// sequences against a `HashMap` reference. Explicit inserts favour
    /// IDs sharing one home entry (one long cluster) and IDs homed in the
    /// table's last entries (clusters that wrap to index 0), so frees
    /// exercise backward shift across both. A vacant byte equal to a
    /// valid slot index, or one-byte entries chosen for 256 slots, fails
    /// it.
    #[test]
    fn id_table_matches_a_hashmap_reference() {
        // (object size, pages, ID space): 1 slot, the benchmark's 85, 256
        // slots on 8-bit IDs (every ID in use when full), 3 pages, and 255
        // and 256 slots, the last block with one-byte entries and the
        // first without.
        for (obj_size, pages, id_space) in [
            (4096, 1, 1 << 16),
            (48, 1, 1 << 16),
            (16, 1, 256),
            (40, 3, 1 << 20),
            (273, 17, 1 << 16),
            (272, 17, 1 << 16),
        ] {
            let probe = mk_block_ids(obj_size, pages, id_space);
            let narrow = matches!(probe.id_slot, IdTable::Narrow(_));
            assert_eq!(narrow, probe.slots() <= 255, "{} slots", probe.slots());
            let len = probe.id_slot.len();
            let mut by_home: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for id in 0..id_space as u32 {
                by_home.entry(probe.home(id)).or_default().push(id);
            }
            let mut shared = by_home.values().max_by_key(|ids| ids.len()).unwrap().clone();
            shared.truncate(48);
            let wrapping: Vec<u32> = by_home
                .range(len - len.min(4)..)
                .flat_map(|(_, ids)| ids.iter().copied())
                .take(48)
                .collect();
            assert!(shared.len() >= 2 && !wrapping.is_empty());

            let mut other = mk_block_ids(obj_size, pages, id_space);
            let other_ids = [shared[0], wrapping[0]];
            let other_ids = &other_ids[..other.slots().min(2)];
            for (slot, &id) in other_ids.iter().enumerate() {
                assert!(other.insert_object(id, slot as ObjectSlot));
            }

            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut b = mk_block_ids(obj_size, pages, id_space);
                let mut refr: HashMap<u32, ObjectSlot> = HashMap::new();
                let mut pools = [shared.as_slice(), wrapping.as_slice()].concat();
                pools.extend([VACANT, id_space as u32]);
                let slots = b.slots() as ObjectSlot;
                for step in 0..1_500 {
                    // Fill for 200 steps, drain for 200, and so on.
                    let free_odds = if step / 200 % 2 == 0 { 3 } else { 7 };
                    let roll = rng.gen_range(0..10);
                    if roll < free_odds {
                        let slot = rng.gen_range(0..slots);
                        let want = refr.iter().find(|&(_, &s)| s == slot).map(|(&id, _)| id);
                        assert_eq!(b.free_slot(slot), want);
                        if let Some(id) = want {
                            refr.remove(&id);
                        }
                    } else if roll % 2 == 0 {
                        let got = b.alloc_object(&mut rng);
                        let lowest = (0..slots).find(|s| !refr.values().any(|v| v == s));
                        match got {
                            Some((id, slot)) => {
                                assert_eq!(Some(slot), lowest);
                                assert!((id as usize) < id_space);
                                assert!(refr.insert(id, slot).is_none(), "drew live id {id}");
                            }
                            None => assert_eq!(lowest, None),
                        }
                    } else {
                        let id = match rng.gen_range(0..10) {
                            0..=3 => shared[rng.gen_range(0..shared.len())],
                            4..=6 => wrapping[rng.gen_range(0..wrapping.len())],
                            _ => rng.gen_range(0..id_space) as u32,
                        };
                        let slot = rng.gen_range(0..slots);
                        let fits = !refr.contains_key(&id) && !refr.values().any(|&s| s == slot);
                        assert_eq!(b.insert_object(id, slot), fits);
                        if fits {
                            refr.insert(id, slot);
                        }
                    }
                    let mut absent = pools.clone();
                    absent.extend((0..8).map(|_| rng.gen_range(0..id_space) as u32));
                    check_against(&b, &refr, &absent, &other, other_ids);
                }
            }
        }
    }

    #[test]
    fn geometry() {
        let b = mk_block(64, 1);
        assert_eq!(b.slots(), 64);
        assert_eq!(b.len_bytes(), 4096);
        assert_eq!(b.slot_offset(3), 192);
        assert_eq!(b.slot_vaddr(2), 0x10_0000 + 128);
        assert_eq!(b.slot_of_offset(192), Some(3));
        assert_eq!(b.slot_of_offset(100), None, "unaligned offset");
        assert_eq!(b.slot_of_offset(64 * 64), None, "past last slot");
    }

    #[test]
    fn alloc_free_cycle_with_metadata() {
        let mut b = mk_block(512, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let (id, slot) = b.alloc_object(&mut rng).unwrap();
        assert_eq!(b.live(), 1);
        assert_eq!(b.slot_of_id(id), Some(slot));
        assert_eq!(b.id_at_slot(slot), Some(id));
        assert_eq!(b.free_slot(slot), Some(id));
        assert_eq!(b.live(), 0);
        assert_eq!(b.slot_of_id(id), None);
        assert_eq!(b.free_slot(slot), None, "double free detected");
    }

    #[test]
    fn fills_to_capacity() {
        let mut b = mk_block(1024, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..4 {
            b.alloc_object(&mut rng).unwrap();
        }
        assert!(b.is_full());
        assert!(b.alloc_object(&mut rng).is_none());
        assert_eq!(b.live_objects().count(), 4);
    }

    #[test]
    fn insert_object_conflicts_detected() {
        let mut b = mk_block(512, 1);
        assert!(b.insert_object(42, 3));
        assert!(!b.insert_object(42, 5), "duplicate id");
        assert!(!b.insert_object(43, 3), "occupied slot");
        assert!(b.insert_object(43, 4));
        assert_eq!(b.live(), 2);
    }

    #[test]
    fn compactability_requires_same_class_and_disjoint_ids() {
        let mut a = mk_block(512, 1);
        let mut b = mk_block(512, 1);
        a.insert_object(1, 0);
        b.insert_object(2, 0);
        assert!(a.corm_compactable(&b));
        let mut c = mk_block(512, 1);
        c.insert_object(1, 4);
        assert!(!a.corm_compactable(&c));
    }

    #[test]
    fn keys_and_owner_lifecycle() {
        let mut b = mk_block(64, 1);
        assert_eq!(b.keys(), None);
        b.set_keys(7, 8);
        assert_eq!(b.rkey(), Some(8));
        assert_eq!(b.owner(), 0);
        b.set_owner(3);
        assert_eq!(b.owner(), 3);
    }

    #[test]
    fn multi_page_block_geometry() {
        let b = mk_block(4096, 4);
        assert_eq!(b.slots(), 4);
        assert_eq!(b.len_bytes(), 16384);
    }

    #[test]
    fn hinting_a_slot_changes_nothing_and_takes_any_slot() {
        let mut b = mk_block(1024, 2);
        b.insert_object(1, 0);
        b.insert_object(2, 5);
        for slot in [0, 5, 7, 8, u32::MAX] {
            b.hint_slot(slot);
        }
        assert_eq!(b.live_objects().collect::<Vec<_>>(), vec![(1, 0), (2, 5)]);
        assert_eq!(b.free_slot_hint(), Some(1));
        assert_eq!(b.frames(), &[FrameId(0), FrameId(1)]);
    }

    #[test]
    fn free_slot_hint_is_lowest() {
        let mut b = mk_block(1024, 1);
        b.insert_object(1, 0);
        b.insert_object(2, 2);
        assert_eq!(b.free_slot_hint(), Some(1));
    }
}
