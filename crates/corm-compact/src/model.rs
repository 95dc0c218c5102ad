//! Abstract block occupancy model.
//!
//! For deciding compactability, all that matters about a block is which
//! object IDs and which slot offsets are occupied (§3.1.2). [`BlockModel`]
//! captures exactly that, so memory-capability experiments over millions of
//! objects (Figs. 17–19) run without touching the data plane.

use rand::Rng;

use crate::bitset::BitSet;

/// Occupancy model of one size-class block.
#[derive(Debug, Clone)]
pub struct BlockModel {
    /// Number of object slots in the block (`s` in §3.4).
    slots: usize,
    /// Number of distinct object identifiers (`n` in §3.4). For Mesh-style
    /// offset conflicts this equals `slots`.
    id_space: usize,
    /// Occupied object IDs.
    ids: BitSet,
    /// Occupied slot offsets.
    offsets: BitSet,
}

impl BlockModel {
    /// Creates an empty block with `slots` slots and `id_space` possible
    /// object identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `id_space < slots` (a full block could not assign distinct
    /// IDs) or either is zero.
    pub fn new(slots: usize, id_space: usize) -> Self {
        assert!(slots > 0, "block must have slots");
        assert!(id_space >= slots, "id space {id_space} cannot label {slots} slots");
        BlockModel { slots, id_space, ids: BitSet::new(id_space), offsets: BitSet::new(slots) }
    }

    /// Slots per block.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Identifier-space size.
    pub fn id_space(&self) -> usize {
        self.id_space
    }

    /// Number of live objects.
    pub fn live(&self) -> usize {
        debug_assert_eq!(self.ids.count(), self.offsets.count());
        self.ids.count()
    }

    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.live() as f64 / self.slots as f64
    }

    /// Whether the block holds no objects.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.live() == self.slots
    }

    /// Occupied IDs.
    pub fn ids(&self) -> &BitSet {
        &self.ids
    }

    /// Occupied offsets.
    pub fn offsets(&self) -> &BitSet {
        &self.offsets
    }

    /// Allocates one object at the first free offset with a fresh random ID
    /// drawn uniformly from the unused identifiers (§3.1.2: IDs are random;
    /// collisions within a block are re-drawn). Returns `(id, offset)`, or
    /// `None` if the block is full.
    pub fn alloc(&mut self, rng: &mut impl Rng) -> Option<(usize, usize)> {
        if self.is_full() {
            return None;
        }
        let offset = self.offsets.first_clear()?;
        // Rejection-sample a free ID. The ID space is at least the slot
        // count, so at worst half the draws reject in a degenerate setup;
        // in practice (16-bit IDs) collisions are rare.
        let id = loop {
            let cand = rng.gen_range(0..self.id_space);
            if !self.ids.contains(cand) {
                break cand;
            }
        };
        self.offsets.insert(offset);
        self.ids.insert(id);
        Some((id, offset))
    }

    /// Inserts an object with an explicit ID and offset (used when replaying
    /// traces and when merging blocks). Returns `false` if either is taken.
    pub fn insert(&mut self, id: usize, offset: usize) -> bool {
        if self.ids.contains(id) || self.offsets.contains(offset) {
            return false;
        }
        self.ids.insert(id);
        self.offsets.insert(offset);
        true
    }

    /// Frees the object with the given ID and offset.
    pub fn free(&mut self, id: usize, offset: usize) -> bool {
        let had = self.ids.remove(id);
        let had_off = self.offsets.remove(offset);
        debug_assert_eq!(had, had_off, "id/offset bookkeeping diverged");
        had
    }

    /// Whether `other` can be merged into `self` under CoRM's rule:
    /// disjoint ID sets and the union fitting the slot count (§3.4).
    pub fn corm_compactable(&self, other: &BlockModel) -> bool {
        self.live() + other.live() <= self.slots && !self.ids.intersects(&other.ids)
    }

    /// Whether `other` can be merged into `self` under Mesh's rule:
    /// disjoint *offset* sets (objects cannot move).
    pub fn mesh_compactable(&self, other: &BlockModel) -> bool {
        !self.offsets.intersects(&other.offsets)
    }

    /// Merges `other` into `self` under the CoRM rule. Objects whose offsets
    /// collide are relocated to the lowest free slots (these become indirect
    /// pointers, §3.2). Returns the number of relocated objects.
    ///
    /// # Panics
    ///
    /// Panics if the blocks are not CoRM-compactable — callers must check
    /// first, mirroring the leader's conflict check.
    pub fn merge_corm(&mut self, other: &BlockModel) -> usize {
        assert!(self.corm_compactable(other), "merge of conflicting blocks");
        let moved = self.offsets.intersection_count(&other.offsets);
        self.ids.union_with(&other.ids);
        // Non-conflicting offsets are preserved; conflicting objects take
        // the lowest free slots.
        let mut relocated = Vec::new();
        for off in other.offsets.iter() {
            if !self.offsets.contains(off) {
                self.offsets.insert(off);
            } else {
                relocated.push(off);
            }
        }
        let free = self.offsets.lowest_clear(relocated.len());
        debug_assert_eq!(free.len(), relocated.len());
        for slot in free {
            self.offsets.insert(slot);
        }
        debug_assert_eq!(self.ids.count(), self.offsets.count());
        moved
    }

    /// Merges `other` into `self` under the Mesh rule (offsets preserved).
    ///
    /// # Panics
    ///
    /// Panics if offsets conflict.
    pub(crate) fn merge_mesh(&mut self, other: &BlockModel) {
        assert!(self.mesh_compactable(other), "merge of conflicting blocks");
        self.offsets.union_with(&other.offsets);
        // IDs are irrelevant for Mesh, but keep the invariant
        // ids.count == offsets.count by unioning disjoint relabels.
        // Mesh blocks are constructed with id == offset, so the union holds.
        self.ids.union_with(&other.ids);
        debug_assert_eq!(self.ids.count(), self.offsets.count());
    }

    /// Builds a block with `live` objects at uniformly random offsets and
    /// IDs — the state after an alloc-all/free-some trace.
    pub fn random(rng: &mut impl Rng, slots: usize, id_space: usize, live: usize) -> Self {
        assert!(live <= slots, "cannot place {live} objects in {slots} slots");
        let mut b = BlockModel::new(slots, id_space);
        // Sample offsets without replacement via partial Fisher-Yates.
        let mut offs: Vec<usize> = (0..slots).collect();
        for i in 0..live {
            let j = rng.gen_range(i..slots);
            offs.swap(i, j);
        }
        for &off in &offs[..live] {
            b.offsets.insert(off);
        }
        let mut placed = 0;
        while placed < live {
            let id = rng.gen_range(0..id_space);
            if b.ids.insert(id) {
                placed += 1;
            }
        }
        b
    }

    /// Builds a Mesh-style block (`id == offset` for each object), with
    /// `live` random offsets.
    pub fn random_mesh(rng: &mut impl Rng, slots: usize, live: usize) -> Self {
        assert!(live <= slots);
        let mut b = BlockModel::new(slots, slots);
        let mut offs: Vec<usize> = (0..slots).collect();
        for i in 0..live {
            let j = rng.gen_range(i..slots);
            offs.swap(i, j);
        }
        for &off in &offs[..live] {
            b.offsets.insert(off);
            b.ids.insert(off);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn alloc_until_full() {
        let mut b = BlockModel::new(8, 256);
        let mut r = rng();
        for i in 0..8 {
            let (_, off) = b.alloc(&mut r).unwrap();
            assert_eq!(off, i, "first-fit offsets");
        }
        assert!(b.is_full());
        assert!(b.alloc(&mut r).is_none());
        assert_eq!(b.live(), 8);
        assert_eq!(b.occupancy(), 1.0);
    }

    #[test]
    fn free_then_alloc_reuses_offset() {
        let mut b = BlockModel::new(4, 64);
        let mut r = rng();
        let (id0, off0) = b.alloc(&mut r).unwrap();
        let _ = b.alloc(&mut r).unwrap();
        assert!(b.free(id0, off0));
        assert!(!b.free(id0, off0));
        let (_, off_new) = b.alloc(&mut r).unwrap();
        assert_eq!(off_new, off0);
    }

    #[test]
    fn ids_are_distinct() {
        let mut b = BlockModel::new(64, 64); // tightest possible id space
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let (id, _) = b.alloc(&mut r).unwrap();
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn corm_rule_checks_ids_not_offsets() {
        let mut a = BlockModel::new(8, 256);
        let mut b = BlockModel::new(8, 256);
        // Same offsets, different ids → CoRM ok, Mesh not.
        assert!(a.insert(1, 0));
        assert!(b.insert(2, 0));
        assert!(a.corm_compactable(&b));
        assert!(!a.mesh_compactable(&b));
        // Same ids → CoRM not.
        let mut c = BlockModel::new(8, 256);
        c.insert(1, 5);
        assert!(!a.corm_compactable(&c));
        assert!(a.mesh_compactable(&c));
    }

    #[test]
    fn corm_rule_respects_capacity() {
        let mut a = BlockModel::new(2, 256);
        let mut b = BlockModel::new(2, 256);
        a.insert(1, 0);
        a.insert(2, 1);
        b.insert(3, 0);
        assert!(!a.corm_compactable(&b), "3 objects cannot fit 2 slots");
    }

    #[test]
    fn merge_corm_relocates_conflicting_offsets() {
        let mut dst = BlockModel::new(8, 256);
        let mut src = BlockModel::new(8, 256);
        dst.insert(10, 0);
        dst.insert(11, 3);
        src.insert(20, 0); // offset conflict → relocated
        src.insert(21, 4); // preserved
        let moved = dst.merge_corm(&src);
        assert_eq!(moved, 1);
        assert_eq!(dst.live(), 4);
        assert!(dst.offsets().contains(4));
        assert!(dst.offsets().contains(1), "conflict moved to lowest free");
    }

    #[test]
    fn merge_mesh_preserves_offsets() {
        let mut dst = BlockModel::new(8, 8);
        let mut src = BlockModel::new(8, 8);
        dst.insert(0, 0);
        src.insert(3, 3);
        dst.merge_mesh(&src);
        assert_eq!(dst.live(), 2);
        assert!(dst.offsets().contains(3));
    }

    #[test]
    #[should_panic(expected = "conflicting blocks")]
    fn merge_corm_panics_on_conflict() {
        let mut a = BlockModel::new(4, 16);
        let mut b = BlockModel::new(4, 16);
        a.insert(1, 0);
        b.insert(1, 2);
        a.merge_corm(&b);
    }

    #[test]
    fn random_block_matches_requested_live() {
        let mut r = rng();
        let b = BlockModel::random(&mut r, 128, 1 << 16, 40);
        assert_eq!(b.live(), 40);
        assert_eq!(b.ids().count(), 40);
        assert_eq!(b.offsets().count(), 40);
        let m = BlockModel::random_mesh(&mut r, 128, 40);
        assert_eq!(m.live(), 40);
        // Mesh invariant: id set equals offset set.
        assert_eq!(m.ids().iter().collect::<Vec<_>>(), m.offsets().iter().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot label")]
    fn id_space_smaller_than_slots_rejected() {
        BlockModel::new(16, 8);
    }
}
