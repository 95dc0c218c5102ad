//! The node's block directory.
//!
//! One entry per block-base virtual address in use, holding the two facts
//! the server keeps about a base. **What is mapped there**: the live
//! [`Block`], or — after the block was consumed as a compaction source — an
//! *alias* carrying the live base it now shares frames with, the alias
//! region's preserved `r_key` (§3.5), and the target's block itself, so a
//! look-up never needs a second one. **How many live objects are homed
//! there** (§3.3): compaction leaves every source address mapped, so an
//! alias may be unmapped and its address reused only once no live object
//! was first allocated (or re-homed by `ReleasePtr`) at it.
//!
//! Aliases are kept **flat**: every alias points directly at a live base.
//! When a destination block is itself compacted away later, all aliases
//! pointing at it are re-pointed to the new destination (and the caller
//! remaps their vaddrs onto the new frames). This path compression is what
//! keeps pointer resolution one look-up and prevents dangling chains when
//! an intermediate alias's vaddr is released for reuse.
//!
//! # Locking
//!
//! The table is split into eight maps keyed by a hash of the base, so
//! pointer resolutions and home counts from different workers take
//! different locks. Every operation on one entry takes that entry's shard
//! alone. The two that change several entries — [`demote_to_alias`] and
//! [`take_unhomed_alias`], once per merge and once per released alias —
//! take every shard's write lock in ascending order, so each is one
//! critical section against everything else. Nothing is ever acquired
//! under a directory lock.
//!
//! [`Block`]: corm_alloc::Block
//! [`demote_to_alias`]: BlockRegistry::demote_to_alias
//! [`take_unhomed_alias`]: BlockRegistry::take_unhomed_alias

use parking_lot::{RwLock, RwLockWriteGuard};

use corm_alloc::process::SharedBlock;
use corm_sim_core::hash::FastHashMap;
use corm_sim_core::prefetch_lines;

/// Shard count: enough to spread 8 workers plus the compaction leader with
/// negligible collision probability.
const SHARDS: usize = 8;

/// Metadata kept for an alias base: where it points and the NIC region
/// that still covers it (its `r_key` is preserved for clients, §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasInfo {
    /// Live base the alias resolves to.
    pub target: u64,
    /// The alias region's remote key.
    pub rkey: u32,
    /// Pages in the alias mapping.
    pub pages: usize,
}

enum Slot {
    /// A live block, and the alias bases pointing at it in the order they
    /// became its aliases.
    Live { block: SharedBlock, aliases: Vec<u64> },
    /// An alias and the block of its live target.
    Alias { info: AliasInfo, block: SharedBlock },
}

struct Entry {
    slot: Slot,
    /// Live objects homed at this base.
    homed: u64,
}

type Shard = FastHashMap<u64, Entry>;

/// Directory of all blocks and aliases on a CoRM node, sharded by block
/// base.
pub struct BlockRegistry {
    shards: [RwLock<Shard>; SHARDS],
}

impl Default for BlockRegistry {
    fn default() -> Self {
        BlockRegistry { shards: std::array::from_fn(|_| RwLock::new(Shard::default())) }
    }
}

/// The shard index responsible for a block base. Bases are block aligned,
/// so the low bits are mixed before reduction.
fn shard_idx(base: u64) -> usize {
    let h = (base >> 12).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % SHARDS
}

impl BlockRegistry {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, base: u64) -> &RwLock<Shard> {
        &self.shards[shard_idx(base)]
    }

    /// Write-locks every shard, in ascending index order.
    fn lock_all(&self) -> [RwLockWriteGuard<'_, Shard>; SHARDS] {
        std::array::from_fn(|i| self.shards[i].write())
    }

    /// Registers a live block at its base vaddr, homing nothing yet.
    pub fn insert_block(&self, base: u64, block: SharedBlock) {
        let entry = Entry { slot: Slot::Live { block, aliases: Vec::new() }, homed: 0 };
        let prev = self.shard(base).write().insert(base, entry);
        debug_assert!(prev.is_none(), "base {base:#x} registered twice");
    }

    /// Resolves a base vaddr to the live block its frames belong to: the
    /// block mapped there, or an alias's target.
    pub fn resolve(&self, base: u64) -> Option<SharedBlock> {
        match &self.shard(base).read().get(&base)?.slot {
            Slot::Live { block, .. } | Slot::Alias { block, .. } => Some(block.clone()),
        }
    }

    /// Hints every line of the block [`Self::resolve`] would return for
    /// `base` — the lock word, the fields and the table headers a handler
    /// reads once it has the lock — without taking a handle to it.
    pub(crate) fn hint(&self, base: u64) {
        if let Some(entry) = self.shard(base).read().get(&base) {
            let (Slot::Live { block, .. } | Slot::Alias { block, .. }) = &entry.slot;
            prefetch_lines(&**block);
        }
    }

    /// The alias info at `base`, if it is an alias.
    pub fn alias_info(&self, base: u64) -> Option<AliasInfo> {
        match self.shard(base).read().get(&base)?.slot {
            Slot::Alias { info, .. } => Some(info),
            Slot::Live { .. } => None,
        }
    }

    /// Records an object allocated at, or re-homed to, `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not in the directory.
    pub fn home_inc(&self, base: u64) {
        let mut shard = self.shard(base).write();
        let entry =
            shard.get_mut(&base).unwrap_or_else(|| panic!("inc of untracked home {base:#x}"));
        entry.homed += 1;
    }

    /// Records the death (free or release) of an object homed at `base`.
    /// Returns the remaining count.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not in the directory, or on underflow — a double
    /// free the server should have caught.
    pub fn home_dec(&self, base: u64) -> u64 {
        let mut shard = self.shard(base).write();
        let entry =
            shard.get_mut(&base).unwrap_or_else(|| panic!("dec of untracked home {base:#x}"));
        assert!(entry.homed > 0, "home count underflow at {base:#x}");
        entry.homed -= 1;
        entry.homed
    }

    /// Live objects homed at `base` (0 for a base not in the directory).
    pub fn homed(&self, base: u64) -> u64 {
        self.shard(base).read().get(&base).map_or(0, |e| e.homed)
    }

    /// Demotes `base` (a live block consumed by compaction) to an alias of
    /// `target`, carrying its preserved region key; its home count stays
    /// with it. Every alias previously pointing at `base` is re-pointed at
    /// `target`; their infos are returned, in the order they became aliases
    /// of `base`, so the caller can remap their vaddrs onto the new frames.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a live block or `target` is not live.
    pub fn demote_to_alias(
        &self,
        base: u64,
        target: u64,
        rkey: u32,
        pages: usize,
    ) -> Vec<(u64, AliasInfo)> {
        let mut shards = self.lock_all();
        let block = match shards[shard_idx(target)].get(&target) {
            Some(Entry { slot: Slot::Live { block, .. }, .. }) => block.clone(),
            _ => panic!("alias target {target:#x} must be live"),
        };
        let Some(Entry { slot: slot @ Slot::Live { .. }, .. }) =
            shards[shard_idx(base)].get_mut(&base)
        else {
            panic!("demote of non-live base {base:#x}");
        };
        let info = AliasInfo { target, rkey, pages };
        let Slot::Live { aliases: moved, .. } =
            std::mem::replace(slot, Slot::Alias { info, block: block.clone() })
        else {
            unreachable!("matched live above");
        };
        // Re-point every alias of `base` at `target` (flat invariant).
        let mut repointed = Vec::with_capacity(moved.len());
        for &abase in &moved {
            match shards[shard_idx(abase)].get_mut(&abase) {
                Some(Entry { slot: Slot::Alias { info, block: held }, .. }) => {
                    info.target = target;
                    *held = block.clone();
                    repointed.push((abase, *info));
                }
                _ => unreachable!("back-edge to non-alias {abase:#x}"),
            }
        }
        match shards[shard_idx(target)].get_mut(&target) {
            Some(Entry { slot: Slot::Live { aliases, .. }, .. }) => {
                aliases.extend(moved);
                aliases.push(base);
            }
            _ => unreachable!("target checked live under the same locks"),
        }
        repointed
    }

    /// The §3.3 reuse decision: if `base` is an alias *and* no live object
    /// is homed there, removes it (and its target's back-edge) and returns
    /// its info — the caller then owns the region and the mapping and must
    /// release both. Of two racing callers exactly one gets the alias.
    pub fn take_unhomed_alias(&self, base: u64) -> Option<AliasInfo> {
        let unhomed_alias = |shard: &Shard| match shard.get(&base) {
            Some(Entry { slot: Slot::Alias { info, .. }, homed: 0 }) => Some(*info),
            _ => None,
        };
        // The common caller freed the last object of a live block: one
        // shard's read lock answers it.
        unhomed_alias(&self.shard(base).read())?;
        let mut shards = self.lock_all();
        let info = unhomed_alias(&shards[shard_idx(base)])?;
        shards[shard_idx(base)].remove(&base);
        match shards[shard_idx(info.target)].get_mut(&info.target) {
            Some(Entry { slot: Slot::Live { aliases, .. }, .. }) => aliases.retain(|&a| a != base),
            _ => unreachable!("alias target {:#x} not live despite flat invariant", info.target),
        }
        Some(info)
    }

    /// Removes the emptied live block at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not live, if an alias still points here (its
    /// objects would be unreachable), or if an object is still homed here.
    pub fn remove_live(&self, base: u64) {
        let mut shard = self.shard(base).write();
        match shard.get(&base) {
            Some(Entry { slot: Slot::Live { aliases, .. }, homed }) => {
                assert!(aliases.is_empty(), "removing live block {base:#x} with aliases attached");
                assert_eq!(*homed, 0, "removing live block {base:#x} with homed objects");
            }
            _ => panic!("remove_live of non-live base {base:#x}"),
        }
        shard.remove(&base);
    }

    /// Snapshot of all live blocks (per-shard snapshots, not a global
    /// atomic view).
    pub fn live_blocks(&self) -> Vec<SharedBlock> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().values().filter_map(|e| match &e.slot {
                Slot::Live { block, .. } => Some(block.clone()),
                Slot::Alias { .. } => None,
            }));
        }
        out
    }

    /// Number of entries (live + alias).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Number of alias entries.
    pub fn alias_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().filter(|e| matches!(e.slot, Slot::Alias { .. })).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_alloc::{Block, BlockId, ClassId};
    use corm_sim_mem::{FileId, FrameId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn mk_block(base: u64) -> SharedBlock {
        Arc::new(Mutex::new(Block::new(
            BlockId(base),
            ClassId(0),
            16,
            base,
            1,
            FileId(1),
            0,
            vec![FrameId(0)],
            1 << 16,
            0,
        )))
    }

    #[test]
    fn insert_and_resolve_direct() {
        let reg = BlockRegistry::new();
        let b = mk_block(0x1000);
        reg.insert_block(0x1000, b.clone());
        assert!(Arc::ptr_eq(&reg.resolve(0x1000).unwrap(), &b));
        assert!(reg.resolve(0x2000).is_none());
    }

    #[test]
    fn demote_repoints_existing_aliases_flat() {
        // A→B, then B merged into C: A must point directly at C.
        let reg = BlockRegistry::new();
        let c = mk_block(0x3000);
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.insert_block(0x3000, c.clone());
        let repointed = reg.demote_to_alias(0x1000, 0x2000, 11, 1);
        assert!(repointed.is_empty());
        let repointed = reg.demote_to_alias(0x2000, 0x3000, 22, 1);
        assert_eq!(repointed.len(), 1);
        assert_eq!(repointed[0].0, 0x1000);
        assert_eq!(repointed[0].1.target, 0x3000);
        assert_eq!(repointed[0].1.rkey, 11, "alias keeps its own rkey");

        assert!(Arc::ptr_eq(&reg.resolve(0x1000).unwrap(), &c));
        assert!(Arc::ptr_eq(&reg.resolve(0x2000).unwrap(), &c));
        assert_eq!(reg.alias_info(0x1000).unwrap().target, 0x3000);
        assert_eq!(reg.alias_count(), 2);
    }

    #[test]
    fn taking_one_alias_leaves_others_working() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.insert_block(0x3000, mk_block(0x3000));
        reg.insert_block(0x4000, mk_block(0x4000));
        reg.demote_to_alias(0x1000, 0x3000, 1, 1);
        reg.demote_to_alias(0x2000, 0x3000, 2, 1);
        let info = reg.take_unhomed_alias(0x1000).unwrap();
        assert_eq!(info.rkey, 1);
        assert!(reg.resolve(0x1000).is_none());
        assert!(reg.resolve(0x2000).is_some(), "sibling alias unaffected");
        // The back-edge went with it: only the sibling is re-pointed.
        let repointed = reg.demote_to_alias(0x3000, 0x4000, 3, 1);
        assert_eq!(repointed.iter().map(|r| r.0).collect::<Vec<_>>(), vec![0x2000]);
    }

    #[test]
    fn alias_is_taken_only_once_it_homes_nothing() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.home_inc(0x1000);
        reg.home_inc(0x2000);
        assert_eq!(reg.take_unhomed_alias(0x1000), None, "a live block is not an alias");
        reg.demote_to_alias(0x1000, 0x2000, 7, 1);
        assert_eq!(reg.homed(0x1000), 1, "the home count stays with the demoted base");
        assert_eq!(reg.take_unhomed_alias(0x1000), None, "an object is still homed there");
        assert_eq!(reg.home_dec(0x1000), 0);
        assert_eq!(reg.take_unhomed_alias(0x1000).map(|i| i.rkey), Some(7));
        assert_eq!(reg.take_unhomed_alias(0x1000), None, "taken exactly once");
        assert_eq!(reg.take_unhomed_alias(0x9000), None, "never-used addresses are no alias");
        assert_eq!((reg.len(), reg.alias_count()), (1, 0));
    }

    #[test]
    fn inc_dec_lifecycle() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.home_inc(0x1000);
        reg.home_inc(0x1000);
        reg.home_inc(0x2000);
        assert_eq!(reg.homed(0x1000), 2);
        assert_eq!(reg.home_dec(0x1000), 1);
        assert_eq!(reg.home_dec(0x1000), 0);
        assert_eq!(reg.homed(0x1000), 0);
        assert_eq!(reg.homed(0x2000), 1);
        assert_eq!(reg.homed(0x9999), 0, "never-used addresses home nothing");
        reg.remove_live(0x1000);
        assert!(reg.resolve(0x1000).is_none());
    }

    #[test]
    #[should_panic(expected = "untracked home")]
    fn dec_of_untracked_panics() {
        BlockRegistry::new().home_dec(0x1000);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dec_below_zero_panics() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.home_dec(0x1000);
    }

    #[test]
    #[should_panic(expected = "with aliases attached")]
    fn removing_live_block_with_aliases_panics() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.demote_to_alias(0x1000, 0x2000, 1, 1);
        reg.remove_live(0x2000);
    }

    #[test]
    #[should_panic(expected = "with homed objects")]
    fn removing_live_block_with_homed_objects_panics() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.home_inc(0x1000);
        reg.remove_live(0x1000);
    }

    #[test]
    #[should_panic(expected = "must be live")]
    fn demote_to_alias_target_must_be_live() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.demote_to_alias(0x1000, 0x9000, 1, 1);
    }

    #[test]
    fn alias_info_of_alias_and_live() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        assert!(reg.alias_info(0x1000).is_none());
        reg.demote_to_alias(0x1000, 0x2000, 77, 4);
        let info = reg.alias_info(0x1000).unwrap();
        assert_eq!((info.target, info.rkey, info.pages), (0x2000, 77, 4));
        assert!(reg.alias_info(0x2000).is_none());
    }

    #[test]
    fn live_blocks_excludes_aliases() {
        let reg = BlockRegistry::new();
        assert!(reg.is_empty());
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.demote_to_alias(0x1000, 0x2000, 1, 1);
        assert_eq!(reg.live_blocks().len(), 1);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }
}
