//! The server-wide block registry.
//!
//! Maps every block-base virtual address to either the live [`Block`]
//! mapped there or — after the block was consumed as a compaction source —
//! an *alias* carrying the target live base plus the alias region's
//! preserved `r_key`.
//!
//! Aliases are kept **flat**: every alias points directly at a live base.
//! When a destination block is itself compacted away later, all aliases
//! pointing at it are re-pointed to the new destination (and the caller
//! remaps their vaddrs onto the new frames). This path compression is what
//! keeps pointer resolution O(1) and prevents dangling chains when an
//! intermediate alias's vaddr is released for reuse (§3.3).
//!
//! # Sharding
//!
//! The registry is split into N shards keyed by a hash of the block base,
//! so pointer resolutions on the RPC hot path from different workers take
//! different locks. Reverse edges (`live base → alias bases`) live in the
//! shard of the live base. Operations that span shards — alias
//! re-pointing in [`BlockRegistry::demote_to_alias`], alias removal —
//! acquire every affected shard **in ascending shard-index order**, which
//! makes the lock order total and the registry deadlock-free. Lookups
//! that cross a shard boundary without holding both locks (an alias whose
//! target hashes elsewhere) re-validate and retry if a concurrent demote
//! re-pointed the alias between the two reads.
//!
//! [`Block`]: corm_alloc::Block

use std::collections::HashSet;

use parking_lot::{RwLock, RwLockWriteGuard};

use corm_alloc::process::SharedBlock;
use corm_sim_core::hash::{FastBuildHasher, FastHashMap};

/// Default shard count: enough to spread 8 workers plus the compaction
/// leader with negligible collision probability.
pub const DEFAULT_REGISTRY_SHARDS: usize = 8;

/// Bound on optimistic cross-shard retries. Each retry requires a whole
/// concurrent demote to land between two reads; hitting the bound means a
/// livelock bug, not contention.
const CROSS_SHARD_RETRIES: usize = 1_000;

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

#[derive(Clone)]
enum RegEntry {
    Live(SharedBlock),
    Alias(AliasInfo),
}

/// A resolved lookup.
#[derive(Clone)]
pub struct Resolved {
    /// The live block the address reaches.
    pub block: SharedBlock,
    /// Base vaddr the live block is actually mapped at.
    pub live_base: u64,
    /// Whether an alias hop was followed.
    pub via_alias: bool,
}

#[derive(Default)]
struct Shard {
    map: FastHashMap<u64, RegEntry>,
    /// live base → alias bases pointing at it (kept in the shard of the
    /// *live* base).
    rev: FastHashMap<u64, HashSet<u64, FastBuildHasher>>,
}

/// Registry of all blocks and aliases on a CoRM node, sharded by block
/// base.
pub struct BlockRegistry {
    shards: Box<[RwLock<Shard>]>,
}

impl Default for BlockRegistry {
    fn default() -> Self {
        Self::with_shards(DEFAULT_REGISTRY_SHARDS)
    }
}

impl BlockRegistry {
    /// Creates an empty registry with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with `shards` shards (clamped to ≥ 1).
    /// One shard reproduces the old single-lock registry exactly.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        BlockRegistry { shards: (0..n).map(|_| RwLock::new(Shard::default())).collect() }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index responsible for a block base. Bases are block
    /// aligned, so the low bits are mixed before reduction.
    fn shard_idx(&self, base: u64) -> usize {
        let h = (base >> 12).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Write-locks the shards at `idxs` in ascending index order (the
    /// registry-wide lock order) and returns the guards tagged with their
    /// index. `idxs` is deduplicated.
    fn lock_ordered(&self, mut idxs: Vec<usize>) -> Vec<(usize, RwLockWriteGuard<'_, Shard>)> {
        idxs.sort_unstable();
        idxs.dedup();
        idxs.into_iter().map(|i| (i, self.shards[i].write())).collect()
    }

    /// Registers a live block at its base vaddr.
    pub fn insert_block(&self, base: u64, block: SharedBlock) {
        let prev =
            self.shards[self.shard_idx(base)].write().map.insert(base, RegEntry::Live(block));
        debug_assert!(prev.is_none(), "base {base:#x} registered twice");
    }

    /// Demotes `base` (a live block consumed by compaction) to an alias of
    /// `target`, carrying its preserved region key. Every alias previously
    /// pointing at `base` is re-pointed at `target`; their infos are
    /// returned so the caller can remap their vaddrs onto the new frames.
    ///
    /// Locks only the affected shards — `base`'s, `target`'s, and those of
    /// the re-pointed aliases — in ascending index order. The alias set is
    /// snapshotted first and re-validated under the locks; a concurrent
    /// mutation of the set restarts the acquisition.
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
        let base_idx = self.shard_idx(base);
        for _ in 0..CROSS_SHARD_RETRIES {
            // Phase 1: snapshot the aliases currently pointing at `base`
            // to learn which shards the re-pointing must lock.
            let mut snapshot: Vec<u64> = {
                let s = self.shards[base_idx].read();
                s.rev.get(&base).map(|set| set.iter().copied().collect()).unwrap_or_default()
            };
            snapshot.sort_unstable();
            let mut idxs: Vec<usize> = vec![base_idx, self.shard_idx(target)];
            idxs.extend(snapshot.iter().map(|&a| self.shard_idx(a)));
            // Phase 2: lock the affected shards in index order and
            // re-validate the snapshot.
            let mut guards = self.lock_ordered(idxs);
            let shard_mut = |guards: &mut Vec<(usize, RwLockWriteGuard<'_, Shard>)>,
                             idx: usize|
             -> *mut Shard {
                let g = guards.iter_mut().find(|(i, _)| *i == idx).expect("locked shard");
                &mut *g.1 as *mut Shard
            };
            // SAFETY: every raw pointer below derives from a write guard
            // held for the whole scope of `guards`; accesses are strictly
            // sequential (no two &mut alive at once across shards, and
            // same-index pointers alias the same uniquely-locked shard).
            let base_shard = shard_mut(&mut guards, base_idx);
            let mut current: Vec<u64> = unsafe { &*base_shard }
                .rev
                .get(&base)
                .map(|set| set.iter().copied().collect())
                .unwrap_or_default();
            current.sort_unstable();
            if current != snapshot {
                drop(guards);
                continue;
            }
            let target_shard = shard_mut(&mut guards, self.shard_idx(target));
            assert!(
                matches!(unsafe { &*target_shard }.map.get(&target), Some(RegEntry::Live(_))),
                "alias target {target:#x} must be live"
            );
            match unsafe { &mut *base_shard }
                .map
                .insert(base, RegEntry::Alias(AliasInfo { target, rkey, pages }))
            {
                Some(RegEntry::Live(_)) => {}
                _ => panic!("demote of non-live base {base:#x}"),
            }
            // Re-point every alias of `base` at `target` (flat invariant).
            let moved: Vec<u64> = unsafe { &mut *base_shard }
                .rev
                .remove(&base)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default();
            let mut repointed = Vec::with_capacity(moved.len());
            for abase in &moved {
                let a_shard = shard_mut(&mut guards, self.shard_idx(*abase));
                if let Some(RegEntry::Alias(info)) = unsafe { &mut *a_shard }.map.get_mut(abase) {
                    info.target = target;
                    repointed.push((*abase, *info));
                } else {
                    unreachable!("rev edge to non-alias {abase:#x}");
                }
            }
            let rev_target = unsafe { &mut *target_shard }.rev.entry(target).or_default();
            rev_target.insert(base);
            for abase in &moved {
                rev_target.insert(*abase);
            }
            return repointed;
        }
        panic!("demote_to_alias({base:#x}) livelocked against concurrent demotes");
    }

    /// Removes an entry. For aliases, drops the reverse edge (locking the
    /// alias's and the target's shards in index order); for live blocks,
    /// asserts no alias still points here (their objects would be
    /// unreachable). Returns the removed alias info, if it was an alias.
    pub fn remove(&self, base: u64) -> Option<AliasInfo> {
        let base_idx = self.shard_idx(base);
        for _ in 0..CROSS_SHARD_RETRIES {
            // Peek to learn whether the entry is an alias and where its
            // reverse edge lives.
            let peeked = {
                let s = self.shards[base_idx].read();
                match s.map.get(&base) {
                    None => return None,
                    Some(RegEntry::Alias(info)) => Some(info.target),
                    Some(RegEntry::Live(_)) => None,
                }
            };
            match peeked {
                Some(target) => {
                    let mut guards = self.lock_ordered(vec![base_idx, self.shard_idx(target)]);
                    // Re-validate: a concurrent demote may have re-pointed
                    // the alias at a different target between the reads.
                    let still = {
                        let (_, g) = guards.iter().find(|(i, _)| *i == base_idx).expect("locked");
                        matches!(g.map.get(&base), Some(RegEntry::Alias(i)) if i.target == target)
                    };
                    if !still {
                        drop(guards);
                        continue;
                    }
                    let info = {
                        let (_, g) =
                            guards.iter_mut().find(|(i, _)| *i == base_idx).expect("locked");
                        match g.map.remove(&base) {
                            Some(RegEntry::Alias(info)) => info,
                            _ => unreachable!("validated alias vanished under lock"),
                        }
                    };
                    let t_idx = self.shard_idx(target);
                    let (_, tg) = guards.iter_mut().find(|(i, _)| *i == t_idx).expect("locked");
                    if let Some(set) = tg.rev.get_mut(&info.target) {
                        set.remove(&base);
                        if set.is_empty() {
                            tg.rev.remove(&info.target);
                        }
                    }
                    return Some(info);
                }
                None => {
                    let mut s = self.shards[base_idx].write();
                    match s.map.get(&base) {
                        None => return None,
                        // Demoted to an alias since the peek: retry down
                        // the alias path.
                        Some(RegEntry::Alias(_)) => continue,
                        Some(RegEntry::Live(_)) => {}
                    }
                    assert!(
                        s.rev.get(&base).is_none_or(|set| set.is_empty()),
                        "removing live block {base:#x} with aliases attached"
                    );
                    s.map.remove(&base);
                    s.rev.remove(&base);
                    return None;
                }
            }
        }
        panic!("remove({base:#x}) livelocked against concurrent demotes");
    }

    /// Resolves a base vaddr to its live block (at most one hop, by the
    /// flat-alias invariant). When the alias and its target live in
    /// different shards the two reads are not atomic; losing the race to a
    /// concurrent demote re-reads through the re-pointed alias.
    pub fn resolve(&self, base: u64) -> Option<Resolved> {
        let base_idx = self.shard_idx(base);
        for _ in 0..CROSS_SHARD_RETRIES {
            let shard = self.shards[base_idx].read();
            let info = match shard.map.get(&base)? {
                RegEntry::Live(block) => {
                    return Some(Resolved {
                        block: block.clone(),
                        live_base: base,
                        via_alias: false,
                    })
                }
                RegEntry::Alias(info) => *info,
            };
            let target_idx = self.shard_idx(info.target);
            if target_idx == base_idx {
                // Same shard: the snapshot is atomic, the flat invariant
                // guarantees a live target.
                match shard.map.get(&info.target) {
                    Some(RegEntry::Live(block)) => {
                        return Some(Resolved {
                            block: block.clone(),
                            live_base: info.target,
                            via_alias: true,
                        })
                    }
                    _ => unreachable!("alias chain despite flat invariant"),
                }
            }
            drop(shard);
            let tshard = self.shards[target_idx].read();
            match tshard.map.get(&info.target) {
                Some(RegEntry::Live(block)) => {
                    return Some(Resolved {
                        block: block.clone(),
                        live_base: info.target,
                        via_alias: true,
                    })
                }
                // The target was demoted (or released) between the two
                // reads; the alias has been re-pointed — retry.
                _ => continue,
            }
        }
        panic!("resolve({base:#x}) livelocked against concurrent demotes");
    }

    /// The alias info at `base`, if it is an alias.
    pub fn alias_info(&self, base: u64) -> Option<AliasInfo> {
        match self.shards[self.shard_idx(base)].read().map.get(&base)? {
            RegEntry::Alias(info) => Some(*info),
            RegEntry::Live(_) => None,
        }
    }

    /// Whether the base is currently an alias.
    pub fn is_alias(&self, base: u64) -> bool {
        self.alias_info(base).is_some()
    }

    /// Alias bases currently pointing at `live_base`.
    pub fn aliases_of(&self, live_base: u64) -> Vec<u64> {
        self.shards[self.shard_idx(live_base)]
            .read()
            .rev
            .get(&live_base)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Snapshot of all live blocks (per-shard snapshots, not a global
    /// atomic view).
    pub fn live_blocks(&self) -> Vec<SharedBlock> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let s = shard.read();
            out.extend(s.map.values().filter_map(|e| match e {
                RegEntry::Live(b) => Some(b.clone()),
                RegEntry::Alias(_) => None,
            }));
        }
        out
    }

    /// Number of entries (live + alias).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().map.is_empty())
    }

    /// Number of alias entries.
    pub fn alias_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().map.values().filter(|e| matches!(e, RegEntry::Alias(_))).count())
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
        let r = reg.resolve(0x1000).unwrap();
        assert!(Arc::ptr_eq(&r.block, &b));
        assert!(!r.via_alias);
        assert_eq!(r.live_base, 0x1000);
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

        let r = reg.resolve(0x1000).unwrap();
        assert!(Arc::ptr_eq(&r.block, &c));
        assert!(r.via_alias);
        assert_eq!(reg.alias_count(), 2);
        let mut aliases = reg.aliases_of(0x3000);
        aliases.sort();
        assert_eq!(aliases, vec![0x1000, 0x2000]);
    }

    #[test]
    fn removing_one_alias_leaves_others_working() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.insert_block(0x3000, mk_block(0x3000));
        reg.demote_to_alias(0x1000, 0x3000, 1, 1);
        reg.demote_to_alias(0x2000, 0x3000, 2, 1);
        let info = reg.remove(0x1000).unwrap();
        assert_eq!(info.rkey, 1);
        assert!(reg.resolve(0x1000).is_none());
        assert!(reg.resolve(0x2000).is_some(), "sibling alias unaffected");
        assert_eq!(reg.aliases_of(0x3000), vec![0x2000]);
    }

    #[test]
    #[should_panic(expected = "with aliases attached")]
    fn removing_live_block_with_aliases_panics() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.demote_to_alias(0x1000, 0x2000, 1, 1);
        reg.remove(0x2000);
    }

    #[test]
    #[should_panic(expected = "must be live")]
    fn demote_to_alias_target_must_be_live() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.demote_to_alias(0x1000, 0x9000, 1, 1);
    }

    #[test]
    fn alias_info_and_is_alias() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        assert!(!reg.is_alias(0x1000));
        reg.demote_to_alias(0x1000, 0x2000, 77, 4);
        let info = reg.alias_info(0x1000).unwrap();
        assert_eq!((info.target, info.rkey, info.pages), (0x2000, 77, 4));
        assert!(reg.alias_info(0x2000).is_none());
    }

    #[test]
    fn live_blocks_excludes_aliases() {
        let reg = BlockRegistry::new();
        reg.insert_block(0x1000, mk_block(0x1000));
        reg.insert_block(0x2000, mk_block(0x2000));
        reg.demote_to_alias(0x1000, 0x2000, 1, 1);
        assert_eq!(reg.live_blocks().len(), 1);
        assert_eq!(reg.len(), 2);
    }

    /// Every public operation behaves identically for 1 shard (the old
    /// single-lock registry) and many shards — including when bases are
    /// chosen to collide in or straddle shards.
    #[test]
    fn shard_count_is_behavior_neutral() {
        for shards in [1, 2, 7, 64] {
            let reg = BlockRegistry::with_shards(shards);
            assert_eq!(reg.shard_count(), shards);
            let bases: Vec<u64> = (1..=24u64).map(|i| i * 0x10_000).collect();
            for &b in &bases {
                reg.insert_block(b, mk_block(b));
            }
            // Demote every odd-indexed base onto its successor.
            for pair in bases.chunks(2) {
                reg.demote_to_alias(pair[0], pair[1], pair[0] as u32, 1);
            }
            assert_eq!(reg.alias_count(), 12, "shards={shards}");
            assert_eq!(reg.len(), 24);
            assert_eq!(reg.live_blocks().len(), 12);
            for pair in bases.chunks(2) {
                let r = reg.resolve(pair[0]).unwrap();
                assert!(r.via_alias);
                assert_eq!(r.live_base, pair[1]);
                assert_eq!(reg.aliases_of(pair[1]), vec![pair[0]]);
            }
            // Remove the aliases again.
            for pair in bases.chunks(2) {
                assert!(reg.remove(pair[0]).is_some());
            }
            assert_eq!(reg.alias_count(), 0);
            assert_eq!(reg.len(), 12);
            assert!(!reg.is_empty());
        }
    }

    /// Concurrent resolvers racing a chain of demotes always land on a
    /// live block — the cross-shard retry path in action.
    #[test]
    fn concurrent_resolve_races_demotes() {
        use std::thread;
        let reg = Arc::new(BlockRegistry::with_shards(4));
        let hops: Vec<u64> = (1..=16u64).map(|i| i * 0x10_000).collect();
        for &b in &hops {
            reg.insert_block(b, mk_block(b));
        }
        let first = hops[0];
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let reg = reg.clone();
            let stop = stop.clone();
            readers.push(thread::spawn(move || {
                let mut seen_alias = false;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = reg.resolve(first).expect("first base always resolvable");
                    seen_alias |= r.via_alias;
                    let b = r.block.lock();
                    assert_eq!(b.vaddr(), r.live_base, "resolved block must be live at its base");
                }
                seen_alias
            }));
        }
        // Demote hop[i] onto hop[i+1] one by one: `first` becomes an alias
        // that is re-pointed down the whole chain.
        for w in hops.windows(2) {
            reg.demote_to_alias(w[0], w[1], w[0] as u32, 1);
            std::thread::yield_now();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let any_alias = readers.into_iter().map(|t| t.join().unwrap()).collect::<Vec<_>>();
        assert!(any_alias.iter().any(|&a| a), "demotes should have been observed");
        let r = reg.resolve(first).unwrap();
        assert_eq!(r.live_base, *hops.last().unwrap());
    }
}
