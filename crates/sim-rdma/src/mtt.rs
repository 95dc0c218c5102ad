//! One shard of the Memory Translation Table, fused with its slice of the
//! on-chip translation cache.
//!
//! The paper attributes the Zipf-vs-uniform throughput gap (Fig. 12) and
//! the fragmentation slowdown (Fig. 14) to the cache: "RNICs have limited
//! cache for address translation entries, and once the cache is full the
//! MTT will swap and incur in more misses." The cache only ever holds pages
//! the MTT translates, so both live in one [`PagedTable`] slot per page:
//! the translation, plus the page's node in an exact-LRU list when it is
//! cached. A verb reads one slot line per page, then the list nodes it
//! relinks.

use std::num::NonZeroU64;

use corm_sim_mem::{FrameId, PagedTable, Translation};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct MttSlot {
    frame: FrameId,
    /// The page's LRU node, or `NIL` when the translation is not cached.
    node: u32,
    epoch: NonZeroU64,
}

const _: () = assert!(std::mem::size_of::<Option<MttSlot>>() == 16);

/// One node of a shard's recency list. Opaque outside this module: the
/// doorbell's resolve pass only hints the line it sits on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LruNode {
    prev: u32,
    next: u32,
    /// The slot this node caches.
    page: u64,
}

/// The translations of one shard's pages, and up to `capacity` of them
/// cached in least-recently-used order. Pages are named by their index
/// within the shard: the NIC deals page `vpn` to shard `vpn % n` as that
/// shard's page `vpn / n`, so a shard's indexes are as dense as the vpns.
pub(crate) struct MttShard {
    slots: PagedTable<MttSlot>,
    /// Node slab of the cached pages' list, grown to at most `capacity`
    /// nodes; a free node links through `next`.
    nodes: Vec<LruNode>,
    free: u32,
    /// Most recently used.
    head: u32,
    /// Least recently used.
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl MttShard {
    /// A shard caching at most `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "translation cache capacity must be positive");
        MttShard {
            slots: PagedTable::default(),
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// The MTT's translation of `page`, if it has one.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> Option<Translation> {
        let slot = self.slots.get(page)?;
        Some(Translation { frame: slot.frame, epoch: slot.epoch.get() })
    }

    /// The frame the MTT translates `page` to and, when the page is cached,
    /// its node in the recency list. Read-only: promotes and counts nothing.
    #[inline]
    pub(crate) fn peek(&self, page: u64) -> Option<(FrameId, Option<&LruNode>)> {
        let slot = self.slots.get(page)?;
        // `NIL` indexes past any slab: an uncached page has no node.
        Some((slot.frame, self.nodes.get(slot.node as usize)))
    }

    /// Installs or replaces `page`'s translation. Whether the page is
    /// cached does not change.
    pub(crate) fn install(&mut self, page: u64, t: Translation) {
        let epoch = NonZeroU64::new(t.epoch).expect("page-table epochs start at 1");
        match self.slots.get_mut(page) {
            Some(slot) => (slot.frame, slot.epoch) = (t.frame, epoch),
            None => {
                self.slots.insert(page, MttSlot { frame: t.frame, node: NIL, epoch });
            }
        }
    }

    /// Drops `page`'s translation, and its cache entry with it.
    pub(crate) fn remove(&mut self, page: u64) {
        if let Some(slot) = self.slots.remove(page) {
            self.release(slot.node);
        }
    }

    /// Drops `page` from the translation cache only. Counts neither a hit
    /// nor a miss.
    pub(crate) fn uncache(&mut self, page: u64) {
        if let Some(slot) = self.slots.get_mut(page) {
            let node = std::mem::replace(&mut slot.node, NIL);
            self.release(node);
        }
    }

    /// One cache look-up of a page the MTT translates: a hit promotes the
    /// page to most recently used; a miss caches it, evicting the least
    /// recently used page at capacity. Returns whether it hit.
    #[inline]
    pub(crate) fn touch(&mut self, page: u64) -> bool {
        let node = self.slots.get(page).expect("a verb looks up pages the MTT translates").node;
        if node != NIL {
            self.hits += 1;
            if self.head != node {
                self.unlink(node);
                self.push_front(node);
            }
            return true;
        }
        self.misses += 1;
        let node = if self.free != NIL {
            let node = self.free;
            self.free = self.nodes[node as usize].next;
            node
        } else if self.nodes.len() < self.capacity {
            self.nodes.push(LruNode { prev: NIL, next: NIL, page });
            (self.nodes.len() - 1) as u32
        } else {
            let lru = self.tail;
            self.unlink(lru);
            let victim = self.nodes[lru as usize].page;
            self.slots.get_mut(victim).expect("a cached page has a translation").node = NIL;
            lru
        };
        self.nodes[node as usize].page = page;
        self.push_front(node);
        self.slots.get_mut(page).expect("looked up above").node = node;
        false
    }

    /// Whether `page`'s translation is cached. Promotes and counts nothing.
    pub(crate) fn is_cached(&self, page: u64) -> bool {
        self.peek(page).is_some_and(|(_, node)| node.is_some())
    }

    /// Cache look-ups that hit, and that missed.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resident leaves of the slot table.
    #[cfg(test)]
    pub(crate) fn leaves(&self) -> usize {
        self.slots.leaves()
    }

    /// The cached pages, most recently used first.
    #[cfg(test)]
    pub(crate) fn lru(&self) -> Vec<u64> {
        let node = |n: u32| (n != NIL).then(|| self.nodes[n as usize]);
        std::iter::successors(node(self.head), |n| node(n.next)).map(|n| n.page).collect()
    }

    /// Takes a cached page's node out of the list and frees it.
    fn release(&mut self, node: u32) {
        if node == NIL {
            return;
        }
        self.unlink(node);
        self.nodes[node as usize].next = self.free;
        self.free = node;
    }

    fn unlink(&mut self, node: u32) {
        let LruNode { prev, next, .. } = self.nodes[node as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, node: u32) {
        let old = std::mem::replace(&mut self.head, node);
        self.nodes[node as usize].prev = NIL;
        self.nodes[node as usize].next = old;
        match old {
            NIL => self.tail = node,
            o => self.nodes[o as usize].prev = node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard with pages `0..pages` translated.
    fn shard(capacity: usize, pages: u64) -> MttShard {
        let mut s = MttShard::new(capacity);
        for p in 0..pages {
            s.install(p, Translation { frame: FrameId(p as u32), epoch: p + 1 });
        }
        s
    }

    #[test]
    fn hit_miss_counting() {
        let mut s = shard(2, 4);
        assert!(!s.touch(1));
        assert!(s.touch(1));
        assert_eq!(s.stats(), (1, 1));
        assert_eq!(s.get(1).unwrap().frame, FrameId(1));
        assert_eq!(s.get(9), None);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut s = shard(2, 4);
        s.touch(1);
        s.touch(2);
        s.touch(1); // promote 1; 2 is now LRU
        s.touch(3);
        assert!(s.is_cached(1) && !s.is_cached(2) && s.is_cached(3));
        assert!(s.get(2).is_some(), "eviction drops the cache entry, not the translation");
    }

    #[test]
    fn update_keeps_cache_position() {
        let mut s = shard(2, 4);
        s.touch(1);
        s.touch(2);
        s.install(1, Translation { frame: FrameId(77), epoch: 99 });
        s.touch(3); // 1 is still LRU: an update does not promote
        assert!(!s.is_cached(1) && s.is_cached(2));
        assert_eq!(s.get(1).unwrap(), Translation { frame: FrameId(77), epoch: 99 });
    }

    #[test]
    fn remove_and_reuse_node() {
        let mut s = shard(2, 5);
        s.touch(1);
        s.touch(2);
        s.remove(1);
        assert_eq!((s.get(1), s.lru()), (None, vec![2]));
        s.touch(3);
        s.touch(4); // evicts 2
        assert!(!s.is_cached(2) && s.is_cached(3) && s.is_cached(4));
        assert_eq!((s.lru(), s.nodes.len()), (vec![4, 3], 2));
        s.uncache(3);
        s.uncache(3);
        assert!(!s.is_cached(3) && s.get(3).is_some());
        assert_eq!(s.stats(), (0, 4), "uncache counts nothing");
    }

    #[test]
    fn capacity_one() {
        let mut s = shard(1, 3);
        assert!(!s.touch(1));
        assert!(!s.touch(2));
        assert!(s.touch(2));
        assert!(!s.is_cached(1));
        s.uncache(2);
        assert_eq!((s.head, s.tail, s.lru()), (NIL, NIL, vec![]));
    }

    #[test]
    fn retired_pages_release_their_leaves() {
        // A window of 1,000 pages sliding over 100,000: the table follows it.
        let mut s = MttShard::new(64);
        for p in 0..100_000u64 {
            s.install(p, Translation { frame: FrameId(0), epoch: 1 });
            s.touch(p);
            if p >= 1_000 {
                s.remove(p - 1_000);
            }
            assert!(s.leaves() <= 1_000 / corm_sim_mem::paged::LEAF_SLOTS + 2);
        }
        assert_eq!((s.slots.len(), s.lru().len()), (1_000, 64));
    }
}
