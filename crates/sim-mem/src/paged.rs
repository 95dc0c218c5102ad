//! A sparse, direct-indexed table for densely issued integer keys.
//!
//! Virtual page numbers, MTT slots and region keys are all handed out by
//! bump counters: live keys sit in dense runs, retired keys never come
//! back. [`PagedTable`] is the two-level radix real hardware uses for such
//! keys — a small directory over fixed-size leaves of slots — so a look-up
//! reads one directory bucket (a handful of lines that stay cached) and
//! exactly one line of the leaf. A leaf counts its live slots and is
//! dropped when the last one goes, which bounds the table by the live key
//! window instead of by every key ever issued.

use corm_sim_core::hash::FastHashMap;

const LEAF_BITS: u32 = 9;
/// Slots per leaf.
pub const LEAF_SLOTS: usize = 1 << LEAF_BITS;

struct Leaf<T> {
    live: u32,
    slots: Box<[Option<T>; LEAF_SLOTS]>,
}

/// A map from `u64` indexes to `T`, stored as a directory of fixed leaves.
///
/// A vacant slot is `None`; give `T` a niche (a `NonZero*` or `bool` field)
/// and the option costs no space.
pub struct PagedTable<T> {
    dir: FastHashMap<u64, Leaf<T>>,
    len: usize,
}

impl<T> Default for PagedTable<T> {
    fn default() -> Self {
        PagedTable { dir: FastHashMap::default(), len: 0 }
    }
}

impl<T> PagedTable<T> {
    #[inline]
    fn split(idx: u64) -> (u64, usize) {
        (idx >> LEAF_BITS, (idx as usize) & (LEAF_SLOTS - 1))
    }

    /// The value at `idx`, if any.
    #[inline]
    pub fn get(&self, idx: u64) -> Option<&T> {
        let (key, slot) = Self::split(idx);
        self.dir.get(&key)?.slots[slot].as_ref()
    }

    /// The value at `idx`, if any, for update in place.
    #[inline]
    pub fn get_mut(&mut self, idx: u64) -> Option<&mut T> {
        let (key, slot) = Self::split(idx);
        self.dir.get_mut(&key)?.slots[slot].as_mut()
    }

    /// Stores `value` at `idx`, returning what it replaced.
    pub fn insert(&mut self, idx: u64, value: T) -> Option<T> {
        let (key, slot) = Self::split(idx);
        let leaf = self
            .dir
            .entry(key)
            .or_insert_with(|| Leaf { live: 0, slots: Box::new(std::array::from_fn(|_| None)) });
        let old = leaf.slots[slot].replace(value);
        if old.is_none() {
            leaf.live += 1;
            self.len += 1;
        }
        old
    }

    /// Removes the value at `idx`, dropping its leaf if that was the last.
    pub fn remove(&mut self, idx: u64) -> Option<T> {
        let (key, slot) = Self::split(idx);
        let leaf = self.dir.get_mut(&key)?;
        let old = leaf.slots[slot].take()?;
        leaf.live -= 1;
        self.len -= 1;
        if leaf.live == 0 {
            self.dir.remove(&key);
        }
        Some(old)
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of resident leaves.
    pub fn leaves(&self) -> usize {
        self.dir.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace_remove() {
        let mut t = PagedTable::default();
        assert_eq!(t.insert(7, 'a'), None);
        assert_eq!(t.insert(7, 'b'), Some('a'));
        assert_eq!(t.get(7), Some(&'b'));
        *t.get_mut(7).unwrap() = 'c';
        assert_eq!((t.len(), t.leaves()), (1, 1));
        assert_eq!(t.remove(7), Some('c'));
        assert_eq!(t.remove(7), None);
        assert!(t.is_empty());
        assert_eq!(t.get(7), None);
    }

    #[test]
    fn far_apart_indexes_cost_one_leaf_each_and_empty_leaves_go() {
        let mut t = PagedTable::default();
        t.insert(0, 0u8);
        t.insert(LEAF_SLOTS as u64 - 1, 1);
        assert_eq!(t.leaves(), 1);
        t.insert(1 << 40, 2);
        assert_eq!(t.leaves(), 2);
        t.remove(0);
        assert_eq!(t.leaves(), 2);
        t.remove(LEAF_SLOTS as u64 - 1);
        assert_eq!((t.len(), t.leaves()), (1, 1));
        assert_eq!(t.get(1 << 40), Some(&2));
    }
}
