//! Fixed-size bitsets for conflict checks.
//!
//! Compactability of two blocks is a disjointness test over their occupied
//! object IDs (CoRM) or slot offsets (Mesh). With up to 2^20 possible IDs
//! and tens of thousands of blocks in the memory experiments, word-parallel
//! bitsets keep the greedy pairing pass fast.

/// A fixed-universe bitset over `[0, len)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl BitSet {
    /// Creates an empty set over a universe of `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len, count: 0 }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns `true` if it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        self.count += 1;
        true
    }

    /// Clears bit `i`; returns `true` if it was set.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.count -= 1;
        true
    }

    /// Whether the two sets share any element. Both must have the same
    /// universe.
    pub(crate) fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Number of shared elements.
    pub(crate) fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Adds every element of `other` to `self`.
    pub(crate) fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut count = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            count += a.count_ones() as usize;
        }
        self.count = count;
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| word_bits(wi, w))
    }

    /// Unset bits in ascending order. The last word's bits past the
    /// universe read as clear, hence the bound.
    fn iter_clear(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| word_bits(wi, !w))
            .take_while(move |&i| i < len)
    }

    /// The lowest unset bit, if any (free-slot search).
    pub fn first_clear(&self) -> Option<usize> {
        self.iter_clear().next()
    }

    /// The lowest `n` unset bits, in ascending order (fewer if fewer are
    /// unset).
    pub(crate) fn lowest_clear(&self, n: usize) -> Vec<usize> {
        self.iter_clear().take(n).collect()
    }
}

/// The set bits of word `wi`, as indices into the whole set: one
/// `trailing_zeros` per bit found.
fn word_bits(wi: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let tz = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(wi * 64 + tz)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_count() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn intersects_and_count() {
        let mut a = BitSet::new(256);
        let mut b = BitSet::new(256);
        for i in [1, 70, 200] {
            a.insert(i);
        }
        for i in [2, 71, 201] {
            b.insert(i);
        }
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 0);
        b.insert(70);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 1);
    }

    #[test]
    fn union_updates_count() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);
        a.union_with(&b);
        assert_eq!(a.count(), 3);
        assert!(a.contains(3));
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(200);
        for i in [5, 64, 65, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 65, 199]);
    }

    #[test]
    fn lowest_clear_skips_set_bits() {
        let mut s = BitSet::new(8);
        s.insert(0);
        s.insert(2);
        assert_eq!(s.lowest_clear(3), vec![1, 3, 4]);
        assert_eq!(s.lowest_clear(0), Vec::<usize>::new());
        // Request more than available.
        let mut full = BitSet::new(3);
        full.insert(0);
        full.insert(1);
        full.insert(2);
        assert_eq!(full.lowest_clear(2), Vec::<usize>::new());
        assert_eq!(full.first_clear(), None);
    }

    #[test]
    fn clear_search_is_word_wise_and_bounded_by_the_universe() {
        // 130 bits: two full words and two bits of a third.
        let mut s = BitSet::new(130);
        for i in 0..129 {
            s.insert(i);
        }
        assert_eq!(s.first_clear(), Some(129));
        assert_eq!(s.lowest_clear(5), vec![129], "bits past the universe are not clear");
        s.remove(64);
        s.remove(3);
        assert_eq!(s.first_clear(), Some(3));
        assert_eq!(s.lowest_clear(2), vec![3, 64]);
        assert_eq!(BitSet::new(70).lowest_clear(70), (0..70).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_panics() {
        BitSet::new(10).contains(10);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(11);
        a.intersects(&b);
    }
}
