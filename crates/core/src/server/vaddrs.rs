//! Virtual-address lifecycle tracking (§3.3).
//!
//! Compaction reduces *physical* memory but leaves every source virtual
//! address mapped (aliased to the destination's frames), so unrestrained
//! compaction would exhaust virtual space. CoRM therefore counts, per home
//! block address, how many objects first allocated there are still live.
//! When the count hits zero — through `Free`s or explicit `ReleasePtr`
//! calls — the address can be unmapped and reused.

use corm_sim_core::hash::FastHashMap;

/// Per-home-vaddr live-object counts.
#[derive(Debug, Default)]
pub struct VaddrTracker {
    counts: FastHashMap<u64, u64>,
    released: u64,
}

impl VaddrTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an object allocated with home `base`.
    pub fn inc(&mut self, base: u64) {
        *self.counts.entry(base).or_insert(0) += 1;
    }

    /// Records the death (free or release) of an object homed at `base`.
    /// Returns the remaining count.
    ///
    /// # Panics
    ///
    /// Panics on underflow — a double free the server should have caught.
    pub fn dec(&mut self, base: u64) -> u64 {
        let c =
            self.counts.get_mut(&base).unwrap_or_else(|| panic!("dec of untracked home {base:#x}"));
        assert!(*c > 0, "home count underflow at {base:#x}");
        *c -= 1;
        let remaining = *c;
        if remaining == 0 {
            self.counts.remove(&base);
        }
        remaining
    }

    /// Live objects homed at `base`.
    pub fn count(&self, base: u64) -> u64 {
        self.counts.get(&base).copied().unwrap_or(0)
    }

    /// Whether no live object is homed at `base` (the §3.3 reuse
    /// condition).
    pub fn releasable(&self, base: u64) -> bool {
        self.count(base) == 0
    }

    /// Records that a vaddr was actually unmapped and recycled.
    pub fn note_released(&mut self) {
        self.released += 1;
    }

    /// Number of vaddrs released over the server's lifetime.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Number of home addresses with live objects.
    pub fn tracked(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_dec_lifecycle() {
        let mut t = VaddrTracker::new();
        t.inc(0x1000);
        t.inc(0x1000);
        t.inc(0x2000);
        assert_eq!(t.count(0x1000), 2);
        assert!(!t.releasable(0x1000));
        assert_eq!(t.dec(0x1000), 1);
        assert_eq!(t.dec(0x1000), 0);
        assert!(t.releasable(0x1000));
        assert_eq!(t.tracked(), 1);
        assert_eq!(t.count(0x9999), 0);
        assert!(t.releasable(0x9999), "never-used addresses are free");
    }

    #[test]
    #[should_panic(expected = "untracked home")]
    fn dec_of_untracked_panics() {
        VaddrTracker::new().dec(0x1000);
    }

    #[test]
    fn released_counter() {
        let mut t = VaddrTracker::new();
        assert_eq!(t.released(), 0);
        t.note_released();
        t.note_released();
        assert_eq!(t.released(), 2);
    }
}
