//! The pin-budget manager: block heat, LRU-over-heat eviction policy, and
//! the server's handle on the far tier.
//!
//! CoRM pins every block for its lifetime; with a far tier attached
//! (`ServerConfig::tier`), the server instead keeps at most
//! *budget* frames DRAM-resident and spills the coldest blocks. Policy
//! lives here; mechanism (byte movement, residency flips, cost charging)
//! lives in [`corm_sim_mem::tier`] and the RNIC's fault path.
//!
//! Heat is a per-block access counter fed from the RPC read/write path
//! (`locate`) and, for one-sided traffic, from whatever access sampling
//! the host runs (`CormServer::note_access`). Eviction ranks live blocks
//! by `(heat, base)` ascending — deterministic for seeded replays — and
//! each enforcement pass halves all counters, aging frequency into
//! recency so the ranking behaves like LRU over sustained skew.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use corm_sim_core::hash::FastHashMap;
use corm_sim_mem::FarTier;

/// Per-node tiering state: the far tier plus the eviction policy's inputs.
#[derive(Debug)]
pub struct TierDirector {
    tier: Arc<FarTier>,
    /// Maximum DRAM-resident (pinned + resident) frames.
    budget: AtomicUsize,
    /// Block heat: access count since the last decay, keyed by block base.
    heat: Mutex<FastHashMap<u64, u64>>,
    /// Bases of the blocks budget enforcement evicted (spilled whole), in
    /// eviction order — the determinism tests replay this.
    evict_log: Mutex<Vec<u64>>,
}

impl TierDirector {
    /// Creates a director over `tier` with an unbounded frame budget, which
    /// [`CormServer::set_pin_budget`](crate::CormServer::set_pin_budget)
    /// sizes.
    pub fn new(tier: Arc<FarTier>) -> Self {
        TierDirector {
            tier,
            budget: AtomicUsize::new(usize::MAX),
            heat: Mutex::new(FastHashMap::default()),
            evict_log: Mutex::new(Vec::new()),
        }
    }

    /// The far tier blocks spill to.
    pub fn tier(&self) -> &Arc<FarTier> {
        &self.tier
    }

    /// Current pin budget in frames.
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Adjusts the pin budget (benches size it after populating, once the
    /// logical footprint is known). Takes effect at the next enforcement.
    pub(crate) fn set_budget(&self, frames: usize) {
        self.budget.store(frames, Ordering::Relaxed);
    }

    /// Records one access to the block at `base`.
    pub fn touch(&self, base: u64) {
        *self.heat.lock().entry(base).or_insert(0) += 1;
    }

    /// Current heat of a block (0 if never touched).
    pub fn heat_of(&self, base: u64) -> u64 {
        self.heat.lock().get(&base).copied().unwrap_or(0)
    }

    /// Folds a merged-away source block's heat into its destination, so
    /// compaction does not reset the survivors' standing.
    pub(crate) fn merge_heat(&self, src: u64, dst: u64) {
        let mut heat = self.heat.lock();
        if let Some(h) = heat.remove(&src) {
            *heat.entry(dst).or_insert(0) += h;
        }
    }

    /// Drops a released block's heat entry.
    pub(crate) fn forget(&self, base: u64) {
        self.heat.lock().remove(&base);
    }

    /// Halves every heat counter — called once per enforcement pass, aging
    /// frequency into recency so stale hot blocks become evictable.
    pub(crate) fn decay(&self) {
        let mut heat = self.heat.lock();
        heat.retain(|_, h| {
            *h /= 2;
            *h > 0
        });
    }

    /// Records one block eviction.
    pub(crate) fn note_eviction(&self, base: u64) {
        self.evict_log.lock().push(base);
    }

    /// Blocks evicted by budget enforcement so far.
    pub fn evictions(&self) -> u64 {
        self.evict_log.lock().len() as u64
    }

    /// Block bases in the order budget enforcement evicted them.
    pub fn eviction_log(&self) -> Vec<u64> {
        self.evict_log.lock().clone()
    }

    /// Histogram of block heat in power-of-two buckets: `buckets[i]`
    /// counts blocks with `heat in [2^(i-1)+? ..]` — concretely, bucket 0
    /// holds heat 0, bucket `i>0` holds heats whose bit length is `i`.
    /// Order-independent over the heat map, so it is replay-stable.
    pub fn heat_histogram(&self) -> Vec<u64> {
        let heat = self.heat.lock();
        let mut buckets = vec![0u64; 1];
        for &h in heat.values() {
            let idx = (64 - h.leading_zeros()) as usize;
            if idx >= buckets.len() {
                buckets.resize(idx + 1, 0);
            }
            buckets[idx] += 1;
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_sim_mem::TierConfig;

    #[test]
    fn heat_accumulates_merges_and_decays() {
        let d = TierDirector::new(Arc::new(FarTier::new(TierConfig::cxl())));
        for _ in 0..6 {
            d.touch(0x1000);
        }
        d.touch(0x2000);
        assert_eq!(d.heat_of(0x1000), 6);
        d.merge_heat(0x1000, 0x2000);
        assert_eq!((d.heat_of(0x1000), d.heat_of(0x2000)), (0, 7));
        d.decay();
        assert_eq!(d.heat_of(0x2000), 3);
        // Repeated decay drains entries entirely.
        d.decay();
        d.decay();
        assert_eq!(d.heat_of(0x2000), 0);
        assert_eq!(d.heat_histogram(), vec![0]);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let d = TierDirector::new(Arc::new(FarTier::new(TierConfig::cxl())));
        d.touch(0xA000); // heat 1 → bucket 1
        for _ in 0..5 {
            d.touch(0xB000); // heat 5 → bucket 3
        }
        assert_eq!(d.heat_histogram(), vec![0, 1, 0, 1]);
    }
}
