//! Automatic object-ID sizing per class — the paper's future work.
//!
//! §4.4.3 (Discussion): "To take full advantage of CoRM's compaction
//! capabilities, users can tune object ID sizes for different
//! size-classes, according to the specific workloads. … We consider an
//! auto-labeling strategy of class sizes as future work."
//!
//! This module implements that strategy. Given per-class usage statistics
//! (slots per block, observed occupancy, and allocation churn), it picks
//! the smallest ID width whose expected pairwise compaction probability
//! clears a target — or recommends *no* IDs at all:
//!
//! - **Hot classes** (high churn) barely fragment — their blocks turn over
//!   constantly — so paying header bits buys nothing: recommend CoRM-0.
//! - **Cold, low-occupancy classes** are where fragmentation parks memory:
//!   recommend the narrowest width that makes merging two typical blocks
//!   likely.
//! - Widths beyond what the block's slot count can use are never
//!   recommended (a block of `s` slots gains nothing past the first width
//!   with `2^bits ≥ s` once the target is met).

use crate::probability::compaction_probability;

/// Observed usage of one size class, fed to the tuner.
#[derive(Debug, Clone, Copy)]
pub struct ClassUsage {
    /// Objects a block of this class can hold.
    pub slots: usize,
    /// Mean occupancy of the class's blocks, in `[0, 1]`.
    pub mean_occupancy: f64,
    /// Allocation churn: allocations+frees per live object per unit time.
    /// High churn ⇒ blocks recycle naturally and compaction is pointless.
    pub churn: f64,
}

/// Tuner policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct TunerPolicy {
    /// Target probability that two typical blocks of the class merge.
    target_merge_probability: f64,
    /// Churn above which a class is considered "hot" (no IDs).
    hot_churn_threshold: f64,
    /// Largest ID width the deployment supports.
    max_bits: u32,
}

impl Default for TunerPolicy {
    fn default() -> Self {
        TunerPolicy { target_merge_probability: 0.5, hot_churn_threshold: 4.0, max_bits: 16 }
    }
}

/// The tuner's verdict for one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Recommended ID width; `None` means store no IDs (offset-based
    /// CoRM-0 compaction only).
    pub id_bits: Option<u32>,
    /// Expected probability of merging two typical blocks at that width.
    pub merge_probability: f64,
}

/// Picks an ID width for a class given its observed usage.
pub fn recommend(usage: ClassUsage, policy: TunerPolicy) -> Recommendation {
    assert!(usage.slots > 0);
    assert!((0.0..=1.0).contains(&usage.mean_occupancy));
    // Hot classes: frequent alloc/free keeps blocks full or empties them —
    // compaction would only pay header overhead (§4.4.3).
    if usage.churn >= policy.hot_churn_threshold {
        return Recommendation { id_bits: None, merge_probability: 0.0 };
    }
    let s = usage.slots as u64;
    let b = ((usage.slots as f64) * usage.mean_occupancy).round() as u64;
    // Two typical blocks must fit into one at all.
    if 2 * b > s {
        return Recommendation { id_bits: None, merge_probability: 0.0 };
    }
    let mut best = None;
    for bits in 1..=policy.max_bits {
        let n = 1u64 << bits;
        if (n as usize) < usage.slots {
            continue; // cannot even label a full block
        }
        let p = compaction_probability(n, s, b, b);
        best = Some((bits, p));
        if p >= policy.target_merge_probability {
            return Recommendation { id_bits: Some(bits), merge_probability: p };
        }
    }
    // Target unreachable even at max width: recommend the widest only if
    // it still helps at all, else fall back to offsets.
    match best {
        Some((bits, p)) if p > 0.0 => Recommendation { id_bits: Some(bits), merge_probability: p },
        _ => Recommendation { id_bits: None, merge_probability: 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(slots: usize, occ: f64, churn: f64) -> ClassUsage {
        ClassUsage { slots, mean_occupancy: occ, churn }
    }

    #[test]
    fn hot_classes_get_no_ids() {
        let r = recommend(usage(256, 0.2, 10.0), TunerPolicy::default());
        assert_eq!(r.id_bits, None);
    }

    #[test]
    fn cold_sparse_class_gets_narrow_ids() {
        // 32 slots, 12.5% occupancy: even narrow IDs merge reliably.
        let r = recommend(usage(32, 0.125, 0.1), TunerPolicy::default());
        let bits = r.id_bits.expect("ids recommended");
        assert!(bits <= 10, "narrow width suffices, got {bits}");
        assert!(r.merge_probability >= 0.5);
    }

    #[test]
    fn denser_classes_need_wider_ids() {
        let sparse = recommend(usage(256, 0.1, 0.1), TunerPolicy::default());
        let dense = recommend(usage(256, 0.45, 0.1), TunerPolicy::default());
        assert!(
            dense.id_bits.unwrap() > sparse.id_bits.unwrap(),
            "dense {:?} vs sparse {:?}",
            dense,
            sparse
        );
    }

    #[test]
    fn overfull_classes_are_not_compactable() {
        // Two 60%-occupied blocks cannot merge: no point storing IDs.
        let r = recommend(usage(128, 0.6, 0.1), TunerPolicy::default());
        assert_eq!(r.id_bits, None);
    }

    #[test]
    fn width_never_below_slot_addressability() {
        // 4096 slots: widths under 12 bits cannot label a block.
        let r = recommend(usage(4096, 0.1, 0.1), TunerPolicy::default());
        assert!(r.id_bits.unwrap() >= 12);
    }

    #[test]
    fn respects_max_bits() {
        let policy = TunerPolicy { max_bits: 8, ..TunerPolicy::default() };
        let r = recommend(usage(256, 0.45, 0.1), policy);
        if let Some(bits) = r.id_bits {
            assert!(bits <= 8);
        }
    }
}
