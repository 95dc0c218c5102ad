//! Fragmentation accounting (§2.1.2, §3.1.3).
//!
//! "We define memory fragmentation as the ratio between the amount of
//! memory granted by the operating system to a process and the amount of
//! memory that the process is effectively using." CoRM computes this ratio
//! per size class and triggers compaction for classes exceeding a
//! threshold.

use std::ops::Deref;

use crate::block::Block;
use crate::classes::ClassId;

/// Occupancy statistics of one size class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The class.
    pub(crate) class: ClassId,
    /// Gross object size.
    pub(crate) obj_size: usize,
    /// Blocks held by thread allocators for this class.
    pub(crate) blocks: usize,
    /// Total slots across those blocks.
    pub(crate) slots: usize,
    /// Live objects.
    pub live: usize,
    /// Bytes granted (blocks × block size).
    pub(crate) granted_bytes: u64,
    /// Bytes effectively used (live × object size).
    used_bytes: u64,
}

impl ClassStats {
    /// Granted/used ratio; `f64::INFINITY` when blocks exist but nothing is
    /// used, 1.0 when the class holds no blocks.
    fn fragmentation_ratio(&self) -> f64 {
        if self.granted_bytes == 0 {
            return 1.0;
        }
        if self.used_bytes == 0 {
            return f64::INFINITY;
        }
        self.granted_bytes as f64 / self.used_bytes as f64
    }
}

/// Fragmentation across every class, built from a snapshot of all blocks.
#[derive(Debug, Clone, Default)]
pub struct FragmentationReport {
    /// Per-class rows (only classes with blocks appear).
    pub classes: Vec<ClassStats>,
}

impl FragmentationReport {
    /// Builds a report from an iterator over blocks (or guards of them,
    /// each dropped before the next is drawn) and the block size.
    pub fn from_blocks(
        blocks: impl Iterator<Item = impl Deref<Target = Block>>,
        block_bytes: usize,
    ) -> Self {
        let mut map: std::collections::BTreeMap<ClassId, ClassStats> = Default::default();
        for b in blocks {
            let entry = map.entry(b.class()).or_insert_with(|| ClassStats {
                class: b.class(),
                obj_size: b.obj_size(),
                blocks: 0,
                slots: 0,
                live: 0,
                granted_bytes: 0,
                used_bytes: 0,
            });
            entry.blocks += 1;
            entry.slots += b.slots();
            entry.live += b.live();
            entry.granted_bytes += block_bytes as u64;
            entry.used_bytes += (b.live() * b.obj_size()) as u64;
        }
        FragmentationReport { classes: map.into_values().collect() }
    }

    /// Classes whose fragmentation ratio exceeds `threshold` — the
    /// compaction-policy trigger (§3.1.3).
    pub fn classes_exceeding(&self, threshold: f64) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| c.fragmentation_ratio() > threshold)
            .map(|c| c.class)
            .collect()
    }

    /// Stats for one class, if it holds blocks.
    pub fn class(&self, class: ClassId) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use corm_sim_mem::{FileId, FrameId};

    fn mk_block(class: u16, obj_size: usize, live: usize) -> Block {
        let mut b = Block::new(
            BlockId(class as u64 * 100 + live as u64),
            ClassId(class),
            obj_size,
            (0x100000 + (class as u64)) << 16,
            1,
            FileId(1),
            0,
            vec![FrameId(0)],
            1 << 16,
            0,
        );
        for i in 0..live {
            assert!(b.insert_object(i as u32 + 1, i as u32));
        }
        b
    }

    #[test]
    fn per_class_rows() {
        let blocks = [mk_block(0, 16, 10), mk_block(0, 16, 0), mk_block(3, 64, 4)];
        let rep = FragmentationReport::from_blocks(blocks.iter(), 4096);
        assert_eq!(rep.classes.len(), 2);
        let c0 = rep.class(ClassId(0)).unwrap();
        assert_eq!(c0.blocks, 2);
        assert_eq!(c0.live, 10);
        assert_eq!(c0.granted_bytes, 8192);
        assert_eq!(c0.used_bytes, 160);
        assert!(c0.fragmentation_ratio() > 50.0);
        assert!(rep.class(ClassId(9)).is_none());
    }

    #[test]
    fn ratios_and_thresholds() {
        let blocks = [mk_block(0, 16, 256), mk_block(3, 64, 1)];
        let rep = FragmentationReport::from_blocks(blocks.iter(), 4096);
        // Class 0 fully used → ratio 1.0; class 3 nearly empty → huge.
        assert!((rep.class(ClassId(0)).unwrap().fragmentation_ratio() - 1.0).abs() < 1e-9);
        let exceeding = rep.classes_exceeding(2.0);
        assert_eq!(exceeding, vec![ClassId(3)]);
    }

    #[test]
    fn empty_report() {
        let rep = FragmentationReport::from_blocks(std::iter::empty::<&Block>(), 4096);
        assert!(rep.classes.is_empty());
        assert!(rep.classes_exceeding(1.0).is_empty());
    }

    #[test]
    fn infinite_ratio_when_unused() {
        let blocks = [mk_block(0, 16, 0)];
        let rep = FragmentationReport::from_blocks(blocks.iter(), 4096);
        assert!(rep.class(ClassId(0)).unwrap().fragmentation_ratio().is_infinite());
    }
}
