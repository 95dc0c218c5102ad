//! The compaction strategies compared in the evaluation (§4.4).
//!
//! [`CompactorKind`] names each line of Figs. 17–19 and knows, per size
//! class, which conflict rule applies, what header each object carries, and
//! whether the class is compactable at all (vanilla CoRM-n disables classes
//! whose blocks hold more objects than an n-bit ID can address; hybrid CoRM
//! falls back to CoRM-0 for them, §4.4.1).

use crate::model::BlockModel;
use crate::pairing::{compact_blocks, ConflictRule};

/// A compaction strategy, as named in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactorKind {
    /// No compaction at all (FaRM's behaviour; the "No" line).
    NoCompaction,
    /// The ideal compactor: live objects repacked perfectly, no metadata.
    Ideal,
    /// Mesh: offset-conflict meshing, zero per-object metadata.
    Mesh,
    /// CoRM-n: random `id_bits`-bit object IDs. `id_bits == 0` degenerates
    /// to offset-based conflicts (CoRM-0) while still paying the home-vaddr
    /// header. Classes whose blocks exceed the ID space are *not* compacted
    /// (vanilla mode, Fig. 18).
    Corm {
        /// Object-identifier width in bits.
        id_bits: u32,
    },
    /// Hybrid CoRM-0+CoRM-n: classes that CoRM-n cannot address fall back
    /// to offset-based CoRM-0 compaction (Fig. 19).
    Hybrid {
        /// Object-identifier width in bits for compactable classes.
        id_bits: u32,
    },
}

impl CompactorKind {
    /// Short display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            CompactorKind::NoCompaction => "No".into(),
            CompactorKind::Ideal => "Ideal".into(),
            CompactorKind::Mesh => "Mesh".into(),
            CompactorKind::Corm { id_bits } => format!("CoRM-{id_bits}"),
            CompactorKind::Hybrid { id_bits } => format!("CoRM-0+CoRM-{id_bits}"),
        }
    }

    /// Object-ID width carried in headers for a class of `slots` objects
    /// per block; `None` when no per-object metadata is stored.
    pub fn class_id_bits(&self, slots: usize) -> Option<u32> {
        match *self {
            CompactorKind::NoCompaction | CompactorKind::Ideal | CompactorKind::Mesh => None,
            CompactorKind::Corm { id_bits } => Some(id_bits),
            CompactorKind::Hybrid { id_bits } => {
                if (1usize << id_bits) >= slots {
                    Some(id_bits)
                } else {
                    Some(0) // falls back to CoRM-0: home vaddr only
                }
            }
        }
    }

    /// The conflict rule used to compact a class of `slots` objects per
    /// block; `None` when the class is not compacted.
    pub fn class_rule(&self, slots: usize) -> Option<ConflictRule> {
        match *self {
            CompactorKind::NoCompaction => None,
            CompactorKind::Ideal => Some(ConflictRule::Ids), // unused marker
            CompactorKind::Mesh => Some(ConflictRule::Offsets),
            CompactorKind::Corm { id_bits } => {
                if id_bits == 0 {
                    Some(ConflictRule::Offsets)
                } else if (1usize << id_bits) >= slots {
                    Some(ConflictRule::Ids)
                } else {
                    None // vanilla CoRM-n: class disabled (§4.4.1)
                }
            }
            CompactorKind::Hybrid { id_bits } => {
                if id_bits > 0 && (1usize << id_bits) >= slots {
                    Some(ConflictRule::Ids)
                } else {
                    Some(ConflictRule::Offsets)
                }
            }
        }
    }

    /// Identifier-space size for blocks of a class with `slots` slots under
    /// this strategy's conflict rule.
    pub fn id_space(&self, slots: usize) -> usize {
        match self.class_rule(slots) {
            Some(ConflictRule::Ids) => match *self {
                CompactorKind::Corm { id_bits } | CompactorKind::Hybrid { id_bits } => {
                    1usize << id_bits
                }
                _ => slots,
            },
            _ => slots,
        }
    }
}

/// Result of applying a strategy to one size class worth of blocks.
#[derive(Debug, Clone)]
pub struct StrategyReport {
    /// Blocks after compaction.
    pub blocks_after: usize,
    /// Physical bytes still held (blocks_after × block size).
    pub active_bytes: u64,
}

/// Applies `kind` to one size class: `blocks` built with slot count `slots`
/// (all blocks must share it) in blocks of `block_bytes`.
pub fn apply_strategy(
    kind: CompactorKind,
    block_bytes: usize,
    slots: usize,
    blocks: Vec<BlockModel>,
) -> StrategyReport {
    let blocks_after = match kind {
        CompactorKind::Ideal => {
            let live_objects: usize = blocks.iter().map(|b| b.live()).sum();
            live_objects.div_ceil(slots.max(1))
        }
        CompactorKind::NoCompaction => blocks.iter().filter(|b| !b.is_empty()).count(),
        _ => match kind.class_rule(slots) {
            None => blocks.iter().filter(|b| !b.is_empty()).count(),
            Some(rule) => compact_blocks(blocks, rule).blocks.len(),
        },
    };
    StrategyReport { blocks_after, active_bytes: blocks_after as u64 * block_bytes as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::header_bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(CompactorKind::NoCompaction.name(), "No");
        assert_eq!(CompactorKind::Mesh.name(), "Mesh");
        assert_eq!(CompactorKind::Corm { id_bits: 16 }.name(), "CoRM-16");
        assert_eq!(CompactorKind::Hybrid { id_bits: 8 }.name(), "CoRM-0+CoRM-8");
    }

    #[test]
    fn vanilla_corm_disables_oversized_classes() {
        // §4.4.1: CoRM-8 cannot compact 1 MiB blocks of 2 KiB objects
        // (512 slots > 256 ids).
        let corm8 = CompactorKind::Corm { id_bits: 8 };
        assert_eq!(corm8.class_rule(512), None);
        assert_eq!(corm8.class_rule(256), Some(ConflictRule::Ids));
        // Hybrid falls back to offset-based CoRM-0 instead.
        let hybrid8 = CompactorKind::Hybrid { id_bits: 8 };
        assert_eq!(hybrid8.class_rule(512), Some(ConflictRule::Offsets));
        assert_eq!(hybrid8.class_rule(256), Some(ConflictRule::Ids));
        assert_eq!(hybrid8.class_id_bits(512), Some(0));
        assert_eq!(hybrid8.class_id_bits(256), Some(8));
    }

    #[test]
    fn corm0_uses_offsets_with_header() {
        let corm0 = CompactorKind::Corm { id_bits: 0 };
        assert_eq!(corm0.class_rule(1024), Some(ConflictRule::Offsets));
        assert_eq!(corm0.class_id_bits(1024), Some(0));
        assert!(header_bytes(corm0.class_id_bits(1024)) > 0);
        assert_eq!(header_bytes(CompactorKind::Mesh.class_id_bits(1024)), 0);
    }

    #[test]
    fn id_space_for_rules() {
        assert_eq!(CompactorKind::Mesh.id_space(128), 128);
        assert_eq!(CompactorKind::Corm { id_bits: 16 }.id_space(128), 65536);
        // Disabled class: space falls back to slots (blocks built anyway).
        assert_eq!(CompactorKind::Corm { id_bits: 8 }.id_space(512), 512);
    }

    #[test]
    fn ideal_repacks_perfectly() {
        let mut rng = StdRng::seed_from_u64(1);
        let blocks: Vec<BlockModel> =
            (0..10).map(|_| BlockModel::random(&mut rng, 16, 256, 4)).collect();
        let rep = apply_strategy(CompactorKind::Ideal, 4096, 16, blocks);
        assert_eq!(rep.blocks_after, 3); // ceil(40/16)
        assert_eq!(rep.active_bytes, 3 * 4096);
    }

    #[test]
    fn no_compaction_keeps_every_nonempty_block() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut blocks: Vec<BlockModel> =
            (0..5).map(|_| BlockModel::random(&mut rng, 16, 256, 1)).collect();
        blocks.push(BlockModel::new(16, 256)); // empty → droppable
        let rep = apply_strategy(CompactorKind::NoCompaction, 4096, 16, blocks);
        assert_eq!(rep.blocks_after, 5);
    }

    #[test]
    fn strategy_ordering_ideal_corm_mesh_no() {
        // On a low-occupancy population: Ideal ≤ CoRM-16 ≤ Mesh ≤ No.
        let mut rng = StdRng::seed_from_u64(5);
        let mk_corm: Vec<BlockModel> =
            (0..30).map(|_| BlockModel::random(&mut rng, 64, 1 << 16, 8)).collect();
        let mut rng2 = StdRng::seed_from_u64(5);
        let mk_mesh: Vec<BlockModel> =
            (0..30).map(|_| BlockModel::random_mesh(&mut rng2, 64, 8)).collect();
        let ideal = apply_strategy(CompactorKind::Ideal, 4096, 64, mk_corm.clone());
        let corm = apply_strategy(CompactorKind::Corm { id_bits: 16 }, 4096, 64, mk_corm.clone());
        let mesh = apply_strategy(CompactorKind::Mesh, 4096, 64, mk_mesh);
        let none = apply_strategy(CompactorKind::NoCompaction, 4096, 64, mk_corm);
        assert!(ideal.blocks_after <= corm.blocks_after);
        assert!(corm.blocks_after <= mesh.blocks_after);
        assert!(mesh.blocks_after <= none.blocks_after);
        assert!(corm.blocks_after < none.blocks_after, "CoRM must help");
    }
}
