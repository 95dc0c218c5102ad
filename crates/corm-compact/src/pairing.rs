//! The greedy merge pass run by CoRM's compaction leader (§3.1.4).
//!
//! "CoRM tries first to compact the least utilized blocks, as they have
//! fewer elements and induce fewer offset collisions." The pass below walks
//! sources in ascending occupancy and merges each into the most-occupied
//! compatible destination (best fit, maximizing freed blocks).
//!
//! A single pass suffices: merging only ever *adds* objects to a
//! destination, so a pair that conflicts now conflicts forever, and no new
//! merge opportunities appear after a source has been rejected by every
//! destination.

use crate::model::BlockModel;

/// Which conflict rule gates a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictRule {
    /// Mesh / CoRM-0: objects keep their offsets, so offset sets must be
    /// disjoint.
    Offsets,
    /// CoRM-n: object IDs must be disjoint; offset conflicts are resolved
    /// by relocating objects within the block.
    Ids,
}

/// Result of a compaction pass.
#[derive(Debug)]
pub struct CompactionOutcome {
    /// Surviving blocks (merged + unmergeable), still holding every object.
    pub blocks: Vec<BlockModel>,
    /// Blocks released back to the process-wide allocator (includes blocks
    /// that were already empty).
    pub blocks_freed: usize,
    /// Objects relocated to a new offset (their pointers become indirect).
    pub objects_moved: usize,
}

/// What [`greedy_pass`] decided.
#[derive(Debug)]
pub struct GreedyPass {
    /// `(source, destination)` index pairs, in the order the merges happen.
    pub pairs: Vec<(usize, usize)>,
    /// Per block, whether it was merged away as a source.
    pub gone: Vec<bool>,
}

/// The greedy pass itself, over `n` blocks in ascending-live order: each
/// block in turn is tried as a source against every surviving block from
/// the most-occupied end (best fit), and merged into the first one that
/// takes it. `try_merge(src, dst)` owns the occupancy: it answers whether
/// `dst` as it stands *after the merges already granted* can take `src`,
/// and if so records the merge, so later calls see the merged occupancy.
pub fn greedy_pass(n: usize, mut try_merge: impl FnMut(usize, usize) -> bool) -> GreedyPass {
    let mut pass = GreedyPass { pairs: Vec::new(), gone: vec![false; n] };
    for s in 0..n {
        // The source itself sits at `s`; everything after it is ≥ its
        // occupancy.
        for d in (0..n).rev() {
            if d == s || pass.gone[d] {
                continue;
            }
            if try_merge(s, d) {
                pass.gone[s] = true;
                pass.pairs.push((s, d));
                break;
            }
        }
    }
    pass
}

/// Runs one greedy compaction pass over `blocks` under `rule`.
pub fn compact_blocks(blocks: Vec<BlockModel>, rule: ConflictRule) -> CompactionOutcome {
    let before = blocks.len();
    // Empty blocks are freed outright.
    let mut live: Vec<BlockModel> = blocks.into_iter().filter(|b| !b.is_empty()).collect();
    // Ascending occupancy: least-utilized blocks are tried as sources first.
    live.sort_by_key(|b| b.live());
    let mut objects_moved = 0;
    // A merged-away source keeps its model as it was.
    let pass = greedy_pass(live.len(), |s, d| {
        let (src, dst) = if s < d {
            let (lo, hi) = live.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = live.split_at_mut(s);
            (&hi[0], &mut lo[d])
        };
        let ok = match rule {
            ConflictRule::Offsets => dst.mesh_compactable(src),
            ConflictRule::Ids => dst.corm_compactable(src),
        };
        if ok {
            match rule {
                ConflictRule::Offsets => dst.merge_mesh(src),
                ConflictRule::Ids => objects_moved += dst.merge_corm(src),
            }
        }
        ok
    });
    let blocks: Vec<BlockModel> =
        live.into_iter().zip(&pass.gone).filter(|&(_, &gone)| !gone).map(|(b, _)| b).collect();
    CompactionOutcome { blocks_freed: before - blocks.len(), objects_moved, blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block_with(slots: usize, idspace: usize, pairs: &[(usize, usize)]) -> BlockModel {
        let mut b = BlockModel::new(slots, idspace);
        for &(id, off) in pairs {
            assert!(b.insert(id, off));
        }
        b
    }

    #[test]
    fn empty_blocks_are_freed() {
        let blocks = vec![BlockModel::new(8, 256), block_with(8, 256, &[(1, 0)])];
        let out = compact_blocks(blocks, ConflictRule::Ids);
        assert_eq!(out.blocks_freed, 1);
        assert_eq!(out.blocks.len(), 1);
    }

    #[test]
    fn disjoint_ids_merge_even_with_offset_conflicts() {
        // Fig. 5's scenario: offsets conflict, IDs do not → CoRM compacts,
        // Mesh cannot.
        let a = block_with(8, 256, &[(1, 0), (2, 1)]);
        let b = block_with(8, 256, &[(3, 0), (4, 2)]);
        let corm = compact_blocks(vec![a.clone(), b.clone()], ConflictRule::Ids);
        assert_eq!(corm.blocks.len(), 1);
        assert_eq!(corm.blocks[0].live(), 4);
        assert_eq!(corm.objects_moved, 1, "one offset conflict relocated");

        let mesh = compact_blocks(vec![a, b], ConflictRule::Offsets);
        assert_eq!(mesh.blocks.len(), 2);
    }

    #[test]
    fn conflicting_ids_do_not_merge() {
        let a = block_with(8, 256, &[(1, 0)]);
        let b = block_with(8, 256, &[(1, 5)]);
        let out = compact_blocks(vec![a, b], ConflictRule::Ids);
        assert_eq!(out.blocks.len(), 2);
    }

    #[test]
    fn capacity_respected_during_chain_merges() {
        // Three blocks of 2 objects each, 4 slots: at most two can merge.
        let mk = |base: usize| block_with(4, 256, &[(base, 0), (base + 1, 1)]);
        let out = compact_blocks(vec![mk(10), mk(20), mk(30)], ConflictRule::Ids);
        assert_eq!(out.blocks.len(), 2);
        let total: usize = out.blocks.iter().map(|b| b.live()).sum();
        assert_eq!(total, 6, "no objects lost");
        assert!(out.blocks.iter().all(|b| b.live() <= b.slots()));
    }

    #[test]
    fn object_conservation_on_random_population() {
        let mut rng = StdRng::seed_from_u64(3);
        let blocks: Vec<BlockModel> = (0..40)
            .map(|_| {
                let live = rand::Rng::gen_range(&mut rng, 0..=32);
                BlockModel::random(&mut rng, 64, 1 << 16, live)
            })
            .collect();
        let total_before: usize = blocks.iter().map(|b| b.live()).sum();
        let out = compact_blocks(blocks, ConflictRule::Ids);
        let total_after: usize = out.blocks.iter().map(|b| b.live()).sum();
        assert_eq!(total_before, total_after);
        assert!(out.blocks.len() + out.blocks_freed == 40);
        // With 16-bit IDs and ≤50% occupancy, compaction should free a
        // sizeable fraction of blocks.
        assert!(out.blocks_freed > 10, "freed only {}", out.blocks_freed);
    }

    #[test]
    fn ids_rule_beats_offsets_rule_on_same_population() {
        // The paper's core claim, checked empirically on identical block
        // populations (ids mirror offsets for the Mesh run).
        let mut rng = StdRng::seed_from_u64(11);
        let mesh_blocks: Vec<BlockModel> =
            (0..60).map(|_| BlockModel::random_mesh(&mut rng, 32, 12)).collect();
        let mut rng2 = StdRng::seed_from_u64(11);
        let corm_blocks: Vec<BlockModel> =
            (0..60).map(|_| BlockModel::random(&mut rng2, 32, 1 << 16, 12)).collect();
        let mesh = compact_blocks(mesh_blocks, ConflictRule::Offsets);
        let corm = compact_blocks(corm_blocks, ConflictRule::Ids);
        assert!(
            corm.blocks_freed > mesh.blocks_freed,
            "corm {} vs mesh {}",
            corm.blocks_freed,
            mesh.blocks_freed
        );
    }

    #[test]
    fn full_blocks_survive_untouched() {
        let mut full = BlockModel::new(4, 256);
        for i in 0..4 {
            full.insert(i + 1, i);
        }
        let partial = block_with(4, 256, &[(99, 0)]);
        let out = compact_blocks(vec![full, partial], ConflictRule::Ids);
        assert_eq!(out.blocks.len(), 2, "nothing fits into a full block");
    }
}
