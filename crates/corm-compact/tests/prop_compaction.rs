//! Property-based tests of the compaction algorithms' invariants.

use corm_check::{check, ensure, ensure_eq, Gen};

use corm_compact::{
    compact_blocks, compaction_probability, BlockModel, CompactorKind, ConflictRule,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_population(g: &mut Gen, max_blocks: usize, slots: usize) -> (Vec<(usize, u64)>, u32) {
    // (live count, seed) per block + id bits.
    (
        g.vec(1..max_blocks, |g| (g.range(0..=slots), g.range(0..=u64::MAX))),
        [8u32, 12, 16][g.weighted(&[1, 1, 1])],
    )
}

fn build(blocks: &[(usize, u64)], slots: usize, id_bits: u32) -> Vec<BlockModel> {
    blocks
        .iter()
        .map(|&(live, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            BlockModel::random(&mut rng, slots, 1usize << id_bits, live.min(slots))
        })
        .collect()
}

/// Compaction never loses or duplicates objects, never overfills a
/// block, and never *increases* the block count.
#[test]
fn merge_conserves_objects() {
    check(64, |g| {
        let (blocks, id_bits) = arb_population(g, 24, 64);
        let population = build(&blocks, 64, id_bits);
        let total_before: usize = population.iter().map(|b| b.live()).sum();
        let count_before = population.len();
        let out = compact_blocks(population, ConflictRule::Ids);
        let total_after: usize = out.blocks.iter().map(|b| b.live()).sum();
        ensure_eq!(total_before, total_after);
        ensure!(out.blocks.len() <= count_before);
        ensure_eq!(out.blocks.len() + out.blocks_freed, count_before);
        for b in &out.blocks {
            ensure!(b.live() <= b.slots());
            // The id/offset sets stay in lockstep.
            ensure_eq!(b.ids().count(), b.offsets().count());
        }
        Ok(())
    });
}

/// After a pass, no surviving pair is still mergeable — the greedy
/// algorithm runs to a fixpoint for the ID rule.
#[test]
fn pass_reaches_fixpoint() {
    check(64, |g| {
        let (blocks, id_bits) = arb_population(g, 12, 32);
        let population = build(&blocks, 32, id_bits);
        let out = compact_blocks(population, ConflictRule::Ids);
        for (i, a) in out.blocks.iter().enumerate() {
            for (j, b) in out.blocks.iter().enumerate() {
                if i != j && !a.is_empty() && !b.is_empty() {
                    ensure!(!a.corm_compactable(b), "blocks {} and {} still mergeable", i, j);
                }
            }
        }
        Ok(())
    });
}

/// Mesh-rule compaction preserves every object's offset.
#[test]
fn mesh_merge_preserves_offsets() {
    check(64, |g| {
        let seeds = g.vec(2..16, |g| g.range(0..=u64::MAX));
        let slots = 32;
        let mut population = Vec::new();
        let mut all_offsets_before = Vec::new();
        for &seed in &seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let live = (seed % 12) as usize;
            let b = BlockModel::random_mesh(&mut rng, slots, live);
            all_offsets_before.extend(b.offsets().iter());
            population.push(b);
        }
        all_offsets_before.sort_unstable();
        let out = compact_blocks(population, ConflictRule::Offsets);
        let mut after: Vec<usize> = out.blocks.iter().flat_map(|b| b.offsets().iter()).collect();
        after.sort_unstable();
        ensure_eq!(all_offsets_before, after);
        ensure_eq!(out.objects_moved, 0, "mesh never relocates");
        Ok(())
    });
}

/// The closed-form probability is within Monte-Carlo noise of actual
/// conflict sampling over random block pairs.
#[test]
fn probability_matches_sampling() {
    check(64, |g| {
        let (b1, b2) = (g.range(1usize..40), g.range(1usize..40));
        let id_bits = [8u32, 10][g.weighted(&[1, 1])];
        let seed = g.range(0..=u64::MAX);
        let slots = 96usize;
        let n = 1usize << id_bits;
        let trials = 300;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut compatible = 0;
        for _ in 0..trials {
            let a = BlockModel::random(&mut rng, slots, n, b1);
            let b = BlockModel::random(&mut rng, slots, n, b2);
            if a.corm_compactable(&b) {
                compatible += 1;
            }
        }
        let empirical = compatible as f64 / trials as f64;
        let closed = compaction_probability(n as u64, slots as u64, b1 as u64, b2 as u64);
        // 300 trials → generous tolerance; exactness is covered by the
        // unit tests, this guards against systematic bias.
        ensure!((empirical - closed).abs() < 0.12, "empirical {} vs closed {}", empirical, closed);
        Ok(())
    });
}

/// Hybrid CoRM compacts every class (never returns `None`) and vanilla
/// CoRM only refuses classes whose slot count exceeds the ID space.
#[test]
fn class_gating() {
    check(64, |g| {
        let (id_bits, slots_log) = (g.range(1u32..=16), g.range(1u32..=16));
        let slots = 1usize << slots_log;
        let vanilla = CompactorKind::Corm { id_bits };
        let hybrid = CompactorKind::Hybrid { id_bits };
        ensure!(hybrid.class_rule(slots).is_some());
        let expect_enabled = (1usize << id_bits) >= slots;
        ensure_eq!(vanilla.class_rule(slots).is_some(), expect_enabled);
        Ok(())
    });
}

/// Ideal ≤ CoRM-16 ≤ No-compaction in block counts, always.
#[test]
fn strategy_sandwich() {
    check(64, |g| {
        let (blocks, _bits) = arb_population(g, 16, 64);
        use corm_compact::strategy::apply_strategy;
        let population = build(&blocks, 64, 16);
        let ideal = apply_strategy(CompactorKind::Ideal, 4096, 64, population.clone());
        let corm =
            apply_strategy(CompactorKind::Corm { id_bits: 16 }, 4096, 64, population.clone());
        let none = apply_strategy(CompactorKind::NoCompaction, 4096, 64, population);
        ensure!(ideal.blocks_after <= corm.blocks_after);
        ensure!(corm.blocks_after <= none.blocks_after);
        Ok(())
    });
}
