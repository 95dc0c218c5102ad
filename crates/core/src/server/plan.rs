//! Merge planning for the compaction engine.
//!
//! [`MergePlan::build`] plans a pass's merges before any of them runs, in
//! greedy order: [`corm_compact::greedy_pass`], the one copy of the §3.1.4
//! loop, tries each candidate in ascending live count as a source against
//! the surviving candidates from the fullest down, and plans the first
//! pair the blocks' own ID tables find compatible. That is the order
//! `greedy_pass` yields over the candidates' `BlockModel`s, and
//! `plan_matches_greedy_pass_over_block_models` holds the two equal. The
//! merges are then partitioned into **disjoint lanes**: merges that share
//! no block (directly or transitively through a shared destination or a
//! chain) land on different lanes and can overlap in virtual time,
//! mirroring the RNIC's parallel processing units. One lane runs the
//! merges back to back in plan order.
//!
//! Planning itself is pure metadata work (no data-plane access, no RNG
//! draws) and is charged zero virtual time.

use corm_alloc::process::SharedBlock;
use corm_compact::greedy_pass;

/// One planned merge: `src` is merged away into `dst` on lane `lane`.
pub(crate) struct PlannedMerge {
    /// The source block (merged away; its vaddr becomes an alias).
    pub(crate) src: SharedBlock,
    /// The destination block (receives the source's live objects).
    pub(crate) dst: SharedBlock,
    /// The lane this merge executes on. Merges on different lanes touch
    /// disjoint block sets and may overlap in virtual time.
    pub(crate) lane: usize,
}

/// The up-front plan of one compaction pass's merge phase.
pub(crate) struct MergePlan {
    /// Planned merges in the exact order the serial greedy loop would have
    /// executed them. Execution preserves this global order (so side
    /// effects on shared structures are identical at any lane count); only
    /// the virtual-time charging differs per lane.
    pub(crate) merges: Vec<PlannedMerge>,
    /// Indices (into the candidate vector) of blocks that were not merged
    /// away — the survivors, in candidate order.
    pub(crate) survivors: Vec<usize>,
}

impl MergePlan {
    /// Computes the greedy pairing over `candidates` — already sorted by
    /// ascending live count, ties broken as the caller sees fit (by heat,
    /// under a pin budget): sources ascend from the front, destinations
    /// are tried from the back — and lays it out on `lanes` disjoint lanes.
    ///
    /// Nothing is merged while planning, so what a block *will* hold by
    /// the time a pair is tried is kept beside the blocks: its live count
    /// after the merges planned so far, and the chain of candidates whose
    /// objects it will hold (itself, then the sources planned into it).
    /// A pair is compatible when the counts fit the destination and no
    /// block of one chain shares an ID with a block of the other — asked
    /// of the blocks' own ID tables, two locked at a time. Handlers can
    /// only free objects in collected blocks meanwhile, which keeps a
    /// planned pair compatible.
    pub(crate) fn build(candidates: &[SharedBlock], lanes: usize) -> MergePlan {
        let lanes = lanes.max(1);
        let n = candidates.len();
        let (mut live, slots): (Vec<usize>, Vec<usize>) = candidates
            .iter()
            .map(|b| {
                let b = b.lock();
                (b.live(), b.slots())
            })
            .unzip();
        // The chains, as lists threaded through the candidate indices.
        let mut next: Vec<Option<usize>> = vec![None; n];
        let mut tail: Vec<usize> = (0..n).collect();
        let pass = greedy_pass(n, |s, d| {
            if live[s] + live[d] > slots[d] {
                return false;
            }
            let chain = |head: usize| std::iter::successors(Some(head), |&i| next[i]);
            let disjoint = chain(s).all(|x| {
                let x = candidates[x].lock();
                chain(d).all(|y| candidates[y].lock().corm_compactable(&x))
            });
            if disjoint {
                live[d] += live[s];
                next[tail[d]] = Some(s);
                tail[d] = tail[s];
            }
            disjoint
        });

        // Union-find over block indices: merges sharing any block
        // (transitively) must serialize on one lane.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(s, d) in &pass.pairs {
            let (rs, rd) = (find(&mut parent, s), find(&mut parent, d));
            if rs != rd {
                parent[rs] = rd;
            }
        }

        // Components are numbered in order of first appearance in the
        // plan, then dealt round-robin across lanes — deterministic, and
        // with one lane everything lands on lane 0.
        let mut component_lane: Vec<Option<usize>> = vec![None; n];
        let mut components = 0usize;
        let merges = pass
            .pairs
            .iter()
            .map(|&(s, d)| {
                let root = find(&mut parent, s);
                let lane = *component_lane[root].get_or_insert_with(|| {
                    let lane = components % lanes;
                    components += 1;
                    lane
                });
                PlannedMerge { src: candidates[s].clone(), dst: candidates[d].clone(), lane }
            })
            .collect();
        let survivors = (0..n).filter(|&i| !pass.gone[i]).collect();
        MergePlan { merges, survivors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_alloc::{Block, BlockId, ClassId};
    use corm_sim_mem::{FileId, FrameId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A one-page test block with the given `(id, slot)` live objects.
    fn block(idx: u32, objects: &[(u32, u32)]) -> SharedBlock {
        let frames = vec![FrameId(idx)];
        let mut b = Block::new(
            BlockId(idx as u64),
            ClassId(0),
            512,
            0x10_0000 + idx as u64 * 0x1000,
            1,
            FileId(1),
            0,
            frames,
            1 << 16,
            0,
        );
        for &(id, slot) in objects {
            assert!(b.insert_object(id, slot));
        }
        Arc::new(Mutex::new(b))
    }

    #[test]
    fn pairing_matches_serial_greedy_order() {
        // Four half-full blocks (4 of 8 slots): the serial loop pairs
        // (0→3), (1→2) — src ascending, dst from the most-utilized end,
        // skipping destinations the plan already filled.
        let candidates: Vec<SharedBlock> = (0..4)
            .map(|i| {
                let objs: Vec<(u32, u32)> = (0..4).map(|k| (i * 10 + k, k)).collect();
                block(i, &objs)
            })
            .collect();
        let plan = MergePlan::build(&candidates, 1);
        let pairs: Vec<(u64, u64)> =
            plan.merges.iter().map(|m| (m.src.lock().vaddr(), m.dst.lock().vaddr())).collect();
        let va = |i: usize| candidates[i].lock().vaddr();
        assert_eq!(pairs, vec![(va(0), va(3)), (va(1), va(2))]);
        assert_eq!(plan.survivors, vec![2, 3]);
        assert!(plan.merges.iter().all(|m| m.lane == 0));
    }

    #[test]
    fn disjoint_components_spread_across_lanes() {
        let candidates: Vec<SharedBlock> = (0..8)
            .map(|i| {
                let objs: Vec<(u32, u32)> = (0..4).map(|k| (i * 10 + k, k)).collect();
                block(i, &objs)
            })
            .collect();
        let plan = MergePlan::build(&candidates, 4);
        assert_eq!(plan.merges.len(), 4);
        let lanes: Vec<usize> = plan.merges.iter().map(|m| m.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn chained_merges_share_a_lane() {
        // One object each: everything funnels into the most-utilized
        // destination — one component, one lane, even with 4 lanes.
        let candidates: Vec<SharedBlock> = (0..4).map(|i| block(i, &[(i * 10, 0)])).collect();
        let plan = MergePlan::build(&candidates, 4);
        assert_eq!(plan.merges.len(), 3);
        assert!(plan.merges.iter().all(|m| m.lane == 0));
        assert_eq!(plan.survivors.len(), 1);
    }

    /// The order `compact_class_with` plans under a pin budget: `(live,
    /// heat)` ascending, stable.
    fn sort_by_live_then_heat(candidates: &mut [SharedBlock], heat_of: impl Fn(u64) -> u64) {
        candidates.sort_by_cached_key(|b| {
            let b = b.lock();
            (b.live(), heat_of(b.vaddr()))
        });
    }

    #[test]
    fn heat_aware_plan_keeps_hot_blocks_as_survivors() {
        // Four equally-utilized blocks with distinct heats: sorted by heat
        // within equal live counts, the cold blocks go in as sources, so
        // the two hottest blocks survive (and receive the merged objects).
        let mut candidates: Vec<SharedBlock> = (0..4)
            .map(|i| {
                let objs: Vec<(u32, u32)> = (0..4).map(|k| (i * 10 + k, k)).collect();
                block(i, &objs)
            })
            .collect();
        let vaddrs: Vec<u64> = candidates.iter().map(|b| b.lock().vaddr()).collect();
        let heats = [9u64, 1, 5, 0];
        let heat_of = |base: u64| {
            let idx = vaddrs.iter().position(|&v| v == base).unwrap();
            heats[idx]
        };
        sort_by_live_then_heat(&mut candidates, heat_of);
        let plan = MergePlan::build(&candidates, 1);
        let pairs: Vec<(u64, u64)> =
            plan.merges.iter().map(|m| (m.src.lock().vaddr(), m.dst.lock().vaddr())).collect();
        // Sorted candidate order by heat ascending: [3, 1, 2, 0]. Sources
        // ascend from the cold end, destinations from the hot end:
        // block 3 (heat 0) → block 0 (heat 9), block 1 (heat 1) → block 2.
        assert_eq!(pairs, vec![(vaddrs[3], vaddrs[0]), (vaddrs[1], vaddrs[2])]);
        // Survivors are the hottest blocks.
        let survivor_vaddrs: Vec<u64> =
            plan.survivors.iter().map(|&i| candidates[i].lock().vaddr()).collect();
        assert_eq!(survivor_vaddrs, vec![vaddrs[2], vaddrs[0]]);
        // With a constant heat signal, the stable sort leaves live-sorted
        // input untouched: same plan as the plain builder.
        let mut flat: Vec<SharedBlock> = (0..4)
            .map(|i| {
                let objs: Vec<(u32, u32)> = (0..4).map(|k| (i * 10 + k, k)).collect();
                block(i, &objs)
            })
            .collect();
        let baseline = MergePlan::build(&flat, 1);
        sort_by_live_then_heat(&mut flat, |_| 0);
        let flat_plan = MergePlan::build(&flat, 1);
        let key = |p: &MergePlan| -> Vec<(u64, u64)> {
            p.merges.iter().map(|m| (m.src.lock().vaddr(), m.dst.lock().vaddr())).collect()
        };
        assert_eq!(key(&baseline), key(&flat_plan));
    }

    /// `MergePlan::build` asks the blocks' own ID tables; the reference is
    /// the same §3.1.4 loop over [`BlockModel`]s with their ID bitsets.
    /// Small ID space, so shared IDs are common; live counts up to full.
    #[test]
    fn plan_matches_greedy_pass_over_block_models() {
        use corm_compact::{greedy_pass, BlockModel};
        use rand::Rng;

        const SLOTS: u32 = 8; // 512-byte objects in the helper's one page
        let mut rng = corm_sim_core::rng::root_rng(0x91A2);
        let (mut merges, mut rejected_ids, mut funnelled) = (0, 0, 0);
        for case in 0..400 {
            let mut sets: Vec<Vec<(u32, u32)>> = (0..rng.gen_range(2..=10))
                .map(|_| {
                    let mut objects: Vec<(u32, u32)> = Vec::new();
                    for _ in 0..rng.gen_range(1..=SLOTS) {
                        let (id, slot) = (rng.gen_range(0..40), rng.gen_range(0..SLOTS));
                        if objects.iter().all(|&(i, s)| i != id && s != slot) {
                            objects.push((id, slot));
                        }
                    }
                    objects
                })
                .collect();
            sets.sort_by_key(|objects| objects.len());

            let candidates: Vec<SharedBlock> =
                sets.iter().enumerate().map(|(i, objects)| block(i as u32, objects)).collect();
            let plan = MergePlan::build(&candidates, 1);
            let index_of = |b: &SharedBlock| {
                candidates.iter().position(|c| Arc::ptr_eq(c, b)).expect("a candidate")
            };
            let pairs: Vec<(usize, usize)> =
                plan.merges.iter().map(|m| (index_of(&m.src), index_of(&m.dst))).collect();

            let mut models: Vec<BlockModel> = sets
                .iter()
                .map(|objects| {
                    let mut m = BlockModel::new(SLOTS as usize, 1 << 16);
                    for &(id, slot) in objects {
                        assert!(m.insert(id as usize, slot as usize));
                    }
                    m
                })
                .collect();
            let reference = greedy_pass(models.len(), |s, d| {
                let src = models[s].clone();
                let ok = models[d].corm_compactable(&src);
                if ok {
                    models[d].merge_corm(&src);
                } else if models[d].live() + src.live() <= SLOTS as usize {
                    rejected_ids += 1;
                }
                ok
            });

            assert_eq!(pairs, reference.pairs, "case {case}: {sets:?}");
            let survivors: Vec<usize> = (0..sets.len()).filter(|&i| !reference.gone[i]).collect();
            assert_eq!(plan.survivors, survivors, "case {case}: {sets:?}");
            merges += pairs.len();
            funnelled += pairs.iter().filter(|&&(s, d)| pairs.contains(&(s + 1, d))).count();
        }
        // The cases reach what they are for: merges, pairs refused for a
        // shared ID alone, and destinations that took several sources, so
        // later checks ran against what was planned into them.
        assert!(
            merges > 400 && rejected_ids > 100 && funnelled > 50,
            "{merges} merges, {rejected_ids} ID refusals, {funnelled} funnelled"
        );
    }

    #[test]
    fn id_conflicts_block_pairing() {
        // Shared IDs are never mergeable under the CoRM rule.
        let candidates = vec![block(0, &[(7, 0)]), block(1, &[(7, 1)])];
        let plan = MergePlan::build(&candidates, 2);
        assert!(plan.merges.is_empty());
        assert_eq!(plan.survivors, vec![0, 1]);
    }
}
