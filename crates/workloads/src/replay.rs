//! Model-level trace replay (the engine behind Figs. 17–19).
//!
//! Replays alloc/free traces into [`BlockModel`]s through a faithful model
//! of the paper's two-level allocator: each allocation is served by a
//! uniformly random thread (§4.4.3: "For each allocation request, the
//! thread is selected randomly"), each thread keeps per-class bins of
//! blocks, and a new block is fetched only when no owned block of the
//! class has room. After the replay, a [`CompactorKind`] is applied per
//! class and active memory is summed.
//!
//! Object sizes are *gross*: the strategy's per-object header (Table 3)
//! inflates the stored size and therefore reduces slots per block — this
//! is how the paper charges CoRM's metadata against its compaction gains.
//!
//! Two [`ClassPolicy`]s are supported. The paper's single-size synthetic
//! traces (Fig. 17) report object sizes that map exactly onto slots, so
//! [`ClassPolicy::Dedicated`] sizes the class to the object (8-byte
//! aligned, §3.1.1). The Redis traces mix thousands of sizes, where a
//! real allocator's coarse class table is what creates the "low usage of
//! some size classes" fragmentation the paper studies —
//! [`ClassPolicy::Table`] uses a jemalloc-like progression.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use corm_compact::pairing::ConflictRule;
use corm_compact::strategy::{apply_strategy, CompactorKind};
use corm_compact::BlockModel;

/// One trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Allocate `size` payload bytes under `key`.
    Alloc {
        /// Unique object key.
        key: u64,
        /// Payload size in bytes.
        size: usize,
    },
    /// Free the object allocated under `key`.
    Free {
        /// Key from a previous `Alloc`.
        key: u64,
    },
}

/// How payloads map to size classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassPolicy {
    /// One class per distinct gross size (8-byte aligned): zero internal
    /// fragmentation, appropriate for single-size benchmark traces.
    Dedicated,
    /// A coarse, fixed table (≈1.3× spacing) like a production allocator.
    Table,
}

/// The size-class table used under [`ClassPolicy::Table`]: 8-byte-aligned,
/// ~1.3× spacing, up to the block size (Redis t3 allocates 160 KiB
/// structures, so classes extend well past the data-path table).
fn model_classes(block_bytes: usize) -> Vec<usize> {
    let base = [
        16usize, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
        6144, 8192, 12288, 16384, 24576, 32768, 49152, 65536, 98304, 131072, 196608, 262144,
        393216, 524288, 1048576,
    ];
    base.into_iter().filter(|&s| s <= block_bytes).collect()
}

#[derive(Debug, Clone, Copy)]
struct Placement {
    thread: u32,
    gross: u32,
    block_idx: u32,
    id: u32,
    offset: u32,
}

/// Result of replaying a trace under one strategy.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Active bytes after compaction (blocks held × block size).
    pub active_bytes: u64,
}

/// The model-level two-level allocator.
pub struct ModelHeap {
    kind: CompactorKind,
    block_bytes: usize,
    policy: ClassPolicy,
    table: Vec<usize>,
    /// `bins[thread][gross]` → blocks owned by that thread for that class.
    bins: Vec<HashMap<usize, Vec<BlockModel>>>,
    placements: HashMap<u64, Placement>,
    rng: StdRng,
}

impl ModelHeap {
    /// Creates a heap with `threads` thread-local allocators over
    /// `block_bytes` blocks, replaying under `kind`, with the coarse
    /// class table.
    pub fn new(kind: CompactorKind, block_bytes: usize, threads: usize, seed: u64) -> Self {
        Self::with_policy(kind, block_bytes, threads, seed, ClassPolicy::Table)
    }

    /// Creates a heap with an explicit class policy.
    pub fn with_policy(
        kind: CompactorKind,
        block_bytes: usize,
        threads: usize,
        seed: u64,
        policy: ClassPolicy,
    ) -> Self {
        assert!(threads > 0);
        ModelHeap {
            kind,
            block_bytes,
            policy,
            table: model_classes(block_bytes),
            bins: (0..threads).map(|_| HashMap::new()).collect(),
            placements: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Chooses the gross slot size for `payload` under the policy and the
    /// strategy's per-object header.
    fn gross_for(&self, payload: usize) -> usize {
        match self.policy {
            ClassPolicy::Dedicated => {
                // Header width can depend on the slot count (hybrid
                // fallback); one refinement round converges because the
                // header only shrinks.
                let kind_bits = self.kind.class_id_bits(usize::MAX);
                let mut gross = (payload + corm_compact::header_bytes(kind_bits)).div_ceil(8) * 8;
                let slots = (self.block_bytes / gross).max(1);
                let bits = self.kind.class_id_bits(slots);
                gross = (payload + corm_compact::header_bytes(bits)).div_ceil(8) * 8;
                gross.min(self.block_bytes)
            }
            ClassPolicy::Table => {
                for &cls in &self.table {
                    let slots = self.block_bytes / cls;
                    if slots == 0 {
                        continue;
                    }
                    let header = corm_compact::header_bytes(self.kind.class_id_bits(slots));
                    if payload + header <= cls {
                        return cls;
                    }
                }
                panic!("object of {payload} bytes exceeds every class");
            }
        }
    }

    /// Replays one operation.
    fn apply(&mut self, op: TraceOp) {
        match op {
            TraceOp::Alloc { key, size } => self.alloc(key, size),
            TraceOp::Free { key } => self.free(key),
        }
    }

    /// Replays a whole trace.
    pub fn replay<'a>(&mut self, ops: impl IntoIterator<Item = &'a TraceOp>) {
        for op in ops {
            self.apply(*op);
        }
    }

    fn alloc(&mut self, key: u64, size: usize) {
        let gross = self.gross_for(size);
        let slots = (self.block_bytes / gross).max(1);
        let id_space = self.kind.id_space(slots);
        let offset_identified =
            matches!(self.kind.class_rule(slots), Some(ConflictRule::Offsets) | None);
        let thread = self.rng.gen_range(0..self.bins.len());
        let bin = self.bins[thread].entry(gross).or_default();
        // Newest block first, then older partials (matches the data-path
        // thread allocator).
        let mut target = None;
        for (idx, b) in bin.iter().enumerate().rev() {
            if !b.is_full() {
                target = Some(idx);
                break;
            }
        }
        let block_idx = match target {
            Some(i) => i,
            None => {
                bin.push(BlockModel::new(slots, id_space.max(slots)));
                bin.len() - 1
            }
        };
        let block = &mut bin[block_idx];
        let (id, offset) = if offset_identified {
            // Offset-conflict strategies identify objects by their offset.
            let off = block.offsets().first_clear().expect("block has room");
            assert!(block.insert(off, off));
            (off, off)
        } else {
            block.alloc(&mut self.rng).expect("block has room")
        };
        let prev = self.placements.insert(
            key,
            Placement {
                thread: thread as u32,
                gross: gross as u32,
                block_idx: block_idx as u32,
                id: id as u32,
                offset: offset as u32,
            },
        );
        assert!(prev.is_none(), "key {key} allocated twice");
    }

    fn free(&mut self, key: u64) {
        let p =
            self.placements.remove(&key).unwrap_or_else(|| panic!("free of unallocated key {key}"));
        let block = &mut self.bins[p.thread as usize]
            .get_mut(&(p.gross as usize))
            .expect("class exists")[p.block_idx as usize];
        let removed = block.free(p.id as usize, p.offset as usize);
        assert!(removed, "placement out of sync for key {key}");
    }

    /// Live objects currently placed.
    pub fn live_objects(&self) -> usize {
        self.placements.len()
    }

    /// Non-empty blocks across all threads and classes.
    pub fn blocks_in_use(&self) -> usize {
        self.bins.iter().flat_map(|t| t.values()).flatten().filter(|b| !b.is_empty()).count()
    }

    /// Finishes the replay: applies the strategy per class and reports
    /// active memory.
    pub fn finish(self) -> ReplayOutcome {
        let ModelHeap { kind, block_bytes, bins, .. } = self;
        // Gather classes across threads.
        let mut by_class: std::collections::BTreeMap<usize, Vec<BlockModel>> = Default::default();
        for thread_bins in &bins {
            for (&gross, blocks) in thread_bins {
                by_class.entry(gross).or_default().extend(blocks.iter().cloned());
            }
        }
        let mut active = 0u64;
        for (gross, blocks) in by_class {
            let slots = (block_bytes / gross).max(1);
            active += apply_strategy(kind, block_bytes, slots, blocks).active_bytes;
        }
        ReplayOutcome { active_bytes: active }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_alloc_free(n: u64, size: usize, free_every: u64) -> Vec<TraceOp> {
        let mut ops: Vec<TraceOp> = (0..n).map(|key| TraceOp::Alloc { key, size }).collect();
        ops.extend((0..n).filter(|k| k % free_every == 0).map(|key| TraceOp::Free { key }));
        ops
    }

    #[test]
    fn replay_places_and_frees() {
        let mut heap = ModelHeap::new(CompactorKind::Corm { id_bits: 16 }, 1 << 20, 1, 1);
        heap.replay(&trace_alloc_free(1000, 100, 2));
        assert_eq!(heap.live_objects(), 500);
        let before = heap.blocks_in_use() as u64 * (1 << 20);
        let out = heap.finish();
        assert!(out.active_bytes > 0);
        assert!(out.active_bytes <= before);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_alloc_detected() {
        let mut heap = ModelHeap::new(CompactorKind::Mesh, 1 << 20, 1, 1);
        heap.apply(TraceOp::Alloc { key: 1, size: 64 });
        heap.apply(TraceOp::Alloc { key: 1, size: 64 });
    }

    #[test]
    #[should_panic(expected = "free of unallocated")]
    fn double_free_detected() {
        let mut heap = ModelHeap::new(CompactorKind::Mesh, 1 << 20, 1, 1);
        heap.apply(TraceOp::Alloc { key: 1, size: 64 });
        heap.apply(TraceOp::Free { key: 1 });
        heap.apply(TraceOp::Free { key: 1 });
    }

    #[test]
    fn corm16_compacts_more_than_no_compaction() {
        let trace = trace_alloc_free(20_000, 2048, 2);
        let run = |kind| {
            let mut h = ModelHeap::with_policy(kind, 1 << 20, 4, 7, ClassPolicy::Dedicated);
            h.replay(&trace);
            h.finish()
        };
        let corm_out = run(CompactorKind::Corm { id_bits: 16 });
        let none_out = run(CompactorKind::NoCompaction);
        assert!(
            corm_out.active_bytes < none_out.active_bytes,
            "corm {} vs none {}",
            corm_out.active_bytes,
            none_out.active_bytes
        );
    }

    #[test]
    fn dedicated_classes_fit_snugly() {
        // 2048-byte objects under CoRM-16: gross = 2048 + 6 → 2056; the
        // slot count loses only a fraction of a percent vs Mesh.
        let corm = ModelHeap::with_policy(
            CompactorKind::Corm { id_bits: 16 },
            1 << 20,
            1,
            1,
            ClassPolicy::Dedicated,
        );
        assert_eq!(corm.gross_for(2048), 2056);
        let mesh =
            ModelHeap::with_policy(CompactorKind::Mesh, 1 << 20, 1, 1, ClassPolicy::Dedicated);
        assert_eq!(mesh.gross_for(2048), 2048);
        // Hybrid fallback shrinks the header where the ID space is too
        // small: 16-byte objects with 8-bit IDs in 1 MiB blocks.
        let hybrid = ModelHeap::with_policy(
            CompactorKind::Hybrid { id_bits: 8 },
            1 << 20,
            1,
            1,
            ClassPolicy::Dedicated,
        );
        // 65536 slots > 256 → falls back to CoRM-0 (4-byte header).
        assert_eq!(hybrid.gross_for(8), 16);
    }

    #[test]
    fn more_threads_mean_more_fragmentation() {
        // §4.4.3: 1-thread vs 32-thread allocators differ 3–12x in active
        // memory under no compaction.
        let trace: Vec<TraceOp> =
            (0..5_000u64).map(|key| TraceOp::Alloc { key, size: 150 }).collect();
        let active = |threads: usize| {
            let mut h = ModelHeap::new(CompactorKind::NoCompaction, 1 << 20, threads, 3);
            h.replay(&trace);
            h.finish().active_bytes
        };
        assert!(active(32) > active(1), "spread across threads wastes blocks");
    }

    #[test]
    fn class_table_sanity() {
        let classes = model_classes(1 << 20);
        assert!(classes.contains(&196608), "160 KiB objects need a class");
        assert_eq!(*classes.last().unwrap(), 1 << 20);
        let classes_small = model_classes(4096);
        assert!(*classes_small.last().unwrap() <= 4096);
    }

    #[test]
    fn offset_identified_strategies_mirror_ids() {
        let mut heap = ModelHeap::new(CompactorKind::Mesh, 1 << 20, 1, 1);
        heap.replay(&trace_alloc_free(100, 64, 3));
        let before = heap.blocks_in_use() as u64 * (1 << 20);
        let out = heap.finish();
        // Mesh compaction must be applicable (ids mirror offsets).
        assert!(out.active_bytes <= before);
    }
}
