//! Synthetic allocation-spike traces (Fig. 17).
//!
//! "We generate synthetic traces that first allocate \[N\] objects of a
//! given size and then randomly deallocate a fixed portion (x-axis) of
//! them." The paper sweeps object sizes {256 B, 2 KiB, 8 KiB, 12 KiB} and
//! deallocation rates 0.4–0.9 under 1 MiB blocks.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::TraceOp;

/// Parameters of a Fig. 17 trace.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Objects to allocate.
    pub objects: u64,
    /// Payload size of every object.
    pub size: usize,
    /// Fraction of objects deallocated, in `[0, 1]`.
    pub dealloc_rate: f64,
    /// RNG seed for the deallocation choice.
    pub seed: u64,
}

/// Generates the trace: `objects` allocations followed by a uniformly
/// random `dealloc_rate` fraction of frees.
pub fn synthetic_trace(spec: &SyntheticSpec) -> Vec<TraceOp> {
    assert!((0.0..=1.0).contains(&spec.dealloc_rate));
    let mut ops: Vec<TraceOp> =
        (0..spec.objects).map(|key| TraceOp::Alloc { key, size: spec.size }).collect();
    // Partial Fisher–Yates to pick the deallocated subset.
    let k = (spec.objects as f64 * spec.dealloc_rate).round() as u64;
    let mut keys: Vec<u64> = (0..spec.objects).collect();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    for i in 0..k as usize {
        let j = rand::Rng::gen_range(&mut rng, i..keys.len());
        keys.swap(i, j);
    }
    ops.extend(keys[..k as usize].iter().map(|&key| TraceOp::Free { key }));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ModelHeap;
    use corm_compact::strategy::CompactorKind;

    #[test]
    fn trace_shape() {
        let spec = SyntheticSpec { objects: 1000, size: 256, dealloc_rate: 0.6, seed: 1 };
        let ops = synthetic_trace(&spec);
        let allocs = ops.iter().filter(|o| matches!(o, TraceOp::Alloc { .. })).count();
        let frees = ops.iter().filter(|o| matches!(o, TraceOp::Free { .. })).count();
        assert_eq!(allocs, 1000);
        assert_eq!(frees, 600);
        // Frees are distinct keys.
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            if let TraceOp::Free { key } = op {
                assert!(seen.insert(*key));
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = SyntheticSpec { objects: 500, size: 64, dealloc_rate: 0.5, seed: 9 };
        assert_eq!(synthetic_trace(&spec), synthetic_trace(&spec));
    }

    #[test]
    fn fig17_shape_corm16_near_ideal_for_2kib_high_dealloc() {
        // Fig. 17's headline: for 2 KiB objects CoRM-16 tracks the ideal
        // compactor closely, while No stays near the allocation peak.
        let spec = SyntheticSpec { objects: 20_000, size: 2048, dealloc_rate: 0.8, seed: 42 };
        let ops = synthetic_trace(&spec);
        let run = |kind| {
            let mut heap = ModelHeap::new(kind, 1 << 20, 1, 5);
            heap.replay(&ops);
            heap.finish()
        };
        let ideal = run(CompactorKind::Ideal);
        let corm16 = run(CompactorKind::Corm { id_bits: 16 });
        let none = run(CompactorKind::NoCompaction);
        assert!(corm16.active_bytes < none.active_bytes / 2, "CoRM must save >2x");
        assert!(
            (corm16.active_bytes as f64) < ideal.active_bytes as f64 * 2.0,
            "CoRM-16 should be within 2x of ideal: {} vs {}",
            corm16.active_bytes,
            ideal.active_bytes
        );
    }

    #[test]
    fn full_dealloc_leaves_nothing() {
        let spec = SyntheticSpec { objects: 100, size: 256, dealloc_rate: 1.0, seed: 3 };
        let ops = synthetic_trace(&spec);
        let mut heap = ModelHeap::new(CompactorKind::NoCompaction, 1 << 20, 2, 1);
        heap.replay(&ops);
        assert_eq!(heap.live_objects(), 0);
        assert_eq!(heap.finish().active_bytes, 0);
    }
}
