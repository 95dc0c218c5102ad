//! Seeded, reproducible randomness.
//!
//! Every stochastic component of the reproduction (object-ID generation,
//! workload key choice, trace shuffling) draws from RNGs created through this
//! module so experiments are replayable from a single root seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deterministic RNG used throughout the workspace.
pub type DetRng = StdRng;

/// Creates the root RNG for an experiment from a seed.
pub fn root_rng(seed: u64) -> DetRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent child RNG from a root seed and a stream label.
///
/// Mixing the label through SplitMix64 keeps streams decorrelated even for
/// adjacent labels, so e.g. client 3 and client 4 of a YCSB run never share a
/// sequence.
pub fn stream_rng(seed: u64, stream: u64) -> DetRng {
    StdRng::seed_from_u64(split_mix64(seed ^ split_mix64(stream)))
}

/// SplitMix64 finalizer — a cheap, well-distributed 64-bit mixer.
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn root_rng_is_deterministic() {
        let mut a = root_rng(42);
        let mut b = root_rng(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = stream_rng(42, 0);
        let mut b = stream_rng(42, 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_mix_is_not_identity_and_spreads_bits() {
        let a = split_mix64(1);
        let b = split_mix64(2);
        assert_ne!(a, b);
        // Adjacent inputs should differ in many bits.
        assert!((a ^ b).count_ones() > 16);
    }
}
