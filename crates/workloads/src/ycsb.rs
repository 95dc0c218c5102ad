//! YCSB-style operation streams (§4.2.2).
//!
//! The paper loads CoRM with 8 M 32-byte objects and drives it with
//! closed-loop clients under uniform and Zipf(θ=0.99) key distributions at
//! read:write mixes of 100:0, 95:5, and 50:50 — writes always via RPC,
//! reads via RPC or one-sided RDMA depending on the line.

use rand::Rng;

use crate::zipf::Zipfian;

/// Key distribution.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over the keyspace.
    Uniform,
    /// Zipfian with the given skew, *rank-ordered*: hot keys are adjacent
    /// in the keyspace. Matches the paper's observation that "the Zipf
    /// workload … has a better memory locality" — objects are loaded in
    /// key order, so hot keys share pages and translation-cache entries.
    Zipf(f64),
    /// Zipfian with YCSB's rank scrambling (hot keys spread uniformly over
    /// the keyspace — no page-level locality).
    ZipfScrambled(f64),
}

/// Read:write mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Fraction of reads in `[0, 1]`.
    read_fraction: f64,
}

impl Mix {
    /// The paper's 100:0 mix.
    pub const READ_ONLY: Mix = Mix { read_fraction: 1.0 };
    /// The paper's 95:5 mix.
    pub const READ_HEAVY: Mix = Mix { read_fraction: 0.95 };
    /// The paper's 50:50 mix.
    pub const BALANCED: Mix = Mix { read_fraction: 0.5 };

    /// Display label matching the paper's legends.
    pub fn label(&self) -> String {
        let r = (self.read_fraction * 100.0).round() as u32;
        format!("{r}:{}", 100 - r)
    }
}

/// One workload operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the object holding `key`.
    Read(u64),
    /// Overwrite the object holding `key`.
    Write(u64),
}

impl Op {
    /// The key the operation targets.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Read(k) | Op::Write(k) => k,
        }
    }
}

/// A YCSB workload: keyspace + distribution + mix.
#[derive(Debug, Clone)]
pub struct Workload {
    records: u64,
    mix: Mix,
    zipf: Option<Zipfian>,
}

impl Workload {
    /// Creates a workload over `records` keys.
    pub fn new(records: u64, dist: KeyDist, mix: Mix) -> Self {
        assert!(records > 0);
        let zipf = match dist {
            KeyDist::Zipf(theta) => Some(Zipfian::new(records, theta)),
            KeyDist::ZipfScrambled(theta) => Some(Zipfian::new(records, theta).scrambled()),
            KeyDist::Uniform => None,
        };
        Workload { records, mix, zipf }
    }

    /// The mix in force.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// Draws the next key.
    pub fn next_key(&self, rng: &mut impl Rng) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..self.records),
        }
    }

    /// Draws the next operation.
    pub fn next_op(&self, rng: &mut impl Rng) -> Op {
        let key = self.next_key(rng);
        if rng.gen::<f64>() < self.mix.read_fraction {
            Op::Read(key)
        } else {
            Op::Write(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mix_labels_and_ratios() {
        assert_eq!(Mix::READ_ONLY.label(), "100:0");
        assert_eq!(Mix::READ_HEAVY.label(), "95:5");
        assert_eq!(Mix::BALANCED.label(), "50:50");
    }

    #[test]
    fn mix_fraction_respected() {
        let w = Workload::new(1000, KeyDist::Uniform, Mix::READ_HEAVY);
        let mut rng = StdRng::seed_from_u64(2);
        let reads = (0..20_000).filter(|_| matches!(w.next_op(&mut rng), Op::Read(_))).count();
        let frac = reads as f64 / 20_000.0;
        assert!((frac - 0.95).abs() < 0.01, "read fraction {frac}");
    }

    #[test]
    fn keys_in_range_both_dists() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            let w = Workload::new(500, dist, Mix::BALANCED);
            for _ in 0..5_000 {
                assert!(w.next_op(&mut rng).key() < 500);
            }
        }
    }

    #[test]
    fn zipf_workload_is_skewed_uniform_is_not() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut hot_mass = |dist: KeyDist| {
            let w = Workload::new(100_000, dist, Mix::READ_ONLY);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..30_000 {
                *counts.entry(w.next_key(&mut rng)).or_insert(0u32) += 1;
            }
            let mut v: Vec<u32> = counts.into_values().collect();
            v.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
            v.iter().take(10).sum::<u32>() as f64 / 30_000.0
        };
        let uni = hot_mass(KeyDist::Uniform);
        let zipf = hot_mass(KeyDist::Zipf(0.99));
        assert!(zipf > 0.1, "zipf top-10 mass {zipf}");
        assert!(uni < 0.01, "uniform top-10 mass {uni}");
    }
}
