//! The YCSB Zipfian generator.
//!
//! A port of the generator from the YCSB core package (Gray et al.'s
//! "Quickly generating billion-record synthetic databases" algorithm):
//! draws from `P(k) ∝ 1/(k+1)^θ` over `n` items in O(1) per sample after
//! an O(n) zeta precomputation. The paper's skewed experiments use
//! θ ∈ [0.6, 0.99] (Figs. 12–14).
//!
//! Like YCSB's `ScrambledZipfianGenerator`, hot items can be spread over
//! the keyspace by hashing the rank (`scrambled`), so "popular" keys are
//! not clustered at low addresses.

use rand::Rng;

/// Zipfian rank generator over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    scrambled: bool,
}

impl Zipfian {
    /// Creates a generator over `n` items with skew `theta` (0 < θ < 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1): {theta}");
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian { n, theta, alpha, zeta_n, eta, scrambled: false }
    }

    /// Enables rank scrambling (YCSB's `ScrambledZipfian`).
    pub fn scrambled(mut self) -> Self {
        self.scrambled = true;
        self
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws the next key.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scrambled {
            fnv1a(rank) % self.n
        } else {
            rank
        }
    }
}

/// FNV-1a 64-bit hash, the scrambler YCSB uses.
fn fnv1a(x: u64) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..8 {
        h ^= (x >> (8 * i)) & 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability mass of rank `k`: the sampler test's expected frequency.
    fn pmf(z: &Zipfian, k: u64) -> f64 {
        assert!(k < z.n);
        1.0 / ((k + 1) as f64).powf(z.theta) / z.zeta_n
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
        let zs = Zipfian::new(1000, 0.99).scrambled();
        for _ in 0..10_000 {
            assert!(zs.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn empirical_matches_pmf_for_hot_keys() {
        let n = 10_000u64;
        let z = Zipfian::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 200_000;
        let mut counts = [0u64; 16];
        for _ in 0..trials {
            let k = z.sample(&mut rng);
            if (k as usize) < counts.len() {
                counts[k as usize] += 1;
            }
        }
        // The YCSB generator reproduces the head of the distribution
        // exactly and approximates the body; check the two hottest ranks
        // tightly and monotonic decay over the rest.
        for k in 0..2u64 {
            let expect = pmf(&z, k);
            let got = counts[k as usize] as f64 / trials as f64;
            assert!((got - expect).abs() / expect < 0.1, "rank {k}: got {got}, expect {expect}");
        }
        for k in 1..8 {
            assert!(
                counts[k] <= counts[k - 1] + (trials / 100) as u64,
                "rank {k} hotter than rank {}",
                k - 1
            );
        }
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut frac_top = |theta: f64| {
            let z = Zipfian::new(100_000, theta);
            let mut hot = 0;
            for _ in 0..50_000 {
                if z.sample(&mut rng) < 100 {
                    hot += 1;
                }
            }
            hot as f64 / 50_000.0
        };
        let low = frac_top(0.6);
        let high = frac_top(0.99);
        assert!(high > low * 1.5, "θ=0.99 ({high}) ≫ θ=0.6 ({low})");
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let z = Zipfian::new(1 << 20, 0.99).scrambled();
        let mut rng = StdRng::seed_from_u64(5);
        // The two hottest scrambled keys should not be adjacent.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let mut top: Vec<_> = counts.into_iter().collect();
        top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let (a, b) = (top[0].0, top[1].0);
        assert!(a.abs_diff(b) > 1, "scrambled hot keys {a},{b} adjacent");
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv1a(1), fnv1a(1));
        assert_ne!(fnv1a(1), fnv1a(2));
        assert!((fnv1a(1) ^ fnv1a(2)).count_ones() > 8);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_one_rejected() {
        Zipfian::new(10, 1.0);
    }
}
