//! Order statistics over a run's rounds, and the fingerprint fold.

/// Index of the nearest-rank `q`-quantile (0 ≤ q ≤ 1) in `len` sorted
/// samples, `len` > 0: the rule `corm_sim_core::stats::Histogram` uses, so
/// percentiles within a round and across rounds read the same way.
pub fn nearest_rank(len: usize, q: f64) -> usize {
    let last = len - 1;
    ((last as f64 * q).round() as usize).min(last)
}

/// Nearest-rank quantile of `values`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[nearest_rank(sorted.len(), q)]
}

/// Median: the mean of the two middle values for an even count, so that two
/// sets of rounds of different length stay comparable.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The 10th percentile: what a round, or a batch of calls, costs while the
/// host leaves the process alone. On a shared host other tenants slow
/// memory down for seconds at a time, and that only ever adds time, so a low
/// percentile repeats from run to run where the median does not (README.md
/// has the numbers). The tenth still has several samples below it.
pub fn p10(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the suite compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// FNV-1a offset basis; fold exact simulated values into it with [`fold`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a-style step over a 64-bit value.
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p10_ignores_slow_rounds_and_keeps_samples_below() {
        let mut rounds: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(p10(&rounds), 6.0);
        assert_eq!(rounds.iter().filter(|&&v| v < 6.0).count(), 5);
        // A slow phase over the upper half of the rounds moves the median,
        // not the tenth percentile.
        for v in &mut rounds[25..] {
            *v *= 3.0;
        }
        assert_eq!(p10(&rounds), 6.0);
        assert!(median(&rounds) > 25.5);
    }

    #[test]
    fn quantile_edges() {
        let v = [5.0, 1.0, 9.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
        assert_eq!(quantile(&[2.0], 0.99), 2.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0; 8]), 0.0);
    }

    #[test]
    fn fold_is_order_sensitive() {
        let a = fold(fold(FNV_BASIS, 1), 2);
        let b = fold(fold(FNV_BASIS, 2), 1);
        assert_ne!(a, b);
        assert_eq!(a, fold(fold(FNV_BASIS, 1), 2));
    }
}
