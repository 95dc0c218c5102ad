//! Measurement collection for the benchmark harness.
//!
//! Two collectors cover everything the paper reports:
//! - [`Histogram`]: stored-sample percentile estimation (the paper reports
//!   *median* latencies).
//! - [`TimeSeries`]: fixed-width time buckets for throughput timelines
//!   (Fig. 16 plots throughput before/during/after compaction).

use crate::time::{SimDuration, SimTime};

/// Stored-sample distribution for percentile queries.
///
/// Keeps samples in insertion order and sorts lazily on query. Suitable for
/// the at-most-millions of latency samples the figure harness produces.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { samples: Vec::new() }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Pre-reserves room for `additional` samples so recording inside an
    /// allocation-free measurement window never grows the backing vector.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Records a duration sample in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on the sorted samples;
    /// `None` when empty.
    ///
    /// Edge cases are pinned by tests: one sample answers every `q` with
    /// that sample, `q = 0.0` is the minimum, and `q = 1.0` is the maximum
    /// (the rank is clamped so float rounding can never index past the
    /// last sample). `q` outside `[0, 1]` (including NaN) panics.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantiles(&[q]).map(|v| v[0])
    }

    /// Several quantiles from a single sort of the samples; `None` when
    /// empty. This is the shared helper the bench harness uses instead of
    /// per-binary copies — querying p50/p99/p999 costs one sort, not three.
    pub fn quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        for &q in qs {
            assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        }
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let last = sorted.len() - 1;
        Some(
            qs.iter()
                .map(|&q| {
                    let rank = ((last as f64 * q).round() as usize).min(last);
                    sorted[rank]
                })
                .collect(),
        )
    }

    /// Median sample; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th-percentile sample; `None` when empty.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th-percentile sample; `None` when empty.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Mean of the samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Fixed-width time-bucketed event counter for throughput timelines.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket > SimDuration::ZERO, "bucket width must be positive");
        TimeSeries { bucket, counts: Vec::new() }
    }

    /// Records one event at instant `t`.
    pub fn record(&mut self, t: SimTime) {
        let idx = (t.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Raw per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bucket rates in events/second, with bucket start times in seconds.
    pub fn rates(&self) -> Vec<(f64, f64)> {
        let w = self.bucket.as_secs_f64();
        self.counts.iter().enumerate().map(|(i, &c)| (i as f64 * w, c as f64 / w)).collect()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.median(), None);
        for x in 1..=101 {
            h.record(x as f64);
        }
        assert_eq!(h.median(), Some(51.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(101.0));
        assert_eq!(h.len(), 101);
        assert!((h.mean() - 51.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_duration_samples() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(3));
        assert_eq!(h.median(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_range_checked() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_nan() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(f64::NAN);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is None.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), None);
        assert_eq!(empty.quantile(1.0), None);
        assert_eq!(empty.p999(), None);
        assert_eq!(empty.quantiles(&[0.5, 0.99]), None);

        // One sample: every quantile answers that sample.
        let mut one = Histogram::new();
        one.record(42.0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(one.quantile(q), Some(42.0));
        }

        // q = 1.0 is the maximum even with unsorted input.
        let mut h = Histogram::new();
        for x in [9.0, 2.0, 7.0, 1.0] {
            h.record(x);
        }
        assert_eq!(h.quantile(1.0), Some(9.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn quantiles_single_sort_matches_individual_queries() {
        let mut h = Histogram::new();
        for x in (1..=1000).rev() {
            h.record(x as f64);
        }
        let qs = [0.0, 0.5, 0.99, 0.999, 1.0];
        let batch = h.quantiles(&qs).unwrap();
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(Some(batch[i]), h.quantile(q));
        }
        assert_eq!(h.p99(), Some(990.0));
        assert_eq!(h.p999(), Some(999.0));
        assert_eq!(h.quantiles(&[]), Some(vec![]));
    }

    #[test]
    fn time_series_buckets_and_rates() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(100));
        ts.record(SimTime::from_millis(10)); // bucket 0
        ts.record(SimTime::from_millis(99)); // bucket 0
        ts.record(SimTime::from_millis(100)); // bucket 1
        ts.record(SimTime::from_millis(350)); // bucket 3
        assert_eq!(ts.counts(), &[2, 1, 0, 1]);
        assert_eq!(ts.total(), 4);
        let rates = ts.rates();
        assert_eq!(rates.len(), 4);
        assert!((rates[0].1 - 20.0).abs() < 1e-9); // 2 events / 0.1s
        assert!((rates[3].0 - 0.3).abs() < 1e-9);
    }
}
