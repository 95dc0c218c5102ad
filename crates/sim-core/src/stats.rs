//! Measurement collection for the benchmark harness.
//!
//! Two collectors cover everything the paper reports:
//! - [`Histogram`]: exact percentiles of virtual-time durations (the paper
//!   reports *median* latencies), in memory that grows with the number of
//!   distinct durations, not with the number of samples.
//! - [`TimeSeries`]: fixed-width time buckets for throughput timelines
//!   (Fig. 16 plots throughput before/during/after compaction).

use crate::hash::FastHashMap;
use crate::time::{SimDuration, SimTime};

/// Exact distribution of duration samples for percentile queries.
///
/// The latency model is deterministic and works in whole nanoseconds, so
/// samples repeat: a closed-loop round of 800 k reads holds under a
/// thousand distinct values. The histogram keeps one count per distinct
/// nanosecond value, so its memory is O(distinct durations), and answers
/// every query exactly as a sorted vector of all samples would.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Samples per distinct duration, keyed by nanoseconds.
    counts: FastHashMap<u64, u64>,
    /// Samples recorded.
    len: usize,
    /// Sum of the samples in µs, added in recording order: bit for bit
    /// the sum a vector of the samples would give.
    sum_us: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Pre-reserves room for `additional` distinct durations so recording
    /// inside an allocation-free measurement window never grows the map.
    pub fn reserve(&mut self, additional: usize) {
        self.counts.reserve(additional);
    }

    /// Records a duration sample; queries answer in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        *self.counts.entry(d.as_nanos()).or_insert(0) += 1;
        self.len += 1;
        self.sum_us += d.as_micros_f64();
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Several quantiles from a single sort of the distinct durations;
    /// `None` when empty. This is the shared helper the bench harness uses
    /// instead of per-binary copies — querying p50/p99/p999 costs one sort,
    /// not three.
    ///
    /// The rank is the nearest rank among all samples, `round(last × q)`,
    /// and the answer is the smallest duration with more than `rank`
    /// samples at or below it: the sample a sorted vector would hold at
    /// `rank`. Converting to µs is monotone, so it commutes with the sort.
    pub fn quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        for &q in qs {
            assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        }
        if self.is_empty() {
            return None;
        }
        let mut cumulative: Vec<(u64, u64)> = self.counts.iter().map(|(&ns, &n)| (ns, n)).collect();
        cumulative.sort_unstable_by_key(|&(ns, _)| ns);
        let mut at_or_below = 0;
        for (_, n) in &mut cumulative {
            at_or_below += *n;
            *n = at_or_below;
        }
        let last = self.len - 1;
        Some(
            qs.iter()
                .map(|&q| {
                    let rank = ((last as f64 * q).round() as usize).min(last) as u64;
                    let &(ns, _) = cumulative
                        .iter()
                        .find(|&&(_, at_or_below)| at_or_below > rank)
                        .expect("the last value has every sample at or below it");
                    SimDuration::from_nanos(ns).as_micros_f64()
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

    /// Mean of the samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_us / self.len as f64
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
    use crate::rng::stream_rng;
    use rand::Rng;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    #[test]
    fn histogram_median_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.median(), None);
        for x in 1..=101 {
            h.record_duration(us(x));
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
        h.record_duration(SimDuration::from_nanos(3_500));
        assert_eq!(h.median(), Some(3.5));
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
        h.record_duration(us(1));
        h.quantile(f64::NAN);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is None.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), None);
        assert_eq!(empty.quantile(1.0), None);
        assert_eq!(empty.quantile(0.999), None);
        assert_eq!(empty.quantiles(&[0.5, 0.99]), None);

        // One sample: every quantile answers that sample.
        let mut one = Histogram::new();
        one.record_duration(us(42));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(one.quantile(q), Some(42.0));
        }

        // q = 1.0 is the maximum even with unsorted input.
        let mut h = Histogram::new();
        for x in [9, 2, 7, 1] {
            h.record_duration(us(x));
        }
        assert_eq!(h.quantile(1.0), Some(9.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn quantiles_single_sort_matches_individual_queries() {
        let mut h = Histogram::new();
        for x in (1..=1000).rev() {
            h.record_duration(us(x));
        }
        let qs = [0.0, 0.5, 0.99, 0.999, 1.0];
        let batch = h.quantiles(&qs).unwrap();
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(Some(batch[i]), h.quantile(q));
        }
        assert_eq!(h.p99(), Some(990.0));
        assert_eq!(h.quantile(0.999), Some(999.0));
        assert_eq!(h.quantiles(&[]), Some(vec![]));
    }

    /// The stored-sample histogram the counting one replaced: every sample
    /// as an `f64` in recording order, sorted on query.
    #[derive(Default)]
    struct SampleVec(Vec<f64>);

    impl SampleVec {
        fn record_duration(&mut self, d: SimDuration) {
            self.0.push(d.as_micros_f64());
        }

        fn quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
            if self.0.is_empty() {
                return None;
            }
            let mut sorted = self.0.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
            let last = sorted.len() - 1;
            Some(
                qs.iter()
                    .map(|&q| sorted[((last as f64 * q).round() as usize).min(last)])
                    .collect(),
            )
        }

        fn mean(&self) -> f64 {
            if self.0.is_empty() {
                0.0
            } else {
                self.0.iter().sum::<f64>() / self.0.len() as f64
            }
        }
    }

    /// Counting and storing agree bit for bit on every query, over seeded
    /// runs of 1 to 10^5 samples from 0 ns to 100 ms, drawn from a pool of
    /// anywhere from one value to as many values as samples.
    #[test]
    fn counts_answer_exactly_as_stored_samples() {
        const MAX_NS: u64 = 100_000_000;
        for case in 0..48u64 {
            let mut rng = stream_rng(0x5747, case);
            let samples = match case {
                0 => 1,
                1 => 100_000,
                _ => 10f64.powf(rng.gen_range(0.0..5.0)).round() as usize,
            };
            // Duplication from total (one value) to none (a pool as large
            // as the run); short values, as the latency model's are, and
            // long ones up to 100 ms.
            let distinct = match case % 4 {
                0 => 1,
                1 => samples,
                _ => rng.gen_range(1..=samples.min(1_000)),
            };
            let pool: Vec<u64> = (0..distinct)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0,
                    1 => rng.gen_range(0..10_000),
                    _ => rng.gen_range(0..=MAX_NS),
                })
                .collect();
            let mut counted = Histogram::new();
            let mut stored = SampleVec::default();
            for _ in 0..samples {
                let d = SimDuration::from_nanos(pool[rng.gen_range(0..distinct)]);
                counted.record_duration(d);
                stored.record_duration(d);
            }
            let mut qs = vec![0.0, 1e-9, 0.5, 0.99, 0.999, 1.0];
            qs.extend((0..32).map(|_| rng.gen_range(0.0..=1.0)));
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let what = format!("case {case}: {samples} samples over {distinct} values");
            assert_eq!(counted.len(), stored.0.len(), "{what}");
            assert_eq!(counted.mean().to_bits(), stored.mean().to_bits(), "{what}: mean");
            assert_eq!(
                bits(counted.quantiles(&qs).unwrap()),
                bits(stored.quantiles(&qs).unwrap()),
                "{what}: quantiles at {qs:?}"
            );
        }
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
