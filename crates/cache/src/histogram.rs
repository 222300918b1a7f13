//! A log-bucketed latency histogram.
//!
//! Used by the machine to record per-walk and per-fault cycle costs, so
//! tail behaviour (the THP first-touch spike, DRAM-bound walks) is
//! observable, not just averages.

/// Number of power-of-two buckets (covers values up to 2^47).
const BUCKETS: usize = 48;

/// A histogram with power-of-two bucket boundaries.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 additionally
/// holds zeroes.
///
/// # Examples
///
/// ```
/// use vmsim_cache::Histogram;
///
/// let mut h = Histogram::new();
/// for cycles in [12u64, 14, 15, 480] {
///     h.record(cycles);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) < 16);
/// assert_eq!(h.max(), 480);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (bucket upper bound containing the p-quantile,
    /// `0.0 < p <= 1.0`). Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
        if self.total == 0 {
            return 0;
        }
        let rank = (p * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The last bucket is open-ended (it absorbs everything at
                // and above 2^(BUCKETS-1)), so its only honest upper bound
                // is the observed max.
                if i == BUCKETS - 1 {
                    return self.max;
                }
                // Upper bound of the bucket, clamped to the observed max.
                return ((1u64 << (i + 1)) - 1).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Iterates over non-empty buckets as `(lower_bound, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

impl core::fmt::Display for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={:.0} p50={} p99={} max={}",
            self.total,
            self.mean(),
            self.percentile(0.5),
            self.percentile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn records_track_mean_and_max() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < f64::EPSILON);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let mut h = Histogram::new();
        // 99 cheap samples, one expensive.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let p50 = h.percentile(0.5);
        let p100 = h.percentile(1.0);
        assert!((100..256).contains(&p50), "p50 in the cheap bucket: {p50}");
        assert_eq!(p100, 100_000);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets().count(), 1, "0 and 1 share bucket 0..2");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        a.record(8);
        let mut b = Histogram::new();
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1024);
        assert_eq!(a.buckets().count(), 2);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_rejected() {
        Histogram::new().percentile(0.0);
    }

    #[test]
    fn empty_histogram_every_percentile_is_zero() {
        let h = Histogram::new();
        for p in [0.001, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0, "p={p} on empty");
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(37);
        for p in [0.001, 0.5, 0.99, 1.0] {
            // One sample occupies every rank; the bucket upper bound clamps
            // to the observed max, so the answer is exact.
            assert_eq!(h.percentile(p), 37, "p={p} with one sample");
        }
    }

    #[test]
    fn all_zero_samples_percentiles_stay_zero() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        for p in [0.001, 0.5, 1.0] {
            assert_eq!(h.percentile(p), 0, "p={p} all-zero");
        }
    }

    #[test]
    fn max_bucket_saturation_clamps_to_observed_max() {
        let mut h = Histogram::new();
        // Both exceed the 2^47 top-bucket boundary, so both land in the
        // saturated last bucket; percentile must clamp to the true max
        // rather than the unreachable bucket upper bound.
        h.record(1 << 50);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.percentile(0.5), u64::MAX);
        assert_eq!(h.buckets().count(), 1, "both share the saturated bucket");
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        for v in [3u64, 9, 81] {
            a.record(v);
        }
        let reference = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, reference, "merging an empty histogram changes nothing");
        let mut empty = Histogram::new();
        empty.merge(&reference);
        assert_eq!(empty, reference, "merging into empty copies everything");
    }

    #[test]
    fn merge_preserves_percentiles_of_the_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 1..=50u64 {
            a.record(v);
            both.record(v);
        }
        for v in 51..=100u64 {
            b.record(v * 100);
            both.record(v * 100);
        }
        a.merge(&b);
        for p in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(a.percentile(p), both.percentile(p), "p={p}");
        }
        assert_eq!(a.count(), both.count());
        assert!((a.mean() - both.mean()).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let mut h = Histogram::new();
        h.record(5);
        assert!(h.to_string().contains("n=1"));
    }
}
