//! Order statistics for timings: medians and the tail-percentile rule.
//!
//! A timing is reported as its median plus the highest percentile on a
//! fixed ladder that still has at least ten samples beyond it, so a tail
//! figure is never read off a handful of outliers.

/// Percentiles the tail rule may pick, in per mille, ascending.
const LADDER: [u32; 4] = [900, 950, 990, 999];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Samples strictly above the nearest-rank `per_mille` percentile.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the lowest rung has too few.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted samples.
fn percentile_sorted(sorted: &[f64], per_mille: u32) -> f64 {
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Metric-name suffix of a percentile: 500 → `p50`, 999 → `p99.9`.
pub fn label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Sum over columns of each column's minimum: rows are repetitions of
/// identical work, columns its units. `None` for no rows or ragged rows.
pub fn sum_of_column_minima(rows: &[Vec<f64>]) -> Option<f64> {
    let width = rows.first()?.len();
    if rows.iter().any(|r| r.len() != width) {
        return None;
    }
    Some(
        (0..width)
            .map(|i| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// A timing's summary: sample count, median and rule-chosen tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(u32, f64)>,
}

/// Summarises `values`. The median uses nearest rank, like the tail, so
/// both are observed samples.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return Summary {
            n: 0,
            p50: 0.0,
            tail: None,
        };
    }
    Summary {
        n: v.len(),
        p50: percentile_sorted(&v, 500),
        tail: tail_per_mille(v.len()).map(|pm| (pm, percentile_sorted(&v, pm))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(1_000), Some(990));
        // 999 samples leave only 9 beyond p99.
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(199), Some(900));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(99), None);
        assert_eq!(tail_per_mille(0), None);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(1_000, 990), 10);
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(1, 500), 0);
    }

    #[test]
    fn summary_reads_observed_samples() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, Some((900, 90.0)));
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail), (2.0, None));
    }

    #[test]
    fn column_minima_take_each_units_best_repetition() {
        let rows = vec![
            vec![5.0, 1.0, 4.0],
            vec![2.0, 3.0, 4.0],
            vec![9.0, 2.0, 0.5],
        ];
        assert_eq!(sum_of_column_minima(&rows), Some(2.0 + 1.0 + 0.5));
        assert_eq!(sum_of_column_minima(&rows[..1]), Some(10.0));
        assert_eq!(sum_of_column_minima(&[]), None);
        assert_eq!(sum_of_column_minima(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn median_and_labels() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(label(500), "p50");
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }
}
