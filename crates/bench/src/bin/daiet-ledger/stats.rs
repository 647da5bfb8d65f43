//! Order statistics: medians, quartiles and tail percentiles, with the rule
//! that a percentile is only as good as the samples beyond it.

/// A percentile needs this many samples beyond it before it is reported as
/// resolved (choosing-metrics: "the highest percentile that has at least
/// ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver applies to the values this benchmark prints. One sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile {pct} out of range");
    let v = sorted(values);
    v[rank_of(pct, v.len()) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples. The small
/// slack keeps a product such as 99.9 % of 10 000, which floating point
/// renders a hair above 9 990, from rounding up a whole rank.
fn rank_of(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond percentile `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank_of(pct, n)
    }
}

/// The highest of the usual tail percentiles that `n` samples support with
/// [`MIN_BEYOND`] samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&pct| beyond(n, pct) >= MIN_BEYOND)
}

/// A timing sample reduced to what the ledger prints.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        let p90 = percentile(values, 90.0);
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
            p90,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20, 40, 60]
        let v: Vec<f64> = (1..=7).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(quartiles(&v), [20.0, 40.0, 60.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_what_lies_beyond() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!((percentile(&v, 90.0), beyond(120, 90.0)), (108.0, 12));
        assert_eq!((percentile(&v, 50.0), beyond(120, 50.0)), (60.0, 60));
        assert_eq!((percentile(&v, 100.0), beyond(120, 100.0)), (120.0, 0));
        assert_eq!((percentile(&[5.0], 90.0), beyond(1, 90.0)), (5.0, 0));
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_reportable_tail() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(27), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(120), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        let s = Summary::of(&(1..=120).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p90, beyond(s.n, 90.0)), (108.0, 12));
        assert_eq!(beyond(0, 90.0), 0);
    }
}
