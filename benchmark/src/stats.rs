//! The harness's own arithmetic: medians, quartiles, percentiles over
//! samples that may hold `+∞` (a failed job misses every latency
//! limit), and the geometric mean.

/// Sorts ascending with `+∞` last; `NaN` never enters a sample.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median; `+∞` when the sample is empty or its middle is a failed job.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::INFINITY,
        n if n % 2 == 1 => v[n / 2],
        // `(inf + x) / 2` and `(inf + inf) / 2` are both `inf`, never
        // NaN: the plain mean of the two middle values is always right.
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
/// The small slack keeps products such as `0.999 × 10 000`, which land a
/// hair above the integer in floating point, from rounding a rank up.
fn rank(n: usize, p: f64) -> usize {
    ((((p / 100.0) * n as f64) - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample with
/// at least `p` percent of the sample at or below it. Failed jobs sit
/// at the top as `+∞`, so a percentile that reaches them reads `+∞`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::INFINITY;
    }
    v[rank(v.len(), p) - 1]
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it; `None` when not even the p50 does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so the spread printed here is the spread the driver computes.
/// Fewer than two values have no spread: all three read the one value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return [only; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the benchmark contract bounds.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if values.len() < 2 || q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values; `+∞` if any is `+∞`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::INFINITY;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty sample (a per-layer count of nothing).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_choice_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(samples_beyond(600, 95.0), 30);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn failed_jobs_count_as_infinite_latency() {
        // 19 good jobs and one failure: the median is untouched, the
        // p95 still lands on a good job, the p99 reads +inf.
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(median(&v), 10.5);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 99.0), f64::INFINITY);
        // More than half failed: even the median is +inf, never NaN.
        let bad = [1.0, f64::INFINITY, f64::INFINITY, f64::INFINITY];
        assert_eq!(median(&bad), f64::INFINITY);
        assert_eq!(median(&[]), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.2]), 0.0);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[5.0, f64::INFINITY]), f64::INFINITY);
    }
}
