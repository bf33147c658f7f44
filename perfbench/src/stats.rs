//! Order statistics over latency samples.

/// Percentiles the tail report may choose from, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule on
/// a sorted copy. Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank (1-based) of the `p`-th percentile of `n` samples; the
/// small slack keeps `99.9 / 100 · 10 000` from rounding up past 9 990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median (the 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond it, or `None` when
/// even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| samples_beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Samples lying strictly above the nearest-rank `p`-th percentile of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentile `p` of a log₂-bucketed histogram (bucket `k ≥ 1` holds
/// values in `[2^(k-1), 2^k)`, bucket 0 the value 0), interpolated linearly
/// within the bucket that holds that rank.
pub fn bucket_percentile(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (p / 100.0) * total as f64;
    let mut below = 0u64;
    for (k, &c) in buckets.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            if k == 0 {
                return 0.0;
            }
            let lo = (1u64 << (k - 1).min(63)) as f64;
            let within = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return lo + within * lo;
        }
        below += c;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 10 000 samples: 10 lie beyond p99.9.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 9 999 samples: p99.9 leaves only 9, p99 leaves 99.
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn samples_beyond_counts_strictly_greater_ranks() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 99.0);
        assert_eq!(p99, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > p99).count(), samples_beyond(1000, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 90.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_percentile_interpolates_within_the_bucket() {
        // Values 3 (bucket 2: [2,4)) ×4 and 100 (bucket 7: [64,128)) ×4.
        let mut b = [0u64; 65];
        b[2] = 4;
        b[7] = 4;
        // Rank 4 of 8 is the last of bucket 2, rank 6 halfway into bucket 7.
        assert_eq!(bucket_percentile(&b, 50.0), 4.0);
        assert_eq!(bucket_percentile(&b, 75.0), 96.0);
        assert_eq!(bucket_percentile(&b, 100.0), 128.0);
        assert_eq!(bucket_percentile(&[0; 65], 50.0), 0.0);
    }
}
