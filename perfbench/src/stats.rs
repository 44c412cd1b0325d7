//! Order statistics over recorded samples.

/// The `p`-quantile (0..=1) of `samples` by nearest rank on a sorted copy;
/// `None` when there are no samples.
#[must_use]
pub fn quantile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of nanosecond samples, `0` when empty.
#[must_use]
pub fn median_ns(samples: &[u64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |v| v as f64)
}

/// Median of floating-point values (mean of the middle pair for an even
/// count), `0` when empty.
#[must_use]
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median over slices of each slice's `p`-quantile, `0` when no slice
/// has samples; slices without samples are skipped.
#[must_use]
pub fn sliced_quantile(by_slice: &[Vec<u64>], p: f64) -> f64 {
    let per_slice: Vec<f64> = by_slice
        .iter()
        .filter_map(|samples| quantile(samples, p))
        .map(|v| v as f64)
        .collect();
    median_f64(&per_slice)
}

/// `num / den`, or `0` when `den` is zero.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&samples, 0.5), Some(50));
        assert_eq!(quantile(&samples, 0.99), Some(99));
        assert_eq!(quantile(&samples, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let slices = [vec![1, 2, 3], vec![], vec![10, 20, 30], vec![5]];
        assert_eq!(sliced_quantile(&slices, 0.5), 5.0);
        assert_eq!(sliced_quantile(&[vec![], vec![]], 0.5), 0.0);
    }
}
