//! Order statistics over the benchmark's samples.

/// The `q`-quantile (0..=1) of unsorted samples, nearest rank. The p99 of
/// `n` samples leaves `n / 100` samples beyond it, so it is reported only
/// from pools of at least a thousand.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    *sorted.select_nth_unstable(rank).1
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartiles, as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method), so spreads printed here are the ones the
/// driver computes. Fewer than two values have no spread: all three are the
/// value itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&samples, 0.5), 500);
        assert_eq!(quantile(&samples, 0.99), 990);
        assert_eq!(quantile(&[7], 0.99), 7);
    }
}
