//! Metric arithmetic: medians across rounds and the ratios the
//! per-layer metrics are made of.

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of the samples a power-of-two value histogram gained between two
/// snapshots of its bucket counts (`[2^i, 2^(i+1))`), each sample counted
/// at its bucket's midpoint as the engine's own `Histogram::mean` does;
/// 0 when it gained none.
pub fn bucket_delta_mean(before: &[u64], after: &[u64]) -> f64 {
    let (mut sum, mut n) = (0.0, 0.0);
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        let c = (a - b) as f64;
        sum += c * (1u64 << i) as f64 * 1.5;
        n += c;
    }
    per(sum, n)
}

/// The items whose `key` is among the lowest quarter of keys: at least
/// one, and all of them when every key is equal.
pub fn lowest_quarter<T>(mut items: Vec<T>, key: impl Fn(&T) -> f64) -> Vec<T> {
    let mut keys: Vec<f64> = items.iter().map(&key).collect();
    keys.sort_by(f64::total_cmp);
    if let Some(&cut) = keys.get(keys.len().saturating_sub(1) / 4) {
        items.retain(|t| key(t) <= cut);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(per(3.0, 0.0), 0.0);
        assert_eq!(per(3.0, 2.0), 1.5);
    }

    #[test]
    fn bucket_means_count_only_the_new_samples() {
        // before: ten samples of 1; after: those plus two of 2..4, one of 4..8
        assert_eq!(
            bucket_delta_mean(&[10, 0, 0], &[10, 2, 1]),
            (2.0 * 3.0 + 6.0) / 3.0
        );
        assert_eq!(bucket_delta_mean(&[1, 1], &[1, 1]), 0.0);
    }

    #[test]
    fn lowest_quarter_keeps_the_lowest_keys_and_their_ties() {
        let key = |&x: &u32| f64::from(x);
        assert_eq!(lowest_quarter(vec![5, 1, 9, 2, 8, 3, 7, 4], key), [1, 2]);
        assert_eq!(lowest_quarter(vec![3, 1, 2], key), [1]);
        assert_eq!(lowest_quarter(vec![2, 0, 0, 0], key), [0, 0, 0]);
        assert_eq!(lowest_quarter(vec![7], key), [7]);
        assert!(lowest_quarter(Vec::<u32>::new(), key).is_empty());
    }
}
