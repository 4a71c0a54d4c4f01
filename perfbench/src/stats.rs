//! Order statistics and digests over measured samples.

/// Value at quantile `q` (0..=1) by the nearest-rank rule; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the mean of the middle pair when even); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// FNV-1a over a byte stream: a stable digest for output bits, counter
/// ledgers and source files, so two runs can be compared exactly.
pub fn digest_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// [`digest_bytes`] over 64-bit words in little-endian order.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    digest_bytes(words.into_iter().flat_map(u64::to_le_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([7, 8]), digest(vec![7, 8]));
    }
}
