//! Latency summaries: the median and the highest percentile up to p99
//! that still has at least ten samples beyond it.

/// Samples beyond a reported tail percentile, at least.
const TAIL_SAMPLES: f64 = 10.0;

/// A summarized latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value reported under the `_p99` name.
    pub tail: f64,
    /// The quantile `tail` actually is: 0.99, or lower when fewer than
    /// 1 000 samples leave p99 without ten samples beyond it.
    pub tail_q: f64,
}

/// Nearest-rank quantile of sorted samples: `ceil(q·n)` is the 1-based
/// rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile reportable from `n` samples: p99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that keeps ten.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - TAIL_SAMPLES / n as f64).clamp(0.5, 0.99)
}

/// Summarize `samples` (any order). `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(sorted.len());
    Some(Summary {
        n: sorted.len(),
        p50: quantile(&sorted, 0.5),
        tail: quantile(&sorted, tail_q),
        tail_q,
    })
}

/// Median of `values` (any order); 0 for none.
pub fn median(values: &[f64]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(20_000), 0.99);
        let q = tail_quantile(100);
        assert!((q - 0.9).abs() < 1e-12);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples).expect("samples");
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
