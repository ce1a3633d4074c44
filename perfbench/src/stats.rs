//! Order statistics over latency samples.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Sorted samples with percentile lookup.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a bug in the caller).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`0 < q < 1`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn pct(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if (n as f64) * (1.0 - q) < MIN_BEYOND {
            return None;
        }
        // Nearest rank.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }
}

/// Median of a small set of repeated measurements (setup times).
pub fn median(values: &[f64]) -> f64 {
    let s = Samples::new(values.to_vec());
    let n = s.sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s.sorted[n / 2]
    } else {
        (s.sorted[n / 2 - 1] + s.sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s = Samples::new((1..=999).map(f64::from).collect());
        assert!(s.pct(0.99).is_none(), "999 samples leave 9.99 beyond p99");
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.pct(0.99), Some(990.0));
        assert_eq!(s.pct(0.5), Some(500.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
