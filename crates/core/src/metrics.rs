//! Delay statistics and comparison helpers.

/// Summary statistics of a set of delay samples (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayStats {
    /// Number of samples.
    pub samples: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (50th percentile).
    pub median_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
    /// Sample standard deviation (0 for a single sample).
    pub std_ms: f64,
}

impl DelayStats {
    /// Computes statistics from raw samples.
    ///
    /// Returns `None` when `samples` is empty or contains non-finite
    /// values.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|s| !s.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let pct = |q: f64| sorted[((n - 1) as f64 * q).round() as usize];
        Some(DelayStats {
            samples: n,
            mean_ms: mean,
            median_ms: pct(0.5),
            p90_ms: pct(0.9),
            p99_ms: pct(0.99),
            max_ms: sorted[n - 1],
            std_ms: var.sqrt(),
        })
    }
}

/// Relative improvement of `ours` over `baseline`, in percent.
///
/// Positive means `ours` is faster (smaller delay). Returns `None` when the
/// baseline is not a positive finite number.
///
/// # Example
///
/// ```
/// use georep_core::metrics::improvement_pct;
///
/// // 65 ms instead of 100 ms: a 35 % reduction.
/// assert_eq!(improvement_pct(65.0, 100.0), Some(35.0));
/// ```
pub fn improvement_pct(ours: f64, baseline: f64) -> Option<f64> {
    if !(baseline.is_finite() && baseline > 0.0 && ours.is_finite()) {
        return None;
    }
    Some((baseline - ours) / baseline * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_known_samples() {
        let s = DelayStats::from_samples(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(s.samples, 4);
        assert_eq!(s.mean_ms, 25.0);
        assert_eq!(s.max_ms, 40.0);
        assert!((s.std_ms - 12.909944).abs() < 1e-5);
    }

    #[test]
    fn single_sample() {
        let s = DelayStats::from_samples(&[7.0]).unwrap();
        assert_eq!(s.mean_ms, 7.0);
        assert_eq!(s.median_ms, 7.0);
        assert_eq!(s.std_ms, 0.0);
    }

    #[test]
    fn empty_or_bad_samples_rejected() {
        assert!(DelayStats::from_samples(&[]).is_none());
        assert!(DelayStats::from_samples(&[1.0, f64::NAN]).is_none());
        assert!(DelayStats::from_samples(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn percentiles_ordered() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = DelayStats::from_samples(&samples).unwrap();
        assert!(s.median_ms <= s.p90_ms);
        assert!(s.p90_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.max_ms);
        assert!((s.median_ms - 50.0).abs() <= 1.0);
        assert!((s.p90_ms - 90.0).abs() <= 1.0);
    }

    #[test]
    fn improvement_percentage() {
        assert_eq!(improvement_pct(50.0, 100.0), Some(50.0));
        assert_eq!(improvement_pct(100.0, 100.0), Some(0.0));
        assert_eq!(improvement_pct(150.0, 100.0), Some(-50.0));
        assert_eq!(improvement_pct(1.0, 0.0), None);
        assert_eq!(improvement_pct(f64::NAN, 10.0), None);
    }
}
