//! Aggregation combinators for sweep results.
//!
//! Everything here reduces in a **caller-chosen order** (typically job
//! order) with plain sequential floating-point arithmetic, so aggregates
//! inherit the executor's bit-reproducibility.

use crate::{Error, Result};

/// Five-number-plus summary of a sample, for report rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an empty sample or one
    /// containing non-finite values.
    pub fn from_samples(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(Error::InvalidParameter {
                name: "summary sample count",
                value: 0.0,
            });
        }
        if let Some(bad) = xs.iter().find(|x| !x.is_finite()) {
            return Err(Error::InvalidParameter {
                name: "summary sample (non-finite)",
                value: *bad,
            });
        }
        // Welford's one-pass mean and variance, in sample order.
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let n = xs.len();
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Self {
            n,
            mean,
            std_dev: if n < 2 {
                0.0
            } else {
                (m2 / (n - 1) as f64).sqrt()
            },
            p05: percentile_sorted(&sorted, 5.0),
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            min,
            max,
        })
    }
}

/// Linear-interpolation percentile of an already **sorted** sample.
///
/// # Panics
///
/// Panics (debug) on an empty slice; clamps `p` into `[0, 100]`.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "percentile of empty sample");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.77).sin() * 5.0 + 2.0)
            .collect();
        let s = Summary::from_samples(&xs).unwrap();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 100);
        let one = Summary::from_samples(&[3.5]).unwrap();
        assert_eq!(
            (one.mean, one.std_dev, one.min, one.max),
            (3.5, 0.0, 3.5, 3.5)
        );
    }

    #[test]
    fn summary_percentiles_ordered() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.0137).fract()).collect();
        let s = Summary::from_samples(&xs).unwrap();
        assert!(s.min <= s.p05 && s.p05 <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.n, 1000);
        assert!(Summary::from_samples(&[]).is_err());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 0.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 4.0);
        assert_eq!(percentile_sorted(&xs, 50.0), 2.0);
        assert!((percentile_sorted(&xs, 62.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 30.0), 7.0);
    }
}
