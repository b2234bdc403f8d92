//! Aggregation combinators for sweep results.
//!
//! Everything here reduces in a **caller-chosen order** (typically job
//! order) with plain sequential floating-point arithmetic, so aggregates
//! inherit the executor's bit-reproducibility.

use crate::{Error, Result};

/// Welford one-pass accumulator: count, mean, variance, extrema.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel update). Merging in a
    /// fixed order is still deterministic; merging in scheduling order is
    /// not — the sweep layer always merges in job order.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator; 0 below two samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Coefficient of variation σ/|µ| (0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest sample seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }
}

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
        let mut stats = OnlineStats::new();
        for &x in xs {
            stats.push(x);
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Self {
            n: xs.len(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            p05: percentile_sorted(&sorted, 5.0),
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            min: stats.min(),
            max: stats.max(),
        })
    }
}

/// Linear-interpolation percentile of an already **sorted** sample.
///
/// # Panics
///
/// Panics (debug) on an empty slice; clamps `p` into `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
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
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.count(), 100);
    }

    #[test]
    fn merge_matches_single_stream() {
        let xs: Vec<f64> = (0..57).map(|i| (i as f64).cos()).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let (left, right) = xs.split_at(20);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        left.iter().for_each(|&x| a.push(x));
        right.iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging into/with empty is the identity.
        let mut empty = OnlineStats::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        whole.merge(&OnlineStats::new());
        assert_eq!(empty, whole);
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
