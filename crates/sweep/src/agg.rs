//! Aggregation combinators for sweep results.
//!
//! Everything here reduces in a **caller-chosen order** (typically job
//! order) with plain sequential floating-point arithmetic, so aggregates
//! inherit the executor's bit-reproducibility. Percentiles are selected
//! in O(n) rather than read off a full sort; the selected values are the
//! sort's, bit for bit, and the interpolation between them is unchanged.

use crate::{Error, Result};
use cnt_units::math::Percentiles;

/// Five-number-plus summary of a sample, for report rows.
///
/// The percentiles interpolate linearly between the two ranks around
/// `p/100·(n − 1)`. The ranks are taken by three selections on one copy
/// of the sample, each over the part above the previous rank
/// ([`Percentiles`]), not by sorting it; the values and the
/// interpolation are those of a full sort.
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
        let mut order = Percentiles::new(xs);
        // Ascending, so each selection works above the previous rank.
        let p05 = percentile(&mut order, n, 5.0);
        let p50 = percentile(&mut order, n, 50.0);
        let p95 = percentile(&mut order, n, 95.0);
        Ok(Self {
            n,
            mean,
            std_dev: if n < 2 {
                0.0
            } else {
                (m2 / (n - 1) as f64).sqrt()
            },
            p05,
            p50,
            p95,
            min,
            max,
        })
    }
}

/// Linear-interpolation percentile `p`, clamped into `[0, 100]`, of the
/// `n`-element sample `order` selects from. Successive calls on one
/// `order` must not lower `p`.
///
/// # Panics
///
/// Panics on an empty sample or a lowered `p`.
fn percentile(order: &mut Percentiles, n: usize, p: f64) -> f64 {
    let (lo, hi, frac) = order.bracket(p.clamp(0.0, 100.0));
    if n == 1 {
        return lo;
    }
    lo + (hi - lo) * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

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
        let xs = [3.0, 0.0, 4.0, 2.0, 1.0];
        let at = |p| percentile(&mut Percentiles::new(&xs), xs.len(), p);
        assert_eq!(at(0.0), 0.0);
        assert_eq!(at(100.0), 4.0);
        assert_eq!(at(50.0), 2.0);
        assert!((at(62.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&mut Percentiles::new(&[7.0]), 1, 30.0), 7.0);
    }

    /// Bits of the percentile `cnt_units::math::percentile` read off a
    /// stable full sort before it selected: the reference.
    fn math_percentile_by_sort(xs: &[f64], p: f64) -> u64 {
        let v = sorted(xs);
        let (lo, hi, frac) = ranks(v.len(), p);
        (v[lo] * (1.0 - frac) + v[hi] * frac).to_bits()
    }

    /// Bits of the percentile `Summary` read off a stable full sort
    /// before it selected: the reference.
    fn summary_percentile_by_sort(xs: &[f64], p: f64) -> u64 {
        let v = sorted(xs);
        if v.len() == 1 {
            return v[0].to_bits();
        }
        let (lo, hi, frac) = ranks(v.len(), p);
        (v[lo] + (v[hi] - v[lo]) * frac).to_bits()
    }

    fn sorted(xs: &[f64]) -> Vec<f64> {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    fn ranks(n: usize, p: f64) -> (usize, usize, f64) {
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        (lo, rank.ceil() as usize, rank - lo as f64)
    }

    /// `n` values from a few ties, whose sorted ranks `zeros` hold zeros
    /// of random signs (negatives below, positives above), shuffled.
    fn sample(rng: &mut StdRng, n: usize, zeros: Range<usize>) -> Vec<f64> {
        let ties = [0.5, 1.0, 1.0, 2.0, 3.5];
        let mut xs: Vec<f64> = (0..n)
            .map(|i| {
                let tie = ties[rng.gen_range(0..ties.len())];
                if i < zeros.start {
                    -tie
                } else if i < zeros.end {
                    if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        -0.0
                    }
                } else {
                    tie
                }
            })
            .collect();
        for i in (1..n).rev() {
            xs.swap(i, rng.gen_range(0..=i));
        }
        xs
    }

    #[test]
    fn selected_percentiles_are_the_sorted_bits() {
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        for n in [1, 2, 3, 137, 4000] {
            let drawn: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..=100.0)).collect();
            for p in [0.0, 5.0, 50.0, 95.0, 100.0].into_iter().chain(drawn) {
                let (lo, hi, _) = ranks(n, p);
                // No zeros; zeros on rank lo alone, on rank hi alone, and
                // across both with a neighbour on each side.
                let blocks = [
                    0..0,
                    lo..lo + 1,
                    hi..hi + 1,
                    lo.saturating_sub(1)..n.min(hi + 2),
                ];
                for zeros in blocks {
                    for _ in 0..3 {
                        let xs = sample(&mut rng, n, zeros.clone());
                        let got = cnt_units::math::percentile(&xs, p).unwrap();
                        let want = math_percentile_by_sort(&xs, p);
                        assert_eq!(got.to_bits(), want, "math, n {n}, p {p}, zeros {zeros:?}");
                        let s = Summary::from_samples(&xs).unwrap();
                        for (q, got) in [(5.0, s.p05), (50.0, s.p50), (95.0, s.p95)] {
                            let want = summary_percentile_by_sort(&xs, q);
                            assert_eq!(got.to_bits(), want, "summary p{q}, n {n}, zeros {zeros:?}");
                        }
                    }
                }
            }
        }
    }
}
