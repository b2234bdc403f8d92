//! Distribution samplers used by the Monte-Carlo crates.
//!
//! The workspace depends on `rand` only (no `rand_distr`), so the normal and
//! lognormal samplers needed for process variation and reliability studies
//! are implemented here via the Box–Muller transform. All samplers take
//! `&mut impl Rng` so callers stay in control of seeding (every experiment
//! in this workspace is deterministic given its seed).

use rand::Rng;

/// Draws one sample from the standard normal distribution N(0, 1).
///
/// Box–Muller transform on two uniform draws; the open interval is enforced
/// so `ln(0)` can never occur.
///
/// Callers outside this module draw it as `normal(rng, 0.0, 1.0)`:
///
/// ```
/// use rand::SeedableRng;
/// use cnt_units::rand_ext::normal;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = normal(&mut rng, 0.0, 1.0);
/// assert!(x.is_finite());
/// ```
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

/// Draws from N(mean, sigma²).
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "standard deviation must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// Draws from a lognormal distribution with the given parameters of the
/// underlying normal (median = exp(mu), shape sigma).
///
/// Electromigration times-to-failure are conventionally lognormal
/// (Section IV.A of the paper benchmarks EM reliability).
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Draws from a truncated normal, re-sampling until the value lands in
/// `[lo, hi]`. Falls back to clamping after 1000 rejections so the function
/// always terminates.
///
/// # Panics
///
/// Panics if `lo > hi` or `sigma` is negative.
pub fn truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    assert!(lo <= hi, "invalid truncation interval");
    for _ in 0..1000 {
        let x = normal(rng, mean, sigma);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    crate::math::clamp(mean, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{mean, std_dev};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        assert!((mean(&xs).unwrap() - 3.0).abs() < 0.05);
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 0.05);
    }

    #[test]
    fn lognormal_median() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut xs: Vec<f64> = (0..20_000).map(|_| lognormal(&mut rng, 1.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 1.0f64.exp()).abs() < 0.1, "median {med}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn truncation_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            let x = truncated_normal(&mut rng, 0.0, 5.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }
}
