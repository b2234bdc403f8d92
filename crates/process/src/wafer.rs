//! 300 mm wafer maps: spatial variation and uniformity metrics.
//!
//! Regenerates the observable content of Fig. 5 ("CNT growth with Co
//! catalyst on a 300 mm wafer" — "a good starting uniformity") and
//! provides the wafer-scale machinery reused by the Fig. 13b full-wafer
//! electrical characterization.
//!
//! The spatial model is the standard decomposition used in SPC:
//! `value(r, θ) = nominal · (1 + radial·(r/R)² + noise)` with seeded
//! Gaussian noise per site.
//!
//! A map is a [`WaferLayout`], where the sites sit, plus the values drawn
//! on it. The layout does not depend on the seed, so a Monte-Carlo kernel
//! that draws many wafers builds it once and draws only each wafer's
//! values ([`WaferLayout::values`]); [`WaferMap::generate`] is one layout
//! and one draw.

use crate::{Error, Result};
use cnt_units::math;
use cnt_units::rand_ext;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measurement site on the wafer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferSite {
    /// x coordinate, metres (wafer centre = origin).
    pub x: f64,
    /// y coordinate, metres.
    pub y: f64,
    /// Measured value at this site (unit defined by the quantity mapped).
    pub value: f64,
}

impl WaferSite {
    /// Radial position from wafer centre, metres.
    pub fn radius(&self) -> f64 {
        radius(self.x, self.y)
    }
}

fn radius(x: f64, y: f64) -> f64 {
    (x * x + y * y).sqrt()
}

/// Where one site sits, with the radius fractions its value and its
/// band read.
#[derive(Debug, Clone, Copy)]
struct LayoutSite {
    x: f64,
    y: f64,
    /// Spiral radius over wafer radius, `r/R`: the radial trend's argument.
    rel: f64,
    /// Distance from the centre over wafer radius, `radius()/R`: what the
    /// radial bands compare.
    band: f64,
}

/// The seed-independent part of a wafer map: `n` sites in a spiral
/// (sunflower) layout over the wafer, each with its radius fractions.
#[derive(Debug, Clone)]
pub struct WaferLayout {
    sites: Vec<LayoutSite>,
}

impl WaferLayout {
    /// `n_sites` in a sunflower spiral over a wafer of `diameter` metres,
    /// inside a 5 % edge exclusion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive diameter or
    /// [`Error::EmptyRequest`] for zero sites.
    pub fn new(diameter: f64, n_sites: usize) -> Result<Self> {
        if diameter <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "diameter",
                value: diameter,
            });
        }
        if n_sites == 0 {
            return Err(Error::EmptyRequest("wafer sites"));
        }
        let r_max = diameter / 2.0 * 0.95; // 5 % edge exclusion
        let golden = core::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
        let sites = (0..n_sites)
            .map(|k| {
                // Sunflower layout covers the disc uniformly.
                let frac = (k as f64 + 0.5) / n_sites as f64;
                let r = r_max * frac.sqrt();
                let th = golden * k as f64;
                let (x, y) = (r * th.cos(), r * th.sin());
                LayoutSite {
                    x,
                    y,
                    rel: r / (diameter / 2.0),
                    band: radius(x, y) / (diameter / 2.0),
                }
            })
            .collect();
        Ok(Self { sites })
    }

    /// One value per site, in site order: `nominal` mean value, `radial`
    /// centre-to-edge fractional variation, `noise` per-site Gaussian
    /// fractional sigma, deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive nominal or a
    /// negative noise.
    pub fn values(&self, nominal: f64, radial: f64, noise: f64, seed: u64) -> Result<Vec<f64>> {
        if nominal <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "nominal",
                value: nominal,
            });
        }
        if noise < 0.0 {
            return Err(Error::InvalidParameter {
                name: "noise",
                value: noise,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(self
            .sites
            .iter()
            .map(|s| {
                nominal * (1.0 + radial * s.rel * s.rel + rand_ext::normal(&mut rng, 0.0, noise))
            })
            .collect())
    }

    /// Mean of `values` (one per site, in site order) over the sites
    /// within the given radial band (fractions of the wafer radius),
    /// summed in site order; `None` when no site lies in the band.
    ///
    /// # Panics
    ///
    /// Panics unless there is one value per site.
    pub fn band_mean(&self, values: &[f64], r_lo_frac: f64, r_hi_frac: f64) -> Option<f64> {
        assert_eq!(values.len(), self.sites.len(), "one value per site");
        let members = || {
            self.sites
                .iter()
                .zip(values)
                .filter(|(s, _)| s.band >= r_lo_frac && s.band < r_hi_frac)
                .map(|(_, &v)| v)
        };
        let n = members().count();
        (n > 0).then(|| members().sum::<f64>() / n as f64)
    }
}

/// Uniformity summary of a wafer map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformityReport {
    /// Mean of all sites.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation σ/µ (fraction, not %).
    pub cv: f64,
    /// Half-range uniformity `(max − min) / (2·mean)`.
    pub half_range: f64,
    /// Number of sites.
    pub sites: usize,
}

impl UniformityReport {
    /// The uniformity of site values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyRequest`] for fewer than 2 values.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        if values.len() < 2 {
            return Err(Error::EmptyRequest("uniformity needs ≥ 2 sites"));
        }
        let mean = math::mean(values).expect("non-empty");
        let std_dev = math::std_dev(values).expect("≥ 2 sites");
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        Ok(Self {
            mean,
            std_dev,
            cv: std_dev / mean,
            half_range: (max - min) / (2.0 * mean),
            sites: values.len(),
        })
    }
}

/// A sampled wafer map.
///
/// # Example
///
/// ```
/// use cnt_process::wafer::WaferMap;
///
/// let map = WaferMap::generate(0.3, 49, 1.0, 0.04, 0.01, 42)?;
/// let rep = map.uniformity()?;
/// assert!(rep.cv < 0.05, "good starting uniformity");
/// # Ok::<(), cnt_process::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaferMap {
    diameter: f64,
    sites: Vec<WaferSite>,
}

impl WaferMap {
    /// Generates a map with `n_sites` in a spiral (sunflower) layout over a
    /// wafer of `diameter` metres: `nominal` mean value, `radial`
    /// centre-to-edge fractional variation, `noise` per-site Gaussian
    /// fractional sigma, deterministic in `seed`. The [`WaferLayout`] with
    /// the values it draws.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive diameter or
    /// nominal, negative noise, or [`Error::EmptyRequest`] for zero sites.
    pub fn generate(
        diameter: f64,
        n_sites: usize,
        nominal: f64,
        radial: f64,
        noise: f64,
        seed: u64,
    ) -> Result<Self> {
        let layout = WaferLayout::new(diameter, n_sites)?;
        let values = layout.values(nominal, radial, noise, seed)?;
        let sites = layout
            .sites
            .iter()
            .zip(values)
            .map(|(s, value)| WaferSite {
                x: s.x,
                y: s.y,
                value,
            })
            .collect();
        Ok(Self { diameter, sites })
    }

    /// Wafer diameter, metres.
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Applies a function to every site value, returning a derived map
    /// (e.g. thickness → line resistance).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> WaferMap {
        WaferMap {
            diameter: self.diameter,
            sites: self
                .sites
                .iter()
                .map(|s| WaferSite {
                    x: s.x,
                    y: s.y,
                    value: f(s.value),
                })
                .collect(),
        }
    }

    /// Computes the uniformity summary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyRequest`] when the map has fewer than 2 sites.
    pub fn uniformity(&self) -> Result<UniformityReport> {
        let values: Vec<f64> = self.sites.iter().map(|s| s.value).collect();
        UniformityReport::from_values(&values)
    }

    /// Mean value of sites within the given radial band (fractions of the
    /// wafer radius) — used to expose centre-to-edge trends.
    pub fn radial_band_mean(&self, r_lo_frac: f64, r_hi_frac: f64) -> Option<f64> {
        let r_wafer = self.diameter / 2.0;
        let vals: Vec<f64> = self
            .sites
            .iter()
            .filter(|s| {
                let f = s.radius() / r_wafer;
                f >= r_lo_frac && f < r_hi_frac
            })
            .map(|s| s.value)
            .collect();
        math::mean(&vals)
    }

    /// Renders a coarse ASCII map (rows of mean values) for reports.
    pub fn ascii_map(&self, bins: usize) -> String {
        let mut s = String::new();
        let r = self.diameter / 2.0;
        // Computed at the first non-empty bin, so a map whose bins are all
        // empty never asks for it.
        let mut rep = None;
        for row in 0..bins {
            let y_lo = r - (row as f64 + 1.0) * self.diameter / bins as f64;
            let y_hi = r - row as f64 * self.diameter / bins as f64;
            for col in 0..bins {
                let x_lo = -r + col as f64 * self.diameter / bins as f64;
                let x_hi = -r + (col as f64 + 1.0) * self.diameter / bins as f64;
                let vals: Vec<f64> = self
                    .sites
                    .iter()
                    .filter(|p| p.x >= x_lo && p.x < x_hi && p.y >= y_lo && p.y < y_hi)
                    .map(|p| p.value)
                    .collect();
                let ch = match math::mean(&vals) {
                    None => ' ',
                    Some(v) => {
                        let rep = rep.get_or_insert_with(|| self.uniformity().expect("≥2 sites"));
                        let z = (v - rep.mean) / rep.std_dev.max(1e-30);
                        match z {
                            z if z < -1.0 => '-',
                            z if z > 1.0 => '+',
                            _ => 'o',
                        }
                    }
                };
                s.push(ch);
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(WaferMap::generate(-0.3, 49, 1.0, 0.0, 0.0, 1).is_err());
        assert!(WaferMap::generate(0.3, 0, 1.0, 0.0, 0.0, 1).is_err());
        assert!(WaferMap::generate(0.3, 9, 0.0, 0.0, 0.0, 1).is_err());
        assert!(WaferMap::generate(0.3, 9, 1.0, 0.0, -0.1, 1).is_err());
    }

    #[test]
    fn noise_free_map_shows_pure_radial_trend() {
        let map = WaferMap::generate(0.3, 200, 100.0, 0.10, 0.0, 7).unwrap();
        let center = map.radial_band_mean(0.0, 0.3).unwrap();
        let edge = map.radial_band_mean(0.7, 1.0).unwrap();
        assert!(edge > center, "edge {edge} vs centre {center}");
        // 10 % centre-to-edge: edge band mean ≈ +7–10 %.
        assert!((edge / center - 1.0) > 0.04);
    }

    #[test]
    fn uniformity_metrics_scale_with_noise() {
        let quiet = WaferMap::generate(0.3, 300, 1.0, 0.0, 0.01, 3)
            .unwrap()
            .uniformity()
            .unwrap();
        let loud = WaferMap::generate(0.3, 300, 1.0, 0.0, 0.05, 3)
            .unwrap()
            .uniformity()
            .unwrap();
        assert!((quiet.cv - 0.01).abs() < 0.004, "cv = {}", quiet.cv);
        assert!((loud.cv - 0.05).abs() < 0.01, "cv = {}", loud.cv);
        assert!(loud.half_range > quiet.half_range);
        assert_eq!(quiet.sites, 300);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = WaferMap::generate(0.3, 49, 1.0, 0.05, 0.02, 99).unwrap();
        let b = WaferMap::generate(0.3, 49, 1.0, 0.05, 0.02, 99).unwrap();
        assert_eq!(a, b);
        let c = WaferMap::generate(0.3, 49, 1.0, 0.05, 0.02, 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sites_stay_on_wafer() {
        let map = WaferMap::generate(0.3, 500, 1.0, 0.02, 0.01, 5).unwrap();
        for s in &map.sites {
            assert!(s.radius() <= 0.15, "site off-wafer at r = {}", s.radius());
        }
    }

    #[test]
    fn map_values_transforms_pointwise() {
        let map = WaferMap::generate(0.3, 49, 2.0, 0.0, 0.0, 1).unwrap();
        let doubled = map.map_values(|v| v * 2.0);
        for (a, b) in map.sites.iter().zip(&doubled.sites) {
            assert_eq!(b.value, a.value * 2.0);
            assert_eq!((a.x, a.y), (b.x, b.y));
        }
    }

    #[test]
    fn layout_band_means_match_the_map_bit_for_bit() {
        let layout = WaferLayout::new(0.3, 121).unwrap();
        for seed in [0, 7, 20_180_319] {
            let map = WaferMap::generate(0.3, 121, 1.0, 0.05, 0.015, seed).unwrap();
            let values = layout.values(1.0, 0.05, 0.015, seed).unwrap();
            let bits = |m: Option<f64>| m.map(f64::to_bits);
            for band in 0..5 {
                let lo = band as f64 * 0.2;
                assert_eq!(
                    bits(layout.band_mean(&values, lo, lo + 0.2)),
                    bits(map.radial_band_mean(lo, lo + 0.2)),
                    "seed {seed}, band {band}"
                );
            }
            assert_eq!(layout.band_mean(&values, 1.0, 2.0), None);
            assert_eq!(UniformityReport::from_values(&values), map.uniformity());
        }
    }

    #[test]
    fn ascii_map_has_requested_shape() {
        let map = WaferMap::generate(0.3, 200, 1.0, 0.1, 0.01, 2).unwrap();
        let art = map.ascii_map(8);
        assert_eq!(art.lines().count(), 8);
        assert!(art.lines().all(|l| l.chars().count() == 8));
    }
}
