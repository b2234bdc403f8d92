//! Virtual scanning thermal microscope (SThM).
//!
//! "Scanning thermal microscopy with resistively heated probes holds the
//! potential to perform temperature mapping of MWCNT interconnects under
//! operation" (Section IV.B, references \[24\]\[25\]). The virtual instrument
//! convolves the true temperature profile with a Gaussian probe response
//! and adds read-out noise, producing the data the extraction module
//! inverts.

use crate::fin::TemperatureProfile;
use crate::{Error, Result};
use cnt_units::rand_ext;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SThM instrument parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SthmInstrument {
    /// Probe thermal-response FWHM, metres (tip–sample contact scale).
    pub probe_fwhm: f64,
    /// Read-out noise sigma, kelvin.
    pub noise_kelvin: f64,
    /// Scan pixel pitch, metres.
    pub pixel_pitch: f64,
}

impl SthmInstrument {
    /// A realistic nanoscale probe: 50 nm FWHM, 0.2 K noise, 20 nm pixels
    /// (from the capabilities reported in reference \[25\]).
    pub fn nanoprobe() -> Self {
        Self {
            probe_fwhm: 50e-9,
            noise_kelvin: 0.2,
            pixel_pitch: 20e-9,
        }
    }

    /// Validates instrument parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive FWHM/pitch or
    /// negative noise.
    pub fn validate(&self) -> Result<()> {
        if self.probe_fwhm <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "probe_fwhm",
                value: self.probe_fwhm,
            });
        }
        if self.pixel_pitch <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "pixel_pitch",
                value: self.pixel_pitch,
            });
        }
        if self.noise_kelvin < 0.0 {
            return Err(Error::InvalidParameter {
                name: "noise_kelvin",
                value: self.noise_kelvin,
            });
        }
        Ok(())
    }

    /// The number of scan pixels a truth profile produces.
    fn pixel_count(&self, truth: &TemperatureProfile) -> usize {
        let x0 = truth.position_m[0];
        let x1 = *truth.position_m.last().expect("non-empty");
        ((x1 - x0) / self.pixel_pitch).floor() as usize + 1
    }

    /// The noise-free probe reading at position `x`: the discrete Gaussian
    /// convolution of the truth profile with the probe response.
    fn probe_temperature(&self, truth: &TemperatureProfile, x: f64) -> f64 {
        // FWHM = 2·√(2·ln 2)·σ.
        let sigma = self.probe_fwhm / (2.0 * (2.0 * (2.0_f64).ln()).sqrt());
        let mut wsum = 0.0;
        let mut tsum = 0.0;
        for (xt, tt) in truth.position_m.iter().zip(&truth.temperature_k) {
            let u = (xt - x) / sigma;
            if u.abs() > 5.0 {
                continue;
            }
            let w = (-0.5 * u * u).exp();
            wsum += w;
            tsum += w * tt;
        }
        if wsum > 0.0 {
            tsum / wsum
        } else {
            truth.at(x)
        }
    }

    /// Scans a true temperature profile, returning the measured profile
    /// (probe-convolved, noisy, resampled at the pixel pitch).
    ///
    /// # Errors
    ///
    /// Propagates validation errors; requires ≥ 2 sample points.
    pub fn scan(&self, truth: &TemperatureProfile, seed: u64) -> Result<TemperatureProfile> {
        self.validate()?;
        if truth.position_m.len() < 2 {
            return Err(Error::TooFewSamples {
                got: truth.position_m.len(),
                min: 2,
            });
        }
        let x0 = truth.position_m[0];
        let position_m: Vec<f64> = (0..self.pixel_count(truth))
            .map(|p| x0 + p as f64 * self.pixel_pitch)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let temperature_k = position_m
            .iter()
            .map(|&x| {
                self.probe_temperature(truth, x)
                    + rand_ext::normal(&mut rng, 0.0, self.noise_kelvin)
            })
            .collect();
        Ok(TemperatureProfile {
            position_m,
            temperature_k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fin::SelfHeatingLine;
    use cnt_units::si::{CurrentDensity, Length};

    fn truth() -> TemperatureProfile {
        SelfHeatingLine::mwcnt(
            Length::from_micrometers(2.0),
            CurrentDensity::from_amps_per_square_centimeter(5e8),
        )
        .analytic_profile(401)
        .unwrap()
    }

    #[test]
    fn scan_preserves_peak_location_and_smooths() {
        let t = truth();
        let inst = SthmInstrument {
            noise_kelvin: 0.0,
            ..SthmInstrument::nanoprobe()
        };
        let scan = inst.scan(&t, 1).unwrap();
        // Peak near the centre.
        let (i_max, _) = scan
            .temperature_k
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let x_peak = scan.position_m[i_max];
        assert!((x_peak - 1e-6).abs() < 0.15e-6, "peak at {x_peak}");
        // Convolution can only lower the maximum.
        assert!(scan.peak().kelvin() <= t.peak().kelvin() + 1e-9);
    }

    #[test]
    fn wider_probe_blurs_more() {
        let t = truth();
        let narrow = SthmInstrument {
            probe_fwhm: 20e-9,
            noise_kelvin: 0.0,
            pixel_pitch: 20e-9,
        };
        let wide = SthmInstrument {
            probe_fwhm: 400e-9,
            noise_kelvin: 0.0,
            pixel_pitch: 20e-9,
        };
        let pn = narrow.scan(&t, 1).unwrap().peak().kelvin();
        let pw = wide.scan(&t, 1).unwrap().peak().kelvin();
        assert!(pw < pn, "wide probe reads a lower peak: {pw} vs {pn}");
    }

    #[test]
    fn noise_is_reproducible_and_scales() {
        let t = truth();
        let inst = SthmInstrument::nanoprobe();
        let a = inst.scan(&t, 42).unwrap();
        let b = inst.scan(&t, 42).unwrap();
        assert_eq!(a, b);
        let c = inst.scan(&t, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn validation() {
        let mut bad = SthmInstrument::nanoprobe();
        bad.probe_fwhm = 0.0;
        assert!(bad.scan(&truth(), 1).is_err());
        let mut bad = SthmInstrument::nanoprobe();
        bad.noise_kelvin = -1.0;
        assert!(bad.scan(&truth(), 1).is_err());
    }
}
