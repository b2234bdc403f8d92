//! Transmission-line-method (TLM) extraction of contact resistance
//! (Reeves & Harrison, reference \[23\] of the paper).
//!
//! Devices of several channel lengths share nominally identical contacts;
//! total resistance follows `R(L) = 2·R_c + r·L`. A straight-line fit
//! yields the per-length resistance `r` (slope) and the contact resistance
//! `R_c` (half the intercept), with standard errors from the regression.

use crate::{Error, Result};
use cnt_units::math::{self, LinearFit};
use cnt_units::rand_ext;
use cnt_units::si::{Length, Resistance};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ground truth + instrument description of a TLM experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TlmExperiment {
    /// Channel lengths of the test devices.
    pub lengths: Vec<Length>,
    /// True single-contact resistance, ohms.
    pub contact_resistance: f64,
    /// True per-length resistance, Ω/m.
    pub resistance_per_length: f64,
    /// Multiplicative measurement noise sigma (fraction of each reading).
    pub noise: f64,
}

impl TlmExperiment {
    /// The paper-flavoured default: MWCNT segments of 0.5–5 µm with
    /// 20 kΩ contacts and ~10 kΩ/µm of tube resistance, 2 % readout noise.
    pub fn mwcnt_default() -> Self {
        Self {
            lengths: [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
                .iter()
                .map(|&um| Length::from_micrometers(um))
                .collect(),
            contact_resistance: 20e3,
            resistance_per_length: 10e3 / 1e-6,
            noise: 0.02,
        }
    }

    /// Validates the experiment description.
    ///
    /// # Errors
    ///
    /// [`Error::TooFewPoints`] for fewer than 3 lengths,
    /// [`Error::InvalidParameter`] for negative truths/noise.
    pub fn validate(&self) -> Result<()> {
        if self.lengths.len() < 3 {
            return Err(Error::TooFewPoints {
                got: self.lengths.len(),
                min: 3,
            });
        }
        if self.contact_resistance < 0.0 {
            return Err(Error::InvalidParameter {
                name: "contact_resistance",
                value: self.contact_resistance,
            });
        }
        if self.resistance_per_length <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "resistance_per_length",
                value: self.resistance_per_length,
            });
        }
        if self.noise < 0.0 {
            return Err(Error::InvalidParameter {
                name: "noise",
                value: self.noise,
            });
        }
        Ok(())
    }

    /// Generates the noisy measured resistances, one per length.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn measure(&self, seed: u64) -> Result<Vec<(Length, Resistance)>> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(self
            .lengths
            .iter()
            .map(|&l| {
                let ideal = 2.0 * self.contact_resistance + self.resistance_per_length * l.meters();
                let noisy = ideal * (1.0 + rand_ext::normal(&mut rng, 0.0, self.noise));
                (l, Resistance::from_ohms(noisy))
            })
            .collect())
    }
}

/// Extracted TLM parameters with confidence information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlmFit {
    /// Extracted single-contact resistance, ohms.
    pub contact_resistance: f64,
    /// 1-σ standard error of the contact resistance, ohms.
    pub contact_stderr: f64,
    /// Extracted per-length resistance, Ω/m.
    pub resistance_per_length: f64,
    /// 1-σ standard error of the per-length resistance, Ω/m.
    pub per_length_stderr: f64,
    /// Regression R².
    pub r_squared: f64,
}

impl TlmFit {
    /// `true` when `truth` lies within `n_sigma` of the extracted contact
    /// resistance.
    pub fn contact_within(&self, truth: f64, n_sigma: f64) -> bool {
        (self.contact_resistance - truth).abs() <= n_sigma * self.contact_stderr.max(1e-12)
    }
}

/// Fits TLM data (`R(L) = 2·R_c + r·L`).
///
/// # Errors
///
/// * [`Error::TooFewPoints`] for fewer than 3 points;
/// * [`Error::DegenerateFit`] when all lengths coincide.
pub fn fit_tlm(data: &[(Length, Resistance)]) -> Result<TlmFit> {
    if data.len() < 3 {
        return Err(Error::TooFewPoints {
            got: data.len(),
            min: 3,
        });
    }
    let x: Vec<f64> = data.iter().map(|(l, _)| l.meters()).collect();
    let y: Vec<f64> = data.iter().map(|(_, r)| r.ohms()).collect();
    let LinearFit {
        intercept,
        slope,
        intercept_stderr,
        slope_stderr,
        r_squared,
    } = math::linear_fit(&x, &y).ok_or(Error::DegenerateFit("identical channel lengths"))?;
    Ok(TlmFit {
        contact_resistance: intercept / 2.0,
        contact_stderr: intercept_stderr / 2.0,
        resistance_per_length: slope,
        per_length_stderr: slope_stderr,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measures and fits, as the `tlm` artefact does.
    fn run_tlm(experiment: &TlmExperiment, seed: u64) -> Result<TlmFit> {
        fit_tlm(&experiment.measure(seed)?)
    }

    #[test]
    fn noise_free_extraction_is_exact() {
        let mut exp = TlmExperiment::mwcnt_default();
        exp.noise = 0.0;
        let fit = run_tlm(&exp, 1).unwrap();
        assert!((fit.contact_resistance - 20e3).abs() < 1e-6);
        assert!((fit.resistance_per_length - 1e10).abs() / 1e10 < 1e-12);
        assert!(fit.r_squared > 0.999_999_9);
    }

    #[test]
    fn noisy_extraction_recovers_truth_within_ci() {
        let exp = TlmExperiment::mwcnt_default();
        let mut hits = 0;
        for seed in 0..40 {
            let fit = run_tlm(&exp, seed).unwrap();
            if fit.contact_within(20e3, 3.0) {
                hits += 1;
            }
        }
        // 3σ interval should capture the truth almost always.
        assert!(hits >= 37, "only {hits}/40 within 3σ");
    }

    #[test]
    fn more_lengths_tighten_the_interval() {
        let few = TlmExperiment {
            lengths: [1.0, 2.0, 3.0]
                .iter()
                .map(|&um| Length::from_micrometers(um))
                .collect(),
            ..TlmExperiment::mwcnt_default()
        };
        let avg_stderr = |e: &TlmExperiment| -> f64 {
            (0..30)
                .map(|s| run_tlm(e, s).unwrap().contact_stderr)
                .sum::<f64>()
                / 30.0
        };
        let many = TlmExperiment {
            lengths: (1..=14)
                .map(|k| Length::from_micrometers(0.4 * k as f64))
                .collect(),
            ..TlmExperiment::mwcnt_default()
        };
        assert!(avg_stderr(&many) < avg_stderr(&few));
    }

    #[test]
    fn validation_and_degenerate_fits() {
        let mut bad = TlmExperiment::mwcnt_default();
        bad.lengths.truncate(2);
        assert!(bad.measure(1).is_err());
        let mut bad = TlmExperiment::mwcnt_default();
        bad.resistance_per_length = 0.0;
        assert!(bad.measure(1).is_err());
        let mut bad = TlmExperiment::mwcnt_default();
        bad.noise = -0.1;
        assert!(bad.measure(1).is_err());

        let same_l: Vec<(Length, Resistance)> = (0..4)
            .map(|i| {
                (
                    Length::from_micrometers(2.0),
                    Resistance::from_ohms(40e3 + i as f64),
                )
            })
            .collect();
        assert!(matches!(fit_tlm(&same_l), Err(Error::DegenerateFit(_))));
        assert!(fit_tlm(&same_l[..2]).is_err());
    }

    #[test]
    fn doped_tube_shows_lower_slope() {
        // Doping reduces the per-length resistance but not the contacts
        // (externally doped side contacts keep their transfer length).
        let pristine = TlmExperiment::mwcnt_default();
        let doped = TlmExperiment {
            resistance_per_length: pristine.resistance_per_length / 3.0,
            ..pristine.clone()
        };
        let fp = run_tlm(&pristine, 9).unwrap();
        let fd = run_tlm(&doped, 9).unwrap();
        assert!(fd.resistance_per_length < 0.5 * fp.resistance_per_length);
        // Contacts statistically unchanged.
        assert!(
            (fd.contact_resistance - fp.contact_resistance).abs()
                < 4.0 * (fd.contact_stderr + fp.contact_stderr)
        );
    }
}
