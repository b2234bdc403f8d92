//! CVD growth kinetics and defectivity versus temperature and catalyst.
//!
//! Regenerates the observable content of the paper's Fig. 4 ("SEM results
//! of CNTs grown with Co catalyst at different temperatures so that the
//! growth process can be shifted into the CMOS compatible temperature
//! range"): growth rate, areal density and Raman D/G defect ratio as
//! functions of temperature, for the classic Fe catalyst and the
//! CMOS-friendly Co catalyst the CONNECT project developed.
//!
//! Model: Arrhenius kinetics `rate = A·exp(−Ea/kT)` with catalyst-specific
//! prefactor and activation energy (thermal-CVD literature range
//! 0.9–1.5 eV); defect density rises exponentially as the growth
//! temperature drops below the catalyst's optimum — grown-in defects are
//! the paper's stated reason for CVD tubes underperforming arc-discharge
//! ones (Section II.A).

use crate::{Error, Result};
use cnt_units::consts::K_B_EV;
use cnt_units::si::Temperature;

/// Catalyst system for CVD growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Catalyst {
    /// Iron on aluminosilicate — the baseline single-CNT via process
    /// (Section II.A), not BEOL-compatible.
    Iron,
    /// Cobalt — "a material commonly used in CMOS BEOL flows"
    /// (Section II.B).
    Cobalt,
}

impl Catalyst {
    /// Arrhenius activation energy, eV.
    fn activation_energy_ev(self) -> f64 {
        match self {
            Catalyst::Iron => 1.35,
            // The Co recipe was tuned for low-temperature growth.
            Catalyst::Cobalt => 1.05,
        }
    }

    /// Arrhenius prefactor, µm/min.
    fn prefactor_um_per_min(self) -> f64 {
        match self {
            Catalyst::Iron => 2.0e9,
            Catalyst::Cobalt => 4.0e7,
        }
    }

    /// Temperature of best crystalline quality (minimum D/G), kelvin.
    pub fn optimal_temperature(self) -> Temperature {
        match self {
            Catalyst::Iron => Temperature::from_celsius(750.0),
            Catalyst::Cobalt => Temperature::from_celsius(550.0),
        }
    }
}

/// A growth run specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthRecipe {
    /// Catalyst system.
    pub catalyst: Catalyst,
    /// Growth temperature.
    pub temperature: Temperature,
    /// Plasma assistance lowers the effective activation energy (PECVD).
    pub plasma_assisted: bool,
}

impl GrowthRecipe {
    /// Thermal CVD with the given catalyst and temperature.
    pub fn thermal(catalyst: Catalyst, temperature: Temperature) -> Self {
        Self {
            catalyst,
            temperature,
            plasma_assisted: false,
        }
    }

    /// Simulates the growth run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive temperatures.
    pub fn simulate(&self) -> Result<GrowthResult> {
        let t = self.temperature.kelvin();
        if t <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "temperature",
                value: t,
            });
        }
        let ea = if self.plasma_assisted {
            (self.catalyst.activation_energy_ev() - 0.3).max(0.3)
        } else {
            self.catalyst.activation_energy_ev()
        };
        let rate = self.catalyst.prefactor_um_per_min() * (-ea / (K_B_EV * t)).exp();

        // Raman D/G defect ratio: minimum at the catalyst optimum, rising
        // exponentially as the temperature drops (frozen-in defects) and
        // mildly above it (etching / amorphous carbon).
        let t_opt = self.catalyst.optimal_temperature().kelvin();
        let dg = if t < t_opt {
            0.08 + 0.7 * ((t_opt - t) / 220.0).exp_m1().max(0.0)
        } else {
            0.08 + 0.25 * ((t - t_opt) / 300.0)
        };

        // Areal density follows catalyst activity: the fraction of active
        // nanoparticles drops steeply below the optimum.
        let activity = (-((t_opt - t).max(0.0)) / 140.0).exp();
        let density_per_cm2 = 8.0e11 * activity;

        // Tube tortuosity (1 = straight) worsens at low temperature — one
        // of the open issues the conclusion lists.
        let tortuosity = 1.0 + 0.6 * (1.0 - activity);

        Ok(GrowthResult {
            recipe: *self,
            growth_rate_um_per_min: rate,
            areal_density_per_cm2: density_per_cm2,
            dg_ratio: dg,
            tortuosity,
        })
    }
}

/// Observables of a simulated growth run (what the paper's SEM/Raman
/// characterization reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthResult {
    /// The recipe that produced this result.
    pub recipe: GrowthRecipe,
    /// Vertical growth rate, µm/min.
    pub growth_rate_um_per_min: f64,
    /// Tube areal density, 1/cm².
    pub areal_density_per_cm2: f64,
    /// Raman D/G ratio (defectivity proxy; smaller = better).
    pub dg_ratio: f64,
    /// Tortuosity factor (1 = perfectly straight tubes).
    pub tortuosity: f64,
}

impl GrowthResult {
    /// `true` when a usable carpet grows: at least 10 nm/min and a D/G
    /// ratio below 1.1.
    pub fn is_viable(&self) -> bool {
        self.growth_rate_um_per_min > 0.01 && self.dg_ratio < 1.1
    }
}

/// Sweeps growth temperature — the Fig. 4 experiment.
///
/// # Errors
///
/// Returns [`Error::EmptyRequest`] for an empty temperature list and
/// propagates per-run errors.
pub fn temperature_sweep(
    catalyst: Catalyst,
    temperatures: &[Temperature],
    plasma_assisted: bool,
) -> Result<Vec<GrowthResult>> {
    if temperatures.is_empty() {
        return Err(Error::EmptyRequest("temperature sweep"));
    }
    temperatures
        .iter()
        .map(|&t| {
            GrowthRecipe {
                catalyst,
                temperature: t,
                plasma_assisted,
            }
            .simulate()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn celsius(c: f64) -> Temperature {
        Temperature::from_celsius(c)
    }

    #[test]
    fn growth_rate_is_arrhenius() {
        // ln(rate) vs 1/T must be linear with slope −Ea/k.
        let temps = [500.0, 550.0, 600.0, 650.0];
        let rates: Vec<f64> = temps
            .iter()
            .map(|&c| {
                GrowthRecipe::thermal(Catalyst::Cobalt, celsius(c))
                    .simulate()
                    .unwrap()
                    .growth_rate_um_per_min
            })
            .collect();
        let x: Vec<f64> = temps.iter().map(|&c| 1.0 / (c + 273.15)).collect();
        let y: Vec<f64> = rates.iter().map(|r| r.ln()).collect();
        let fit = cnt_units::math::linear_fit(&x, &y).unwrap();
        let ea = -fit.slope * K_B_EV;
        assert!((ea - 1.05).abs() < 1e-6, "extracted Ea = {ea}");
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn cobalt_grows_at_beol_budget_iron_does_not() {
        // The Fig. 4 headline: Co catalyst pushes growth into the CMOS
        // temperature window.
        let t = celsius(395.0);
        let co = GrowthRecipe::thermal(Catalyst::Cobalt, t)
            .simulate()
            .unwrap();
        let fe = GrowthRecipe::thermal(Catalyst::Iron, t).simulate().unwrap();
        assert!(co.is_viable(), "Co at 395 °C: {co:?}");
        assert!(!fe.is_viable(), "Fe at 395 °C should be non-viable: {fe:?}");
    }

    #[test]
    fn defectivity_rises_as_temperature_drops() {
        let sweep = temperature_sweep(
            Catalyst::Cobalt,
            &[
                celsius(350.0),
                celsius(400.0),
                celsius(450.0),
                celsius(550.0),
            ],
            false,
        )
        .unwrap();
        for w in sweep.windows(2) {
            assert!(
                w[0].dg_ratio > w[1].dg_ratio,
                "D/G should fall towards the optimum: {} vs {}",
                w[0].dg_ratio,
                w[1].dg_ratio
            );
        }
    }

    #[test]
    fn plasma_assistance_boosts_low_temperature_rate() {
        let t = celsius(380.0);
        let thermal = GrowthRecipe::thermal(Catalyst::Cobalt, t)
            .simulate()
            .unwrap();
        let pecvd = GrowthRecipe {
            plasma_assisted: true,
            ..GrowthRecipe::thermal(Catalyst::Cobalt, t)
        }
        .simulate()
        .unwrap();
        assert!(pecvd.growth_rate_um_per_min > 10.0 * thermal.growth_rate_um_per_min);
    }

    #[test]
    fn validation_and_empty_sweeps() {
        assert!(
            GrowthRecipe::thermal(Catalyst::Iron, Temperature::from_kelvin(-5.0))
                .simulate()
                .is_err()
        );
        assert!(temperature_sweep(Catalyst::Iron, &[], false).is_err());
    }

    #[test]
    fn quality_peaks_at_catalyst_optimum() {
        let opt = Catalyst::Cobalt.optimal_temperature();
        let at_opt = GrowthRecipe::thermal(Catalyst::Cobalt, opt)
            .simulate()
            .unwrap();
        let above = GrowthRecipe::thermal(
            Catalyst::Cobalt,
            Temperature::from_kelvin(opt.kelvin() + 150.0),
        )
        .simulate()
        .unwrap();
        let below = GrowthRecipe::thermal(
            Catalyst::Cobalt,
            Temperature::from_kelvin(opt.kelvin() - 150.0),
        )
        .simulate()
        .unwrap();
        assert!(at_opt.dg_ratio < above.dg_ratio);
        assert!(at_opt.dg_ratio < below.dg_ratio);
    }
}
