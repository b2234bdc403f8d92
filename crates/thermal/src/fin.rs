//! 1-D self-heating of an interconnect line (fin equation).
//!
//! A line of length `L`, cross-section `A`, thermal conductivity `k`,
//! carrying current density `j` through material of electrical resistivity
//! `ρ`, anchored at ambient-temperature contacts, loses heat to the
//! substrate with linear coupling `g` (W/(m·K)):
//!
//! ```text
//! k·A·θ'' − g·θ + j²·ρ·A = 0,   θ = T − T_ambient,  θ(0) = θ(L) = 0
//! ```
//!
//! Closed form: `θ(x) = (q/g)·(1 − cosh(m(x−L/2))/cosh(mL/2))` with
//! `m = √(g/kA)` and `q = j²ρA`; the `g → 0` limit is the parabola
//! `θ = q·x(L−x)/(2kA)` with peak `qL²/(8kA)`.

use crate::{Error, Result};
use cnt_units::consts::{KTH_CNT_LOW, KTH_CU, RHO_CU_BULK};
use cnt_units::si::{Area, CurrentDensity, Length, Temperature};

/// A Joule-heated line between two ideal (ambient) contacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfHeatingLine {
    /// Line length.
    pub length: Length,
    /// Conducting cross-section.
    pub area: Area,
    /// Thermal conductivity of the line material, W/(m·K).
    pub thermal_conductivity: f64,
    /// Electrical resistivity of the line material, Ω·m.
    pub electrical_resistivity: f64,
    /// Substrate coupling per unit length, W/(m·K) (0 = suspended line).
    pub substrate_coupling: f64,
    /// Drive current density.
    pub current_density: CurrentDensity,
    /// Ambient / contact temperature.
    pub ambient: Temperature,
}

impl SelfHeatingLine {
    /// A suspended MWCNT line (SThM test case of Section IV.B): d = 10 nm
    /// effective solid cross-section, conservative CNT-bundle
    /// k = 3000 W/(m·K), effective resistivity 8 µΩ·cm.
    pub fn mwcnt(length: Length, current_density: CurrentDensity) -> Self {
        let d = 10e-9;
        Self {
            length,
            area: Area::from_square_meters(core::f64::consts::PI * d * d / 4.0),
            thermal_conductivity: KTH_CNT_LOW,
            electrical_resistivity: 8.0e-8,
            substrate_coupling: 0.0,
            current_density,
            ambient: Temperature::from_kelvin(300.0),
        }
    }

    /// A copper line of the same footprint: bulk k = 385 W/(m·K) and a
    /// size-effect-degraded resistivity of 5 µΩ·cm typical at ~10 nm
    /// dimensions.
    pub fn copper(length: Length, current_density: CurrentDensity) -> Self {
        let d = 10e-9;
        Self {
            length,
            area: Area::from_square_meters(core::f64::consts::PI * d * d / 4.0),
            thermal_conductivity: KTH_CU,
            electrical_resistivity: 3.0 * RHO_CU_BULK,
            substrate_coupling: 0.0,
            current_density,
            ambient: Temperature::from_kelvin(300.0),
        }
    }

    /// Validates physical sanity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the offending field.
    fn validate(&self) -> Result<()> {
        let checks: [(&'static str, f64, bool); 5] = [
            ("length", self.length.meters(), self.length.meters() > 0.0),
            (
                "area",
                self.area.square_meters(),
                self.area.square_meters() > 0.0,
            ),
            (
                "thermal_conductivity",
                self.thermal_conductivity,
                self.thermal_conductivity > 0.0,
            ),
            (
                "electrical_resistivity",
                self.electrical_resistivity,
                self.electrical_resistivity > 0.0,
            ),
            (
                "substrate_coupling",
                self.substrate_coupling,
                self.substrate_coupling >= 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        Ok(())
    }

    /// Joule heating per unit length `q = j²·ρ·A`, W/m.
    pub fn heating_per_length(&self) -> f64 {
        let j = self.current_density.amps_per_square_meter();
        j * j * self.electrical_resistivity * self.area.square_meters()
    }

    /// Closed-form temperature rise at position `x` (metres from the left
    /// contact).
    pub fn theta_at(&self, x: f64) -> f64 {
        let l = self.length.meters();
        let x = x.clamp(0.0, l);
        let ka = self.thermal_conductivity * self.area.square_meters();
        let q = self.heating_per_length();
        if self.substrate_coupling <= 0.0 {
            return q * x * (l - x) / (2.0 * ka);
        }
        let m = (self.substrate_coupling / ka).sqrt();
        let peak = q / self.substrate_coupling;
        peak * (1.0 - ((m * (x - l / 2.0)).cosh()) / ((m * l / 2.0).cosh()))
    }

    /// Peak temperature (line centre).
    pub fn peak_temperature(&self) -> Temperature {
        Temperature::from_kelvin(self.ambient.kelvin() + self.theta_at(self.length.meters() / 2.0))
    }

    /// Samples the analytic profile at `n` evenly spaced points.
    ///
    /// # Errors
    ///
    /// [`Error::TooFewSamples`] for `n < 3` and validation errors.
    pub fn analytic_profile(&self, n: usize) -> Result<TemperatureProfile> {
        self.validate()?;
        if n < 3 {
            return Err(Error::TooFewSamples { got: n, min: 3 });
        }
        let l = self.length.meters();
        let xs: Vec<f64> = (0..n).map(|i| l * i as f64 / (n - 1) as f64).collect();
        let ts: Vec<f64> = xs
            .iter()
            .map(|&x| self.ambient.kelvin() + self.theta_at(x))
            .collect();
        Ok(TemperatureProfile {
            position_m: xs,
            temperature_k: ts,
        })
    }

    /// Solves the fin equation by second-order finite differences — used to
    /// validate the closed form and to support spatially varying
    /// extensions.
    ///
    /// # Errors
    ///
    /// [`Error::TooFewSamples`] for `n < 3` and validation errors.
    pub fn solve_fd(&self, n: usize) -> Result<TemperatureProfile> {
        self.validate()?;
        if n < 3 {
            return Err(Error::TooFewSamples { got: n, min: 3 });
        }
        let l = self.length.meters();
        let h = l / (n - 1) as f64;
        let ka = self.thermal_conductivity * self.area.square_meters();
        let q = self.heating_per_length();
        let g = self.substrate_coupling;
        // Tridiagonal Thomas solve for θ on interior nodes.
        let m = n - 2;
        let diag = -2.0 * ka / (h * h) - g;
        let off = ka / (h * h);
        let mut c = vec![0.0; m]; // modified upper
        let mut d = vec![0.0; m]; // modified rhs
        for i in 0..m {
            let rhs = -q;
            if i == 0 {
                c[i] = off / diag;
                d[i] = rhs / diag;
            } else {
                let denom = diag - off * c[i - 1];
                c[i] = off / denom;
                d[i] = (rhs - off * d[i - 1]) / denom;
            }
        }
        let mut theta = vec![0.0; m];
        theta[m - 1] = d[m - 1];
        for i in (0..m - 1).rev() {
            theta[i] = d[i] - c[i] * theta[i + 1];
        }
        let mut xs = Vec::with_capacity(n);
        let mut ts = Vec::with_capacity(n);
        for i in 0..n {
            xs.push(h * i as f64);
            let th = if i == 0 || i == n - 1 {
                0.0
            } else {
                theta[i - 1]
            };
            ts.push(self.ambient.kelvin() + th);
        }
        Ok(TemperatureProfile {
            position_m: xs,
            temperature_k: ts,
        })
    }
}

/// A sampled temperature profile along a line.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureProfile {
    /// Sample positions, metres.
    pub position_m: Vec<f64>,
    /// Temperatures, kelvin.
    pub temperature_k: Vec<f64>,
}

impl TemperatureProfile {
    /// Peak temperature of the profile.
    pub fn peak(&self) -> Temperature {
        Temperature::from_kelvin(
            self.temperature_k
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Linear interpolation of the temperature at `x` metres.
    pub fn at(&self, x: f64) -> f64 {
        cnt_units::math::interp1(&self.position_m, &self.temperature_k, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(amps_per_cm2: f64) -> CurrentDensity {
        CurrentDensity::from_amps_per_square_centimeter(amps_per_cm2)
    }

    #[test]
    fn suspended_peak_matches_parabola() {
        let line = SelfHeatingLine::mwcnt(Length::from_micrometers(2.0), j(5e8));
        let q = line.heating_per_length();
        let ka = line.thermal_conductivity * line.area.square_meters();
        let expected = q * (2e-6f64).powi(2) / (8.0 * ka);
        let peak = line.peak_temperature().kelvin() - 300.0;
        assert!((peak - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn fd_matches_analytic_with_and_without_coupling() {
        for g in [0.0, 0.2] {
            let mut line = SelfHeatingLine::copper(Length::from_micrometers(1.0), j(5e6));
            line.substrate_coupling = g;
            let ana = line.analytic_profile(101).unwrap();
            let fd = line.solve_fd(101).unwrap();
            for (a, b) in ana.temperature_k.iter().zip(&fd.temperature_k) {
                assert!((a - b).abs() < 0.02 * (a - 300.0).abs().max(1e-6) + 1e-9);
            }
        }
    }

    #[test]
    fn cnt_runs_cooler_than_cu_at_matched_current_density() {
        // The Section IV.B motivation: Kth,CNT ≫ Kth,Cu means CNT lines
        // evacuate Joule heat to the contacts far better.
        let jd = j(2e7);
        let cnt = SelfHeatingLine::mwcnt(Length::from_micrometers(2.0), jd);
        let cu = SelfHeatingLine::copper(Length::from_micrometers(2.0), jd);
        let dt_cnt = cnt.peak_temperature().kelvin() - 300.0;
        let dt_cu = cu.peak_temperature().kelvin() - 300.0;
        assert!(
            dt_cnt < 0.4 * dt_cu,
            "CNT ΔT = {dt_cnt:.3} K vs Cu ΔT = {dt_cu:.3} K"
        );
    }

    #[test]
    fn substrate_coupling_caps_the_peak() {
        let mut line = SelfHeatingLine::copper(Length::from_micrometers(10.0), j(2e7));
        let suspended = line.peak_temperature().kelvin();
        line.substrate_coupling = 1.0;
        let coupled = line.peak_temperature().kelvin();
        assert!(coupled < suspended);
        // Long coupled line: peak saturates at q/g, independent of length.
        let q = line.heating_per_length();
        let cap = q / line.substrate_coupling;
        assert!((coupled - 300.0) <= cap * (1.0 + 1e-9));
    }

    #[test]
    fn heating_scales_as_j_squared() {
        let l1 = SelfHeatingLine::mwcnt(Length::from_micrometers(1.0), j(1e8));
        let l2 = SelfHeatingLine::mwcnt(Length::from_micrometers(1.0), j(2e8));
        let r = (l2.peak_temperature().kelvin() - 300.0) / (l1.peak_temperature().kelvin() - 300.0);
        assert!((r - 4.0).abs() < 1e-9, "ratio {r}");
    }

    #[test]
    fn profile_is_symmetric_and_peaks_at_centre() {
        let line = SelfHeatingLine::mwcnt(Length::from_micrometers(3.0), j(4e8));
        let p = line.analytic_profile(201).unwrap();
        let n = p.position_m.len();
        for i in 0..n / 2 {
            let a = p.temperature_k[i];
            let b = p.temperature_k[n - 1 - i];
            assert!((a - b).abs() < 1e-9);
        }
        let peak = p.peak().kelvin();
        assert!((p.at(1.5e-6) - peak).abs() < 1e-6);
        assert_eq!(p.temperature_k[0], 300.0);
    }

    #[test]
    fn validation_and_small_grids() {
        let mut bad = SelfHeatingLine::mwcnt(Length::from_micrometers(1.0), j(1e8));
        bad.thermal_conductivity = -1.0;
        assert!(bad.validate().is_err());
        let ok = SelfHeatingLine::mwcnt(Length::from_micrometers(1.0), j(1e8));
        assert!(ok.analytic_profile(2).is_err());
        assert!(ok.solve_fd(2).is_err());
    }
}
