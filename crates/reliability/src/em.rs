//! Electromigration lifetime: Black's equation, Blech immortality and
//! the lognormal spread of time to failure.
//!
//! `MTTF = A·j⁻ⁿ·exp(Ea/kT)` with the copper BEOL parameters
//! (n ≈ 1.8, Ea ≈ 0.9 eV). Cu–CNT composites inherit the sp²-bonded
//! tubes' EM immunity (Section I: "CNTs are much less susceptible to
//! electromigration problems than copper interconnects"): their model
//! carries a higher activation energy and a much higher tolerable current.

use crate::{Error, Result};
use cnt_units::consts::K_B_EV;
use cnt_units::si::{CurrentDensity, Temperature, Time};

/// Black's-equation parameter set plus lognormal spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackModel {
    /// Prefactor `A` chosen so that `mttf(j_ref, t_ref) = mttf_ref`.
    pub prefactor: f64,
    /// Current-density exponent `n`.
    pub exponent: f64,
    /// Activation energy, eV.
    pub activation_energy_ev: f64,
    /// Lognormal sigma of the failure-time distribution.
    pub sigma: f64,
    /// Blech product threshold `(j·L)_crit`, A/m (below: immortal).
    pub blech_product: f64,
}

impl BlackModel {
    /// Copper BEOL calibration: 10 years median at 1 MA/cm² and 105 °C,
    /// n = 1.8, Ea = 0.9 eV, σ = 0.3, (j·L)crit = 3000 A/cm ⇒ 3×10⁵ A/m.
    pub fn copper() -> Self {
        let mut m = Self {
            prefactor: 1.0,
            exponent: 1.8,
            activation_energy_ev: 0.9,
            sigma: 0.3,
            blech_product: 3.0e5,
        };
        let j_ref = CurrentDensity::from_amps_per_square_centimeter(1.0e6);
        let t_ref = Temperature::from_celsius(105.0);
        let target = Time::from_hours(10.0 * 365.25 * 24.0);
        let raw = m.median_ttf(j_ref, t_ref).hours();
        m.prefactor = target.hours() / raw;
        m
    }

    /// Cu–CNT composite calibration: the carbon network suppresses void
    /// growth — higher Ea (1.1 eV) and a 100× reference-lifetime boost at
    /// matched stress (echoing the ampacity factor of reference \[14\]).
    pub fn cu_cnt_composite() -> Self {
        let mut m = Self::copper();
        m.activation_energy_ev = 1.1;
        m.sigma = 0.25;
        m.blech_product = 3.0e6;
        // Re-anchor: 100× copper's lifetime at the same reference stress.
        let j_ref = CurrentDensity::from_amps_per_square_centimeter(1.0e6);
        let t_ref = Temperature::from_celsius(105.0);
        let cu = Self::copper().median_ttf(j_ref, t_ref).hours();
        let raw = m.median_ttf(j_ref, t_ref).hours();
        m.prefactor *= 100.0 * cu / raw;
        m
    }

    /// Median time to failure at stress `(j, t)`.
    ///
    /// # Panics
    ///
    /// Does not panic; extreme inputs saturate to 0 or infinity.
    pub fn median_ttf(&self, j: CurrentDensity, t: Temperature) -> Time {
        let jj = j.amps_per_square_meter().max(1e-30);
        let hours = self.prefactor
            * jj.powf(-self.exponent)
            * (self.activation_energy_ev / (K_B_EV * t.kelvin())).exp();
        Time::from_hours(hours)
    }

    /// `true` if a line of length `l` at density `j` is Blech-immortal
    /// (`j·L` below the critical product: back-stress stops void growth).
    pub fn is_blech_immortal(&self, j: CurrentDensity, l_meters: f64) -> bool {
        j.amps_per_square_meter() * l_meters < self.blech_product
    }

    /// Maximum current density for a target lifetime at temperature `t`
    /// (inverts Black's equation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive target.
    pub fn max_current_density(&self, target: Time, t: Temperature) -> Result<CurrentDensity> {
        if target.hours() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "target lifetime",
                value: target.hours(),
            });
        }
        let factor = self.prefactor * (self.activation_energy_ev / (K_B_EV * t.kelvin())).exp();
        let j = (factor / target.hours()).powf(1.0 / self.exponent);
        Ok(CurrentDensity::from_amps_per_square_meter(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_units::rand_ext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn j(ma_cm2: f64) -> CurrentDensity {
        CurrentDensity::from_amps_per_square_centimeter(ma_cm2 * 1e6)
    }

    #[test]
    fn copper_anchor_ten_years() {
        let m = BlackModel::copper();
        let mttf = m.median_ttf(j(1.0), Temperature::from_celsius(105.0));
        assert!((mttf.hours() / (10.0 * 365.25 * 24.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lifetime_falls_with_current_and_temperature() {
        let m = BlackModel::copper();
        let t = Temperature::from_celsius(105.0);
        assert!(m.median_ttf(j(2.0), t) < m.median_ttf(j(1.0), t));
        assert!(
            m.median_ttf(j(1.0), Temperature::from_celsius(150.0))
                < m.median_ttf(j(1.0), Temperature::from_celsius(105.0))
        );
        // n = 1.8: doubling j cuts life by 2^1.8 ≈ 3.48.
        let r = m.median_ttf(j(1.0), t).hours() / m.median_ttf(j(2.0), t).hours();
        assert!((r - 2.0_f64.powf(1.8)).abs() < 1e-6);
    }

    #[test]
    fn composite_outlives_copper_100x() {
        let cu = BlackModel::copper();
        let cc = BlackModel::cu_cnt_composite();
        let t = Temperature::from_celsius(105.0);
        let ratio = cc.median_ttf(j(1.0), t).hours() / cu.median_ttf(j(1.0), t).hours();
        assert!((ratio - 100.0).abs() / 100.0 < 1e-9, "ratio {ratio}");
        // The gap widens at higher temperature thanks to the larger Ea.
        let hot = Temperature::from_celsius(200.0);
        let ratio_hot = cc.median_ttf(j(1.0), hot).hours() / cu.median_ttf(j(1.0), hot).hours();
        assert!(ratio_hot < ratio, "hot {ratio_hot} vs {ratio}");
    }

    #[test]
    fn blech_immortality() {
        let m = BlackModel::copper();
        // Short line at moderate j: immortal.
        assert!(m.is_blech_immortal(j(1.0), 10e-6));
        // Long line at the same j: mortal.
        assert!(!m.is_blech_immortal(j(1.0), 100e-6));
        // The composite tolerates a 10× higher Blech product.
        assert!(BlackModel::cu_cnt_composite().is_blech_immortal(j(1.0), 100e-6));
    }

    #[test]
    fn sample_statistics_match_model() {
        let m = BlackModel::copper();
        let t = Temperature::from_celsius(105.0);
        // The per-die draw of `wafer_char` (Fig. 13b): lognormal around
        // Black's median with the model's sigma.
        let expect = m.median_ttf(j(1.0), t).hours();
        let mut rng = StdRng::seed_from_u64(3);
        let mut hours: Vec<f64> = (0..4000)
            .map(|_| rand_ext::lognormal(&mut rng, expect.ln(), m.sigma))
            .collect();
        hours.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = hours[hours.len() / 2];
        assert!(
            (med / expect - 1.0).abs() < 0.05,
            "median {med} vs {expect}"
        );
    }

    #[test]
    fn inverse_black_roundtrip() {
        let m = BlackModel::copper();
        let t = Temperature::from_celsius(105.0);
        let target = Time::from_hours(5000.0);
        let jmax = m.max_current_density(target, t).unwrap();
        let back = m.median_ttf(jmax, t);
        assert!((back.hours() / target.hours() - 1.0).abs() < 1e-9);
        assert!(m.max_current_density(Time::from_hours(-1.0), t).is_err());
    }
}
