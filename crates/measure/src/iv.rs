//! I–V characterization of CNT devices (the paper's Fig. 2d: a
//! side-contacted MWCNT before and after PtCl₄ doping).
//!
//! The device model combines a bias-independent contact pair, the tube
//! resistance, and the high-field current saturation of metallic CNTs
//! (electron–phonon scattering caps a metallic SWCNT near 25 µA,
//! reference \[7\] of the paper): `I(V) = V / (R + |V|/I_sat)`.

use crate::{Error, Result};
use cnt_units::rand_ext;
use cnt_units::si::{Current, Resistance, Voltage};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A two-terminal CNT device under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CntDevice {
    /// Total low-bias resistance (contacts + tube), ohms.
    pub resistance: Resistance,
    /// High-field saturation current (per device), amperes.
    pub saturation_current: Current,
}

impl CntDevice {
    /// Validates the device parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive values.
    pub fn validate(&self) -> Result<()> {
        if self.resistance.ohms() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "resistance",
                value: self.resistance.ohms(),
            });
        }
        if self.saturation_current.amps() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "saturation_current",
                value: self.saturation_current.amps(),
            });
        }
        Ok(())
    }

    /// Ideal (noise-free) current at bias `v`.
    pub fn current_at(&self, v: Voltage) -> Current {
        let r = self.resistance.ohms();
        let i_sat = self.saturation_current.amps();
        Current::from_amps(v.volts() / (r + v.volts().abs() / i_sat))
    }
}

/// One I–V sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct IvCurve {
    /// Swept points `(V, I)`.
    pub points: Vec<(Voltage, Current)>,
}

impl IvCurve {
    /// Low-bias resistance from the smallest nonzero bias points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewPoints`] if the sweep has fewer than 3
    /// points.
    pub fn low_bias_resistance(&self) -> Result<Resistance> {
        if self.points.len() < 3 {
            return Err(Error::TooFewPoints {
                got: self.points.len(),
                min: 3,
            });
        }
        // Least-squares slope through the origin over the inner third.
        let n = self.points.len();
        let inner: Vec<&(Voltage, Current)> = {
            let mut sorted: Vec<&(Voltage, Current)> = self.points.iter().collect();
            sorted.sort_by(|a, b| {
                a.0.volts()
                    .abs()
                    .partial_cmp(&b.0.volts().abs())
                    .expect("finite")
            });
            sorted.into_iter().take((n / 3).max(3)).collect()
        };
        let num: f64 = inner.iter().map(|(v, i)| v.volts() * i.amps()).sum();
        let den: f64 = inner.iter().map(|(v, _)| v.volts() * v.volts()).sum();
        if den == 0.0 {
            return Err(Error::InvalidParameter {
                name: "sweep (all points at V = 0)",
                value: 0.0,
            });
        }
        Ok(Resistance::from_ohms(den / num))
    }
}

/// Sweeps a device from `-v_max` to `+v_max` in `points` steps with
/// multiplicative current noise.
///
/// # Errors
///
/// Propagates device validation; rejects `points < 3` and negative noise.
pub fn iv_sweep(
    device: &CntDevice,
    v_max: Voltage,
    points: usize,
    noise: f64,
    seed: u64,
) -> Result<IvCurve> {
    device.validate()?;
    if points < 3 {
        return Err(Error::TooFewPoints {
            got: points,
            min: 3,
        });
    }
    if noise < 0.0 {
        return Err(Error::InvalidParameter {
            name: "noise",
            value: noise,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..points)
        .map(|k| {
            let v = Voltage::from_volts(
                -v_max.volts() + 2.0 * v_max.volts() * k as f64 / (points - 1) as f64,
            );
            let ideal = device.current_at(v).amps();
            let i = ideal * (1.0 + rand_ext::normal(&mut rng, 0.0, noise));
            (v, Current::from_amps(i))
        })
        .collect();
    Ok(IvCurve { points: pts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(r_kohm: f64) -> CntDevice {
        CntDevice {
            resistance: Resistance::from_kilo_ohms(r_kohm),
            saturation_current: Current::from_microamps(25.0),
        }
    }

    #[test]
    fn ohmic_at_low_bias_saturating_at_high() {
        let d = device(40.0);
        let low = d.current_at(Voltage::from_millivolts(10.0));
        // Essentially V/R at 10 mV.
        assert!((low.amps() - 10e-3 / 40e3).abs() / (10e-3 / 40e3) < 0.01);
        // At huge bias the current approaches (but never exceeds) I_sat.
        let high = d.current_at(Voltage::from_volts(50.0));
        assert!(high.microamps() < 25.0);
        assert!(high.microamps() > 20.0);
        // The chord conductance falls with bias: the curve saturates.
        let g = |v: f64| d.current_at(Voltage::from_volts(v)).amps() / v;
        assert!(g(3.0) < g(0.01));
    }

    #[test]
    fn iv_curve_is_odd_symmetric() {
        let d = device(40.0);
        let curve = iv_sweep(&d, Voltage::from_volts(2.0), 201, 0.0, 1).unwrap();
        let n = curve.points.len();
        for k in 0..n / 2 {
            let (v1, i1) = curve.points[k];
            let (v2, i2) = curve.points[n - 1 - k];
            assert!((v1.volts() + v2.volts()).abs() < 1e-12);
            assert!((i1.amps() + i2.amps()).abs() < 1e-15);
        }
    }

    #[test]
    fn low_bias_extraction_recovers_r() {
        // The sweep must stay well below I_sat·R ≈ 1.4 V for the low-bias
        // window to be genuinely ohmic.
        let d = device(55.0);
        let curve = iv_sweep(&d, Voltage::from_millivolts(100.0), 101, 0.01, 3).unwrap();
        let r = curve.low_bias_resistance().unwrap();
        assert!(
            (r.kilo_ohms() - 55.0).abs() / 55.0 < 0.05,
            "{}",
            r.kilo_ohms()
        );
    }

    #[test]
    fn fig2d_doping_lowers_resistance() {
        // Pristine MWCNT ~120 kΩ; PtCl₄ doping cuts the tube contribution.
        let pristine = device(120.0);
        let doped = device(45.0);
        let rp = iv_sweep(&pristine, Voltage::from_volts(1.0), 101, 0.02, 5)
            .unwrap()
            .low_bias_resistance()
            .unwrap();
        let rd = iv_sweep(&doped, Voltage::from_volts(1.0), 101, 0.02, 5)
            .unwrap()
            .low_bias_resistance()
            .unwrap();
        assert!(
            rd.ohms() < 0.5 * rp.ohms(),
            "doped {} vs pristine {}",
            rd.ohms(),
            rp.ohms()
        );
    }

    #[test]
    fn validation() {
        let mut bad = device(10.0);
        bad.resistance = Resistance::from_ohms(0.0);
        assert!(iv_sweep(&bad, Voltage::from_volts(1.0), 11, 0.0, 1).is_err());
        let d = device(10.0);
        assert!(iv_sweep(&d, Voltage::from_volts(1.0), 2, 0.0, 1).is_err());
        assert!(iv_sweep(&d, Voltage::from_volts(1.0), 11, -0.5, 1).is_err());
        let tiny = IvCurve {
            points: vec![(Voltage::from_volts(0.0), Current::from_amps(0.0))],
        };
        assert!(tiny.low_bias_resistance().is_err());
    }
}
