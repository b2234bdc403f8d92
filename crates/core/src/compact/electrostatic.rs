//! Electrostatic capacitance formulas shared by the compact models.
//!
//! The paper's Eq. 5 keeps the electrostatic capacitance `C_E` as a
//! geometry-dependent quantity ("CE does not depend on doping"). The
//! wire-over-plane closed form covers the benchmark configuration; full
//! 3-D extraction lives in `cnt-fields`.

use crate::{Error, Result};
use cnt_units::consts::EPS_0;
use cnt_units::si::{Capacitance, Length};

/// Geometric environment of a cylindrical wire for `C_E` evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireEnvironment {
    /// Height of the wire *axis* above the ground plane.
    pub height: Length,
    /// Relative permittivity of the surrounding dielectric.
    pub eps_r: f64,
}

impl WireEnvironment {
    /// The benchmark BEOL environment of the Fig. 11/12 study: the line
    /// runs 200 nm above the return plane in SiO₂-class dielectric.
    pub fn beol_default() -> Self {
        Self {
            height: Length::from_nanometers(200.0),
            eps_r: cnt_units::consts::EPS_R_SIO2,
        }
    }
}

/// Per-length electrostatic capacitance of a cylinder of `diameter` with
/// its axis `height` above a ground plane: `C/L = 2πε / acosh(h/r)`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `height > diameter/2 > 0`
/// and `eps_r > 0`.
///
/// # Example
///
/// ```
/// use cnt_interconnect::compact::{wire_over_plane_capacitance, WireEnvironment};
/// use cnt_units::si::Length;
///
/// let c = wire_over_plane_capacitance(
///     Length::from_nanometers(10.0),
///     WireEnvironment::beol_default(),
/// )?;
/// // Tens of aF/µm — the magnitude the paper's Eq. 5 compares CQ against.
/// let af_per_um = c.farads() * 1e18 / 1e6;
/// assert!((20.0..100.0).contains(&af_per_um));
/// # Ok::<(), cnt_interconnect::Error>(())
/// ```
pub fn wire_over_plane_capacitance(diameter: Length, env: WireEnvironment) -> Result<Capacitance> {
    let r = diameter.meters() / 2.0;
    let h = env.height.meters();
    if r <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "diameter",
            value: diameter.meters(),
        });
    }
    if h <= r {
        return Err(Error::InvalidParameter {
            name: "height (must exceed the radius)",
            value: h,
        });
    }
    if env.eps_r <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "eps_r",
            value: env.eps_r,
        });
    }
    let c_per_m = 2.0 * core::f64::consts::PI * EPS_0 * env.eps_r / (h / r).acosh();
    Ok(Capacitance::from_farads(c_per_m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitance_grows_with_diameter_and_permittivity() {
        let env = WireEnvironment::beol_default();
        let thin = wire_over_plane_capacitance(Length::from_nanometers(5.0), env).unwrap();
        let thick = wire_over_plane_capacitance(Length::from_nanometers(22.0), env).unwrap();
        assert!(thick.farads() > thin.farads());
        let lowk = WireEnvironment { eps_r: 2.0, ..env };
        let c_lowk = wire_over_plane_capacitance(Length::from_nanometers(22.0), lowk).unwrap();
        assert!((c_lowk.farads() / thick.farads() - 2.0 / env.eps_r).abs() < 1e-12);
    }

    #[test]
    fn validation_paths() {
        let env = WireEnvironment {
            height: Length::from_nanometers(4.0),
            eps_r: 3.9,
        };
        // height < radius:
        assert!(wire_over_plane_capacitance(Length::from_nanometers(10.0), env).is_err());
        assert!(
            wire_over_plane_capacitance(Length::ZERO, WireEnvironment::beol_default()).is_err()
        );
    }
}
