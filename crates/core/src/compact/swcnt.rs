//! Single-wall CNT interconnect compact model.
//!
//! A SWCNT is the single-shell special case: `R(L) = (R0/N_ch)·(1 + L/λ)`
//! with ideal contacts, `N_ch = 2` for a metallic tube, `λ ≈ 1000·d`. Used
//! for the Fig. 9 conductivity comparison and as the building block of
//! bundles (the local-interconnect half of Fig. 1).

use crate::{Error, Result};
use cnt_units::consts::{G0_SIEMENS, MFP_DIAMETER_RATIO};
use cnt_units::si::{Length, Resistance};

/// Conduction channels of a metallic tube.
const CHANNELS: f64 = 2.0;

/// A single-wall CNT line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwcntInterconnect {
    diameter: Length,
    mfp: Length,
}

impl SwcntInterconnect {
    /// A metallic SWCNT of the given diameter with ideal contacts:
    /// 2 channels, `λ = 1000·d`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive diameter.
    pub fn metallic(diameter: Length) -> Result<Self> {
        if diameter.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "diameter",
                value: diameter.meters(),
            });
        }
        Ok(Self {
            diameter,
            mfp: diameter * MFP_DIAMETER_RATIO,
        })
    }

    /// Two-terminal resistance at length `l`.
    pub fn resistance(&self, l: Length) -> Resistance {
        Resistance::from_ohms((1.0 + l.meters() / self.mfp.meters()) / (CHANNELS * G0_SIEMENS))
    }

    /// Axial conductivity `σ(L)` over the tube footprint (Fig. 9).
    pub fn conductivity(&self, l: Length) -> f64 {
        let d = self.diameter.meters();
        let area = core::f64::consts::PI * d * d / 4.0;
        l.meters() / (self.resistance(l).ohms() * area)
    }

    /// Number of parallel tubes needed to reach the resistance of a target
    /// `resistance` at length `l` (bundle sizing; ties into the
    /// 0.096 nm⁻² density-floor discussion of Section I).
    pub fn tubes_for_target(&self, l: Length, target: Resistance) -> usize {
        (self.resistance(l).ohms() / target.ohms()).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(v: f64) -> Length {
        Length::from_nanometers(v)
    }

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    #[test]
    fn ballistic_resistance_is_r0_over_2() {
        let t = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        let r = t.resistance(Length::from_nanometers(0.01)).ohms();
        assert!(
            (r - cnt_units::consts::R0_OHMS / 2.0).abs() < 20.0,
            "R = {r}"
        );
    }

    #[test]
    fn micron_tube_stays_near_ballistic() {
        // λ = 1 µm for a 1 nm tube: R(1 µm) = 2·R(0).
        let t = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        let r = t.resistance(um(1.0)).ohms();
        assert!((r - cnt_units::consts::R0_OHMS).abs() / cnt_units::consts::R0_OHMS < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(SwcntInterconnect::metallic(Length::ZERO).is_err());
    }

    #[test]
    fn bundle_sizing() {
        let t = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        let n = t.tubes_for_target(um(1.0), Resistance::from_ohms(500.0));
        // R(1 µm) ≈ 12.9 kΩ ⇒ ≈ 26 tubes for 500 Ω.
        assert!((20..=30).contains(&n), "n = {n}");
    }
}
