//! Single-wall CNT interconnect compact model.
//!
//! A SWCNT is the single-shell special case: `R(L) = R_c + (R0/N_ch)·(1 +
//! L/λ)` with `N_ch = 2` for a metallic tube, `λ ≈ 1000·d`. Used for the
//! Fig. 9 conductivity comparison and as the building block of bundles
//! (the local-interconnect half of Fig. 1).

use crate::compact::electrostatic::{wire_over_plane_capacitance, WireEnvironment};
use crate::{Error, Result};
use cnt_units::consts::{CQ_PER_CHANNEL, G0_SIEMENS, MFP_DIAMETER_RATIO};
use cnt_units::si::{Capacitance, Length, Resistance};

/// A single-wall CNT line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwcntInterconnect {
    diameter: Length,
    channels: f64,
    mfp: Length,
    contact_resistance: Resistance,
    environment: WireEnvironment,
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
            channels: 2.0,
            mfp: diameter * MFP_DIAMETER_RATIO,
            contact_resistance: Resistance::from_ohms(0.0),
            environment: WireEnvironment::beol_default(),
        })
    }

    /// Overrides the channel count (e.g. from an atomistic calibration of
    /// a doped tube).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for `channels ≤ 0`.
    pub fn with_channels(mut self, channels: f64) -> Result<Self> {
        if channels <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "channels",
                value: channels,
            });
        }
        self.channels = channels;
        Ok(self)
    }

    /// Overrides the mean free path (e.g. from the NEGF disorder model).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive λ.
    pub fn with_mfp(mut self, mfp: Length) -> Result<Self> {
        if mfp.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "mfp",
                value: mfp.meters(),
            });
        }
        self.mfp = mfp;
        Ok(self)
    }

    /// Adds a per-end contact resistance (total `2·R_c` in series).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a negative resistance.
    pub fn with_contacts(mut self, per_contact: Resistance) -> Result<Self> {
        if per_contact.ohms() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "contact_resistance",
                value: per_contact.ohms(),
            });
        }
        self.contact_resistance = per_contact;
        Ok(self)
    }

    /// Tube diameter.
    pub fn diameter(&self) -> Length {
        self.diameter
    }

    /// Two-terminal resistance at length `l`.
    pub fn resistance(&self, l: Length) -> Resistance {
        let intrinsic = (1.0 + l.meters() / self.mfp.meters()) / (self.channels * G0_SIEMENS);
        Resistance::from_ohms(intrinsic + 2.0 * self.contact_resistance.ohms())
    }

    /// Total capacitance at length `l` (quantum in series with
    /// electrostatic).
    ///
    /// # Errors
    ///
    /// Propagates geometry validation.
    pub fn capacitance(&self, l: Length) -> Result<Capacitance> {
        let ce =
            wire_over_plane_capacitance(self.diameter, self.environment)?.farads() * l.meters();
        let cq = self.channels * CQ_PER_CHANNEL * l.meters();
        Ok(Capacitance::from_farads(ce * cq / (ce + cq)))
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
    fn contacts_and_doping_modifiers() {
        let base = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        let contacted = base
            .with_contacts(Resistance::from_kilo_ohms(15.0))
            .unwrap();
        assert!(
            (contacted.resistance(um(1.0)).ohms() - base.resistance(um(1.0)).ohms() - 30e3).abs()
                < 1.0
        );
        let doped = base.with_channels(5.0).unwrap();
        let ratio = base.resistance(um(10.0)).ohms() / doped.resistance(um(10.0)).ohms();
        assert!((ratio - 2.5).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(SwcntInterconnect::metallic(Length::ZERO).is_err());
        let t = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        assert!(t.with_channels(0.0).is_err());
        assert!(t.with_mfp(Length::ZERO).is_err());
        assert!(t.with_contacts(Resistance::from_ohms(-1.0)).is_err());
    }

    #[test]
    fn capacitance_quantum_limited_for_single_tube() {
        // One tube: CQ = 2·96.5 aF/µm is comparable to CE ⇒ the series
        // combination is visibly below CE (unlike the MWCNT case).
        let t = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        let l = um(1.0);
        let c = t.capacitance(l).unwrap().farads();
        let ce = wire_over_plane_capacitance(nm(1.0), WireEnvironment::beol_default())
            .unwrap()
            .farads();
        assert!(c < ce * l.meters() * 0.95);
    }

    #[test]
    fn bundle_sizing() {
        let t = SwcntInterconnect::metallic(nm(1.0)).unwrap();
        let n = t.tubes_for_target(um(1.0), Resistance::from_ohms(500.0));
        // R(1 µm) ≈ 12.9 kΩ ⇒ ≈ 26 tubes for 500 Ω.
        assert!((20..=30).contains(&n), "n = {n}");
    }
}
