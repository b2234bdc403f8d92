//! Cu–CNT composite wire model (the global-interconnect half of Fig. 1).
//!
//! Combines the size-effect copper matrix with an axial CNT fraction by
//! volume-weighted parallel mixing (`cnt-process::composite` supplies the
//! fill physics), and carries the composite's electromigration/ampacity
//! advantage from `cnt-reliability`.

use crate::compact::cu::CuWire;
use crate::{Error, Result};
use cnt_process::composite::composite_conductivity;
use cnt_reliability::ampacity::ConductorMaterial;
use cnt_units::si::{Current, Length, Resistance};

/// A rectangular Cu–CNT composite wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositeWire {
    matrix: CuWire,
    cnt_volume_fraction: f64,
    fill_fraction: f64,
    cnt_axial_conductivity: f64,
}

impl CompositeWire {
    /// Builds a composite on a damascene-copper matrix.
    ///
    /// `cnt_axial_conductivity` is the conductivity of the tube fraction
    /// along the wire (S/m) — from bundle compact models or measurement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for fractions outside their
    /// domains, and propagates matrix validation.
    pub fn new(
        width: Length,
        height: Length,
        cnt_volume_fraction: f64,
        fill_fraction: f64,
        cnt_axial_conductivity: f64,
    ) -> Result<Self> {
        if !(0.0..=0.74).contains(&cnt_volume_fraction) {
            return Err(Error::InvalidParameter {
                name: "cnt_volume_fraction",
                value: cnt_volume_fraction,
            });
        }
        if !(0.0..=1.0).contains(&fill_fraction) {
            return Err(Error::InvalidParameter {
                name: "fill_fraction",
                value: fill_fraction,
            });
        }
        if cnt_axial_conductivity < 0.0 {
            return Err(Error::InvalidParameter {
                name: "cnt_axial_conductivity",
                value: cnt_axial_conductivity,
            });
        }
        Ok(Self {
            matrix: CuWire::damascene(width, height)?,
            cnt_volume_fraction,
            fill_fraction,
            cnt_axial_conductivity,
        })
    }

    /// The Subramaniam-point composite: 45 % CNT volume, void-free fill,
    /// a 2×10⁷ S/m tube fraction (reference \[14\] of the paper).
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn subramaniam_point(width: Length, height: Length) -> Result<Self> {
        Self::new(width, height, 0.45, 1.0, 2.0e7)
    }

    /// Effective axial conductivity (S/m) over the drawn cross-section.
    fn conductivity(&self) -> f64 {
        composite_conductivity(
            self.cnt_volume_fraction,
            self.fill_fraction,
            self.matrix.conductivity(),
            self.cnt_axial_conductivity,
        )
    }

    /// Wire resistance at length `l`.
    pub fn resistance(&self, l: Length) -> Resistance {
        let a = self.matrix.width().meters() * self.matrix.height().meters();
        Resistance::from_ohms(l.meters() / (self.conductivity() * a))
    }

    /// Maximum sustainable current for the wire cross-section (EM-limited,
    /// from the reliability layer).
    ///
    /// # Errors
    ///
    /// Propagates the material-model validation.
    pub fn max_current(&self) -> Result<Current> {
        let material = ConductorMaterial::Composite {
            cnt_volume_fraction: self.cnt_volume_fraction,
        };
        Ok(material.max_current(self.matrix.width(), self.matrix.height())?)
    }

    /// The resistivity-vs-ampacity trade-off in one row: returns
    /// `(conductivity ratio vs Cu, ampacity ratio vs Cu)`.
    ///
    /// # Errors
    ///
    /// Propagates the material-model validation.
    pub fn trade_off_vs_copper(&self) -> Result<(f64, f64)> {
        let sigma_ratio = self.conductivity() / self.matrix.conductivity();
        let i_comp = self.max_current()?.amps();
        let i_cu = ConductorMaterial::Copper
            .max_current(self.matrix.width(), self.matrix.height())?
            .amps();
        Ok((sigma_ratio, i_comp / i_cu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(v: f64) -> Length {
        Length::from_nanometers(v)
    }

    #[test]
    fn subramaniam_tradeoff() {
        let w = CompositeWire::subramaniam_point(nm(100.0), nm(100.0)).unwrap();
        let (sigma_ratio, amp_ratio) = w.trade_off_vs_copper().unwrap();
        // Conductivity gives up some ground …
        assert!(sigma_ratio < 1.0, "σ ratio {sigma_ratio}");
        assert!(sigma_ratio > 0.4, "σ ratio {sigma_ratio}");
        // … ampacity gains two orders of magnitude.
        assert!(
            (amp_ratio - 100.0).abs() / 100.0 < 1e-6,
            "ampacity ratio {amp_ratio}"
        );
    }

    #[test]
    fn zero_cnt_reduces_to_copper() {
        let w = CompositeWire::new(nm(100.0), nm(100.0), 0.0, 1.0, 2.0e7).unwrap();
        let cu = CuWire::damascene(nm(100.0), nm(100.0)).unwrap();
        assert!((w.conductivity() / cu.conductivity() - 1.0).abs() < 1e-12);
        let (sr, ar) = w.trade_off_vs_copper().unwrap();
        assert!((sr - 1.0).abs() < 1e-12);
        assert!((ar - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resistance_uses_drawn_area() {
        let w = CompositeWire::subramaniam_point(nm(100.0), nm(50.0)).unwrap();
        let r = w.resistance(Length::from_micrometers(10.0)).ohms();
        let expect = 10e-6 / (w.conductivity() * 100e-9 * 50e-9);
        assert!((r - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn voids_hurt_conductivity() {
        let full = CompositeWire::new(nm(100.0), nm(100.0), 0.3, 1.0, 2.0e7).unwrap();
        let voided = CompositeWire::new(nm(100.0), nm(100.0), 0.3, 0.6, 2.0e7).unwrap();
        assert!(voided.conductivity() < full.conductivity());
    }

    #[test]
    fn validation() {
        assert!(CompositeWire::new(nm(100.0), nm(100.0), 0.9, 1.0, 2.0e7).is_err());
        assert!(CompositeWire::new(nm(100.0), nm(100.0), 0.3, 1.5, 2.0e7).is_err());
        assert!(CompositeWire::new(nm(100.0), nm(100.0), 0.3, 1.0, -1.0).is_err());
        assert!(CompositeWire::new(Length::ZERO, nm(100.0), 0.3, 1.0, 2.0e7).is_err());
    }
}
