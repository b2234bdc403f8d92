//! Size-effect copper wire model — the reference material of Figs. 9 and
//! 13.
//!
//! Nanoscale copper suffers from surface scattering (Fuchs–Sondheimer) and
//! grain-boundary scattering (Mayadas–Shatzkes); a diffusion-barrier liner
//! eats further into the conducting cross-section. These are the "size
//! effects" behind the paper's observation that Cu loses to CNTs at small
//! dimensions (the analytic models of reference \[18\] are calibrated the
//! same way).

use crate::{Error, Result};
use cnt_units::consts::{LAMBDA_CU, RHO_CU_BULK};
use cnt_units::si::{Length, Resistance, Resistivity};

/// A rectangular damascene copper wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CuWire {
    width: Length,
    height: Length,
    /// Specularity of surface scattering (0 = fully diffuse).
    specularity: f64,
    /// Grain-boundary reflection coefficient.
    grain_reflection: f64,
    /// Mean grain size (≈ width for damascene lines).
    grain_size: Length,
    /// Barrier/liner thickness consumed on each side.
    barrier: Length,
}

impl CuWire {
    /// A damascene wire with typical scattering parameters: diffuse
    /// surfaces (`p = 0.2`), `R = 0.3` grain reflection, grains the size
    /// of the linewidth and a 2 nm barrier.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive dimensions or
    /// a barrier consuming the whole wire.
    pub fn damascene(width: Length, height: Length) -> Result<Self> {
        Self::new(width, height, 0.2, 0.3, width, Length::from_nanometers(2.0))
    }

    /// Full constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for out-of-domain parameters.
    fn new(
        width: Length,
        height: Length,
        specularity: f64,
        grain_reflection: f64,
        grain_size: Length,
        barrier: Length,
    ) -> Result<Self> {
        if width.meters() <= 0.0 || height.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "width/height",
                value: width.meters().min(height.meters()),
            });
        }
        if !(0.0..=1.0).contains(&specularity) {
            return Err(Error::InvalidParameter {
                name: "specularity",
                value: specularity,
            });
        }
        if !(0.0..1.0).contains(&grain_reflection) {
            return Err(Error::InvalidParameter {
                name: "grain_reflection",
                value: grain_reflection,
            });
        }
        if grain_size.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "grain_size",
                value: grain_size.meters(),
            });
        }
        if barrier.meters() < 0.0
            || 2.0 * barrier.meters() >= width.meters()
            || 2.0 * barrier.meters() >= height.meters()
        {
            return Err(Error::InvalidParameter {
                name: "barrier",
                value: barrier.meters(),
            });
        }
        Ok(Self {
            width,
            height,
            specularity,
            grain_reflection,
            grain_size,
            barrier,
        })
    }

    /// Drawn width.
    pub fn width(&self) -> Length {
        self.width
    }

    /// Drawn height.
    pub fn height(&self) -> Length {
        self.height
    }

    /// Conducting cross-section after the barrier.
    fn conducting_area(&self) -> f64 {
        let w = self.width.meters() - 2.0 * self.barrier.meters();
        let h = self.height.meters() - 2.0 * self.barrier.meters();
        w * h
    }

    /// Effective resistivity including FS surface and MS grain-boundary
    /// terms.
    pub fn resistivity(&self) -> Resistivity {
        // Mayadas–Shatzkes grain-boundary factor.
        let alpha = LAMBDA_CU / self.grain_size.meters() * self.grain_reflection
            / (1.0 - self.grain_reflection);
        let ms = {
            let inner = 1.0 - 1.5 * alpha + 3.0 * alpha * alpha
                - 3.0 * alpha.powi(3) * (1.0 + 1.0 / alpha).ln();
            1.0 / inner.max(1e-6)
        };
        // Fuchs–Sondheimer surface term (thin-wire approximation, both
        // sidewall pairs).
        let w = self.width.meters() - 2.0 * self.barrier.meters();
        let h = self.height.meters() - 2.0 * self.barrier.meters();
        let fs = 1.0 + 0.375 * (1.0 - self.specularity) * LAMBDA_CU * (1.0 / w + 1.0 / h);
        Resistivity::from_ohm_meters(RHO_CU_BULK * (ms + fs - 1.0))
    }

    /// Wire resistance at length `l`.
    pub fn resistance(&self, l: Length) -> Resistance {
        Resistance::from_ohms(self.resistivity().ohm_meters() * l.meters() / self.conducting_area())
    }

    /// Effective conductivity over the *drawn* cross-section (the quantity
    /// compared against CNTs in Fig. 9 — barriers and scattering all count
    /// against copper).
    pub fn conductivity(&self) -> f64 {
        let drawn = self.width.meters() * self.height.meters();
        let per_len = self.resistivity().ohm_meters() / self.conducting_area();
        1.0 / (per_len * drawn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(v: f64) -> Length {
        Length::from_nanometers(v)
    }

    #[test]
    fn wide_wires_approach_bulk() {
        let wide = CuWire::damascene(nm(1000.0), nm(1000.0)).unwrap();
        let rho = wide.resistivity().micro_ohm_centimeters();
        assert!(
            rho < 1.4 * RHO_CU_BULK * 1e8,
            "1 µm wire: {rho} µΩ·cm should be near bulk (1.72)"
        );
    }

    #[test]
    fn narrow_wires_are_much_worse_than_bulk() {
        let narrow = CuWire::damascene(nm(20.0), nm(40.0)).unwrap();
        let rho = narrow.resistivity().micro_ohm_centimeters();
        // 20 nm-class lines measure 5–10 µΩ·cm in the literature.
        assert!((4.0..15.0).contains(&rho), "20 nm wire: {rho} µΩ·cm");
    }

    #[test]
    fn conductivity_falls_with_scaling() {
        let w100 = CuWire::damascene(nm(100.0), nm(200.0)).unwrap();
        let w20 = CuWire::damascene(nm(20.0), nm(40.0)).unwrap();
        assert!(w20.conductivity() < 0.6 * w100.conductivity());
    }

    #[test]
    fn resistance_scales_linearly_with_length() {
        let w = CuWire::damascene(nm(50.0), nm(100.0)).unwrap();
        let r1 = w.resistance(Length::from_micrometers(10.0)).ohms();
        let r2 = w.resistance(Length::from_micrometers(20.0)).ohms();
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_consumes_conducting_area() {
        let with = CuWire::damascene(nm(20.0), nm(40.0)).unwrap();
        let without = CuWire::new(nm(20.0), nm(40.0), 0.2, 0.3, nm(20.0), Length::ZERO).unwrap();
        assert!(with.conducting_area() < without.conducting_area());
        assert!(with.resistance(nm(1000.0)).ohms() > without.resistance(nm(1000.0)).ohms());
    }

    #[test]
    fn validation() {
        assert!(CuWire::damascene(Length::ZERO, nm(40.0)).is_err());
        assert!(CuWire::new(nm(20.0), nm(40.0), 1.5, 0.3, nm(20.0), Length::ZERO).is_err());
        assert!(CuWire::new(nm(20.0), nm(40.0), 0.2, 1.0, nm(20.0), Length::ZERO).is_err());
        assert!(CuWire::new(nm(20.0), nm(40.0), 0.2, 0.3, Length::ZERO, Length::ZERO).is_err());
        // Barrier eats the wire.
        assert!(CuWire::new(nm(20.0), nm(40.0), 0.2, 0.3, nm(20.0), nm(10.0)).is_err());
    }

    #[test]
    fn smoother_surfaces_help() {
        let rough = CuWire::new(nm(20.0), nm(40.0), 0.0, 0.3, nm(20.0), nm(2.0)).unwrap();
        let smooth = CuWire::new(nm(20.0), nm(40.0), 0.9, 0.3, nm(20.0), nm(2.0)).unwrap();
        assert!(smooth.resistivity().ohm_meters() < rough.resistivity().ohm_meters());
    }
}
