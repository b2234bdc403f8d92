//! SWCNT-bundle interconnect model.
//!
//! Section I of the paper: "the need to reduce interconnect resistance
//! (and hence delay) makes it necessary to have CNTs with a minimum
//! density of 0.096 per nm², if pure CNT interconnects are used." This
//! model packs parallel SWCNTs into a rectangular trench and exposes
//! exactly that trade: as-grown bundles (1/3 metallic) miss copper by an
//! order of magnitude; doped bundles at the ITRS density floor reach
//! copper-class resistance.

use crate::compact::electrostatic::{wire_over_plane_capacitance, WireEnvironment};
use crate::{Error, Result};
use cnt_units::consts::{CNT_DENSITY_FLOOR, G0_SIEMENS, MFP_DIAMETER_RATIO};
use cnt_units::si::{Capacitance, Length, Resistance};

/// A bundle of parallel SWCNTs filling a rectangular cross-section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BundleInterconnect {
    width: Length,
    height: Length,
    tube_diameter: Length,
    /// Areal tube density, 1/m².
    density_per_m2: f64,
    /// Conducting channels per tube (2/3 chirality-averaged as grown;
    /// doping raises it and turns on the semiconducting majority).
    channels_per_tube: f64,
}

impl BundleInterconnect {
    /// An as-grown bundle: random chirality, so the *average* tube
    /// contributes `1/3 × 2 = 2/3` channels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive geometry or
    /// density.
    pub fn as_grown(
        width: Length,
        height: Length,
        tube_diameter: Length,
        density_per_m2: f64,
    ) -> Result<Self> {
        Self::new(width, height, tube_diameter, density_per_m2, 2.0 / 3.0)
    }

    /// A charge-transfer-doped bundle: every tube conducts with the given
    /// channel count (the paper's doping story applied to bundles).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive parameters.
    pub fn doped(
        width: Length,
        height: Length,
        tube_diameter: Length,
        density_per_m2: f64,
        channels_per_tube: f64,
    ) -> Result<Self> {
        Self::new(
            width,
            height,
            tube_diameter,
            density_per_m2,
            channels_per_tube,
        )
    }

    fn new(
        width: Length,
        height: Length,
        tube_diameter: Length,
        density_per_m2: f64,
        channels_per_tube: f64,
    ) -> Result<Self> {
        for (name, v) in [
            ("width", width.meters()),
            ("height", height.meters()),
            ("tube_diameter", tube_diameter.meters()),
            ("density_per_m2", density_per_m2),
            ("channels_per_tube", channels_per_tube),
        ] {
            if v <= 0.0 {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        // Geometric ceiling: close packing of circles.
        let max_density = 0.91 / (tube_diameter.meters() * tube_diameter.meters());
        if density_per_m2 > max_density {
            return Err(Error::InvalidParameter {
                name: "density_per_m2 (exceeds close packing)",
                value: density_per_m2,
            });
        }
        Ok(Self {
            width,
            height,
            tube_diameter,
            density_per_m2,
            channels_per_tube,
        })
    }

    /// Number of tubes in the cross-section.
    fn tube_count(&self) -> f64 {
        self.density_per_m2 * self.width.meters() * self.height.meters()
    }

    /// Two-terminal resistance at length `l` (ideal contacts).
    pub fn resistance(&self, l: Length) -> Resistance {
        let lambda = self.tube_diameter.meters() * MFP_DIAMETER_RATIO;
        let per_tube = self.channels_per_tube * G0_SIEMENS / (1.0 + l.meters() / lambda);
        Resistance::from_ohms(1.0 / (self.tube_count() * per_tube))
    }

    /// Per-length electrostatic capacitance of the bundle treated as a
    /// solid conductor of equivalent round cross-section.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation.
    pub fn capacitance_per_length(&self) -> Result<Capacitance> {
        let equiv_d =
            2.0 * (self.width.meters() * self.height.meters() / core::f64::consts::PI).sqrt();
        wire_over_plane_capacitance(
            Length::from_meters(equiv_d),
            WireEnvironment::beol_default(),
        )
    }

    /// The §I density floor, 1/m².
    pub fn itrs_density_floor() -> f64 {
        CNT_DENSITY_FLOOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CuWire;

    fn nm(v: f64) -> Length {
        Length::from_nanometers(v)
    }

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn floor_bundle_doped() -> BundleInterconnect {
        BundleInterconnect::doped(
            nm(100.0),
            nm(50.0),
            nm(1.0),
            BundleInterconnect::itrs_density_floor(),
            5.0,
        )
        .unwrap()
    }

    #[test]
    fn tube_count_at_floor_density() {
        // 0.096 /nm² × 100 × 50 nm² = 480 tubes.
        let b = floor_bundle_doped();
        assert!((b.tube_count() - 480.0).abs() < 1e-6);
    }

    #[test]
    fn doped_floor_bundle_reaches_copper_class_resistance() {
        // The §I claim behind the 0.096 nm⁻² number: with enough conducting
        // tubes a pure CNT wire matches Cu. Doped bundle vs damascene Cu at
        // 1 µm (local-wire length).
        let b = floor_bundle_doped();
        let cu = CuWire::damascene(nm(100.0), nm(50.0)).unwrap();
        let l = um(1.0);
        let ratio = b.resistance(l).ohms() / cu.resistance(l).ohms();
        assert!(
            (0.3..3.0).contains(&ratio),
            "bundle/Cu resistance ratio {ratio:.2} at 1 µm"
        );
    }

    #[test]
    fn as_grown_bundle_misses_copper_substantially() {
        let b = BundleInterconnect::as_grown(
            nm(100.0),
            nm(50.0),
            nm(1.0),
            BundleInterconnect::itrs_density_floor(),
        )
        .unwrap();
        let cu = CuWire::damascene(nm(100.0), nm(50.0)).unwrap();
        let l = um(1.0);
        let ratio = b.resistance(l).ohms() / cu.resistance(l).ohms();
        assert!(ratio > 4.0, "as-grown ratio {ratio:.2} should be poor");
    }

    #[test]
    fn resistance_scales_inversely_with_density() {
        let lo = BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), 0.02e18).unwrap();
        let hi = BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), 0.08e18).unwrap();
        let l = um(5.0);
        let ratio = lo.resistance(l).ohms() / hi.resistance(l).ohms();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn close_packing_is_enforced() {
        // 1 nm tubes cannot pack above ~0.91 /nm².
        assert!(BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), 1.0e18).is_err());
        assert!(BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), 0.5e18).is_ok());
    }

    #[test]
    fn capacitance_is_geometry_not_density() {
        let sparse = BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), 0.02e18).unwrap();
        let dense = BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), 0.09e18).unwrap();
        let cs = sparse.capacitance_per_length().unwrap().farads();
        let cd = dense.capacitance_per_length().unwrap().farads();
        assert!((cs - cd).abs() < 1e-18);
    }

    #[test]
    fn validation() {
        assert!(BundleInterconnect::as_grown(Length::ZERO, nm(50.0), nm(1.0), 1e17).is_err());
        assert!(BundleInterconnect::doped(nm(100.0), nm(50.0), nm(1.0), 1e17, 0.0).is_err());
    }
}
