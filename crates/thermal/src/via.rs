//! Thermal resistance of via stacks — the paper's §I claim that "heat
//! diffuses more efficiently through CNT vias than Cu vias and can
//! reduce the on-chip temperature", made quantitative.
//!
//! A via is modelled as a 1-D conduction stack: each layer contributes
//! `R_th = t / (k·A)`, interfaces add a boundary resistance. The figure
//! of merit is the temperature drop a via column develops while sinking
//! a given heat flow to the substrate.

use crate::{Error, Result};
use cnt_units::consts::{KTH_CNT_LOW, KTH_CU};
use cnt_units::si::{Area, Length, Power, Temperature};

/// One layer of a via/ILD stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackLayer {
    /// Layer thickness.
    pub thickness: Length,
    /// Thermal conductivity, W/(m·K).
    pub conductivity: f64,
}

/// A via column: layers in series plus per-interface boundary resistance.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaStack {
    layers: Vec<StackLayer>,
    cross_section: Area,
    /// Thermal boundary resistance per interface, K·m²/W.
    interface_resistance: f64,
}

impl ViaStack {
    /// Builds a stack.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for empty stacks, non-positive areas,
    /// thicknesses or conductivities, or negative interface resistance.
    fn new(
        layers: Vec<StackLayer>,
        cross_section: Area,
        interface_resistance: f64,
    ) -> Result<Self> {
        if layers.is_empty() {
            return Err(Error::InvalidParameter {
                name: "layers (empty stack)",
                value: 0.0,
            });
        }
        if cross_section.square_meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "cross_section",
                value: cross_section.square_meters(),
            });
        }
        if interface_resistance < 0.0 {
            return Err(Error::InvalidParameter {
                name: "interface_resistance",
                value: interface_resistance,
            });
        }
        for l in &layers {
            if l.thickness.meters() <= 0.0 || l.conductivity <= 0.0 {
                return Err(Error::InvalidParameter {
                    name: "layer thickness/conductivity",
                    value: l.conductivity.min(l.thickness.meters()),
                });
            }
        }
        Ok(Self {
            layers,
            cross_section,
            interface_resistance,
        })
    }

    /// A two-level Cu via stack (60 nm vias, TaN-lined) of the given
    /// footprint.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn copper(cross_section: Area) -> Result<Self> {
        Self::new(
            vec![
                StackLayer {
                    thickness: Length::from_nanometers(60.0),
                    conductivity: KTH_CU,
                },
                StackLayer {
                    thickness: Length::from_nanometers(60.0),
                    conductivity: KTH_CU,
                },
            ],
            cross_section,
            1.0e-9, // metal/liner boundary
        )
    }

    /// The same stack built from CNT bundles (conservative
    /// 3000 W/(m·K) tube fraction) with *developed* end contacts matching
    /// the metal/liner boundary. At these dimensions the stack is
    /// interface-dominated, so the paper's "heat diffuses more
    /// efficiently through CNT vias" claim holds **only** under this
    /// contact condition — see [`ViaStack::cnt_poor_contacts`] for the
    /// inverse case, which is why the paper keeps hammering on contacts.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn cnt(cross_section: Area) -> Result<Self> {
        Self::new(
            vec![
                StackLayer {
                    thickness: Length::from_nanometers(60.0),
                    conductivity: KTH_CNT_LOW,
                },
                StackLayer {
                    thickness: Length::from_nanometers(60.0),
                    conductivity: KTH_CNT_LOW,
                },
            ],
            cross_section,
            1.0e-9, // end contacts as good as metal/liner
        )
    }

    /// The CNT stack with today's typical (poor) end-contact thermal
    /// boundary (~4×10⁻⁹ K·m²/W): the conductivity advantage is wiped
    /// out — the quantitative version of the paper's contact warnings.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn cnt_poor_contacts(cross_section: Area) -> Result<Self> {
        let mut stack = Self::cnt(cross_section)?;
        stack.interface_resistance = 4.0e-9;
        Ok(stack)
    }

    /// Total thermal resistance, K/W.
    fn thermal_resistance(&self) -> f64 {
        let a = self.cross_section.square_meters();
        let conduction: f64 = self
            .layers
            .iter()
            .map(|l| l.thickness.meters() / (l.conductivity * a))
            .sum();
        // One interface per layer boundary plus the two terminals.
        let n_interfaces = (self.layers.len() + 1) as f64;
        conduction + n_interfaces * self.interface_resistance / a
    }

    /// Temperature drop across the stack while sinking `heat`.
    pub fn temperature_drop(&self, heat: Power) -> Temperature {
        Temperature::from_kelvin(heat.watts() * self.thermal_resistance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area() -> Area {
        Area::from_square_nanometers(60.0 * 60.0)
    }

    #[test]
    fn cnt_via_conducts_heat_better_with_developed_contacts() {
        // The §I claim holds when the end contacts match metal quality.
        let cu = ViaStack::copper(area()).unwrap();
        let cnt = ViaStack::cnt(area()).unwrap();
        let q = Power::from_microwatts(10.0);
        let dt_cu = cu.temperature_drop(q).kelvin();
        let dt_cnt = cnt.temperature_drop(q).kelvin();
        assert!(
            dt_cnt < dt_cu,
            "CNT via ΔT {dt_cnt:.2} K vs Cu {dt_cu:.2} K"
        );
    }

    #[test]
    fn poor_contacts_invert_the_thermal_advantage() {
        // Why the paper's conclusion keeps stressing CNT-metal contacts:
        // at 60 nm dimensions the stack is interface-dominated.
        let cu = ViaStack::copper(area()).unwrap();
        let poor = ViaStack::cnt_poor_contacts(area()).unwrap();
        let q = Power::from_microwatts(10.0);
        assert!(
            poor.temperature_drop(q).kelvin() > cu.temperature_drop(q).kelvin(),
            "poor contacts should lose to Cu"
        );
    }

    #[test]
    fn resistance_adds_in_series() {
        let single = ViaStack::new(
            vec![StackLayer {
                thickness: Length::from_nanometers(60.0),
                conductivity: KTH_CU,
            }],
            area(),
            0.0,
        )
        .unwrap();
        let double = ViaStack::new(
            vec![
                StackLayer {
                    thickness: Length::from_nanometers(60.0),
                    conductivity: KTH_CU,
                },
                StackLayer {
                    thickness: Length::from_nanometers(60.0),
                    conductivity: KTH_CU,
                },
            ],
            area(),
            0.0,
        )
        .unwrap();
        let r1 = single.thermal_resistance();
        let r2 = double.thermal_resistance();
        assert!((r2 / r1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn interfaces_matter_at_nanoscale() {
        let no_tbr = ViaStack::new(
            vec![StackLayer {
                thickness: Length::from_nanometers(60.0),
                conductivity: KTH_CNT_LOW,
            }],
            area(),
            0.0,
        )
        .unwrap();
        let with_tbr = ViaStack::new(
            vec![StackLayer {
                thickness: Length::from_nanometers(60.0),
                conductivity: KTH_CNT_LOW,
            }],
            area(),
            4.0e-9,
        )
        .unwrap();
        // For a high-k CNT via the boundary resistance dominates.
        assert!(with_tbr.thermal_resistance() > 5.0 * no_tbr.thermal_resistance());
    }

    #[test]
    fn drop_scales_linearly_with_heat() {
        let cu = ViaStack::copper(area()).unwrap();
        let d1 = cu.temperature_drop(Power::from_microwatts(1.0)).kelvin();
        let d3 = cu.temperature_drop(Power::from_microwatts(3.0)).kelvin();
        assert!((d3 / d1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(ViaStack::new(vec![], area(), 0.0).is_err());
        assert!(ViaStack::copper(Area::from_square_meters(0.0)).is_err());
        assert!(ViaStack::new(
            vec![StackLayer {
                thickness: Length::ZERO,
                conductivity: KTH_CU
            }],
            area(),
            0.0
        )
        .is_err());
        assert!(ViaStack::new(
            vec![StackLayer {
                thickness: Length::from_nanometers(60.0),
                conductivity: KTH_CU
            }],
            area(),
            -1.0
        )
        .is_err());
    }
}
