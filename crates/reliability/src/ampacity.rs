//! Material ampacity: the current-carrying numbers of the paper's
//! introduction, reproduced as a small model ("Table 1" of the experiment
//! index — the paper states them in prose).
//!
//! * Copper: EM-limited to 10⁶ A/cm²; a 100 nm × 50 nm wire carries 50 µA.
//! * CNT: ~10⁹ A/cm² demonstrated on metallic SWCNT bundles; a 1 nm tube
//!   carries 20–25 µA.
//! * A minimum CNT density of 0.096 nm⁻² is needed for resistance parity.
//! * Cu–CNT composite: up to 100× copper (reference \[14\]).

use crate::{Error, Result};
use cnt_units::consts::{CNT_DENSITY_FLOOR, JMAX_CNT, JMAX_CU};
use cnt_units::si::{Area, Current, CurrentDensity, Length};

/// Interconnect conductor material for ampacity purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConductorMaterial {
    /// Damascene copper.
    Copper,
    /// Pure CNT (bundle or individual tube).
    Cnt,
    /// Cu–CNT composite with the given CNT volume fraction.
    Composite {
        /// CNT volume fraction in `[0, 0.74]`.
        cnt_volume_fraction: f64,
    },
}

impl ConductorMaterial {
    /// Sustainable current density of the material.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a composite fraction outside
    /// `[0, 0.74]`.
    pub fn max_current_density(&self) -> Result<CurrentDensity> {
        let j = match self {
            ConductorMaterial::Copper => JMAX_CU,
            ConductorMaterial::Cnt => JMAX_CNT,
            ConductorMaterial::Composite {
                cnt_volume_fraction,
            } => {
                if !(0.0..=0.74).contains(cnt_volume_fraction) {
                    return Err(Error::InvalidParameter {
                        name: "cnt_volume_fraction",
                        value: *cnt_volume_fraction,
                    });
                }
                // Exponential interpolation hitting 100× Cu at 45 % CNT
                // (Subramaniam et al., reference [14] of the paper), capped
                // by the pure-CNT limit.
                (JMAX_CU * (cnt_volume_fraction * 100.0_f64.ln() / 0.45).exp()).min(JMAX_CNT)
            }
        };
        Ok(CurrentDensity::from_amps_per_square_meter(j))
    }

    /// Maximum current through a rectangular cross-section.
    ///
    /// # Errors
    ///
    /// Propagates [`ConductorMaterial::max_current_density`] errors.
    pub fn max_current(&self, width: Length, height: Length) -> Result<Current> {
        Ok(self.max_current_density()? * (width * height))
    }
}

/// Maximum current of a single CNT of diameter `d` (solid-disc footprint
/// at the demonstrated 10⁹ A/cm² + ballistic saturation cap ≈ 25 µA).
pub fn single_cnt_max_current(diameter: Length) -> Current {
    let d = diameter.meters();
    let area = Area::from_square_meters(core::f64::consts::PI * d * d / 4.0);
    let j_limited = CurrentDensity::from_amps_per_square_meter(JMAX_CNT) * area;
    // Electron–phonon scattering saturates a metallic SWCNT near 25 µA
    // (paper: "a 1 nm diameter CNT can carry up to 20-25 µA").
    let saturation = Current::from_microamps(25.0);
    // The area-limited value wins for thin tubes; saturation for thick ones.
    if d <= 1.1e-9 {
        j_limited.max(Current::from_microamps(20.0)).min(saturation)
    } else {
        saturation
    }
}

/// Number of 1 nm CNTs needed to replace a Cu wire of the given
/// cross-section at its EM limit.
pub fn cnt_count_for_cu_parity(width: Length, height: Length) -> usize {
    let cu = ConductorMaterial::Copper
        .max_current(width, height)
        .expect("copper has no parameters to validate");
    let per_tube = single_cnt_max_current(Length::from_nanometers(1.0));
    (cu.amps() / per_tube.amps()).ceil() as usize
}

/// The ITRS-derived density floor for resistance (not ampacity) parity:
/// 0.096 tubes/nm² (Section I).
pub fn cnt_density_floor_per_nm2() -> f64 {
    CNT_DENSITY_FLOOR / 1e18
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_intro_numbers() {
        // Cu 100 nm × 50 nm carries 50 µA.
        let i_cu = ConductorMaterial::Copper
            .max_current(
                Length::from_nanometers(100.0),
                Length::from_nanometers(50.0),
            )
            .unwrap();
        assert!((i_cu.microamps() - 50.0).abs() < 1e-9);
        // A 1 nm CNT carries 20–25 µA.
        let i_cnt = single_cnt_max_current(Length::from_nanometers(1.0));
        assert!(
            (20.0..=25.0).contains(&i_cnt.microamps()),
            "{}",
            i_cnt.microamps()
        );
        // Three orders of magnitude in current density.
        let j_cnt = ConductorMaterial::Cnt.max_current_density().unwrap();
        let j_cu = ConductorMaterial::Copper.max_current_density().unwrap();
        assert!(
            (j_cnt.amps_per_square_meter() / j_cu.amps_per_square_meter() - 1000.0).abs() < 1e-6
        );
    }

    #[test]
    fn a_few_cnts_match_a_copper_wire() {
        // "From a reliability perspective, a few CNTs are enough to match
        // the current carrying capacity of a typical Cu interconnect."
        let n = cnt_count_for_cu_parity(
            Length::from_nanometers(100.0),
            Length::from_nanometers(50.0),
        );
        assert!((2..=4).contains(&n), "needed {n} tubes");
    }

    #[test]
    fn density_floor() {
        assert!((cnt_density_floor_per_nm2() - 0.096).abs() < 1e-12);
    }

    #[test]
    fn composite_interpolates_to_100x() {
        let base = ConductorMaterial::Composite {
            cnt_volume_fraction: 0.0,
        }
        .max_current_density()
        .unwrap();
        assert!((base.amps_per_square_meter() - JMAX_CU).abs() < 1e-3);
        let best = ConductorMaterial::Composite {
            cnt_volume_fraction: 0.45,
        }
        .max_current_density()
        .unwrap();
        assert!((best.amps_per_square_meter() / JMAX_CU - 100.0).abs() < 1e-6);
        assert!(ConductorMaterial::Composite {
            cnt_volume_fraction: 0.9
        }
        .max_current_density()
        .is_err());
    }

    #[test]
    fn thick_tubes_saturate() {
        let thin = single_cnt_max_current(Length::from_nanometers(1.0));
        let thick = single_cnt_max_current(Length::from_nanometers(10.0));
        assert!(thick.microamps() <= 25.0 + 1e-9);
        assert!(thick.microamps() >= thin.microamps());
    }
}
