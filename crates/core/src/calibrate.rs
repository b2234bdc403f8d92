//! Atomistic → compact-model calibration pipeline.
//!
//! The paper's TCAD section states that its analytical conductivity models
//! are "calibrated against the ab-initio simulations described in Section
//! III.A". This module is that arrow in Rust: channel counts come from the
//! zone-folded Landauer layer (including doping), and mean free paths come
//! from the NEGF disorder model seeded by growth defectivity.

use crate::Result;
use cnt_atomistic::chirality::Chirality;
use cnt_atomistic::doping::{DopedCnt, DopingSpec};
use cnt_atomistic::negf::DisorderedChain;
use cnt_atomistic::transport;
use cnt_process::growth::GrowthResult;
use cnt_units::consts::GAMMA0_EV;
use cnt_units::si::{Length, Temperature};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Channel count of a pristine tube from the Landauer layer
/// (`Nc = G/G0`, paper Eq. 1).
pub fn channels_pristine(chirality: Chirality, temperature: Temperature) -> f64 {
    transport::conducting_channels(chirality, temperature)
}

/// Channel count of a doped tube from the Landauer layer with the doping
/// model attached.
///
/// # Errors
///
/// Propagates atomistic validation errors.
pub fn channels_doped(
    chirality: Chirality,
    spec: DopingSpec,
    temperature: Temperature,
) -> Result<f64> {
    let doped = DopedCnt::new(chirality, spec)?;
    Ok(doped.conducting_channels(temperature))
}

/// Maps a growth result (Raman D/G defectivity) to an Anderson disorder
/// strength for the NEGF chain: pristine material (D/G ≈ 0.05) ≈ 0.1 eV
/// residual disorder; heavily defective (D/G ≈ 1) ≈ 1.4 eV.
fn disorder_from_growth(growth: &GrowthResult) -> f64 {
    (0.1 + 1.3 * (growth.dg_ratio - 0.05).max(0.0)).min(3.0)
}

/// Extracts a defect-limited mean free path by running the NEGF disorder
/// model at the strength implied by a growth result.
///
/// # Errors
///
/// Propagates NEGF construction errors.
pub fn mfp_from_growth(growth: &GrowthResult, seed: u64) -> Result<Length> {
    let disorder = disorder_from_growth(growth);
    let chain = DisorderedChain::new(600, GAMMA0_EV, disorder, Length::from_nanometers(0.25))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mfp = chain.mean_free_path(0.0, 80, &mut rng);
    // The ballistic limit reports ∞; cap at the clean-tube λ ≈ 1 µm.
    Ok(if mfp.meters().is_finite() {
        mfp.min(Length::from_micrometers(1.0))
    } else {
        Length::from_micrometers(1.0)
    })
}

/// A bundle of calibrated compact-model inputs for one device flavour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedChannels {
    /// Channels per metallic shell, pristine.
    pub pristine: f64,
    /// Channels per shell after iodine doping.
    pub doped: f64,
    /// The paper's doping enhancement window (2 → 10).
    pub enhancement: f64,
}

/// Calibrates the (7,7) reference tube of the paper's Fig. 8.
///
/// # Errors
///
/// Propagates atomistic errors.
pub fn calibrate_reference_tube(temperature: Temperature) -> Result<CalibratedChannels> {
    let tube = Chirality::new(7, 7)?;
    let pristine = channels_pristine(tube, temperature);
    let doped = channels_doped(tube, DopingSpec::iodine_internal(), temperature)?;
    Ok(CalibratedChannels {
        pristine,
        doped,
        enhancement: doped / pristine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_process::growth::{Catalyst, GrowthRecipe};

    fn t300() -> Temperature {
        Temperature::from_kelvin(300.0)
    }

    #[test]
    fn reference_tube_matches_fig8_anchors() {
        let cal = calibrate_reference_tube(t300()).unwrap();
        assert!(
            (cal.pristine - 2.0).abs() < 0.1,
            "pristine {}",
            cal.pristine
        );
        assert!((cal.doped - 5.0).abs() < 0.15, "doped {}", cal.doped);
        assert!((cal.enhancement - 2.5).abs() < 0.15);
    }

    #[test]
    fn hot_growth_gives_longer_mfp_than_cold() {
        let hot = GrowthRecipe::thermal(Catalyst::Cobalt, Temperature::from_celsius(550.0))
            .simulate()
            .unwrap();
        let cold = GrowthRecipe::thermal(Catalyst::Cobalt, Temperature::from_celsius(350.0))
            .simulate()
            .unwrap();
        let mfp_hot = mfp_from_growth(&hot, 1).unwrap();
        let mfp_cold = mfp_from_growth(&cold, 1).unwrap();
        assert!(
            mfp_hot > mfp_cold,
            "hot {} nm vs cold {} nm",
            mfp_hot.nanometers(),
            mfp_cold.nanometers()
        );
        assert!(disorder_from_growth(&cold) > disorder_from_growth(&hot));
    }

    #[test]
    fn mfp_is_capped_at_clean_limit() {
        let perfect =
            GrowthRecipe::thermal(Catalyst::Cobalt, Catalyst::Cobalt.optimal_temperature())
                .simulate()
                .unwrap();
        let mfp = mfp_from_growth(&perfect, 2).unwrap();
        assert!(mfp.micrometers() <= 1.0 + 1e-12);
        assert!(mfp.nanometers() > 50.0);
    }

    #[test]
    fn doped_semiconductor_calibration() {
        // A semiconducting tube turned on by doping (the §II.A variability
        // story at the atomistic level).
        let semi = Chirality::new(13, 0).unwrap();
        let pristine = channels_pristine(semi, t300());
        let doped = channels_doped(semi, DopingSpec::iodine_internal(), t300()).unwrap();
        assert!(pristine < 0.1);
        assert!(doped > 2.0);
    }
}
