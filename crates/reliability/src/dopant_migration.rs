//! Dopant migration under electrical stress — the in-situ-TEM experiment
//! of the paper, virtualized.
//!
//! Section II.A: "As shown from the simulations, internal doping of CNT is
//! more stable than external doping." Section IV.B plans "TEM measurements
//! of operating CNT interconnects in situ, to study dopant migration and
//! CNT degradation at high current densities." Fig. 3 is the STEM image of
//! Pt dopants *inside* an opened tube.
//!
//! Model: dopants perform a biased 1-D random walk along the tube. Hop
//! attempts occur at `ν = ν0·exp(−E_b/kT)`; the electron-wind force tilts
//! the hop probability in proportion to the current density. Dopants that
//! reach an open tube end escape. Internal dopants sit in deeper binding
//! wells than external adsorbates, hence their stability.

use crate::{Error, Result};
use cnt_units::consts::K_B_EV;
use cnt_units::rand_ext;
use cnt_units::si::{CurrentDensity, Length, Temperature, Time};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Where the dopant sits relative to the tube wall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DopantSite {
    /// Confined inside the tube (Fig. 3): deep binding well.
    Internal,
    /// Adsorbed on the outer wall: shallow well, easily stripped.
    External,
}

impl DopantSite {
    /// Binding (hop-barrier) energy, eV. At 105 °C these give hop rates of
    /// ~5×10⁻⁵ /s (internal — essentially frozen over a 1000 h stress) and
    /// ~50 /s (external — mobile), which is what makes internal doping the
    /// stable variant.
    fn binding_energy_ev(self) -> f64 {
        match self {
            DopantSite::Internal => 1.3,
            DopantSite::External => 0.85,
        }
    }
}

/// Parameters of a dopant-stability stress test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressTest {
    /// Tube length.
    pub tube_length: Length,
    /// Number of dopants at t = 0 (uniformly distributed).
    pub dopant_count: usize,
    /// Dopant site type.
    pub site: DopantSite,
    /// Operating temperature.
    pub temperature: Temperature,
    /// Drive current density (wind force source).
    pub current_density: CurrentDensity,
    /// Stress duration.
    pub duration: Time,
}

impl StressTest {
    /// Validates the test parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the offending field.
    fn validate(&self) -> Result<()> {
        if self.tube_length.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "tube_length",
                value: self.tube_length.meters(),
            });
        }
        if self.dopant_count == 0 {
            return Err(Error::InvalidParameter {
                name: "dopant_count",
                value: 0.0,
            });
        }
        if self.duration.seconds() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "duration",
                value: self.duration.seconds(),
            });
        }
        Ok(())
    }
}

/// Outcome of a stress test.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionResult {
    /// Fraction of dopants still inside the tube after the stress.
    pub retention: f64,
    /// Mean net displacement of surviving dopants towards the anode,
    /// metres (positive = wind direction).
    pub mean_drift: f64,
    /// Final dopant positions (metres along the tube) of survivors.
    pub final_positions: Vec<f64>,
}

/// Attempt frequency of the hop process, 1/s.
const NU_0: f64 = 1.0e13;

/// Hop distance (one lattice site), metres.
const HOP: f64 = 0.3e-9;

/// Wind-force tilt per unit current density, dimensionless per (A/m²).
/// Calibrated so 10⁸ A/cm² ≈ 10¹² A/m² gives a strong (0.3) bias.
const WIND_TILT: f64 = 3.0e-13;

/// Runs the biased-random-walk stress test.
///
/// The walk is integrated with an adaptive macro-step: each dopant makes
/// `ν·Δt` attempted hops per step (capped), with forward probability
/// `0.5·(1 + tilt)`. Escape happens at either open end.
///
/// # Errors
///
/// Propagates validation errors.
pub fn run_stress_test(test: &StressTest, seed: u64) -> Result<RetentionResult> {
    test.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let l = test.tube_length.meters();
    let nu = NU_0 * (-test.site.binding_energy_ev() / (K_B_EV * test.temperature.kelvin())).exp();
    let total_hops = (nu * test.duration.seconds()).min(2.0e5);
    let tilt = (WIND_TILT * test.current_density.amps_per_square_meter()).clamp(0.0, 0.9);
    let p_forward = 0.5 * (1.0 + tilt);

    let mut survivors = Vec::new();
    let mut drift_sum = 0.0;
    let n_hops = total_hops.round() as u64;
    for _ in 0..test.dopant_count {
        let start = rng.gen::<f64>() * l;
        let mut x = start;
        let mut alive = true;
        if n_hops > 2000 {
            // Diffusion-limit shortcut: net displacement is Gaussian with
            // mean n·(2p−1)·a and variance ≈ n·a² — then check escape via
            // the first-passage approximation of the biased walk.
            let n = n_hops as f64;
            let mean = n * (2.0 * p_forward - 1.0) * HOP;
            let sigma = n.sqrt() * HOP;
            let disp = rand_ext::normal(&mut rng, mean, sigma);
            x = start + disp;
            // Excursion beyond either end at any time ⇒ escaped. Approximate
            // with the reflection principle on the dominant (forward) side.
            let max_excursion = x.max(start) + 0.5 * sigma;
            if max_excursion >= l || x <= 0.0 || x >= l {
                alive = false;
            }
        } else {
            for _ in 0..n_hops {
                let step = if rng.gen::<f64>() < p_forward {
                    HOP
                } else {
                    -HOP
                };
                x += step;
                if x <= 0.0 || x >= l {
                    alive = false;
                    break;
                }
            }
        }
        if alive {
            drift_sum += x - start;
            survivors.push(x);
        }
    }
    let retention = survivors.len() as f64 / test.dopant_count as f64;
    let mean_drift = if survivors.is_empty() {
        0.0
    } else {
        drift_sum / survivors.len() as f64
    };
    Ok(RetentionResult {
        retention,
        mean_drift,
        final_positions: survivors,
    })
}

/// Radial dopant distribution after an insertion process — the synthetic
/// Fig. 3 STEM histogram. Internal doping concentrates Pt/Cl inside the
/// tube radius; external doping decorates the outer wall.
///
/// Returns `(bin_centers_nm, counts)` over `[0, 2·r_tube]`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for non-positive radius or zero
/// dopants/bins.
pub fn stem_radial_histogram(
    tube_radius: Length,
    site: DopantSite,
    dopants: usize,
    bins: usize,
    seed: u64,
) -> Result<(Vec<f64>, Vec<usize>)> {
    if tube_radius.meters() <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "tube_radius",
            value: tube_radius.meters(),
        });
    }
    if dopants == 0 || bins == 0 {
        return Err(Error::EmptyRequest("dopants/bins"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let r = tube_radius.nanometers();
    let r_max = 2.0 * r;
    let mut counts = vec![0usize; bins];
    for _ in 0..dopants {
        let radial = match site {
            // Pt/Cl network fills the hollow core: |N(0, r/3)| truncated.
            DopantSite::Internal => {
                rand_ext::truncated_normal(&mut rng, 0.0, r / 3.0, -0.95 * r, 0.95 * r).abs()
            }
            // Adsorbates sit in the van der Waals shell just outside the wall.
            DopantSite::External => {
                rand_ext::truncated_normal(&mut rng, r + 0.34, 0.1, r + 0.05, r_max - 1e-9)
            }
        };
        let bin = ((radial / r_max) * bins as f64).floor() as usize;
        counts[bin.min(bins - 1)] += 1;
    }
    let centers = (0..bins)
        .map(|b| (b as f64 + 0.5) * r_max / bins as f64)
        .collect();
    Ok((centers, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_test(site: DopantSite) -> StressTest {
        StressTest {
            tube_length: Length::from_micrometers(1.0),
            dopant_count: 800,
            site,
            temperature: Temperature::from_celsius(105.0),
            current_density: CurrentDensity::from_amps_per_square_centimeter(5.0e7),
            duration: Time::from_hours(1000.0),
        }
    }

    #[test]
    fn internal_doping_is_more_stable_headline() {
        // The Section II.A claim.
        let internal = run_stress_test(&base_test(DopantSite::Internal), 1).unwrap();
        let external = run_stress_test(&base_test(DopantSite::External), 1).unwrap();
        assert!(
            internal.retention > external.retention + 0.2,
            "internal {} vs external {}",
            internal.retention,
            external.retention
        );
        assert!(internal.retention > 0.9);
    }

    #[test]
    fn higher_temperature_accelerates_loss() {
        let mut hot = base_test(DopantSite::External);
        hot.temperature = Temperature::from_celsius(250.0);
        let cold = run_stress_test(&base_test(DopantSite::External), 2).unwrap();
        let heated = run_stress_test(&hot, 2).unwrap();
        assert!(heated.retention <= cold.retention);
    }

    #[test]
    fn wind_pushes_survivors_forward() {
        let mut strong = base_test(DopantSite::External);
        strong.current_density = CurrentDensity::from_amps_per_square_centimeter(1.0e8);
        strong.duration = Time::from_seconds(1.0);
        let res = run_stress_test(&strong, 3).unwrap();
        if !res.final_positions.is_empty() {
            assert!(res.mean_drift >= 0.0, "drift {}", res.mean_drift);
        }
    }

    #[test]
    fn zero_current_preserves_more_than_stress() {
        let mut idle = base_test(DopantSite::External);
        idle.current_density = CurrentDensity::from_amps_per_square_meter(0.0);
        let stressed = run_stress_test(&base_test(DopantSite::External), 4).unwrap();
        let unstressed = run_stress_test(&idle, 4).unwrap();
        assert!(unstressed.retention >= stressed.retention);
    }

    #[test]
    fn stem_histogram_separates_internal_and_external() {
        let r = Length::from_nanometers(3.75); // the paper's d ≈ 7.5 nm tube
        let (centers, inside) =
            stem_radial_histogram(r, DopantSite::Internal, 5000, 30, 9).unwrap();
        let (_, outside) = stem_radial_histogram(r, DopantSite::External, 5000, 30, 9).unwrap();
        let r_nm = r.nanometers();
        let mass_inside = |counts: &[usize]| -> f64 {
            centers
                .iter()
                .zip(counts)
                .filter(|(c, _)| **c < r_nm)
                .map(|(_, n)| *n as f64)
                .sum::<f64>()
                / counts.iter().sum::<usize>() as f64
        };
        assert!(
            mass_inside(&inside) > 0.95,
            "internal mass {}",
            mass_inside(&inside)
        );
        assert!(
            mass_inside(&outside) < 0.05,
            "external mass {}",
            mass_inside(&outside)
        );
    }

    #[test]
    fn validation() {
        let mut bad = base_test(DopantSite::Internal);
        bad.dopant_count = 0;
        assert!(run_stress_test(&bad, 1).is_err());
        assert!(stem_radial_histogram(Length::ZERO, DopantSite::Internal, 10, 5, 1).is_err());
        assert!(
            stem_radial_histogram(Length::from_nanometers(3.0), DopantSite::Internal, 0, 5, 1)
                .is_err()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_stress_test(&base_test(DopantSite::Internal), 42).unwrap();
        let b = run_stress_test(&base_test(DopantSite::Internal), 42).unwrap();
        assert_eq!(a, b);
    }
}
