//! Monte-Carlo variability of single-CNT interconnects.
//!
//! Section II.A of the paper: CVD-grown tubes suffer from (i) the 2/3
//! semiconducting-chirality lottery, (ii) growth defects, and (iii)
//! variable contacts — "These problems lead to the variation of resistance
//! in the CNT interconnect device. One way to overcome the variability of
//! resistance is by doping." This module samples exactly that story and
//! quantifies how much doping tightens the resistance distribution.

use crate::{Error, Result};
use cnt_sweep::{Axis, Executor, SweepPlan};
use cnt_units::consts::{G0_SIEMENS, MFP_DIAMETER_RATIO};
use cnt_units::math;
use cnt_units::rand_ext;
use cnt_units::si::Length;
use rand::rngs::StdRng;
use rand::Rng;

/// Statistical description of the as-grown tube population and contacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePopulation {
    /// Mean tube diameter.
    pub diameter_mean: Length,
    /// Diameter sigma (lognormal-ish handled as truncated normal).
    pub diameter_sigma: Length,
    /// Interconnect length.
    pub length: Length,
    /// Median single-contact resistance, ohms.
    pub contact_median: f64,
    /// Lognormal shape of the contact resistance.
    pub contact_sigma: f64,
    /// Fraction of metallic chiralities (1/3 for random CVD growth).
    pub metallic_fraction: f64,
    /// Mean-free-path multiplier for defectivity (1 = pristine λ ≈ 1000·d).
    pub defect_mfp_factor: f64,
}

impl DevicePopulation {
    /// The paper's single-MWCNT via device: d ≈ 7.5 nm ± 1 nm, 1 µm line,
    /// Pd/Au side contacts with ~20 kΩ median per contact.
    pub fn mwcnt_via_default() -> Self {
        Self {
            diameter_mean: Length::from_nanometers(7.5),
            diameter_sigma: Length::from_nanometers(1.0),
            length: Length::from_micrometers(1.0),
            contact_median: 20e3,
            contact_sigma: 0.35,
            metallic_fraction: 1.0 / 3.0,
            defect_mfp_factor: 1.0,
        }
    }

    /// Validates the population parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let checks: [(&'static str, f64, bool); 6] = [
            (
                "diameter_mean",
                self.diameter_mean.meters(),
                self.diameter_mean.meters() > 0.0,
            ),
            (
                "diameter_sigma",
                self.diameter_sigma.meters(),
                self.diameter_sigma.meters() >= 0.0,
            ),
            ("length", self.length.meters(), self.length.meters() > 0.0),
            (
                "contact_median",
                self.contact_median,
                self.contact_median >= 0.0,
            ),
            (
                "metallic_fraction",
                self.metallic_fraction,
                (0.0..=1.0).contains(&self.metallic_fraction),
            ),
            (
                "defect_mfp_factor",
                self.defect_mfp_factor,
                self.defect_mfp_factor > 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// Doping state for the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DopingState {
    /// As grown: semiconducting tubes barely conduct.
    Pristine,
    /// Charge-transfer doped with the given extra channels per metallic
    /// shell; semiconducting tubes are turned on (the paper's variability
    /// fix).
    Doped {
        /// Conducting channels per shell after doping (≥ 2).
        channels_per_shell: usize,
    },
}

/// One sampled device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledDevice {
    /// Tube diameter.
    pub diameter: Length,
    /// Whether the chirality lottery produced a metallic tube.
    pub metallic: bool,
    /// Total two-terminal resistance, ohms.
    pub resistance: f64,
}

/// Resistance-distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistanceStats {
    /// Median resistance, ohms.
    pub median: f64,
    /// Mean resistance, ohms.
    pub mean: f64,
    /// Sample standard deviation, ohms.
    pub std_dev: f64,
    /// Coefficient of variation σ/µ.
    pub cv: f64,
    /// Fraction of devices above 10× the median ("open-ish" fails).
    pub tail_fraction: f64,
}

/// Samples one device on the caller's generator.
///
/// Resistance model (matching the compact models of `cnt-interconnect`):
/// shells from `d` down to `d/2` at 0.34 nm spacing, per-shell channels
/// (pristine: 2 if metallic else ~0.01 thermal leakage; doped:
/// `channels_per_shell` for every tube), per-shell conductance
/// `G0·Nc/(1 + L/λ)` with `λ = 1000·d·defect_factor`, plus two lognormal
/// contacts.
///
/// The population is **not** re-validated here — this is the per-job
/// kernel of the `cnt-sweep` Monte-Carlo paths; validate once up front
/// via [`DevicePopulation::validate`].
pub fn sample_one_device(
    population: &DevicePopulation,
    doping: DopingState,
    rng: &mut StdRng,
) -> SampledDevice {
    let d_nm = rand_ext::truncated_normal(
        rng,
        population.diameter_mean.nanometers(),
        population.diameter_sigma.nanometers(),
        1.0,
        4.0 * population.diameter_mean.nanometers(),
    );
    let metallic = rng.gen::<f64>() < population.metallic_fraction;
    // Shell stack: d down to d/2 in 2×0.34 nm diameter steps.
    let shells = (1 + ((d_nm / 2.0) / (2.0 * 0.34)).floor() as usize).max(1);
    let mfp_nm = MFP_DIAMETER_RATIO * d_nm * population.defect_mfp_factor;
    let l_nm = population.length.nanometers();
    let per_shell_channels: f64 = match doping {
        DopingState::Pristine => {
            if metallic {
                2.0
            } else {
                0.01 // deep-subthreshold leakage of semiconducting shells
            }
        }
        DopingState::Doped { channels_per_shell } => channels_per_shell as f64,
    };
    let g_tube: f64 = shells as f64 * per_shell_channels * G0_SIEMENS / (1.0 + l_nm / mfp_nm);
    let r_tube = 1.0 / g_tube;
    let contacts = rand_ext::lognormal(
        rng,
        population.contact_median.ln(),
        population.contact_sigma,
    ) + rand_ext::lognormal(
        rng,
        population.contact_median.ln(),
        population.contact_sigma,
    );
    SampledDevice {
        diameter: Length::from_nanometers(d_nm),
        metallic,
        resistance: r_tube + contacts,
    }
}

/// Samples `n` devices from the population in the given doping state.
///
/// Runs on the `cnt-sweep` work-stealing pool at its default width (all
/// cores): every device derives its own random stream from `(seed,
/// device index)`, so the returned vector is **bit-identical for any
/// thread count**.
///
/// # Errors
///
/// Propagates validation errors and rejects `n == 0`.
pub fn sample_devices(
    population: &DevicePopulation,
    doping: DopingState,
    n: usize,
    seed: u64,
) -> Result<Vec<SampledDevice>> {
    population.validate()?;
    if n == 0 {
        return Err(Error::EmptyRequest("device samples"));
    }
    let plan = SweepPlan::new("process.variability.devices").axis(Axis::trials(n));
    Executor::new(0)
        .run(&plan, seed, |_, rng| {
            Ok::<_, Error>(sample_one_device(population, doping, rng))
        })
        .map_err(|e| match e {
            cnt_sweep::Error::EmptyPlan => Error::EmptyRequest("device samples"),
            // The kernel is infallible and the guards above exclude every
            // structural failure; surface anything new loudly instead of
            // mislabeling it.
            other => unreachable!("infallible device kernel failed: {other}"),
        })
}

/// Summarizes a device sample.
///
/// # Errors
///
/// Returns [`Error::EmptyRequest`] for fewer than 2 devices.
pub fn resistance_stats(devices: &[SampledDevice]) -> Result<ResistanceStats> {
    if devices.len() < 2 {
        return Err(Error::EmptyRequest("resistance stats need ≥ 2 devices"));
    }
    let rs: Vec<f64> = devices.iter().map(|d| d.resistance).collect();
    let median = math::median(&rs).expect("non-empty");
    let mean = math::mean(&rs).expect("non-empty");
    let std_dev = math::std_dev(&rs).expect("≥ 2");
    let tail = rs.iter().filter(|&&r| r > 10.0 * median).count() as f64 / rs.len() as f64;
    Ok(ResistanceStats {
        median,
        mean,
        std_dev,
        cv: std_dev / mean,
        tail_fraction: tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> DevicePopulation {
        DevicePopulation::mwcnt_via_default()
    }

    #[test]
    fn doping_cuts_variability_headline() {
        // The Section II.A claim this module exists for.
        let pristine = sample_devices(&pop(), DopingState::Pristine, 3000, 11).unwrap();
        let doped = sample_devices(
            &pop(),
            DopingState::Doped {
                channels_per_shell: 6,
            },
            3000,
            11,
        )
        .unwrap();
        let sp = resistance_stats(&pristine).unwrap();
        let sd = resistance_stats(&doped).unwrap();
        assert!(
            sd.cv < 0.6 * sp.cv,
            "doped CV {} should be well below pristine CV {}",
            sd.cv,
            sp.cv
        );
        assert!(sd.median < sp.median, "doping lowers the median too");
        assert!(sd.tail_fraction <= sp.tail_fraction);
    }

    #[test]
    fn pristine_distribution_is_bimodal_by_chirality() {
        let devices = sample_devices(&pop(), DopingState::Pristine, 2000, 5).unwrap();
        let (met, semi): (Vec<&SampledDevice>, Vec<&SampledDevice>) =
            devices.iter().partition(|d| d.metallic);
        let m_med = math::median(&met.iter().map(|d| d.resistance).collect::<Vec<f64>>()).unwrap();
        let s_med = math::median(&semi.iter().map(|d| d.resistance).collect::<Vec<f64>>()).unwrap();
        assert!(
            s_med > 5.0 * m_med,
            "semiconducting median {s_med} ≫ metallic median {m_med}"
        );
        // Roughly a third metallic.
        let frac = met.len() as f64 / devices.len() as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.05, "metallic fraction {frac}");
    }

    #[test]
    fn defects_raise_resistance() {
        let mut defective = pop();
        defective.defect_mfp_factor = 0.1; // low-temperature CVD quality
        let clean =
            resistance_stats(&sample_devices(&pop(), DopingState::Pristine, 1500, 3).unwrap())
                .unwrap();
        let dirty =
            resistance_stats(&sample_devices(&defective, DopingState::Pristine, 1500, 3).unwrap())
                .unwrap();
        assert!(dirty.median > clean.median);
    }

    #[test]
    fn longer_lines_have_higher_resistance() {
        let mut long = pop();
        long.length = Length::from_micrometers(10.0);
        let short_stats =
            resistance_stats(&sample_devices(&pop(), DopingState::Pristine, 1000, 8).unwrap())
                .unwrap();
        let long_stats =
            resistance_stats(&sample_devices(&long, DopingState::Pristine, 1000, 8).unwrap())
                .unwrap();
        assert!(long_stats.median > short_stats.median);
    }

    #[test]
    fn validation_and_degenerate_requests() {
        let mut bad = pop();
        bad.metallic_fraction = 1.5;
        assert!(bad.validate().is_err());
        assert!(sample_devices(&bad, DopingState::Pristine, 10, 1).is_err());
        assert!(sample_devices(&pop(), DopingState::Pristine, 0, 1).is_err());
        assert!(resistance_stats(&[]).is_err());
    }

    #[test]
    fn reproducible_given_seed() {
        let a = sample_devices(&pop(), DopingState::Pristine, 50, 77).unwrap();
        let b = sample_devices(&pop(), DopingState::Pristine, 50, 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_invisible_in_results() {
        // Per-device seed streams make the sample a function of the seed
        // alone; `cnt_sweep::exec`'s `thread_count_does_not_change_results`
        // checks that the executor's width never changes a result.
        let a = sample_devices(&pop(), DopingState::Pristine, 300, 5).unwrap();
        let b = sample_devices(&pop(), DopingState::Pristine, 300, 5).unwrap();
        assert_eq!(a, b);
        let other_seed = sample_devices(&pop(), DopingState::Pristine, 300, 6).unwrap();
        assert_ne!(a, other_seed);
    }
}
