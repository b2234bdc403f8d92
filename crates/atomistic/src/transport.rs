//! Ballistic Landauer transport: mode counting and finite-temperature
//! conductance (paper Fig. 8a and Eq. 1).
//!
//! The paper extracts the number of conducting channels as
//! `Nc = G_bal / G0` (Eq. 1) with `G0 = 0.077 mS`. At finite temperature
//! the ballistic conductance is the Landauer integral
//!
//! ```text
//! G = G0 · ∫ M(E) · (−∂f/∂E) dE
//! ```
//!
//! where `M(E)` is the number of modes from the zone-folded band structure.
//!
//! # Only the subbands the window can reach
//!
//! The integral runs over `E_F ± 12 kT`, so it counts modes only up to the
//! window's top level: `max(12·k_B·T, 1 µeV)` at `E_F = 0`, and the 1 µeV
//! nudge at `T ≤ 0`. [`ballistic_conductance`] (and with it
//! [`conducting_channels`], [`conductance_point`],
//! [`conductance_vs_diameter`] and [`conductance_per_area`]) therefore
//! builds only the subbands that the Lipschitz bound in [`crate::bands`]
//! (every 16th grid point, a 1e-9 eV margin) cannot prove to lie above that
//! level. The others cross no level of the integral, so the conductance
//! keeps its bits: at 300 K, 53 of Fig. 8a's 916 subbands are built. The
//! windowed structure is built and dropped inside [`ballistic_conductance`].
//! [`conductance_at_temperature`] and [`conductance_at_energy`] take the
//! caller's structure, and [`BandStructure::compute`] always builds every
//! subband.

use crate::bands::{folded_level, BandStructure};
use crate::chirality::Chirality;
use crate::{Error, Result};
use cnt_units::consts::{G0_SIEMENS, K_B_EV};
use cnt_units::math::{fermi_dirac_neg_derivative, integrate_simpson_batch};
use cnt_units::si::{Conductance, Temperature};

/// Default longitudinal grid used when a band structure is computed
/// on demand.
pub const DEFAULT_NK: usize = 1201;

/// Zero-temperature conductance at Fermi energy `e_f_ev`:
/// `G = G0 · M(E_F)`.
pub fn conductance_at_energy(bands: &BandStructure, e_f_ev: f64) -> Conductance {
    Conductance::from_siemens(G0_SIEMENS * bands.mode_count(e_f_ev) as f64)
}

/// Finite-temperature ballistic conductance at Fermi level `e_f_ev`
/// (relative to the charge-neutrality point): [`landauer_conductance`]
/// with the tube's batched mode counts as `T(E)`.
pub fn conductance_at_temperature(
    bands: &BandStructure,
    e_f_ev: f64,
    temperature: Temperature,
) -> Conductance {
    landauer_conductance(e_f_ev, temperature, |energies| {
        bands.transmission_grid(energies)
    })
}

/// The finite-temperature Landauer integral `G = G0 · ∫ T(E)·(−∂f/∂E) dE`
/// at Fermi level `e_f_ev`, where `transmission` returns `T(E)` at a
/// batch of energies.
///
/// Integrates over `E_F ± 12 kT` with 600-interval Simpson quadrature;
/// the window captures > 1 − 10⁻⁵ of the thermal kernel. All 601 nodes
/// go to `transmission` in one call, so a batched mode count serves the
/// whole integral. At `T ≤ 0` the kernel is a delta: `G = G0 · T(E_F)`.
pub fn landauer_conductance(
    e_f_ev: f64,
    temperature: Temperature,
    transmission: impl FnOnce(&[f64]) -> Vec<f64>,
) -> Conductance {
    let _span = cnt_obs::span!("atomistic.landauer");
    let Some((lo, hi)) = landauer_window(e_f_ev, temperature) else {
        return Conductance::from_siemens(G0_SIEMENS * transmission(&[e_f_ev])[0]);
    };
    let t = temperature.kelvin();
    // Enough points that the step edges of M(E) are resolved well below kT.
    let n = 600;
    let g = integrate_simpson_batch(
        |energies| {
            transmission(energies)
                .into_iter()
                .zip(energies)
                .map(|(modes, &e)| modes * fermi_dirac_neg_derivative(e - e_f_ev, t))
                .collect()
        },
        lo,
        hi,
        n,
    );
    Conductance::from_siemens(G0_SIEMENS * g)
}

/// The Landauer integration interval `E_F ± 12 kT` in eV, or `None` at
/// `T ≤ 0`, where the thermal kernel is a delta at `E_F`. The one
/// definition of the window: [`landauer_conductance`] integrates over it
/// and [`ballistic_conductance`] cuts its subbands at its top level.
fn landauer_window(e_f_ev: f64, temperature: Temperature) -> Option<(f64, f64)> {
    let t = temperature.kelvin();
    if t <= 0.0 {
        return None;
    }
    let half_window = 12.0 * (K_B_EV * t);
    Some((e_f_ev - half_window, e_f_ev + half_window))
}

/// The highest level the Landauer integral at `e_f_ev` hands to a mode
/// count: every Simpson node lies between the window's edges, so it is
/// the edge farthest from zero, folded as [`BandStructure::mode_counts`]
/// folds every level.
fn landauer_top_level(e_f_ev: f64, temperature: Temperature) -> f64 {
    match landauer_window(e_f_ev, temperature) {
        Some((lo, hi)) => folded_level(lo).max(folded_level(hi)),
        None => folded_level(e_f_ev),
    }
}

/// Ballistic conductance of a pristine tube at its charge-neutral Fermi
/// level — the quantity plotted against diameter in the paper's Fig. 8a.
/// Builds only the subbands that can reach the Landauer window (see the
/// module docs); the result has the same bits as the integral over every
/// subband.
///
/// ```
/// use cnt_atomistic::chirality::Chirality;
/// use cnt_atomistic::transport::ballistic_conductance;
/// use cnt_units::si::Temperature;
///
/// let g = ballistic_conductance(Chirality::new(9, 0)?, Temperature::from_kelvin(300.0));
/// assert!((g.millisiemens() - 0.155).abs() < 0.01); // metallic zigzag
/// # Ok::<(), cnt_atomistic::Error>(())
/// ```
pub fn ballistic_conductance(chirality: Chirality, temperature: Temperature) -> Conductance {
    let cutoff = landauer_top_level(0.0, temperature);
    let bands = BandStructure::compute_below(chirality, DEFAULT_NK, cutoff)
        .expect("DEFAULT_NK satisfies the minimum grid size");
    conductance_at_temperature(&bands, 0.0, temperature)
}

/// Number of conducting channels `Nc = G/G0` (paper Eq. 1).
pub fn conducting_channels(chirality: Chirality, temperature: Temperature) -> f64 {
    ballistic_conductance(chirality, temperature).siemens() / G0_SIEMENS
}

/// One row of the Fig. 8a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ConductancePoint {
    /// The tube.
    pub chirality: Chirality,
    /// Tube diameter in nanometres.
    pub diameter_nm: f64,
    /// Ballistic conductance in millisiemens.
    pub conductance_ms: f64,
    /// Channels `Nc = G/G0`.
    pub channels: f64,
    /// Whether the tube is metallic by the `(n − m) mod 3` rule.
    pub metallic: bool,
}

/// One tube's Fig. 8a row: band structure, finite-temperature Landauer
/// integral, and the diameter/metallicity labels. The per-tube kernel of
/// [`conductance_vs_diameter`], exposed so sweeps can evaluate tubes
/// independently (e.g. on the `cnt-sweep` pool).
pub fn conductance_point(chirality: Chirality, temperature: Temperature) -> ConductancePoint {
    let g = ballistic_conductance(chirality, temperature);
    ConductancePoint {
        chirality,
        diameter_nm: chirality.diameter().nanometers(),
        conductance_ms: g.millisiemens(),
        channels: g.siemens() / G0_SIEMENS,
        metallic: chirality.is_metallic(),
    }
}

/// Sorts Fig. 8a rows by diameter (stable, so equal-diameter tubes keep
/// their input order) — the presentation order of the paper's plot.
pub fn sort_by_diameter(points: &mut [ConductancePoint]) {
    points.sort_by(|a, b| {
        a.diameter_nm
            .partial_cmp(&b.diameter_nm)
            .expect("finite diameters")
    });
}

/// Sweeps ballistic conductance versus diameter for a set of tubes
/// (the paper's Fig. 8a uses the zigzag and armchair series).
///
/// # Errors
///
/// Returns [`Error::TooFewSamples`] if `tubes` is empty.
pub fn conductance_vs_diameter(
    tubes: &[Chirality],
    temperature: Temperature,
) -> Result<Vec<ConductancePoint>> {
    if tubes.is_empty() {
        return Err(Error::TooFewSamples { got: 0, min: 1 });
    }
    let mut out: Vec<ConductancePoint> = tubes
        .iter()
        .map(|&c| conductance_point(c, temperature))
        .collect();
    sort_by_diameter(&mut out);
    Ok(out)
}

/// Conductance per unit cross-sectional area, S/m² — the paper notes that
/// "the conductance of CNTs per unit area decreases as the diameter
/// increases" because `Nc` stays ≈ 2 while the footprint grows as `d²`.
pub fn conductance_per_area(chirality: Chirality, temperature: Temperature) -> f64 {
    let g = ballistic_conductance(chirality, temperature).siemens();
    let d = chirality.diameter().meters();
    let area = core::f64::consts::PI * d * d / 4.0;
    g / area
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bands::tests::{fig08a_tubes, per_energy_mode_count};
    use crate::bands::Subband;

    fn t300() -> Temperature {
        Temperature::from_kelvin(300.0)
    }

    /// The Landauer integral as it ran before [`landauer_conductance`]:
    /// one `modes(E)` call per Simpson node, summed in the same order.
    /// The bit-exact reference for the batched helper.
    pub(crate) fn per_energy_landauer(
        modes: impl Fn(f64) -> usize,
        e_f_ev: f64,
        temperature: Temperature,
    ) -> Conductance {
        let t = temperature.kelvin();
        if t <= 0.0 {
            return Conductance::from_siemens(G0_SIEMENS * modes(e_f_ev) as f64);
        }
        let half_window = 12.0 * K_B_EV * t;
        let (a, b, n) = (e_f_ev - half_window, e_f_ev + half_window, 600);
        let f = |e: f64| modes(e) as f64 * fermi_dirac_neg_derivative(e - e_f_ev, t);
        let h = (b - a) / n as f64;
        let mut acc = f(a) + f(b);
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            acc += w * f(a + i as f64 * h);
        }
        Conductance::from_siemens(G0_SIEMENS * (acc * h / 3.0))
    }

    #[test]
    fn batched_landauer_matches_per_energy_integral_bit_for_bit() {
        // Every Fig. 8a tube, at both ends and the middle of the temp_k range.
        for tube in fig08a_tubes() {
            let bands = BandStructure::compute(tube, DEFAULT_NK).unwrap();
            for kelvin in [50.0, 300.0, 600.0] {
                let temp = Temperature::from_kelvin(kelvin);
                let want = per_energy_landauer(|e| per_energy_mode_count(&bands, e), 0.0, temp);
                let got = conductance_at_temperature(&bands, 0.0, temp);
                assert_eq!(
                    got.siemens().to_bits(),
                    want.siemens().to_bits(),
                    "{tube:?} at {kelvin} K"
                );
            }
        }
    }

    /// The Simpson nodes the Landauer integral at `E_F = 0` hands to its
    /// transmission.
    fn landauer_nodes(temperature: Temperature) -> Vec<f64> {
        let mut nodes = Vec::new();
        landauer_conductance(0.0, temperature, |energies| {
            nodes = energies.to_vec();
            vec![0.0; energies.len()]
        });
        nodes
    }

    #[test]
    fn windowed_bands_count_and_conduct_like_full_bands_bit_for_bit() {
        for tube in fig08a_tubes() {
            let full = BandStructure::compute(tube, DEFAULT_NK).unwrap();
            for kelvin in [0.0, 50.0, 77.0, 123.4, 300.0, 451.7, 600.0] {
                let temp = Temperature::from_kelvin(kelvin);
                let at = format!("{tube:?} at {kelvin} K");
                assert_eq!(
                    ballistic_conductance(tube, temp).siemens().to_bits(),
                    conductance_at_temperature(&full, 0.0, temp)
                        .siemens()
                        .to_bits(),
                    "{at}"
                );
                let top = landauer_top_level(0.0, temp);
                let windowed = BandStructure::compute_below(tube, DEFAULT_NK, top).unwrap();
                let nodes = landauer_nodes(temp);
                assert_eq!(nodes.len(), if kelvin > 0.0 { 601 } else { 1 }, "{at}");
                assert_eq!(
                    windowed.mode_counts(&nodes),
                    full.mode_counts(&nodes),
                    "{at}"
                );
                // The window's edges, and every kept subband edge a level
                // of the window can sit on (a higher one is refused).
                let mut levels = vec![top, -top];
                levels.extend(
                    windowed
                        .subbands()
                        .iter()
                        .map(Subband::min_energy_ev)
                        .filter(|&e| e <= top),
                );
                for e in levels {
                    assert_eq!(windowed.mode_count(e), full.mode_count(e), "{at}, E = {e}");
                }
            }
        }
    }

    #[test]
    fn the_300_k_window_builds_at_most_a_tenth_of_the_fig08a_subbands() {
        let top = landauer_top_level(0.0, t300());
        let (mut built, mut all) = (0, 0);
        for tube in fig08a_tubes() {
            built += BandStructure::compute_below(tube, DEFAULT_NK, top)
                .unwrap()
                .subbands()
                .len();
            all += tube.hexagon_count() as usize;
        }
        assert_eq!(all, 916);
        assert!(built * 10 <= all, "{built} of {all} subbands built");
    }

    #[test]
    fn metallic_tubes_have_two_channels_regardless_of_diameter() {
        // The central observation of Fig. 8a.
        for &(n, m) in &[(5, 5), (7, 7), (10, 10), (9, 0), (12, 0), (15, 0), (18, 0)] {
            let c = Chirality::new(n, m).unwrap();
            let nc = conducting_channels(c, t300());
            assert!(
                (nc - 2.0).abs() < 0.1,
                "({n},{m}) expected ≈2 channels, got {nc}"
            );
        }
    }

    #[test]
    fn pristine_conductance_matches_paper_anchor() {
        // 0.155 mS for the pristine metallic tube (Fig. 8c).
        let g = ballistic_conductance(Chirality::new(7, 7).unwrap(), t300());
        assert!(
            (g.millisiemens() - 0.155).abs() < 0.005,
            "{}",
            g.millisiemens()
        );
    }

    #[test]
    fn large_gap_semiconductors_conduct_nothing_at_room_temperature() {
        let g = ballistic_conductance(Chirality::new(13, 0).unwrap(), t300());
        assert!(g.millisiemens() < 1e-3, "{}", g.millisiemens());
    }

    #[test]
    fn small_gap_semiconductors_show_thermal_activation() {
        // Quantum-confinement variation at small diameter (Fig. 8a): a tiny
        // tube has a huge gap, a wide semiconducting tube conducts slightly
        // more at 300 K.
        let tiny = ballistic_conductance(Chirality::new(7, 0).unwrap(), t300());
        let wide = ballistic_conductance(Chirality::new(29, 0).unwrap(), t300());
        assert!(wide.siemens() > tiny.siemens());
    }

    #[test]
    fn zero_temperature_limit_is_step_function() {
        let bands = BandStructure::compute(Chirality::new(7, 7).unwrap(), 1201).unwrap();
        let g = conductance_at_temperature(&bands, 0.0, Temperature::from_kelvin(0.0));
        assert!((g.siemens() / G0_SIEMENS - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_is_sorted_and_labelled() {
        let mut tubes = Chirality::armchair_series(3, 8);
        tubes.extend(Chirality::zigzag_series(5, 12));
        let pts = conductance_vs_diameter(&tubes, t300()).unwrap();
        assert_eq!(pts.len(), 6 + 8);
        for w in pts.windows(2) {
            assert!(w[0].diameter_nm <= w[1].diameter_nm);
        }
        for p in &pts {
            if p.metallic {
                assert!((p.channels - 2.0).abs() < 0.15, "{:?}", p);
            }
        }
        assert!(conductance_vs_diameter(&[], t300()).is_err());
    }

    #[test]
    fn per_area_conductance_decreases_with_diameter() {
        let small = conductance_per_area(Chirality::new(5, 5).unwrap(), t300());
        let large = conductance_per_area(Chirality::new(12, 12).unwrap(), t300());
        assert!(small > large);
    }

    #[test]
    fn finite_temperature_smooths_but_preserves_plateau() {
        let bands = BandStructure::compute(Chirality::new(7, 7).unwrap(), 1201).unwrap();
        let cold = conductance_at_temperature(&bands, 0.0, Temperature::from_kelvin(30.0));
        let hot = conductance_at_temperature(&bands, 0.0, Temperature::from_kelvin(600.0));
        assert!((cold.siemens() / G0_SIEMENS - 2.0).abs() < 0.01);
        // Even at 600 K the first vHs (~1.2 eV) is far away: still ≈ 2.
        assert!((hot.siemens() / G0_SIEMENS - 2.0).abs() < 0.1);
    }
}
