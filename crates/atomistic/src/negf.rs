//! NEGF-lite: recursive Green's function transport through a disordered
//! 1-D chain.
//!
//! The paper's transport simulations use "the Non-Equilibrium Greens
//! Function (NEGF) framework with the ballistic approximation"
//! (Section III.A) and note that CVD-grown tubes carry defects that raise
//! resistance (Section II.A). This module provides the smallest NEGF model
//! that captures that physics: a single-mode tight-binding chain with
//! Anderson (uniform on-site) disorder between two semi-infinite ideal
//! leads. From the ensemble-averaged transmission we extract an elastic
//! mean free path via `⟨T⟩ = 1 / (1 + L/λ)`, which calibrates the
//! `L_MFP` parameter of the compact models (paper Eq. 4 uses
//! `G_1channel = G0 / (1 + L/L_MFP)`).

use crate::complex::C64;
use crate::{Error, Result};
use cnt_units::si::Length;
use rand::Rng;

/// A disordered single-mode chain between ideal leads.
///
/// # Example
///
/// ```
/// use cnt_atomistic::negf::DisorderedChain;
/// use cnt_units::si::Length;
/// use rand::SeedableRng;
///
/// let chain = DisorderedChain::new(200, 2.7, 0.0, Length::from_nanometers(0.25))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // A clean chain transmits perfectly inside the band.
/// let t = chain.transmission(0.0, &mut rng);
/// assert!((t - 1.0).abs() < 1e-9);
/// # Ok::<(), cnt_atomistic::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DisorderedChain {
    sites: usize,
    hopping_ev: f64,
    disorder_ev: f64,
    site_length: Length,
}

impl DisorderedChain {
    /// Creates a chain of `sites` sites with hopping `t` (eV), Anderson
    /// disorder of full width `w` (eV, on-site energies uniform in
    /// `[-w/2, w/2]`), and physical site pitch `site_length`.
    ///
    /// # Errors
    ///
    /// * [`Error::TooFewSamples`] if `sites < 2`.
    /// * [`Error::InvalidParameter`] if `t ≤ 0`, `w < 0` or the pitch is
    ///   non-positive.
    pub fn new(
        sites: usize,
        hopping_ev: f64,
        disorder_ev: f64,
        site_length: Length,
    ) -> Result<Self> {
        if sites < 2 {
            return Err(Error::TooFewSamples { got: sites, min: 2 });
        }
        if hopping_ev <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "hopping_ev",
                value: hopping_ev,
            });
        }
        if disorder_ev < 0.0 {
            return Err(Error::InvalidParameter {
                name: "disorder_ev",
                value: disorder_ev,
            });
        }
        if site_length.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "site_length",
                value: site_length.meters(),
            });
        }
        Ok(Self {
            sites,
            hopping_ev,
            disorder_ev,
            site_length,
        })
    }

    /// Physical length of the scattering region.
    fn length(&self) -> Length {
        self.site_length * self.sites as f64
    }

    /// Retarded surface Green's function of the semi-infinite ideal lead.
    ///
    /// Inside the band (|E| < 2t): `g = (E − i√(4t² − E²)) / (2t²)`.
    /// Outside: the decaying real root.
    fn lead_surface_g(&self, e: f64) -> C64 {
        let t = self.hopping_ev;
        let band = 4.0 * t * t - e * e;
        if band > 0.0 {
            C64::new(e, -band.sqrt()) * (1.0 / (2.0 * t * t))
        } else {
            // Choose the root with |g| ≤ 1/t so the lead GF decays.
            let s = (e * e - 4.0 * t * t).sqrt();
            let r1 = (e - s) / (2.0 * t * t);
            let r2 = (e + s) / (2.0 * t * t);
            let pick = if r1.abs() < r2.abs() { r1 } else { r2 };
            C64::real(pick)
        }
    }

    /// Lead self-energy `Σ = t²·g_surf` and broadening `Γ = −2·Im(Σ)` at
    /// energy `e_ev`, or `None` outside the lead band. Computing this once
    /// and sharing it across an ensemble is the hot-path win: every
    /// disorder sample at the same energy reuses the same lead coupling.
    #[inline]
    fn lead_coupling(&self, e_ev: f64) -> Option<(C64, f64)> {
        let t = self.hopping_ev;
        let sigma = self.lead_surface_g(e_ev) * (t * t);
        // Broadening Γ = i(Σ − Σ†) = −2·Im(Σ).
        let gamma = -2.0 * sigma.im;
        if gamma <= 0.0 {
            None // outside the lead band: no propagating modes
        } else {
            Some((sigma, gamma))
        }
    }

    /// The recursive Green's function sweep with the lead coupling already
    /// in hand and the on-site energies supplied by `draw` (monomorphized,
    /// so the "is there disorder at all?" branch is hoisted out of the
    /// per-site loop).
    #[inline]
    fn transmission_recursion<F: FnMut() -> f64>(
        &self,
        e_ev: f64,
        sigma: C64,
        gamma: f64,
        mut draw: F,
    ) -> f64 {
        let t = self.hopping_ev;
        let e = C64::real(e_ev);
        // Left-connected Green's function of site 1 (lead attached).
        let mut g_left = (e - C64::real(draw()) - sigma).recip();
        // Running product  Π t·g_left  that builds G_{1,i}.
        let mut g_1n = g_left;
        for i in 1..self.sites {
            let eps = C64::real(draw());
            let last = i == self.sites - 1;
            let mut denom = e - eps - g_left * (t * t);
            if last {
                denom = denom - sigma;
            }
            let g_ii = denom.recip();
            g_1n = g_1n * g_ii * t;
            g_left = g_ii;
        }
        let tr = gamma * gamma * g_1n.abs2();
        tr.clamp(0.0, 1.0)
    }

    /// One disorder sample given a precomputed lead coupling (the shared
    /// inner kernel of [`Self::transmission`] and
    /// [`Self::mean_transmission`]). Draw order matches the historical
    /// implementation site for site, so seeded results are unchanged.
    fn transmission_sample<R: Rng + ?Sized>(
        &self,
        e_ev: f64,
        sigma: C64,
        gamma: f64,
        rng: &mut R,
    ) -> f64 {
        if self.disorder_ev == 0.0 {
            // Clean chain: no RNG consumption at all (as before).
            self.transmission_recursion(e_ev, sigma, gamma, || 0.0)
        } else {
            let w = self.disorder_ev;
            self.transmission_recursion(e_ev, sigma, gamma, || rng.gen_range(-0.5..0.5) * w)
        }
    }

    /// Landauer transmission at energy `e_ev` for one disorder realization
    /// drawn from `rng`.
    ///
    /// Uses the forward recursive Green's function
    /// (`O(sites)` time, `O(1)` memory).
    pub fn transmission<R: Rng + ?Sized>(&self, e_ev: f64, rng: &mut R) -> f64 {
        match self.lead_coupling(e_ev) {
            Some((sigma, gamma)) => self.transmission_sample(e_ev, sigma, gamma, rng),
            None => 0.0,
        }
    }

    /// One explicit disorder realization: on-site energies drawn uniformly
    /// from `[-w/2, w/2)`, one per site, in site order — exactly the draws
    /// [`Self::transmission`] makes internally. A clean chain (`w = 0`)
    /// returns zeros without consuming the generator.
    fn draw_disorder<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        if self.disorder_ev == 0.0 {
            vec![0.0; self.sites]
        } else {
            let w = self.disorder_ev;
            (0..self.sites)
                .map(|_| rng.gen_range(-0.5..0.5) * w)
                .collect()
        }
    }

    /// Transmission at `e_ev` for a fixed, explicit disorder realization
    /// (as produced by [`Self::draw_disorder`]).
    ///
    /// # Panics
    ///
    /// Panics if `onsite_ev.len()` is not the number of sites.
    fn transmission_with_disorder(&self, e_ev: f64, onsite_ev: &[f64]) -> f64 {
        assert_eq!(
            onsite_ev.len(),
            self.sites,
            "disorder realization must cover every site"
        );
        match self.lead_coupling(e_ev) {
            Some((sigma, gamma)) => {
                let mut it = onsite_ev.iter();
                self.transmission_recursion(e_ev, sigma, gamma, || {
                    *it.next().expect("length checked above")
                })
            }
            None => 0.0,
        }
    }

    /// Energy-batched transmission: draws **one** disorder realization and
    /// evaluates `T(E)` on it for every energy of `energies_ev`. This is
    /// the spectrum of a single sample — the realization is drawn once
    /// (`sites` draws) instead of once per energy, and the lead coupling
    /// is computed per energy instead of per (energy, sample) pair.
    ///
    /// Equivalent to calling `transmission_with_disorder` per energy on
    /// the same `draw_disorder` realization, bit for bit.
    pub fn transmission_grid<R: Rng + ?Sized>(&self, energies_ev: &[f64], rng: &mut R) -> Vec<f64> {
        let onsite = self.draw_disorder(rng);
        energies_ev
            .iter()
            .map(|&e| self.transmission_with_disorder(e, &onsite))
            .collect()
    }

    /// Ensemble-averaged transmission over `samples` disorder realizations.
    ///
    /// The lead self-energy is energy-only, so it is hoisted out of the
    /// sample loop (it used to be recomputed per sample).
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    fn mean_transmission<R: Rng + ?Sized>(&self, e_ev: f64, samples: usize, rng: &mut R) -> f64 {
        assert!(samples > 0, "need at least one disorder sample");
        let Some((sigma, gamma)) = self.lead_coupling(e_ev) else {
            return 0.0;
        };
        let sum: f64 = (0..samples)
            .map(|_| self.transmission_sample(e_ev, sigma, gamma, rng))
            .sum();
        sum / samples as f64
    }

    /// Elastic mean free path from the ohmic relation `⟨T⟩ = 1/(1 + L/λ)`.
    ///
    /// Returns `Length::ZERO` when the chain is opaque and a very large
    /// length when it is essentially ballistic.
    pub fn mean_free_path<R: Rng + ?Sized>(
        &self,
        e_ev: f64,
        samples: usize,
        rng: &mut R,
    ) -> Length {
        let t_avg = self.mean_transmission(e_ev, samples, rng);
        if t_avg <= 1e-12 {
            return Length::ZERO;
        }
        if t_avg >= 1.0 - 1e-12 {
            return Length::from_meters(f64::INFINITY);
        }
        self.length() * (t_avg / (1.0 - t_avg))
    }
}

/// One point of a mean-free-path calibration curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfpPoint {
    /// Anderson disorder full width, eV.
    pub disorder_ev: f64,
    /// Extracted mean free path.
    pub mean_free_path: Length,
}

/// Sweeps the extracted mean free path versus disorder strength — the
/// defectivity calibration consumed by the compact models: CVD tubes grown
/// at low temperature carry more defects (paper §II.A/§II.B), i.e. larger
/// `w`, i.e. shorter `L_MFP`.
///
/// # Errors
///
/// Returns [`Error::TooFewSamples`] if `disorder_widths_ev` is empty, and
/// propagates chain-construction errors.
pub fn mfp_vs_disorder<R: Rng + ?Sized>(
    sites: usize,
    hopping_ev: f64,
    site_length: Length,
    disorder_widths_ev: &[f64],
    samples: usize,
    rng: &mut R,
) -> Result<Vec<MfpPoint>> {
    if disorder_widths_ev.is_empty() {
        return Err(Error::TooFewSamples { got: 0, min: 1 });
    }
    disorder_widths_ev
        .iter()
        .map(|&w| {
            let chain = DisorderedChain::new(sites, hopping_ev, w, site_length)?;
            Ok(MfpPoint {
                disorder_ev: w,
                mean_free_path: chain.mean_free_path(0.0, samples, rng),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pitch() -> Length {
        Length::from_nanometers(0.25)
    }

    #[test]
    fn constructor_validation() {
        assert!(DisorderedChain::new(1, 2.7, 0.0, pitch()).is_err());
        assert!(DisorderedChain::new(10, -1.0, 0.0, pitch()).is_err());
        assert!(DisorderedChain::new(10, 2.7, -0.1, pitch()).is_err());
        assert!(DisorderedChain::new(10, 2.7, 0.1, Length::ZERO).is_err());
    }

    #[test]
    fn clean_chain_is_ballistic_across_band() {
        let chain = DisorderedChain::new(500, 2.7, 0.0, pitch()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for e in [-4.0, -2.0, 0.0, 1.5, 4.9] {
            let t = chain.transmission(e, &mut rng);
            assert!((t - 1.0).abs() < 1e-9, "T({e}) = {t}");
        }
    }

    #[test]
    fn no_transmission_outside_lead_band() {
        let chain = DisorderedChain::new(50, 2.7, 0.0, pitch()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(chain.transmission(6.0, &mut rng), 0.0);
        assert_eq!(chain.transmission(-6.0, &mut rng), 0.0);
    }

    #[test]
    fn disorder_suppresses_transmission() {
        let mut rng = StdRng::seed_from_u64(7);
        let clean = DisorderedChain::new(300, 2.7, 0.0, pitch()).unwrap();
        let dirty = DisorderedChain::new(300, 2.7, 1.5, pitch()).unwrap();
        let t_clean = clean.mean_transmission(0.0, 50, &mut rng);
        let t_dirty = dirty.mean_transmission(0.0, 50, &mut rng);
        assert!(t_dirty < t_clean);
        assert!(t_dirty < 0.9);
        assert!(t_dirty > 0.0);
    }

    #[test]
    fn mfp_decreases_with_disorder() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = mfp_vs_disorder(400, 2.7, pitch(), &[0.4, 0.8, 1.6], 60, &mut rng).unwrap();
        assert_eq!(pts.len(), 3);
        assert!(pts[0].mean_free_path > pts[1].mean_free_path);
        assert!(pts[1].mean_free_path > pts[2].mean_free_path);
    }

    #[test]
    fn mfp_scales_roughly_inverse_square_of_disorder() {
        // Born approximation: λ ∝ 1/W². Doubling W should cut λ by ≈ 4×
        // (generously bracketed: localization corrections bend the curve).
        let mut rng = StdRng::seed_from_u64(11);
        let pts = mfp_vs_disorder(600, 2.7, pitch(), &[0.5, 1.0], 150, &mut rng).unwrap();
        let ratio = pts[0].mean_free_path / pts[1].mean_free_path;
        assert!(
            (2.0..=9.0).contains(&ratio),
            "λ(0.5)/λ(1.0) = {ratio}, expected ≈ 4"
        );
    }

    #[test]
    fn ohmic_regime_mfp_is_length_independent() {
        // In the ohmic window λ extracted from chains of different lengths
        // should agree within the ensemble noise.
        let mut rng = StdRng::seed_from_u64(5);
        let short = DisorderedChain::new(200, 2.7, 1.0, pitch()).unwrap();
        let long = DisorderedChain::new(400, 2.7, 1.0, pitch()).unwrap();
        let l1 = short.mean_free_path(0.0, 200, &mut rng).nanometers();
        let l2 = long.mean_free_path(0.0, 200, &mut rng).nanometers();
        let rel = (l1 - l2).abs() / l1.max(l2);
        assert!(rel < 0.5, "λ_short = {l1} nm vs λ_long = {l2} nm");
    }

    #[test]
    fn ballistic_and_opaque_limits() {
        let mut rng = StdRng::seed_from_u64(1);
        let clean = DisorderedChain::new(100, 2.7, 0.0, pitch()).unwrap();
        assert!(clean
            .mean_free_path(0.0, 5, &mut rng)
            .meters()
            .is_infinite());
        let opaque = DisorderedChain::new(2000, 2.7, 8.0, pitch()).unwrap();
        let mfp = opaque.mean_free_path(0.0, 5, &mut rng);
        assert!(mfp.nanometers() < 50.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let chain = DisorderedChain::new(120, 2.7, 0.7, pitch()).unwrap();
        let a = chain.transmission(0.1, &mut StdRng::seed_from_u64(42));
        let b = chain.transmission(0.1, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_realization_matches_internal_draws() {
        // transmission() must be exactly draw_disorder() followed by
        // transmission_with_disorder(): same draw order, same arithmetic.
        let chain = DisorderedChain::new(150, 2.7, 0.9, pitch()).unwrap();
        for e in [-1.0, 0.0, 0.3, 6.0] {
            let direct = chain.transmission(e, &mut StdRng::seed_from_u64(9));
            let mut rng = StdRng::seed_from_u64(9);
            let explicit = if e.abs() < 2.0 * 2.7 {
                // In band: the internal path consumed one realization.
                let onsite = chain.draw_disorder(&mut rng);
                chain.transmission_with_disorder(e, &onsite)
            } else {
                // Out of band: no draws either way.
                chain.transmission_with_disorder(e, &vec![0.0; chain.sites])
            };
            assert_eq!(direct.to_bits(), explicit.to_bits(), "E = {e}");
        }
    }

    #[test]
    fn transmission_grid_matches_per_energy_draws() {
        let chain = DisorderedChain::new(200, 2.7, 1.1, pitch()).unwrap();
        let energies = [-2.0, -0.5, 0.0, 0.5, 2.0, 5.9];
        let grid = chain.transmission_grid(&energies, &mut StdRng::seed_from_u64(31));
        // Same realization, per-energy path.
        let mut rng = StdRng::seed_from_u64(31);
        let onsite = chain.draw_disorder(&mut rng);
        for (i, &e) in energies.iter().enumerate() {
            let scalar = chain.transmission_with_disorder(e, &onsite);
            assert_eq!(grid[i].to_bits(), scalar.to_bits(), "E = {e}");
        }
        // A single-energy grid matches transmission() itself bit for bit.
        let single = chain.transmission_grid(&[0.25], &mut StdRng::seed_from_u64(4));
        let direct = chain.transmission(0.25, &mut StdRng::seed_from_u64(4));
        assert_eq!(single[0].to_bits(), direct.to_bits());
    }

    #[test]
    fn mean_transmission_seeded_stream_is_stable() {
        // The sigma hoist must not change the RNG stream: per-sample draws
        // remain site-ordered, so an ensemble equals the per-sample path.
        let chain = DisorderedChain::new(80, 2.7, 0.8, pitch()).unwrap();
        let mean = chain.mean_transmission(0.1, 7, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(5);
        let manual: f64 = (0..7).map(|_| chain.transmission(0.1, &mut rng)).sum();
        assert_eq!(mean.to_bits(), (manual / 7.0).to_bits());
        // Out of band, no draws are consumed.
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(chain.mean_transmission(9.0, 5, &mut rng), 0.0);
        let mut fresh = StdRng::seed_from_u64(6);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn clean_chain_consumes_no_rng() {
        let clean = DisorderedChain::new(50, 2.7, 0.0, pitch()).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let _ = clean.transmission(0.0, &mut rng);
        let _ = clean.draw_disorder(&mut rng);
        let mut fresh = StdRng::seed_from_u64(12);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }
}
