//! Zone-folded tight-binding band structure of single-walled CNTs.
//!
//! The graphene π-band dispersion `E±(k) = ±γ0·|1 + e^{ik·a1} + e^{ik·a2}|`
//! is sampled along the `N` quantization lines of a tube `(n, m)` (the
//! "zone folding" construction of Saito–Dresselhaus). This reproduces the
//! DFT band structures the paper shows in Fig. 8c near the Fermi level,
//! where transport happens.
//!
//! Particle–hole symmetry of the nearest-neighbour model means the valence
//! bands are the exact mirror of the conduction bands; we therefore store
//! only `E ≥ 0` and mirror on demand.
//!
//! # Subbands a level window cannot reach
//!
//! [`BandStructure::compute`] builds every subband: the band gap, the van
//! Hove edges, the DOS, [`crate::doping::DopedCnt`] and Fig. 8c's ±1.5 eV
//! spectra read them all. A Landauer integral counts modes only at levels
//! up to its window's top `e_top`, so
//! [`crate::transport::ballistic_conductance`] builds a windowed structure
//! that leaves out every subband proven to lie above `e_top` at every grid
//! point. It never leaves `transport`.
//!
//! The proof is Shubert's Lipschitz bound (SIAM J. Numer. Anal. 9, 1972)
//! on each cutting line of zone folding (Samsonidze et al., J. Nanosci.
//! Nanotechnol. 3, 2003):
//!
//! - `E_μ(k) = γ0·|f(k)|` with `|∇|f|| ≤ |a1| + |a2| = 2a`, so along a
//!   cutting line `|E(k) − E(k')| ≤ L·|k − k'|` with `L = 2·a·γ0`
//!   (≈ 1.33 eV·nm).
//! - A line is first evaluated at every 16th point of the `k_t` grid plus
//!   the last, so every grid point lies within `8·Δk` of a sample.
//! - The line is dropped when `sampled min − L·8·Δk − 1e-9 eV > e_top`.
//!   The 1e-9 eV margin covers the few-ulp difference between two
//!   evaluations of the same formula (≈ 1e-13 eV here).
//! - A kept line is evaluated by the same closure on the same grid, so its
//!   energies, and every crossing, are bit-identical to `compute`'s.
//!
//! A dropped line has every grid energy above every level the integral
//! asks about, and [`BandStructure::mode_counts`] skips such a subband
//! whole, so dropping it changes no count.

use crate::chirality::Chirality;
use crate::{Error, Result};
use cnt_units::consts::{A_LATTICE, GAMMA0_EV};

/// Lipschitz constant of `E(k) = γ0·|f(k)|` in eV·m:
/// `|∇|f|| ≤ |a1| + |a2| = 2a`.
const LIPSCHITZ_EV_M: f64 = 2.0 * A_LATTICE * GAMMA0_EV;
/// A windowed build samples every `COARSE_STRIDE`-th grid point of a
/// cutting line, plus the last.
const COARSE_STRIDE: usize = 16;
/// Covers the few-ulp difference between two evaluations of
/// [`graphene_dispersion_ev`].
const ROUNDING_MARGIN_EV: f64 = 1e-9;

/// The level [`BandStructure::mode_counts`] checks for energy `e_ev`:
/// particle–hole symmetry folds `E` and `−E` together, and 0 is nudged by
/// 1 µeV onto the metallic touching point.
pub(crate) fn folded_level(e_ev: f64) -> f64 {
    e_ev.abs().max(1e-6)
}

/// Graphene π-band magnitude `|f(k)|·γ0` in eV at wavevector `(kx, ky)`
/// (units 1/m).
///
/// ```
/// use cnt_atomistic::bands::graphene_dispersion_ev;
/// // Γ point: |1 + 1 + 1| = 3 ⇒ 3γ0.
/// assert!((graphene_dispersion_ev(0.0, 0.0) - 3.0 * 2.7).abs() < 1e-9);
/// ```
pub fn graphene_dispersion_ev(kx: f64, ky: f64) -> f64 {
    // a1 = a(√3/2, 1/2), a2 = a(√3/2, −1/2).
    let ax = A_LATTICE * 3f64.sqrt() / 2.0;
    let ay = A_LATTICE / 2.0;
    let p1 = kx * ax + ky * ay;
    let p2 = kx * ax - ky * ay;
    let re = 1.0 + p1.cos() + p2.cos();
    let im = p1.sin() + p2.sin();
    GAMMA0_EV * (re * re + im * im).sqrt()
}

/// One conduction subband `E_μ(k_t) ≥ 0` sampled on the longitudinal grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Subband {
    /// Quantization index `μ ∈ [0, N)`.
    pub mu: i32,
    /// Energies in eV, one per point of [`BandStructure::kt_per_meter`].
    pub energy_ev: Vec<f64>,
}

impl Subband {
    /// Minimum (band edge) energy of this subband in eV.
    pub fn min_energy_ev(&self) -> f64 {
        self.energy_ev.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum energy of this subband in eV.
    pub fn max_energy_ev(&self) -> f64 {
        self.energy_ev
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Zone-folded band structure of a tube, precomputed on a `k_t` grid.
///
/// # Example
///
/// ```
/// use cnt_atomistic::chirality::Chirality;
/// use cnt_atomistic::bands::BandStructure;
///
/// // Grids with (nk − 1) divisible by 6 place the Dirac crossing of
/// // metallic tubes exactly on a sample point.
/// let bs = BandStructure::compute(Chirality::new(7, 7)?, 1201)?;
/// assert!(bs.band_gap_ev() < 1e-3); // armchair ⇒ metallic
/// assert_eq!(bs.mode_count(0.0), 2); // two channels at E_F
/// # Ok::<(), cnt_atomistic::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandStructure {
    chirality: Chirality,
    kt_per_meter: Vec<f64>,
    subbands: Vec<Subband>,
    /// Cached `(min, max)` energy per subband for fast level filtering.
    edges: Vec<(f64, f64)>,
    /// The highest level this structure can count: infinite when it holds
    /// every subband, the window's top when it was built by
    /// [`Self::compute_below`].
    cutoff_ev: f64,
}

impl BandStructure {
    /// Computes the band structure of `chirality` on `nk` longitudinal
    /// points spanning the full 1-D Brillouin zone `[-π/T, π/T]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewSamples`] if `nk < 16` (mode counting would
    /// be unreliable).
    pub fn compute(chirality: Chirality, nk: usize) -> Result<Self> {
        Self::compute_below(chirality, nk, f64::INFINITY)
    }

    /// [`Self::compute`] without the subbands proven to lie above
    /// `cutoff_ev` at every grid point, by the Lipschitz bound in the
    /// module docs: a line is dropped when its minimum over every 16th
    /// grid point plus the last, less `L·8·Δk` (`L = 2·a·γ0`) and a
    /// 1e-9 eV margin, still exceeds `cutoff_ev`. A non-finite cutoff
    /// keeps every subband. The result can count only levels up to
    /// `cutoff_ev`: [`Self::mode_counts`] panics on a higher one.
    pub(crate) fn compute_below(chirality: Chirality, nk: usize, cutoff_ev: f64) -> Result<Self> {
        let _span = cnt_obs::span!("atomistic.bands");
        if nk < 16 {
            return Err(Error::TooFewSamples { got: nk, min: 16 });
        }
        let (n, m) = (chirality.n() as f64, chirality.m() as f64);
        let (t1, t2) = chirality.translation_indices();
        let (t1, t2) = (t1 as f64, t2 as f64);
        let n_hex = chirality.hexagon_count() as f64;

        // Reciprocal basis: b1 = (2π/a)(1/√3, 1), b2 = (2π/a)(1/√3, −1).
        let c = 2.0 * core::f64::consts::PI / A_LATTICE;
        let b1 = (c / 3f64.sqrt(), c);
        let b2 = (c / 3f64.sqrt(), -c);

        // K1 = (−t2·b1 + t1·b2)/N (circumferential),
        // K2 = ( m·b1 −  n·b2)/N (longitudinal).
        let k1 = (
            (-t2 * b1.0 + t1 * b2.0) / n_hex,
            (-t2 * b1.1 + t1 * b2.1) / n_hex,
        );
        let k2 = ((m * b1.0 - n * b2.0) / n_hex, (m * b1.1 - n * b2.1) / n_hex);
        let k2_len = (k2.0 * k2.0 + k2.1 * k2.1).sqrt();
        let k2_hat = (k2.0 / k2_len, k2.1 / k2_len);

        let t_len = chirality.translation_length().meters();
        let k_max = core::f64::consts::PI / t_len;
        let kt_per_meter: Vec<f64> = (0..nk)
            .map(|i| -k_max + 2.0 * k_max * i as f64 / (nk - 1) as f64)
            .collect();

        // E_μ(k_t) on cutting line μ: the one evaluation behind both the
        // coarse scan and a kept line.
        let energy = |mf: f64, kt: f64| {
            let kx = mf * k1.0 + kt * k2_hat.0;
            let ky = mf * k1.1 + kt * k2_hat.1;
            graphene_dispersion_ev(kx, ky)
        };
        // Every grid point lies within COARSE_STRIDE/2 steps of a coarse one.
        let dk = 2.0 * k_max / (nk - 1) as f64;
        let slack = LIPSCHITZ_EV_M * (COARSE_STRIDE / 2) as f64 * dk + ROUNDING_MARGIN_EV;

        let n_sub = chirality.hexagon_count();
        let mut subbands = Vec::with_capacity(n_sub as usize);
        for mu in 0..n_sub {
            let mf = mu as f64;
            if cutoff_ev.is_finite() {
                let coarse_min = kt_per_meter
                    .iter()
                    .step_by(COARSE_STRIDE)
                    .chain(kt_per_meter.last())
                    .map(|&kt| energy(mf, kt))
                    .fold(f64::INFINITY, f64::min);
                if coarse_min - slack > cutoff_ev {
                    continue;
                }
            }
            let energy_ev = kt_per_meter.iter().map(|&kt| energy(mf, kt)).collect();
            subbands.push(Subband { mu, energy_ev });
        }

        let edges = subbands
            .iter()
            .map(|sb| (sb.min_energy_ev(), sb.max_energy_ev()))
            .collect();
        Ok(Self {
            chirality,
            kt_per_meter,
            subbands,
            edges,
            cutoff_ev,
        })
    }

    /// The tube this band structure belongs to.
    pub fn chirality(&self) -> Chirality {
        self.chirality
    }

    /// Longitudinal wavevector grid (1/m) spanning the full Brillouin zone.
    pub fn kt_per_meter(&self) -> &[f64] {
        &self.kt_per_meter
    }

    /// Conduction subbands (valence bands are their mirror images).
    pub fn subbands(&self) -> &[Subband] {
        &self.subbands
    }

    /// Band gap in eV: `2·min_μ,k E_μ(k)` (zero for metallic tubes up to
    /// grid resolution).
    pub fn band_gap_ev(&self) -> f64 {
        2.0 * self
            .subbands
            .iter()
            .map(Subband::min_energy_ev)
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of conducting modes (orbital channels) at energy `e_ev`
    /// relative to the charge-neutral Fermi level.
    ///
    /// Counts band crossings of the level across the full Brillouin zone and
    /// divides by two (each mode crosses once with positive and once with
    /// negative velocity). Energies in the valence band are handled by
    /// particle–hole symmetry. At exactly `E = 0` on a metallic tube the
    /// level is nudged by 1 µeV so that the touching point counts as the
    /// physical two channels. A grid point exactly on the level counts as
    /// no crossing on either side. This is [`Self::mode_counts`] at one
    /// energy.
    pub fn mode_count(&self, e_ev: f64) -> usize {
        self.mode_counts(std::slice::from_ref(&e_ev))[0]
    }

    /// Sorted van Hove (subband-edge) energies in eV, ascending, conduction
    /// side. The first entry is half the band gap for semiconducting tubes.
    pub fn van_hove_energies_ev(&self) -> Vec<f64> {
        let mut edges: Vec<f64> = self.subbands.iter().map(Subband::min_energy_ev).collect();
        edges.sort_by(|a, b| a.partial_cmp(b).expect("band energies are finite"));
        edges.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        edges
    }

    /// Densely sampled transmission function `T(E) = mode_count(E)` over the
    /// energy window `[e_min, e_max]` (eV), with `n` points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooFewSamples`] if `n < 2`.
    pub fn transmission_spectrum(
        &self,
        e_min: f64,
        e_max: f64,
        n: usize,
    ) -> Result<Vec<(f64, f64)>> {
        if n < 2 {
            return Err(Error::TooFewSamples { got: n, min: 2 });
        }
        let energies: Vec<f64> = (0..n)
            .map(|i| e_min + (e_max - e_min) * i as f64 / (n - 1) as f64)
            .collect();
        let counts = self.mode_counts(&energies);
        Ok(energies
            .into_iter()
            .zip(counts)
            .map(|(e, c)| (e, c as f64))
            .collect())
    }

    /// [`Self::mode_count`] at a batch of energies, in one pass over the
    /// band structure.
    ///
    /// A `(k, k+1)` segment of a subband crosses exactly the levels
    /// strictly inside its energy span, so a level on a grid point is
    /// skipped. Each segment locates its levels with two binary searches
    /// over the sorted levels, so a spectrum of `n` levels costs
    /// `O(subbands · nk · log n + crossings)` instead of `n` full scans.
    ///
    /// Before any search, an exact prefilter drops the work that cannot
    /// cross a level. A subband is skipped whole when its cached
    /// `(min, max)` edges miss `[lowest level, highest level]`, and a
    /// segment is skipped when its span misses that range. A segment's
    /// span lies inside its subband's edges, so neither skip drops a
    /// crossing. A narrow window such as the ±12 kT of a Landauer integral
    /// thus searches only the few subbands near the Fermi level, not all
    /// `subbands · nk` segments. The prefilter itself costs two
    /// comparisons per subband and two per segment of a kept subband.
    pub fn mode_counts(&self, energies_ev: &[f64]) -> Vec<usize> {
        let levels: Vec<f64> = energies_ev.iter().map(|&e| folded_level(e)).collect();
        let mut order: Vec<usize> = (0..levels.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            levels[a]
                .partial_cmp(&levels[b])
                .expect("levels are finite")
        });
        let sorted: Vec<f64> = order.iter().map(|&i| levels[i]).collect();
        let (Some(&lowest), Some(&highest)) = (sorted.first(), sorted.last()) else {
            return Vec::new();
        };
        // A windowed structure may lack a subband that crosses a level
        // above its cutoff.
        assert!(
            highest <= self.cutoff_ev,
            "level {highest} eV lies above this band structure's {} eV cutoff",
            self.cutoff_ev
        );

        let mut crossings = vec![0usize; levels.len()];
        for (sb, &(min, max)) in self.subbands.iter().zip(&self.edges) {
            if max <= lowest || min >= highest {
                continue;
            }
            for w in sb.energy_ev.windows(2) {
                let (lo, hi) = if w[0] < w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                };
                if lo == hi || hi <= lowest || lo >= highest {
                    continue;
                }
                let start = sorted.partition_point(|&e| e <= lo);
                let end = sorted.partition_point(|&e| e < hi);
                for &idx in &order[start..end] {
                    crossings[idx] += 1;
                }
            }
        }
        crossings.into_iter().map(|c| c / 2).collect()
    }

    /// Energy-batched transmission `T(E) = mode_count(E)` at arbitrary
    /// energies — the kernel behind the Fig. 8c spectra.
    pub fn transmission_grid(&self, energies_ev: &[f64]) -> Vec<f64> {
        self.mode_counts(energies_ev)
            .into_iter()
            .map(|c| c as f64)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn bs(n: i32, m: i32) -> BandStructure {
        BandStructure::compute(Chirality::new(n, m).unwrap(), 1201).unwrap()
    }

    /// The per-energy scan that `mode_count` ran before it became a
    /// one-level [`BandStructure::mode_counts`]: every segment of every
    /// subband whose edges bracket the level. The reference oracle for
    /// the batched counts.
    pub(crate) fn per_energy_mode_count(bands: &BandStructure, e_ev: f64) -> usize {
        let e = e_ev.abs().max(1e-6);
        let mut crossings = 0usize;
        for (sb, &(lo, hi)) in bands.subbands.iter().zip(&bands.edges) {
            if e < lo || e > hi {
                continue;
            }
            for w in sb.energy_ev.windows(2) {
                let d0 = w[0] - e;
                let d1 = w[1] - e;
                if d0 == 0.0 {
                    continue;
                }
                if d0 * d1 < 0.0 {
                    crossings += 1;
                }
            }
        }
        crossings / 2
    }

    /// The 35 tubes of Fig. 8a: zigzag (5,0)–(26,0) and armchair
    /// (3,3)–(15,15).
    pub(crate) fn fig08a_tubes() -> Vec<Chirality> {
        let mut tubes = Chirality::zigzag_series(5, 26);
        tubes.extend(Chirality::armchair_series(3, 15));
        assert_eq!(tubes.len(), 35);
        tubes
    }

    #[test]
    fn no_grid_step_exceeds_the_lipschitz_bound() {
        // Guards the constant the windowed build relies on.
        for tube in fig08a_tubes() {
            let b = BandStructure::compute(tube, crate::transport::DEFAULT_NK).unwrap();
            let bound = b
                .kt_per_meter
                .windows(2)
                .map(|w| LIPSCHITZ_EV_M * (w[1] - w[0]))
                .fold(f64::INFINITY, f64::min);
            for sb in b.subbands() {
                for w in sb.energy_ev.windows(2) {
                    let step = (w[1] - w[0]).abs();
                    assert!(
                        step <= bound,
                        "{tube:?} μ = {}: step {step} eV > L·Δk = {bound} eV",
                        sb.mu
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn a_windowed_structure_refuses_levels_above_its_cutoff() {
        let b = BandStructure::compute_below(Chirality::new(7, 7).unwrap(), 1201, 0.3).unwrap();
        b.mode_count(0.31);
    }

    #[test]
    fn rejects_coarse_grids() {
        assert!(BandStructure::compute(Chirality::new(7, 7).unwrap(), 8).is_err());
    }

    #[test]
    fn graphene_high_symmetry_points() {
        // K point of graphene: E = 0. K = (2π/a)(1/√3, 1/3).
        let c = 2.0 * core::f64::consts::PI / A_LATTICE;
        let e_k = graphene_dispersion_ev(c / 3f64.sqrt(), c / 3.0);
        assert!(e_k.abs() < 1e-6, "E(K) = {e_k}");
        // M point: E = γ0. M = (2π/a)(1/√3, 0).
        let e_m = graphene_dispersion_ev(c / 3f64.sqrt(), 0.0);
        assert!((e_m - GAMMA0_EV).abs() < 1e-9, "E(M) = {e_m}");
    }

    #[test]
    fn armchair_is_gapless_with_two_modes() {
        let b = bs(7, 7);
        assert!(b.band_gap_ev() < 2e-3, "gap {}", b.band_gap_ev());
        assert_eq!(b.mode_count(0.0), 2);
        assert_eq!(b.mode_count(0.05), 2);
        assert_eq!(b.mode_count(-0.05), 2);
    }

    #[test]
    fn metallic_zigzag_is_gapless_semiconducting_is_not() {
        let met = bs(9, 0);
        assert!(met.band_gap_ev() < 2e-3);
        let semi = bs(13, 0);
        // Analytic estimate 2γ0·a_cc/d ≈ 0.75 eV for (13,0).
        let est = Chirality::new(13, 0).unwrap().band_gap_estimate_ev();
        assert!(
            (semi.band_gap_ev() - est).abs() / est < 0.15,
            "gap {} vs estimate {est}",
            semi.band_gap_ev()
        );
        assert_eq!(semi.mode_count(0.0), 0);
    }

    #[test]
    fn mode_count_increases_past_van_hove_edges() {
        let b = bs(7, 7);
        let edges = b.van_hove_energies_ev();
        // First nonzero vHs of (7,7) sits near 1.2 eV (π-TB).
        let first = edges.iter().copied().find(|&e| e > 0.05).unwrap();
        assert!((first - 1.18).abs() < 0.1, "first vHs {first}");
        assert!(b.mode_count(first + 0.05) > b.mode_count(first - 0.05));
    }

    #[test]
    fn paper_anchor_two_channels_below_first_vhs() {
        // The doped Fermi level −0.6 eV still lies inside the 2-channel
        // window of the *host* (7,7) bands — the extra channels of the
        // paper's doped tube come from the dopant itself (see `doping`).
        let b = bs(7, 7);
        assert_eq!(b.mode_count(-0.6), 2);
    }

    #[test]
    fn transmission_spectrum_is_step_like_and_symmetric() {
        let b = bs(10, 10);
        let spec = b.transmission_spectrum(-2.0, 2.0, 401).unwrap();
        assert_eq!(spec.len(), 401);
        for (e, t) in &spec {
            assert!(*t >= 0.0);
            // Particle–hole symmetry.
            let mirrored = b.mode_count(-*e) as f64;
            assert_eq!(*t, mirrored, "asymmetry at E={e}");
        }
    }

    #[test]
    fn subband_count_matches_hexagon_count() {
        for &(n, m) in &[(7, 7), (13, 0), (10, 5)] {
            let c = Chirality::new(n, m).unwrap();
            let b = BandStructure::compute(c, 64).unwrap();
            assert_eq!(b.subbands().len(), c.hexagon_count() as usize);
        }
    }

    #[test]
    fn batched_mode_counts_match_per_energy_exactly() {
        for &(n, m) in &[(7, 7), (13, 0), (10, 5), (9, 0)] {
            let b = BandStructure::compute(Chirality::new(n, m).unwrap(), 301).unwrap();
            // A deliberately nasty grid: duplicates, ± pairs, exact zero,
            // exact van Hove edges (grid-point collisions), out-of-band.
            let mut energies: Vec<f64> = vec![-2.0, -0.6, 0.0, 0.0, 0.3, 0.6, 2.0, 9.0, -9.0];
            energies.extend(b.van_hove_energies_ev().iter().take(4).copied());
            energies.extend(b.subbands()[0].energy_ev.iter().take(3).copied());
            let batched = b.mode_counts(&energies);
            for (i, &e) in energies.iter().enumerate() {
                let want = per_energy_mode_count(&b, e);
                assert_eq!(batched[i], want, "({n},{m}) at E = {e}");
                assert_eq!(b.mode_count(e), want, "({n},{m}) single level E = {e}");
            }
            let grid = b.transmission_grid(&energies);
            for (i, &c) in batched.iter().enumerate() {
                assert_eq!(grid[i], c as f64);
            }
        }
    }

    #[test]
    fn mode_counts_prefilter_edges_match_per_energy_scan() {
        for &(n, m) in &[(7, 7), (13, 0), (10, 5)] {
            let b = BandStructure::compute(Chirality::new(n, m).unwrap(), 301).unwrap();
            assert!(b.mode_counts(&[]).is_empty());
            let lowest = b.edges.iter().map(|e| e.0).fold(f64::INFINITY, f64::min);
            let highest = b
                .edges
                .iter()
                .map(|e| e.1)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut cases: Vec<Vec<f64>> = vec![
                // At the 1 µeV nudge (below every semiconducting subband)
                // and above every subband.
                vec![0.0, -1e-9, 1e-7],
                vec![highest, highest + 1.0, -(highest + 1e-3)],
                vec![lowest, highest],
            ];
            // Levels exactly on each subband's min or max, alone and
            // batched with a far level that widens the searched range.
            for &(lo, hi) in &b.edges {
                cases.push(vec![lo]);
                cases.push(vec![hi]);
                cases.push(vec![lo, hi, 9.0]);
                cases.push(vec![-hi, 0.5 * (lo + hi)]);
            }
            for levels in &cases {
                let batched = b.mode_counts(levels);
                assert_eq!(batched.len(), levels.len());
                for (&e, &got) in levels.iter().zip(&batched) {
                    assert_eq!(got, per_energy_mode_count(&b, e), "({n},{m}) at E = {e}");
                }
            }
        }
    }

    #[test]
    fn energies_bounded_by_3_gamma0() {
        let b = bs(11, 4);
        for sb in b.subbands() {
            assert!(sb.max_energy_ev() <= 3.0 * GAMMA0_EV + 1e-9);
            assert!(sb.min_energy_ev() >= -1e-12);
        }
    }
}
