//! The `(n, m)` chiral index of a carbon nanotube and derived geometry.
//!
//! Conventions follow Saito–Dresselhaus: the chiral vector is
//! `Ch = n·a1 + m·a2` with `0 ≤ m ≤ n`, the diameter is `|Ch|/π`, and a tube
//! is metallic iff `(n − m) mod 3 == 0`. Roughly one third of all
//! chiralities are metallic — the paper (Section II.A) notes that two
//! thirds of as-grown CNTs are semiconducting, which is exactly this
//! statistic.

use crate::{Error, Result};
use cnt_units::consts::{A_CC, A_LATTICE};
use cnt_units::si::Length;
use core::fmt;

/// Structural family of a nanotube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `(n, n)` tubes — always metallic.
    Armchair,
    /// `(n, 0)` tubes — metallic iff `3 | n`.
    Zigzag,
    /// Any other `(n, m)`.
    Chiral,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::Armchair => "armchair",
            Family::Zigzag => "zigzag",
            Family::Chiral => "chiral",
        };
        f.write_str(s)
    }
}

/// Chiral index `(n, m)` of a single-walled carbon nanotube.
///
/// # Example
///
/// ```
/// use cnt_atomistic::chirality::Chirality;
///
/// let cnt = Chirality::new(7, 7)?;
/// // The paper: "The diameter of SWCNT(7,7) is about 1 nm."
/// assert!((cnt.diameter().nanometers() - 0.95).abs() < 0.01);
/// assert!(cnt.is_metallic());
/// # Ok::<(), cnt_atomistic::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chirality {
    n: i32,
    m: i32,
}

impl Chirality {
    /// Creates a chirality from indices `(n, m)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidChirality`] unless `n ≥ 1` and `0 ≤ m ≤ n`.
    pub fn new(n: i32, m: i32) -> Result<Self> {
        if n < 1 || m < 0 || m > n {
            return Err(Error::InvalidChirality { n, m });
        }
        Ok(Self { n, m })
    }

    /// First chiral index `n`.
    #[inline]
    pub fn n(self) -> i32 {
        self.n
    }

    /// Second chiral index `m`.
    #[inline]
    pub fn m(self) -> i32 {
        self.m
    }

    /// Structural family (armchair / zigzag / chiral).
    pub fn family(self) -> Family {
        if self.n == self.m {
            Family::Armchair
        } else if self.m == 0 {
            Family::Zigzag
        } else {
            Family::Chiral
        }
    }

    /// `true` iff the tube is metallic: `(n − m) mod 3 == 0`.
    #[inline]
    pub fn is_metallic(self) -> bool {
        (self.n - self.m).rem_euclid(3) == 0
    }

    /// Circumference `|Ch| = a·√(n² + nm + m²)`.
    pub fn circumference(self) -> Length {
        let (n, m) = (self.n as f64, self.m as f64);
        Length::from_meters(A_LATTICE * (n * n + n * m + m * m).sqrt())
    }

    /// Tube diameter `d = |Ch| / π`.
    pub fn diameter(self) -> Length {
        self.circumference() / core::f64::consts::PI
    }

    /// Chiral angle in degrees (0° for zigzag, 30° for armchair).
    pub fn chiral_angle_degrees(self) -> f64 {
        let (n, m) = (self.n as f64, self.m as f64);
        let cos_theta = (2.0 * n + m) / (2.0 * (n * n + n * m + m * m).sqrt());
        cos_theta.clamp(-1.0, 1.0).acos().to_degrees()
    }

    /// `d_R = gcd(2n + m, 2m + n)` — controls the translation period.
    fn d_r(self) -> i32 {
        gcd(2 * self.n + self.m, 2 * self.m + self.n)
    }

    /// Integer components `(t1, t2)` of the translation vector
    /// `T = t1·a1 + t2·a2`.
    pub fn translation_indices(self) -> (i32, i32) {
        let dr = self.d_r();
        ((2 * self.m + self.n) / dr, -(2 * self.n + self.m) / dr)
    }

    /// Length of the 1-D translation period `|T| = √3·|Ch| / d_R`.
    pub fn translation_length(self) -> Length {
        self.circumference() * (3.0_f64.sqrt() / self.d_r() as f64)
    }

    /// Number of graphene hexagons in the tube unit cell,
    /// `N = 2(n² + nm + m²)/d_R`. The unit cell holds `2N` carbon atoms.
    pub fn hexagon_count(self) -> i32 {
        let q = self.n * self.n + self.n * self.m + self.m * self.m;
        2 * q / self.d_r()
    }

    /// Band gap estimate `E_g ≈ 2·γ0·a_cc/d` for semiconducting tubes
    /// (zero for metallic ones). The zone-folded value computed by
    /// [`crate::bands::BandStructure::band_gap_ev`] agrees with this within a few percent
    /// for tubes wider than ~0.8 nm.
    pub fn band_gap_estimate_ev(self) -> f64 {
        if self.is_metallic() {
            0.0
        } else {
            2.0 * cnt_units::consts::GAMMA0_EV * A_CC / self.diameter().meters()
        }
    }

    /// Enumerates the zigzag series `(n, 0)` for `n ∈ [n_min, n_max]`.
    pub fn zigzag_series(n_min: i32, n_max: i32) -> Vec<Chirality> {
        (n_min.max(1)..=n_max)
            .map(|n| Chirality { n, m: 0 })
            .collect()
    }

    /// Enumerates the armchair series `(n, n)` for `n ∈ [n_min, n_max]`.
    pub fn armchair_series(n_min: i32, n_max: i32) -> Vec<Chirality> {
        (n_min.max(1)..=n_max)
            .map(|n| Chirality { n, m: n })
            .collect()
    }

    /// Enumerates every chirality with diameter in `[d_min, d_max]`.
    ///
    /// Used by the Monte-Carlo chirality sampler in `cnt-process` and by the
    /// Fig. 8a sweep.
    pub fn all_in_diameter_range(d_min: Length, d_max: Length) -> Vec<Chirality> {
        let mut out = Vec::new();
        if d_max.meters() <= 0.0 {
            return out;
        }
        // d = a·√(n²+nm+m²)/π ⇒ n ≤ π·d_max/a.
        let n_cap = (core::f64::consts::PI * d_max.meters() / A_LATTICE).ceil() as i32 + 1;
        for n in 1..=n_cap {
            for m in 0..=n {
                let c = Chirality { n, m };
                let d = c.diameter();
                if d >= d_min && d <= d_max {
                    out.push(c);
                }
            }
        }
        out
    }
}

impl fmt::Display for Chirality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.n, self.m)
    }
}

fn gcd(a: i32, b: i32) -> i32 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_indices() {
        assert!(Chirality::new(0, 0).is_err());
        assert!(Chirality::new(5, 6).is_err());
        assert!(Chirality::new(5, -1).is_err());
        assert!(Chirality::new(1, 0).is_ok());
    }

    #[test]
    fn paper_tube_77_geometry() {
        let c = Chirality::new(7, 7).unwrap();
        // d = 0.246 nm · 7·√3 / π ≈ 0.9494 nm — "about 1 nm" in the paper.
        assert!((c.diameter().nanometers() - 0.9494).abs() < 1e-3);
        assert_eq!(c.family(), Family::Armchair);
        assert!(c.is_metallic());
        assert!((c.chiral_angle_degrees() - 30.0).abs() < 1e-9);
        // Armchair period is exactly the lattice constant a.
        assert!((c.translation_length().nanometers() - 0.246).abs() < 1e-6);
        assert_eq!(c.hexagon_count(), 14);
    }

    #[test]
    fn zigzag_metallicity_rule() {
        for n in 1..=30 {
            let c = Chirality::new(n, 0).unwrap();
            assert_eq!(c.is_metallic(), n % 3 == 0, "zigzag ({n},0)");
            assert_eq!(c.family(), Family::Zigzag);
            assert!((c.chiral_angle_degrees()).abs() < 1e-9);
        }
    }

    #[test]
    fn armchair_always_metallic() {
        for n in 1..=20 {
            assert!(Chirality::new(n, n).unwrap().is_metallic());
        }
    }

    #[test]
    fn one_third_of_chiralities_are_metallic() {
        // Paper §II.A: "2/3rd of CNTs are semi-conducting".
        let all = Chirality::all_in_diameter_range(
            Length::from_nanometers(0.5),
            Length::from_nanometers(3.0),
        );
        assert!(
            all.len() > 100,
            "expected a dense enumeration, got {}",
            all.len()
        );
        let metallic = all.iter().filter(|c| c.is_metallic()).count();
        let frac = metallic as f64 / all.len() as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.05, "metallic fraction {frac}");
    }

    #[test]
    fn translation_vector_is_orthogonal_to_ch() {
        // Ch·T = 0 in the graphene basis: (n·t1 + m·t2) + (n·t2 + m·t1)/2 … easier to
        // verify via explicit 2-D dot product.
        use core::f64::consts::PI;
        for &(n, m) in &[(7, 7), (13, 0), (10, 5), (12, 4), (9, 3)] {
            let c = Chirality::new(n, m).unwrap();
            let (t1, t2) = c.translation_indices();
            let a = 1.0_f64; // arbitrary scale
            let a1 = (a * 3f64.sqrt() / 2.0, a / 2.0);
            let a2 = (a * 3f64.sqrt() / 2.0, -a / 2.0);
            let ch = (
                n as f64 * a1.0 + m as f64 * a2.0,
                n as f64 * a1.1 + m as f64 * a2.1,
            );
            let t = (
                t1 as f64 * a1.0 + t2 as f64 * a2.0,
                t1 as f64 * a1.1 + t2 as f64 * a2.1,
            );
            let dot = ch.0 * t.0 + ch.1 * t.1;
            assert!(dot.abs() < 1e-9, "Ch·T != 0 for ({n},{m})");
            let _ = PI;
        }
    }

    #[test]
    fn hexagon_count_even_and_positive() {
        for &(n, m) in &[(4, 0), (5, 5), (6, 3), (11, 2), (17, 0)] {
            let c = Chirality::new(n, m).unwrap();
            assert!(c.hexagon_count() > 0);
        }
    }

    #[test]
    fn gap_estimate_scales_inversely_with_diameter() {
        let small = Chirality::new(7, 0).unwrap(); // semiconducting
        let large = Chirality::new(13, 0).unwrap(); // semiconducting
        assert!(small.band_gap_estimate_ev() > large.band_gap_estimate_ev());
        assert_eq!(Chirality::new(9, 0).unwrap().band_gap_estimate_ev(), 0.0);
    }

    #[test]
    fn diameter_range_enumeration_is_bounded() {
        let none = Chirality::all_in_diameter_range(
            Length::from_nanometers(2.0),
            Length::from_nanometers(1.0),
        );
        assert!(none.is_empty());
        let some = Chirality::all_in_diameter_range(
            Length::from_nanometers(0.7),
            Length::from_nanometers(0.8),
        );
        for c in &some {
            let d = c.diameter().nanometers();
            assert!((0.7..=0.8).contains(&d));
        }
    }

    #[test]
    fn display_formats() {
        let c = Chirality::new(7, 5).unwrap();
        assert_eq!(format!("{c}"), "(7, 5)");
        assert_eq!(format!("{}", c.family()), "chiral");
    }
}
