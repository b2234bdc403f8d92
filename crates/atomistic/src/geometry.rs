//! Atomic geometry of carbon nanotubes and dopant structures.
//!
//! Regenerates the paper's Fig. 8b: the atomic structure of CNT(7,7) with
//! and without an internal iodine chain. Atom positions are produced by the
//! exact roll-up construction (graphene lattice points mapped onto a
//! cylinder through the `(Ch, T)` basis, with integer arithmetic for the
//! unit-cell wrap so no atom is lost or duplicated) and can be exported in
//! the standard XYZ format for any molecular viewer.

use crate::chirality::Chirality;
use crate::{Error, Result};
use cnt_units::si::Length;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Chemical species appearing in the structures of this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    /// Carbon.
    C,
    /// Iodine (internal charge-transfer dopant, Fig. 8b).
    I,
    /// Platinum (PtCl₄ dopant network, Fig. 3).
    Pt,
    /// Chlorine (PtCl₄ dopant network, Fig. 3).
    Cl,
}

impl Element {
    /// Chemical symbol as used in XYZ files.
    fn symbol(self) -> &'static str {
        match self {
            Element::C => "C",
            Element::I => "I",
            Element::Pt => "Pt",
            Element::Cl => "Cl",
        }
    }
}

/// One atom with a Cartesian position (metres). The tube axis is `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Chemical species.
    pub element: Element,
    /// Position `[x, y, z]` in metres.
    pub position_m: [f64; 3],
}

/// Generates the `2N` carbon atoms of one translation unit cell of the tube.
///
/// The construction maps each graphene lattice point (both sublattices) to
/// fractional coordinates `(u, v)` in the `(Ch, T)` basis; integer
/// arithmetic over the common denominator `3N` makes the periodic wrap
/// exact, so the function always emits exactly `2N` atoms.
///
/// # Example
///
/// ```
/// use cnt_atomistic::chirality::Chirality;
/// use cnt_atomistic::geometry::tube_unit_cell;
///
/// let c = Chirality::new(7, 7)?;
/// let atoms = tube_unit_cell(c);
/// assert_eq!(atoms.len(), 2 * c.hexagon_count() as usize);
/// # Ok::<(), cnt_atomistic::Error>(())
/// ```
pub fn tube_unit_cell(chirality: Chirality) -> Vec<Atom> {
    let n = chirality.n() as i64;
    let m = chirality.m() as i64;
    let (t1, t2) = chirality.translation_indices();
    let (t1, t2) = (t1 as i64, t2 as i64);
    let n_hex = chirality.hexagon_count() as i64;
    let denom = 3 * n_hex;

    let radius = chirality.diameter().meters() / 2.0;
    let t_len = chirality.translation_length().meters();

    // Enumeration window: lattice points that can fall inside the cell
    // spanned by Ch = (n, m) and T = (t1, t2) in the (a1, a2) basis.
    let i_lo = [0, n, t1, n + t1].into_iter().min().unwrap() - 2;
    let i_hi = [0, n, t1, n + t1].into_iter().max().unwrap() + 2;
    let j_lo = [0, m, t2, m + t2].into_iter().min().unwrap() - 2;
    let j_hi = [0, m, t2, m + t2].into_iter().max().unwrap() + 2;

    let mut seen: HashSet<(i64, i64, u8)> = HashSet::new();
    let mut atoms = Vec::with_capacity(2 * n_hex as usize);

    for i in i_lo..=i_hi {
        for j in j_lo..=j_hi {
            for (sub, offset) in [(0u8, 0i64), (1u8, 1i64)] {
                // Fractional coordinates scaled by 3N:
                //   u = (t1·j − t2·i)/N,  v = (m·i − n·j)/N  (+ sublattice
                //   offset of 1/3 on both i and j for the B atom).
                let p = 3 * (t1 * j - t2 * i) + offset * (t1 - t2);
                let q = 3 * (m * i - n * j) + offset * (m - n);
                let p = p.rem_euclid(denom);
                let q = q.rem_euclid(denom);
                if !seen.insert((p, q, 0)) {
                    continue;
                }
                let u = p as f64 / denom as f64;
                let v = q as f64 / denom as f64;
                let theta = 2.0 * core::f64::consts::PI * u;
                atoms.push(Atom {
                    element: Element::C,
                    position_m: [radius * theta.cos(), radius * theta.sin(), v * t_len],
                });
                let _ = sub;
            }
        }
    }
    debug_assert_eq!(atoms.len() as i64, 2 * n_hex);
    atoms
}

/// Generates a tube segment of at least `length`, made of whole unit cells.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a non-positive length.
pub fn tube_segment(chirality: Chirality, length: Length) -> Result<Vec<Atom>> {
    if length.meters() <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "length",
            value: length.meters(),
        });
    }
    let cell = tube_unit_cell(chirality);
    let t_len = chirality.translation_length().meters();
    let cells = (length.meters() / t_len).ceil().max(1.0) as usize;
    let mut out = Vec::with_capacity(cell.len() * cells);
    for c in 0..cells {
        let dz = c as f64 * t_len;
        out.extend(cell.iter().map(|a| Atom {
            element: a.element,
            position_m: [a.position_m[0], a.position_m[1], a.position_m[2] + dz],
        }));
    }
    Ok(out)
}

/// Spacing of iodine atoms in a confined polyiodide chain (≈ 3.1 Å).
pub const IODINE_SPACING: f64 = 0.31e-9;

/// Generates a linear iodine chain of at least `length` along the tube axis.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a non-positive length.
fn iodine_chain(length: Length) -> Result<Vec<Atom>> {
    if length.meters() <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "length",
            value: length.meters(),
        });
    }
    let count = (length.meters() / IODINE_SPACING).ceil().max(1.0) as usize;
    Ok((0..count)
        .map(|k| Atom {
            element: Element::I,
            position_m: [0.0, 0.0, k as f64 * IODINE_SPACING],
        })
        .collect())
}

/// Builds the doped structure of the paper's Fig. 8b: a CNT segment with an
/// internal axial iodine chain.
///
/// # Errors
///
/// Propagates [`Error::InvalidParameter`] for a non-positive length, and
/// rejects tubes too narrow to host an iodine chain (inner radius below
/// ~0.25 nm).
pub fn doped_tube_with_iodine(chirality: Chirality, length: Length) -> Result<Vec<Atom>> {
    let radius = chirality.diameter().meters() / 2.0;
    // Van der Waals clearance: iodine needs ≈ 0.25 nm of free radius.
    if radius < 0.25e-9 {
        return Err(Error::InvalidParameter {
            name: "tube radius (too small for internal doping)",
            value: radius,
        });
    }
    let mut atoms = tube_segment(chirality, length)?;
    atoms.extend(iodine_chain(length)?);
    Ok(atoms)
}

/// Serializes atoms to the standard XYZ text format (coordinates in Å).
///
/// ```
/// use cnt_atomistic::chirality::Chirality;
/// use cnt_atomistic::geometry::{to_xyz, tube_unit_cell};
///
/// let atoms = tube_unit_cell(Chirality::new(5, 5)?);
/// let xyz = to_xyz(&atoms, "CNT(5,5) unit cell");
/// // 2N = 20 atoms for (5,5).
/// assert!(xyz.starts_with("20\nCNT(5,5) unit cell\n"));
/// # Ok::<(), cnt_atomistic::Error>(())
/// ```
pub fn to_xyz(atoms: &[Atom], comment: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{}", atoms.len());
    let _ = writeln!(s, "{}", comment.replace('\n', " "));
    for a in atoms {
        let _ = writeln!(
            s,
            "{} {:.6} {:.6} {:.6}",
            a.element.symbol(),
            a.position_m[0] * 1e10,
            a.position_m[1] * 1e10,
            a.position_m[2] * 1e10,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Atom {
        /// Distance to another atom.
        fn distance(&self, other: &Atom) -> Length {
            let d: f64 = self
                .position_m
                .iter()
                .zip(other.position_m.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            Length::from_meters(d)
        }

        /// Radial distance from the tube axis (`z`), metres.
        fn radius(&self) -> f64 {
            self.position_m[0].hypot(self.position_m[1])
        }
    }

    /// Counts, for each atom, its bonds within `cutoff`, treating the cell as
    /// periodic along `z` with period `period`. Used to validate that every
    /// carbon has exactly three bonds.
    ///
    /// Periodic images are counted separately: in short-period cells (armchair
    /// tubes have `T = a`) an atom legitimately bonds to the same neighbour
    /// twice — once directly and once through the image.
    fn coordination_numbers(atoms: &[Atom], cutoff: Length, period: Length) -> Vec<usize> {
        let cut = cutoff.meters();
        let per = period.meters();
        let images: &[f64] = if per > 0.0 { &[-1.0, 0.0, 1.0] } else { &[0.0] };
        atoms
            .iter()
            .map(|a| {
                atoms
                    .iter()
                    .filter(|b| !core::ptr::eq(a, *b))
                    .map(|b| {
                        let dx = a.position_m[0] - b.position_m[0];
                        let dy = a.position_m[1] - b.position_m[1];
                        images
                            .iter()
                            .filter(|&&img| {
                                let dz = a.position_m[2] - b.position_m[2] + img * per;
                                (dx * dx + dy * dy + dz * dz).sqrt() < cut
                            })
                            .count()
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn unit_cell_atom_count_is_2n() {
        for &(n, m) in &[(5, 5), (7, 7), (9, 0), (13, 0), (10, 5), (8, 2)] {
            let c = Chirality::new(n, m).unwrap();
            let atoms = tube_unit_cell(c);
            assert_eq!(
                atoms.len(),
                2 * c.hexagon_count() as usize,
                "atom count for ({n},{m})"
            );
        }
    }

    #[test]
    fn all_atoms_sit_on_the_cylinder() {
        let c = Chirality::new(7, 7).unwrap();
        let r = c.diameter().meters() / 2.0;
        for a in tube_unit_cell(c) {
            assert!((a.radius() - r).abs() < 1e-15);
            let t = c.translation_length().meters();
            assert!(a.position_m[2] >= -1e-15 && a.position_m[2] < t + 1e-15);
        }
    }

    #[test]
    fn every_carbon_has_three_bonds() {
        for &(n, m) in &[(7, 7), (9, 0), (10, 5)] {
            let c = Chirality::new(n, m).unwrap();
            let atoms = tube_unit_cell(c);
            // Chord shortening from curvature keeps bonds under a_cc; a
            // 1.25·a_cc cutoff separates first from second neighbours.
            let coord = coordination_numbers(
                &atoms,
                Length::from_meters(1.25 * cnt_units::consts::A_CC),
                c.translation_length(),
            );
            for (idx, &k) in coord.iter().enumerate() {
                assert_eq!(k, 3, "atom {idx} of ({n},{m}) has {k} bonds");
            }
        }
    }

    #[test]
    fn bond_lengths_close_to_acc() {
        let c = Chirality::new(10, 10).unwrap();
        let atoms = tube_unit_cell(c);
        let acc = cnt_units::consts::A_CC;
        let mut found = 0;
        for (i, a) in atoms.iter().enumerate() {
            for b in atoms.iter().skip(i + 1) {
                let d = a.distance(b).meters();
                if d < 1.25 * acc {
                    assert!(d > 0.9 * acc, "bond too short: {d}");
                    assert!(d <= acc * 1.001, "chord cannot exceed arc: {d}");
                    found += 1;
                }
            }
        }
        assert!(found > 0, "no bonds found");
    }

    #[test]
    fn segment_covers_requested_length() {
        let c = Chirality::new(7, 7).unwrap();
        let seg = tube_segment(c, Length::from_nanometers(2.0)).unwrap();
        let zmax = seg
            .iter()
            .map(|a| a.position_m[2])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(zmax >= 1.7e-9, "segment too short: {zmax}");
        assert!(tube_segment(c, Length::ZERO).is_err());
    }

    #[test]
    fn doped_structure_contains_iodine_inside() {
        let c = Chirality::new(7, 7).unwrap();
        let atoms = doped_tube_with_iodine(c, Length::from_nanometers(1.0)).unwrap();
        let iodines: Vec<&Atom> = atoms.iter().filter(|a| a.element == Element::I).collect();
        assert!(!iodines.is_empty());
        for i in &iodines {
            assert!(i.radius() < c.diameter().meters() / 2.0);
        }
        // A (4,0) tube (d ≈ 0.31 nm) cannot host an iodine chain.
        let tiny = Chirality::new(4, 0).unwrap();
        assert!(doped_tube_with_iodine(tiny, Length::from_nanometers(1.0)).is_err());
    }

    #[test]
    fn xyz_format_roundtrip_fields() {
        let atoms = tube_unit_cell(Chirality::new(5, 0).unwrap());
        let xyz = to_xyz(&atoms, "test\nwith newline");
        let mut lines = xyz.lines();
        assert_eq!(lines.next().unwrap(), format!("{}", atoms.len()));
        assert!(!lines.next().unwrap().contains('\n'));
        let first = lines.next().unwrap();
        assert!(first.starts_with("C "));
        assert_eq!(first.split_whitespace().count(), 4);
        assert_eq!(xyz.lines().count(), atoms.len() + 2);
    }

    #[test]
    fn iodine_chain_spacing() {
        let chain = iodine_chain(Length::from_nanometers(3.0)).unwrap();
        assert!(chain.len() >= 9);
        for w in chain.windows(2) {
            let d = w[0].distance(&w[1]).meters();
            assert!((d - IODINE_SPACING).abs() < 1e-15);
        }
    }
}
