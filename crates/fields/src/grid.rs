//! Structured, uniform 3-D grid used by the finite-volume discretization.
//!
//! Nodes carry the potential `ψ`; cells (the hexahedra between eight
//! neighbouring nodes) carry the material coefficient (`ε` for capacitance
//! solves, `κ` for resistance solves). Node `(i, j, k)` sits at
//! `origin + (i·hx, j·hy, k·hz)`.

use crate::{Error, Result};

/// A uniform structured grid over a rectangular domain anchored at the
/// origin.
///
/// # Example
///
/// ```
/// use cnt_fields::grid::Grid3;
///
/// let g = Grid3::new([1e-6, 2e-6, 3e-6], [11, 21, 31])?;
/// assert_eq!(g.node_count(), 11 * 21 * 31);
/// assert_eq!(g.cell_count(), 10 * 20 * 30);
/// let (i, j, k) = g.node_indices(g.node_index(3, 4, 5));
/// assert_eq!((i, j, k), (3, 4, 5));
/// # Ok::<(), cnt_fields::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    size: [f64; 3],
    nodes: [usize; 3],
    spacing: [f64; 3],
}

impl Grid3 {
    /// Creates a grid spanning `[0, size]³` with the given node counts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::GridTooSmall`] when any axis has fewer than 2 nodes
    /// or a non-positive extent.
    pub fn new(size: [f64; 3], nodes: [usize; 3]) -> Result<Self> {
        if nodes.iter().any(|&n| n < 2) || size.iter().any(|&s| s <= 0.0) {
            return Err(Error::GridTooSmall { nodes });
        }
        let spacing = [
            size[0] / (nodes[0] - 1) as f64,
            size[1] / (nodes[1] - 1) as f64,
            size[2] / (nodes[2] - 1) as f64,
        ];
        Ok(Self {
            size,
            nodes,
            spacing,
        })
    }

    /// Node counts per axis.
    pub fn nodes(&self) -> [usize; 3] {
        self.nodes
    }

    /// Node spacing per axis, metres.
    pub fn spacing(&self) -> [f64; 3] {
        self.spacing
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes[0] * self.nodes[1] * self.nodes[2]
    }

    /// Cell counts per axis.
    pub fn cells(&self) -> [usize; 3] {
        [self.nodes[0] - 1, self.nodes[1] - 1, self.nodes[2] - 1]
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        let c = self.cells();
        c[0] * c[1] * c[2]
    }

    /// Flattens node indices `(i, j, k)` to a linear index.
    #[inline]
    pub fn node_index(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.nodes[1] + j) * self.nodes[0] + i
    }

    /// Inverse of [`Grid3::node_index`].
    #[inline]
    pub fn node_indices(&self, idx: usize) -> (usize, usize, usize) {
        let i = idx % self.nodes[0];
        let j = (idx / self.nodes[0]) % self.nodes[1];
        let k = idx / (self.nodes[0] * self.nodes[1]);
        (i, j, k)
    }

    /// Flattens cell indices `(i, j, k)` to a linear index.
    #[inline]
    pub fn cell_index(&self, i: usize, j: usize, k: usize) -> usize {
        let c = self.cells();
        (k * c[1] + j) * c[0] + i
    }

    /// Physical position of node `(i, j, k)`.
    pub fn node_position(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [
            i as f64 * self.spacing[0],
            j as f64 * self.spacing[1],
            k as f64 * self.spacing[2],
        ]
    }

    /// Physical centre of cell `(i, j, k)`.
    pub fn cell_center(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [
            (i as f64 + 0.5) * self.spacing[0],
            (j as f64 + 0.5) * self.spacing[1],
            (k as f64 + 0.5) * self.spacing[2],
        ]
    }

    /// `true` if the axis-aligned box `[min, max]` is inside the domain
    /// (with a small tolerance for floating-point round-off).
    pub fn contains_box(&self, min: [f64; 3], max: [f64; 3]) -> bool {
        let tol = 1e-12;
        (0..3)
            .all(|a| min[a] >= -self.size[a] * tol - 1e-18 && max[a] <= self.size[a] * (1.0 + tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_grids() {
        assert!(Grid3::new([1.0, 1.0, 1.0], [1, 5, 5]).is_err());
        assert!(Grid3::new([0.0, 1.0, 1.0], [5, 5, 5]).is_err());
        assert!(Grid3::new([1.0, -1.0, 1.0], [5, 5, 5]).is_err());
    }

    #[test]
    fn index_roundtrip_full_grid() {
        let g = Grid3::new([1.0, 1.0, 1.0], [4, 5, 6]).unwrap();
        for k in 0..6 {
            for j in 0..5 {
                for i in 0..4 {
                    let idx = g.node_index(i, j, k);
                    assert_eq!(g.node_indices(idx), (i, j, k));
                }
            }
        }
        assert_eq!(g.node_count(), 120);
        assert_eq!(g.cell_count(), 3 * 4 * 5);
    }

    #[test]
    fn positions_and_spacing() {
        let g = Grid3::new([2.0, 4.0, 8.0], [3, 5, 9]).unwrap();
        assert_eq!(g.spacing(), [1.0, 1.0, 1.0]);
        assert_eq!(g.node_position(2, 4, 8), [2.0, 4.0, 8.0]);
        assert_eq!(g.cell_center(0, 0, 0), [0.5, 0.5, 0.5]);
    }

    #[test]
    fn box_containment() {
        let g = Grid3::new([1.0, 1.0, 1.0], [5, 5, 5]).unwrap();
        assert!(g.contains_box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]));
        assert!(g.contains_box([0.2, 0.2, 0.2], [0.8, 0.8, 0.8]));
        assert!(!g.contains_box([0.0, 0.0, 0.0], [1.5, 1.0, 1.0]));
    }
}
