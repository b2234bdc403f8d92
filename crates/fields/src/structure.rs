//! Geometry description: painted boxes of dielectric, resistive metal and
//! equipotential conductors, discretized onto a [`Grid3`].
//!
//! The builder follows the painter's algorithm: later boxes override
//! earlier ones, so a typical flow paints the background dielectric first,
//! then wires, vias and electrodes. Box faces snap to the grid: a cell
//! takes the region covering its centre; a node belongs to a conductor if
//! the conductor box contains it (within half a cell of tolerance).

use crate::grid::Grid3;
use crate::{Error, Result};
use cnt_units::consts::EPS_0;

/// Physical role of a painted box.
#[derive(Debug, Clone, PartialEq)]
enum Region {
    /// Insulator with relative permittivity `eps_r` (paper Eq. 2).
    Dielectric { eps_r: f64 },
    /// Resistive metal with conductivity `sigma` in S/m (paper Eq. 3).
    Resistive { sigma: f64 },
    /// Equipotential electrode / terminal.
    Conductor { id: u16 },
}

#[derive(Debug, Clone, PartialEq)]
struct PaintedBox {
    min: [f64; 3],
    max: [f64; 3],
    region: Region,
}

/// Incremental builder for a [`Structure`] (C-BUILDER).
///
/// # Example
///
/// ```
/// use cnt_fields::structure::StructureBuilder;
///
/// let mut b = StructureBuilder::new([1e-6, 1e-6, 1e-6]);
/// b.dielectric([0.0, 0.0, 0.0], [1e-6, 1e-6, 1e-6], 3.9)
///     .conductor("wire", [0.2e-6, 0.4e-6, 0.4e-6], [0.8e-6, 0.6e-6, 0.6e-6]);
/// let s = b.build([11, 11, 11])?;
/// assert_eq!(s.conductor_labels(), ["wire"]);
/// # Ok::<(), cnt_fields::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct StructureBuilder {
    domain: [f64; 3],
    background_eps_r: f64,
    boxes: Vec<PaintedBox>,
    labels: Vec<String>,
}

impl StructureBuilder {
    /// Starts a structure over the rectangular domain `[0, domain]` metres.
    pub fn new(domain: [f64; 3]) -> Self {
        Self {
            domain,
            background_eps_r: 1.0,
            boxes: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Sets the background relative permittivity (default 1.0).
    pub fn background_permittivity(&mut self, eps_r: f64) -> &mut Self {
        self.background_eps_r = eps_r;
        self
    }

    /// Paints a dielectric box with relative permittivity `eps_r`.
    pub fn dielectric(&mut self, min: [f64; 3], max: [f64; 3], eps_r: f64) -> &mut Self {
        self.boxes.push(PaintedBox {
            min,
            max,
            region: Region::Dielectric { eps_r },
        });
        self
    }

    /// Paints a resistive-metal box with conductivity `sigma` (S/m).
    pub fn resistive(&mut self, min: [f64; 3], max: [f64; 3], sigma: f64) -> &mut Self {
        self.boxes.push(PaintedBox {
            min,
            max,
            region: Region::Resistive { sigma },
        });
        self
    }

    /// Paints an equipotential conductor (electrode / terminal) with a
    /// label used to reference it in extraction results. Re-using a label
    /// extends the same electrical node (e.g. an L-shaped electrode from
    /// two boxes).
    pub fn conductor(&mut self, label: &str, min: [f64; 3], max: [f64; 3]) -> &mut Self {
        let id = match self.labels.iter().position(|l| l == label) {
            Some(i) => i as u16,
            None => {
                self.labels.push(label.to_string());
                (self.labels.len() - 1) as u16
            }
        };
        self.boxes.push(PaintedBox {
            min,
            max,
            region: Region::Conductor { id },
        });
        self
    }

    /// Discretizes the painted geometry onto a grid with the given node
    /// counts.
    ///
    /// # Errors
    ///
    /// * [`Error::GridTooSmall`] for degenerate node counts;
    /// * [`Error::DegenerateBox`] / [`Error::BoxOutOfDomain`] for bad boxes;
    /// * [`Error::InvalidMaterial`] for non-positive `eps_r` / `sigma`.
    pub fn build(&self, nodes: [usize; 3]) -> Result<Structure> {
        let grid = Grid3::new(self.domain, nodes)?;
        if self.background_eps_r <= 0.0 {
            return Err(Error::InvalidMaterial {
                name: "background_eps_r",
                value: self.background_eps_r,
            });
        }
        for b in &self.boxes {
            if (0..3).any(|a| b.max[a] <= b.min[a]) {
                return Err(Error::DegenerateBox {
                    min: b.min,
                    max: b.max,
                });
            }
            if !grid.contains_box(b.min, b.max) {
                return Err(Error::BoxOutOfDomain {
                    min: b.min,
                    max: b.max,
                });
            }
            match b.region {
                Region::Dielectric { eps_r } if eps_r <= 0.0 => {
                    return Err(Error::InvalidMaterial {
                        name: "eps_r",
                        value: eps_r,
                    })
                }
                Region::Resistive { sigma } if sigma <= 0.0 => {
                    return Err(Error::InvalidMaterial {
                        name: "sigma",
                        value: sigma,
                    })
                }
                _ => {}
            }
        }

        // Paint cells (centre test, painter's order: last box wins).
        let cells = grid.cells();
        let mut cell_eps = vec![self.background_eps_r * EPS_0; grid.cell_count()];
        let mut cell_sigma = vec![0.0f64; grid.cell_count()];
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    let c = grid.cell_center(i, j, k);
                    let idx = grid.cell_index(i, j, k);
                    let mut pending_conductor = false;
                    for b in self.boxes.iter().rev() {
                        if contains(b, c, 0.0) {
                            match b.region {
                                Region::Dielectric { eps_r } => {
                                    if pending_conductor {
                                        // Terminal painted over a dielectric:
                                        // behave as metal in resistance solves.
                                        cell_sigma[idx] = PERFECT_CONDUCTOR_SIGMA;
                                    } else {
                                        cell_eps[idx] = eps_r * EPS_0;
                                        cell_sigma[idx] = 0.0;
                                    }
                                }
                                Region::Resistive { sigma } => {
                                    if pending_conductor {
                                        // Terminal painted over metal keeps
                                        // the metal's conductivity — this
                                        // avoids artificial conductivity
                                        // contrast at contacts (the nodes are
                                        // Dirichlet anyway).
                                        cell_sigma[idx] = sigma;
                                    } else {
                                        cell_eps[idx] = self.background_eps_r * EPS_0;
                                        cell_sigma[idx] = sigma;
                                    }
                                }
                                Region::Conductor { .. } => {
                                    if pending_conductor {
                                        continue;
                                    }
                                    cell_eps[idx] = self.background_eps_r * EPS_0;
                                    cell_sigma[idx] = PERFECT_CONDUCTOR_SIGMA;
                                    // Keep scanning to inherit the underlying
                                    // material's conductivity.
                                    pending_conductor = true;
                                    continue;
                                }
                            }
                            break;
                        }
                    }
                }
            }
        }

        // Label nodes: a node is owned by the topmost conductor box that
        // contains it (within a half-spacing tolerance).
        let sp = grid.spacing();
        let tol = 0.5 * sp[0].min(sp[1]).min(sp[2]);
        let n = grid.nodes();
        let mut node_conductor = vec![None; grid.node_count()];
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    let p = grid.node_position(i, j, k);
                    let idx = grid.node_index(i, j, k);
                    for b in self.boxes.iter().rev() {
                        if contains(b, p, tol * 1e-6) {
                            node_conductor[idx] = match b.region {
                                Region::Conductor { id } => Some(id),
                                _ => None,
                            };
                            break;
                        }
                    }
                }
            }
        }

        Ok(Structure {
            grid,
            cell_eps,
            cell_sigma,
            node_conductor,
            labels: self.labels.clone(),
        })
    }
}

/// Effective conductivity assigned to equipotential conductor cells in
/// resistance solves (S/m). Far above copper so terminals add negligible
/// series resistance.
pub const PERFECT_CONDUCTOR_SIGMA: f64 = 1.0e12;

fn contains(b: &PaintedBox, p: [f64; 3], tol: f64) -> bool {
    (0..3).all(|a| p[a] >= b.min[a] - tol && p[a] <= b.max[a] + tol)
}

/// A discretized structure ready for field solves.
#[derive(Debug, Clone)]
pub struct Structure {
    grid: Grid3,
    cell_eps: Vec<f64>,
    cell_sigma: Vec<f64>,
    node_conductor: Vec<Option<u16>>,
    labels: Vec<String>,
}

impl Structure {
    /// The discretization grid.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// Conductor labels in id order.
    pub fn conductor_labels(&self) -> Vec<&str> {
        self.labels.iter().map(String::as_str).collect()
    }

    /// Number of distinct conductors.
    pub fn conductor_count(&self) -> usize {
        self.labels.len()
    }

    /// Looks up a conductor id by label.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownConductor`] for unknown labels.
    pub fn conductor_id(&self, label: &str) -> Result<u16> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| i as u16)
            .ok_or_else(|| Error::UnknownConductor {
                label: label.to_string(),
            })
    }

    /// Conductor id owning each node (if any).
    pub fn node_conductor(&self) -> &[Option<u16>] {
        &self.node_conductor
    }

    /// Per-cell absolute permittivity (F/m) for capacitance solves.
    pub fn permittivity_coefficients(&self) -> &[f64] {
        &self.cell_eps
    }

    /// Per-cell conductivity (S/m) for resistance solves.
    pub fn conductivity_coefficients(&self) -> &[f64] {
        &self.cell_sigma
    }

    /// Count of nodes owned by conductor `id`.
    pub fn conductor_node_count(&self, id: u16) -> usize {
        self.node_conductor
            .iter()
            .filter(|c| **c == Some(id))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_builder() -> StructureBuilder {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
        b
    }

    #[test]
    fn build_validates_boxes_and_materials() {
        let mut b = unit_builder();
        b.dielectric([0.0, 0.0, 0.0], [2.0, 1.0, 1.0], 1.0);
        assert!(matches!(
            b.build([5, 5, 5]),
            Err(Error::BoxOutOfDomain { .. })
        ));

        let mut b = unit_builder();
        b.dielectric([0.5, 0.5, 0.5], [0.5, 0.8, 0.8], 1.0);
        assert!(matches!(
            b.build([5, 5, 5]),
            Err(Error::DegenerateBox { .. })
        ));

        let mut b = unit_builder();
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], -2.0);
        assert!(matches!(
            b.build([5, 5, 5]),
            Err(Error::InvalidMaterial { .. })
        ));

        let mut b = unit_builder();
        b.resistive([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.0);
        assert!(matches!(
            b.build([5, 5, 5]),
            Err(Error::InvalidMaterial { .. })
        ));
    }

    #[test]
    fn painter_order_later_wins() {
        let mut b = unit_builder();
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 3.9);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 0.5], 2.0);
        let s = b.build([5, 5, 5]).unwrap();
        let g = s.grid();
        // Cell at bottom: painted 2.0; top: 3.9.
        let bottom = s.permittivity_coefficients()[g.cell_index(0, 0, 0)];
        let top = s.permittivity_coefficients()[g.cell_index(0, 0, 3)];
        assert!((bottom / EPS_0 - 2.0).abs() < 1e-9);
        assert!((top / EPS_0 - 3.9).abs() < 1e-9);
    }

    #[test]
    fn conductor_labels_and_node_ownership() {
        let mut b = unit_builder();
        b.conductor("a", [0.0, 0.0, 0.0], [1.0, 1.0, 0.25]);
        b.conductor("b", [0.0, 0.0, 0.75], [1.0, 1.0, 1.0]);
        let s = b.build([5, 5, 5]).unwrap();
        assert_eq!(s.conductor_labels(), ["a", "b"]);
        assert_eq!(s.conductor_id("b").unwrap(), 1);
        assert!(s.conductor_id("c").is_err());
        // Bottom two node layers belong to "a": 2 × 25 nodes.
        assert_eq!(s.conductor_node_count(0), 50);
        assert_eq!(s.conductor_node_count(1), 50);
    }

    #[test]
    fn same_label_extends_conductor() {
        let mut b = unit_builder();
        b.conductor("l", [0.0, 0.0, 0.0], [0.25, 0.25, 1.0]);
        b.conductor("l", [0.0, 0.75, 0.0], [0.25, 1.0, 1.0]);
        let s = b.build([5, 5, 5]).unwrap();
        assert_eq!(s.conductor_count(), 1);
        assert!(s.conductor_node_count(0) > 0);
    }

    #[test]
    fn resistive_cells_get_sigma_conductor_cells_get_metal() {
        let mut b = unit_builder();
        b.resistive([0.0, 0.0, 0.0], [1.0, 1.0, 0.5], 5.8e7);
        b.conductor("t", [0.0, 0.0, 0.5], [1.0, 1.0, 1.0]);
        let s = b.build([5, 5, 5]).unwrap();
        let g = s.grid();
        assert!((s.conductivity_coefficients()[g.cell_index(0, 0, 0)] - 5.8e7).abs() < 1.0);
        assert_eq!(
            s.conductivity_coefficients()[g.cell_index(0, 0, 3)],
            PERFECT_CONDUCTOR_SIGMA
        );
    }
}
