//! Capacitance-matrix and resistance extraction (paper Fig. 10).
//!
//! Capacitance: conductor `i` is driven to 1 V with all others grounded;
//! the Gauss-flux around each conductor yields row `i` of the Maxwell
//! capacitance matrix. Resistance: two terminals are driven to 1 V / 0 V
//! through the conductivity stencil; the terminal flux is the current, and
//! the per-cell current density exposes the hot spots the paper highlights
//! in Fig. 10b.

use crate::solver::{SolverOptions, StencilSystem};
use crate::structure::Structure;
use crate::{Error, Result};
use cnt_units::si::{Capacitance, Current, Resistance, Voltage};
use std::array::from_fn;

/// Maxwell capacitance matrix of a multi-conductor structure.
#[derive(Debug, Clone)]
pub struct CapacitanceResult {
    labels: Vec<String>,
    /// Maxwell matrix in farads: `matrix[i][j] = Q_j` for `V_i = 1`,
    /// so diagonals are positive and off-diagonals negative.
    matrix: Vec<Vec<f64>>,
}

impl CapacitanceResult {
    /// Assembles the Maxwell matrix of `structure` from its rows, row `i`
    /// being the excitation of conductor `i`.
    ///
    /// # Errors
    ///
    /// * [`Error::NotEnoughConductors`] if fewer than 2 conductors are
    ///   painted;
    /// * [`Error::IllPosed`] unless there is one row of one entry per
    ///   conductor.
    fn from_rows(structure: &Structure, rows: Vec<Vec<f64>>) -> Result<Self> {
        check_conductor_count(structure)?;
        let n_cond = structure.conductor_count();
        if rows.len() != n_cond || rows.iter().any(|r| r.len() != n_cond) {
            return Err(Error::IllPosed(
                "capacitance rows must form a square matrix, one row per conductor",
            ));
        }
        Ok(Self {
            labels: structure
                .conductor_labels()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            matrix: rows,
        })
    }

    /// Conductor labels in matrix order.
    pub fn labels(&self) -> Vec<&str> {
        self.labels.iter().map(String::as_str).collect()
    }

    /// The raw Maxwell matrix in farads.
    pub fn matrix(&self) -> &[Vec<f64>] {
        &self.matrix
    }

    fn index(&self, label: &str) -> Result<usize> {
        self.labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| Error::UnknownConductor {
                label: label.to_string(),
            })
    }

    /// Coupling (mutual) capacitance between two conductors:
    /// `−(C_ij + C_ji)/2`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownConductor`] for unknown labels.
    pub fn coupling(&self, a: &str, b: &str) -> Result<Capacitance> {
        let i = self.index(a)?;
        let j = self.index(b)?;
        if i == j {
            return Ok(Capacitance::ZERO);
        }
        Ok(Capacitance::from_farads(
            -(self.matrix[i][j] + self.matrix[j][i]) / 2.0,
        ))
    }

    /// Capacitance from a conductor to the common ground (what is left of
    /// the diagonal after subtracting all couplings).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownConductor`] for unknown labels.
    pub fn to_ground(&self, label: &str) -> Result<Capacitance> {
        let i = self.index(label)?;
        let couplings: f64 = (0..self.labels.len())
            .filter(|&j| j != i)
            .map(|j| -(self.matrix[i][j] + self.matrix[j][i]) / 2.0)
            .sum();
        Ok(Capacitance::from_farads(
            (self.matrix[i][i] - couplings).max(0.0),
        ))
    }

    /// Largest relative asymmetry `|C_ij − C_ji| / C_ii` — a discretization
    /// quality metric (0 for a perfectly converged solve).
    pub fn asymmetry(&self) -> f64 {
        let n = self.labels.len();
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in i + 1..n {
                let denom = self.matrix[i][i].abs().max(self.matrix[j][j].abs());
                if denom > 0.0 {
                    worst = worst.max((self.matrix[i][j] - self.matrix[j][i]).abs() / denom);
                }
            }
        }
        worst
    }
}

/// Extracts the full Maxwell capacitance matrix of `structure`.
///
/// Every excitation (one conductor at 1 V, all others grounded) shares
/// one stencil and one set of pinned nodes, so the stencil is assembled
/// once and the excitations are solved together, as the lanes of one
/// [`StencilSystem`] solve per block of at most eight; see
/// `block_rows`.
///
/// # Errors
///
/// * [`Error::NotEnoughConductors`] if fewer than 2 conductors are painted;
/// * [`Error::IllPosed`] if a conductor owns no grid nodes;
/// * [`Error::NoConvergence`] from the inner solver.
pub fn extract_capacitance(
    structure: &Structure,
    options: &SolverOptions,
) -> Result<CapacitanceResult> {
    let _span = cnt_obs::span!("fields.capacitance");
    check_conductor_count(structure)?;
    let n_cond = structure.conductor_count();
    let mut owns_nodes = vec![false; n_cond];
    for &id in structure.node_conductor().iter().flatten() {
        owns_nodes[id as usize] = true;
    }
    if owns_nodes.contains(&false) {
        return Err(Error::IllPosed("conductor owns no grid nodes"));
    }
    let grounded = (structure.node_conductor().iter())
        .map(|c| c.map(|_| 0.0))
        .collect();
    let sys = StencilSystem::assemble(
        structure.grid(),
        structure.permittivity_coefficients(),
        grounded,
    );
    let mut rows = Vec::with_capacity(n_cond);
    while rows.len() < n_cond {
        // One block of lanes: every excitation left, at most eight.
        let first = rows.len();
        let next = |lane: usize| first + lane;
        match n_cond - first {
            1 => rows.extend(block_rows::<1>(structure, &sys, from_fn(next), options)?),
            2 => rows.extend(block_rows::<2>(structure, &sys, from_fn(next), options)?),
            3 => rows.extend(block_rows::<3>(structure, &sys, from_fn(next), options)?),
            4 => rows.extend(block_rows::<4>(structure, &sys, from_fn(next), options)?),
            5 => rows.extend(block_rows::<5>(structure, &sys, from_fn(next), options)?),
            6 => rows.extend(block_rows::<6>(structure, &sys, from_fn(next), options)?),
            7 => rows.extend(block_rows::<7>(structure, &sys, from_fn(next), options)?),
            _ => rows.extend(block_rows::<8>(structure, &sys, from_fn(next), options)?),
        }
    }
    CapacitanceResult::from_rows(structure, rows)
}

/// The Maxwell-matrix rows of conductors `drives`, as one `K`-lane solve
/// of `sys` (the structure's permittivity stencil with every conductor
/// node pinned). Lane `l` holds conductor `drives[l]` at 1 V and the
/// others grounded; entry `j` of its row is the Gauss flux collected by
/// conductor `j`, summed in node order.
///
/// Each lane runs the scalar CG of its own excitation, so a row has the
/// same bits at any lane position and in any block.
fn block_rows<const K: usize>(
    structure: &Structure,
    sys: &StencilSystem,
    drives: [usize; K],
    options: &SolverOptions,
) -> Result<[Vec<f64>; K]> {
    let owner = structure.node_conductor();
    let excite = |node: usize, _| {
        drives.map(|drive| match owner[node] {
            Some(id) if id as usize == drive => 1.0,
            _ => 0.0,
        })
    };
    let (psi, _) = sys.solve_lanes(excite, options)?;
    let flux = sys.lane_flux(&psi);
    let mut rows = drives.map(|_| vec![0.0; structure.conductor_count()]);
    for (node_flux, c) in flux.iter().zip(owner) {
        if let Some(id) = c {
            for (row, f) in rows.iter_mut().zip(node_flux) {
                row[*id as usize] += f;
            }
        }
    }
    Ok(rows)
}

fn check_conductor_count(structure: &Structure) -> Result<()> {
    let got = structure.conductor_count();
    if got < 2 {
        return Err(Error::NotEnoughConductors { got, min: 2 });
    }
    Ok(())
}

/// Location and magnitude of the peak current density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpot {
    /// Cell centre position, metres.
    pub position: [f64; 3],
    /// |J| at the hot spot, A/m².
    pub magnitude: f64,
}

/// Result of a two-terminal resistance extraction.
#[derive(Debug, Clone)]
pub struct ResistanceResult {
    /// Extracted resistance.
    pub resistance: Resistance,
    /// Terminal current at 1 V drive.
    pub current: Current,
    /// Nodal potentials (one per grid node).
    pub potentials: Vec<f64>,
    /// Per-cell current-density vectors, A/m².
    pub current_density: Vec<[f64; 3]>,
    /// Peak-|J| location — the paper's Fig. 10b "interconnect hot-spots".
    pub hot_spot: HotSpot,
    /// Relative mismatch between source and sink current (flux-conservation
    /// check; should be ≪ 1).
    pub flux_imbalance: f64,
}

/// Extracts the resistance between two painted terminals.
///
/// Other conductor regions (if any) float as near-perfect metal.
///
/// # Errors
///
/// * [`Error::UnknownConductor`] for unknown labels;
/// * [`Error::IllPosed`] if a terminal owns no nodes or no current flows;
/// * [`Error::NoConvergence`] from the inner solver.
pub fn extract_resistance(
    structure: &Structure,
    source: &str,
    sink: &str,
    options: &SolverOptions,
) -> Result<ResistanceResult> {
    let _span = cnt_obs::span!("fields.resistance");
    let src = structure.conductor_id(source)?;
    let snk = structure.conductor_id(sink)?;
    if src == snk {
        return Err(Error::IllPosed("source and sink are the same terminal"));
    }
    let grid = structure.grid();
    let coeff = structure.conductivity_coefficients();
    let node_cond = structure.node_conductor();
    if structure.conductor_node_count(src) == 0 || structure.conductor_node_count(snk) == 0 {
        return Err(Error::IllPosed("terminal owns no grid nodes"));
    }

    let dirichlet: Vec<Option<f64>> = node_cond
        .iter()
        .map(|c| match c {
            Some(id) if *id == src => Some(1.0),
            Some(id) if *id == snk => Some(0.0),
            _ => None, // other conductors float (their cells are near-perfect metal)
        })
        .collect();
    let sys = StencilSystem::assemble(grid, coeff, dirichlet);
    let psi = sys.solve(options)?;
    let flux = sys.node_flux(&psi);

    let mut i_src = 0.0;
    let mut i_snk = 0.0;
    for (idx, c) in node_cond.iter().enumerate() {
        match c {
            Some(id) if *id == src => i_src += flux[idx],
            Some(id) if *id == snk => i_snk += flux[idx],
            _ => {}
        }
    }
    if i_src.abs() < 1e-30 {
        return Err(Error::IllPosed("no current path between the terminals"));
    }
    let flux_imbalance = ((i_src + i_snk) / i_src).abs();

    // Per-cell current density J = σ·E, averaged over the cell's node pairs.
    let cells = grid.cells();
    let [hx, hy, hz] = grid.spacing();
    let mut current_density = vec![[0.0; 3]; grid.cell_count()];
    let mut hot = HotSpot {
        position: [0.0; 3],
        magnitude: 0.0,
    };
    for k in 0..cells[2] {
        for j in 0..cells[1] {
            for i in 0..cells[0] {
                let cidx = grid.cell_index(i, j, k);
                let sigma = coeff[cidx];
                if sigma == 0.0 {
                    continue;
                }
                let p =
                    |di: usize, dj: usize, dk: usize| psi[grid.node_index(i + di, j + dj, k + dk)];
                let ex = -((p(1, 0, 0) - p(0, 0, 0))
                    + (p(1, 1, 0) - p(0, 1, 0))
                    + (p(1, 0, 1) - p(0, 0, 1))
                    + (p(1, 1, 1) - p(0, 1, 1)))
                    / (4.0 * hx);
                let ey = -((p(0, 1, 0) - p(0, 0, 0))
                    + (p(1, 1, 0) - p(1, 0, 0))
                    + (p(0, 1, 1) - p(0, 0, 1))
                    + (p(1, 1, 1) - p(1, 0, 1)))
                    / (4.0 * hy);
                let ez = -((p(0, 0, 1) - p(0, 0, 0))
                    + (p(1, 0, 1) - p(1, 0, 0))
                    + (p(0, 1, 1) - p(0, 1, 0))
                    + (p(1, 1, 1) - p(1, 1, 0)))
                    / (4.0 * hz);
                let jvec = [sigma * ex, sigma * ey, sigma * ez];
                current_density[cidx] = jvec;
                // Skip near-perfect terminal metal when hunting hot spots —
                // the physical hot spot lives in the real resistive material.
                if sigma < crate::structure::PERFECT_CONDUCTOR_SIGMA {
                    let mag = (jvec[0] * jvec[0] + jvec[1] * jvec[1] + jvec[2] * jvec[2]).sqrt();
                    if mag > hot.magnitude {
                        hot = HotSpot {
                            position: grid.cell_center(i, j, k),
                            magnitude: mag,
                        };
                    }
                }
            }
        }
    }

    let v = Voltage::from_volts(1.0);
    let current = Current::from_amps(i_src.abs());
    Ok(ResistanceResult {
        resistance: v / current,
        current,
        potentials: psi,
        current_density,
        hot_spot: hot,
        flux_imbalance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::StructureBuilder;
    use cnt_units::consts::EPS_0;

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn parallel_plate_matches_analytic() {
        let mut b = StructureBuilder::new([1.0e-6, 1.0e-6, 0.4e-6]);
        b.dielectric([0.0, 0.0, 0.0], [1.0e-6, 1.0e-6, 0.4e-6], 3.9);
        b.conductor("bot", [0.0, 0.0, 0.0], [1.0e-6, 1.0e-6, 0.1e-6]);
        b.conductor("top", [0.0, 0.0, 0.3e-6], [1.0e-6, 1.0e-6, 0.4e-6]);
        let s = b.build([9, 9, 9]).unwrap();
        let r = extract_capacitance(&s, &opts()).unwrap();
        let analytic = 3.9 * EPS_0 * 1.0e-6 * 1.0e-6 / 0.2e-6;
        let c = r.coupling("bot", "top").unwrap().farads();
        assert!(
            (c - analytic).abs() / analytic < 0.02,
            "C = {c}, analytic = {analytic}"
        );
        assert!(r.asymmetry() < 1e-6);
    }

    #[test]
    fn maxwell_matrix_signs_and_errors() {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
        b.conductor("a", [0.0, 0.0, 0.0], [1.0, 1.0, 0.25]);
        b.conductor("b", [0.0, 0.0, 0.75], [1.0, 1.0, 1.0]);
        let s = b.build([7, 7, 9]).unwrap();
        let r = extract_capacitance(&s, &opts()).unwrap();
        let m = r.matrix();
        assert!(m[0][0] > 0.0 && m[1][1] > 0.0);
        assert!(m[0][1] < 0.0 && m[1][0] < 0.0);
        assert!(r.coupling("a", "a").unwrap() == Capacitance::ZERO);
        assert!(r.coupling("a", "zz").is_err());

        // One conductor only: not enough for extraction.
        let mut b1 = StructureBuilder::new([1.0, 1.0, 1.0]);
        b1.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
        b1.conductor("solo", [0.4, 0.4, 0.4], [0.6, 0.6, 0.6]);
        let s1 = b1.build([5, 5, 5]).unwrap();
        assert!(matches!(
            extract_capacitance(&s1, &opts()),
            Err(Error::NotEnoughConductors { .. })
        ));
        assert!(matches!(
            CapacitanceResult::from_rows(&s1, vec![vec![1.0]]),
            Err(Error::NotEnoughConductors { .. })
        ));
    }

    fn bits(m: &[Vec<f64>]) -> Vec<Vec<u64>> {
        m.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `structure`'s permittivity stencil with every conductor node
    /// pinned, as `extract_capacitance` assembles it.
    fn grounded_system(structure: &Structure) -> StencilSystem {
        let grounded = (structure.node_conductor().iter())
            .map(|c| c.map(|_| 0.0))
            .collect();
        StencilSystem::assemble(
            structure.grid(),
            structure.permittivity_coefficients(),
            grounded,
        )
    }

    #[test]
    fn rows_are_independent_of_lane_order_and_block_split() {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2.0);
        b.conductor("a", [0.0, 0.0, 0.0], [1.0, 1.0, 0.2]);
        b.conductor("b", [0.1, 0.1, 0.5], [0.3, 0.9, 0.6]);
        b.conductor("c", [0.7, 0.1, 0.5], [0.9, 0.9, 0.6]);
        let s = b.build([9, 7, 9]).unwrap();
        let sys = grounded_system(&s);
        let together = extract_capacitance(&s, &opts()).unwrap();

        // Reversed lanes, one lane per solve, and two uneven block splits.
        let [c, b, a] = block_rows(&s, &sys, [2, 1, 0], &opts()).unwrap();
        let reversed = vec![a, b, c];
        let single = (0..3)
            .map(|drive| block_rows(&s, &sys, [drive], &opts()).map(|[row]| row))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        let [a, b] = block_rows(&s, &sys, [0, 1], &opts()).unwrap();
        let [c] = block_rows(&s, &sys, [2], &opts()).unwrap();
        let split_late = vec![a, b, c];
        let [c, a] = block_rows(&s, &sys, [2, 0], &opts()).unwrap();
        let [b] = block_rows(&s, &sys, [1], &opts()).unwrap();
        let split_early = vec![a, b, c];
        for rows in [reversed, single, split_late, split_early] {
            let assembled = CapacitanceResult::from_rows(&s, rows).unwrap();
            assert_eq!(assembled.labels(), together.labels());
            assert_eq!(bits(assembled.matrix()), bits(together.matrix()));
        }

        for bad in [
            vec![vec![0.0; 3]; 2],
            vec![vec![0.0; 3], vec![0.0; 3], vec![0.0; 2]],
        ] {
            assert!(matches!(
                CapacitanceResult::from_rows(&s, bad),
                Err(Error::IllPosed(_))
            ));
        }
    }

    #[test]
    fn more_than_eight_conductors_solve_in_blocks() {
        // Ten wires over a ground plane: blocks of eight and two lanes.
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 3.0);
        b.conductor("ground", [0.0, 0.0, 0.0], [1.0, 1.0, 0.1]);
        for w in 0..9 {
            let x = 0.05 + 0.1 * w as f64;
            b.conductor(&format!("w{w}"), [x, 0.1, 0.4], [x + 0.05, 0.9, 0.5]);
        }
        let s = b.build([21, 7, 11]).unwrap();
        assert_eq!(s.conductor_count(), 10);
        let blocked = extract_capacitance(&s, &opts()).unwrap();
        let sys = grounded_system(&s);
        let single = (0..10)
            .map(|drive| block_rows(&s, &sys, [drive], &opts()).map(|[row]| row))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(bits(blocked.matrix()), bits(&single));
        assert!(blocked.coupling("w0", "w1").unwrap().farads() > 0.0);
        assert!(blocked.asymmetry() < 0.05, "{}", blocked.asymmetry());
    }

    #[test]
    fn conductor_without_grid_nodes_is_refused() {
        // Node planes at z = 0, 0.25, 0.5, 0.75 and 1 µm: the thin line
        // between 0.55 and 0.60 µm owns no node.
        let mut b = StructureBuilder::new([1.0e-6, 1.0e-6, 1.0e-6]);
        b.dielectric([0.0, 0.0, 0.0], [1.0e-6, 1.0e-6, 1.0e-6], 3.9);
        b.conductor("thin", [0.2e-6, 0.2e-6, 0.55e-6], [0.8e-6, 0.8e-6, 0.60e-6]);
        b.conductor("top", [0.0, 0.0, 0.9e-6], [1.0e-6, 1.0e-6, 1.0e-6]);
        let s = b.build([5, 5, 5]).unwrap();
        assert_eq!(s.conductor_node_count(s.conductor_id("thin").unwrap()), 0);
        assert_eq!(
            extract_capacitance(&s, &opts()).unwrap_err(),
            Error::IllPosed("conductor owns no grid nodes")
        );
    }

    #[test]
    fn shielding_reduces_coupling() {
        // Two wires with and without a grounded shield between them.
        let build = |with_shield: bool| {
            let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
            b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
            b.conductor("l", [0.0, 0.1, 0.4], [0.1, 0.9, 0.6]);
            b.conductor("r", [0.9, 0.1, 0.4], [1.0, 0.9, 0.6]);
            if with_shield {
                b.conductor("shield", [0.45, 0.0, 0.0], [0.55, 1.0, 1.0]);
            }
            let s = b.build([11, 7, 7]).unwrap();
            extract_capacitance(&s, &opts())
                .unwrap()
                .coupling("l", "r")
                .unwrap()
                .farads()
        };
        let open = build(false);
        let shielded = build(true);
        assert!(shielded < open * 0.3, "shielded {shielded} vs open {open}");
    }

    #[test]
    fn uniform_bar_resistance_matches_analytic() {
        // Bar 1 µm long, 0.2 × 0.2 µm² cross-section, σ = 5.8e7 S/m,
        // terminals at both ends. R = L/(σA).
        let sigma = 5.8e7;
        let mut b = StructureBuilder::new([1.0e-6, 0.2e-6, 0.2e-6]);
        b.resistive([0.0, 0.0, 0.0], [1.0e-6, 0.2e-6, 0.2e-6], sigma);
        b.conductor("in", [0.0, 0.0, 0.0], [0.05e-6, 0.2e-6, 0.2e-6]);
        b.conductor("out", [0.95e-6, 0.0, 0.0], [1.0e-6, 0.2e-6, 0.2e-6]);
        let s = b.build([21, 5, 5]).unwrap();
        let r = extract_resistance(&s, "in", "out", &opts()).unwrap();
        let l_eff = 0.9e-6; // between the terminal faces
        let analytic = l_eff / (sigma * 0.2e-6 * 0.2e-6);
        let got = r.resistance.ohms();
        assert!(
            (got - analytic).abs() / analytic < 0.03,
            "R = {got}, analytic = {analytic}"
        );
        assert!(r.flux_imbalance < 1e-6);
    }

    #[test]
    fn constriction_hosts_the_hot_spot() {
        // A bar with a narrow neck in the middle: |J| peaks inside the neck.
        let sigma = 1.0e7;
        let mut b = StructureBuilder::new([1.0e-6, 0.4e-6, 0.4e-6]);
        b.resistive([0.0, 0.0, 0.0], [0.4e-6, 0.4e-6, 0.4e-6], sigma);
        b.resistive([0.6e-6, 0.0, 0.0], [1.0e-6, 0.4e-6, 0.4e-6], sigma);
        // Neck: quarter cross-section.
        b.resistive([0.4e-6, 0.1e-6, 0.1e-6], [0.6e-6, 0.3e-6, 0.3e-6], sigma);
        b.conductor("in", [0.0, 0.0, 0.0], [0.05e-6, 0.4e-6, 0.4e-6]);
        b.conductor("out", [0.95e-6, 0.0, 0.0], [1.0e-6, 0.4e-6, 0.4e-6]);
        let s = b.build([21, 9, 9]).unwrap();
        let r = extract_resistance(&s, "in", "out", &opts()).unwrap();
        let x = r.hot_spot.position[0];
        assert!(
            (0.35e-6..=0.65e-6).contains(&x),
            "hot spot at x = {x}, expected inside the neck"
        );
        assert!(r.hot_spot.magnitude > 0.0);
    }

    #[test]
    fn resistance_errors() {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
        b.conductor("a", [0.0, 0.0, 0.0], [0.2, 1.0, 1.0]);
        b.conductor("b", [0.8, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let s = b.build([6, 4, 4]).unwrap();
        // No resistive material between the terminals.
        assert!(matches!(
            extract_resistance(&s, "a", "b", &opts()),
            Err(Error::IllPosed(_))
        ));
        assert!(extract_resistance(&s, "a", "a", &opts()).is_err());
        assert!(extract_resistance(&s, "a", "nope", &opts()).is_err());
    }

    #[test]
    fn series_slabs_add_resistance() {
        let mut b = StructureBuilder::new([1.0e-6, 0.2e-6, 0.2e-6]);
        b.resistive([0.0, 0.0, 0.0], [0.5e-6, 0.2e-6, 0.2e-6], 2.0e7);
        b.resistive([0.5e-6, 0.0, 0.0], [1.0e-6, 0.2e-6, 0.2e-6], 1.0e7);
        b.conductor("in", [0.0, 0.0, 0.0], [0.05e-6, 0.2e-6, 0.2e-6]);
        b.conductor("out", [0.95e-6, 0.0, 0.0], [1.0e-6, 0.2e-6, 0.2e-6]);
        let s = b.build([21, 5, 5]).unwrap();
        let r = extract_resistance(&s, "in", "out", &opts()).unwrap();
        let a = 0.2e-6 * 0.2e-6;
        let analytic = 0.45e-6 / (2.0e7 * a) + 0.45e-6 / (1.0e7 * a);
        let got = r.resistance.ohms();
        assert!(
            (got - analytic).abs() / analytic < 0.05,
            "R = {got}, analytic = {analytic}"
        );
    }
}
