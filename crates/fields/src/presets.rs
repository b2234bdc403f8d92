//! Ready-made structures for the paper's TCAD experiments.
//!
//! The centrepiece is a simplified 14 nm-class inverter cell with M1/M2
//! interconnect levels (paper Fig. 10a: "3D TCAD capacitance, where the
//! electric field streamlines highlight the cross-talk between
//! interconnects") and a via stack for resistance hot-spot analysis
//! (Fig. 10b).

use crate::structure::StructureBuilder;
use cnt_units::consts::EPS_R_LOWK;

/// Geometry of the 14 nm-class inverter preset (all lengths in metres).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterCellGeometry {
    /// Metal-1 line width.
    pub m1_width: f64,
    /// Metal-1 line spacing.
    pub m1_space: f64,
    /// Metal thickness (M1 and M2).
    pub metal_thickness: f64,
    /// Dielectric thickness between metal levels.
    pub ild_thickness: f64,
    /// Via side length.
    pub via_size: f64,
}

impl Default for InverterCellGeometry {
    fn default() -> Self {
        // 14 nm-node BEOL-like dimensions (minimum M1 pitch ≈ 64 nm).
        Self {
            m1_width: 32.0e-9,
            m1_space: 32.0e-9,
            metal_thickness: 60.0e-9,
            ild_thickness: 60.0e-9,
            via_size: 32.0e-9,
        }
    }
}

/// Builds the capacitance-extraction structure of the paper's Fig. 10a:
/// a grounded substrate, the inverter's gate electrode, three parallel M1
/// lines (input, output, neighbour) and an M2 line crossing above the
/// output. Conductor labels: `"sub"`, `"gate"`, `"m1_in"`, `"m1_out"`,
/// `"m1_nbr"`, `"m2"`.
///
/// # Example
///
/// ```
/// use cnt_fields::presets::{inverter_cell_14nm, InverterCellGeometry};
/// use cnt_fields::prelude::*;
///
/// let builder = inverter_cell_14nm(InverterCellGeometry::default());
/// let s = builder.build([17, 17, 15])?;
/// assert_eq!(s.conductor_count(), 6);
/// # Ok::<(), cnt_fields::Error>(())
/// ```
pub fn inverter_cell_14nm(g: InverterCellGeometry) -> StructureBuilder {
    let pitch = g.m1_width + g.m1_space;
    // Domain: 3 M1 lines wide plus margins; stack: substrate, gate level,
    // ILD, M1, ILD, M2.
    let margin = pitch / 2.0;
    let lx = 3.0 * pitch + 2.0 * margin;
    let ly = 4.0 * pitch;
    let sub_t = g.metal_thickness;
    let gate_t = g.metal_thickness;
    let z_gate = sub_t + g.ild_thickness / 2.0;
    let z_m1 = z_gate + gate_t + g.ild_thickness;
    let z_m2 = z_m1 + g.metal_thickness + g.ild_thickness;
    let lz = z_m2 + g.metal_thickness + g.ild_thickness;

    let mut b = StructureBuilder::new([lx, ly, lz]);
    b.background_permittivity(EPS_R_LOWK);
    // Substrate ground plane.
    b.conductor("sub", [0.0, 0.0, 0.0], [lx, ly, sub_t]);
    // Gate electrode: a bar under the M1 input line.
    let x0 = margin;
    b.conductor(
        "gate",
        [x0, ly * 0.25, z_gate],
        [x0 + g.m1_width, ly * 0.75, z_gate + gate_t],
    );
    // Three M1 lines along y.
    for (idx, label) in ["m1_in", "m1_out", "m1_nbr"].iter().enumerate() {
        let x = margin + idx as f64 * pitch;
        b.conductor(
            label,
            [x, 0.0, z_m1],
            [x + g.m1_width, ly, z_m1 + g.metal_thickness],
        );
    }
    // M2 line along x, crossing above the output line.
    b.conductor(
        "m2",
        [0.0, ly / 2.0 - g.m1_width / 2.0, z_m2],
        [lx, ly / 2.0 + g.m1_width / 2.0, z_m2 + g.metal_thickness],
    );
    b
}

/// Builds the resistance-extraction structure of Fig. 10b: an M1 bar and
/// an M2 bar joined by a single via, with terminals at the far ends.
/// Labels: `"t_m1"` (source) and `"t_m2"` (sink). `sigma` is the line
/// conductivity in S/m (pass the Cu or Cu–CNT composite value).
pub fn via_stack(g: InverterCellGeometry, sigma: f64) -> StructureBuilder {
    let w = g.m1_width;
    let t = g.metal_thickness;
    let lx = 20.0 * w;
    let ly = 3.0 * w;
    let z_m1 = w;
    let z_via = z_m1 + t;
    let z_m2 = z_via + g.ild_thickness;
    let lz = z_m2 + t + w;
    let y0 = (ly - w) / 2.0;

    let mut b = StructureBuilder::new([lx, ly, lz]);
    b.background_permittivity(EPS_R_LOWK);
    // M1 bar: left half.
    b.resistive([0.0, y0, z_m1], [lx * 0.55, y0 + w, z_m1 + t], sigma);
    // Via in the overlap region.
    let xv = lx * 0.5;
    b.resistive(
        [xv, y0 + (w - g.via_size) / 2.0, z_via],
        [xv + g.via_size, y0 + (w + g.via_size) / 2.0, z_m2],
        sigma,
    );
    // M2 bar: right half.
    b.resistive([lx * 0.45, y0, z_m2], [lx, y0 + w, z_m2 + t], sigma);
    // Terminals.
    b.conductor("t_m1", [0.0, y0, z_m1], [lx * 0.04, y0 + w, z_m1 + t]);
    b.conductor("t_m2", [lx * 0.96, y0, z_m2], [lx, y0 + w, z_m2 + t]);
    b
}

/// A single wire of square cross-section `width` suspended `height` above a
/// ground plane in a dielectric — the textbook configuration with the
/// analytic capacitance `C/L = 2πε / acosh(h_c/r)` (cylinder approximation).
/// Labels: `"wire"`, `"gnd"`.
pub fn wire_over_plane(width: f64, height: f64, eps_r: f64, length: f64) -> StructureBuilder {
    let lx = length;
    let ly = width + 2.0 * (height + width) * 2.0;
    let plane_t = width;
    let lz = plane_t + height + width + 2.0 * (height + width);
    let y0 = (ly - width) / 2.0;
    let z0 = plane_t + height;

    let mut b = StructureBuilder::new([lx, ly, lz]);
    b.background_permittivity(eps_r);
    b.conductor("gnd", [0.0, 0.0, 0.0], [lx, ly, plane_t]);
    b.conductor("wire", [0.0, y0, z0], [lx, y0 + width, z0 + width]);
    b
}

/// Three parallel wires at minimum pitch over a ground plane — the
/// crosstalk scenario of Fig. 10a reduced to its essence. Labels:
/// `"left"`, `"victim"`, `"right"`, `"gnd"`.
pub fn three_parallel_wires(
    width: f64,
    space: f64,
    thickness: f64,
    length: f64,
) -> StructureBuilder {
    let pitch = width + space;
    let margin = pitch;
    // Mirror-symmetric about the victim: margins on both sides.
    let ly = 2.0 * margin + 3.0 * width + 2.0 * space;
    let plane_t = thickness;
    let h = thickness; // wire height above plane = one thickness
    let z0 = plane_t + h;
    let lz = z0 + thickness + 2.0 * pitch;

    let mut b = StructureBuilder::new([length, ly, lz]);
    b.background_permittivity(EPS_R_LOWK);
    b.conductor("gnd", [0.0, 0.0, 0.0], [length, ly, plane_t]);
    for (idx, label) in ["left", "victim", "right"].iter().enumerate() {
        let y = margin + idx as f64 * pitch;
        b.conductor(label, [0.0, y, z0], [length, y + width, z0 + thickness]);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_capacitance, extract_resistance};
    use crate::solver::SolverOptions;

    #[test]
    fn inverter_cell_builds_with_all_conductors() {
        let s = inverter_cell_14nm(InverterCellGeometry::default())
            .build([15, 15, 13])
            .unwrap();
        assert_eq!(
            s.conductor_labels(),
            ["sub", "gate", "m1_in", "m1_out", "m1_nbr", "m2"]
        );
        for id in 0..6 {
            assert!(
                s.conductor_node_count(id) > 0,
                "conductor {id} has no nodes"
            );
        }
    }

    #[test]
    fn inverter_cell_crosstalk_structure() {
        let s = inverter_cell_14nm(InverterCellGeometry::default())
            .build([15, 11, 13])
            .unwrap();
        let r = extract_capacitance(&s, &SolverOptions::default()).unwrap();
        // Adjacent M1 lines couple more strongly than the far pair.
        let near = r.coupling("m1_in", "m1_out").unwrap().farads();
        let far = r.coupling("m1_in", "m1_nbr").unwrap().farads();
        assert!(near > far, "near {near} vs far {far}");
        // The crossing M2 line sees the output line.
        let m2 = r.coupling("m1_out", "m2").unwrap().farads();
        assert!(m2 > 0.0);
        assert!(r.asymmetry() < 1e-3);
    }

    #[test]
    fn via_stack_resistance_and_hot_spot() {
        let sigma = 3.0e7;
        let s = via_stack(InverterCellGeometry::default(), sigma)
            .build([41, 7, 13])
            .unwrap();
        let r = extract_resistance(&s, "t_m1", "t_m2", &SolverOptions::default()).unwrap();
        assert!(r.resistance.ohms() > 0.0);
        assert!(r.flux_imbalance < 1e-6);
        // Hot spot sits near the via (x ≈ half the bar length).
        let g = s.grid();
        let lx = g.spacing()[0] * (g.nodes()[0] - 1) as f64;
        let x = r.hot_spot.position[0] / lx;
        assert!((0.35..=0.65).contains(&x), "hot spot at normalized x = {x}");
    }

    #[test]
    fn wire_over_plane_close_to_cylinder_formula() {
        let w = 50e-9;
        let h = 100e-9;
        let len = 1e-6;
        let s = wire_over_plane(w, h, 1.0, len).build([5, 41, 37]).unwrap();
        let r = extract_capacitance(&s, &SolverOptions::default()).unwrap();
        let c = r.coupling("wire", "gnd").unwrap().farads();
        // Equivalent-cylinder approximation: r_eq ≈ 0.59·w for a square
        // wire, centre height h + w/2.
        let r_eq = 0.59 * w;
        let hc = h + w / 2.0;
        let analytic =
            2.0 * core::f64::consts::PI * cnt_units::consts::EPS_0 * len / ((hc / r_eq).acosh());
        let rel = (c - analytic).abs() / analytic;
        // Finite domain + square-vs-cylinder + coarse grid: agree within 35 %.
        assert!(rel < 0.35, "C = {c:.3e}, cylinder formula = {analytic:.3e}");
    }

    #[test]
    fn victim_couples_symmetrically_in_three_wire_preset() {
        let s = three_parallel_wires(32e-9, 32e-9, 60e-9, 0.3e-6)
            .build([5, 19, 13])
            .unwrap();
        let r = extract_capacitance(&s, &SolverOptions::default()).unwrap();
        let cl = r.coupling("victim", "left").unwrap().farads();
        let cr = r.coupling("victim", "right").unwrap().farads();
        assert!((cl - cr).abs() / cl < 0.05, "left {cl} right {cr}");
        let lr = r.coupling("left", "right").unwrap().farads();
        assert!(lr < cl, "far coupling should be weakest");
    }
}
