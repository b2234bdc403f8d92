//! Figs. 9–12 regenerators: conductivity comparison, TCAD RC extraction,
//! the circuit benchmark and the delay-ratio study.

use super::params::{ParamSpec, ParamValue, RunContext};
use super::registry::Experiment;
use super::sweep_figs;
use super::Report;
use crate::benchmark::{
    delay_ratio, delay_ratio_grid, delay_ratio_simulated, DelayBenchmark, FIG12_CHANNEL_COUNTS,
    FIG12_DIAMETERS_NM, FIG12_LENGTHS_UM,
};
use crate::compact::{CuWire, DopedMwcnt, SwcntInterconnect};
use crate::Result;
use cnt_fields::extract::{extract_capacitance, extract_resistance};
use cnt_fields::netlist::NetlistWriter;
use cnt_fields::presets::{inverter_cell_14nm, via_stack, InverterCellGeometry};
use cnt_fields::solver::SolverOptions;
use cnt_units::si::Length;

const FIG09_TITLE: &str = "Conductivity (MS/m) of SWCNT/MWCNT lines vs Cu, by length";
const FIG10_TITLE: &str =
    "TCAD RC extraction: 14 nm inverter cell (capacitance) + via stack (resistance)";
const FIG11_TITLE: &str = "Circuit benchmark: driver + doped MWCNT line + 45 nm receiver";
const FIG12_TITLE: &str = "Delay ratio doped/pristine vs length and Nc per shell";

/// This module's registry rows.
pub(super) fn entries() -> Vec<Experiment> {
    vec![
        Experiment::new(90, "fig09", FIG09_TITLE, ParamSpec::new(), |_| fig09()),
        Experiment::new(100, "fig10", FIG10_TITLE, ParamSpec::new(), |_| fig10()),
        Experiment::new(110, "fig11", FIG11_TITLE, fig11_spec(), fig11),
        Experiment::new(120, "fig12", FIG12_TITLE, fig12_spec(), fig12)
            .with_sweep(sweep_figs::fig12_kernel, &[]),
    ]
}

fn nm(v: f64) -> Length {
    Length::from_nanometers(v)
}

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// Fig. 9: conductivity of SWCNT and MWCNT lines versus length and
/// diameter, compared to size-effect copper.
fn fig09() -> Result<Report> {
    let swcnt = SwcntInterconnect::metallic(nm(1.0))?;
    let mw10 = DopedMwcnt::paper_model(nm(10.0), 2)?;
    let mw20 = DopedMwcnt::paper_model(nm(20.0), 2)?;
    let cu20 = CuWire::damascene(nm(20.0), nm(40.0))?;
    let cu100 = CuWire::damascene(nm(100.0), nm(200.0))?;

    let mut rep = Report::new("fig09", FIG09_TITLE).with_columns(&[
        "L_um",
        "swcnt_d1",
        "mwcnt_d10",
        "mwcnt_d20",
        "cu_w20",
        "cu_w100",
    ]);
    for &l_um in &[0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0] {
        let l = um(l_um);
        rep.push_row(vec![
            l_um,
            swcnt.conductivity(l) / 1e6,
            mw10.conductivity(l) / 1e6,
            mw20.conductivity(l) / 1e6,
            cu20.conductivity() / 1e6,
            cu100.conductivity() / 1e6,
        ]);
    }
    // Locate the CNT/Cu crossover for the 20 nm-class pair.
    let crossover = rep.rows.iter().find(|r| r[3] > r[4]).map(|r| r[0]);
    match crossover {
        Some(l) => rep.note(format!(
            "MWCNT(d=20 nm) overtakes Cu(w=20 nm) at L ≈ {l} µm (ballistic-to-diffusive crossover)"
        )),
        None => rep.note("no CNT/Cu crossover in the swept range".to_string()),
    }
    rep.note("Cu conductivity is length-independent but degrades with width (size effects)");
    Ok(rep)
}

/// Fig. 10: 3-D TCAD RC extraction of the 14 nm-class inverter cell —
/// capacitance matrix with M1/M2 crosstalk, via-stack resistance with the
/// current-density hot spot, and the SPICE netlist handshake with
/// `cnt-circuit`.
fn fig10() -> Result<Report> {
    let geometry = InverterCellGeometry::default();
    let structure = inverter_cell_14nm(geometry).build([15, 11, 13])?;
    let cap = extract_capacitance(&structure, &SolverOptions::default())?;

    let mut rep = Report::new("fig10", FIG10_TITLE).with_columns(&["C_aF"]);
    let labels = cap.labels();
    for i in 0..labels.len() {
        for j in i + 1..labels.len() {
            let c = cap.coupling(labels[i], labels[j])?.attofarads();
            rep.push_labeled_row(format!("C({},{})", labels[i], labels[j]), vec![c]);
        }
    }
    rep.note(format!(
        "capacitance-matrix asymmetry (discretization check): {:.2e}",
        cap.asymmetry()
    ));
    let near = cap.coupling("m1_in", "m1_out")?.attofarads();
    let far = cap.coupling("m1_in", "m1_nbr")?.attofarads();
    rep.note(format!(
        "cross-talk: adjacent M1 coupling {near:.2} aF vs far pair {far:.2} aF"
    ));

    // Resistance detail (Fig. 10b): Cu via stack.
    let sigma_cu = 1.0
        / CuWire::damascene(nm(32.0), nm(60.0))?
            .resistivity()
            .ohm_meters();
    let stack = via_stack(geometry, sigma_cu).build([41, 7, 13])?;
    let res = extract_resistance(&stack, "t_m1", "t_m2", &SolverOptions::default())?;
    rep.note(format!(
        "via-stack resistance {:.1} Ω, hot spot |J| = {:.2e} A/m² at x = {:.1} nm (inside the via region)",
        res.resistance.ohms(),
        res.hot_spot.magnitude,
        res.hot_spot.position[0] * 1e9
    ));

    // The SPICE-like netlist handshake the paper describes.
    let mut writer = NetlistWriter::new("fig10 extracted parasitics");
    writer.add_capacitance_matrix(&cap, "0", 1e-21)?;
    writer.add_resistance_result("Rvia", "t_m1", "t_m2", &res);
    let netlist = writer.render();
    let parsed = cnt_circuit::parse::parse_netlist(&netlist)?;
    rep.note(format!(
        "netlist round-trip: {} cards emitted, {} elements parsed by cnt-circuit",
        netlist.lines().count(),
        parsed.element_count()
    ));
    Ok(rep)
}

fn fig11_spec() -> ParamSpec {
    ParamSpec::new()
        .float("d_nm", "MWCNT line outer diameter", 10.0, 5.0, 40.0)
        .int("nc", "channels per shell of the line", 2, 2.0, 30.0)
}

/// Fig. 11: the benchmark circuit itself — 45 nm-node inverters connected
/// by doped-MWCNT interconnects — exercised end to end (one transient per
/// length).
fn fig11(ctx: &RunContext) -> Result<Report> {
    let d = nm(ctx.f64("d_nm"));
    let nc = ctx.usize("nc");
    let mut rep = Report::new("fig11", FIG11_TITLE).with_columns(&[
        "L_um",
        "R_line_kohm",
        "C_line_fF",
        "delay_est_ns",
        "delay_sim_ns",
    ]);
    for &l_um in &[10.0, 100.0, 500.0] {
        let b = DelayBenchmark::paper_fig12(d, nc, um(l_um))?;
        let totals = b.line_totals()?;
        let est = b.estimate_delay()?;
        let sim = b.simulate_delay()?;
        rep.push_row(vec![
            l_um,
            totals.resistance / 1e3,
            totals.capacitance * 1e15,
            est.nanoseconds(),
            sim.nanoseconds(),
        ]);
    }
    rep.note("driver: paper-calibrated 140 kΩ effective impedance (see DESIGN.md §6 ablation)");
    rep.note("line: D = 10 nm pristine MWCNT, Eq. 4/5 compact model, 16-segment π-ladder");
    Ok(rep)
}

fn fig12_spec() -> ParamSpec {
    ParamSpec::new()
        .float(
            "length_um",
            "anchor interconnect length",
            500.0,
            1.0,
            2000.0,
        )
        .int("nc", "anchor doped channels per shell", 10, 2.0, 30.0)
        .preset(
            "doped-local",
            "local-level operating point: a 25 µm line at moderate doping",
            &[
                ("length_um", ParamValue::Float(25.0)),
                ("nc", ParamValue::Int(6)),
            ],
        )
}

/// Fig. 12: delay ratio of doped vs pristine MWCNT interconnects over
/// interconnect length and channels per shell, for D = 10/14/22 nm.
///
/// The 75-cell grid is closed-form Elmore delays, well under a
/// millisecond, so it runs on the calling thread (`delay_ratio_grid` at
/// width 1), rows in diameter, channel-count, length order. The
/// `length_um`/`nc` knobs move the paper-anchor checks in the notes; the
/// grid itself is the paper's.
fn fig12(ctx: &RunContext) -> Result<Report> {
    let anchor_l = ctx.f64("length_um");
    let anchor_nc = ctx.usize("nc");
    let mut rep =
        Report::new("fig12", FIG12_TITLE).with_columns(&["D_nm", "Nc", "L_um", "delay_ratio"]);
    let grid = delay_ratio_grid(
        &FIG12_DIAMETERS_NM,
        &FIG12_CHANNEL_COUNTS,
        &FIG12_LENGTHS_UM,
        1,
    )?;
    let mut points = grid.iter();
    for &d in &FIG12_DIAMETERS_NM {
        for &nc in &FIG12_CHANNEL_COUNTS {
            for &l in &FIG12_LENGTHS_UM {
                let p = points.next().expect("grid covers the nested loops");
                rep.push_row(vec![d, nc as f64, l, p.ratio]);
            }
        }
    }
    for (d, paper) in [(10.0, 0.10), (14.0, 0.05), (22.0, 0.02)] {
        let r = delay_ratio(nm(d), anchor_nc, um(anchor_l))?;
        rep.note(format!(
            "anchor D = {d} nm, L = {anchor_l} µm, Nc = {anchor_nc}: reduction {:.1} % (paper: {:.0} %)",
            (1.0 - r) * 100.0,
            paper * 100.0
        ));
    }
    let sim = delay_ratio_simulated(nm(10.0), anchor_nc, um(anchor_l))?;
    rep.note(format!(
        "SPICE cross-check at D = 10 nm anchor: simulated ratio {sim:.3}"
    ));
    rep.note("driver calibration: 140 kΩ effective impedance reproduces the paper's percentages; a minimum-size 45 nm inverter would triple them (ablation in benchmark tests)");
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run;

    #[test]
    fn fig09_shapes() {
        let rep = fig09().unwrap();
        let mw20 = rep.column("mwcnt_d20").unwrap();
        // CNT conductivity grows with length then saturates.
        assert!(mw20.last().unwrap() > &mw20[0]);
        let cu = rep.column("cu_w20").unwrap();
        assert!((cu[0] - cu[cu.len() - 1]).abs() < 1e-9, "Cu is length-flat");
        // Crossover found: big MWCNT beats 20 nm Cu at long length.
        assert!(mw20.last().unwrap() > cu.last().unwrap());
        // But Cu wins at very short length (ballistic CNT penalty).
        assert!(mw20[0] < cu[0]);
    }

    #[test]
    fn fig10_crosstalk_and_netlist() {
        let rep = fig10().unwrap();
        let text = rep.render();
        assert!(text.contains("cross-talk"));
        assert!(text.contains("netlist round-trip"));
        assert!(text.contains("hot spot"));
        assert!(!rep.rows.is_empty());
    }

    #[test]
    fn fig10_bit_identical_across_thread_counts() {
        // fig10 runs on its calling thread, so the width changes nothing.
        let exp = crate::experiments::registry().get("fig10").unwrap();
        let serial = fig10().unwrap().render();
        for threads in [0, 1, 2, 4] {
            let ctx = RunContext {
                threads,
                ..RunContext::defaults(exp.params())
            };
            let rendered = exp.run(&ctx).unwrap().render();
            assert_eq!(serial, rendered, "fig10 changed at threads = {threads}");
        }
    }

    #[test]
    fn fig10_profile_names_its_field_phases() {
        cnt_obs::Trace::begin();
        let report = fig10();
        let roots = cnt_obs::Trace::end();
        report.unwrap();
        let tree: Vec<String> = roots
            .iter()
            .map(|node| {
                let children: Vec<String> = (node.children.iter())
                    .map(|c| format!("{} x{}", c.name, c.count))
                    .collect();
                format!("{} x{} [{}]", node.name, node.count, children.join(", "))
            })
            .collect();
        // Two structures built, then one solve per extraction: the six
        // capacitance excitations share one lane-blocked solve.
        assert_eq!(
            tree,
            [
                "fields.build x2 []",
                "fields.capacitance x1 [fields.solve x1]",
                "fields.resistance x1 [fields.solve x1]",
            ]
        );
    }

    #[test]
    fn fig11_simulation_and_estimate_agree() {
        let rep = run("fig11").unwrap();
        let est = rep.column("delay_est_ns").unwrap();
        let sim = rep.column("delay_sim_ns").unwrap();
        for (e, s) in est.iter().zip(&sim) {
            assert!((e - s).abs() / e < 0.3, "est {e} vs sim {s}");
        }
        // Delay grows with length.
        assert!(est.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fig11_doping_override_speeds_the_line() {
        let doped =
            RunContext::with_overrides(&fig11_spec(), &[("nc".to_string(), "10".to_string())])
                .unwrap();
        let base = run("fig11").unwrap();
        let fast = fig11(&doped).unwrap();
        let longest = |r: &Report| *r.column("delay_est_ns").unwrap().last().unwrap();
        assert!(longest(&fast) < longest(&base), "doping must cut the delay");
    }

    #[test]
    fn fig12_grid_and_anchors() {
        let rep = run("fig12").unwrap();
        assert_eq!(rep.rows.len(), 3 * 5 * 5);
        let ratios = rep.column("delay_ratio").unwrap();
        assert!(ratios.iter().all(|r| *r <= 1.0 + 1e-12));
        let text = rep.render();
        assert!(text.contains("anchor D = 10 nm"));
    }

    #[test]
    fn fig12_anchor_overrides_move_the_notes() {
        let moved = RunContext::with_overrides(
            &fig12_spec(),
            &[
                ("length_um".to_string(), "200".to_string()),
                ("nc".to_string(), "6".to_string()),
            ],
        )
        .unwrap();
        let rep = fig12(&moved).unwrap();
        let text = rep.render();
        assert!(text.contains("L = 200 µm, Nc = 6"), "{text}");
        assert_ne!(text, run("fig12").unwrap().render());
        // The grid itself is still the paper's.
        assert_eq!(rep.rows, run("fig12").unwrap().rows);
    }
}
