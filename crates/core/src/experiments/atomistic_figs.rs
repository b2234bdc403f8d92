//! Fig. 8 regenerators: ballistic conductance vs diameter, atomic
//! structures, bands/transmission of pristine and doped CNT(7,7).

use super::params::{ParamSpec, RunContext};
use super::registry::Experiment;
use super::Report;
use crate::Result;
use cnt_atomistic::chirality::Chirality;
use cnt_atomistic::doping::{DopedCnt, DopingSpec};
use cnt_atomistic::geometry;
use cnt_atomistic::transport;
use cnt_sweep::{Axis, Executor, SweepPlan};
use cnt_units::consts::G0_SIEMENS;
use cnt_units::si::{Length, Temperature};

const FIG08A_TITLE: &str = "Ballistic conductance vs diameter, zigzag + armchair SWCNTs, 300 K";
const FIG08B_TITLE: &str = "Atomic structures of CNT(7,7), pristine and iodine-doped";
const FIG08C_TITLE: &str = "Transmission T(E) of pristine vs iodine-doped CNT(7,7)";

/// This module's registry rows.
pub(super) fn entries() -> Vec<Experiment> {
    vec![
        Experiment::new(80, "fig08a", FIG08A_TITLE, temp_spec(), fig08a),
        Experiment::new(81, "fig08b", FIG08B_TITLE, fig08b_spec(), fig08b),
        Experiment::new(82, "fig08c", FIG08C_TITLE, temp_spec(), fig08c),
    ]
}

fn temp_spec() -> ParamSpec {
    ParamSpec::new().float("temp_k", "electron temperature", 300.0, 50.0, 600.0)
}

fn fig08b_spec() -> ParamSpec {
    ParamSpec::new().float("length_nm", "generated tube segment length", 2.0, 0.5, 10.0)
}

/// Fig. 8a: ballistic conductance versus diameter for the zigzag and
/// armchair series at 300 K.
fn fig08a(ctx: &RunContext) -> Result<Report> {
    let temp = Temperature::from_kelvin(ctx.f64("temp_k"));
    let mut tubes = Chirality::zigzag_series(5, 26);
    tubes.extend(Chirality::armchair_series(3, 15));
    // One band structure per tube, evaluated on the cnt-sweep pool: each
    // job is independent and the Executor returns results in job order, so
    // the rows (and the stable diameter sort below) are bit-identical to
    // a serial loop over the tubes at any --threads value.
    let indices: Vec<f64> = (0..tubes.len()).map(|i| i as f64).collect();
    let plan = SweepPlan::new("fig08a.tubes").axis(Axis::grid("tube", &indices));
    let mut pts = Executor::new(ctx.threads).run(&plan, ctx.u64("seed"), |job, _| {
        let tube = tubes[job.get_usize("tube").expect("axis exists")];
        Ok::<_, crate::Error>(transport::conductance_point(tube, temp))
    })?;
    transport::sort_by_diameter(&mut pts);
    let mut rep = Report::new("fig08a", FIG08A_TITLE)
        .with_columns(&["d_nm", "G_mS", "Nc", "metallic", "armchair"]);
    for p in &pts {
        rep.push_row(vec![
            p.diameter_nm,
            p.conductance_ms,
            p.channels,
            p.metallic as u8 as f64,
            (p.chirality.family() == cnt_atomistic::Family::Armchair) as u8 as f64,
        ]);
    }
    let metallic: Vec<f64> = pts
        .iter()
        .filter(|p| p.metallic)
        .map(|p| p.channels)
        .collect();
    let mean_nc = cnt_units::math::mean(&metallic).unwrap_or(0.0);
    rep.note(format!(
        "metallic tubes: mean Nc = {mean_nc:.3} (paper: 'close to 2 regardless of the diameter and chirality')"
    ));
    rep.note("semiconducting zigzag tubes conduct only by thermal activation (rising with d)");
    Ok(rep)
}

/// Fig. 8b: atom counts of the generated CNT(7,7) structures (pristine
/// and with the internal iodine chain). The XYZ text itself comes from
/// [`fig08b_structures`].
fn fig08b(ctx: &RunContext) -> Result<Report> {
    let tube = Chirality::new(7, 7)?;
    let length = Length::from_nanometers(ctx.f64("length_nm"));
    let pristine = geometry::tube_segment(tube, length)?;
    let doped = geometry::doped_tube_with_iodine(tube, length)?;
    let iodine = doped
        .iter()
        .filter(|a| a.element == geometry::Element::I)
        .count();
    let mut rep = Report::new("fig08b", FIG08B_TITLE).with_columns(&["atoms"]);
    rep.push_labeled_row("pristine_c_atoms", vec![(pristine.len()) as f64]);
    rep.push_labeled_row("doped_total_atoms", vec![doped.len() as f64]);
    rep.push_labeled_row("iodine_atoms", vec![iodine as f64]);
    rep.push_labeled_row("diameter_nm", vec![tube.diameter().nanometers()]);
    rep.note("paper: 'The diameter of SWCNT(7,7) is about 1 nm'");
    rep.note("XYZ exports available via experiments::fig08b_structures()");
    Ok(rep)
}

/// The XYZ texts of the Fig. 8b structures: `(pristine, iodine_doped)`.
///
/// # Errors
///
/// Propagates geometry-construction errors.
pub fn fig08b_structures() -> Result<(String, String)> {
    let tube = Chirality::new(7, 7)?;
    let length = Length::from_nanometers(2.0);
    let pristine = geometry::tube_segment(tube, length)?;
    let doped = geometry::doped_tube_with_iodine(tube, length)?;
    Ok((
        geometry::to_xyz(&pristine, "CNT(7,7) pristine segment"),
        geometry::to_xyz(&doped, "CNT(7,7) with internal iodine chain"),
    ))
}

/// Fig. 8c: transmission spectra of pristine and iodine-doped CNT(7,7),
/// with the paper's two DFT anchors checked in the notes.
fn fig08c(ctx: &RunContext) -> Result<Report> {
    let temp = Temperature::from_kelvin(ctx.f64("temp_k"));
    let doped = DopedCnt::new(Chirality::new(7, 7)?, DopingSpec::iodine_internal())?;
    let pristine_bands = doped.host_bands();

    let mut rep =
        Report::new("fig08c", FIG08C_TITLE).with_columns(&["E_eV", "T_pristine", "T_doped"]);
    const N_ENERGY: usize = 121;
    let energies: Vec<f64> = (0..N_ENERGY)
        .map(|i| -1.5 + 3.0 * i as f64 / (N_ENERGY - 1) as f64)
        .collect();
    let t_pristine = pristine_bands.transmission_grid(&energies);
    let t_doped = doped.transmission_grid(&energies);
    for ((&e, &tp), &td) in energies.iter().zip(&t_pristine).zip(&t_doped) {
        rep.push_row(vec![e, tp, td]);
    }

    let g_pristine = transport::conductance_at_temperature(pristine_bands, 0.0, temp);
    let g_doped = doped.conductance(temp);
    rep.note(format!(
        "pristine G = {:.3} mS (paper: 0.155 mS)",
        g_pristine.millisiemens()
    ));
    rep.note(format!(
        "doped G = {:.3} mS (paper: 0.387 mS)",
        g_doped.millisiemens()
    ));
    rep.note(format!(
        "doped Fermi level = {:.2} eV (paper: 'shifted down by about 0.6 eV')",
        doped.fermi_level_ev()
    ));
    rep.note(format!(
        "channels: {:.2} -> {:.2} = G/G0 (paper Eq. 1)",
        g_pristine.siemens() / G0_SIEMENS,
        g_doped.siemens() / G0_SIEMENS
    ));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run;

    #[test]
    fn fig08a_metallic_plateau() {
        let rep = run("fig08a").unwrap();
        let nc = rep.column("Nc").unwrap();
        let met = rep.column("metallic").unwrap();
        for (n, m) in nc.iter().zip(&met) {
            if *m > 0.5 {
                assert!((n - 2.0).abs() < 0.2, "metallic tube with Nc = {n}");
            } else {
                assert!(*n < 1.0, "semiconducting tube with Nc = {n}");
            }
        }
        assert!(rep.rows.len() > 25);
    }

    #[test]
    fn fig08a_hotter_semiconductors_conduct_more() {
        let hot =
            RunContext::with_overrides(&temp_spec(), &[("temp_k".to_string(), "500".to_string())])
                .unwrap();
        let base = run("fig08a").unwrap();
        let heated = fig08a(&hot).unwrap();
        // Thermal activation: total semiconducting conductance rises.
        let semi_g = |r: &Report| -> f64 {
            let g = r.column("G_mS").unwrap();
            let met = r.column("metallic").unwrap();
            g.iter()
                .zip(&met)
                .filter(|(_, m)| **m < 0.5)
                .map(|(g, _)| g)
                .sum()
        };
        assert!(semi_g(&heated) > semi_g(&base));
    }

    #[test]
    fn ported_fig08_kernels_bit_identical_across_thread_counts() {
        let at_threads = |threads| {
            let ctx = RunContext {
                threads,
                ..RunContext::defaults(&temp_spec())
            };
            fig08a(&ctx).unwrap().render()
        };
        let serial = at_threads(1);
        let par = at_threads(8);
        assert_eq!(serial, par, "pool port changed output across thread counts");
        // And the default (threads = 0 = all cores) path matches too.
        assert_eq!(serial, run("fig08a").unwrap().render());
    }

    #[test]
    fn fig08b_structures_exist() {
        let rep = run("fig08b").unwrap();
        assert!(
            rep.column("atoms").unwrap()[2] > 5.0,
            "iodine chain present"
        );
        let (p, d) = fig08b_structures().unwrap();
        assert!(p.contains("C "));
        assert!(d.contains("I "));
    }

    #[test]
    fn fig08c_anchors_in_notes() {
        let rep = run("fig08c").unwrap();
        let text = rep.render();
        assert!(text.contains("0.155"), "pristine anchor: {text}");
        assert!(text.contains("0.387"), "doped anchor mention: {text}");
        // The doped spectrum exceeds the pristine one at the Fermi level.
        let e = rep.column("E_eV").unwrap();
        let tp = rep.column("T_pristine").unwrap();
        let td = rep.column("T_doped").unwrap();
        let idx = e
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 + 0.6).abs().partial_cmp(&(b.1 + 0.6).abs()).unwrap())
            .unwrap()
            .0;
        assert!(td[idx] > tp[idx]);
    }
}
