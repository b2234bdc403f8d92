//! "Table 1" (the §I prose numbers), Fig. 3, Fig. 13a/b and the
//! dopant-stability study.

use super::params::{ParamSpec, ParamValue, RunContext};
use super::registry::Experiment;
use super::sweep_figs;
use super::Report;
use crate::Result;
use cnt_reliability::ampacity::{
    cnt_count_for_cu_parity, cnt_density_floor_per_nm2, single_cnt_max_current, ConductorMaterial,
};
use cnt_reliability::dopant_migration::{
    run_stress_test, stem_radial_histogram, DopantSite, StressTest,
};
use cnt_reliability::em::BlackModel;
use cnt_reliability::layout::{standard_em_layout, TestStructure};
use cnt_reliability::wafer_char::{characterize_wafer, WaferCharSetup};
use cnt_units::consts::{KTH_CNT_HIGH, KTH_CNT_LOW, KTH_CU};
use cnt_units::si::{CurrentDensity, Length, Temperature, Time};

const TABLE1_TITLE: &str = "Materials comparison (Section I prose claims)";
const FIG03_TITLE: &str = "STEM radial dopant distribution: internal (Fig. 3) vs external";
const FIG13A_TITLE: &str = "EM test layout: structure inventory and predicted line resistances";
const FIG13B_TITLE: &str = "Full-wafer characterization: Cu reference vs Cu-CNT composite";
const STABILITY_TITLE: &str = "Dopant retention under stress: internal vs external doping";

/// This module's registry rows.
pub(super) fn entries() -> Vec<Experiment> {
    vec![
        Experiment::new(0, "table1", TABLE1_TITLE, table1_spec(), table1),
        Experiment::new(30, "fig03", FIG03_TITLE, fig03_spec(), fig03),
        Experiment::new(130, "fig13a", FIG13A_TITLE, fig13a_spec(), fig13a)
            .with_sweep(sweep_figs::fig13a_kernel, &[]),
        Experiment::new(131, "fig13b", FIG13B_TITLE, fig13b_spec(), fig13b)
            .with_sweep(sweep_figs::fig13b_kernel, &[]),
        Experiment::new(
            160,
            "stability",
            STABILITY_TITLE,
            stability_spec(),
            stability,
        )
        .extra(),
    ]
}

fn table1_spec() -> ParamSpec {
    ParamSpec::new()
        .float("width_nm", "reference Cu wire width", 100.0, 20.0, 1000.0)
        .float(
            "thickness_nm",
            "reference Cu wire thickness",
            50.0,
            10.0,
            500.0,
        )
        .preset(
            "projected",
            "projected scaled-node Cu reference (20 × 10 nm), where the ampacity gap widens",
            &[
                ("width_nm", ParamValue::Float(20.0)),
                ("thickness_nm", ParamValue::Float(10.0)),
            ],
        )
}

/// "Table 1": the quantitative materials-comparison claims of Section I.
fn table1(ctx: &RunContext) -> Result<Report> {
    let w = ctx.f64("width_nm");
    let t = ctx.f64("thickness_nm");
    let width = Length::from_nanometers(w);
    let thickness = Length::from_nanometers(t);
    let mut rep = Report::new("table1", TABLE1_TITLE).with_columns(&["value"]);
    let cu_wire = ConductorMaterial::Copper.max_current(width, thickness)?;
    rep.push_labeled_row(
        format!("cu_{w:.0}x{t:.0}nm_max_uA"),
        vec![cu_wire.microamps()],
    );
    rep.push_labeled_row(
        "cnt_d1nm_max_uA",
        vec![single_cnt_max_current(Length::from_nanometers(1.0)).microamps()],
    );
    rep.push_labeled_row(
        "jmax_cu_A_cm2",
        vec![ConductorMaterial::Copper
            .max_current_density()?
            .amps_per_square_centimeter()],
    );
    rep.push_labeled_row(
        "jmax_cnt_A_cm2",
        vec![ConductorMaterial::Cnt
            .max_current_density()?
            .amps_per_square_centimeter()],
    );
    rep.push_labeled_row(
        "cnts_for_cu_parity",
        vec![cnt_count_for_cu_parity(width, thickness) as f64],
    );
    rep.push_labeled_row(
        "cnt_density_floor_per_nm2",
        vec![cnt_density_floor_per_nm2()],
    );
    rep.push_labeled_row("kth_cu_W_mK", vec![KTH_CU]);
    rep.push_labeled_row("kth_cnt_low_W_mK", vec![KTH_CNT_LOW]);
    rep.push_labeled_row("kth_cnt_high_W_mK", vec![KTH_CNT_HIGH]);
    rep.note("paper anchors: 50 µA Cu wire, 20–25 µA per 1 nm CNT, 10⁶ vs 10⁹ A/cm², 0.096 nm⁻² density floor, Kth 385 vs 3000–10000 W/(m·K)");
    Ok(rep)
}

fn fig03_spec() -> ParamSpec {
    ParamSpec::new()
        .float("d_nm", "MWCNT outer diameter", 7.5, 1.0, 60.0)
        .int(
            "dopants",
            "sampled dopant atoms per population",
            4000,
            100.0,
            1e6,
        )
        .seed_default(3)
}

/// Fig. 3: STEM radial histogram of Pt dopants — internal doping puts the
/// atoms inside the tube.
fn fig03(ctx: &RunContext) -> Result<Report> {
    // The paper's d ≈ 7.5 nm MWCNT by default.
    let r_nm = ctx.f64("d_nm") / 2.0;
    let r = Length::from_nanometers(r_nm);
    let dopants = ctx.usize("dopants");
    let seed = ctx.u64("seed");
    let (centers, internal) = stem_radial_histogram(r, DopantSite::Internal, dopants, 25, seed)?;
    let (_, external) = stem_radial_histogram(r, DopantSite::External, dopants, 25, seed)?;
    let mut rep = Report::new("fig03", FIG03_TITLE).with_columns(&[
        "r_nm",
        "internal_count",
        "external_count",
    ]);
    for ((c, i), e) in centers.iter().zip(&internal).zip(&external) {
        rep.push_row(vec![*c, *i as f64, *e as f64]);
    }
    rep.note(format!(
        "wall radius {r_nm} nm: internal counts pile up inside, external in the vdW shell outside"
    ));
    rep.note("paper: 'the bright dots are individual Pt atoms … dopants are composed of an amorphous network of Pt and Cl'");
    Ok(rep)
}

fn fig13a_spec() -> ParamSpec {
    ParamSpec::new().float(
        "thickness_nm",
        "reference film thickness for predicted resistances",
        100.0,
        20.0,
        1000.0,
    )
}

/// Fig. 13a: the generated EM test layout and predicted electrical values
/// of its structures.
fn fig13a(ctx: &RunContext) -> Result<Report> {
    let layout = standard_em_layout();
    let mut rep = Report::new("fig13a", FIG13A_TITLE).with_columns(&["count"]);
    for kind in [
        "single_line",
        "multi_line",
        "comb",
        "via_chain",
        "extrusion_monitor",
    ] {
        let count = layout.iter().filter(|s| s.kind() == kind).count();
        rep.push_labeled_row(kind, vec![count as f64]);
    }
    // Predicted resistance of the e-beam 50 nm reference line in Cu.
    let rho = 2.2e-8;
    let thickness = Length::from_nanometers(ctx.f64("thickness_nm"));
    if let Some(line) = layout.iter().find(|s| {
        matches!(s, TestStructure::SingleLine { width, length, .. }
            if (width.nanometers() - 50.0).abs() < 1e-9 && (length.micrometers() - 100.0).abs() < 1e-9)
    }) {
        rep.note(format!(
            "50 nm × 100 µm e-beam line: predicted R = {:.0} Ω (Cu reference film)",
            line.predicted_resistance(rho, thickness, 0.0)
        ));
    }
    rep.note(format!("total structures: {}", layout.len()));
    rep.note("families match Fig. 13a: single lines (width/length/angle), multi-line, combs, via chains, extrusion monitors");
    Ok(rep)
}

fn fig13b_spec() -> ParamSpec {
    ParamSpec::new()
        .float("length_um", "stressed line length", 800.0, 10.0, 10000.0)
        .seed_default(13)
}

/// Fig. 13b: full-wafer electrical characterization — the Cu reference
/// against the Cu–CNT composite.
fn fig13b(ctx: &RunContext) -> Result<Report> {
    let line = TestStructure::SingleLine {
        width: Length::from_nanometers(100.0),
        length: Length::from_micrometers(ctx.f64("length_um")),
        angle_degrees: 0.0,
    };
    let target = Time::from_hours(2000.0);
    let seed = ctx.u64("seed");
    let cu = characterize_wafer(&WaferCharSetup::copper_reference(), &line, target, seed)?;
    let composite = characterize_wafer(&WaferCharSetup::composite(), &line, target, seed)?;

    let mut rep = Report::new("fig13b", FIG13B_TITLE).with_columns(&[
        "dies",
        "median_R_ohm",
        "R_cv",
        "median_ttf_h",
        "em_yield",
    ]);
    rep.push_labeled_row(
        "cu_reference",
        vec![
            cu.dies.len() as f64,
            cu.median_resistance,
            cu.resistance_cv,
            cu.median_ttf.hours(),
            cu.em_yield,
        ],
    );
    rep.push_labeled_row(
        "cu_cnt_composite",
        vec![
            composite.dies.len() as f64,
            composite.median_resistance,
            composite.resistance_cv,
            composite.median_ttf.hours(),
            composite.em_yield,
        ],
    );
    rep.note(format!(
        "EM lifetime gain: {:.0}× at matched stress (reliability focus of Section IV.A)",
        composite.median_ttf.hours() / cu.median_ttf.hours()
    ));
    rep.note("composite trades a slightly higher line resistance for the lifetime/ampacity gain (Section II.C)");
    Ok(rep)
}

fn stability_spec() -> ParamSpec {
    ParamSpec::new()
        .float("temp_c", "stress temperature", 105.0, 25.0, 400.0)
        .float("j_ma_cm2", "stress current density", 50.0, 1.0, 1000.0)
        .int(
            "dopants",
            "dopant atoms per stressed tube",
            600,
            50.0,
            100000.0,
        )
        .seed_default(7)
}

/// The dopant-stability study behind Fig. 3 / Section II.A: internal vs
/// external retention under operating stress.
fn stability(ctx: &RunContext) -> Result<Report> {
    let temp = Temperature::from_celsius(ctx.f64("temp_c"));
    let j = CurrentDensity::from_amps_per_square_centimeter(ctx.f64("j_ma_cm2") * 1e6);
    let dopants = ctx.usize("dopants");
    let seed = ctx.u64("seed");
    let mut rep = Report::new("stability", STABILITY_TITLE).with_columns(&[
        "stress_hours",
        "internal_retention",
        "external_retention",
    ]);
    for &hours in &[1.0, 10.0, 100.0, 1000.0] {
        let mk = |site| StressTest {
            tube_length: Length::from_micrometers(1.0),
            dopant_count: dopants,
            site,
            temperature: temp,
            current_density: j,
            duration: Time::from_hours(hours),
        };
        let internal = run_stress_test(&mk(DopantSite::Internal), seed)?;
        let external = run_stress_test(&mk(DopantSite::External), seed)?;
        rep.push_row(vec![hours, internal.retention, external.retention]);
    }
    rep.note("paper §II.A: 'internal doping of CNT is more stable than external doping'");
    // EM context: the composite's Black model for comparison.
    let cu = BlackModel::copper();
    let cc = BlackModel::cu_cnt_composite();
    let j_em = CurrentDensity::from_amps_per_square_centimeter(1.0e6);
    rep.note(format!(
        "for reference, EM medians at 1 MA/cm², {} °C: Cu {:.2e} h vs composite {:.2e} h",
        ctx.f64("temp_c"),
        cu.median_ttf(j_em, temp).hours(),
        cc.median_ttf(j_em, temp).hours()
    ));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run;

    #[test]
    fn table1_matches_paper_numbers() {
        let rep = run("table1").unwrap();
        let v = rep.column("value").unwrap();
        assert!((v[0] - 50.0).abs() < 1e-6, "Cu wire 50 µA");
        assert!((20.0..=25.0).contains(&v[1]), "CNT 20–25 µA");
        assert!((v[3] / v[2] - 1000.0).abs() < 1e-6, "10⁹ vs 10⁶ A/cm²");
        assert!((2.0..=4.0).contains(&v[4]), "a few CNTs for parity");
        assert!((v[5] - 0.096).abs() < 1e-9);
    }

    #[test]
    fn table1_width_override_scales_the_cu_wire() {
        let spec = table1_spec();
        let sets = vec![("width_nm".to_string(), "200".to_string())];
        let ctx = RunContext::with_overrides(&spec, &sets).unwrap();
        let rep = table1(&ctx).unwrap();
        assert_eq!(rep.row_labels[0], "cu_200x50nm_max_uA");
        let v = rep.column("value").unwrap();
        assert!(
            (v[0] - 100.0).abs() < 1e-6,
            "twice the width, twice the current: {}",
            v[0]
        );
    }

    #[test]
    fn fig03_separation() {
        let rep = run("fig03").unwrap();
        let r = rep.column("r_nm").unwrap();
        let int = rep.column("internal_count").unwrap();
        let ext = rep.column("external_count").unwrap();
        let inside: f64 = r
            .iter()
            .zip(&int)
            .filter(|(rr, _)| **rr < 3.75)
            .map(|(_, c)| c)
            .sum();
        let outside_ext: f64 = r
            .iter()
            .zip(&ext)
            .filter(|(rr, _)| **rr >= 3.75)
            .map(|(_, c)| c)
            .sum();
        assert!(inside > 3800.0, "internal dopants live inside: {inside}");
        assert!(
            outside_ext > 3800.0,
            "external dopants live outside: {outside_ext}"
        );
    }

    #[test]
    fn fig13a_inventory() {
        let rep = run("fig13a").unwrap();
        let counts = rep.column("count").unwrap();
        assert_eq!(counts[0], 45.0); // single lines
        assert!(counts.iter().all(|c| *c >= 1.0));
    }

    #[test]
    fn fig13b_composite_wins() {
        let rep = run("fig13b").unwrap();
        let ttf = rep.column("median_ttf_h").unwrap();
        assert!(ttf[1] > 10.0 * ttf[0]);
        let em_yield = rep.column("em_yield").unwrap();
        assert!(em_yield[1] >= em_yield[0]);
    }

    #[test]
    fn stability_ordering_holds_at_every_duration() {
        let rep = run("stability").unwrap();
        let int = rep.column("internal_retention").unwrap();
        let ext = rep.column("external_retention").unwrap();
        for (i, e) in int.iter().zip(&ext) {
            assert!(i >= e, "internal {i} vs external {e}");
        }
        // Long stress: the gap is decisive.
        assert!(int.last().unwrap() - ext.last().unwrap() > 0.2);
        // External retention decays with stress duration.
        assert!(ext.last().unwrap() <= &ext[0]);
    }

    #[test]
    fn stability_hotter_stress_accelerates_internal_migration() {
        let spec = stability_spec();
        let hot = RunContext::with_overrides(&spec, &[("temp_c".to_string(), "200".to_string())])
            .unwrap();
        let base = run("stability").unwrap();
        let stressed = stability(&hot).unwrap();
        // Even the stable internal dopants migrate at 200 °C.
        let last = |r: &Report| *r.column("internal_retention").unwrap().last().unwrap();
        assert!(
            last(&base) > 0.9,
            "105 °C internal retention {}",
            last(&base)
        );
        assert!(
            last(&stressed) < last(&base),
            "200 °C retention {} vs 105 °C {}",
            last(&stressed),
            last(&base)
        );
    }
}
