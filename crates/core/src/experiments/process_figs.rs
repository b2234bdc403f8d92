//! Figs. 4–7 regenerators: growth vs temperature, 300 mm wafer
//! uniformity, and Cu–CNT composite filling.

use super::params::{ParamSpec, RunContext};
use super::registry::Experiment;
use super::sweep_figs;
use super::Report;
use crate::Result;
use cnt_process::composite::{CarpetOrientation, CompositeRecipe, DepositionMethod, FillResult};
use cnt_process::growth::{Catalyst, GrowthRecipe};
use cnt_process::wafer::WaferMap;
use cnt_units::si::Temperature;

const FIG04_TITLE: &str = "CNT growth vs temperature: Co (CMOS BEOL) vs Fe";
const FIG05_TITLE: &str = "300 mm wafer CNT growth uniformity (Co catalyst)";
const FIG06_TITLE: &str = "ELD Cu impregnation of VA-CNT carpets";
const FIG07_TITLE: &str = "ECD Cu impregnation of HA-CNT bundles (void-free)";

/// This module's registry rows.
pub(super) fn entries() -> Vec<Experiment> {
    vec![
        Experiment::new(40, "fig04", FIG04_TITLE, fig04_spec(), fig04)
            .with_sweep(sweep_figs::fig04_kernel, &["temp_k"]),
        Experiment::new(50, "fig05", FIG05_TITLE, fig05_spec(), fig05)
            .with_sweep(sweep_figs::fig05_kernel, &[]),
        Experiment::new(60, "fig06", FIG06_TITLE, fill_spec(), fig06).with_sweep(
            |ctx| sweep_figs::fill_kernel(ctx, sweep_figs::FillVariant::Eld),
            &[],
        ),
        Experiment::new(70, "fig07", FIG07_TITLE, fill_spec(), fig07).with_sweep(
            |ctx| sweep_figs::fill_kernel(ctx, sweep_figs::FillVariant::Ecd),
            &[],
        ),
    ]
}

/// Simulates the Fig. 6/7 impregnation recipe at each aspect ratio, in
/// grid order.
fn fill_sweep(
    method: DepositionMethod,
    orientation: CarpetOrientation,
    conductive_seed: bool,
    aspect_ratios: &[f64],
    cnt_volume_fraction: f64,
) -> cnt_process::Result<Vec<FillResult>> {
    aspect_ratios
        .iter()
        .map(|&aspect_ratio| {
            CompositeRecipe {
                method,
                orientation,
                aspect_ratio,
                conductive_seed,
                cnt_volume_fraction,
            }
            .simulate()
        })
        .collect()
}

/// The six fixed lower probe temperatures of the Fig. 4 growth sweep, °C.
/// The seventh (top) probe is the `temp_k` knob, whose default of
/// 923.15 K is exactly the historical 650 °C.
const FIG04_BASE_TEMPS_C: [f64; 6] = [350.0, 375.0, 395.0, 425.0, 475.0, 550.0];

/// The Fig. 4 probe-temperature list for a given top probe (kelvin).
pub(super) fn fig04_temps(temp_k: f64) -> Vec<Temperature> {
    FIG04_BASE_TEMPS_C
        .iter()
        .map(|&c| Temperature::from_celsius(c))
        .chain(std::iter::once(Temperature::from_kelvin(temp_k)))
        .collect()
}

fn fig04_spec() -> ParamSpec {
    ParamSpec::new().float(
        "temp_k",
        "top probe temperature of the growth sweep, kelvin (923.15 K = 650 °C)",
        923.15,
        680.0,
        1400.0,
    )
}

/// Fig. 4: CNT growth with Co catalyst at different temperatures (Fe shown
/// for contrast), pushing growth into the CMOS-compatible window.
fn fig04(ctx: &RunContext) -> Result<Report> {
    let temps = fig04_temps(ctx.f64("temp_k"));
    let grow = |catalyst| {
        temps
            .iter()
            .map(|&temperature| {
                GrowthRecipe {
                    catalyst,
                    temperature,
                    plasma_assisted: false,
                }
                .simulate()
            })
            .collect::<cnt_process::Result<Vec<_>>>()
    };
    let co = grow(Catalyst::Cobalt)?;
    let fe = grow(Catalyst::Iron)?;

    let mut rep = Report::new("fig04", FIG04_TITLE).with_columns(&[
        "T_C",
        "co_rate_um_min",
        "co_dg",
        "co_viable",
        "fe_rate_um_min",
        "fe_dg",
        "fe_viable",
    ]);
    for (c, f) in co.iter().zip(&fe) {
        rep.push_row(vec![
            c.recipe.temperature.celsius(),
            c.growth_rate_um_per_min,
            c.dg_ratio,
            c.is_viable() as u8 as f64,
            f.growth_rate_um_per_min,
            f.dg_ratio,
            f.is_viable() as u8 as f64,
        ]);
    }
    let co_at_budget = co
        .iter()
        .find(|r| r.recipe.temperature.celsius() <= 400.0 && r.is_viable());
    rep.note(match co_at_budget {
        Some(r) => format!(
            "Co grows viable CNTs at {:.0} °C (≤ 400 °C BEOL budget): rate {:.2} µm/min, D/G {:.2}",
            r.recipe.temperature.celsius(),
            r.growth_rate_um_per_min,
            r.dg_ratio
        ),
        None => "no viable Co growth below the BEOL budget (calibration regression!)".to_string(),
    });
    rep.note("paper: 'good CNT growth on Co catalyst at lower temperatures is possible'");
    Ok(rep)
}

fn fig05_spec() -> ParamSpec {
    ParamSpec::new()
        .int(
            "sites",
            "measurement sites across the wafer",
            121,
            9.0,
            20000.0,
        )
        .seed_default(20180319)
}

/// Fig. 5: full 300 mm wafer growth with Co catalyst — uniformity map and
/// statistics.
fn fig05(ctx: &RunContext) -> Result<Report> {
    let map = WaferMap::generate(0.3, ctx.usize("sites"), 1.0, 0.05, 0.015, ctx.u64("seed"))?;
    let rep_stats = map.uniformity()?;
    let mut rep = Report::new("fig05", FIG05_TITLE).with_columns(&[
        "r_band_lo",
        "r_band_hi",
        "mean_norm_thickness",
    ]);
    for band in 0..5 {
        let lo = band as f64 * 0.2;
        if let Some(m) = map.radial_band_mean(lo, lo + 0.2) {
            rep.push_row(vec![lo, lo + 0.2, m]);
        }
    }
    rep.note(format!(
        "within-wafer uniformity: CV = {:.2} %, half-range = {:.2} % over {} sites",
        rep_stats.cv * 100.0,
        rep_stats.half_range * 100.0,
        rep_stats.sites
    ));
    rep.note("paper: 'a good starting uniformity and full 300 mm wafer CNT-growth'");
    rep.note(format!("wafer map (z-score bins):\n{}", map.ascii_map(12)));
    Ok(rep)
}

fn fill_spec() -> ParamSpec {
    ParamSpec::new().float(
        "vf",
        "CNT volume fraction of the impregnated carpet",
        0.3,
        0.05,
        0.6,
    )
}

/// Fig. 6: ELD copper impregnation of vertically aligned CNTs — fill vs
/// aspect ratio, with the characteristic Cu overburden.
fn fig06(ctx: &RunContext) -> Result<Report> {
    let mut rep = Report::new("fig06", FIG06_TITLE).with_columns(&[
        "aspect_ratio",
        "fill_fraction",
        "void_prob",
        "overburden_nm",
    ]);
    let ars = [0.5, 1.0, 2.0, 4.0, 8.0];
    let fills = fill_sweep(
        DepositionMethod::Electroless,
        CarpetOrientation::Vertical,
        false,
        &ars,
        ctx.f64("vf"),
    )?;
    for (ar, r) in ars.iter().zip(&fills) {
        rep.push_row(vec![
            *ar,
            r.fill_fraction,
            r.void_probability,
            r.overburden_nm,
        ]);
    }
    rep.note("ELD needs no seed but leaves a Cu overburden (the crystal overgrowth of Fig. 6)");
    Ok(rep)
}

/// Fig. 7: the developed ECD process achieves void-free filling of
/// horizontally aligned CNT bundles.
fn fig07(ctx: &RunContext) -> Result<Report> {
    let vf = ctx.f64("vf");
    let mut rep = Report::new("fig07", FIG07_TITLE).with_columns(&[
        "aspect_ratio",
        "fill_fraction",
        "void_prob",
        "void_free",
    ]);
    let ars = [0.5, 1.0, 2.0, 4.0, 8.0];
    let fills = fill_sweep(
        DepositionMethod::Electrochemical,
        CarpetOrientation::Horizontal,
        true,
        &ars,
        vf,
    )?;
    for (ar, r) in ars.iter().zip(&fills) {
        rep.push_row(vec![
            *ar,
            r.fill_fraction,
            r.void_probability,
            r.is_void_free() as u8 as f64,
        ]);
    }
    // The ELD/ECD contrast at the benchmark aspect ratio.
    let eld = CompositeRecipe {
        method: DepositionMethod::Electroless,
        orientation: CarpetOrientation::Horizontal,
        aspect_ratio: 2.0,
        conductive_seed: true,
        cnt_volume_fraction: vf,
    }
    .simulate()?;
    let ecd = CompositeRecipe {
        method: DepositionMethod::Electrochemical,
        orientation: CarpetOrientation::Horizontal,
        aspect_ratio: 2.0,
        conductive_seed: true,
        cnt_volume_fraction: vf,
    }
    .simulate()?;
    rep.note(format!(
        "AR = 2 comparison: ELD fill {:.3} vs ECD fill {:.3} — 'Fig. 7 shows the void-free filling of HA-CNT bundles'",
        eld.fill_fraction, ecd.fill_fraction
    ));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run;

    #[test]
    fn fig04_co_wins_the_budget_race() {
        let rep = run("fig04").unwrap();
        let t = rep.column("T_C").unwrap();
        let co_v = rep.column("co_viable").unwrap();
        let fe_v = rep.column("fe_viable").unwrap();
        let at_budget = t.iter().position(|&c| (c - 395.0).abs() < 1.0).unwrap();
        assert_eq!(co_v[at_budget], 1.0);
        assert_eq!(fe_v[at_budget], 0.0);
    }

    #[test]
    fn fig04_temp_k_moves_only_the_top_probe() {
        let spec = fig04_spec();
        let hot = RunContext::with_overrides(&spec, &[("temp_k".to_string(), "1000".to_string())])
            .unwrap();
        let base = run("fig04").unwrap();
        let moved = fig04(&hot).unwrap();
        let t_base = base.column("T_C").unwrap();
        let t_moved = moved.column("T_C").unwrap();
        assert_eq!(&t_base[..6], &t_moved[..6], "fixed probes must not move");
        assert!((t_base[6] - 650.0).abs() < 1e-9, "default top = 650 °C");
        assert!((t_moved[6] - 726.85).abs() < 1e-9, "1000 K = 726.85 °C");
        assert_ne!(base.render(), moved.render());
    }

    #[test]
    fn fig05_uniformity_is_good() {
        let rep = run("fig05").unwrap();
        let text = rep.render();
        assert!(text.contains("CV ="));
        // Radial trend visible: edge band above centre band.
        let means = rep.column("mean_norm_thickness").unwrap();
        assert!(means.last().unwrap() > &means[0]);
    }

    #[test]
    fn fig05_seed_override_changes_the_map() {
        let spec = fig05_spec();
        let reseeded =
            RunContext::with_overrides(&spec, &[("seed".to_string(), "7".to_string())]).unwrap();
        assert_ne!(
            run("fig05").unwrap().render(),
            fig05(&reseeded).unwrap().render()
        );
    }

    #[test]
    fn fig06_fig07_contrast() {
        let eld = run("fig06").unwrap();
        let ecd = run("fig07").unwrap();
        let eld_fill = eld.column("fill_fraction").unwrap();
        let ecd_fill = ecd.column("fill_fraction").unwrap();
        for (a, b) in eld_fill.iter().zip(&ecd_fill) {
            assert!(b > a, "ECD ({b}) should out-fill ELD ({a})");
        }
        // ECD stays void-free across the sweep.
        assert!(ecd.column("void_free").unwrap().iter().all(|v| *v == 1.0));
        // ELD always shows its overburden.
        assert!(eld
            .column("overburden_nm")
            .unwrap()
            .iter()
            .all(|v| *v > 100.0));
    }

    #[test]
    fn denser_carpets_are_harder_to_fill() {
        let spec = fill_spec();
        let dense =
            RunContext::with_overrides(&spec, &[("vf".to_string(), "0.5".to_string())]).unwrap();
        let base = run("fig06").unwrap();
        let packed = fig06(&dense).unwrap();
        let mean = |r: &Report| {
            let f = r.column("fill_fraction").unwrap();
            f.iter().sum::<f64>() / f.len() as f64
        };
        assert!(mean(&packed) < mean(&base), "vf 0.5 should fill worse");
    }
}
