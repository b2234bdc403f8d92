//! Fig. 1 regenerator: the CONNECT vision as a quantitative technology
//! assessment, plus the bundle density-floor check and the CNT-via
//! thermal claim.

use super::params::ParamSpec;
use super::registry::Experiment;
use super::Report;
use crate::compact::{BundleInterconnect, CuWire};
use crate::technology::{assess, WireClass};
use crate::Result;
use cnt_thermal::via::ViaStack;
use cnt_units::si::{Area, Length, Power};

const FIG01_TITLE: &str = "Technology assessment: Cu vs CNT options per interconnect tier";

/// This module's registry rows.
pub(super) fn entries() -> Vec<Experiment> {
    vec![Experiment::new(
        10,
        "fig01",
        FIG01_TITLE,
        ParamSpec::new(),
        |_| fig01(),
    )]
}

/// Fig. 1: "doped CNTs for local interconnects and CNT-Cu-composite
/// material for global interconnects" — assessed per tier, with the §I
/// density floor and the CNT-via thermal advantage as supporting rows.
fn fig01() -> Result<Report> {
    let mut rep = Report::new("fig01", FIG01_TITLE).with_columns(&[
        "R_ohm",
        "Imax_uA",
        "margin",
        "reliable",
        "recommend_cnt",
    ]);

    for (label, class) in [
        ("local_cu", WireClass::local_m1()),
        ("global_cu", WireClass::global_wire()),
    ] {
        let a = assess(&class)?;
        rep.push_labeled_row(
            label,
            vec![
                a.copper.resistance.ohms(),
                a.copper.max_current.microamps(),
                a.copper.ampacity_margin,
                a.copper.reliable as u8 as f64,
                a.recommend_cnt as u8 as f64,
            ],
        );
        let cnt_label = if label.starts_with("local") {
            "local_doped_cnt"
        } else {
            "global_composite"
        };
        rep.push_labeled_row(
            cnt_label,
            vec![
                a.cnt_option.resistance.ohms(),
                a.cnt_option.max_current.microamps(),
                a.cnt_option.ampacity_margin,
                a.cnt_option.reliable as u8 as f64,
                a.recommend_cnt as u8 as f64,
            ],
        );
        rep.note(format!("{label}: {}", a.rationale));
    }

    // Density floor: the §I bundle claim.
    let doped_bundle = BundleInterconnect::doped(
        Length::from_nanometers(100.0),
        Length::from_nanometers(50.0),
        Length::from_nanometers(1.0),
        BundleInterconnect::itrs_density_floor(),
        5.0,
    )?;
    let cu_ref = CuWire::damascene(
        Length::from_nanometers(100.0),
        Length::from_nanometers(50.0),
    )?;
    let l = Length::from_micrometers(1.0);
    rep.note(format!(
        "density floor check: doped bundle at 0.096 nm⁻² gives {} vs Cu {} over 1 µm",
        doped_bundle.resistance(l),
        cu_ref.resistance(l)
    ));

    // Thermal via claim of §I — including its contact sensitivity.
    let a = Area::from_square_nanometers(60.0 * 60.0);
    let q = Power::from_microwatts(10.0);
    let dt_cu = ViaStack::copper(a)?.temperature_drop(q).kelvin();
    let dt_cnt = ViaStack::cnt(a)?.temperature_drop(q).kelvin();
    let dt_poor = ViaStack::cnt_poor_contacts(a)?.temperature_drop(q).kelvin();
    rep.note(format!(
        "via thermal check (10 µW): ΔT = {dt_cnt:.2} K (CNT, developed contacts) vs {dt_cu:.2} K (Cu) — 'heat diffuses more efficiently through CNT vias'"
    ));
    rep.note(format!(
        "contact sensitivity: with today's poor end contacts the CNT via runs at {dt_poor:.2} K — why the paper's conclusion stresses CNT-metal contacts"
    ));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_recommends_cnt_on_both_stressed_tiers() {
        let rep = fig01().unwrap();
        let rec = rep.column("recommend_cnt").unwrap();
        assert!(rec.iter().all(|r| *r == 1.0), "{:?}", rec);
        let text = rep.render();
        assert!(text.contains("density floor check"));
        assert!(text.contains("via thermal check"));
    }

    #[test]
    fn fig01_margins_ordering() {
        let rep = fig01().unwrap();
        let margin = rep.column("margin").unwrap();
        // CNT rows (odd indices) always carry more margin than Cu rows.
        assert!(margin[1] > margin[0]);
        assert!(margin[3] > margin[2]);
    }
}
