//! Integration: every quantitative claim of the paper, checked at the
//! public-API level (the acceptance criteria of DESIGN.md §4).

use cnt_beol::interconnect::benchmark::delay_ratio;
use cnt_beol::interconnect::experiments;
use cnt_beol::units::consts;
use cnt_beol::units::si::Length;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

fn nm(v: f64) -> Length {
    Length::from_nanometers(v)
}

#[test]
fn fig12_headline_10_5_2_percent() {
    for (d, expect) in [(10.0, 0.10), (14.0, 0.05), (22.0, 0.02)] {
        let reduction = 1.0 - delay_ratio(nm(d), 10, um(500.0)).unwrap();
        assert!(
            (reduction - expect).abs() < 0.015,
            "D = {d}: {reduction:.3} vs paper {expect}"
        );
    }
}

#[test]
fn fig8_conductance_anchors() {
    let rep = experiments::fig08c().unwrap();
    let text = rep.render();
    assert!(text.contains("pristine G = 0.155 mS"), "{text}");
    assert!(text.contains("doped G = 0.387 mS"), "{text}");
    assert!(text.contains("-0.60 eV"), "{text}");
}

#[test]
fn section1_materials_numbers() {
    // The constants the whole platform hangs on.
    assert!((2.0 * consts::G0_SIEMENS * 1e3 - 0.155).abs() < 1e-3);
    let jmax_ratio = std::hint::black_box(consts::JMAX_CNT) / consts::JMAX_CU;
    assert!((jmax_ratio - 1000.0).abs() < 1e-9);
    assert!((consts::CNT_DENSITY_FLOOR * 1e-18 - 0.096).abs() < 1e-12);
    let kth_gain = std::hint::black_box(consts::KTH_CNT_LOW) / consts::KTH_CU;
    assert!(kth_gain > 7.0);
}

#[test]
fn every_figure_regenerates() {
    // The full harness: every registry id must produce a non-trivial
    // report (this is what `repro all` prints).
    for id in experiments::catalog() {
        let rep = experiments::run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
        let text = rep.render();
        assert!(text.len() > 80, "{id} report too thin:\n{text}");
    }
}

#[test]
fn fig9_crossover_band() {
    let rep = experiments::fig09().unwrap();
    let l = rep.column("L_um").unwrap();
    let mw = rep.column("mwcnt_d20").unwrap();
    let cu = rep.column("cu_w20").unwrap();
    // CNT loses at 50 nm, wins at 100 µm; the crossover sits in between
    // (the paper's Fig. 9 places it at micron scale).
    assert!(mw[0] < cu[0]);
    assert!(mw.last().unwrap() > cu.last().unwrap());
    let crossover = l
        .iter()
        .zip(mw.iter().zip(&cu))
        .find(|(_, (m, c))| m > c)
        .map(|(l, _)| *l)
        .expect("crossover exists");
    assert!(
        (0.2..=20.0).contains(&crossover),
        "crossover at {crossover} µm"
    );
}

#[test]
fn delay_ratio_trends_match_prose() {
    // Longer lines: more doping benefit. Bigger tubes: less.
    let short = delay_ratio(nm(14.0), 10, um(20.0)).unwrap();
    let long = delay_ratio(nm(14.0), 10, um(500.0)).unwrap();
    assert!(long < short);
    let thin = delay_ratio(nm(10.0), 6, um(300.0)).unwrap();
    let thick = delay_ratio(nm(22.0), 6, um(300.0)).unwrap();
    assert!(thin < thick);
}

// Paper results no registry id prints: the models behind them are
// public only for these cases and their own unit tests (DESIGN.md §2).

#[test]
fn one_third_of_tubes_are_metallic_and_gaps_shrink_with_diameter() {
    // §II.A: "2/3rd of CNTs are semi-conducting"; a semiconducting
    // tube's gap falls as 1/d.
    use cnt_beol::atomistic::bands::BandStructure;
    use cnt_beol::atomistic::chirality::Chirality;
    let all = Chirality::all_in_diameter_range(nm(0.5), nm(3.0));
    let metallic = all.iter().filter(|c| c.is_metallic()).count() as f64;
    assert!((metallic / all.len() as f64 - 1.0 / 3.0).abs() < 0.05);
    let (thin, thick) = (
        Chirality::new(7, 0).unwrap(),
        Chirality::new(13, 0).unwrap(),
    );
    assert!(thin.band_gap_estimate_ev() > thick.band_gap_estimate_ev());
    let gap = |c| BandStructure::compute(c, 801).unwrap().band_gap_ev();
    assert!(gap(thin) > gap(thick) && gap(thick) > 0.3);
}

#[test]
fn doping_moves_the_fermi_level_onto_a_higher_dos() {
    // §III.A: doping "can shift the Fermi-level and increase the DOS".
    use cnt_beol::atomistic::bands::BandStructure;
    use cnt_beol::atomistic::chirality::Chirality;
    use cnt_beol::atomistic::doping::DopingSpec;
    use cnt_beol::atomistic::dos::density_of_states;
    let bands = BandStructure::compute(Chirality::new(13, 0).unwrap(), 801).unwrap();
    let dos = density_of_states(&bands, -3.0, 3.0, 601, 0.03).unwrap();
    let shifted = DopingSpec::iodine_internal().fermi_shift_ev;
    assert!(dos.at(shifted) > 10.0 * dos.at(0.0).max(1e-3));
}

#[test]
fn conductance_per_area_falls_as_the_diameter_grows() {
    // §III.A: "the conductance of CNTs per unit area decreases as the
    // diameter increases".
    use cnt_beol::atomistic::chirality::Chirality;
    use cnt_beol::atomistic::transport::conductance_per_area;
    use cnt_beol::units::si::Temperature;
    let t = Temperature::from_kelvin(300.0);
    let per_area = |n| conductance_per_area(Chirality::new(n, n).unwrap(), t);
    assert!(per_area(5) > per_area(8) && per_area(8) > per_area(12));
}

#[test]
fn internal_ptcl4_dopes_more_strongly_than_external() {
    // Fig. 2d dopes its MWCNT externally with PtCl4; Fig. 3 shows Pt/Cl
    // networks inside opened tubes. Both add channels; inside adds more.
    use cnt_beol::atomistic::chirality::Chirality;
    use cnt_beol::atomistic::doping::{DopedCnt, DopingSpec};
    use cnt_beol::units::si::Temperature;
    let t = Temperature::from_kelvin(300.0);
    let host = Chirality::new(7, 7).unwrap();
    let nc = |spec| DopedCnt::new(host, spec).unwrap().conducting_channels(t);
    let (ext, int) = (
        nc(DopingSpec::ptcl4_external()),
        nc(DopingSpec::ptcl4_internal()),
    );
    assert!(
        int > ext && ext > 2.5,
        "internal {int:.2}, external {ext:.2}"
    );
}

#[test]
fn mean_free_path_falls_as_growth_disorder_rises() {
    // §II: low-temperature CVD tubes carry more defects, so the NEGF
    // chain behind `calibrate::mfp_from_growth` yields a shorter λ.
    use cnt_beol::atomistic::negf::mfp_vs_disorder;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let pts = mfp_vs_disorder(400, 2.7, nm(0.25), &[0.4, 0.8, 1.6], 60, &mut rng).unwrap();
    assert!(pts[0].mean_free_path > pts[1].mean_free_path);
    assert!(pts[1].mean_free_path > pts[2].mean_free_path);
}

#[test]
fn as_grown_bundles_miss_copper_and_need_the_density_floor() {
    // §I: pure-CNT lines need "a minimum density of 0.096 per nm²"; an
    // as-grown bundle (1/3 metallic) at that density still misses copper.
    use cnt_beol::interconnect::compact::{BundleInterconnect, CuWire, SwcntInterconnect};
    use cnt_beol::units::si::Resistance;
    let floor = BundleInterconnect::itrs_density_floor();
    let as_grown = BundleInterconnect::as_grown(nm(100.0), nm(50.0), nm(1.0), floor).unwrap();
    let cu = CuWire::damascene(nm(100.0), nm(50.0)).unwrap();
    assert!(as_grown.resistance(um(1.0)).ohms() > 4.0 * cu.resistance(um(1.0)).ohms());
    // One metallic 1 nm tube is ≈ 12.9 kΩ over 1 µm: tens of tubes per
    // 500 Ω line.
    let tube = SwcntInterconnect::metallic(nm(1.0)).unwrap();
    let n = tube.tubes_for_target(um(1.0), Resistance::from_ohms(500.0));
    assert!((20..=30).contains(&n), "n = {n}");
}

#[test]
fn overstressed_mwcnts_fail_one_shell_at_a_time() {
    // §IV.B plans in-situ TEM of degradation at high current density; its
    // reference [2] (Collins et al.) shows shell-by-shell breakdown.
    use cnt_beol::reliability::breakdown::BreakdownSim;
    use cnt_beol::units::si::{Current, Voltage};
    let mut tube = BreakdownSim::uniform(8, 50e-6, Current::from_microamps(25.0)).unwrap();
    let events = tube.ramp(Voltage::from_volts(10.0));
    assert_eq!(events.len(), 8);
    for w in events.windows(2) {
        assert_eq!(w[0].shells_remaining, w[1].shells_remaining + 1);
        assert!(w[1].current_after < w[0].current_after);
    }
}
