//! Property-based tests of the thermal models.

use cnt_thermal::extract::kth_from_peak;
use cnt_thermal::fin::SelfHeatingLine;
use cnt_units::si::{CurrentDensity, Length};
use proptest::prelude::*;

fn line(k: f64, l_um: f64, j_ma_cm2: f64) -> SelfHeatingLine {
    let mut line = SelfHeatingLine::mwcnt(
        Length::from_micrometers(l_um),
        CurrentDensity::from_amps_per_square_centimeter(j_ma_cm2 * 1e6),
    );
    line.thermal_conductivity = k;
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peak_scales_quadratically_with_current(
        k in 300.0_f64..10_000.0,
        l in 0.5_f64..10.0,
        j in 1.0_f64..100.0,
        factor in 1.1_f64..5.0,
    ) {
        let base = line(k, l, j).peak_temperature().kelvin() - 300.0;
        let scaled = line(k, l, j * factor).peak_temperature().kelvin() - 300.0;
        prop_assert!((scaled / base - factor * factor).abs() < 1e-6);
    }

    #[test]
    fn profile_never_below_ambient_and_symmetric(
        k in 300.0_f64..10_000.0,
        l in 0.5_f64..10.0,
        j in 1.0_f64..100.0,
        g in 0.0_f64..2.0,
    ) {
        let mut ln = line(k, l, j);
        ln.substrate_coupling = g;
        let p = ln.analytic_profile(51).unwrap();
        for &t in &p.temperature_k {
            prop_assert!(t >= 300.0 - 1e-9);
        }
        let n = p.temperature_k.len();
        for i in 0..n / 2 {
            prop_assert!((p.temperature_k[i] - p.temperature_k[n - 1 - i]).abs() < 1e-9);
        }
    }

    #[test]
    fn fd_solution_matches_closed_form(
        k in 300.0_f64..10_000.0,
        g in 0.0_f64..1.0,
    ) {
        let mut ln = line(k, 2.0, 30.0);
        ln.substrate_coupling = g;
        let ana = ln.analytic_profile(81).unwrap();
        let fd = ln.solve_fd(81).unwrap();
        for (a, b) in ana.temperature_k.iter().zip(&fd.temperature_k) {
            let dt = (a - 300.0).abs().max(1e-9);
            prop_assert!((a - b).abs() < 0.05 * dt + 1e-6);
        }
    }

    #[test]
    fn peak_inversion_recovers_k(k in 500.0_f64..10_000.0) {
        let ln = line(k, 2.0, 30.0);
        let peak = ln.peak_temperature().kelvin();
        let k_back = kth_from_peak(&ln, peak).unwrap();
        prop_assert!((k_back - k).abs() / k < 1e-9);
    }
}
