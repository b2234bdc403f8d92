//! Property-based tests of the reliability models.

use cnt_reliability::ampacity::ConductorMaterial;
use cnt_reliability::em::BlackModel;
use cnt_reliability::layout::TestStructure;
use cnt_units::rand_ext;
use cnt_units::si::{CurrentDensity, Length, Temperature, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn black_mttf_monotone_decreasing_in_stress(
        j1 in 0.5_f64..5.0,
        dj in 0.01_f64..5.0,
        t in 300.0_f64..500.0,
    ) {
        let m = BlackModel::copper();
        let temp = Temperature::from_kelvin(t);
        let lo = m.median_ttf(CurrentDensity::from_amps_per_square_centimeter(j1 * 1e6), temp);
        let hi = m.median_ttf(
            CurrentDensity::from_amps_per_square_centimeter((j1 + dj) * 1e6),
            temp,
        );
        prop_assert!(hi < lo);
    }

    #[test]
    fn inverse_black_roundtrips(
        target_h in 1.0_f64..1e7,
        t in 320.0_f64..520.0,
    ) {
        let m = BlackModel::copper();
        let temp = Temperature::from_kelvin(t);
        let j = m.max_current_density(Time::from_hours(target_h), temp).unwrap();
        let back = m.median_ttf(j, temp);
        prop_assert!((back.hours() / target_h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn composite_always_outlives_copper(
        j in 0.2_f64..20.0,
        t in 320.0_f64..520.0,
    ) {
        let cu = BlackModel::copper();
        let cc = BlackModel::cu_cnt_composite();
        let jd = CurrentDensity::from_amps_per_square_centimeter(j * 1e6);
        let temp = Temperature::from_kelvin(t);
        prop_assert!(cc.median_ttf(jd, temp) > cu.median_ttf(jd, temp));
    }

    #[test]
    fn blech_criterion_is_a_threshold(
        j in 0.1_f64..10.0,
        l_um in 1.0_f64..1000.0,
    ) {
        let m = BlackModel::copper();
        let jd = CurrentDensity::from_amps_per_square_centimeter(j * 1e6);
        let immortal = m.is_blech_immortal(jd, l_um * 1e-6);
        prop_assert_eq!(immortal, jd.amps_per_square_meter() * l_um * 1e-6 < 3.0e5);
    }

    #[test]
    fn composite_ampacity_between_cu_and_cnt(vf in 0.0_f64..0.74) {
        let j = ConductorMaterial::Composite { cnt_volume_fraction: vf }
            .max_current_density()
            .unwrap()
            .amps_per_square_meter();
        let j_cu = ConductorMaterial::Copper.max_current_density().unwrap().amps_per_square_meter();
        let j_cnt = ConductorMaterial::Cnt.max_current_density().unwrap().amps_per_square_meter();
        prop_assert!(j >= j_cu * (1.0 - 1e-12));
        prop_assert!(j <= j_cnt * (1.0 + 1e-12));
    }

    #[test]
    fn line_resistance_scales_with_geometry(
        w_nm in 50.0_f64..1000.0,
        l_um in 1.0_f64..1000.0,
        rho in 1.5e-8_f64..5e-8,
    ) {
        let s = TestStructure::SingleLine {
            width: Length::from_nanometers(w_nm),
            length: Length::from_micrometers(l_um),
            angle_degrees: 0.0,
        };
        let t = Length::from_nanometers(100.0);
        let r = s.predicted_resistance(rho, t, 0.0);
        let expect = rho * l_um * 1e-6 / (w_nm * 1e-9 * 100e-9);
        prop_assert!((r - expect).abs() / expect < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ttf_samples_are_positive_and_ordered_by_stress(seed in 0u64..30) {
        // Fig. 13b's per-die draw: lognormal around Black's median.
        let m = BlackModel::copper();
        let t = Temperature::from_celsius(105.0);
        let med = |a_cm2: f64| {
            let j = CurrentDensity::from_amps_per_square_centimeter(a_cm2);
            let median = m.median_ttf(j, t).hours();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h: Vec<f64> = (0..200)
                .map(|_| rand_ext::lognormal(&mut rng, median.ln(), m.sigma))
                .collect();
            h.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (h[0], h[h.len() / 2])
        };
        let (lo_min, lo_med) = med(1e6);
        let (_, hi_med) = med(4e6);
        prop_assert!(lo_min > 0.0);
        prop_assert!(hi_med < lo_med);
    }
}
