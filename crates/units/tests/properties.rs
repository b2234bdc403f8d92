//! Property-based tests of the quantity and math layers.

use cnt_units::math;
use cnt_units::si::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn length_unit_roundtrips(v in -1e9_f64..1e9) {
        let l = Length::from_nanometers(v);
        prop_assert!((l.nanometers() - v).abs() <= 1e-9 * v.abs().max(1.0));
        let l2 = Length::from_micrometers(l.micrometers());
        prop_assert!((l2.meters() - l.meters()).abs() <= 1e-12 * l.meters().abs().max(1e-30));
    }

    #[test]
    fn temperature_celsius_kelvin_consistency(c in -273.0_f64..2000.0) {
        let t = Temperature::from_celsius(c);
        prop_assert!(t.kelvin() >= 0.0);
        prop_assert!((t.celsius() - c).abs() < 1e-9);
    }

    #[test]
    fn resistance_conductance_involution(r in 1e-6_f64..1e12) {
        let res = Resistance::from_ohms(r);
        let back = Conductance::from_siemens(1.0 / res.ohms()).to_resistance();
        prop_assert!((back.ohms() - r).abs() <= 1e-9 * r);
    }

    #[test]
    fn ohms_law_closes(v in 1e-6_f64..1e3, i in 1e-9_f64..1e3) {
        let volt = Voltage::from_volts(v);
        let curr = Current::from_amps(i);
        let r = volt / curr;
        let i_back = volt / r;
        prop_assert!((i_back.amps() - i).abs() <= 1e-9 * i);
        let p = volt * curr;
        prop_assert!((p.watts() - v * i).abs() <= 1e-9 * (v * i));
    }

    #[test]
    fn quantity_ordering_consistent_with_values(a in -1e6_f64..1e6, b in -1e6_f64..1e6) {
        let qa = Voltage::from_volts(a);
        let qb = Voltage::from_volts(b);
        prop_assert_eq!(qa.max(qb).volts(), a.max(b));
        prop_assert_eq!(qa.min(qb).volts(), a.min(b));
        prop_assert_eq!((qa + qb).volts(), a + b);
        prop_assert_eq!((qa - qb).volts(), a - b);
    }

    #[test]
    fn percentile_is_bounded_by_extremes(
        mut xs in prop::collection::vec(-1e6_f64..1e6, 1..50),
        p in 0.0_f64..100.0,
    ) {
        let q = math::percentile(&xs, p).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(q >= xs[0] - 1e-9);
        prop_assert!(q <= xs[xs.len() - 1] + 1e-9);
    }

    #[test]
    fn percentiles_are_monotone(
        xs in prop::collection::vec(-1e6_f64..1e6, 2..40),
        p1 in 0.0_f64..100.0,
        p2 in 0.0_f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let q_lo = math::percentile(&xs, lo).unwrap();
        let q_hi = math::percentile(&xs, hi).unwrap();
        prop_assert!(q_lo <= q_hi + 1e-9);
    }

    #[test]
    fn linear_fit_recovers_any_line(
        a in -1e3_f64..1e3,
        b in -1e3_f64..1e3,
        n in 3_usize..30,
    ) {
        let xs: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let fit = math::linear_fit(&xs, &ys).unwrap();
        prop_assert!((fit.intercept - a).abs() < 1e-6 * a.abs().max(1.0));
        prop_assert!((fit.slope - b).abs() < 1e-6 * b.abs().max(1.0));
    }

    #[test]
    fn interp1_stays_within_hull(
        ys in prop::collection::vec(-1e3_f64..1e3, 2..20),
        frac in 0.0_f64..1.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|k| k as f64).collect();
        let x = frac * (ys.len() - 1) as f64;
        let v = math::interp1(&xs, &ys, x);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engineering_format_always_mentions_unit(v in -1e18_f64..1e18) {
        let s = cnt_units::fmt_eng::engineering(v, "F");
        prop_assert!(s.ends_with('F'), "{}", s);
    }
}
