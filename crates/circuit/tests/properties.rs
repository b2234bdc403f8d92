//! Property-based tests of the circuit engine: conservation laws and
//! parser totality.

use cnt_circuit::analysis::TranOptions;
use cnt_circuit::circuit::Circuit;
use cnt_circuit::line::{add_distributed_line, LineTotals};
use cnt_circuit::parse::{parse_netlist, parse_value};
use cnt_circuit::waveform::Waveform;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn voltage_divider_obeys_superposition(
        r1 in 1.0_f64..1e6,
        r2 in 1.0_f64..1e6,
        v in -10.0_f64..10.0,
    ) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mid = c.node("mid");
        c.add_vsource("V1", a, Circuit::GND, Waveform::Dc(v)).unwrap();
        c.add_resistor("R1", a, mid, r1).unwrap();
        c.add_resistor("R2", mid, Circuit::GND, r2).unwrap();
        let dc = c.dc_operating_point().unwrap();
        let expect = v * r2 / (r1 + r2);
        prop_assert!((dc.voltage("mid").unwrap() - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }

    #[test]
    fn ladder_dc_drop_is_total_resistance(
        r_total in 10.0_f64..1e6,
        segments in 1_usize..24,
    ) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GND, Waveform::Dc(1.0)).unwrap();
        add_distributed_line(&mut c, "l", a, b, LineTotals::rc(r_total, 1e-15), segments).unwrap();
        c.add_resistor("Rterm", b, Circuit::GND, r_total).unwrap();
        let dc = c.dc_operating_point().unwrap();
        // Divider with equal halves: exactly 0.5 V regardless of segments.
        prop_assert!((dc.voltage("b").unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rc_transient_is_monotone_and_bounded(
        r in 100.0_f64..1e5,
        c_farads in 1e-13_f64..1e-9,
    ) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GND, Waveform::step(1.0)).unwrap();
        c.add_resistor("R1", a, b, r).unwrap();
        c.add_capacitor("C1", b, Circuit::GND, c_farads).unwrap();
        let tau = r * c_farads;
        let tran = c.transient(&TranOptions::new(3.0 * tau, tau / 100.0)).unwrap();
        let w = tran.voltage("b").unwrap();
        for pair in w.windows(2) {
            prop_assert!(pair[1] >= pair[0] - 1e-9, "non-monotone RC charge");
        }
        prop_assert!(w.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
    }

    #[test]
    fn parse_value_roundtrips_plain_floats(v in -1e12_f64..1e12) {
        let s = format!("{v:e}");
        let parsed = parse_value(&s).unwrap();
        prop_assert!((parsed - v).abs() <= 1e-9 * v.abs().max(1e-12));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_lines(s in "\\PC{0,60}") {
        // Totality: arbitrary garbage must produce Ok or Err, not panic.
        let _ = parse_netlist(&s);
    }

    #[test]
    fn generated_rc_netlists_always_parse(
        r in 1.0_f64..1e9,
        c_farads in 1e-18_f64..1e-6,
    ) {
        let text = format!("V1 in 0 1.0\nR1 in out {r:e}\nC1 out 0 {c_farads:e}\n.end");
        let circuit = parse_netlist(&text).unwrap();
        prop_assert_eq!(circuit.element_count(), 3);
        let dc = circuit.dc_operating_point().unwrap();
        prop_assert!((dc.voltage("out").unwrap() - 1.0).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trapezoidal_and_be_agree_on_fine_grids(
        r in 500.0_f64..5e4,
        c_farads in 1e-12_f64..1e-10,
    ) {
        let build = || {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.add_vsource("V1", a, Circuit::GND, Waveform::step(1.0)).unwrap();
            c.add_resistor("R1", a, b, r).unwrap();
            c.add_capacitor("C1", b, Circuit::GND, c_farads).unwrap();
            c
        };
        let tau = r * c_farads;
        let opts = TranOptions::new(2.0 * tau, tau / 400.0);
        let last = |o: &TranOptions| {
            let wave = build().transient(o).unwrap().waveform("b").unwrap();
            wave.last().unwrap().1
        };
        let be = last(&opts);
        let tr = last(&opts.trapezoidal());
        prop_assert!((be - tr).abs() < 5e-3, "BE {} vs TRAP {}", be, tr);
    }
}
