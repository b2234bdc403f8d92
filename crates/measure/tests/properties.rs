//! Property-based tests of the virtual measurement lab.

use cnt_measure::iv::{iv_sweep, CntDevice};
use cnt_measure::tlm::{fit_tlm, TlmExperiment};
use cnt_units::si::{Current, Length, Resistance, Voltage};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn noise_free_tlm_recovers_any_truth(
        rc in 0.0_f64..1e6,
        rpul_kohm_um in 0.1_f64..1e3,
    ) {
        let exp = TlmExperiment {
            lengths: (1..=6).map(|k| Length::from_micrometers(k as f64)).collect(),
            contact_resistance: rc,
            resistance_per_length: rpul_kohm_um * 1e3 / 1e-6,
            noise: 0.0,
        };
        let fit = fit_tlm(&exp.measure(0).unwrap()).unwrap();
        prop_assert!((fit.contact_resistance - rc).abs() <= 1e-6 * rc.max(1.0));
        prop_assert!(
            (fit.resistance_per_length - exp.resistance_per_length).abs()
                <= 1e-6 * exp.resistance_per_length
        );
    }

    #[test]
    fn tlm_fit_never_panics_on_positive_data(
        data in prop::collection::vec((0.1_f64..10.0, 1.0_f64..1e6), 3..12),
    ) {
        let pts: Vec<(Length, Resistance)> = data
            .iter()
            .enumerate()
            .map(|(k, (l, r))| {
                // Strictly increasing lengths avoid the degenerate case.
                (
                    Length::from_micrometers(l + k as f64 * 10.0),
                    Resistance::from_ohms(*r),
                )
            })
            .collect();
        let fit = fit_tlm(&pts).unwrap();
        prop_assert!(fit.r_squared.is_finite());
    }

    #[test]
    fn iv_current_odd_and_saturating(
        r_kohm in 1.0_f64..500.0,
        v in 0.01_f64..10.0,
    ) {
        let d = CntDevice {
            resistance: Resistance::from_kilo_ohms(r_kohm),
            saturation_current: Current::from_microamps(25.0),
        };
        let ip = d.current_at(Voltage::from_volts(v)).amps();
        let im = d.current_at(Voltage::from_volts(-v)).amps();
        prop_assert!((ip + im).abs() < 1e-18);
        prop_assert!(ip.abs() < 25e-6);
        // Below the ohmic value.
        prop_assert!(ip <= v / (r_kohm * 1e3) + 1e-18);
    }

    #[test]
    fn iv_sweep_is_reproducible(seed in 0u64..200) {
        let d = CntDevice {
            resistance: Resistance::from_kilo_ohms(40.0),
            saturation_current: Current::from_microamps(25.0),
        };
        let a = iv_sweep(&d, Voltage::from_volts(1.0), 21, 0.05, seed).unwrap();
        let b = iv_sweep(&d, Voltage::from_volts(1.0), 21, 0.05, seed).unwrap();
        prop_assert_eq!(a, b);
    }
}
