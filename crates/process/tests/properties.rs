//! Property-based tests of the process models.

use cnt_process::composite::{ampacity_boost, composite_conductivity};
use cnt_process::growth::{Catalyst, GrowthRecipe};
use cnt_process::variability::{resistance_stats, sample_devices, DevicePopulation, DopingState};
use cnt_process::wafer::WaferMap;
use cnt_units::si::Temperature;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn growth_rate_monotone_in_temperature(
        t1 in 550.0_f64..900.0,
        dt in 1.0_f64..200.0,
    ) {
        let lo = GrowthRecipe::thermal(Catalyst::Iron, Temperature::from_kelvin(t1))
            .simulate().unwrap();
        let hi = GrowthRecipe::thermal(Catalyst::Iron, Temperature::from_kelvin(t1 + dt))
            .simulate().unwrap();
        prop_assert!(hi.growth_rate_um_per_min > lo.growth_rate_um_per_min);
    }

    #[test]
    fn growth_observables_are_physical(
        t in 500.0_f64..1100.0,
        plasma in any::<bool>(),
    ) {
        let r = GrowthRecipe {
            catalyst: Catalyst::Cobalt,
            temperature: Temperature::from_kelvin(t),
            plasma_assisted: plasma,
        }
        .simulate()
        .unwrap();
        prop_assert!(r.growth_rate_um_per_min >= 0.0);
        prop_assert!(r.dg_ratio >= 0.0);
        prop_assert!(r.areal_density_per_cm2 >= 0.0);
        prop_assert!(r.tortuosity >= 1.0);
    }

    #[test]
    fn composite_mixing_is_bounded_by_constituents(
        vf in 0.0_f64..0.74,
        fill in 0.0_f64..1.0,
        sigma_cu in 1e6_f64..1e8,
        sigma_cnt in 1e5_f64..1e8,
    ) {
        let s = composite_conductivity(vf, fill, sigma_cu, sigma_cnt);
        let hi = sigma_cu.max(sigma_cnt);
        prop_assert!(s >= 0.0 && s <= hi * (1.0 + 1e-12));
    }

    #[test]
    fn ampacity_boost_monotone(v1 in 0.0_f64..0.7, dv in 0.001_f64..0.04) {
        prop_assert!(ampacity_boost(v1 + dv) > ampacity_boost(v1));
    }

    #[test]
    fn wafer_uniformity_scales_with_injected_noise(
        noise in 0.005_f64..0.08,
        seed in 0u64..100,
    ) {
        let map = WaferMap::generate(0.3, 200, 1.0, 0.0, noise, seed).unwrap();
        let cv = map.uniformity().unwrap().cv;
        prop_assert!((cv - noise).abs() < 0.4 * noise + 0.002, "cv {} vs noise {}", cv, noise);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn doping_never_hurts_the_median(seed in 0u64..50) {
        let pop = DevicePopulation::mwcnt_via_default();
        let p = resistance_stats(&sample_devices(&pop, DopingState::Pristine, 600, seed).unwrap())
            .unwrap();
        let d = resistance_stats(
            &sample_devices(
                &pop,
                DopingState::Doped { channels_per_shell: 6 },
                600,
                seed,
            )
            .unwrap(),
        )
        .unwrap();
        prop_assert!(d.median <= p.median);
        prop_assert!(d.cv <= p.cv);
    }
}
