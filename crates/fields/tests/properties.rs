//! Property-based tests of the field solver: discretization invariants
//! and physical scaling laws.

use cnt_fields::extract::{extract_capacitance, extract_resistance};
use cnt_fields::grid::Grid3;
use cnt_fields::solver::SolverOptions;
use cnt_fields::structure::StructureBuilder;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_index_roundtrips(
        nx in 2_usize..12,
        ny in 2_usize..12,
        nz in 2_usize..12,
        frac in 0.0_f64..1.0,
    ) {
        let g = Grid3::new([1.0, 1.0, 1.0], [nx, ny, nz]).unwrap();
        let idx = ((g.node_count() - 1) as f64 * frac) as usize;
        let (i, j, k) = g.node_indices(idx);
        prop_assert_eq!(g.node_index(i, j, k), idx);
        prop_assert!(i < nx && j < ny && k < nz);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_plate_scales_linearly_with_permittivity(eps in 1.0_f64..10.0) {
        let build = |eps_r: f64| {
            let mut b = StructureBuilder::new([1.0, 1.0, 0.5]);
            b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 0.5], eps_r);
            b.conductor("bot", [0.0, 0.0, 0.0], [1.0, 1.0, 0.125]);
            b.conductor("top", [0.0, 0.0, 0.375], [1.0, 1.0, 0.5]);
            let s = b.build([5, 5, 9]).unwrap();
            extract_capacitance(&s, &SolverOptions::default())
                .unwrap()
                .coupling("bot", "top")
                .unwrap()
                .farads()
        };
        let c1 = build(1.0);
        let ce = build(eps);
        prop_assert!((ce / c1 - eps).abs() < 1e-6 * eps, "ratio {} vs eps {}", ce / c1, eps);
    }

    #[test]
    fn capacitance_matrix_rows_are_diagonally_dominant(
        gap in 0.3_f64..0.6,
    ) {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2.0);
        b.conductor("a", [0.0, 0.0, 0.0], [1.0, 1.0, 0.25]);
        b.conductor("b", [0.0, 0.0, 0.25 + gap], [1.0, 1.0, 1.0]);
        let s = b.build([5, 5, 9]).unwrap();
        let cap = extract_capacitance(&s, &SolverOptions::default()).unwrap();
        let m = cap.matrix();
        for (i, row) in m.iter().enumerate().take(2) {
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.abs())
                .sum();
            prop_assert!(row[i] >= off - 1e-20, "row {} not dominant", i);
        }
        prop_assert!(cap.asymmetry() < 1e-6);
    }

    #[test]
    fn bar_resistance_inverse_in_conductivity(sigma_exp in 5.0_f64..8.0) {
        let sigma = 10f64.powf(sigma_exp);
        let mut b = StructureBuilder::new([1.0e-6, 0.2e-6, 0.2e-6]);
        b.resistive([0.0, 0.0, 0.0], [1.0e-6, 0.2e-6, 0.2e-6], sigma);
        b.conductor("in", [0.0, 0.0, 0.0], [0.05e-6, 0.2e-6, 0.2e-6]);
        b.conductor("out", [0.95e-6, 0.0, 0.0], [1.0e-6, 0.2e-6, 0.2e-6]);
        // 21 nodes along x so the 50 nm terminal boxes cover two node
        // planes each (effective length 0.9 µm between terminal faces).
        let s = b.build([21, 3, 3]).unwrap();
        let r = extract_resistance(&s, "in", "out", &SolverOptions::default()).unwrap();
        let analytic = 0.9e-6 / (sigma * 0.04e-12);
        prop_assert!(
            (r.resistance.ohms() - analytic).abs() / analytic < 0.05,
            "R {} vs {}",
            r.resistance.ohms(),
            analytic
        );
        prop_assert!(r.flux_imbalance < 1e-6);
    }
}
