//! Property-based tests of the tight-binding and geometry layers.

use cnt_atomistic::bands::BandStructure;
use cnt_atomistic::chirality::Chirality;
use cnt_atomistic::geometry;
use proptest::prelude::*;

fn chirality_strategy() -> impl Strategy<Value = Chirality> {
    (1i32..16, 0i32..16)
        .prop_filter("m <= n", |(n, m)| m <= n)
        .prop_map(|(n, m)| Chirality::new(n, m).expect("filtered to valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn diameter_positive_and_monotone_in_indices(c in chirality_strategy()) {
        prop_assert!(c.diameter().meters() > 0.0);
        let bigger = Chirality::new(c.n() + 1, c.m()).unwrap();
        prop_assert!(bigger.diameter() > c.diameter());
    }

    #[test]
    fn metallicity_rule_matches_band_gap(c in chirality_strategy()) {
        let bands = BandStructure::compute(c, 601).unwrap();
        if c.is_metallic() {
            // Small residual gap allowed: the discrete grid may straddle
            // the crossing for chiral tubes.
            prop_assert!(bands.band_gap_ev() < 0.25, "({}, {}): gap {}", c.n(), c.m(), bands.band_gap_ev());
        } else {
            prop_assert!(bands.band_gap_ev() > 0.1, "({}, {}): gap {}", c.n(), c.m(), bands.band_gap_ev());
        }
    }

    #[test]
    fn mode_count_is_particle_hole_symmetric(
        c in chirality_strategy(),
        e in 0.0_f64..2.5,
    ) {
        let bands = BandStructure::compute(c, 301).unwrap();
        prop_assert_eq!(bands.mode_count(e), bands.mode_count(-e));
    }

    #[test]
    fn mode_count_zero_beyond_band_edge(c in chirality_strategy()) {
        let bands = BandStructure::compute(c, 301).unwrap();
        // The π-band spectrum ends at 3γ0 = 8.1 eV.
        prop_assert_eq!(bands.mode_count(8.2), 0);
    }

    #[test]
    fn chiral_angle_within_armchair_zigzag_range(c in chirality_strategy()) {
        let a = c.chiral_angle_degrees();
        prop_assert!((0.0..=30.0 + 1e-9).contains(&a));
    }

    #[test]
    fn unit_cell_always_has_2n_atoms_on_cylinder(c in chirality_strategy()) {
        let atoms = geometry::tube_unit_cell(c);
        prop_assert_eq!(atoms.len(), 2 * c.hexagon_count() as usize);
        let r = c.diameter().meters() / 2.0;
        for a in &atoms {
            prop_assert!((a.position_m[0].hypot(a.position_m[1]) - r).abs() < 1e-14);
        }
    }

    #[test]
    fn translation_period_consistent_with_atom_density(c in chirality_strategy()) {
        // Graphene sheet density: 4/(√3 a²) atoms per area. The cylinder
        // surface of one period carries exactly 2N atoms.
        let area = c.circumference().meters() * c.translation_length().meters();
        let density = 4.0 / (3.0_f64.sqrt() * cnt_units::consts::A_LATTICE.powi(2));
        let expected = density * area;
        let actual = 2.0 * c.hexagon_count() as f64;
        prop_assert!((expected - actual).abs() / actual < 1e-6);
    }

    #[test]
    fn van_hove_energies_sorted_and_first_is_half_gap(c in chirality_strategy()) {
        let bands = BandStructure::compute(c, 301).unwrap();
        let vhs = bands.van_hove_energies_ev();
        prop_assert!(!vhs.is_empty());
        for w in vhs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!((2.0 * vhs[0] - bands.band_gap_ev()).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clean_negf_chain_is_ballistic_at_any_in_band_energy(
        e in -4.5_f64..4.5,
        sites in 10_usize..200,
    ) {
        use cnt_atomistic::negf::DisorderedChain;
        use cnt_units::si::Length;
        use rand::SeedableRng;
        let chain = DisorderedChain::new(sites, 2.7, 0.0, Length::from_nanometers(0.25)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let t = chain.transmission(e, &mut rng);
        if e.abs() < 5.3 {
            prop_assert!((t - 1.0).abs() < 1e-6, "T({}) = {}", e, t);
        }
    }

    #[test]
    fn disordered_transmission_is_a_probability(
        w in 0.0_f64..4.0,
        seed in 0u64..1000,
    ) {
        use cnt_atomistic::negf::DisorderedChain;
        use cnt_units::si::Length;
        use rand::SeedableRng;
        let chain = DisorderedChain::new(80, 2.7, w, Length::from_nanometers(0.25)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = chain.transmission(0.0, &mut rng);
        prop_assert!((0.0..=1.0).contains(&t));
    }
}
