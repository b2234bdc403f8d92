//! Fundamental and material constants used throughout the platform.
//!
//! Values are given in SI units unless the name says otherwise. Paper
//! anchors: the quantum conductance `G0` is quoted in the paper both as
//! "0.077 mS" and "~1/12.9 kΩ" (Section III); the per-channel quantum
//! capacitance 96.5 aF/µm comes from Li et al. (TED 2008), reference \[20\]
//! of the paper.

/// Elementary charge `e` in coulombs.
pub const Q_E: f64 = 1.602_176_634e-19;

/// Planck constant `h` in J·s.
pub const H_PLANCK: f64 = 6.626_070_15e-34;

/// Reduced Planck constant `ħ` in J·s.
pub const HBAR: f64 = H_PLANCK / (2.0 * core::f64::consts::PI);

/// Boltzmann constant in J/K.
pub const K_B: f64 = 1.380_649e-23;

/// Boltzmann constant in eV/K.
pub const K_B_EV: f64 = K_B / Q_E;

/// Vacuum permittivity in F/m.
pub const EPS_0: f64 = 8.854_187_812_8e-12;

/// Quantum of conductance *including spin degeneracy*, `2e²/h`, in siemens.
///
/// The paper rounds this to 0.077 mS; the exact value is 77.48 µS. One
/// conducting channel contributes `G0`; a pristine metallic SWCNT has two
/// channels and hence 0.155 mS of ballistic conductance.
pub const G0_SIEMENS: f64 = 2.0 * Q_E * Q_E / H_PLANCK;

/// Quantum resistance per channel `h/2e²` ≈ 12.906 kΩ.
pub const R0_OHMS: f64 = 1.0 / G0_SIEMENS;

/// Graphene/CNT Fermi velocity in m/s.
pub const V_FERMI: f64 = 8.0e5;

/// Nearest-neighbour tight-binding hopping energy of graphene, eV.
///
/// The π-orbital value used to reproduce the DFT band structures of the
/// paper's Fig. 8 (2.7 eV is the standard Saito–Dresselhaus choice).
pub const GAMMA0_EV: f64 = 2.7;

/// Carbon–carbon bond length in graphene, metres (0.142 nm).
pub const A_CC: f64 = 0.142e-9;

/// Graphene lattice constant `a = √3·a_cc` in metres (0.246 nm).
pub const A_LATTICE: f64 = 0.246e-9;

/// Van der Waals spacing between MWCNT shells, metres (0.34 nm).
pub const SHELL_SPACING: f64 = 0.34e-9;

/// Quantum capacitance per conducting channel, F/m (96.5 aF/µm, paper Eq. 5).
pub const CQ_PER_CHANNEL: f64 = 96.5e-18 / 1.0e-6;

/// Mean-free-path-to-diameter ratio for metallic CNT shells at 300 K.
///
/// λ ≈ 1000·d (Naeemi & Meindl, EDL 2006 — reference \[19\] of the paper).
pub const MFP_DIAMETER_RATIO: f64 = 1000.0;

/// Bulk copper resistivity at 300 K, Ω·m (1.72 µΩ·cm).
pub const RHO_CU_BULK: f64 = 1.72e-8;

/// Electron mean free path in copper at 300 K, metres (39 nm).
pub const LAMBDA_CU: f64 = 39.0e-9;

/// Copper thermal conductivity at 300 K, W/(m·K) (paper: 385).
pub const KTH_CU: f64 = 385.0;

/// Lower end of the SWCNT-bundle thermal conductivity band, W/(m·K).
pub const KTH_CNT_LOW: f64 = 3000.0;

/// Upper end of the SWCNT-bundle thermal conductivity band, W/(m·K).
pub const KTH_CNT_HIGH: f64 = 10_000.0;

/// Electromigration-limited current density of copper, A/m² (10⁶ A/cm²).
pub const JMAX_CU: f64 = 1.0e6 * 1.0e4;

/// Demonstrated current density of metallic SWCNT bundles, A/m² (10⁹ A/cm²).
pub const JMAX_CNT: f64 = 1.0e9 * 1.0e4;

/// Minimum CNT areal density for resistance parity with Cu, tubes per m²
/// (0.096 per nm², ITRS-derived figure quoted in Section I).
pub const CNT_DENSITY_FLOOR: f64 = 0.096 * 1.0e18;

/// Room temperature used throughout the paper's evaluations, kelvin.
pub const T_ROOM: f64 = 300.0;

/// Activation energy for electromigration in copper, eV (Black's equation).
pub const EA_EM_CU_EV: f64 = 0.9;

/// Relative permittivity of a typical BEOL low-k dielectric.
pub const EPS_R_LOWK: f64 = 2.7;

/// Relative permittivity of silicon dioxide.
pub const EPS_R_SIO2: f64 = 3.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_conductance_matches_paper_rounding() {
        // Paper quotes 0.077 mS.
        assert!((G0_SIEMENS - 77.48e-6).abs() < 0.01e-6);
        // And ~1/12.9 kΩ.
        assert!((R0_OHMS - 12.906e3).abs() < 5.0);
    }

    #[test]
    fn two_channels_give_paper_pristine_conductance() {
        // Pristine metallic SWCNT: 0.155 mS (Fig. 8c).
        assert!((2.0 * G0_SIEMENS - 0.155e-3).abs() < 1e-6);
    }

    #[test]
    fn five_channels_give_paper_doped_conductance() {
        // Doped CNT(7,7): 0.387 mS (Fig. 8c) = five conducting channels.
        assert!((5.0 * G0_SIEMENS - 0.387e-3).abs() < 1e-6);
    }

    #[test]
    fn boltzmann_in_ev_is_consistent() {
        assert!((K_B_EV - 8.617e-5).abs() < 1e-8);
    }

    #[test]
    fn ampacity_gap_is_three_orders() {
        assert!((JMAX_CNT / JMAX_CU - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn lattice_geometry_consistent() {
        assert!((A_LATTICE - 3f64.sqrt() * A_CC).abs() < 1e-12);
    }

    #[test]
    fn copper_wire_from_intro_carries_50_microamps() {
        // Cu 100 nm × 50 nm at its EM limit carries 50 µA (Section I).
        let area = 100e-9 * 50e-9;
        let i = JMAX_CU * area;
        assert!((i - 50e-6).abs() < 1e-12);
    }
}
