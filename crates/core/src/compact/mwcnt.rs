//! The doped-MWCNT compact model of the paper (Section III.C, Eqs. 4–5).
//!
//! ```text
//! R_MW = 1 / (N_C · N_S · G_1channel),  G_1channel = G0 / (1 + L/L_MFP)
//! C_MW = (N_C·N_S·C_Q · C_E) / (N_C·N_S·C_Q + C_E) ≈ C_E
//! ```
//!
//! with the doping enhancement factor `N_C` (conducting channels per
//! shell, 2 for pristine metallic shells, up to 10 for heavy doping),
//! `C_Q = 96.5 aF/µm` per channel, and `N_S` shells filling the tube
//! "until its diameter is smaller than D_max/2". Two shell-count policies
//! and two MFP policies are provided because the paper's prose supports
//! both readings — the difference is one of the ablations of DESIGN.md §6.

use crate::compact::electrostatic::{wire_over_plane_capacitance, WireEnvironment};
use crate::{Error, Result};
use cnt_units::consts::{CQ_PER_CHANNEL, G0_SIEMENS, MFP_DIAMETER_RATIO, SHELL_SPACING};
use cnt_units::si::{Capacitance, Conductance, Length, Resistance};

/// How many conducting channels each shell carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShellChannelModel {
    /// The paper's model: every shell carries the same `N_C` (2 = pristine
    /// metallic; doping raises it, "we select Nc per shell to vary from 2
    /// to 10 for different doping concentrations").
    Uniform(usize),
    /// Naeemi & Meindl's statistical channel count per shell,
    /// `N_chan ≈ a·d·T + b` with chirality averaging (captures that large
    /// shells conduct more): used for pristine large-diameter MWCNTs.
    NaeemiStatistical,
}

impl ShellChannelModel {
    /// Channels contributed by one shell of diameter `d` at 300 K.
    fn channels(&self, d: Length) -> f64 {
        match self {
            ShellChannelModel::Uniform(nc) => *nc as f64,
            ShellChannelModel::NaeemiStatistical => {
                // a = 3.87e-4 /(nm·K), b = 0.2 at T = 300 K; floor of 2/3
                // (1/3 metallic × 2 channels) for thin shells.
                let d_nm = d.nanometers();
                (3.87e-4 * d_nm * 300.0 + 0.2).max(2.0 / 3.0)
            }
        }
    }
}

/// How the shell stack is constructed from the outer diameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShellFillPolicy {
    /// Shells from `D` down to `D/2` at the van der Waals spacing
    /// (0.34 nm): the standard physical construction, matching "MWCNT is
    /// filled with shells until its diameter is smaller than DmaxCNT/2".
    HalfDiameterVdw,
    /// The paper's literal sentence "Number of shells (Ns) is derived as
    /// diameter − 1": `N_S = round(D/nm) − 1`.
    PaperDiameterMinusOne,
}

impl ShellFillPolicy {
    /// Shell diameters, outermost first.
    fn shell_diameters(&self, outer: Length) -> Vec<Length> {
        match self {
            ShellFillPolicy::HalfDiameterVdw => {
                vdw_shells(outer).map(Length::from_meters).collect()
            }
            ShellFillPolicy::PaperDiameterMinusOne => {
                let n = paper_shell_count(outer);
                // Spread the shells over the same physical [D/2, D] window.
                (0..n)
                    .map(|k| {
                        let frac = if n == 1 {
                            1.0
                        } else {
                            1.0 - 0.5 * k as f64 / (n - 1) as f64
                        };
                        Length::from_meters(outer.meters() * frac)
                    })
                    .collect()
            }
        }
    }

    /// Number of shells, the length of
    /// [`ShellFillPolicy::shell_diameters`], without building them.
    fn shell_count(&self, outer: Length) -> usize {
        match self {
            ShellFillPolicy::HalfDiameterVdw => vdw_shells(outer).count(),
            ShellFillPolicy::PaperDiameterMinusOne => paper_shell_count(outer),
        }
    }
}

/// Shell diameters in metres from `outer` down to `outer/2`, one van der
/// Waals diameter step apart.
fn vdw_shells(outer: Length) -> impl Iterator<Item = f64> {
    let min = outer.meters() / 2.0;
    std::iter::successors(Some(outer.meters()), |d| Some(d - 2.0 * SHELL_SPACING))
        .take_while(move |&d| d >= min - 1e-15)
}

/// `N_S = round(D/nm) − 1`, at least 1.
fn paper_shell_count(outer: Length) -> usize {
    ((outer.nanometers().round() as i64) - 1).max(1) as usize
}

/// Mean-free-path model for the shells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MfpModel {
    /// One shared `L_MFP = 1000·D_outer` (the paper's single-`L_MFP`
    /// formula, reference \[19\]).
    OuterDiameterShared,
    /// Per-shell `λ_i = 1000·d_i` (each shell scatters on its own scale).
    PerShell,
    /// Fixed value — used when the NEGF/growth calibration supplies one.
    Fixed(Length),
}

impl MfpModel {
    fn mfp_for(&self, shell: Length, outer: Length) -> Length {
        match self {
            MfpModel::OuterDiameterShared => outer * MFP_DIAMETER_RATIO,
            MfpModel::PerShell => shell * MFP_DIAMETER_RATIO,
            MfpModel::Fixed(l) => *l,
        }
    }
}

/// The doped multi-wall CNT interconnect model (paper Eqs. 4–5).
#[derive(Debug, Clone, PartialEq)]
pub struct DopedMwcnt {
    outer_diameter: Length,
    channels: ShellChannelModel,
    fill: ShellFillPolicy,
    mfp: MfpModel,
    environment: WireEnvironment,
    contact_resistance: Resistance,
}

impl DopedMwcnt {
    /// Full constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive diameter, a
    /// zero channel count or a negative contact resistance.
    pub fn new(
        outer_diameter: Length,
        channels: ShellChannelModel,
        fill: ShellFillPolicy,
        mfp: MfpModel,
        environment: WireEnvironment,
        contact_resistance: Resistance,
    ) -> Result<Self> {
        if outer_diameter.meters() <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "outer_diameter",
                value: outer_diameter.meters(),
            });
        }
        if let ShellChannelModel::Uniform(0) = channels {
            return Err(Error::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        if let MfpModel::Fixed(l) = mfp {
            if l.meters() <= 0.0 {
                return Err(Error::InvalidParameter {
                    name: "mfp",
                    value: l.meters(),
                });
            }
        }
        if contact_resistance.ohms() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "contact_resistance",
                value: contact_resistance.ohms(),
            });
        }
        Ok(Self {
            outer_diameter,
            channels,
            fill,
            mfp,
            environment,
            contact_resistance,
        })
    }

    /// The exact configuration of the paper's Fig. 12 study: uniform
    /// `nc` channels per shell, `N_S = D − 1` shells, shared
    /// `L_MFP = 1000·D`, ideal contacts, BEOL environment.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn paper_model(outer_diameter: Length, nc: usize) -> Result<Self> {
        Self::new(
            outer_diameter,
            ShellChannelModel::Uniform(nc),
            ShellFillPolicy::PaperDiameterMinusOne,
            MfpModel::OuterDiameterShared,
            WireEnvironment::beol_default(),
            Resistance::from_ohms(0.0),
        )
    }

    /// Number of shells `N_S` under the configured fill policy.
    pub fn shell_count(&self) -> usize {
        self.fill.shell_count(self.outer_diameter)
    }

    /// Total conducting channels `N_C·N_S` (summed over shells).
    fn total_channels(&self) -> f64 {
        self.fill
            .shell_diameters(self.outer_diameter)
            .iter()
            .map(|&d| self.channels.channels(d))
            .sum()
    }

    /// Line conductance at length `l` (paper Eq. 4, inverted): sums
    /// `N_C(d)·G0/(1 + L/λ(d))` over shells, in series with the contacts.
    ///
    /// When neither `N_C` nor `λ` depends on the shell diameter (uniform
    /// channels with a shared or fixed MFP, the Fig. 12 model), the term
    /// is evaluated once and added once per shell in shell order, which is
    /// the per-shell sum bit for bit.
    fn conductance(&self, l: Length) -> Conductance {
        let term = |d: Length| {
            let lambda = self.mfp.mfp_for(d, self.outer_diameter);
            self.channels.channels(d) * G0_SIEMENS / (1.0 + l.meters() / lambda.meters())
        };
        let g_shells: f64 = match (self.channels, self.mfp) {
            (ShellChannelModel::Uniform(_), MfpModel::OuterDiameterShared | MfpModel::Fixed(_)) => {
                let n = self.fill.shell_count(self.outer_diameter);
                std::iter::repeat_n(term(self.outer_diameter), n).sum()
            }
            _ => self
                .fill
                .shell_diameters(self.outer_diameter)
                .into_iter()
                .map(term)
                .sum(),
        };
        let r = 1.0 / g_shells + self.contact_resistance.ohms();
        Conductance::from_siemens(1.0 / r)
    }

    /// Line resistance `R_MW(L)` (paper Eq. 4 plus contacts).
    pub fn resistance(&self, l: Length) -> Resistance {
        self.conductance(l).to_resistance()
    }

    /// Per-length electrostatic capacitance `C_E` (doping-independent).
    ///
    /// # Errors
    ///
    /// Propagates geometry validation from the capacitance formula.
    pub fn electrostatic_capacitance_per_length(&self) -> Result<Capacitance> {
        wire_over_plane_capacitance(self.outer_diameter, self.environment)
    }

    /// Total line capacitance `C_MW(L)` (paper Eq. 5: series combination of
    /// the quantum and electrostatic capacitances — which evaluates to
    /// ≈ `C_E·L`).
    ///
    /// # Errors
    ///
    /// Propagates geometry validation.
    pub fn capacitance(&self, l: Length) -> Result<Capacitance> {
        let ce = self.electrostatic_capacitance_per_length()?.farads() * l.meters();
        let cq = self.total_channels() * CQ_PER_CHANNEL * l.meters();
        Ok(Capacitance::from_farads(ce * cq / (ce + cq)))
    }

    /// Axial conductivity `σ(L) = L/(R·A)` over the tube footprint — the
    /// quantity plotted in the paper's Fig. 9.
    pub fn conductivity(&self, l: Length) -> f64 {
        let d = self.outer_diameter.meters();
        let area = core::f64::consts::PI * d * d / 4.0;
        l.meters() / (self.resistance(l).ohms() * area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(v: f64) -> Length {
        Length::from_nanometers(v)
    }

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    #[test]
    fn paper_shell_counts() {
        for (d, ns) in [(10.0, 9), (14.0, 13), (22.0, 21)] {
            let m = DopedMwcnt::paper_model(nm(d), 2).unwrap();
            assert_eq!(m.shell_count(), ns, "D = {d} nm");
        }
        // Physical policy: D to D/2 at 0.68 nm diameter steps.
        let m = DopedMwcnt::new(
            nm(10.0),
            ShellChannelModel::Uniform(2),
            ShellFillPolicy::HalfDiameterVdw,
            MfpModel::PerShell,
            WireEnvironment::beol_default(),
            Resistance::from_ohms(0.0),
        )
        .unwrap();
        assert_eq!(m.shell_count(), 8); // 10, 9.32, …, 5.24 nm
    }

    #[test]
    fn ballistic_limit_is_quantum_resistance() {
        // L → 0: R = R0/(Nc·Ns) = 12.9 kΩ / 18 for the 10 nm pristine tube.
        let m = DopedMwcnt::paper_model(nm(10.0), 2).unwrap();
        let r0 = m.resistance(Length::from_nanometers(0.001)).ohms();
        let expect = cnt_units::consts::R0_OHMS / 18.0;
        assert!((r0 - expect).abs() / expect < 1e-3, "R(0) = {r0}");
    }

    #[test]
    fn resistance_grows_linearly_at_long_length() {
        let m = DopedMwcnt::paper_model(nm(10.0), 2).unwrap();
        let r1 = m.resistance(um(100.0)).ohms();
        let r2 = m.resistance(um(200.0)).ohms();
        // Far beyond λ = 10 µm the ballistic offset is negligible.
        assert!((r2 / r1 - 2.0).abs() < 0.1, "ratio {}", r2 / r1);
    }

    #[test]
    fn doping_divides_resistance_by_channel_ratio() {
        let p = DopedMwcnt::paper_model(nm(14.0), 2).unwrap();
        let d = DopedMwcnt::paper_model(nm(14.0), 10).unwrap();
        let ratio = p.resistance(um(500.0)).ohms() / d.resistance(um(500.0)).ohms();
        assert!((ratio - 5.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn capacitance_is_dominated_by_ce_eq5() {
        // Paper Eq. 5: C_MW ≈ C_E because N_C·N_S·C_Q ≫ C_E.
        let m = DopedMwcnt::paper_model(nm(10.0), 2).unwrap();
        let l = um(100.0);
        let c = m.capacitance(l).unwrap().farads();
        let ce = m.electrostatic_capacitance_per_length().unwrap().farads() * l.meters();
        assert!((c - ce).abs() / ce < 0.05, "C = {c}, CE = {ce}");
        // And doping leaves it essentially unchanged (the residual ~2 %
        // comes from the CQ series term that Eq. 5 drops entirely).
        let doped = DopedMwcnt::paper_model(nm(10.0), 10).unwrap();
        let cd = doped.capacitance(l).unwrap().farads();
        assert!((cd - c).abs() / c < 0.03);
    }

    #[test]
    fn fig12_resistance_anchor_values() {
        // The numbers that make the 10/5/2 % Fig. 12 anchors work (see
        // DESIGN.md §5): R(500 µm, Nc = 2) ≈ 36.6 / 18.3 / 7.3 kΩ.
        let expect = [(10.0, 36.6e3), (14.0, 18.3e3), (22.0, 7.3e3)];
        for (d, r_expect) in expect {
            let m = DopedMwcnt::paper_model(nm(d), 2).unwrap();
            let r = m.resistance(um(500.0)).ohms();
            assert!(
                (r - r_expect).abs() / r_expect < 0.03,
                "D = {d} nm: R = {r:.0} Ω, expected ≈ {r_expect:.0}"
            );
        }
    }

    #[test]
    fn naeemi_channels_reward_large_shells() {
        let tiny = ShellChannelModel::NaeemiStatistical.channels(nm(1.0));
        let small = ShellChannelModel::NaeemiStatistical.channels(nm(5.0));
        let large = ShellChannelModel::NaeemiStatistical.channels(nm(50.0));
        assert!((tiny - 2.0 / 3.0).abs() < 1e-9, "floor region: {tiny}");
        assert!((2.0 / 3.0..1.0).contains(&small), "5 nm shell: {small}");
        assert!(large > 5.0, "50 nm shell: {large}");
    }

    #[test]
    fn contact_resistance_adds_in_series() {
        let ideal = DopedMwcnt::paper_model(nm(10.0), 2).unwrap();
        let contacted = DopedMwcnt::new(
            nm(10.0),
            ShellChannelModel::Uniform(2),
            ShellFillPolicy::PaperDiameterMinusOne,
            MfpModel::OuterDiameterShared,
            WireEnvironment::beol_default(),
            Resistance::from_kilo_ohms(40.0),
        )
        .unwrap();
        let delta = contacted.resistance(um(1.0)).ohms() - ideal.resistance(um(1.0)).ohms();
        assert!((delta - 40e3).abs() < 1.0);
    }

    #[test]
    fn validation() {
        assert!(DopedMwcnt::paper_model(Length::ZERO, 2).is_err());
        assert!(DopedMwcnt::paper_model(nm(10.0), 0).is_err());
        assert!(DopedMwcnt::new(
            nm(10.0),
            ShellChannelModel::Uniform(2),
            ShellFillPolicy::HalfDiameterVdw,
            MfpModel::Fixed(Length::ZERO),
            WireEnvironment::beol_default(),
            Resistance::from_ohms(0.0),
        )
        .is_err());
        assert!(DopedMwcnt::new(
            nm(10.0),
            ShellChannelModel::Uniform(2),
            ShellFillPolicy::HalfDiameterVdw,
            MfpModel::PerShell,
            WireEnvironment::beol_default(),
            Resistance::from_ohms(-1.0),
        )
        .is_err());
    }

    /// The per-shell sum `conductance` replaced where every shell's term
    /// is the same: the bit-exact reference.
    fn conductance_by_shell(m: &DopedMwcnt, l: Length) -> f64 {
        let g_shells: f64 = m
            .fill
            .shell_diameters(m.outer_diameter)
            .iter()
            .map(|&d| {
                let lambda = m.mfp.mfp_for(d, m.outer_diameter);
                m.channels.channels(d) * G0_SIEMENS / (1.0 + l.meters() / lambda.meters())
            })
            .sum();
        1.0 / (1.0 / g_shells + m.contact_resistance.ohms())
    }

    #[test]
    fn conductance_is_the_per_shell_sum_bit_for_bit() {
        let fills = [
            ShellFillPolicy::HalfDiameterVdw,
            ShellFillPolicy::PaperDiameterMinusOne,
        ];
        let mfps = [
            MfpModel::OuterDiameterShared,
            MfpModel::PerShell,
            MfpModel::Fixed(um(3.0)),
        ];
        let channels = [
            ShellChannelModel::Uniform(2),
            ShellChannelModel::Uniform(7),
            ShellChannelModel::NaeemiStatistical,
        ];
        let lengths = [nm(1.0), nm(250.0), um(10.0), um(500.0), um(2000.0)];
        for fill in fills {
            for mfp in mfps {
                for ch in channels {
                    for tenths in (10..=400).step_by(7) {
                        let d = nm(tenths as f64 / 10.0);
                        for contact in [0.0, 5e3] {
                            let env = WireEnvironment::beol_default();
                            let contact = Resistance::from_ohms(contact);
                            let m = DopedMwcnt::new(d, ch, fill, mfp, env, contact).unwrap();
                            assert_eq!(m.shell_count(), fill.shell_diameters(d).len());
                            for l in lengths {
                                assert_eq!(
                                    m.conductance(l).siemens().to_bits(),
                                    conductance_by_shell(&m, l).to_bits(),
                                    "{fill:?} {mfp:?} {ch:?} D = {d:?}, L = {l:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conductivity_rises_then_saturates_fig9_shape() {
        let m = DopedMwcnt::paper_model(nm(10.0), 2).unwrap();
        let s_short = m.conductivity(nm(100.0));
        let s_mid = m.conductivity(um(10.0));
        let s_long = m.conductivity(um(1000.0));
        assert!(s_mid > s_short, "ballistic regime: σ grows with L");
        // Deep diffusive regime: saturation.
        let s_longer = m.conductivity(um(2000.0));
        assert!((s_longer / s_long - 1.0).abs() < 0.02, "σ saturates");
    }
}
