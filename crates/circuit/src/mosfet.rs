//! Level-1 MOSFET model with 45 nm-class presets.
//!
//! The Fig. 11/12 benchmark of the paper compares *delay ratios* between
//! doped and pristine MWCNT loads, a quantity dominated by the RC of the
//! line rather than by transistor fine structure. A square-law (level-1)
//! device with channel-length modulation and fixed gate capacitances is
//! therefore an adequate — and fully reproducible — stand-in for a 45 nm
//! PDK card.

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// n-channel.
    Nmos,
    /// p-channel.
    Pmos,
}

/// A level-1 MOSFET parameter card plus instance geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Threshold voltage magnitude, volts.
    pub vt0: f64,
    /// Transconductance parameter `k' = µ·Cox`, A/V².
    pub kp: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// Channel width, metres.
    pub width: f64,
    /// Channel length, metres.
    pub length: f64,
    /// Gate–source capacitance, farads (stamped as a linear capacitor).
    pub cgs: f64,
    /// Gate–drain capacitance, farads (stamped as a linear capacitor).
    pub cgd: f64,
}

/// Small-signal linearization of the drain current at a bias point:
/// `id ≈ i_eq + gm·v_gs + gds·v_ds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetLinearization {
    /// Drain current at the bias point, amperes (positive into the drain
    /// for NMOS).
    pub id: f64,
    /// Transconductance ∂id/∂vgs, siemens.
    pub gm: f64,
    /// Output conductance ∂id/∂vds, siemens.
    pub gds: f64,
}

impl MosfetModel {
    /// NMOS card for the 45 nm benchmark inverter (PTM-like magnitudes):
    /// `VT0 = 0.4 V`, `k' = 450 µA/V²`, `λ = 0.1 /V`, `W/L = 90 nm/45 nm`.
    pub fn nmos_45nm() -> Self {
        Self {
            polarity: Polarity::Nmos,
            vt0: 0.4,
            kp: 450e-6,
            lambda: 0.1,
            width: 90e-9,
            length: 45e-9,
            cgs: 0.06e-15,
            cgd: 0.04e-15,
        }
    }

    /// PMOS card for the 45 nm benchmark inverter: the hole-mobility
    /// deficit is compensated by a doubled width.
    pub fn pmos_45nm() -> Self {
        Self {
            polarity: Polarity::Pmos,
            vt0: 0.4,
            kp: 200e-6,
            lambda: 0.12,
            width: 180e-9,
            length: 45e-9,
            cgs: 0.12e-15,
            cgd: 0.08e-15,
        }
    }

    /// Returns a copy scaled to a different width (drive-strength sizing).
    pub fn with_width(mut self, width: f64) -> Self {
        let scale = width / self.width;
        self.cgs *= scale;
        self.cgd *= scale;
        self.width = width;
        self
    }

    /// `β = k'·W/L`.
    fn beta(&self) -> f64 {
        self.kp * self.width / self.length
    }

    /// Evaluates drain current and derivatives at terminal voltages
    /// (`v_gs`, `v_ds` in the device's own frame — the analysis engine
    /// handles polarity reflection and source/drain swapping).
    ///
    /// Uses the level-1 equations:
    /// cutoff `vgs ≤ vt`, triode `vds < vgs − vt`, saturation otherwise,
    /// all with `(1 + λ·vds)` channel-length modulation.
    pub fn evaluate(&self, v_gs: f64, v_ds: f64) -> MosfetLinearization {
        let beta = self.beta();
        let vov = v_gs - self.vt0;
        if vov <= 0.0 {
            return MosfetLinearization {
                id: 0.0,
                gm: 0.0,
                gds: 0.0,
            };
        }
        let clm = 1.0 + self.lambda * v_ds;
        if v_ds < vov {
            // Triode.
            let id = beta * (vov * v_ds - 0.5 * v_ds * v_ds) * clm;
            let gm = beta * v_ds * clm;
            let gds = beta * ((vov - v_ds) * clm + (vov * v_ds - 0.5 * v_ds * v_ds) * self.lambda);
            MosfetLinearization { id, gm, gds }
        } else {
            // Saturation.
            let id = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * self.lambda;
            MosfetLinearization { id, gm, gds }
        }
    }

    /// Saturation drive current at `|vgs| = |vds| = vdd` — a quick sizing
    /// helper.
    pub fn on_current(&self, vdd: f64) -> f64 {
        self.evaluate(vdd, vdd).id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_region_is_dead() {
        let m = MosfetModel::nmos_45nm();
        let l = m.evaluate(0.2, 1.0);
        assert_eq!(l.id, 0.0);
        assert_eq!(l.gm, 0.0);
        assert_eq!(l.gds, 0.0);
    }

    #[test]
    fn triode_to_saturation_continuity() {
        let m = MosfetModel::nmos_45nm();
        let vgs = 1.0;
        let vdsat = vgs - m.vt0;
        let below = m.evaluate(vgs, vdsat - 1e-9);
        let above = m.evaluate(vgs, vdsat + 1e-9);
        assert!((below.id - above.id).abs() / above.id < 1e-6);
        assert!((below.gm - above.gm).abs() / above.gm < 1e-6);
    }

    #[test]
    fn saturation_current_scales_with_width() {
        let m = MosfetModel::nmos_45nm();
        let wide = m.with_width(180e-9);
        assert!((wide.on_current(1.0) / m.on_current(1.0) - 2.0).abs() < 1e-9);
        assert!((wide.cgs / m.cgs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = MosfetModel::nmos_45nm();
        let h = 1e-7;
        for (vgs, vds) in [(0.8, 0.2), (0.8, 0.6), (1.0, 1.0), (0.5, 0.05)] {
            let l = m.evaluate(vgs, vds);
            let dgm = (m.evaluate(vgs + h, vds).id - m.evaluate(vgs - h, vds).id) / (2.0 * h);
            let dgds = (m.evaluate(vgs, vds + h).id - m.evaluate(vgs, vds - h).id) / (2.0 * h);
            assert!(
                (l.gm - dgm).abs() < 1e-6 * (1.0 + dgm.abs()),
                "gm at {vgs},{vds}"
            );
            assert!(
                (l.gds - dgds).abs() < 1e-6 * (1.0 + dgds.abs()),
                "gds at {vgs},{vds}"
            );
        }
    }

    #[test]
    fn nmos_out_drives_pmos_per_area() {
        let n = MosfetModel::nmos_45nm();
        let p = MosfetModel::pmos_45nm();
        // Equal drive by sizing: both cards should be within ~30 % at VDD = 1 V.
        let ratio = n.on_current(1.0) / p.on_current(1.0);
        assert!((0.7..1.5).contains(&ratio), "drive ratio {ratio}");
    }
}
