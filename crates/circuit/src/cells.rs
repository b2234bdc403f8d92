//! Standard cells for the Fig. 11 benchmark: CMOS inverters.

use crate::circuit::{Circuit, NodeId};
use crate::mosfet::MosfetModel;
use crate::Result;

/// An inverter cell description: its device cards and supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterCell {
    /// NMOS card.
    pub nmos: MosfetModel,
    /// PMOS card.
    pub pmos: MosfetModel,
    /// Supply voltage, volts.
    pub vdd: f64,
}

impl InverterCell {
    /// The 45 nm benchmark inverter of the paper's Fig. 11 (VDD = 1 V).
    pub fn inv_45nm() -> Self {
        Self {
            nmos: MosfetModel::nmos_45nm(),
            pmos: MosfetModel::pmos_45nm(),
            vdd: 1.0,
        }
    }

    /// Returns a drive-strength-scaled copy (widths × `factor`).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.nmos = self.nmos.with_width(self.nmos.width * factor);
        self.pmos = self.pmos.with_width(self.pmos.width * factor);
        self
    }

    /// Effective switching resistance estimate `VDD / (2·I_on)` — used by
    /// Elmore-style delay estimates.
    pub fn drive_resistance(&self) -> f64 {
        let i_on = self.nmos.on_current(self.vdd);
        self.vdd / (2.0 * i_on)
    }

    /// Input capacitance estimate (sum of the gate capacitances).
    pub fn input_capacitance(&self) -> f64 {
        self.nmos.cgs + self.nmos.cgd + self.pmos.cgs + self.pmos.cgd
    }

    /// Instantiates the inverter into `circuit` between `input` and
    /// `output`, drawing from supply node `vdd`.
    ///
    /// # Errors
    ///
    /// Propagates element-registration errors (duplicate names…).
    pub fn instantiate(
        &self,
        circuit: &mut Circuit,
        name: &str,
        input: NodeId,
        output: NodeId,
        vdd: NodeId,
    ) -> Result<()> {
        circuit.add_mosfet(
            &format!("{name}_mn"),
            output,
            input,
            Circuit::GND,
            self.nmos,
        )?;
        circuit.add_mosfet(&format!("{name}_mp"), output, input, vdd, self.pmos)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TranOptions;
    use crate::waveform::Waveform;

    #[test]
    fn chain_of_two_inverters_restores_polarity() {
        let cell = InverterCell::inv_45nm();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        let y = c.node("y");
        c.add_vsource("Vdd", vdd, Circuit::GND, Waveform::Dc(cell.vdd))
            .unwrap();
        c.add_vsource(
            "Vin",
            a,
            Circuit::GND,
            Waveform::edge(0.0, 1.0, 10e-12, 5e-12),
        )
        .unwrap();
        cell.instantiate(&mut c, "inv1", a, b, vdd).unwrap();
        cell.instantiate(&mut c, "inv2", b, y, vdd).unwrap();
        c.add_capacitor("Cl", y, Circuit::GND, 0.2e-15).unwrap();
        let tr = c.transient(&TranOptions::new(300e-12, 0.25e-12)).unwrap();
        assert!(tr.voltage("y").unwrap()[0] < 0.05, "y starts low");
        assert!(
            tr.waveform("y").unwrap().last().unwrap().1 > 0.95,
            "y ends high"
        );
    }

    #[test]
    fn scaling_raises_drive() {
        let base = InverterCell::inv_45nm();
        let strong = base.scaled(4.0);
        assert!(strong.drive_resistance() < base.drive_resistance() / 3.5);
        assert!(strong.input_capacitance() > base.input_capacitance() * 3.5);
    }

    #[test]
    fn drive_resistance_magnitude_is_kiloohms() {
        // 45 nm minimum inverter: a few kΩ effective drive.
        let r = InverterCell::inv_45nm().drive_resistance();
        assert!((500.0..20_000.0).contains(&r), "R_drv = {r}");
    }
}
