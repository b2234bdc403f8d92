//! Distributed interconnect-line builders.
//!
//! The delay benchmark of the paper (Fig. 11) loads inverters with MWCNT
//! interconnects modelled as distributed RC lines (Eqs. 4–5 give the total
//! R and C; the compact-model crate computes them). This module expands a
//! total (R, C[, L]) into a π-segment ladder inside a [`Circuit`].

use crate::circuit::{Circuit, NodeId};
use crate::{Error, Result};

/// Electrical totals of a line to be expanded into a ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineTotals {
    /// Total series resistance, ohms.
    pub resistance: f64,
    /// Total shunt capacitance, farads.
    pub capacitance: f64,
    /// Total series inductance, henries (0 = RC only).
    pub inductance: f64,
}

impl LineTotals {
    /// RC-only totals.
    pub fn rc(resistance: f64, capacitance: f64) -> Self {
        Self {
            resistance,
            capacitance,
            inductance: 0.0,
        }
    }

    /// Elmore delay estimate `0.38·R·C + …` for a distributed line driven
    /// by a source with resistance `r_drv` into a load `c_load`:
    /// `t_50 ≈ 0.69·(r_drv·(C + c_load) + R·c_load) + 0.38·R·C`.
    pub fn elmore_delay(&self, r_drv: f64, c_load: f64) -> f64 {
        0.69 * (r_drv * (self.capacitance + c_load) + self.resistance * c_load)
            + 0.38 * self.resistance * self.capacitance
    }
}

/// Expands a distributed line into `segments` π-sections between `input`
/// and `output`. Internal nodes are named `"<prefix>_n<k>"`. Returns the
/// list of created internal node ids.
///
/// Each π-section carries `R/n` (and `L/n` when present) in series with
/// half the section capacitance at each of its two ends, which makes the
/// ladder symmetric and second-order accurate in `1/n`.
///
/// # Errors
///
/// * [`Error::InvalidOptions`] if `segments == 0`;
/// * [`Error::InvalidValue`] for non-positive R or negative C/L.
///
/// # Example
///
/// ```
/// use cnt_circuit::prelude::*;
/// use cnt_circuit::line::{add_distributed_line, LineTotals};
///
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// let b = c.node("b");
/// add_distributed_line(&mut c, "ln", a, b, LineTotals::rc(1e3, 1e-13), 8)?;
/// assert!(c.element_count() >= 16);
/// # Ok::<(), cnt_circuit::Error>(())
/// ```
pub fn add_distributed_line(
    circuit: &mut Circuit,
    prefix: &str,
    input: NodeId,
    output: NodeId,
    totals: LineTotals,
    segments: usize,
) -> Result<Vec<NodeId>> {
    if segments == 0 {
        return Err(Error::InvalidOptions("need at least one line segment"));
    }
    if totals.resistance <= 0.0 {
        return Err(Error::InvalidValue {
            element: format!("{prefix} (resistance)"),
            value: totals.resistance,
        });
    }
    if totals.capacitance < 0.0 || totals.inductance < 0.0 {
        return Err(Error::InvalidValue {
            element: format!("{prefix} (reactance)"),
            value: totals.capacitance.min(totals.inductance),
        });
    }
    let n = segments as f64;
    let r_seg = totals.resistance / n;
    let c_seg = totals.capacitance / n;
    let l_seg = totals.inductance / n;

    let mut internal = Vec::new();
    let mut prev = input;
    for k in 0..segments {
        let next = if k + 1 == segments {
            output
        } else {
            let id = circuit.node(&format!("{prefix}_n{}", k + 1));
            internal.push(id);
            id
        };
        // Half capacitance at the section entry.
        if c_seg > 0.0 {
            circuit.add_capacitor(&format!("{prefix}_ca{k}"), prev, Circuit::GND, c_seg / 2.0)?;
        }
        if l_seg > 0.0 {
            // Series R then L through an extra internal node.
            let mid = circuit.node(&format!("{prefix}_m{k}"));
            circuit.add_resistor(&format!("{prefix}_r{k}"), prev, mid, r_seg)?;
            circuit.add_inductor(&format!("{prefix}_l{k}"), mid, next, l_seg)?;
        } else {
            circuit.add_resistor(&format!("{prefix}_r{k}"), prev, next, r_seg)?;
        }
        // Half capacitance at the section exit.
        if c_seg > 0.0 {
            circuit.add_capacitor(&format!("{prefix}_cb{k}"), next, Circuit::GND, c_seg / 2.0)?;
        }
        prev = next;
    }
    Ok(internal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TranOptions;
    use crate::waveform::Waveform;

    #[test]
    fn rejects_bad_parameters() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert!(add_distributed_line(&mut c, "l", a, b, LineTotals::rc(1e3, 1e-13), 0).is_err());
        assert!(add_distributed_line(&mut c, "l", a, b, LineTotals::rc(-1.0, 1e-13), 4).is_err());
        assert!(add_distributed_line(&mut c, "l", a, b, LineTotals::rc(1e3, -1e-13), 4).is_err());
    }

    #[test]
    fn dc_resistance_of_ladder_equals_total() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GND, Waveform::Dc(1.0))
            .unwrap();
        add_distributed_line(&mut c, "l", a, b, LineTotals::rc(10e3, 1e-13), 7).unwrap();
        c.add_resistor("Rterm", b, Circuit::GND, 10e3).unwrap();
        let dc = c.dc_operating_point().unwrap();
        // Divider: 10k line + 10k terminator ⇒ 0.5 V at the output.
        assert!((dc.voltage("b").unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn step_delay_approaches_distributed_limit_with_segments() {
        // 50 % delay of an ideally driven distributed RC line ≈ 0.38·RC.
        // A single ideally-driven π-section gives 0.69·R·(C/2) ≈ 0.345·RC
        // (its input half-capacitance hangs across the source), so the
        // ladder converges to the distributed limit from *below*.
        let delay_for = |segments: usize| -> f64 {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.add_vsource("V1", a, Circuit::GND, Waveform::step(1.0))
                .unwrap();
            add_distributed_line(&mut c, "l", a, b, LineTotals::rc(1e3, 1e-12), segments).unwrap();
            let tr = c.transient(&TranOptions::new(8e-9, 4e-12)).unwrap();
            let w = tr.waveform("b").unwrap();
            w.iter().find(|(_, v)| *v >= 0.5).map(|(t, _)| *t).unwrap()
        };
        let d1 = delay_for(1);
        let d16 = delay_for(16);
        let rc = 1e3 * 1e-12;
        assert!(
            (d1 - 0.345 * rc).abs() / (0.345 * rc) < 0.1,
            "d1 = {d1}, expected ≈ {}",
            0.345 * rc
        );
        assert!(
            (d16 - 0.38 * rc).abs() / (0.38 * rc) < 0.1,
            "d16 = {d16}, expected ≈ {}",
            0.38 * rc
        );
        assert!(d16 > d1, "ladder converges to 0.38·RC from below");
    }

    #[test]
    fn rlc_line_builds_and_runs() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GND, Waveform::step(1.0))
            .unwrap();
        add_distributed_line(
            &mut c,
            "l",
            a,
            b,
            LineTotals {
                resistance: 100.0,
                capacitance: 1e-13,
                inductance: 1e-10,
            },
            4,
        )
        .unwrap();
        c.add_resistor("Rterm", b, Circuit::GND, 1e6).unwrap();
        let tr = c.transient(&TranOptions::new(2e-9, 1e-12)).unwrap();
        let last = tr.waveform("b").unwrap().last().unwrap().1;
        assert!((last - 1.0).abs() < 0.01, "settles to 1: {last}");
    }

    #[test]
    fn elmore_estimate_tracks_simulation() {
        let totals = LineTotals::rc(5e3, 2e-13);
        let r_drv = 1e3;
        let c_load = 5e-14;
        let est = totals.elmore_delay(r_drv, c_load);

        let mut c = Circuit::new();
        let src = c.node("src");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", src, Circuit::GND, Waveform::step(1.0))
            .unwrap();
        c.add_resistor("Rdrv", src, a, r_drv).unwrap();
        add_distributed_line(&mut c, "l", a, b, totals, 12).unwrap();
        c.add_capacitor("Cload", b, Circuit::GND, c_load).unwrap();
        let tr = c.transient(&TranOptions::new(3e-8, 1e-11)).unwrap();
        let w = tr.waveform("b").unwrap();
        let t50 = w.iter().find(|(_, v)| *v >= 0.5).map(|(t, _)| *t).unwrap();
        assert!(
            (t50 - est).abs() / est < 0.25,
            "simulated {t50:.3e} vs Elmore {est:.3e}"
        );
    }
}
