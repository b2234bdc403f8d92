//! SPICE-like netlist export of extracted parasitics.
//!
//! The paper: "Extracted RC netlists are provided in a SPICE-like format
//! for circuit-level simulation" (Section III.B). The format written here
//! is the shared contract with the `cnt-circuit` parser: element cards
//! (`R`/`C` prefix, two node names, a value in SI units), `*` comments and
//! a final `.end`.

use crate::extract::{CapacitanceResult, ResistanceResult};
use crate::Result;
use std::fmt::Write as _;

/// Accumulates netlist cards and renders them as text.
///
/// # Example
///
/// ```
/// use cnt_fields::netlist::NetlistWriter;
///
/// let mut w = NetlistWriter::new("demo");
/// w.add_resistor("Rline", "in", "out", 12.9e3);
/// w.add_capacitor("Cload", "out", "0", 1e-15);
/// let text = w.render();
/// assert!(text.contains("Rline in out 1.29e4"));
/// assert!(text.trim_end().ends_with(".end"));
/// ```
#[derive(Debug, Clone)]
pub struct NetlistWriter {
    title: String,
    cards: Vec<String>,
}

impl NetlistWriter {
    /// Starts a netlist with a title comment.
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            cards: Vec::new(),
        }
    }

    /// Adds a comment card.
    fn add_comment(&mut self, text: &str) -> &mut Self {
        self.cards.push(format!("* {}", text.replace('\n', " ")));
        self
    }

    /// Adds a resistor card.
    pub fn add_resistor(&mut self, name: &str, n1: &str, n2: &str, ohms: f64) -> &mut Self {
        self.cards.push(format!(
            "{} {} {} {:e}",
            sanitize(name),
            sanitize(n1),
            sanitize(n2),
            ohms
        ));
        self
    }

    /// Adds a capacitor card.
    pub fn add_capacitor(&mut self, name: &str, n1: &str, n2: &str, farads: f64) -> &mut Self {
        self.cards.push(format!(
            "{} {} {} {:e}",
            sanitize(name),
            sanitize(n1),
            sanitize(n2),
            farads
        ));
        self
    }

    /// Expands a Maxwell capacitance matrix into coupling capacitors
    /// between conductor nodes plus grounded capacitors to node `gnd`.
    /// Couplings below `min_farads` are dropped (netlist hygiene).
    ///
    /// # Errors
    ///
    /// Propagates label-lookup errors from the result accessors.
    pub fn add_capacitance_matrix(
        &mut self,
        result: &CapacitanceResult,
        gnd: &str,
        min_farads: f64,
    ) -> Result<&mut Self> {
        let labels = result.labels();
        self.add_comment("coupling capacitances from field solution");
        for i in 0..labels.len() {
            for j in i + 1..labels.len() {
                let c = result.coupling(labels[i], labels[j])?.farads();
                if c >= min_farads {
                    let name = format!("Cc_{}_{}", sanitize(labels[i]), sanitize(labels[j]));
                    self.add_capacitor(&name, labels[i], labels[j], c);
                }
            }
        }
        self.add_comment("ground capacitances from field solution");
        for label in &labels {
            let c = result.to_ground(label)?.farads();
            if c >= min_farads {
                let name = format!("Cg_{}", sanitize(label));
                self.add_capacitor(&name, label, gnd, c);
            }
        }
        Ok(self)
    }

    /// Adds the resistor card of a two-terminal resistance extraction.
    pub fn add_resistance_result(
        &mut self,
        name: &str,
        source: &str,
        sink: &str,
        result: &ResistanceResult,
    ) -> &mut Self {
        self.add_comment(&format!(
            "extracted resistance, hot spot |J| = {:.3e} A/m^2 at {:?}",
            result.hot_spot.magnitude, result.hot_spot.position
        ));
        self.add_resistor(name, source, sink, result.resistance.ohms())
    }

    /// Renders the netlist text (title comment, cards, `.end`).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "* {}", self.title);
        for c in &self.cards {
            let _ = writeln!(s, "{c}");
        }
        let _ = writeln!(s, ".end");
        s
    }
}

/// Replaces whitespace with underscores so labels survive as node names.
fn sanitize(name: &str) -> String {
    name.split_whitespace().collect::<Vec<_>>().join("_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_capacitance;
    use crate::solver::SolverOptions;
    use crate::structure::StructureBuilder;

    #[test]
    fn renders_cards_in_order_with_terminator() {
        let mut w = NetlistWriter::new("t");
        w.add_comment("hello world")
            .add_resistor("R1", "a", "b", 100.0)
            .add_capacitor("C1", "b", "0", 2e-15);
        let text = w.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "* t");
        assert_eq!(lines[1], "* hello world");
        assert!(lines[2].starts_with("R1 a b"));
        assert!(lines[3].starts_with("C1 b 0"));
        assert_eq!(*lines.last().unwrap(), ".end");
    }

    #[test]
    fn sanitizes_names() {
        let mut w = NetlistWriter::new("t");
        w.add_resistor("R bad name", "m1 in", "m1 out", 1.0);
        assert!(w.render().contains("R_bad_name m1_in m1_out"));
    }

    #[test]
    fn capacitance_matrix_expansion() {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
        b.conductor("a", [0.0, 0.0, 0.0], [1.0, 1.0, 0.25]);
        b.conductor("b", [0.0, 0.0, 0.75], [1.0, 1.0, 1.0]);
        let s = b.build([7, 7, 9]).unwrap();
        let r = extract_capacitance(&s, &SolverOptions::default()).unwrap();
        let mut w = NetlistWriter::new("cap test");
        w.add_capacitance_matrix(&r, "0", 0.0).unwrap();
        let text = w.render();
        assert!(text.contains("Cc_a_b a b"), "{text}");
        // With Neumann outer boundaries everything couples to the pair, so
        // ground caps are small but present as cards or filtered cleanly.
        assert!(text.ends_with(".end\n"));
    }

    #[test]
    fn min_cap_filter_drops_tiny_couplings() {
        let mut b = StructureBuilder::new([1.0, 1.0, 1.0]);
        b.dielectric([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0);
        b.conductor("a", [0.0, 0.0, 0.0], [1.0, 1.0, 0.25]);
        b.conductor("b", [0.0, 0.0, 0.75], [1.0, 1.0, 1.0]);
        let s = b.build([7, 7, 9]).unwrap();
        let r = extract_capacitance(&s, &SolverOptions::default()).unwrap();
        let mut w = NetlistWriter::new("filtered");
        w.add_capacitance_matrix(&r, "0", 1.0).unwrap(); // 1 F floor: drop all
        let text = w.render();
        assert!(!text.contains("Cc_"), "{text}");
    }
}
