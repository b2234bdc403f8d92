//! Circuit data model and builder API.
//!
//! A [`Circuit`] is a bag of elements over interned nodes. Node `"0"`
//! (alias `"gnd"`) is the ground reference. Element constructors validate
//! values eagerly (C-VALIDATE) and reject duplicate names so netlists stay
//! debuggable.

use crate::mosfet::MosfetModel;
use crate::waveform::Waveform;
use crate::{Error, Result};
use std::collections::HashMap;

/// Opaque node handle returned by [`Circuit::node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index into voltage vectors (ground = 0).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Element {
    Resistor {
        name: String,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    },
    Capacitor {
        name: String,
        a: NodeId,
        b: NodeId,
        farads: f64,
    },
    Inductor {
        name: String,
        a: NodeId,
        b: NodeId,
        henries: f64,
    },
    VSource {
        name: String,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    },
    ISource {
        name: String,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    },
    Mosfet {
        name: String,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: MosfetModel,
    },
}

impl Element {
    pub(crate) fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::Mosfet { name, .. } => name,
        }
    }
}

/// A circuit under construction (and the input to the analyses).
///
/// # Example
///
/// ```
/// use cnt_circuit::circuit::Circuit;
/// use cnt_circuit::waveform::Waveform;
///
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// c.add_vsource("V1", a, Circuit::GND, Waveform::Dc(1.0))?;
/// c.add_resistor("R1", a, Circuit::GND, 50.0)?;
/// assert_eq!(c.node_count(), 2); // ground + "a"
/// # Ok::<(), cnt_circuit::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    pub(crate) elements: Vec<Element>,
    element_names: HashMap<String, usize>,
}

impl Circuit {
    /// The ground node (always present, index 0).
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Self {
            node_names: vec!["0".to_string()],
            node_lookup: HashMap::new(),
            elements: Vec::new(),
            element_names: HashMap::new(),
        };
        c.node_lookup.insert("0".into(), NodeId(0));
        c.node_lookup.insert("gnd".into(), NodeId(0));
        c
    }

    /// Interns a node by name, creating it on first use. `"0"` and `"gnd"`
    /// always refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_lookup.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_lookup.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] if the node has never been created.
    pub fn find_node(&self, name: &str) -> Result<NodeId> {
        self.node_lookup
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownNode {
                name: name.to_string(),
            })
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All node names in id order (ground first).
    pub fn node_names(&self) -> Vec<&str> {
        self.node_names.iter().map(String::as_str).collect()
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// `true` if the circuit contains nonlinear devices (MOSFETs).
    pub fn has_nonlinear(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e, Element::Mosfet { .. }))
    }

    fn register(&mut self, e: Element) -> Result<()> {
        let name = e.name().to_string();
        if self.element_names.contains_key(&name) {
            return Err(Error::DuplicateElement { name });
        }
        self.element_names.insert(name, self.elements.len());
        self.elements.push(e);
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidValue`] for non-positive or non-finite resistance;
    /// [`Error::DuplicateElement`] on name reuse.
    pub fn add_resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> Result<()> {
        if !ohms.is_finite() || ohms <= 0.0 {
            return Err(Error::InvalidValue {
                element: name.to_string(),
                value: ohms,
            });
        }
        self.register(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidValue`] for negative or non-finite capacitance;
    /// [`Error::DuplicateElement`] on name reuse.
    pub fn add_capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> Result<()> {
        if !farads.is_finite() || farads < 0.0 {
            return Err(Error::InvalidValue {
                element: name.to_string(),
                value: farads,
            });
        }
        self.register(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        })
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidValue`] for non-positive or non-finite inductance;
    /// [`Error::DuplicateElement`] on name reuse.
    pub fn add_inductor(&mut self, name: &str, a: NodeId, b: NodeId, henries: f64) -> Result<()> {
        if !henries.is_finite() || henries <= 0.0 {
            return Err(Error::InvalidValue {
                element: name.to_string(),
                value: henries,
            });
        }
        self.register(Element::Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
        })
    }

    /// Adds an independent voltage source (positive terminal `p`).
    ///
    /// # Errors
    ///
    /// Propagates waveform validation; [`Error::DuplicateElement`] on name
    /// reuse.
    pub fn add_vsource(&mut self, name: &str, p: NodeId, n: NodeId, wave: Waveform) -> Result<()> {
        wave.validate()?;
        self.register(Element::VSource {
            name: name.to_string(),
            p,
            n,
            wave,
        })
    }

    /// Adds an independent current source (current flows from `p` through
    /// the source to `n`).
    ///
    /// # Errors
    ///
    /// Propagates waveform validation; [`Error::DuplicateElement`] on name
    /// reuse.
    pub fn add_isource(&mut self, name: &str, p: NodeId, n: NodeId, wave: Waveform) -> Result<()> {
        wave.validate()?;
        self.register(Element::ISource {
            name: name.to_string(),
            p,
            n,
            wave,
        })
    }

    /// Adds a MOSFET (drain, gate, source; bulk is tied to source in this
    /// level-1 model).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidValue`] for non-positive geometry or `kp`;
    /// [`Error::DuplicateElement`] on name reuse.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: MosfetModel,
    ) -> Result<()> {
        if model.width <= 0.0 || model.length <= 0.0 || model.kp <= 0.0 {
            return Err(Error::InvalidValue {
                element: name.to_string(),
                value: model.width.min(model.length).min(model.kp),
            });
        }
        self.register(Element::Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GND);
        assert_eq!(c.node("gnd"), Circuit::GND);
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.node_names()[Circuit::GND.0], "0");
    }

    #[test]
    fn node_interning_is_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.find_node("b").unwrap(), b);
        assert!(c.find_node("zz").is_err());
    }

    #[test]
    fn element_validation() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R1", a, Circuit::GND, -5.0).is_err());
        assert!(c.add_resistor("R1", a, Circuit::GND, f64::NAN).is_err());
        assert!(c.add_capacitor("C1", a, Circuit::GND, -1e-15).is_err());
        assert!(c.add_inductor("L1", a, Circuit::GND, 0.0).is_err());
        c.add_resistor("R1", a, Circuit::GND, 5.0).unwrap();
        // Duplicate name rejected even across element kinds.
        assert!(matches!(
            c.add_capacitor("R1", a, Circuit::GND, 1e-15),
            Err(Error::DuplicateElement { .. })
        ));
        assert_eq!(c.element_count(), 1);
    }

    #[test]
    fn nonlinearity_detection() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GND, 5.0).unwrap();
        assert!(!c.has_nonlinear());
        c.add_mosfet(
            "M1",
            a,
            Circuit::GND,
            Circuit::GND,
            crate::mosfet::MosfetModel::nmos_45nm(),
        )
        .unwrap();
        assert!(c.has_nonlinear());
    }

    #[test]
    fn bad_mosfet_geometry_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mut m = crate::mosfet::MosfetModel::nmos_45nm();
        m.width = 0.0;
        assert!(c.add_mosfet("M1", a, a, Circuit::GND, m).is_err());
    }
}
