//! SPICE-like circuit simulator: modified nodal analysis, DC and transient
//! solvers, MOSFET device models and a netlist parser.
//!
//! This crate is the circuit-level substrate of the `cnt-beol` platform.
//! The paper (Uhlig et al., DATE 2018, Section III.C and Figs. 11–12)
//! benchmarks doped-MWCNT interconnects by driving distributed RC lines
//! between 45 nm-node CMOS inverters and measuring propagation delay. We
//! implement the full loop in Rust:
//!
//! * [`circuit`] — the circuit data model and builder API;
//! * [`linalg`] — dense LU solver used by the MNA engine;
//! * [`waveform`] — independent-source waveforms (DC, pulse, PWL, sine);
//! * [`mosfet`] — level-1 MOSFET with 45 nm-class parameter presets;
//! * [`analysis`] — Newton DC operating point and BE/trapezoidal transient;
//! * [`measure`] — delay / rise-time extraction from waveforms;
//! * [`mod@line`] — distributed-RC(L) ladder builders for interconnect loads;
//! * [`cells`] — inverter cells used by the Fig. 11 benchmark;
//! * [`parse`] — SPICE-like netlist parser (consumes `cnt-fields` output).
//!
//! # Example
//!
//! ```
//! use cnt_circuit::prelude::*;
//!
//! // RC low-pass driven by a step: check the 63 % point at t = τ.
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let vout = c.node("out");
//! c.add_vsource("Vs", vin, Circuit::GND, Waveform::step(1.0))?;
//! c.add_resistor("R1", vin, vout, 1e3)?;
//! c.add_capacitor("C1", vout, Circuit::GND, 1e-9)?;
//! let tran = c.transient(&TranOptions::new(5e-6, 1e-8))?;
//! let w = tran.waveform("out")?;
//! let v_at_tau = w.iter().find(|(t, _)| *t >= 1e-6).unwrap().1;
//! assert!((v_at_tau - 0.632).abs() < 0.01);
//! # Ok::<(), cnt_circuit::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cells;
pub mod circuit;
pub mod linalg;
pub mod line;
pub mod measure;
pub mod mosfet;
pub mod parse;
pub mod waveform;

/// Glob import for typical simulation flows.
pub mod prelude {
    pub use crate::analysis::{DcResult, Integrator, TranOptions, TranResult};
    pub use crate::circuit::{Circuit, NodeId};
    pub use crate::measure::{propagation_delay, rise_time};
    pub use crate::mosfet::MosfetModel;
    pub use crate::waveform::Waveform;
    pub use crate::Error;
}

use core::fmt;

/// Errors produced by the circuit simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An element value was out of its physical domain.
    InvalidValue {
        /// Element name.
        element: String,
        /// Offending value.
        value: f64,
    },
    /// Duplicate element name.
    DuplicateElement {
        /// The name.
        name: String,
    },
    /// Referenced an unknown node name.
    UnknownNode {
        /// The name.
        name: String,
    },
    /// Newton iteration failed to converge.
    NoConvergence {
        /// Context (e.g. `"dc"`, `"transient t=1.2e-9"`).
        context: String,
        /// Iterations performed.
        iterations: usize,
    },
    /// The MNA matrix was singular (floating node, voltage-source loop…).
    SingularMatrix {
        /// Row index where elimination failed.
        row: usize,
    },
    /// Invalid analysis options.
    InvalidOptions(&'static str),
    /// Netlist text failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A waveform was malformed (e.g. unsorted PWL points).
    InvalidWaveform(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidValue { element, value } => {
                write!(f, "invalid value {value} for element {element}")
            }
            Error::DuplicateElement { name } => write!(f, "duplicate element name '{name}'"),
            Error::UnknownNode { name } => write!(f, "unknown node '{name}'"),
            Error::NoConvergence {
                context,
                iterations,
            } => write!(
                f,
                "{context}: Newton failed to converge in {iterations} iterations"
            ),
            Error::SingularMatrix { row } => {
                write!(
                    f,
                    "singular MNA matrix at row {row} (floating node or source loop?)"
                )
            }
            Error::InvalidOptions(msg) => write!(f, "invalid analysis options: {msg}"),
            Error::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
            Error::InvalidWaveform(msg) => write!(f, "invalid waveform: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
