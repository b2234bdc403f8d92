//! Compact models and multi-scale experiment pipelines for CNT BEOL
//! interconnects — the core of the `cnt-beol` reproduction of
//! *Uhlig et al., "Progress on Carbon Nanotube BEOL Interconnects",
//! DATE 2018*.
//!
//! The paper's conclusion asks for "a multi-scale physics-based simulation
//! platform (from ab-initio material simulation to circuit-level)". This
//! crate is that platform's top layer:
//!
//! * [`compact`] — RC(L) compact models: SWCNT, MWCNT with doping
//!   (paper Eqs. 4–5), size-effect copper, Cu–CNT composite and the
//!   electrostatic capacitance formulas they share;
//! * [`calibrate`] — pulls the compact-model parameters out of the
//!   atomistic layer (channel counts from zone folding + doping, mean
//!   free paths from the NEGF disorder model and growth defectivity);
//! * [`benchmark`] — the Fig. 11 circuit benchmark: a driver, a
//!   distributed MWCNT line, a load — with both an analytic (Elmore)
//!   and a full SPICE-transient delay path;
//! * [`experiments`] — a trait-based registry with one entry per paper
//!   artefact (Fig. 2d … Fig. 13b, plus the prose "Table 1" and extra
//!   named studies), each declaring a typed [`experiments::ParamSpec`]
//!   and returning a structured [`experiments::Report`] that the
//!   `cnt-bench` harness renders as text, JSON, or CSV.
//!
//! # Example
//!
//! ```
//! use cnt_interconnect::compact::{DopedMwcnt, ShellChannelModel};
//! use cnt_units::si::Length;
//!
//! // The paper's Fig. 12 device: 10 nm MWCNT, doped to 6 channels/shell.
//! let pristine = DopedMwcnt::paper_model(Length::from_nanometers(10.0), 2)?;
//! let doped = DopedMwcnt::paper_model(Length::from_nanometers(10.0), 6)?;
//! let l = Length::from_micrometers(500.0);
//! assert!(doped.resistance(l).ohms() < pristine.resistance(l).ohms() / 2.5);
//! # Ok::<(), cnt_interconnect::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod calibrate;
pub mod compact;
pub mod experiments;
pub mod technology;

pub use compact::{CuWire, DopedMwcnt, ShellChannelModel, SwcntInterconnect};
pub use experiments::Report;

use core::fmt;

/// Errors produced by the core layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A model parameter was out of its physical domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// An experiment id was not found in the [`experiments`] registry.
    UnknownExperiment(String),
    /// A parameter override was rejected against an experiment's declared
    /// [`experiments::ParamSpec`].
    InvalidOverride {
        /// The offending `--set` key.
        key: String,
        /// Why it was rejected.
        reason: String,
    },
    /// An underlying layer failed.
    Layer(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter { name, value } => {
                write!(f, "parameter {name} out of physical domain: {value}")
            }
            Error::UnknownExperiment(id) => {
                write!(
                    f,
                    "unknown experiment id '{id}' (run `repro --list` for the catalog)"
                )
            }
            Error::InvalidOverride { key, reason } => {
                write!(f, "parameter override '{key}' rejected: {reason}")
            }
            Error::Layer(msg) => write!(f, "substrate layer error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

macro_rules! layer_from {
    ($($ty:ty),+) => {
        $(impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::Layer(e.to_string())
            }
        })+
    };
}

layer_from!(
    cnt_atomistic::Error,
    cnt_fields::Error,
    cnt_circuit::Error,
    cnt_process::Error,
    cnt_thermal::Error,
    cnt_reliability::Error,
    cnt_measure::Error,
    cnt_sweep::Error
);

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
