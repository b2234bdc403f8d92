//! CNT growth, wafer-scale uniformity, Cu–CNT composite formation and
//! process variability models.
//!
//! This crate is the synthetic-fab substrate of the `cnt-beol` platform.
//! The paper's Section II is experimental (CVD growth in via holes,
//! Co-catalyst growth below 400 °C, 300 mm wafers, ELD/ECD copper
//! impregnation); per the substitution policy in DESIGN.md §3 we model
//! the *observables* those experiments report:
//!
//! * [`growth`] — Arrhenius growth kinetics and defectivity vs.
//!   temperature and catalyst (Fig. 4);
//! * [`wafer`] — 300 mm wafer maps with radial + random variation and
//!   uniformity metrics (Fig. 5);
//! * [`composite`] — ELD vs. ECD copper impregnation of CNT carpets:
//!   fill fraction, void probability, overburden (Figs. 6–7), and
//!   effective composite conductivity;
//! * [`variability`] — Monte-Carlo device sampling (chirality, diameter,
//!   contacts, defects) showing how doping tames resistance variability
//!   (Section II.A).
//!
//! All stochastic paths take explicit seeds and are exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod growth;
pub mod variability;
pub mod wafer;

pub use growth::{Catalyst, GrowthRecipe, GrowthResult};
pub use wafer::WaferMap;

use core::fmt;

/// Errors produced by the process models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A parameter was outside its physical domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A sweep or sampler was asked for zero points.
    EmptyRequest(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter { name, value } => {
                write!(f, "parameter {name} out of physical domain: {value}")
            }
            Error::EmptyRequest(what) => write!(f, "empty request: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
