//! Electro-thermal solvers, self-heating and scanning-thermal-microscopy
//! virtual instruments.
//!
//! Section IV.B of the paper motivates this crate: CNT interconnects carry
//! a thermal-conductivity advantage of an order of magnitude over copper
//! (3000–10000 W/(m·K) versus 385), scanning thermal microscopy (SThM) is
//! the technique of choice for mapping self-heating of 10 nm-class lines,
//! and thermal conductivity is *extracted* from such maps. We build all
//! three layers:
//!
//! * [`fin`] — the 1-D fin (heat) equation for a Joule-heated line between
//!   two contacts, analytic and finite-difference solutions;
//! * [`sthm`] — a virtual SThM: probe-convolved, noisy temperature maps;
//! * [`extract`] — the inverse problem: recover the thermal conductivity
//!   from (noisy) measured profiles, as the paper plans on real hardware.
//!
//! [`via`] adds the §I via claim: the thermal resistance of Cu and CNT
//! via stacks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod fin;
pub mod sthm;
pub mod via;

pub use fin::{SelfHeatingLine, TemperatureProfile};

use core::fmt;

/// Errors produced by the thermal models.
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
    /// Too few samples/points requested.
    TooFewSamples {
        /// Requested count.
        got: usize,
        /// Minimum required.
        min: usize,
    },
    /// The extraction failed to bracket a solution.
    ExtractionFailed(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter { name, value } => {
                write!(f, "parameter {name} out of physical domain: {value}")
            }
            Error::TooFewSamples { got, min } => {
                write!(f, "needs at least {min} points, got {got}")
            }
            Error::ExtractionFailed(msg) => write!(f, "extraction failed: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
