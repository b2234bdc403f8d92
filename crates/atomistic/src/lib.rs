//! Tight-binding electronic structure and ballistic transport for carbon
//! nanotubes.
//!
//! This crate is the "ab-initio" layer of the `cnt-beol` platform. The paper
//! (Uhlig et al., DATE 2018, Section III.A) uses DFT + NEGF to compute the
//! ballistic conductance of SWCNTs versus diameter (Fig. 8a) and the band
//! structure / transmission of pristine and iodine-doped CNT(7,7)
//! (Fig. 8b/c). We reproduce those observables with the nearest-neighbour
//! π-orbital zone-folding model (Saito–Dresselhaus), which is the accepted
//! lightweight substitute for DFT near the Fermi level of carbon nanotubes,
//! plus a calibrated charge-transfer doping model and a recursive-Green's-
//! function disorder model used to derive mean free paths for the compact
//! models.
//!
//! # Modules
//!
//! * [`chirality`] — the `(n, m)` chiral index, diameter, metallicity.
//! * [`geometry`] — atom coordinates of rolled-up tubes, XYZ export (Fig. 8b).
//! * [`bands`] — zone-folded subband dispersions (Fig. 8c top).
//! * [`transport`] — mode counting, transmission, finite-temperature
//!   Landauer conductance (Fig. 8a, Eq. 1 of the paper).
//! * [`doping`] — charge-transfer doping with dopant-derived channels
//!   (Fig. 8c bottom; anchors: ΔE_F = −0.6 eV, 0.155 mS → 0.387 mS).
//! * [`negf`] — 1-D recursive Green's function with Anderson disorder;
//!   yields mean-free-path calibration for the compact models.
//!
//! # Example
//!
//! ```
//! use cnt_atomistic::chirality::Chirality;
//! use cnt_atomistic::transport::conductance_point;
//! use cnt_units::si::Temperature;
//!
//! let cnt = Chirality::new(7, 7)?; // the paper's armchair test tube
//! let p = conductance_point(cnt, Temperature::from_kelvin(300.0));
//! // Pristine metallic tube: two conducting channels, 0.155 mS.
//! assert!((p.conductance_ms - 0.155).abs() < 0.01);
//! # Ok::<(), cnt_atomistic::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bands;
pub mod chirality;
mod complex;
pub mod doping;
pub mod dos;
pub mod geometry;
pub mod negf;
pub mod transport;

pub use chirality::{Chirality, Family};
pub use doping::{DopantBand, DopedCnt, DopingSpec};

use core::fmt;

/// Errors produced by the atomistic layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The chiral indices do not describe a tube (`n < 1` or `m > n`).
    InvalidChirality {
        /// First chiral index.
        n: i32,
        /// Second chiral index.
        m: i32,
    },
    /// A request needed at least this many sampling points.
    TooFewSamples {
        /// Points requested.
        got: usize,
        /// Minimum required.
        min: usize,
    },
    /// A model parameter was out of its physical domain.
    InvalidParameter {
        /// Human-readable parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidChirality { n, m } => {
                write!(
                    f,
                    "invalid chiral indices ({n}, {m}): need n >= m >= 0 and n >= 1"
                )
            }
            Error::TooFewSamples { got, min } => {
                write!(f, "needs at least {min} sampling points, got {got}")
            }
            Error::InvalidParameter { name, value } => {
                write!(f, "parameter {name} out of physical domain: {value}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
