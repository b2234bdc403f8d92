//! 3-D finite-difference Laplace solver for interconnect RC extraction.
//!
//! This crate is the TCAD substrate of the `cnt-beol` platform. The paper
//! (Uhlig et al., DATE 2018, Section III.B and Fig. 10) extracts parasitics
//! by solving
//!
//! ```text
//! ∇·(ε ∇ψ) = 0   in insulators        (paper Eq. 2)
//! ∇·(κ ∇ψ) = 0   in conductors        (paper Eq. 3)
//! ```
//!
//! with a finite-difference approach, then emits RC netlists "in a
//! SPICE-like format for circuit-level simulation". We implement exactly
//! that: a finite-volume 7-point discretization on a structured grid,
//! conjugate-gradient, multigrid-preconditioned CG (a geometric V-cycle
//! hierarchy, see [`mg`]; picked automatically for large grids), and SOR
//! solvers, multi-conductor capacitance-matrix extraction via Gauss-flux
//! integration, resistance extraction with current-density (hot-spot)
//! output, and a SPICE netlist writer whose output the `cnt-circuit`
//! parser consumes.
//!
//! # Example
//!
//! ```
//! use cnt_fields::prelude::*;
//!
//! // Parallel-plate capacitor: 1 µm × 1 µm plates, 0.1 µm apart, vacuum.
//! let mut b = StructureBuilder::new([1e-6, 1e-6, 0.3e-6]);
//! b.dielectric([0.0, 0.0, 0.0], [1e-6, 1e-6, 0.3e-6], 1.0);
//! b.conductor("bot", [0.0, 0.0, 0.0], [1e-6, 1e-6, 0.1e-6]);
//! b.conductor("top", [0.0, 0.0, 0.2e-6], [1e-6, 1e-6, 0.3e-6]);
//! let structure = b.build([11, 11, 13])?;
//! let result = extract_capacitance(&structure, &SolverOptions::default())?;
//! let c = result.coupling("bot", "top")?;
//! let analytic = 8.854e-12 * 1e-6 * 1e-6 / 0.1e-6;
//! assert!((c.farads() - analytic).abs() / analytic < 0.05);
//! # Ok::<(), cnt_fields::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod grid;
pub mod mg;
pub mod netlist;
pub mod presets;
pub mod solver;
pub mod structure;

/// Convenient glob import for typical extraction flows.
pub mod prelude {
    pub use crate::extract::{
        extract_capacitance, extract_resistance, CapacitanceResult, ResistanceResult,
    };
    pub use crate::grid::Grid3;
    pub use crate::netlist::NetlistWriter;
    pub use crate::solver::{Method, SolverOptions};
    pub use crate::structure::{Structure, StructureBuilder};
    pub use crate::Error;
}

use core::fmt;

/// Errors produced by the field solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Grid dimensions too small to form at least one cell.
    GridTooSmall {
        /// Requested node counts.
        nodes: [usize; 3],
    },
    /// A box lies (partly) outside the simulation domain.
    BoxOutOfDomain {
        /// Offending box minimum corner.
        min: [f64; 3],
        /// Offending box maximum corner.
        max: [f64; 3],
    },
    /// A box has non-positive extent along some axis.
    DegenerateBox {
        /// Offending box minimum corner.
        min: [f64; 3],
        /// Offending box maximum corner.
        max: [f64; 3],
    },
    /// A material property was non-positive.
    InvalidMaterial {
        /// Property name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Not enough conductors/terminals for the requested extraction.
    NotEnoughConductors {
        /// Conductors found.
        got: usize,
        /// Conductors required.
        min: usize,
    },
    /// Referenced an unknown conductor label.
    UnknownConductor {
        /// The label.
        label: String,
    },
    /// The iterative solver failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual at abort.
        residual: f64,
    },
    /// A conductor fully swallowed the domain or a terminal has no contact
    /// with resistive material.
    IllPosed(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::GridTooSmall { nodes } => {
                write!(
                    f,
                    "grid {nodes:?} too small: need at least 2 nodes per axis"
                )
            }
            Error::BoxOutOfDomain { min, max } => {
                write!(f, "box {min:?}..{max:?} extends outside the domain")
            }
            Error::DegenerateBox { min, max } => {
                write!(f, "box {min:?}..{max:?} has non-positive extent")
            }
            Error::InvalidMaterial { name, value } => {
                write!(f, "material property {name} must be positive, got {value}")
            }
            Error::NotEnoughConductors { got, min } => {
                write!(f, "extraction needs at least {min} conductors, found {got}")
            }
            Error::UnknownConductor { label } => write!(f, "unknown conductor '{label}'"),
            Error::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            Error::IllPosed(msg) => write!(f, "ill-posed problem: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
