//! Physical constants and strongly typed quantities for CNT interconnect modeling.
//!
//! This crate is the foundation layer of the `cnt-beol` workspace, the Rust
//! reproduction of *Uhlig et al., "Progress on Carbon Nanotube BEOL
//! Interconnects", DATE 2018*. Every other crate consumes the constants and
//! quantity newtypes defined here so that lengths, temperatures, resistances
//! and so on cannot be confused with one another (Rust API guideline
//! C-NEWTYPE).
//!
//! # Layout
//!
//! * [`consts`] — fundamental and material constants (quantum conductance,
//!   graphene tight-binding parameters, copper resistivity, …).
//! * [`si`] — quantity newtypes ([`Length`], [`Temperature`], …) with
//!   unit-named constructors and accessors.
//! * [`math`] — small numerical toolbox: statistics, linear regression,
//!   special functions, root bracketing.
//! * [`rand_ext`] — distribution samplers (normal, lognormal) built on any
//!   [`rand::Rng`], used by the Monte-Carlo crates.
//! * [`fmt_eng`] — engineering-notation formatting shared by reports.
//!
//! # Example
//!
//! ```
//! use cnt_units::si::{Length, Temperature};
//! use cnt_units::consts::G0_SIEMENS;
//!
//! let l = Length::from_micrometers(1.0);
//! let t = Temperature::from_celsius(26.85);
//! assert!((l.meters() - 1e-6).abs() < 1e-18);
//! assert!((t.kelvin() - 300.0).abs() < 1e-9);
//! // Two conducting channels of a metallic SWCNT: the 0.155 mS of the paper.
//! assert!((2.0 * G0_SIEMENS - 0.155e-3).abs() < 0.5e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consts;
pub mod fmt_eng;
pub mod math;
pub mod rand_ext;
pub mod si;

pub use si::{
    Area, Capacitance, Charge, Conductance, Current, CurrentDensity, Energy, Length, Power,
    Resistance, Resistivity, Temperature, ThermalConductivity, Time, Voltage,
};
