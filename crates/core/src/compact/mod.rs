//! RC(L) compact models for interconnect materials.
//!
//! Implements the paper's Section III.C models (Eqs. 4–5) plus the copper
//! reference and the Cu–CNT composite needed by Figs. 9, 12 and 13.

mod bundle;
mod composite;
mod cu;
mod electrostatic;
mod mwcnt;
mod swcnt;

pub use bundle::BundleInterconnect;
pub use composite::CompositeWire;
pub use cu::CuWire;
pub use electrostatic::{wire_over_plane_capacitance, WireEnvironment};
pub use mwcnt::{DopedMwcnt, MfpModel, ShellChannelModel, ShellFillPolicy};
pub use swcnt::SwcntInterconnect;
