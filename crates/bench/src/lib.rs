//! Figure-regeneration harness and the `repro bench` performance
//! subsystem for the `cnt-beol` platform.
//!
//! * `cargo run -p cnt-bench --bin repro -- all` regenerates every paper
//!   artefact (see `cnt_interconnect::experiments::registry`); `--set`
//!   overrides typed parameters, `--threads` sets the executor width,
//!   `--format json|csv` emits machine-readable reports;
//! * `repro bench [--quick] [--filter SUBSTR] [--format json|text]
//!   [--threads N] [--iters N]` runs the [`bench`] kernel registry
//!   (warmup + timed iterations, min/median/p90 per kernel, inner solver
//!   iteration counts where applicable) and writes the versioned JSON
//!   trajectory point `BENCH_<unix-seconds>.json`;
//! * `repro bench diff A.json B.json [--fail-above PCT]` compares two
//!   trajectory points per kernel and, with a threshold, gates CI on
//!   median regressions (see [`diff`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod diff;

pub use cnt_interconnect::experiments;
