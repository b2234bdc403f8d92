//! `cnt-beol` — a multi-scale CNT BEOL interconnect modeling platform.
//!
//! This facade crate re-exports the whole workspace, the Rust
//! reproduction of *Uhlig et al., "Progress on Carbon Nanotube BEOL
//! Interconnects", DATE 2018* (DOI 10.23919/DATE.2018.8342144):
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | constants & quantities | [`units`] | — |
//! | tight-binding transport | [`atomistic`] | III.A, Fig. 8 |
//! | TCAD field solver (Jacobi-preconditioned CG) | [`fields`] | III.B, Fig. 10 |
//! | SPICE-like simulator | [`circuit`] | III.C, Fig. 11 |
//! | growth / wafer / composite | [`process`] | II, Figs. 4–7 |
//! | electro-thermal | [`thermal`] | IV.B |
//! | EM / ampacity / stability | [`reliability`] | I, IV.A, Fig. 13 |
//! | TLM / I-V lab | [`measure`] | IV.B, Fig. 2d |
//! | parallel sweep / Monte-Carlo engine | [`sweep`] | ensembles behind Figs. 5–7, 12, 13 |
//! | compact models & experiments | [`interconnect`] | III.C, Figs. 9/12 |
//! | experiment registry (one `run(id)` per artefact, typed params, JSON/CSV reports) | [`interconnect::experiments`] | every artefact |
//! | observability (atomic counters/gauges/histograms, tracing spans, time-series rings + SLO burn rates, distributed-trace store, flamegraph folding, Prometheus render + validator, the one JSON codec) | [`obs`] | every layer, measured in-process |
//! | HTTP experiment server (keep-alive, scheduling, coalescing, LRU result cache, `/v1/metrics` + history/SLO/trace/profile routes, async job API) | [`serve`] | every artefact, as a service |
//! | fleet primitives (rendezvous hash ring, peer cache-fill client with trace-header propagation, bounded job table) | [`fleet`] | multi-instance serving |
//! | command line (`repro`: artefacts, sweeps, `serve`, cache GC, output checks, profiles) | `cnt-bench` | every artefact |
//!
//! # Quickstart
//!
//! ```
//! use cnt_beol::interconnect::compact::DopedMwcnt;
//! use cnt_beol::interconnect::benchmark::delay_ratio;
//! use cnt_beol::units::si::Length;
//!
//! // How much does doping help a 10 nm MWCNT global wire?
//! let d = Length::from_nanometers(10.0);
//! let l = Length::from_micrometers(500.0);
//! let ratio = delay_ratio(d, 10, l)?;
//! assert!(ratio < 0.95); // ~10 % faster, the paper's Fig. 12 anchor
//!
//! let line = DopedMwcnt::paper_model(d, 10)?;
//! println!("doped line resistance: {}", line.resistance(l));
//! # Ok::<(), cnt_beol::interconnect::Error>(())
//! ```
//!
//! Regenerate every paper artefact with
//! `cargo run -p cnt-bench --bin repro -- all`, move an experiment off
//! its paper operating point with typed overrides
//! (`repro fig12 --set length_um=200 --set nc=6`) or named presets
//! (`repro table1 --preset projected`), pick the width of fig08a's pool
//! and of every sweep with `--threads N` (the bytes never depend on it),
//! emit machine-readable reports (`repro table1 --format json|csv`),
//! rerun a figure as the ensemble the paper actually measured with
//! `cargo run -p cnt-bench --bin repro -- sweep fig12 --trials 1000`
//! (deterministic for any `--threads` value; see `crates/sweep/README.md`),
//! keep the whole registry resident behind a JSON API with
//! `repro serve` (byte-identical to the CLI per parameter point,
//! HTTP/1.1 keep-alive, Prometheus-style `/v1/metrics`, async sweep
//! jobs via `POST /v1/sweeps/{id}`, and consistent-hash sharding
//! across instances with `--fleet`; see `crates/serve/README.md` and
//! `crates/fleet/README.md`). `perfbench/` times all of it end to end
//! and layer by layer against `BENCHMARK.json` (see
//! `crates/bench/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cnt_atomistic as atomistic;
pub use cnt_circuit as circuit;
pub use cnt_fields as fields;
pub use cnt_fleet as fleet;
pub use cnt_interconnect as interconnect;
pub use cnt_measure as measure;
pub use cnt_obs as obs;
pub use cnt_process as process;
pub use cnt_reliability as reliability;
pub use cnt_serve as serve;
pub use cnt_sweep as sweep;
pub use cnt_thermal as thermal;
pub use cnt_units as units;
