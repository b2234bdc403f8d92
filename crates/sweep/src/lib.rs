//! `cnt-sweep` — deterministic parallel parameter-sweep and Monte-Carlo
//! orchestration for the `cnt-beol` workspace.
//!
//! The paper's headline artefacts are *ensembles*: thousands of sampled
//! devices (Figs. 5–7 variability), dense delay-ratio grids (Fig. 12), and
//! wafer-scale reliability statistics (Fig. 13). This crate turns each of
//! those into a flat list of independent jobs and runs them on a thread
//! pool, with three invariants:
//!
//! 1. **Schedule-independent determinism** — every job derives its own
//!    random stream from `(root seed, plan fingerprint, job index)` (see
//!    [`seed`]), so results are bit-identical for any thread count and any
//!    execution order.
//! 2. **Stable aggregation** — results are collected and reduced in job
//!    order ([`exec::Executor::run`] returns `Vec<R>` indexed by job), so
//!    floating-point reductions never depend on scheduling.
//! 3. **Content-addressed caching** — a sweep's identity is the hash of its
//!    plan, seed, and trial count ([`cache::CacheKey`]); re-running a sweep
//!    that already produced a table is a lookup, not a computation.
//!
//! # Example
//!
//! ```
//! use cnt_sweep::axis::Axis;
//! use cnt_sweep::exec::Executor;
//! use cnt_sweep::plan::SweepPlan;
//! use rand::Rng;
//!
//! // 3 diameters x 4 trials = 12 independent jobs.
//! let plan = SweepPlan::new("demo")
//!     .axis(Axis::grid("d_nm", &[10.0, 14.0, 22.0]))
//!     .axis(Axis::trials(4));
//! let work = |job: &cnt_sweep::Job, rng: &mut rand::rngs::StdRng| -> cnt_sweep::Result<f64> {
//!     let d = job.get("d_nm").expect("axis exists");
//!     Ok(d + 0.01 * rng.gen::<f64>()) // deterministic per (seed, job)
//! };
//! let results = Executor::new(2).run(&plan, 42, work)?;
//! assert_eq!(results.len(), 12);
//! // Same seed, different thread count: bit-identical.
//! let again = Executor::new(1).run(&plan, 42, work)?;
//! assert_eq!(results, again);
//! # Ok::<(), cnt_sweep::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod axis;
pub mod cache;
pub mod exec;
pub mod json;
pub mod plan;
pub mod seed;

pub use agg::{OnlineStats, Summary};
pub use axis::Axis;
pub use cache::{CacheKey, GcStats, ResultStore, Table};
pub use exec::{chunk_ranges, Executor};
pub use plan::{Job, SweepPlan};

use core::fmt;

/// Errors produced by the sweep layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A plan or executor parameter was out of domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A plan with zero jobs was submitted.
    EmptyPlan,
    /// A job's work function failed; carries the lowest failing job index
    /// so the reported error is schedule-independent.
    Job {
        /// Flat index of the failing job.
        index: usize,
        /// The work function's error, stringified.
        message: String,
    },
    /// Filesystem trouble in the on-disk result store.
    Io {
        /// Offending path.
        path: String,
        /// OS error message.
        message: String,
    },
    /// A cached artefact failed to parse (corrupt or foreign file).
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset of the failure.
        offset: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter { name, value } => {
                write!(f, "sweep parameter {name} out of domain: {value}")
            }
            Error::EmptyPlan => write!(f, "sweep plan has no jobs"),
            Error::Job { index, message } => write!(f, "job #{index} failed: {message}"),
            Error::Io { path, message } => write!(f, "result store I/O on {path}: {message}"),
            Error::Parse { message, offset } => {
                write!(f, "cached table parse error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
