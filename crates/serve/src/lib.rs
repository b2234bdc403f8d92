//! `cnt-serve` — an embedded HTTP experiment server over the `cnt-beol`
//! registry.
//!
//! The one-shot `repro` CLI pays full process startup per invocation and
//! recomputes everything not in the sweep cache. This crate keeps the
//! registry resident behind a small JSON API instead, so hot operating
//! points are served from memory:
//!
//! | route | answer |
//! |---|---|
//! | `GET /v1/healthz` | liveness plus scheduler/cache counters (never waits for a compute permit) |
//! | `GET /v1/metrics` | Prometheus exposition (never waits for a compute permit either) |
//! | `GET /v1/experiments` | the catalog with full parameter surfaces |
//! | `GET /v1/experiments/{id}` | one experiment (what `repro info` prints) |
//! | `POST /v1/experiments/{id}/run` | run at a parameter point; body `{"params": {...}, "preset": "...", "format": "json"\|"csv"}` |
//! | `POST /v1/sweeps/{id}` | enqueue the sweep variant asynchronously; `202` + job id immediately |
//! | `GET /v1/jobs/{rid}` | poll job status (`queued\|running\|done\|failed`) with sweep-job progress (`done`/`total`) |
//! | `GET /v1/jobs/{rid}/result` | the finished body (`202` + status while still in flight) |
//! | `GET /v1/_fleet/cache/{hash}` | internal: this instance's cached body for a request hash |
//! | `GET /v1/metrics/history` | windowed time-series rings fed by the self-scraper thread |
//! | `GET /v1/slo` | burn-rate evaluation of the configured SLOs (`ok`\|`warn`\|`page`) |
//! | `GET /v1/trace/{trace_id}` | the assembled cross-instance span tree for one trace id |
//! | `GET /v1/profile` | cumulative span profile across all traced requests |
//! | `GET /v1/profile/folded` | the same profile as folded stacks (flamegraph input) |
//! | `GET /v1/_fleet/trace/{trace_id}` | internal: this instance's raw trace records |
//!
//! Every response carries `X-Request-Id` and `X-Trace-Id` headers;
//! requests bearing valid `X-Trace-Id`/`X-Parent-Span` headers join the
//! caller's trace instead of minting one, and fleet hops plus async
//! sweep jobs forward them, so one logical request is one trace id
//! across the whole fleet.
//!
//! With `--fleet "a,b,c" --self-index K` the instance joins a static
//! fleet (see [`cnt_fleet`]): run requests consistent-hash-route to the
//! owning shard (proxy or `307` redirect), and local misses try the
//! owner's cache before computing. Peer hops ride [`PeerClient`], which
//! reads its responses with the server's own [`http`] framing.
//!
//! Run bodies are **byte-identical** to `repro <id> --format json` (or
//! `--format csv`) at the same parameter point — both front ends sit on
//! [`cnt_interconnect::experiments::run_to_json`].
//!
//! Every connection gets a small-stack thread of its own (up to a fixed
//! cap), so an idle keep-alive socket holds a thread, never compute.
//! Computation sits behind one compute gate of [`Config::workers`]
//! permits: a run leader takes one and runs the kernel inline on its
//! connection thread, a fleet chunk does the same, and each async sweep
//! job waits for one on its own thread. At most
//! [`Config::queue_capacity`] runs wait in the gate's line; beyond it
//! overload is answered `503` + `Retry-After` instead of unbounded
//! latency. Identical in-flight parameter points coalesce onto one
//! computation, and finished bodies land in an LRU cache keyed by the
//! same FNV-1a content-hash family as the on-disk sweep cache
//! ([`Params::content_hash`](cnt_interconnect::experiments::Params::content_hash)).
//! `SIGTERM`/ctrl-c (or a [`ShutdownHandle`]) stops intake and drains
//! in-flight requests and sweep jobs before the process exits. With
//! [`Config::data_dir`], sweep jobs survive a restart: their journal
//! (finished bodies included) and recovery belong to
//! [`cnt_fleet::JobTable`].
//!
//! The server is plain `std::net` — no external dependencies, matching
//! the offline-build constraint the `crates/compat` shims document.
//!
//! # Example
//!
//! ```no_run
//! use cnt_serve::{Config, Server};
//!
//! let server = Server::bind(Config::default())?;
//! eprintln!("serving on http://{}", server.local_addr());
//! server.serve()?; // blocks until shutdown
//! # Ok::<(), cnt_serve::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
mod gate;
pub mod http;
mod net;
pub mod peer;
pub mod server;
pub mod signal;

pub use cache::LruCache;
pub use cnt_fleet as fleet;
pub use cnt_fleet::{FleetConfig, RouteMode};
pub use http::{Request, Response};
pub use peer::{PeerClient, PeerError, PeerResponse};
pub use server::{AccessLogFormat, Config, Server, ShutdownHandle, HISTORY_INTERVALS};

use core::fmt;

/// Errors produced by the serve layer (socket-level trouble; protocol
/// errors are answered in-band as HTTP statuses).
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A socket operation failed.
    Io {
        /// What the server was doing.
        context: &'static str,
        /// The OS error message.
        message: String,
    },
    /// The server configuration is unusable (bad fleet topology or
    /// history interval).
    Config {
        /// What was wrong.
        message: String,
    },
}

impl Error {
    pub(crate) fn io(context: &'static str, e: std::io::Error) -> Self {
        Error::Io {
            context,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { context, message } => write!(f, "{context}: {message}"),
            Error::Config { message } => write!(f, "bad configuration: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = core::result::Result<T, Error>;
