//! `cnt-obs` — the observability core of the `cnt-beol` workspace.
//!
//! Every other layer (fields, sweep, serve, bench) records what it does
//! through this crate; nothing here depends on anything else, so the
//! instrumentation can sit below the whole stack. Four pieces:
//!
//! * [`MetricRegistry`] — named atomic [`Counter`]s, [`Gauge`]s,
//!   fixed-boundary log2-bucket [`Histogram`]s, and labeled families
//!   ([`CounterVec`], multi-label [`GaugeVec`]). Handles are `Arc`s;
//!   once resolved, the
//!   hot path is a couple of relaxed atomic operations — no locks, no
//!   allocation. [`MetricRegistry::render_prometheus`] and
//!   [`MetricRegistry::render_json`] export everything at once.
//! * [`span!`] — RAII timing spans. A guard pushes onto a thread-local
//!   stack; on drop its wall-time lands in a histogram named after the
//!   span path (`fields.vcycle` → `cnt_span_fields_vcycle_seconds`) in
//!   the [`global()`] registry. When a [`Trace`] is active on the
//!   thread, closed spans additionally fold into a per-request
//!   [`SpanNode`] tree — the flamegraph-shaped view `repro profile`
//!   prints.
//! * [`promcheck`] — a validator for the Prometheus text exposition
//!   format (`# HELP`/`# TYPE` coverage, duplicate series, histogram
//!   bucket consistency), so CI can gate `/v1/metrics` output the same
//!   way `repro check-json` gates JSON bodies.
//! * [`json`] — the workspace's one JSON codec: the strict RFC 8259
//!   parser (raw number tokens, bounded nesting) and the string and
//!   number emitters every hand-rolled document goes through — reports,
//!   sweep tables, served bodies, journal records and the renders here.
//!
//! On top of the core sit three distributed-observability layers:
//!
//! * [`timeseries`] — [`HistoryStore`], fixed-size rings a scraper
//!   thread fills from [`MetricRegistry::snapshot`]; windowed
//!   min/max/rate and bucket-delta quantiles computed on read.
//! * [`slo`] — declarative [`SloSpec`]s (latency quantile, error rate)
//!   evaluated as multi-window burn rates against a [`HistoryStore`].
//! * [`trace_store`] — [`TraceContext`] wire ids (`X-Trace-Id` /
//!   `X-Parent-Span`) plus a bounded TTL ring of [`TraceRecord`]s, so
//!   span trees captured on different fleet instances assemble into
//!   one cross-instance tree.
//!
//! The crate is deliberately `std`-only: the build environment has no
//! crates.io access (see `crates/compat/*`), and the serve layer's
//! offline constraint extends to its telemetry.
//!
//! # Example
//!
//! ```
//! use cnt_obs::{global, span, Trace};
//!
//! let requests = global().counter("demo_requests_total", "requests seen");
//! requests.inc();
//!
//! Trace::begin();
//! {
//!     let _outer = span!("demo.handle");
//!     let _inner = span!("demo.compute");
//! }
//! let tree = Trace::end();
//! assert_eq!(tree[0].name, "demo.handle");
//! assert_eq!(tree[0].children[0].name, "demo.compute");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod promcheck;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace_store;

pub use metrics::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, MetricRegistry, MetricSnapshot,
};
pub use slo::{SloKind, SloReport, SloSpec, SloState};
pub use span::{fold_stacks, merge_nodes, Profile, SpanGuard, SpanNode, Trace};
pub use timeseries::{HistWindow, HistoryStore, WindowSummary};
pub use trace_store::{TraceContext, TraceRecord, TraceStore};

use std::sync::OnceLock;

/// The process-wide registry the [`span!`] system and the library
/// layers (fields, sweep) record into.
///
/// Front ends that need isolated counting (one HTTP server per test,
/// say) build their own [`MetricRegistry`] and render both.
pub fn global() -> &'static MetricRegistry {
    static GLOBAL: OnceLock<MetricRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricRegistry::new)
}
