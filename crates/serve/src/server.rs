//! The server: listener, router, and the request scheduler.
//!
//! Connections are accepted on a non-blocking listener, and each gets a
//! small-stack thread of its own (up to a fixed connection cap; beyond
//! it the accept loop answers `503` itself). The thread parses, routes
//! and writes, so an idle keep-alive socket holds only that thread.
//! Computation is what the compute gate bounds: a run leader takes a
//! permit and runs the kernel inline on its connection thread, and when
//! the gate's line is full the request is answered `503` +
//! `Retry-After`, so overload degrades into fast rejections instead of
//! unbounded latency. Run requests resolve through the same
//! [`experiments::resolve_context`] gate as the CLI, then go through two
//! layers that keep hot work cheap:
//!
//! 1. an **LRU body cache** keyed by the canonical request hash — repeat
//!    requests never re-run a kernel;
//! 2. a **coalescing map** of in-flight hashes — concurrent identical
//!    requests share one computation, waiters block on its condvar and
//!    receive the exact same bytes.
//!
//! Determinism makes both safe: a run body is a pure function of
//! `(id, parameter point, format)`, which is exactly what the hash
//! covers.
//!
//! Everything the scheduler observes lives in a per-server `cnt-obs`
//! [`MetricRegistry`]: the counters `/v1/healthz` reports, the
//! Prometheus families `/v1/metrics` exports (the legacy `cnt_serve_*`
//! names plus `*_seconds` latency histograms for the queue-wait / run /
//! serialize / write phases of a request), and the per-status and
//! per-experiment labeled counters. Every response carries an
//! `X-Request-Id`, and [`Config::access_log`] turns on a structured
//! per-request log line (text or JSON) on stdout.
//!
//! The connection loop and the access log live in `conn`, fleet routing
//! (shard owners, peer lookups, trace assembly, the prober) in
//! `routing`, and async sweep jobs with their chunk coordinator in
//! `sweeps`; each job's durable lifecycle is [`JobTable`]'s.

mod conn;
mod routing;
mod sweeps;

use crate::cache::{CachedBody, LruCache};
use crate::gate::{ComputeGate, LiveThreads};
use crate::http::{Request, Response};
use crate::{api, net, signal, Error, Result};
use cnt_fleet::{FleetConfig, JobTable, RouteMode};
use cnt_interconnect::experiments::format::OutputFormat;
use cnt_interconnect::experiments::{self, Experiment, Params, Report, RunContext};
use cnt_obs::slo::{self, SloSpec};
use cnt_obs::trace_store::{parse_id, TraceContext, TraceRecord, TraceStore};
use cnt_obs::{
    Counter, CounterVec, Gauge, Histogram, HistoryStore, MetricRegistry, Profile, SpanNode,
};
use cnt_sweep::seed::fnv1a;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Most trace records resident at once; beyond it the oldest fall out.
const TRACE_CAPACITY: usize = 256;
/// How long a stored trace record stays fetchable.
const TRACE_TTL: Duration = Duration::from_secs(600);
/// Most connections served at once; the accept loop answers any more
/// with `503` itself.
const MAX_CONNECTIONS: usize = 1024;
/// The longest the accept loop blocks in `accept` before it checks the
/// stop flag and the termination signals again.
const ACCEPT_WAIT: Duration = Duration::from_millis(20);
/// The pause after a failed `accept` (such as `EMFILE`), so a persistent
/// error does not spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// How long a kept-alive connection may sit idle between requests
/// before its thread closes it. A parked connection holds only its own
/// thread, never a compute permit; the window bounds how long idle
/// clients keep their slot under the connection cap. There is no
/// per-connection request cap: a connection ends on client close,
/// `Connection: close`, this idle window, shutdown, or an error.
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);
/// The [`Config::history_interval`]s a server accepts: 1 ms to 1 day.
/// Shorter ones spin the scraper (a zero interval never waits); longer
/// ones leave the history and the job GC idle for days.
pub const HISTORY_INTERVALS: RangeInclusive<Duration> =
    Duration::from_millis(1)..=Duration::from_secs(86_400);

/// How a run leader turns a resolved experiment + context into a report.
/// Injectable so tests can slow computations down or fail them on
/// purpose; production uses [`Experiment::run`].
pub type Runner =
    dyn Fn(&'static Experiment, &RunContext) -> cnt_interconnect::Result<Report> + Send + Sync;

/// How the per-request access log renders each completed exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLogFormat {
    /// One human-readable line per request.
    Text,
    /// One JSON object per line (`repro check-json` clean).
    Json,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 = ephemeral).
    pub addr: String,
    /// Compute permits: kernel runs, fleet chunks and sweep jobs that
    /// may compute at once; `0` = all cores. Connections are not
    /// counted here; each has its own thread.
    pub workers: usize,
    /// Runs and fleet chunks that may wait for a compute permit; one
    /// more is answered `503` + `Retry-After`. Sweep jobs wait in the
    /// same line but never shed there (the job table admits them).
    /// Probes, job polls and LRU hits never take a permit, so they keep
    /// answering while runs shed.
    pub queue_capacity: usize,
    /// LRU body-cache capacity, entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Wall-clock budget for reading one request and (separately) for
    /// writing its response. A per-*request* deadline, not a per-read
    /// socket timeout: a slow-drip client cannot hold its thread past it.
    pub request_deadline: Duration,
    /// Also stop on `SIGINT`/`SIGTERM` (the `repro serve` front end
    /// installs the handlers via [`signal::install`]).
    pub watch_signals: bool,
    /// When set, one structured access-log line per request goes to
    /// stdout (stderr keeps the startup banner, so piping stdout yields
    /// a clean log stream).
    pub access_log: Option<AccessLogFormat>,
    /// Static fleet topology; `None` runs a plain single instance.
    pub fleet: Option<FleetConfig>,
    /// Most async sweep jobs resident at once (queued, running, or
    /// finished-but-inside-TTL); beyond it `POST /v1/sweeps/{id}` sheds
    /// with `503` + `Retry-After`.
    pub jobs_capacity: usize,
    /// How long a finished job's result stays pollable before GC.
    pub job_ttl: Duration,
    /// How often the self-scraper thread samples the registries into
    /// the history rings and collects expired jobs; within
    /// [`HISTORY_INTERVALS`], or [`Server::bind`] refuses the config.
    pub history_interval: Duration,
    /// SLOs `GET /v1/slo` and `repro slo` evaluate against the history
    /// rings (defaults to [`cnt_obs::slo::default_serve_slos`]).
    pub slos: Vec<SloSpec>,
    /// Durable-state root, handed to [`JobTable::open`]: the job journal
    /// (`journal.log`, finished result bodies included) and the chunk
    /// result store (`sweep-cache/`) live under it. A restart on it
    /// resumes unfinished jobs and keeps finished ones pollable for what
    /// is left of [`Config::job_ttl`]; a job leaves the journal within
    /// one history tick of leaving the table. `None` keeps job state in
    /// memory only — jobs do not survive a restart.
    pub data_dir: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 256,
            request_deadline: Duration::from_secs(30),
            watch_signals: false,
            access_log: None,
            fleet: None,
            jobs_capacity: 64,
            job_ttl: Duration::from_secs(600),
            history_interval: Duration::from_secs(1),
            slos: slo::default_serve_slos(),
            data_dir: None,
        }
    }
}

/// The scheduler's metric handles, all registered in one per-server
/// [`MetricRegistry`] (per-server so concurrent servers — every e2e
/// test spawns one — count independently). `/v1/healthz` and
/// `/v1/metrics` both read these handles; there is no second set of
/// counters to copy into.
struct Metrics {
    registry: MetricRegistry,
    /// Family `cnt_serve_requests_total`: the unlabeled base sample
    /// keeps the legacy meaning (requests a connection thread started
    /// parsing); the `{status="…"}` children count every response sent,
    /// including the `400`/`404`/`503` paths that previously went
    /// uncounted.
    requests: Arc<CounterVec>,
    runs: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    rejected: Arc<Counter>,
    keepalive_reuses: Arc<Counter>,
    /// `cnt_serve_experiment_runs_total{id="…"}`: run requests per
    /// experiment id (counted once resolution succeeds, cache hits and
    /// coalesced waiters included).
    experiment_runs: Arc<CounterVec>,
    queue_wait_seconds: Arc<Histogram>,
    request_seconds: Arc<Histogram>,
    run_seconds: Arc<Histogram>,
    serialize_seconds: Arc<Histogram>,
    write_seconds: Arc<Histogram>,
    cached_bodies: Arc<Gauge>,
    /// Live connection threads.
    connections: Arc<Gauge>,
    uptime_seconds: Arc<Gauge>,
    /// `cnt_fleet_route_total{outcome="local|proxied|redirected|degraded"}`:
    /// where each fleet-routed run request was answered from (`degraded`
    /// = computed locally only because the shard owner is Down).
    route_total: Arc<CounterVec>,
    /// `cnt_fleet_peer_fill_total{result="hit|miss|error"}`: outcomes of
    /// owner cache-fill probes issued by this instance.
    peer_fill: Arc<CounterVec>,
    /// `cnt_serve_jobs_total{status="queued|running|done|failed"}`:
    /// async job lifecycle transitions.
    jobs_total: Arc<CounterVec>,
    /// Async jobs currently queued or running.
    jobs_pending: Arc<Gauge>,
    /// `cnt_fleet_chunks_total{outcome="local|remote|requeued|resumed"}`:
    /// fanned-out sweep chunks by how this coordinator settled them
    /// (`resumed` = recalled from the chunk store instead of running).
    chunks_total: Arc<CounterVec>,
    /// Records appended to the job journal by this instance.
    journal_records: Arc<Counter>,
    /// Jobs re-created from the journal at startup.
    journal_replayed: Arc<Counter>,
    /// Trace records stored by this instance (requests + async jobs).
    trace_records: Arc<Counter>,
    /// Self-scraper passes taken into the history rings.
    history_scrapes: Arc<Counter>,
    started: Instant,
}

impl Metrics {
    fn new(workers: usize, queue_capacity: usize) -> Self {
        let r = MetricRegistry::new();
        let requests = r.counter_vec(
            "cnt_serve_requests_total",
            "requests a connection started parsing (unlabeled) and responses sent by status",
            "status",
            true,
        );
        let metrics = Self {
            runs: r.counter(
                "cnt_serve_runs_total",
                "kernel computations actually performed",
            ),
            cache_hits: r.counter(
                "cnt_serve_cache_hits_total",
                "run requests served straight from the LRU body cache",
            ),
            cache_misses: r.counter(
                "cnt_serve_cache_misses_total",
                "run requests that missed the LRU body cache",
            ),
            coalesced: r.counter(
                "cnt_serve_coalesced_total",
                "run requests that attached to an in-flight computation",
            ),
            rejected: r.counter(
                "cnt_serve_rejected_total",
                "requests shed with 503: compute line or connection cap full",
            ),
            keepalive_reuses: r.counter(
                "cnt_serve_keepalive_reuses_total",
                "requests served on an already-open keep-alive connection",
            ),
            experiment_runs: r.counter_vec(
                "cnt_serve_experiment_runs_total",
                "run requests per experiment id",
                "id",
                false,
            ),
            queue_wait_seconds: r.histogram(
                "cnt_serve_queue_wait_seconds",
                "time a run, fleet chunk or sweep job waited for a compute permit",
            ),
            request_seconds: r.histogram(
                "cnt_serve_request_seconds",
                "request handling wall time, parse to response written",
            ),
            run_seconds: r.histogram(
                "cnt_serve_run_seconds",
                "kernel computation wall time (leaders only)",
            ),
            serialize_seconds: r.histogram(
                "cnt_serve_serialize_seconds",
                "report serialization wall time (leaders only)",
            ),
            write_seconds: r.histogram("cnt_serve_write_seconds", "response write wall time"),
            cached_bodies: r.gauge("cnt_serve_cached_bodies", "bodies resident in the LRU"),
            connections: r.gauge("cnt_serve_connections", "live connection threads"),
            uptime_seconds: r.gauge(
                "cnt_serve_uptime_seconds",
                "seconds since the server started",
            ),
            route_total: r.counter_vec(
                "cnt_fleet_route_total",
                "fleet-routed run requests by where they were answered",
                "outcome",
                false,
            ),
            peer_fill: r.counter_vec(
                "cnt_fleet_peer_fill_total",
                "owner cache-fill probes issued by this instance, by outcome",
                "result",
                false,
            ),
            jobs_total: r.counter_vec(
                "cnt_serve_jobs_total",
                "async sweep job lifecycle transitions by status",
                "status",
                false,
            ),
            jobs_pending: r.gauge(
                "cnt_serve_jobs_pending",
                "async sweep jobs currently queued or running",
            ),
            chunks_total: r.counter_vec(
                "cnt_fleet_chunks_total",
                "fanned-out sweep chunks by dispatch outcome",
                "outcome",
                false,
            ),
            journal_records: r.counter(
                "cnt_serve_journal_records_total",
                "records appended to the job journal",
            ),
            journal_replayed: r.counter(
                "cnt_serve_journal_replayed_total",
                "jobs recovered from the journal at startup",
            ),
            trace_records: r.counter(
                "cnt_serve_trace_records_total",
                "trace records stored in the trace ring",
            ),
            history_scrapes: r.counter(
                "cnt_serve_history_scrapes_total",
                "self-scraper passes taken into the metrics history rings",
            ),
            started: Instant::now(),
            requests,
            registry: r,
        };
        // Pre-seed every label child so scrapes expose the full family
        // from the first render (validator-clean, diffable over time).
        for outcome in ["local", "proxied", "redirected", "degraded"] {
            metrics.route_total.with(outcome);
        }
        for result in ["hit", "miss", "error"] {
            metrics.peer_fill.with(result);
        }
        for status in ["queued", "running", "done", "failed"] {
            metrics.jobs_total.with(status);
        }
        for outcome in ["local", "remote", "requeued", "resumed"] {
            metrics.chunks_total.with(outcome);
        }
        metrics
            .registry
            .gauge(
                "cnt_serve_workers",
                "compute permits (runs, fleet chunks and sweep jobs at once)",
            )
            .set(workers as f64);
        metrics
            .registry
            .gauge(
                "cnt_serve_queue_capacity",
                "runs and fleet chunks that may wait for a permit before 503",
            )
            .set(queue_capacity as f64);
        metrics
            .registry
            .gauge("cnt_serve_experiments", "experiments in the registry")
            .set(experiments::catalog().count() as f64);
        metrics
    }

    /// Counts one sent response under its status label.
    fn count_response(&self, status: u16) {
        self.requests.with(&status.to_string()).inc();
    }
}

/// One in-flight computation; waiters park on the condvar and read the
/// published outcome (a response body or an error response).
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<core::result::Result<CachedBody, (u16, String)>>>,
    done: Condvar,
}

/// Wakes the background threads (the history scraper and the fleet
/// prober): `serve()` stops them when it returns, and a peer going Down
/// rings the prober. The stop flag and a ring count sit under one
/// mutex, so a ring that lands between a waiter reading the count and
/// starting to wait still wakes it.
#[derive(Default)]
struct Wake {
    /// (stopped, rings so far).
    state: Mutex<(bool, u64)>,
    changed: Condvar,
}

impl Wake {
    /// The rings so far, for a later [`Self::wait`].
    fn rings(&self) -> u64 {
        self.state.lock().expect("wake poisoned").1
    }

    /// Wakes the waiters that watch for rings.
    fn ring(&self) {
        self.state.lock().expect("wake poisoned").1 += 1;
        self.changed.notify_all();
    }

    /// Wakes every waiter for good.
    fn stop(&self) {
        self.state.lock().expect("wake poisoned").0 = true;
        self.changed.notify_all();
    }

    /// Blocks until `deadline` (no deadline with `None`), until the ring
    /// count moves past `seen` (rings are ignored with `None`), or until
    /// stop. Returns `false` once stopped.
    fn wait(&self, seen: Option<u64>, deadline: Option<Instant>) -> bool {
        let mut state = self.state.lock().expect("wake poisoned");
        loop {
            let (stopped, rings) = *state;
            if stopped {
                return false;
            }
            if seen.is_some_and(|seen| seen != rings) {
                return true;
            }
            state = match deadline {
                None => self.changed.wait(state).expect("wake poisoned"),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return true;
                    }
                    self.changed
                        .wait_timeout(state, left)
                        .expect("wake poisoned")
                        .0
                }
            };
        }
    }
}

/// State shared between the accept loop, the connection threads and the
/// sweep-job threads.
struct Shared {
    metrics: Metrics,
    cache: Mutex<LruCache>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    runner: Box<Runner>,
    /// The one bound on computation: run leaders, fleet chunks and sweep
    /// jobs each hold a permit while they compute.
    gate: ComputeGate,
    /// Live connection threads, capped at [`MAX_CONNECTIONS`].
    connections: Arc<LiveThreads>,
    /// Live sweep-job threads (the job table bounds them).
    job_threads: Arc<LiveThreads>,
    /// Set by [`ShutdownHandle`], and by `serve()` once it stops
    /// accepting: connection threads then close instead of idling.
    stop: Arc<AtomicBool>,
    /// Stops the background threads; a peer going Down rings it.
    wake: Arc<Wake>,
    /// Async job registry behind `POST /v1/sweeps/{id}`.
    jobs: JobTable,
    /// Set once by [`Server::enable_fleet`]; `None` = single instance.
    fleet: OnceLock<routing::FleetState>,
    request_deadline: Duration,
    access_log: Option<AccessLogFormat>,
    /// Request-id prefix (per server) and sequence: every response
    /// carries `X-Request-Id: <prefix>-<seq>`.
    rid_prefix: u32,
    rid_seq: AtomicU64,
    /// Separate sequence for trace/span ids, so minting span ids never
    /// perturbs the request-id numbering.
    span_seq: AtomicU64,
    /// Metric history rings the self-scraper thread fills and
    /// `GET /v1/metrics/history` + `GET /v1/slo` read.
    history: HistoryStore,
    /// Declarative objectives `GET /v1/slo` evaluates.
    slos: Vec<SloSpec>,
    /// Recent trace records, `GET /v1/trace/{id}`'s local share.
    traces: TraceStore,
    /// Cumulative span profile across every traced request.
    profile: Profile,
    /// This instance's `host:port`, stamped into trace records.
    instance: String,
}

impl Shared {
    /// The shared state, with the job table opened on
    /// [`Config::data_dir`]; also returns the jobs the journal
    /// recovered, for [`sweeps::resume_jobs`].
    fn new(
        config: &Config,
        runner: Box<Runner>,
        rid_prefix: u32,
        instance: String,
    ) -> std::io::Result<(Self, Vec<Arc<cnt_fleet::JobEntry>>)> {
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let metrics = Metrics::new(workers, config.queue_capacity);
        let (jobs, recovered) = JobTable::open(
            config.jobs_capacity,
            config.job_ttl,
            config.data_dir.as_deref(),
            Arc::clone(&metrics.journal_records),
        )?;
        metrics.journal_replayed.add(jobs.len() as u64);
        let shared = Self {
            gate: ComputeGate::new(
                workers,
                config.queue_capacity,
                Arc::clone(&metrics.queue_wait_seconds),
            ),
            metrics,
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            inflight: Mutex::new(HashMap::new()),
            runner,
            connections: LiveThreads::new(MAX_CONNECTIONS),
            job_threads: LiveThreads::new(usize::MAX),
            stop: Arc::new(AtomicBool::new(false)),
            wake: Arc::default(),
            jobs,
            fleet: OnceLock::new(),
            request_deadline: config.request_deadline,
            access_log: config.access_log,
            rid_prefix,
            rid_seq: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
            history: HistoryStore::new(cnt_obs::timeseries::DEFAULT_HISTORY_POINTS),
            slos: config.slos.clone(),
            traces: TraceStore::new(TRACE_CAPACITY, TRACE_TTL),
            profile: Profile::new(),
            instance,
        };
        Ok((shared, recovered))
    }

    /// A `503` shed of work that found the compute line (or the
    /// connection cap) full: counted as a rejection, with a
    /// `Retry-After` hint scaled to the line's length.
    fn busy(&self, what: &str) -> Response {
        self.metrics.rejected.inc();
        Response {
            retry_after: Some(retry_after_hint(self.gate.waiting(), self.gate.permits())),
            ..Response::json(503, api::busy_json(what))
        }
    }

    fn next_request_id(&self) -> String {
        let seq = self.rid_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:06x}", self.rid_prefix)
    }

    /// A fresh nonzero 64-bit trace/span id: FNV-1a over the server
    /// prefix, a dedicated sequence, and the clock (unique per server
    /// by the sequence; distinct across servers by prefix + time).
    fn mint_id(&self) -> u64 {
        let seq = self.span_seq.fetch_add(1, Ordering::Relaxed);
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let mut bytes = [0u8; 20];
        bytes[..4].copy_from_slice(&self.rid_prefix.to_le_bytes());
        bytes[4..12].copy_from_slice(&seq.to_le_bytes());
        bytes[12..].copy_from_slice(&nanos.to_le_bytes());
        fnv1a(&bytes).max(1)
    }

    /// Stores one trace record (a traced request or a finished sweep
    /// job) and folds its span tree into the cumulative profile.
    fn record_trace(
        &self,
        ctx: &TraceContext,
        name: String,
        request_id: String,
        started: Instant,
        status: u16,
        roots: Vec<SpanNode>,
    ) {
        self.profile.add(&roots);
        self.traces.record(TraceRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent: ctx.parent,
            name,
            instance: self.instance.clone(),
            request_id,
            unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0.0, |d| d.as_secs_f64()),
            total_s: started.elapsed().as_secs_f64(),
            status,
            roots,
        });
        self.metrics.trace_records.inc();
    }
}

/// Per-request identity: the response's `X-Request-Id` (client-supplied
/// or minted) plus the distributed-trace context.
struct RequestScope {
    request_id: String,
    trace: TraceContext,
}

/// Builds one request's scope: adopt a plausible client `X-Request-Id`
/// (so fleet hops and retries join up in logs), join an incoming
/// `X-Trace-Id`/`X-Parent-Span` pair when valid, mint fresh ids
/// otherwise. `None` covers unparsable requests — they get minted ids
/// so even 400s are log-joinable.
fn scope_for(shared: &Shared, request: Option<&Request>) -> RequestScope {
    let request_id = request
        .and_then(|r| r.header("x-request-id"))
        .filter(|v| (1..=64).contains(&v.len()) && v.bytes().all(|b| b.is_ascii_graphic()))
        .map(str::to_string)
        .unwrap_or_else(|| shared.next_request_id());
    let span_id = shared.mint_id();
    let incoming = request
        .and_then(|r| r.header("x-trace-id"))
        .and_then(parse_id);
    let trace = match incoming {
        Some(trace_id) => TraceContext {
            trace_id,
            span_id,
            parent: request
                .and_then(|r| r.header("x-parent-span"))
                .and_then(parse_id),
        },
        None => TraceContext::root(shared.mint_id(), span_id),
    };
    RequestScope { request_id, trace }
}

/// The bound-but-not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: Config,
    shared: Arc<Shared>,
}

/// A clonable handle that asks a running [`Server::serve`] loop to stop
/// accepting, drain, and return.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown (the accept loop notices within `ACCEPT_WAIT`,
    /// 20 ms).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds with the production runner ([`Experiment::run`]).
    ///
    /// # Errors
    ///
    /// As [`Server::bind_with_runner`].
    pub fn bind(config: Config) -> Result<Self> {
        Self::bind_with_runner(config, |exp, ctx| exp.run(ctx))
    }

    /// Binds with an injected runner — the seam the concurrency tests use
    /// to make computations observably slow or failing. Validation,
    /// caching, and coalescing behave exactly as in production.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a [`Config::history_interval`]
    /// outside [`HISTORY_INTERVALS`], before anything binds, and
    /// [`Error::Io`] when the address cannot be bound.
    pub fn bind_with_runner<F>(config: Config, runner: F) -> Result<Self>
    where
        F: Fn(&'static Experiment, &RunContext) -> cnt_interconnect::Result<Report>
            + Send
            + Sync
            + 'static,
    {
        if !HISTORY_INTERVALS.contains(&config.history_interval) {
            return Err(Error::Config {
                message: format!(
                    "history interval {:?} is outside 1 ms to 1 day",
                    config.history_interval
                ),
            });
        }
        // std's bind sets SO_REUSEADDR: a restarted instance (crash
        // recovery, the chaos smoke's SIGKILL) retakes its fleet port
        // immediately instead of waiting out TIME_WAIT.
        let listener = TcpListener::bind(&config.addr).map_err(|e| Error::io("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::io("local_addr", e))?;
        let rid_prefix = {
            let nanos = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            fnv1a(&nanos.to_le_bytes()) as u32 ^ (u64::from(local_addr.port()) as u32)
        };
        // Opening the job table replays the journal before anything can
        // append to it.
        let (shared, recovered) = Shared::new(
            &config,
            Box::new(runner),
            rid_prefix,
            local_addr.to_string(),
        )
        .map_err(|e| Error::io("job journal", e))?;
        let server = Self {
            listener,
            local_addr,
            config,
            shared: Arc::new(shared),
        };
        if let Some(fleet) = server.config.fleet.clone() {
            server.enable_fleet(fleet)?;
        }
        // After the fleet joins, so recovered jobs fan out like fresh
        // ones.
        sweeps::resume_jobs(&server.shared, recovered);
        Ok(server)
    }

    /// Joins a fleet after binding — the seam tests use when peer
    /// addresses (ephemeral ports) are only known once every instance is
    /// bound. [`Config::fleet`] routes through here too.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an invalid topology or when the
    /// server already joined a fleet.
    pub fn enable_fleet(&self, fleet: FleetConfig) -> Result<()> {
        fleet
            .validate()
            .map_err(|message| Error::Config { message })?;
        if self.shared.fleet.get().is_some() {
            return Err(Error::Config {
                message: "fleet topology already configured".to_string(),
            });
        }
        let state = routing::FleetState::new(
            fleet,
            &self.shared.metrics.registry,
            Arc::clone(&self.shared.wake),
        );
        self.shared.fleet.set(state).map_err(|_| Error::Config {
            message: "fleet topology already configured".to_string(),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The resolved compute-permit count ([`Config::workers`]).
    pub fn workers(&self) -> usize {
        self.shared.gate.permits()
    }

    /// A handle for stopping [`Server::serve`] from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared.stop))
    }

    /// Accepts and serves requests until shutdown is requested (via
    /// [`ShutdownHandle`] or, with `watch_signals`, `SIGINT`/`SIGTERM`),
    /// then drains queued and in-flight work before returning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] only for fatal listener failures; per-
    /// connection trouble is answered in-band or dropped.
    pub fn serve(self) -> Result<()> {
        // Block in accept for at most ACCEPT_WAIT, so a connection is
        // taken the moment it arrives and stop is still checked every
        // ACCEPT_WAIT. Without the timeout (off Linux), poll a
        // non-blocking listener instead.
        let polling = net::set_accept_timeout(&self.listener, ACCEPT_WAIT).is_err();
        if polling {
            self.listener
                .set_nonblocking(true)
                .map_err(|e| Error::io("set_nonblocking", e))?;
        }
        // The self-scraper: once per interval, one sample of every
        // registry into the history rings and one GC pass over the job
        // table and the data dir, for as long as the server serves.
        let scraper = {
            let shared = Arc::clone(&self.shared);
            let interval = self.config.history_interval;
            std::thread::spawn(move || loop {
                sample_history(&shared);
                shared.jobs.collect_expired();
                if !shared.wake.wait(None, Some(Instant::now() + interval)) {
                    break;
                }
            })
        };
        let prober = routing::spawn_prober(&self.shared);
        loop {
            if self.shared.stop.load(Ordering::SeqCst)
                || (self.config.watch_signals && signal::triggered())
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => conn::dispatch(stream, &self.shared),
                // The wait ran out, or a signal cut it short.
                Err(e)
                    if !polling
                        && matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                        ) => {}
                // Nothing pending on a polled listener, or an accept
                // error such as EMFILE: back off before the next try.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        // Stop accepting, then drain: every connection finishes its
        // in-flight request (idle ones close at their next poll), and
        // every sweep job, queued ones included, runs to its end.
        drop(self.listener);
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.connections.wait_none_left();
        self.shared.job_threads.wait_none_left();
        self.shared.wake.stop();
        let _ = scraper.join();
        if let Some(prober) = prober {
            let _ = prober.join();
        }
        Ok(())
    }
}

/// A route's handler: the path's `{param}` segment (empty for a fixed
/// path), the request, its scope and the shared state.
type Handler = fn(&str, &Request, &RequestScope, &Arc<Shared>) -> Response;

/// Every route: the one method it serves, a path prefix and suffix, and
/// its handler. A prefix ending in `/` takes one `{param}` segment
/// before the suffix; any other prefix is the whole path. No path fits
/// two routes.
static ROUTES: [(&str, &str, &str, Handler); 18] = [
    ("GET", "/v1/healthz", "", |_, _, _, s| {
        Response::json(200, healthz_json(s))
    }),
    ("GET", "/v1/metrics", "", |_, _, _, s| Response {
        content_type: "text/plain; version=0.0.4",
        ..Response::json(200, metrics_text(s))
    }),
    ("GET", "/v1/metrics/history", "", |_, _, _, s| {
        Response::json(200, s.history.render_json(HISTORY_WINDOW_S))
    }),
    ("GET", "/v1/slo", "", |_, _, _, s| {
        Response::json(
            200,
            slo::render_json(&slo::evaluate_all(&s.slos, &s.history)),
        )
    }),
    ("GET", "/v1/profile", "", |_, _, _, s| {
        Response::json(200, s.profile.render_json())
    }),
    ("GET", "/v1/profile/folded", "", |_, _, _, s| Response {
        content_type: "text/plain; charset=utf-8",
        ..Response::json(200, s.profile.folded())
    }),
    ("GET", "/v1/experiments", "", |_, _, _, _| {
        Response::json(200, api::catalog_json())
    }),
    (
        "GET",
        "/v1/experiments/",
        "",
        |id, _, _, _| match api::experiment_json(id) {
            Some(body) => Response::json(200, body),
            None => Response::json(
                404,
                api::error_json(
                    &cnt_interconnect::Error::UnknownExperiment(id.to_string()).to_string(),
                ),
            ),
        },
    ),
    (
        "POST",
        "/v1/experiments/",
        "/run",
        |id, request, scope, s| {
            traced(&request.path, scope, s, || run_route(id, request, scope, s))
        },
    ),
    ("POST", "/v1/sweeps/", "", |id, request, scope, s| {
        traced(&request.path, scope, s, || {
            sweeps::sweep_job_route(id, request, scope, s)
        })
    }),
    ("GET", "/v1/jobs/", "", |rid, _, _, s| {
        sweeps::job_route(rid, s, true, false)
    }),
    ("GET", "/v1/jobs/", "/result", |rid, _, _, s| {
        sweeps::job_route(rid, s, true, true)
    }),
    ("GET", "/v1/trace/", "", |hex, _, _, s| {
        routing::with_trace_id(hex, |id| routing::trace_route(id, s))
    }),
    ("GET", "/v1/_fleet/cache/", "", |hash, _, _, s| {
        routing::fleet_cache_route(hash, s)
    }),
    ("GET", "/v1/_fleet/trace/", "", |hex, _, _, s| {
        routing::with_trace_id(hex, |id| routing::fleet_trace_route(id, s))
    }),
    ("POST", "/v1/_fleet/chunk", "", |_, request, _, s| {
        sweeps::fleet_chunk_route(request, s)
    }),
    // A peer polling on behalf of a client: local view only, never fans
    // out further (no proxy loops).
    ("GET", "/v1/_fleet/jobs/", "", |rid, _, _, s| {
        sweeps::job_route(rid, s, false, false)
    }),
    ("GET", "/v1/_fleet/jobs/", "/result", |rid, _, _, s| {
        sweeps::job_route(rid, s, false, true)
    }),
];

/// The `/v1` router. The path resolves first, to the one route that
/// serves it, and the method is checked second: a path no route serves
/// is a `404` whatever the method, a routed path with the wrong method
/// a `405`.
fn route(request: &Request, scope: &RequestScope, shared: &Arc<Shared>) -> Response {
    let path = request.path.trim_end_matches('/');
    let method = request.method.as_str();
    let resolved = ROUTES
        .iter()
        .find_map(|&(allowed, prefix, suffix, handler)| {
            let param = path.strip_prefix(prefix)?.strip_suffix(suffix)?;
            let fits = if prefix.ends_with('/') {
                !param.contains('/')
            } else {
                param.is_empty()
            };
            fits.then_some((allowed, param, handler))
        });
    match resolved {
        None => Response::json(
            404,
            api::error_json(&format!(
                "no such route {path} (see GET /v1/experiments for the catalog)"
            )),
        ),
        Some((allowed, _, _)) if allowed != method => Response::json(
            405,
            api::error_json(&format!("method {method} not allowed on {path}")),
        ),
        Some((_, param, handler)) => handler(param, request, scope, shared),
    }
}

/// The trailing window `GET /v1/metrics/history` summarizes over.
const HISTORY_WINDOW_S: f64 = 60.0;

/// Runs `f` under a per-request span capture: a `serve.request` span
/// tree is recorded, folded into the cumulative profile, and stored as
/// this request's [`TraceRecord`]. When a trace is already armed on
/// this thread (a nested local call) the inner request just runs —
/// its spans fold into the outer capture instead of double-recording.
fn traced(
    name: &str,
    scope: &RequestScope,
    shared: &Arc<Shared>,
    f: impl FnOnce() -> Response,
) -> Response {
    if cnt_obs::Trace::is_active() {
        return f();
    }
    let started = Instant::now();
    cnt_obs::Trace::begin();
    let response = {
        let _span = cnt_obs::span!("serve.request");
        f()
    };
    let roots = cnt_obs::Trace::end();
    let request_id = scope.request_id.clone();
    let status = response.status;
    shared.record_trace(
        &scope.trace,
        format!("POST {name}"),
        request_id,
        started,
        status,
        roots,
    );
    response
}

/// `POST /v1/experiments/{id}/run`: fleet-route → validate → cache →
/// coalesce → run.
fn run_route(id: &str, request: &Request, scope: &RequestScope, shared: &Arc<Shared>) -> Response {
    let run_request = match api::parse_run_request(&request.body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    let (exp, ctx) =
        match experiments::resolve_context(id, run_request.preset.as_deref(), &run_request.sets) {
            Ok(pair) => pair,
            Err(e @ cnt_interconnect::Error::UnknownExperiment(_)) => {
                return Response::json(404, api::error_json(&e.to_string()))
            }
            Err(e) => return Response::json(400, api::error_json(&e.to_string())),
        };
    shared.metrics.experiment_runs.with(id).inc();
    let key = request_key(id, run_request.format, &ctx.params);

    // Fleet routing: the shard owner (by the content hash's cache shard)
    // answers this point so exactly one LRU across the fleet warms up.
    // A routed-away request returns here; `None` means "answer locally".
    if let Some(response) = routing::fleet_route(key, &ctx.params, request, scope, shared) {
        return response;
    }

    if let Some(hit) = shared.cache.lock().expect("cache poisoned").get(key) {
        shared.metrics.cache_hits.inc();
        return ok_response(hit);
    }
    shared.metrics.cache_misses.inc();

    // Coalesce: one leader computes, identical concurrent requests wait.
    let (flight, leader) = {
        let mut inflight = shared.inflight.lock().expect("inflight poisoned");
        match inflight.get(&key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight::default());
                inflight.insert(key, Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    if !leader {
        shared.metrics.coalesced.inc();
        let mut slot = flight.slot.lock().expect("flight poisoned");
        while slot.is_none() {
            slot = flight.done.wait(slot).expect("flight poisoned");
        }
        return flight_response(slot.as_ref().expect("just checked"), shared);
    }

    // The leader computes under a compute permit. When the gate's line
    // is full it sheds instead, and so does every waiter on its flight.
    let outcome = match shared.gate.try_acquire() {
        Some(_permit) => {
            shared.metrics.runs.inc();
            // The leader must publish *some* outcome: if a kernel panicked
            // and the flight were abandoned, every waiter (and every future
            // request for this point) would park on the condvar forever —
            // so catch the unwind and turn it into a 500 like any other run
            // failure.
            let run_started = Instant::now();
            let run_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (shared.runner)(exp, &ctx)
            }));
            shared
                .metrics
                .run_seconds
                .record_duration(run_started.elapsed());
            match run_result {
                Ok(Ok(report)) => {
                    let serialize_started = Instant::now();
                    let (content_type, body) = render_report(&report, run_request.format);
                    shared
                        .metrics
                        .serialize_seconds
                        .record_duration(serialize_started.elapsed());
                    Ok(CachedBody {
                        content_type,
                        body: Arc::new(body),
                    })
                }
                Ok(Err(e)) => Err((500u16, api::error_json(&e.to_string()))),
                Err(_) => Err((
                    500u16,
                    api::error_json(&format!("experiment '{id}' panicked during execution")),
                )),
            }
        }
        None => Err((503, api::busy_json("request queue"))),
    };
    if let Ok(body) = &outcome {
        shared
            .cache
            .lock()
            .expect("cache poisoned")
            .put(key, body.clone());
    }
    // Publish to waiters, then retire the flight so later requests hit
    // the cache (or recompute, for errors and sheds).
    *flight.slot.lock().expect("flight poisoned") = Some(outcome.clone());
    flight.done.notify_all();
    shared
        .inflight
        .lock()
        .expect("inflight poisoned")
        .remove(&key);
    flight_response(&outcome, shared)
}

/// A flight's outcome as one request's response; a shed flight sheds
/// each of its requests.
fn flight_response(
    outcome: &core::result::Result<CachedBody, (u16, String)>,
    shared: &Shared,
) -> Response {
    match outcome {
        Ok(body) => ok_response(body.clone()),
        Err((503, _)) => shared.busy("request queue"),
        Err((status, body)) => Response::json(*status, body.clone()),
    }
}

fn ok_response(body: CachedBody) -> Response {
    Response {
        content_type: body.content_type,
        ..Response::json(200, body.body.as_str().to_string())
    }
}

/// Renders a finished report the way the CLI pipes it — the one place
/// both the synchronous run route and the async job path serialize, so
/// the two are byte-identical by construction.
fn render_report(report: &Report, format: OutputFormat) -> (&'static str, String) {
    match format {
        // The CLI prints JSON reports with println!, so the served
        // body is to_json + "\n" — byte-identical to the pipe.
        OutputFormat::Json | OutputFormat::Text => {
            ("application/json", format!("{}\n", report.to_json()))
        }
        OutputFormat::Csv => ("text/csv", report.to_csv()),
    }
}

/// Interns a peer-reported content type ([`Response`] carries a
/// `&'static str`; run bodies are only ever JSON or CSV).
fn static_content_type(value: &str) -> &'static str {
    match value {
        "text/csv" => "text/csv",
        _ => "application/json",
    }
}

/// Backpressure hint for `Retry-After`: scales with how much work is
/// already pending relative to the parallelism draining it, clamped to
/// `[1, 30]` seconds. An empty shed (capacity 0) still hints 1 s.
fn retry_after_hint(pending: usize, drain: usize) -> u32 {
    pending.div_ceil(drain.max(1)).clamp(1, 30) as u32
}

/// The canonical request hash: experiment id, rendering format, and the
/// resolved parameter point — the same FNV-1a content-hash family the
/// on-disk sweep cache keys with.
fn request_key(id: &str, format: OutputFormat, params: &Params) -> u64 {
    let mut bytes = Vec::with_capacity(id.len() + 16);
    bytes.extend_from_slice(id.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(format.to_string().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&params.content_hash().to_le_bytes());
    fnv1a(&bytes)
}

/// The `/v1/healthz` body: liveness plus the scheduler counters, read
/// straight from the same registry `/v1/metrics` renders. In fleet mode
/// a `fleet` section reports this instance's membership view — every
/// peer's health state and consecutive-failure streak.
fn healthz_json(shared: &Shared) -> String {
    let m = &shared.metrics;
    let cached = shared.cache.lock().expect("cache poisoned").len();
    let mut body = format!(
        "{{\"status\":\"ok\",\"experiments\":{},\"workers\":{},\"queue_capacity\":{},\"cached_bodies\":{},\"requests\":{},\"runs\":{},\"cache_hits\":{},\"coalesced\":{},\"rejected\":{},\"jobs_pending\":{}",
        experiments::catalog().count(),
        shared.gate.permits(),
        shared.gate.capacity(),
        cached,
        m.requests.base().get(),
        m.runs.get(),
        m.cache_hits.get(),
        m.coalesced.get(),
        m.rejected.get(),
        shared.jobs.pending(),
    );
    if let Some(fleet) = shared.fleet.get() {
        let mode = match fleet.config.mode {
            RouteMode::Proxy => "proxy",
            RouteMode::Redirect => "redirect",
        };
        body.push_str(&format!(
            ",\"fleet\":{{\"self_index\":{},\"mode\":\"{mode}\",\"peers\":[",
            fleet.config.self_index
        ));
        for (index, (state, failures)) in fleet.health.snapshot().into_iter().enumerate() {
            if index > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"addr\":\"{}\",\"state\":\"{}\",\"consecutive_failures\":{failures}}}",
                fleet.config.peer(index),
                state.label(),
            ));
        }
        body.push_str("]}");
    }
    body.push_str("}\n");
    body
}

/// The `GET /v1/metrics` body: the per-server registry (legacy
/// `cnt_serve_*` counter names, the per-status/per-experiment families,
/// the `*_seconds` histograms, and the gauges) followed by the global
/// `cnt-obs` registry (span histograms and library-layer counters from
/// `cnt-fields`/`cnt-sweep` recorded in this process). Metric names are
/// disjoint by prefix, so the concatenation stays a valid exposition.
fn metrics_text(shared: &Shared) -> String {
    refresh_gauges(shared);
    let mut out = shared.metrics.registry.render_prometheus();
    out.push_str(&cnt_obs::global().render_prometheus());
    out
}

/// One self-scraper pass: refresh the derived gauges exactly like a
/// `/v1/metrics` scrape would, then sample both registries into the
/// history rings. The per-server and global registries share one store
/// because their metric-name prefixes are disjoint (`cnt_serve_*` /
/// `cnt_fleet_*` vs `cnt_span_*` / library counters).
fn sample_history(shared: &Shared) {
    refresh_gauges(shared);
    shared.metrics.history_scrapes.inc();
    shared.history.sample(&shared.metrics.registry);
    shared.history.sample(cnt_obs::global());
}

/// Sets the gauges that mirror live state, read at scrape time.
fn refresh_gauges(shared: &Shared) {
    let m = &shared.metrics;
    m.cached_bodies
        .set(shared.cache.lock().expect("cache poisoned").len() as f64);
    m.jobs_pending.set(shared.jobs.pending() as f64);
    m.connections.set(shared.connections.live() as f64);
    m.uptime_seconds.set(m.started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::conn::{access_log_line, experiment_of, AccessRecord};
    use super::*;
    use cnt_interconnect::experiments::format::check_json_stream;

    #[test]
    fn request_key_separates_id_format_and_point() {
        let (_, ctx) = experiments::resolve_context("fig12", None, &[]).unwrap();
        let a = request_key("fig12", OutputFormat::Json, &ctx.params);
        assert_eq!(a, request_key("fig12", OutputFormat::Json, &ctx.params));
        assert_ne!(a, request_key("fig12", OutputFormat::Csv, &ctx.params));
        assert_ne!(a, request_key("fig11", OutputFormat::Json, &ctx.params));
        let sets = vec![("nc".to_string(), "6".to_string())];
        let (_, moved) = experiments::resolve_context("fig12", None, &sets).unwrap();
        assert_ne!(a, request_key("fig12", OutputFormat::Json, &moved.params));
    }

    #[test]
    fn retry_after_scales_with_pending_depth() {
        assert_eq!(retry_after_hint(0, 4), 1);
        assert_eq!(retry_after_hint(1, 1), 1);
        assert_eq!(retry_after_hint(8, 4), 2);
        assert_eq!(retry_after_hint(64, 4), 16);
        assert_eq!(retry_after_hint(10_000, 4), 30, "hint is capped");
        assert_eq!(retry_after_hint(5, 0), 5, "zero drain is guarded");
    }

    #[test]
    fn access_log_lines_render_both_formats() {
        let record = AccessRecord {
            request_id: "00c0ffee-000001",
            trace_id: "00000000deadbeef",
            method: "POST",
            path: "/v1/experiments/fig\"12/run",
            experiment: Some("fig\"12"),
            status: 200,
            bytes: 512,
            duration_s: 0.012345,
        };
        let text = access_log_line(AccessLogFormat::Text, &record);
        assert!(text.ends_with('\n'));
        assert!(
            text.contains("00c0ffee-000001 \"POST /v1/experiments/fig\"12/run\" 200 512B"),
            "{text}"
        );
        assert!(text.contains(" trace=00000000deadbeef\n"), "{text}");
        let json = access_log_line(AccessLogFormat::Json, &record);
        assert!(json.ends_with('\n') && json.lines().count() == 1);
        check_json_stream(&json).expect("json access log line must parse");
        assert!(json.contains("\"status\":200"), "{json}");
        assert!(json.contains("\"duration_s\":0.012345"), "{json}");
        assert!(json.contains("fig\\\"12"), "escaped path: {json}");
        assert!(json.contains("\"trace_id\":\"00000000deadbeef\""), "{json}");
        assert!(json.contains("\"experiment\":\"fig\\\"12\""), "{json}");
        // Non-run lines omit the experiment field entirely.
        let probe = access_log_line(
            AccessLogFormat::Json,
            &AccessRecord {
                experiment: None,
                path: "/v1/healthz",
                method: "GET",
                ..record
            },
        );
        assert!(!probe.contains("\"experiment\""), "{probe}");
        check_json_stream(&probe).expect("probe line must parse");
    }

    #[test]
    fn experiment_of_extracts_run_and_sweep_ids() {
        assert_eq!(experiment_of("/v1/experiments/fig12/run"), Some("fig12"));
        assert_eq!(experiment_of("/v1/experiments/fig12/run/"), Some("fig12"));
        assert_eq!(experiment_of("/v1/sweeps/table1"), Some("table1"));
        assert_eq!(experiment_of("/v1/experiments/fig12"), None);
        assert_eq!(experiment_of("/v1/experiments//run"), None);
        assert_eq!(experiment_of("/v1/healthz"), None);
        assert_eq!(experiment_of("/v1/experiments/a/b/run"), None);
    }

    /// A server's shared state with request-id prefix `00c0ffee`.
    fn test_shared() -> Shared {
        Shared::new(
            &Config::default(),
            Box::new(|exp, ctx| exp.run(ctx)),
            0xc0ffee,
            "127.0.0.1:0".to_string(),
        )
        .expect("a memory-only job table opens")
        .0
    }

    #[test]
    fn scope_adopts_valid_headers_and_mints_otherwise() {
        let shared = test_shared();
        let request = |headers: Vec<(&str, &str)>| Request {
            method: "POST".to_string(),
            path: "/v1/experiments/fig12/run".to_string(),
            http11: true,
            headers: headers
                .into_iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };

        // A fleet hop: every id adopted, parent linked.
        let hop = request(vec![
            ("x-request-id", "00abcdef-000003"),
            ("x-trace-id", "00000000deadbeef"),
            ("x-parent-span", "00000000cafebabe"),
        ]);
        let scope = scope_for(&shared, Some(&hop));
        assert_eq!(scope.request_id, "00abcdef-000003");
        assert_eq!(scope.trace.trace_id, 0xdeadbeef);
        assert_eq!(scope.trace.parent, Some(0xcafebabe));
        assert_ne!(scope.trace.span_id, 0);

        // Garbage headers: minted ids, no parent.
        let junk = request(vec![
            ("x-request-id", "has space"),
            ("x-trace-id", "not-hex"),
            ("x-parent-span", "00000000cafebabe"),
        ]);
        let scope = scope_for(&shared, Some(&junk));
        assert!(
            scope.request_id.starts_with("00c0ffee-"),
            "{}",
            scope.request_id
        );
        assert_eq!(scope.trace.parent, None, "parent needs a valid trace id");
        assert_ne!(scope.trace.trace_id, 0);

        // No request at all (parse errors): still fully identified.
        let scope = scope_for(&shared, None);
        assert!(scope.request_id.starts_with("00c0ffee-"));
        assert_ne!(scope.trace.trace_id, 0);
    }

    #[test]
    fn server_metrics_render_is_validator_clean_and_byte_compatible() {
        let m = Metrics::new(4, 32);
        m.requests.base().add(2);
        m.count_response(200);
        m.count_response(404);
        m.runs.inc();
        m.request_seconds.record(0.01);
        let text = m.registry.render_prometheus();
        cnt_obs::promcheck::validate(&text).expect("registry render must validate");
        // The PR 5 sample lines survive byte-for-byte.
        for line in [
            "cnt_serve_requests_total 2\n",
            "cnt_serve_runs_total 1\n",
            "cnt_serve_cache_hits_total 0\n",
            "cnt_serve_cache_misses_total 0\n",
            "cnt_serve_coalesced_total 0\n",
            "cnt_serve_rejected_total 0\n",
            "cnt_serve_keepalive_reuses_total 0\n",
            "cnt_serve_workers 4\n",
            "cnt_serve_queue_capacity 32\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // New series: status labels and phase histograms.
        assert!(text.contains("cnt_serve_requests_total{status=\"200\"} 1\n"));
        assert!(text.contains("cnt_serve_requests_total{status=\"404\"} 1\n"));
        assert!(text.contains("cnt_serve_request_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("# TYPE cnt_serve_uptime_seconds gauge\n"));
    }

    #[test]
    fn request_ids_are_unique_per_server() {
        let shared = test_shared();
        let a = shared.next_request_id();
        let b = shared.next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("00c0ffee-"), "{a}");
        // Span ids come off their own sequence, never perturbing the
        // request-id numbering, and are never zero.
        let span_a = shared.mint_id();
        let span_b = shared.mint_id();
        assert_ne!(span_a, 0);
        assert_ne!(span_a, span_b);
        assert_eq!(shared.next_request_id(), "00c0ffee-000002");
    }

    #[test]
    fn history_intervals_outside_the_range_are_refused_before_binding() {
        // A zero interval would spin the scraper. The address is not
        // bindable, so a `Config` error shows the check comes first.
        for interval in [
            Duration::ZERO,
            Duration::from_micros(999),
            Duration::from_secs(86_401),
        ] {
            let config = Config {
                addr: "not-an-address".to_string(),
                history_interval: interval,
                ..Config::default()
            };
            let refused = Server::bind(config).err();
            assert!(
                matches!(refused, Some(Error::Config { .. })),
                "{interval:?}: {refused:?}"
            );
        }
        let config = Config {
            addr: "not-an-address".to_string(),
            history_interval: *HISTORY_INTERVALS.start(),
            ..Config::default()
        };
        assert!(matches!(Server::bind(config), Err(Error::Io { .. })));
    }
}
