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

use crate::cache::{CachedBody, LruCache};
use crate::gate::{ComputeGate, LiveThreads};
use crate::http::{self, Request, RequestError, Response};
use crate::{api, net, signal, Error, Result};
use cnt_fleet::jobs::Progress;
use cnt_fleet::{
    journal, ChaosInjector, ChunkBoard, ChunkClaim, FleetConfig, FleetHealth, HashRing, JobBody,
    JobEntry, JobState, JobTable, PeerClient, PeerError, PeerResponse, PeerState, RetryPolicy,
    RouteMode, Transition,
};
use cnt_interconnect::experiments::format::OutputFormat;
use cnt_interconnect::experiments::{self, Experiment, Params, Report, RunContext};
use cnt_obs::json::{self, JsonValue};
use cnt_obs::slo::{self, SloSpec};
use cnt_obs::trace_store::{self, id_hex, parse_id, TraceContext, TraceRecord, TraceStore};
use cnt_obs::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, HistoryStore, MetricRegistry, Profile,
};
use cnt_sweep::seed::fnv1a;
use cnt_sweep::{chunk_ranges, ResultStore};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
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
/// Stack of a connection thread. Run leaders compute on it, so it must
/// hold every registry kernel and the 128-deep JSON parse.
const CONNECTION_STACK: usize = 256 * 1024;
/// How often a connection waiting for a request's first byte checks for
/// shutdown, so idle keep-alive connections close promptly on drain.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// How a run leader turns a resolved experiment + context into a report.
/// Injectable so tests can slow computations down or fail them on
/// purpose; production uses [`Experiment::run`].
pub type Runner =
    dyn Fn(&'static dyn Experiment, &RunContext) -> cnt_interconnect::Result<Report> + Send + Sync;

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
    /// How long a kept-alive connection may sit idle between requests
    /// before its thread closes it. A parked connection holds only its
    /// own thread, never a compute permit; the window bounds how long
    /// idle clients keep their slot under the connection cap. There is
    /// no per-connection request cap: a connection ends on client
    /// close, `Connection: close`, this idle window, shutdown, or an
    /// error.
    pub keep_alive_idle: Duration,
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
    /// Points each metric series keeps in the `GET /v1/metrics/history`
    /// ring (oldest overwritten first).
    pub history_points: usize,
    /// How often the self-scraper thread samples the registries into
    /// the history rings.
    pub history_interval: Duration,
    /// SLOs `GET /v1/slo` and `repro slo` evaluate against the history
    /// rings (defaults to [`cnt_obs::slo::default_serve_slos`]).
    pub slos: Vec<SloSpec>,
    /// Durable-state root: the job journal (`journal.log`), spilled job
    /// result bodies (`jobs/`), and the chunk result store
    /// (`sweep-cache/`) all live under it. `None` keeps job state in
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
            keep_alive_idle: Duration::from_secs(5),
            watch_signals: false,
            access_log: None,
            fleet: None,
            jobs_capacity: 64,
            job_ttl: Duration::from_secs(600),
            history_points: cnt_obs::timeseries::DEFAULT_HISTORY_POINTS,
            history_interval: Duration::from_secs(1),
            slos: slo::default_serve_slos(),
            data_dir: None,
        }
    }
}

/// A `TcpStream` whose reads and writes all count against one wall-clock
/// deadline (each I/O call gets the *remaining* budget as its socket
/// timeout, so many slow little reads cannot add up past it).
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineStream {
    fn remaining(&self) -> std::io::Result<Duration> {
        self.deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "request deadline exceeded")
            })
    }
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.remaining()?;
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let remaining = self.remaining()?;
        self.stream.set_write_timeout(Some(remaining))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
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

/// A validated fleet membership: the shard table, the peer clients (a
/// fast-failing one for cache-fill probes, a patient one for full
/// proxied runs whose owner may have to compute), and the local failure
/// detector feeding the routing health gate.
struct FleetState {
    config: FleetConfig,
    ring: HashRing,
    fill: PeerClient,
    proxy: PeerClient,
    /// Chaos-free, single-shot client the background prober uses — the
    /// backoff schedule in [`FleetHealth`] is its retry loop.
    prober: PeerClient,
    /// Up → Suspect → Down failure detector + re-probe schedule.
    health: FleetHealth,
    /// `cnt_fleet_peer_state{peer,state}`: 1 on the current state.
    peer_state: Arc<GaugeVec>,
    /// `cnt_fleet_probe_total{result}`: background probe outcomes.
    probes: Arc<CounterVec>,
    /// `cnt_fleet_peer_transitions_total{to}`: state changes observed.
    transitions: Arc<CounterVec>,
}

impl FleetState {
    /// Reflects a health transition into the peer-state gauges and the
    /// transition counter.
    fn apply_transition(&self, transition: &Transition) {
        self.transitions.with(transition.to.label()).inc();
        let addr = self.config.peer(transition.peer);
        for state in PeerState::ALL {
            let current = if state == transition.to { 1.0 } else { 0.0 };
            self.peer_state.with(&[addr, state.label()]).set(current);
        }
    }

    /// Makes one hot-path call to peer `index` (`call` gets its
    /// address) and feeds the outcome into the failure detector: any
    /// parsed response is a success, a transport error a failure.
    fn call_peer(
        &self,
        index: usize,
        call: impl FnOnce(&str) -> core::result::Result<PeerResponse, PeerError>,
    ) -> core::result::Result<PeerResponse, PeerError> {
        let result = call(self.config.peer(index));
        let transition = match &result {
            Ok(_) => self.health.record_success(index),
            Err(e) if e.is_transport() => self.health.record_failure(index, Instant::now()),
            Err(_) => None,
        };
        if let Some(transition) = transition {
            self.apply_transition(&transition);
        }
        result
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
    /// Async job registry behind `POST /v1/sweeps/{id}`.
    jobs: JobTable,
    /// Set once by [`Server::enable_fleet`]; `None` = single instance.
    fleet: OnceLock<FleetState>,
    request_deadline: Duration,
    keep_alive_idle: Duration,
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
    /// Durable-state root ([`Config::data_dir`]); `None` = memory only.
    data_dir: Option<PathBuf>,
    /// The append side of the job journal (`None` without a data dir).
    journal: Option<Mutex<journal::Journal>>,
}

impl Shared {
    fn new(
        config: &Config,
        runner: Box<Runner>,
        rid_prefix: u32,
        instance: String,
        journal: Option<Mutex<journal::Journal>>,
    ) -> Self {
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let metrics = Metrics::new(workers, config.queue_capacity);
        Self {
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
            jobs: JobTable::new(config.jobs_capacity, config.job_ttl),
            fleet: OnceLock::new(),
            request_deadline: config.request_deadline,
            keep_alive_idle: config.keep_alive_idle,
            access_log: config.access_log,
            rid_prefix,
            rid_seq: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
            history: HistoryStore::new(config.history_points),
            slos: config.slos.clone(),
            traces: TraceStore::new(TRACE_CAPACITY, TRACE_TTL),
            profile: Profile::new(),
            instance,
            data_dir: config.data_dir.clone(),
            journal,
        }
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

    /// Appends one record to the job journal, when one is configured.
    /// An append failure only skips the counter — the job still runs;
    /// it just would not survive a crash, which is the pre-journal
    /// behavior, not a new failure mode.
    fn journal_append(&self, payload: &str) {
        if let Some(journal) = &self.journal {
            if journal
                .lock()
                .expect("journal poisoned")
                .append(payload)
                .is_ok()
            {
                self.metrics.journal_records.inc();
            }
        }
    }

    /// The chunk-result store backing crash resume. On disk under the
    /// data dir; without one, a throwaway in-memory store (fan-out still
    /// works, chunks just cannot be recalled across restarts).
    fn chunk_store(&self) -> ResultStore {
        match &self.data_dir {
            Some(dir) => ResultStore::on_disk(dir.join("sweep-cache")),
            None => ResultStore::in_memory(),
        }
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
    /// Requests shutdown (takes effect within one accept-poll interval).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds with the production runner ([`Experiment::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(config: Config) -> Result<Self> {
        Self::bind_with_runner(config, |exp, ctx| exp.run(ctx))
    }

    /// Binds with an injected runner — the seam the concurrency tests use
    /// to make computations observably slow or failing. Validation,
    /// caching, and coalescing behave exactly as in production.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind_with_runner<F>(config: Config, runner: F) -> Result<Self>
    where
        F: Fn(&'static dyn Experiment, &RunContext) -> cnt_interconnect::Result<Report>
            + Send
            + Sync
            + 'static,
    {
        // SO_REUSEADDR bind: a restarted instance (crash recovery, the
        // chaos smoke's SIGKILL) retakes its fleet port immediately
        // instead of waiting out TIME_WAIT.
        let listener = net::bind_listener(&config.addr).map_err(|e| Error::io("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::io("local_addr", e))?;
        let rid_prefix = {
            let nanos = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            fnv1a(&nanos.to_le_bytes()) as u32 ^ (u64::from(local_addr.port()) as u32)
        };
        // Crash recovery, step 1: fold the journal into per-job state
        // before anything can append to it, then compact away superseded
        // records so the file stays proportional to live jobs.
        let journal_path = config.data_dir.as_ref().map(|dir| dir.join("journal.log"));
        let mut recovered = Vec::new();
        if let Some(path) = &journal_path {
            let replayed = journal::replay(path).map_err(|e| Error::io("journal replay", e))?;
            recovered = fold_journal(&replayed.records);
            journal::rewrite(path, &compact_records(&recovered))
                .map_err(|e| Error::io("journal compact", e))?;
        }
        let journal = match &journal_path {
            Some(path) => Some(Mutex::new(
                journal::Journal::open(path).map_err(|e| Error::io("journal open", e))?,
            )),
            None => None,
        };
        let shared = Arc::new(Shared::new(
            &config,
            Box::new(runner),
            rid_prefix,
            local_addr.to_string(),
            journal,
        ));
        let server = Self {
            listener,
            local_addr,
            config,
            shared,
        };
        if let Some(fleet) = server.config.fleet.clone() {
            server.enable_fleet(fleet)?;
        }
        // Crash recovery, step 2 (after the fleet joins, so recovered
        // jobs fan out like fresh ones): terminal jobs become pollable
        // again, unfinished ones run again — their completed chunks
        // recall from the chunk store instead of recomputing.
        for job in recovered {
            apply_recovered_job(&server.shared, job);
        }
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
        let chaos = fleet
            .chaos
            .filter(|c| c.is_active())
            .map(|c| Arc::new(ChaosInjector::new(c)));
        // Fleet-only metric families, registered on the per-server
        // registry at join time so a single-instance scrape stays
        // byte-identical to the pre-fleet exposition.
        let registry = &self.shared.metrics.registry;
        let peer_state = registry.gauge_vec(
            "cnt_fleet_peer_state",
            "peer membership state as seen by this instance (1 = current state)",
            &["peer", "state"],
        );
        let probes = registry.counter_vec(
            "cnt_fleet_probe_total",
            "background health probes of Down peers, by outcome",
            "result",
            false,
        );
        let transitions = registry.counter_vec(
            "cnt_fleet_peer_transitions_total",
            "peer state transitions observed by this instance, by new state",
            "to",
            false,
        );
        for result in ["ok", "error"] {
            probes.with(result);
        }
        for state in PeerState::ALL {
            transitions.with(state.label());
        }
        for addr in &fleet.peers {
            for state in PeerState::ALL {
                let seed = if state == PeerState::Up { 1.0 } else { 0.0 };
                peer_state.with(&[addr, state.label()]).set(seed);
            }
        }
        // One connection pool per instance: the fill and proxy clients
        // keep their own deadlines and retry ladders but share parked
        // sockets, so a relayed request leaves one keep-alive connection
        // on the owner — not one per client, each holding a peer thread.
        let fill =
            PeerClient::new(fleet.connect_timeout, fleet.fill_timeout).with_chaos(chaos.clone());
        let proxy = PeerClient::new(fleet.connect_timeout, fleet.proxy_timeout)
            .with_chaos(chaos)
            .sharing_pool_of(&fill);
        let state = FleetState {
            ring: HashRing::new(&fleet.peers),
            fill,
            proxy,
            // The prober stays chaos-free: chaos models a sick request
            // path, and the prober is the recovery mechanism under test.
            // It closes its connections — a rare off-path probe must not
            // park a socket (and its thread) on a freshly revived peer.
            prober: PeerClient::new(fleet.connect_timeout, fleet.fill_timeout)
                .with_retry(RetryPolicy::one_shot())
                .with_connection_close(),
            health: FleetHealth::new(fleet.peers.len(), fleet.self_index, fleet.health),
            peer_state,
            probes,
            transitions,
            config: fleet,
        };
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
        self.listener
            .set_nonblocking(true)
            .map_err(|e| Error::io("set_nonblocking", e))?;
        // The self-scraper: one sample of every registry per interval
        // into the history rings, for as long as the server serves.
        let scraper_stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let shared = Arc::clone(&self.shared);
            let stop = Arc::clone(&scraper_stop);
            let interval = self.config.history_interval;
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    sample_history(&shared);
                    // Sleep in short slices so shutdown is responsive
                    // even under multi-second intervals.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop.load(Ordering::SeqCst) {
                        let slice = Duration::from_millis(25).min(interval - slept);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
        };
        // The re-probe loop (fleet mode only): while any peer is Down,
        // check it off the hot path on its jittered backoff schedule and
        // restore it to Up on the first healthy answer.
        let prober_stop = Arc::new(AtomicBool::new(false));
        let prober = self.shared.fleet.get().map(|_| {
            let shared = Arc::clone(&self.shared);
            let stop = Arc::clone(&prober_stop);
            std::thread::spawn(move || {
                let fleet = shared.fleet.get().expect("prober spawned with a fleet");
                while !stop.load(Ordering::SeqCst) {
                    for index in fleet.health.due_probes(Instant::now()) {
                        let addr = fleet.config.peer(index);
                        match fleet.prober.get(addr, "/v1/healthz") {
                            Ok(response) if response.status == 200 => {
                                fleet.probes.with("ok").inc();
                                if let Some(t) = fleet.health.probe_succeeded(index) {
                                    fleet.apply_transition(&t);
                                }
                            }
                            _ => fleet.probes.with("error").inc(),
                        }
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        });
        loop {
            if self.shared.stop.load(Ordering::SeqCst)
                || (self.config.watch_signals && signal::triggered())
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.dispatch(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Stop accepting, then drain: every connection finishes its
        // in-flight request (idle ones close at their next poll), and
        // every sweep job, queued ones included, runs to its end.
        drop(self.listener);
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.connections.wait_none_left();
        self.shared.job_threads.wait_none_left();
        scraper_stop.store(true, Ordering::SeqCst);
        let _ = scraper.join();
        prober_stop.store(true, Ordering::SeqCst);
        if let Some(prober) = prober {
            let _ = prober.join();
        }
        Ok(())
    }

    /// Gives one accepted connection a thread of its own, or answers it
    /// `503` on the accept path when the connection cap is reached.
    fn dispatch(&self, stream: TcpStream) {
        if stream.set_nonblocking(false).is_err() {
            return;
        }
        // Responses are written head-then-body; without TCP_NODELAY that
        // second small segment sits behind Nagle + the client's delayed
        // ACK (~40 ms per exchange on loopback, dwarfing the kernel time
        // on keep-alive round-trips).
        let _ = stream.set_nodelay(true);
        let Some(slot) = self.shared.connections.enter() else {
            refuse(stream, &self.shared);
            return;
        };
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("cnt-serve-conn".to_string())
            .stack_size(CONNECTION_STACK)
            .spawn(move || {
                let _slot = slot;
                handle_connection(stream, &shared);
            });
        if spawned.is_err() {
            // The closure, stream and slot included, is already dropped.
            self.shared.metrics.rejected.inc();
        }
    }
}

/// Answers a connection over the cap: `503` + `Retry-After`, then close.
fn refuse(stream: TcpStream, shared: &Shared) {
    let started = Instant::now();
    let mut stream = DeadlineStream {
        stream,
        deadline: started + Duration::from_millis(100),
    };
    // Drain the bytes the client already sent: closing with unread data
    // turns into a TCP RST that can discard the response before the
    // client reads it. One bounded read covers the small request bodies
    // this API carries.
    let _ = stream.read(&mut [0u8; 8192]);
    let scope = scope_for(shared, None);
    let _ = send(
        &mut stream,
        shared.busy("connection table"),
        &scope,
        None,
        false,
        started,
        shared,
    );
    let _ = stream.stream.shutdown(std::net::Shutdown::Write);
}

/// Serves one connection on its own thread: requests back-to-back while
/// the client keeps the connection alive, each under its own read/write
/// deadline, until the client closes, `Connection: close`, an idle
/// timeout, shutdown, or an error ends it. Pipelined
/// requests already sitting in the buffered reader are served without
/// waiting.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline: Instant::now(),
    });
    let mut served = 0usize;
    let mut first_byte_within = shared.request_deadline;
    while request_arrives(&mut reader, first_byte_within, shared) {
        let started = Instant::now();
        let (scope, response, keep_alive, target) = match http::read_request(&mut reader) {
            Ok(request) => {
                shared.metrics.requests.base().inc();
                if served > 0 {
                    shared.metrics.keepalive_reuses.inc();
                }
                let target = (request.method.clone(), request.path.clone());
                let scope = scope_for(shared, Some(&request));
                let response = route(&request, &scope, shared);
                // Decided after routing, so a response finished during a
                // drain already tells the client the connection closes.
                let keep = request.wants_keep_alive() && !shared.stop.load(Ordering::SeqCst);
                (scope, response, keep, Some(target))
            }
            Err(RequestError::Malformed(message)) => (
                scope_for(shared, None),
                Response::json(400, api::error_json(&message)),
                false,
                None,
            ),
            Err(RequestError::TooLarge(message)) => (
                scope_for(shared, None),
                Response::json(413, api::error_json(&message)),
                false,
                None,
            ),
            Err(RequestError::Io(_)) => return, // died or timed out; nobody to answer
        };
        let target = target.as_ref().map(|(m, p)| (m.as_str(), p.as_str()));
        let written = send(
            reader.get_mut(),
            response,
            &scope,
            target,
            keep_alive,
            started,
            shared,
        );
        shared
            .metrics
            .request_seconds
            .record_duration(started.elapsed());
        if written.is_err() || !keep_alive {
            return;
        }
        served += 1;
        first_byte_within = shared.keep_alive_idle;
    }
}

/// Waits up to `within` for the first byte of the connection's next
/// request (pipelined bytes already buffered count at once), checking
/// for shutdown every [`IDLE_POLL`]. On `true` the read deadline is the
/// full per-request budget; `false` means the client closed, died or
/// stayed silent, or the server is draining.
fn request_arrives(
    reader: &mut BufReader<DeadlineStream>,
    within: Duration,
    shared: &Shared,
) -> bool {
    let until = Instant::now() + within;
    loop {
        reader.get_mut().deadline = until.min(Instant::now() + IDLE_POLL);
        match reader.fill_buf() {
            Ok([]) => return false, // closed cleanly between requests
            Ok(_) => {
                reader.get_mut().deadline = Instant::now() + shared.request_deadline;
                return true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && Instant::now() < until
                    && !shared.stop.load(Ordering::SeqCst) => {}
            Err(_) => return false,
        }
    }
}

/// Sends one response: stamps the scope's ids on it, counts it by
/// status, writes it under a fresh deadline (the computation does not
/// count against the request's read budget), and writes the access-log
/// line.
fn send(
    stream: &mut DeadlineStream,
    response: Response,
    scope: &RequestScope,
    target: Option<(&str, &str)>,
    keep_alive: bool,
    started: Instant,
    shared: &Shared,
) -> std::io::Result<()> {
    let trace_hex = id_hex(scope.trace.trace_id);
    let response = Response {
        request_id: Some(scope.request_id.clone()),
        trace_id: Some(trace_hex.clone()),
        ..response
    };
    shared.metrics.count_response(response.status);
    stream.deadline = Instant::now() + shared.request_deadline;
    let write_started = Instant::now();
    let written = response
        .write_to_with(stream, keep_alive)
        .and_then(|()| stream.flush());
    shared
        .metrics
        .write_seconds
        .record_duration(write_started.elapsed());
    if let Some(log_format) = shared.access_log {
        let (method, path) = target.unwrap_or(("-", "-"));
        print!(
            "{}",
            access_log_line(
                log_format,
                &AccessRecord {
                    request_id: &scope.request_id,
                    trace_id: &trace_hex,
                    method,
                    path,
                    experiment: experiment_of(path),
                    status: response.status,
                    bytes: response.content_length() as usize,
                    duration_s: started.elapsed().as_secs_f64(),
                },
            )
        );
    }
    written
}

/// One completed exchange, as the access log sees it.
struct AccessRecord<'a> {
    request_id: &'a str,
    /// The request's trace id, hex wire form — the join key across
    /// every fleet instance the request touched.
    trace_id: &'a str,
    method: &'a str,
    path: &'a str,
    /// The experiment id for run/sweep lines, so per-experiment log
    /// slicing is a field match rather than a path regex.
    experiment: Option<&'a str>,
    status: u16,
    bytes: usize,
    duration_s: f64,
}

/// The experiment id an access-log line should carry: the `{id}` of
/// `POST /v1/experiments/{id}/run` and `POST /v1/sweeps/{id}` paths.
fn experiment_of(path: &str) -> Option<&str> {
    let path = path.trim_end_matches('/');
    if let Some(rest) = path.strip_prefix("/v1/experiments/") {
        return rest
            .strip_suffix("/run")
            .filter(|id| !id.is_empty() && !id.contains('/'));
    }
    path.strip_prefix("/v1/sweeps/")
        .filter(|id| !id.is_empty() && !id.contains('/'))
}

/// Renders one access-log line (trailing newline included). The
/// timestamp is unix seconds at render time; method and path are
/// client-controlled and escaped accordingly in the JSON form.
fn access_log_line(log_format: AccessLogFormat, record: &AccessRecord<'_>) -> String {
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    match log_format {
        AccessLogFormat::Text => format!(
            "{ts:.3} {} \"{} {}\" {} {}B {:.6}s trace={}\n",
            record.request_id,
            record.method,
            record.path,
            record.status,
            record.bytes,
            record.duration_s,
            record.trace_id,
        ),
        AccessLogFormat::Json => {
            let mut out = String::with_capacity(200);
            out.push_str(&format!("{{\"ts\":{ts:.3},\"request_id\":"));
            json::push_string(record.request_id, &mut out);
            out.push_str(",\"trace_id\":");
            json::push_string(record.trace_id, &mut out);
            out.push_str(",\"method\":");
            json::push_string(record.method, &mut out);
            out.push_str(",\"path\":");
            json::push_string(record.path, &mut out);
            if let Some(id) = record.experiment {
                out.push_str(",\"experiment\":");
                json::push_string(id, &mut out);
            }
            out.push_str(&format!(
                ",\"status\":{},\"bytes\":{},\"duration_s\":{:.6}}}\n",
                record.status, record.bytes, record.duration_s,
            ));
            out
        }
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
            sweep_job_route(id, request, scope, s)
        })
    }),
    ("GET", "/v1/jobs/", "", |rid, _, _, s| {
        job_status_route(rid, s, true)
    }),
    ("GET", "/v1/jobs/", "/result", |rid, _, _, s| {
        job_result_route(rid, s, true)
    }),
    ("GET", "/v1/trace/", "", |hex, _, _, s| trace_route(hex, s)),
    ("GET", "/v1/_fleet/cache/", "", |hash, _, _, s| {
        fleet_cache_route(hash, s)
    }),
    ("GET", "/v1/_fleet/trace/", "", |hex, _, _, s| {
        fleet_trace_route(hex, s)
    }),
    ("POST", "/v1/_fleet/chunk", "", |_, request, _, s| {
        fleet_chunk_route(request, s)
    }),
    // A peer polling on behalf of a client: local view only, never fans
    // out further (no proxy loops).
    ("GET", "/v1/_fleet/jobs/", "", |rid, _, _, s| {
        job_status_route(rid, s, false)
    }),
    ("GET", "/v1/_fleet/jobs/", "/result", |rid, _, _, s| {
        job_result_route(rid, s, false)
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
    shared.profile.add(&roots);
    shared.traces.record(TraceRecord {
        trace_id: scope.trace.trace_id,
        span_id: scope.trace.span_id,
        parent: scope.trace.parent,
        name: format!("POST {name}"),
        instance: shared.instance.clone(),
        request_id: scope.request_id.clone(),
        unix_s: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64()),
        total_s: started.elapsed().as_secs_f64(),
        status: response.status,
        roots,
    });
    shared.metrics.trace_records.inc();
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
    if let Some(response) = fleet_route(key, &ctx.params, request, scope, shared) {
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

/// A relayed peer response (cache-fill hit or full proxied run).
fn peer_response(peer: &cnt_fleet::PeerResponse) -> Response {
    Response {
        content_type: static_content_type(&peer.content_type),
        ..Response::json(peer.status, peer.body.clone())
    }
}

/// Decides where a run request is answered when this instance is part of
/// a fleet. `None` means "compute locally" — either because this
/// instance owns the shard, or because the owner is unreachable and the
/// request degrades to single-instance behavior.
fn fleet_route(
    key: u64,
    params: &Params,
    request: &Request,
    scope: &RequestScope,
    shared: &Arc<Shared>,
) -> Option<Response> {
    let fleet = shared.fleet.get()?;
    let owner = fleet.ring.owner_of_hash(params.content_hash())?;
    if owner == fleet.config.self_index {
        shared.metrics.route_total.with("local").inc();
        return None;
    }
    // Health gate: a Down owner is skipped without a probe — the request
    // degrades to local compute at zero added latency while the
    // background prober watches for recovery off the hot path.
    if !fleet.health.is_routable(owner) {
        shared.metrics.route_total.with("degraded").inc();
        return None;
    }
    // Context propagation: the owner adopts our trace (we become the
    // parent span) and our request id, so its access log and trace
    // record join this request's.
    let hop_headers = vec![
        ("X-Trace-Id".to_string(), id_hex(scope.trace.trace_id)),
        ("X-Parent-Span".to_string(), id_hex(scope.trace.span_id)),
        ("X-Request-Id".to_string(), scope.request_id.clone()),
    ];
    match fleet.config.mode {
        RouteMode::Redirect => {
            shared.metrics.route_total.with("redirected").inc();
            let target = format!("http://{}{}", fleet.config.peer(owner), request.path);
            Some(Response {
                location: Some(target.clone()),
                ..Response::json(307, format!("{{\"location\":\"{target}\"}}\n"))
            })
        }
        RouteMode::Proxy => {
            // Cheap cache-fill probe first: the owner usually holds hot
            // points already, so most cross-shard requests cost one
            // small GET instead of a full proxied run.
            let fill_path = format!("/v1/_fleet/cache/{key:016x}");
            match fleet.call_peer(owner, |addr| {
                fleet.fill.get_with(addr, &fill_path, &hop_headers)
            }) {
                Ok(peer) if peer.status == 200 => {
                    shared.metrics.peer_fill.with("hit").inc();
                    shared.metrics.route_total.with("proxied").inc();
                    Some(peer_response(&peer))
                }
                Ok(_) => {
                    shared.metrics.peer_fill.with("miss").inc();
                    let body = core::str::from_utf8(&request.body).unwrap_or("");
                    match fleet.call_peer(owner, |addr| {
                        fleet.proxy.post_with(
                            addr,
                            &request.path,
                            "application/json",
                            body,
                            &hop_headers,
                        )
                    }) {
                        Ok(peer) => {
                            shared.metrics.route_total.with("proxied").inc();
                            Some(peer_response(&peer))
                        }
                        Err(_) => {
                            // Owner died between probe and proxy:
                            // degrade to computing locally.
                            shared.metrics.route_total.with("local").inc();
                            None
                        }
                    }
                }
                Err(_) => {
                    // Dead or stalled owner: the fill client already
                    // timed out fast (and closed its sockets); answer
                    // from here like a single instance would.
                    shared.metrics.peer_fill.with("error").inc();
                    shared.metrics.route_total.with("local").inc();
                    None
                }
            }
        }
    }
}

/// `GET /v1/_fleet/cache/{hash}`: this instance's LRU body for a request
/// hash, or `404`. Internal — peers call it as the cache-fill probe; it
/// never computes and never mutates the run counters.
fn fleet_cache_route(hash: &str, shared: &Arc<Shared>) -> Response {
    let Ok(key) = u64::from_str_radix(hash, 16) else {
        return Response::json(
            400,
            api::error_json(&format!("bad cache hash '{hash}' (want 16 hex chars)")),
        );
    };
    match shared.cache.lock().expect("cache poisoned").get(key) {
        Some(hit) => ok_response(hit),
        None => Response::json(
            404,
            api::error_json(&format!("no cached body for {key:016x}")),
        ),
    }
}

/// `GET /v1/_fleet/trace/{id}`: this instance's *local* records for one
/// trace, as a flat JSON array. Internal — peers call it while
/// assembling the cross-instance tree; it never fans out further.
fn fleet_trace_route(hex: &str, shared: &Arc<Shared>) -> Response {
    let Some(trace_id) = parse_id(hex) else {
        return Response::json(
            400,
            api::error_json(&format!("bad trace id '{hex}' (want 16 hex chars)")),
        );
    };
    Response::json(
        200,
        trace_store::render_records_json(&shared.traces.get(trace_id)),
    )
}

/// `GET /v1/trace/{id}`: the assembled cross-instance trace tree —
/// local records plus every peer's, linked parent-span → span.
fn trace_route(hex: &str, shared: &Arc<Shared>) -> Response {
    let Some(trace_id) = parse_id(hex) else {
        return Response::json(
            400,
            api::error_json(&format!("bad trace id '{hex}' (want 16 hex chars)")),
        );
    };
    let mut records = shared.traces.get(trace_id);
    if let Some(fleet) = shared.fleet.get() {
        // Collect the peers' shares with the fast-failing fill client:
        // a dead peer costs one bounded probe, not a hung read.
        let path = format!("/v1/_fleet/trace/{}", id_hex(trace_id));
        for (index, peer) in fleet.config.peers.iter().enumerate() {
            if index == fleet.config.self_index {
                continue;
            }
            if !fleet.health.is_routable(index) {
                continue; // a Down peer would only add a timeout
            }
            if let Ok(response) = fleet.fill.get(peer, &path) {
                if response.status == 200 {
                    records.extend(trace_store::parse_records_json(&response.body));
                }
            }
        }
    }
    if records.is_empty() {
        return Response::json(
            404,
            api::error_json(&format!(
                "no records for trace {} (expired or unknown)",
                id_hex(trace_id)
            )),
        );
    }
    // Chronological order keeps the flat list readable and the tree's
    // sibling order stable regardless of which instance answered.
    records.sort_by(|a, b| {
        a.unix_s
            .partial_cmp(&b.unix_s)
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    Response::json(
        200,
        cnt_obs::trace_store::render_trace_json(trace_id, &records),
    )
}

/// One accepted sweep job, as the journal and the worker task see it:
/// everything needed to re-run the job deterministically after a crash.
#[derive(Debug, Clone, PartialEq)]
struct JobSpec {
    rid: String,
    experiment: String,
    preset: Option<String>,
    sets: Vec<(String, String)>,
    format: OutputFormat,
}

impl JobSpec {
    /// Writes the members naming the job's parameter point —
    /// `"experiment"`, an optional `"preset"` and the `"sets"` pairs —
    /// as the journal's `submitted` record and the chunk request both
    /// carry them.
    fn push_point(&self, out: &mut String) {
        out.push_str("\"experiment\":");
        json::push_string(&self.experiment, out);
        if let Some(preset) = &self.preset {
            out.push_str(",\"preset\":");
            json::push_string(preset, out);
        }
        out.push_str(",\"sets\":[");
        for (i, (k, v)) in self.sets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::push_string(k, out);
            out.push(',');
            json::push_string(v, out);
            out.push(']');
        }
        out.push(']');
    }

    /// Reads [`JobSpec::push_point`]'s members back out of an object,
    /// handing every other member — or one of these with the wrong JSON
    /// type — to `other`, which may reject it. `sets` is strict: each
    /// item must be a `[key, value]` pair of strings. The id and format
    /// are left empty and JSON for the caller to fill in.
    fn read_point(
        members: &[(String, JsonValue)],
        mut other: impl FnMut(&str, &JsonValue) -> core::result::Result<(), String>,
    ) -> core::result::Result<JobSpec, String> {
        let mut spec = JobSpec {
            rid: String::new(),
            experiment: String::new(),
            preset: None,
            sets: Vec::new(),
            format: OutputFormat::Json,
        };
        for (name, value) in members {
            match (name.as_str(), value) {
                ("experiment", JsonValue::String(s)) => spec.experiment = s.clone(),
                ("preset", JsonValue::String(s)) => spec.preset = Some(s.clone()),
                ("sets", JsonValue::Array(items)) => {
                    for item in items {
                        let JsonValue::Array(pair) = item else {
                            return Err("each set must be a [key, value] pair".to_string());
                        };
                        let [JsonValue::String(k), JsonValue::String(v)] = pair.as_slice() else {
                            return Err("each set must be a [key, value] pair".to_string());
                        };
                        spec.sets.push((k.clone(), v.clone()));
                    }
                }
                (name, value) => other(name, value)?,
            }
        }
        Ok(spec)
    }
}

/// `POST /v1/sweeps/{id}`: validate, register a job, journal the
/// submission, start the job's thread, answer `202` + the job id
/// immediately.
fn sweep_job_route(
    id: &str,
    request: &Request,
    scope: &RequestScope,
    shared: &Arc<Shared>,
) -> Response {
    let run_request = match api::parse_run_request(&request.body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    // Same gates as the synchronous paths: overrides resolve through the
    // typed params, and the id must have a sweep variant that honours
    // every knob the body sets. The kernel itself is built later, under
    // a permit: the worker task re-resolves from the spec
    // (deterministic), so a journal-recovered job takes exactly this
    // route minus the HTTP.
    let checked =
        experiments::resolve_context(id, run_request.preset.as_deref(), &run_request.sets)
            .and_then(|(_, ctx)| experiments::check_sweep(id, &ctx));
    match checked {
        Ok(()) => {}
        Err(e @ cnt_interconnect::Error::UnknownExperiment(_)) => {
            return Response::json(404, api::error_json(&e.to_string()))
        }
        Err(e) => return Response::json(400, api::error_json(&e.to_string())),
    }

    let rid = shared.next_request_id();
    let Ok(job) = shared.jobs.create(&rid, id) else {
        return Response {
            retry_after: Some(retry_after_hint(
                shared.jobs.pending(),
                shared.gate.permits(),
            )),
            ..Response::json(503, api::busy_json("job table"))
        };
    };
    shared.metrics.jobs_total.with("queued").inc();
    let spec = JobSpec {
        rid: rid.clone(),
        experiment: id.to_string(),
        preset: run_request.preset.clone(),
        sets: run_request.sets.clone(),
        format: run_request.format,
    };
    // Durability: the submission record hits the journal before the 202
    // leaves, so a coordinator killed right after answering still
    // re-runs the job on restart.
    shared.journal_append(&submitted_record(&spec));
    // The job runs on its own thread after this request already
    // answered 202 — it records its *own* trace record as a child of
    // this request's span, so `GET /v1/trace/{id}` shows the async work
    // hanging off the ingress hop that queued it.
    let job_ctx = scope.trace.child_of(shared.mint_id());
    if spawn_sweep_job(shared, job, spec, job_ctx).is_err() {
        // The job's thread never started; withdraw the job so it cannot
        // sit `queued` forever (closing its journal entry too), and shed
        // like any other overload.
        shared.jobs.remove(&rid);
        shared.journal_append(&job_failed_record(
            &rid,
            503,
            &api::busy_json("request queue"),
        ));
        return shared.busy("request queue");
    }
    shared
        .metrics
        .jobs_pending
        .set(shared.jobs.pending() as f64);
    Response::json(
        202,
        format!(
            "{{\"job\":\"{rid}\",\"experiment\":\"{id}\",\"status\":\"queued\",\"poll\":\"/v1/jobs/{rid}\"}}\n"
        ),
    )
}

/// Starts one accepted sweep job (fresh submission or journal
/// recovery) on a thread of its own, which waits in the compute gate's
/// line for a permit: the job table already admitted the job, so it
/// never sheds there. The task resolves everything from the spec, runs
/// it through the chunk coordinator, and records the terminal state in
/// the job table and the journal.
fn spawn_sweep_job(
    shared: &Arc<Shared>,
    job: Arc<JobEntry>,
    spec: JobSpec,
    job_ctx: TraceContext,
) -> std::io::Result<()> {
    let slot = shared
        .job_threads
        .enter()
        .expect("job threads have no cap of their own");
    let worker_shared = Arc::clone(shared);
    let task = move || {
        let _slot = slot;
        let _permit = worker_shared.gate.acquire();
        job.mark_running();
        worker_shared.metrics.jobs_total.with("running").inc();
        let job_started = Instant::now();
        cnt_obs::Trace::begin();
        // A panicking kernel fails the job instead of leaving it
        // `running` forever.
        let run_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = cnt_obs::span!("serve.job");
            execute_sweep_job(&worker_shared, &spec, &job.progress)
        }));
        let roots = cnt_obs::Trace::end();
        worker_shared.profile.add(&roots);
        worker_shared.traces.record(TraceRecord {
            trace_id: job_ctx.trace_id,
            span_id: job_ctx.span_id,
            parent: job_ctx.parent,
            name: format!("job {}", spec.experiment),
            instance: worker_shared.instance.clone(),
            request_id: spec.rid.clone(),
            unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0.0, |d| d.as_secs_f64()),
            total_s: job_started.elapsed().as_secs_f64(),
            status: 0,
            roots,
        });
        worker_shared.metrics.trace_records.inc();
        match run_result {
            Ok(Ok((content_type, body))) => {
                finish_job(&worker_shared, &job, &spec.rid, content_type, body);
                worker_shared.metrics.jobs_total.with("done").inc();
            }
            Ok(Err((status, body))) => {
                worker_shared.journal_append(&job_failed_record(&spec.rid, status, &body));
                job.fail(status, body);
                worker_shared.metrics.jobs_total.with("failed").inc();
            }
            Err(_) => {
                let body = api::error_json(&format!(
                    "sweep '{}' panicked during execution",
                    spec.experiment
                ));
                worker_shared.journal_append(&job_failed_record(&spec.rid, 500, &body));
                job.fail(500, body);
                worker_shared.metrics.jobs_total.with("failed").inc();
            }
        }
        worker_shared
            .metrics
            .jobs_pending
            .set(worker_shared.jobs.pending() as f64);
    };
    std::thread::Builder::new()
        .name("cnt-serve-job".to_string())
        .spawn(task)
        .map(drop)
}

/// Publishes a finished job body: spilled to disk (streamed back at
/// result time, so the job table never holds whole report bodies) when
/// a data dir is configured, inline otherwise. The journal records
/// where the bytes live so a restart re-serves them without rerunning.
fn finish_job(
    shared: &Arc<Shared>,
    job: &JobEntry,
    rid: &str,
    content_type: &'static str,
    body: String,
) {
    if let Some(dir) = &shared.data_dir {
        let spill_dir = dir.join("jobs");
        let path = spill_dir.join(format!("{rid}.body"));
        let written = std::fs::create_dir_all(&spill_dir)
            .and_then(|()| std::fs::write(&path, body.as_bytes()));
        if written.is_ok() {
            let bytes = body.len() as u64;
            shared.journal_append(&job_done_record(rid, content_type, &path, bytes));
            job.complete_spilled(content_type, path, bytes);
            return;
        }
        // Spill failure degrades to the in-memory path: the job still
        // completes, it just is not crash-durable.
    }
    job.complete(content_type, body);
}

/// Runs one sweep job to its rendered body through the chunk
/// coordinator, the one way a served sweep runs.
fn execute_sweep_job(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    progress: &Progress,
) -> core::result::Result<(&'static str, String), (u16, String)> {
    let sweep = experiments::resolve_context(&spec.experiment, spec.preset.as_deref(), &spec.sets)
        .and_then(|(_, ctx)| experiments::chunkable_sweep(&spec.experiment, &ctx))
        .map_err(|e| (400, api::error_json(&e.to_string())))?;
    fanout_sweep(shared, spec, &sweep, progress)
}

/// Runs one sweep as chunks: a deterministic chunk split, chunk-level
/// crash resume through the content-hash chunk store, one dispatch lane
/// per fleet peer with re-dispatch on failure, and the local lane as
/// the lane of last resort. Per-job rows concatenate in global index
/// order into the same [`SweepKernel::finish`] reduce `repro sweep`
/// uses, so the merged report is byte-identical by construction.
///
/// The coordinator also owns the job's progress: `total` is the sweep's
/// job count from the start, and every chunk adds its length to `done`
/// exactly once, whichever lane lands it.
///
/// [`SweepKernel::finish`]: experiments::SweepKernel::finish
fn fanout_sweep(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    sweep: &experiments::SweepKernel,
    progress: &Progress,
) -> core::result::Result<(&'static str, String), (u16, String)> {
    let fleet = shared.fleet.get();
    let n_jobs = sweep.jobs();
    progress.set_total(n_jobs as u64);
    // Twice as many chunks as peers keeps every lane busy even when
    // peers run at different speeds; the split depends only on the
    // topology and the plan (a fixed 8 on a single instance), so a
    // restarted coordinator derives the same boundaries — which is what
    // keeps chunk cache keys stable across crashes.
    let slots = fleet.map_or(8, |f| f.config.peers.len() * 2);
    let ranges = chunk_ranges(n_jobs, slots.clamp(1, n_jobs.max(1)));
    let fanout = Fanout {
        shared,
        spec,
        sweep,
        progress,
        board: ChunkBoard::new(&ranges),
        results: Mutex::new(vec![None; ranges.len()]),
        abort: Mutex::new(None),
        store: shared.chunk_store(),
        deadline: fleet.map_or(Duration::from_secs(1), |f| {
            f.config.proxy_timeout.max(Duration::from_secs(1))
        }),
    };

    // Resume pass: chunks a previous life of this coordinator finished
    // recall from the store — counted as sweep cache hits, the signal
    // the restart e2e asserts on — and are never dispatched at all.
    for (index, range) in ranges.iter().enumerate() {
        let key = sweep.chunk_key(range.start, range.end);
        let probe = fanout.store.get_or_compute(&key, || {
            Err(cnt_sweep::Error::Job {
                index: range.start,
                message: "chunk not computed yet".to_string(),
            })
        });
        if let Ok((table, _)) = probe {
            fanout.land(index, range, table.rows, "resumed");
        }
    }

    std::thread::scope(|scope| {
        if let Some(fleet) = fleet {
            for peer_index in 0..fleet.config.peers.len() {
                if peer_index != fleet.config.self_index {
                    let fanout = &fanout;
                    scope.spawn(move || fanout.remote_lane(fleet, peer_index));
                }
            }
        }
        // The coordinator's own lane runs on this thread — the reason a
        // job finishes even with every peer dead.
        fanout.local_lane();
    });

    if let Some(failure) = fanout.abort.into_inner().expect("abort poisoned") {
        return Err(failure);
    }
    let mut per_job = Vec::with_capacity(n_jobs);
    for rows in fanout.results.into_inner().expect("results poisoned") {
        per_job.extend(rows.expect("all chunks done implies every chunk present"));
    }
    match sweep.finish(per_job) {
        Ok(run) => Ok(render_report(&run.report, spec.format)),
        Err(e) => Err((500, api::error_json(&e.to_string()))),
    }
}

/// Backoff before a failed chunk is claimable again: doubles with the
/// attempt count, capped well under the steal deadline so a flaky peer
/// cannot wedge a chunk.
fn chunk_retry_delay(attempt: u32) -> Duration {
    Duration::from_millis(10u64 << attempt.min(5))
}

/// One sweep's chunk coordinator: the board every lane claims from, the
/// per-chunk rows, the first kernel failure, and the chunk store.
struct Fanout<'a> {
    shared: &'a Arc<Shared>,
    spec: &'a JobSpec,
    sweep: &'a experiments::SweepKernel,
    progress: &'a Progress,
    board: ChunkBoard,
    results: Mutex<Vec<Option<Vec<Vec<f64>>>>>,
    abort: Mutex<Option<(u16, String)>>,
    store: ResultStore,
    /// How long a dispatched chunk may stay out before another lane
    /// steals it.
    deadline: Duration,
}

impl Fanout<'_> {
    /// The next chunk for a lane, waiting while none is claimable;
    /// `None` once the board is done, the job aborted, or `open` says
    /// the lane has closed.
    fn next_claim(&self, open: impl Fn() -> bool) -> Option<ChunkClaim> {
        loop {
            if self.board.all_done()
                || self.abort.lock().expect("abort poisoned").is_some()
                || !open()
            {
                return None;
            }
            match self.board.claim(Instant::now(), self.deadline) {
                Some(claim) => return Some(claim),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Records a chunk's rows. The first report of each chunk — from the
    /// resume pass or any lane — counts its outcome and adds the chunk's
    /// length to the job's progress; a stolen chunk's late duplicate
    /// changes nothing.
    fn land(&self, index: usize, range: &Range<usize>, rows: Vec<Vec<f64>>, outcome: &str) {
        self.results.lock().expect("results poisoned")[index] = Some(rows);
        if !self.board.complete(index) {
            return;
        }
        self.shared.metrics.chunks_total.with(outcome).inc();
        self.progress.add_done(range.len() as u64);
    }

    /// One peer's dispatch lane: claim a chunk, POST it to the peer,
    /// record the rows. Any failure requeues the chunk with a backoff so
    /// another lane (ultimately the local one) re-runs it.
    fn remote_lane(&self, fleet: &FleetState, peer_index: usize) {
        // A Down peer closes its lane: the board's stealing rule hands
        // any in-flight chunk to someone else, and the background
        // prober brings the peer back for the *next* job.
        while let Some(claim) = self.next_claim(|| fleet.health.is_routable(peer_index)) {
            let requeue = || {
                self.board.requeue(
                    claim.index,
                    Instant::now(),
                    chunk_retry_delay(claim.attempt),
                );
                self.shared.metrics.chunks_total.with("requeued").inc();
            };
            let key = self.sweep.chunk_key(claim.range.start, claim.range.end);
            let body = chunk_request_json(self.spec, self.sweep.fingerprint(), &claim.range);
            match fleet.call_peer(peer_index, |addr| {
                fleet
                    .proxy
                    .post(addr, "/v1/_fleet/chunk", "application/json", &body)
            }) {
                Ok(peer) if peer.status == 200 => match cnt_sweep::json::decode_table(&peer.body) {
                    Ok(table)
                        if table.key == key.hex() && table.rows.len() == claim.range.len() =>
                    {
                        // Persist before reporting done: a coordinator
                        // killed right after this line resumes the
                        // chunk from disk instead of re-fetching it.
                        let _ = self
                            .store
                            .put(&key, table.columns.clone(), table.rows.clone());
                        self.land(claim.index, &claim.range, table.rows, "remote");
                    }
                    // A 200 whose rows we cannot trust (foreign build,
                    // wrong shape): requeue; only the health detector
                    // decides this peer's fate.
                    _ => requeue(),
                },
                Ok(peer) => {
                    requeue();
                    // The peer answered but refused (fingerprint
                    // mismatch, unknown experiment): retrying the same
                    // peer cannot succeed, so the lane closes for this
                    // job. A 503 is the one retryable refusal
                    // (momentary overload).
                    if peer.status != 503 {
                        return;
                    }
                }
                Err(_) => requeue(),
            }
        }
    }

    /// The coordinator's local lane: runs claimed chunks through the
    /// chunk store, so completed work is both crash-durable and never
    /// recomputed after a resume.
    fn local_lane(&self) {
        while let Some(claim) = self.next_claim(|| true) {
            match compute_chunk(&self.store, self.sweep, &claim.range) {
                Ok((table, hit)) => {
                    let outcome = if hit { "resumed" } else { "local" };
                    self.land(claim.index, &claim.range, table.rows, outcome);
                }
                Err(e) => {
                    // Kernel errors are deterministic — re-dispatching
                    // the chunk would fail identically everywhere, so
                    // the whole job aborts.
                    *self.abort.lock().expect("abort poisoned") =
                        Some((500, api::error_json(&e.to_string())));
                    return;
                }
            }
        }
    }
}

/// One chunk's rows through a chunk store
/// ([`ResultStore::get_or_compute`]): recalled when the store holds
/// them, else run and stored. The flag reports a recall.
fn compute_chunk(
    store: &ResultStore,
    sweep: &experiments::SweepKernel,
    range: &Range<usize>,
) -> cnt_sweep::Result<(cnt_sweep::Table, bool)> {
    store.get_or_compute(&sweep.chunk_key(range.start, range.end), || {
        let rows = sweep
            .run_range(range.start, range.end)
            .map_err(|e| cnt_sweep::Error::Job {
                index: range.start,
                message: e.to_string(),
            })?;
        Ok((sweep.columns(), rows))
    })
}

/// The coordinator→worker chunk request body: the job's parameter point
/// plus the job range and the plan fingerprint.
fn chunk_request_json(spec: &JobSpec, fingerprint: u64, range: &Range<usize>) -> String {
    let mut out = String::with_capacity(160);
    out.push('{');
    spec.push_point(&mut out);
    out.push_str(&format!(
        ",\"lo\":{},\"hi\":{},\"fingerprint\":\"{fingerprint:016x}\"}}",
        range.start, range.end
    ));
    out
}

/// A parsed `/v1/_fleet/chunk` request.
struct ChunkRequest {
    /// The parameter point (no job id; the format is unused).
    spec: JobSpec,
    lo: usize,
    hi: usize,
    fingerprint: u64,
}

fn parse_chunk_request(body: &[u8]) -> core::result::Result<ChunkRequest, String> {
    let text = core::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let JsonValue::Object(members) = json::parse(text).map_err(|e| e.to_string())? else {
        return Err("chunk request must be a JSON object".to_string());
    };
    let (mut lo, mut hi, mut fingerprint) = (0, 0, 0);
    let spec = JobSpec::read_point(&members, |name, value| {
        match (name, value) {
            ("lo", JsonValue::Number(raw)) => {
                lo = raw.parse().map_err(|_| format!("bad chunk lo '{raw}'"))?;
            }
            ("hi", JsonValue::Number(raw)) => {
                hi = raw.parse().map_err(|_| format!("bad chunk hi '{raw}'"))?;
            }
            ("fingerprint", JsonValue::String(s)) => {
                fingerprint = u64::from_str_radix(s, 16)
                    .map_err(|_| format!("bad fingerprint '{s}' (want 16 hex chars)"))?;
            }
            (other, _) => return Err(format!("unknown chunk member '{other}'")),
        }
        Ok(())
    })?;
    if spec.experiment.is_empty() {
        return Err("chunk request is missing 'experiment'".to_string());
    }
    Ok(ChunkRequest {
        spec,
        lo,
        hi,
        fingerprint,
    })
}

/// `POST /v1/_fleet/chunk`: run one chunk of a fanned-out sweep and
/// answer its rows as an encoded table. Internal — coordinators call
/// it; it never fans out further. The fingerprint gate rejects a
/// coordinator whose resolved plan differs (version skew), turning
/// silent row corruption into a `409`.
fn fleet_chunk_route(request: &Request, shared: &Arc<Shared>) -> Response {
    let chunk = match parse_chunk_request(&request.body) {
        Ok(chunk) => chunk,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    let point = &chunk.spec;
    let ctx =
        match experiments::resolve_context(&point.experiment, point.preset.as_deref(), &point.sets)
        {
            Ok((_, ctx)) => ctx,
            Err(e) => return Response::json(400, api::error_json(&e.to_string())),
        };
    let sweep = match experiments::chunkable_sweep(&point.experiment, &ctx) {
        Ok(sweep) => sweep,
        Err(e) => return Response::json(400, api::error_json(&e.to_string())),
    };
    if sweep.fingerprint() != chunk.fingerprint {
        return Response::json(
            409,
            api::error_json(&format!(
                "sweep fingerprint mismatch: coordinator {:016x}, this instance {:016x}",
                chunk.fingerprint,
                sweep.fingerprint()
            )),
        );
    }
    if chunk.lo >= chunk.hi || chunk.hi > sweep.jobs() {
        return Response::json(
            400,
            api::error_json(&format!(
                "chunk {}..{} out of range for {} jobs",
                chunk.lo,
                chunk.hi,
                sweep.jobs()
            )),
        );
    }
    // A chunk computes under a permit like a run; its 503 is the
    // coordinator's one retryable refusal.
    let Some(_permit) = shared.gate.try_acquire() else {
        return shared.busy("request queue");
    };
    // The worker's own chunk store: a re-dispatched chunk this instance
    // already ran answers from disk, and a worker that dies mid-chunk
    // leaves nothing to clean up.
    match compute_chunk(&shared.chunk_store(), &sweep, &(chunk.lo..chunk.hi)) {
        Ok((table, _)) => Response::json(200, cnt_sweep::json::encode_table(&table)),
        Err(e) => Response::json(500, api::error_json(&e.to_string())),
    }
}

/// Asks the rest of the fleet for a job this instance does not hold, so
/// any instance can be polled for any job. The status poll rides the
/// fast fill client; the result fetch rides the patient proxy client
/// (bodies can be large, and it carries the chaos injector — result
/// relays are part of the injected fault surface).
fn peer_job_lookup(shared: &Arc<Shared>, rid: &str, result: bool) -> Option<Response> {
    let fleet = shared.fleet.get()?;
    let path = if result {
        format!("/v1/_fleet/jobs/{rid}/result")
    } else {
        format!("/v1/_fleet/jobs/{rid}")
    };
    let client = if result { &fleet.proxy } else { &fleet.fill };
    for index in 0..fleet.config.peers.len() {
        if index == fleet.config.self_index || !fleet.health.is_routable(index) {
            continue;
        }
        let answer = fleet.call_peer(index, |addr| client.get(addr, &path));
        if let Some(peer) = answer.ok().filter(|peer| peer.status != 404) {
            return Some(peer_response(&peer));
        }
    }
    None
}

/// The `GET /v1/jobs/{rid}` body: id, experiment, status, and the live
/// sweep-job progress counters (`done` read first, so a poll never
/// shows it above `total`).
fn job_status_json(job: &cnt_fleet::JobEntry, state: &JobState) -> String {
    format!(
        "{{\"job\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\"done\":{},\"total\":{}}}\n",
        job.id,
        job.sweep_id,
        state.label(),
        job.progress.done(),
        job.progress.total(),
    )
}

/// `GET /v1/jobs/{rid}`: poll an async job's lifecycle and progress.
/// On the public route (`fan_out`) a local miss asks the rest of the
/// fleet before answering 404, so clients may poll any instance.
fn job_status_route(rid: &str, shared: &Arc<Shared>, fan_out: bool) -> Response {
    match shared.jobs.get(rid) {
        Some(job) => Response::json(200, job_status_json(&job, &job.state())),
        None => {
            if fan_out {
                if let Some(relayed) = peer_job_lookup(shared, rid, false) {
                    return relayed;
                }
            }
            Response::json(
                404,
                api::error_json(&format!("no such job '{rid}' (expired or never created)")),
            )
        }
    }
}

/// `GET /v1/jobs/{rid}/result`: the finished body, the failure, or —
/// while the job is still queued/running — `202` + the status body.
/// Spilled bodies stream from disk in chunks instead of being loaded
/// whole; the public route relays fleet-wide like the status poll.
fn job_result_route(rid: &str, shared: &Arc<Shared>, fan_out: bool) -> Response {
    let Some(job) = shared.jobs.get(rid) else {
        if fan_out {
            if let Some(relayed) = peer_job_lookup(shared, rid, true) {
                return relayed;
            }
        }
        return Response::json(
            404,
            api::error_json(&format!("no such job '{rid}' (expired or never created)")),
        );
    };
    match job.state() {
        JobState::Done {
            content_type, body, ..
        } => match body {
            JobBody::Inline(text) => Response {
                content_type: static_content_type(&content_type),
                ..Response::json(200, text)
            },
            JobBody::Spilled { path, bytes } => {
                Response::file(static_content_type(&content_type), path, bytes)
            }
        },
        JobState::Failed { status, body, .. } => Response::json(status, body),
        state @ (JobState::Queued | JobState::Running) => {
            Response::json(202, job_status_json(&job, &state))
        }
    }
}

// ---------------------------------------------------------------------
// Job journal records and crash recovery
// ---------------------------------------------------------------------

/// The journal record written before a job's `202` leaves: everything
/// needed to re-run the job from scratch.
fn submitted_record(spec: &JobSpec) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"event\":\"submitted\",\"job\":");
    json::push_string(&spec.rid, &mut out);
    out.push(',');
    spec.push_point(&mut out);
    out.push_str(&format!(",\"format\":\"{}\"}}", spec.format));
    out
}

/// Terminal success record: where the spilled body lives, so a restart
/// re-serves the result without rerunning the sweep.
fn job_done_record(rid: &str, content_type: &str, path: &Path, bytes: u64) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"event\":\"job_done\",\"job\":");
    json::push_string(rid, &mut out);
    out.push_str(",\"content_type\":");
    json::push_string(content_type, &mut out);
    out.push_str(",\"path\":");
    json::push_string(&path.to_string_lossy(), &mut out);
    out.push_str(&format!(",\"bytes\":{bytes}}}"));
    out
}

/// Terminal failure record: the status and body the job table held.
fn job_failed_record(rid: &str, status: u16, body: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"event\":\"job_failed\",\"job\":");
    json::push_string(rid, &mut out);
    out.push_str(&format!(",\"status\":{status},\"body\":"));
    json::push_string(body, &mut out);
    out.push('}');
    out
}

/// How a recovered job ended, if it did.
#[derive(Debug, Clone, PartialEq)]
enum RecoveredOutcome {
    Done {
        content_type: String,
        path: PathBuf,
        bytes: u64,
    },
    Failed {
        status: u16,
        body: String,
    },
}

/// One job folded out of the journal: its submission spec plus the
/// terminal record, when one was reached before the crash.
#[derive(Debug, Clone, PartialEq)]
struct RecoveredJob {
    spec: JobSpec,
    outcome: Option<RecoveredOutcome>,
}

impl RecoveredJob {
    /// The outcome, demoted to "unfinished" when it points at a spill
    /// file that no longer exists — the result cannot be served, so the
    /// job re-runs instead of answering 200 with an empty body.
    fn usable_outcome(&self) -> Option<&RecoveredOutcome> {
        match &self.outcome {
            Some(RecoveredOutcome::Done { path, .. }) if !path.exists() => None,
            other => other.as_ref(),
        }
    }
}

/// Folds raw journal records into per-job state, submission order.
/// Records that do not parse, reference unknown jobs, or carry unknown
/// events are skipped — the journal is truncation-tolerant end to end.
fn fold_journal(records: &[String]) -> Vec<RecoveredJob> {
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    let mut by_rid: HashMap<String, usize> = HashMap::new();
    for record in records {
        let Ok(doc) = json::parse(record) else {
            continue;
        };
        let text = |name: &str| doc.get(name).and_then(JsonValue::as_str);
        let (Some(event), Some(rid)) = (text("event"), text("job")) else {
            continue;
        };
        match event {
            "submitted" => {
                let JsonValue::Object(members) = &doc else {
                    continue;
                };
                // A malformed point (say, a broken `sets` pair) would
                // re-run the job somewhere else: skip the record.
                let Ok(mut spec) = JobSpec::read_point(members, |_, _| Ok(())) else {
                    continue;
                };
                if spec.experiment.is_empty() || by_rid.contains_key(rid) {
                    continue;
                }
                // Older builds took the executor width and a cache
                // directory as parameters, and their sweep bodies often
                // sent `"cache_dir": ""`. Neither sets a sweep's bytes, and
                // the current gate refuses both keys, so drop them rather
                // than fail the recovered job.
                spec.sets
                    .retain(|(key, _)| key != "threads" && key != "cache_dir");
                spec.rid = rid.to_string();
                spec.format = match text("format") {
                    Some("csv") => OutputFormat::Csv,
                    Some("text") => OutputFormat::Text,
                    _ => OutputFormat::Json,
                };
                by_rid.insert(rid.to_string(), jobs.len());
                jobs.push(RecoveredJob {
                    spec,
                    outcome: None,
                });
            }
            "job_done" => {
                let (Some(index), Some(content_type), Some(path)) =
                    (by_rid.get(rid), text("content_type"), text("path"))
                else {
                    continue;
                };
                let bytes = match doc.get("bytes") {
                    Some(JsonValue::Number(raw)) => raw.parse().unwrap_or(0),
                    _ => 0,
                };
                jobs[*index].outcome = Some(RecoveredOutcome::Done {
                    content_type: content_type.to_string(),
                    path: PathBuf::from(path),
                    bytes,
                });
            }
            "job_failed" => {
                let (Some(index), Some(body)) = (by_rid.get(rid), text("body")) else {
                    continue;
                };
                let status = match doc.get("status") {
                    Some(JsonValue::Number(raw)) => raw.parse().unwrap_or(500),
                    _ => 500,
                };
                jobs[*index].outcome = Some(RecoveredOutcome::Failed {
                    status,
                    body: body.to_string(),
                });
            }
            // Older builds' chunk_done progress markers and anything
            // newer: not state.
            _ => {}
        }
    }
    jobs
}

/// The compacted journal for a recovered state: one submission record
/// per job plus its terminal record when one is still usable. Replaces
/// the replayed log on startup, so the journal stays proportional to
/// the job table rather than to history.
fn compact_records(jobs: &[RecoveredJob]) -> Vec<String> {
    let mut records = Vec::with_capacity(jobs.len() * 2);
    for job in jobs {
        records.push(submitted_record(&job.spec));
        match job.usable_outcome() {
            Some(RecoveredOutcome::Done {
                content_type,
                path,
                bytes,
            }) => records.push(job_done_record(&job.spec.rid, content_type, path, *bytes)),
            Some(RecoveredOutcome::Failed { status, body }) => {
                records.push(job_failed_record(&job.spec.rid, *status, body));
            }
            None => {}
        }
    }
    records
}

/// Reinstates one journal-recovered job: finished jobs re-enter the
/// table in their terminal state (results served straight from the
/// spill), unfinished ones — whether they died `Queued` or `Running` —
/// re-run from the top, with completed chunks answered by the chunk
/// store instead of recomputed.
fn apply_recovered_job(shared: &Arc<Shared>, recovered: RecoveredJob) {
    let Ok(job) = shared
        .jobs
        .create(&recovered.spec.rid, &recovered.spec.experiment)
    else {
        return; // table full — newest submissions win
    };
    shared.metrics.journal_replayed.inc();
    match recovered.usable_outcome() {
        Some(RecoveredOutcome::Done {
            content_type,
            path,
            bytes,
        }) => {
            // The journal records no job count, but the spec derives it
            // deterministically: the finished job reads done == total.
            let spec = &recovered.spec;
            let jobs =
                experiments::resolve_context(&spec.experiment, spec.preset.as_deref(), &spec.sets)
                    .and_then(|(_, ctx)| experiments::chunkable_sweep(&spec.experiment, &ctx))
                    .map_or(0, |sweep| sweep.jobs() as u64);
            job.progress.set_total(jobs);
            job.progress.add_done(jobs);
            job.complete_spilled(static_content_type(content_type), path.clone(), *bytes);
        }
        Some(RecoveredOutcome::Failed { status, body }) => {
            job.fail(*status, body.clone());
        }
        None => {
            shared.metrics.jobs_total.with("queued").inc();
            let job_ctx = TraceContext::root(shared.mint_id(), shared.mint_id());
            if spawn_sweep_job(shared, job, recovered.spec.clone(), job_ctx).is_err() {
                shared.jobs.remove(&recovered.spec.rid);
            }
        }
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
            None,
        )
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

    fn spec(rid: &str) -> JobSpec {
        JobSpec {
            rid: rid.to_string(),
            experiment: "fig12".to_string(),
            preset: Some("small".to_string()),
            sets: vec![("trials".to_string(), "100".to_string())],
            format: OutputFormat::Csv,
        }
    }

    #[test]
    fn journal_fold_round_trips_specs_and_outcomes() {
        // A submission record folds back into the exact spec that wrote
        // it — preset, sets, and format all survive the JSON hop.
        let jobs = fold_journal(&[submitted_record(&spec("00aa-000001"))]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec, spec("00aa-000001"));
        assert_eq!(jobs[0].outcome, None);

        // A terminal failure record attaches to its job by rid.
        let jobs = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            job_failed_record("00aa-000001", 500, "{\"error\":\"boom\"}"),
        ]);
        assert_eq!(
            jobs[0].outcome,
            Some(RecoveredOutcome::Failed {
                status: 500,
                body: "{\"error\":\"boom\"}".to_string()
            })
        );

        // A done record whose spill file exists is a usable outcome…
        let dir = std::env::temp_dir().join(format!("cnt-fold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("00aa-000001.body");
        std::fs::write(&spill, b"result bytes").unwrap();
        let jobs = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            job_done_record("00aa-000001", "text/csv", &spill, 12),
        ]);
        assert!(matches!(
            jobs[0].usable_outcome(),
            Some(RecoveredOutcome::Done { bytes: 12, .. })
        ));
        // …and one whose spill vanished demotes to "re-run the job".
        std::fs::remove_file(&spill).unwrap();
        assert_eq!(jobs[0].usable_outcome(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fold_skips_garbage_and_unknown_records() {
        let jobs = fold_journal(&[
            "not json at all".to_string(),
            "{\"event\":\"job_done\",\"job\":\"never-submitted\"}".to_string(),
            "{\"event\":\"from_the_future\",\"job\":\"x\"}".to_string(),
            submitted_record(&spec("00aa-000002")),
            // A malformed set would re-run the job at another parameter
            // point: the whole submission is skipped instead.
            "{\"event\":\"submitted\",\"job\":\"00aa-000003\",\"experiment\":\"fig12\",\
             \"sets\":[[\"trials\",\"100\"],[\"nc\"]],\"format\":\"json\"}"
                .to_string(),
            "{\"event\":\"submitted\",\"job\":\"00aa-000004\",\"experiment\":\"fig12\",\
             \"sets\":[[\"trials\",100]],\"format\":\"json\"}"
                .to_string(),
            // An older build's chunk_done progress marker: folded state
            // ignores it.
            "{\"event\":\"chunk_done\",\"job\":\"00aa-000002\",\"chunk\":0,\"lo\":0,\"hi\":5}"
                .to_string(),
        ]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec.rid, "00aa-000002");
        assert_eq!(jobs[0].outcome, None);
    }

    #[test]
    fn journal_fold_drops_the_retired_execution_keys() {
        // Older builds took the executor width and a cache directory as
        // parameters, and their sweep bodies sent `"cache_dir": ""`; this
        // is such a submission, then its terminal record.
        let rid = "00feed-000001";
        let jobs = fold_journal(&[
            format!(
                "{{\"event\":\"submitted\",\"job\":\"{rid}\",\"experiment\":\"fig12\",\
                 \"sets\":[[\"trials\",\"48\"],[\"cache_dir\",\"\"]],\"format\":\"json\"}}"
            ),
            job_done_record(rid, "application/json", Path::new("jobs/x.body"), 9),
            "{\"event\":\"submitted\",\"job\":\"00feed-000002\",\"experiment\":\"fig12\",\
             \"sets\":[[\"threads\",\"4\"],[\"seed\",\"7\"]],\"format\":\"json\"}"
                .to_string(),
        ]);
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].spec.sets,
            [("trials".to_string(), "48".to_string())]
        );
        assert!(matches!(
            jobs[0].outcome,
            Some(RecoveredOutcome::Done { bytes: 9, .. })
        ));
        assert_eq!(jobs[1].spec.sets, [("seed".to_string(), "7".to_string())]);
        // What is left resolves at today's gate, so a recovered job
        // re-runs (or derives its job count) instead of failing.
        for job in &jobs {
            let (_, ctx) = experiments::resolve_context("fig12", None, &job.spec.sets).unwrap();
            assert!(experiments::chunkable_sweep("fig12", &ctx).is_ok());
        }
    }

    #[test]
    fn journal_compaction_is_idempotent_across_replays() {
        // Recovery compacts the journal it replays; replaying the
        // compacted journal must reach the same state and compact to
        // the same bytes — the double-crash case.
        let records = vec![
            submitted_record(&spec("00aa-000001")),
            submitted_record(&spec("00aa-000002")),
            job_failed_record("00aa-000001", 503, "{\"error\":\"shed\"}"),
        ];
        let once = compact_records(&fold_journal(&records));
        let twice = compact_records(&fold_journal(&once));
        assert_eq!(once, twice);
        // Both jobs survive: one terminal, one unfinished.
        let jobs = fold_journal(&once);
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].outcome.is_some());
        assert!(jobs[1].outcome.is_none());
    }

    #[test]
    fn journal_recovery_reruns_queued_and_running_alike() {
        // The journal does not distinguish Queued from Running — both
        // died without a terminal record, so both fold to "unfinished"
        // and re-run. A submitted record followed by an older build's
        // chunk progress marker (Running) folds identically to a bare
        // submission (Queued).
        let queued = fold_journal(&[submitted_record(&spec("00aa-000001"))]);
        let running = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            "{\"event\":\"chunk_done\",\"job\":\"00aa-000001\",\"chunk\":0,\"lo\":0,\"hi\":5}"
                .to_string(),
        ]);
        assert_eq!(queued, running);
        assert_eq!(queued[0].usable_outcome(), None);
    }

    #[test]
    fn job_spec_records_keep_their_bytes() {
        // Both documents carrying a job's parameter point, pinned
        // byte for byte: journals written by older builds must replay,
        // and mixed-version fleets must agree on chunk requests.
        assert_eq!(
            submitted_record(&spec("00aa-000001")),
            "{\"event\":\"submitted\",\"job\":\"00aa-000001\",\"experiment\":\"fig12\",\
             \"preset\":\"small\",\"sets\":[[\"trials\",\"100\"]],\"format\":\"csv\"}"
        );
        assert_eq!(
            chunk_request_json(&spec("00aa-000001"), 0xdead_beef_1234_5678, &(10..20)),
            "{\"experiment\":\"fig12\",\"preset\":\"small\",\"sets\":[[\"trials\",\"100\"]],\
             \"lo\":10,\"hi\":20,\"fingerprint\":\"deadbeef12345678\"}"
        );
    }

    #[test]
    fn chunk_request_json_round_trips() {
        let body = chunk_request_json(&spec("00aa-000001"), 0xdead_beef_1234_5678, &(10..20));
        let parsed = parse_chunk_request(body.as_bytes()).unwrap();
        assert_eq!(parsed.spec.experiment, "fig12");
        assert_eq!(parsed.spec.preset.as_deref(), Some("small"));
        assert_eq!(parsed.spec.sets, spec("x").sets);
        assert_eq!((parsed.lo, parsed.hi), (10, 20));
        assert_eq!(parsed.fingerprint, 0xdead_beef_1234_5678);

        assert!(parse_chunk_request(b"{}").is_err(), "missing experiment");
        assert!(parse_chunk_request(b"not json").is_err());
        assert!(
            parse_chunk_request(b"{\"experiment\":\"fig12\",\"fingerprint\":\"zz\"}").is_err(),
            "bad fingerprint hex"
        );
    }
}
