//! Async sweep jobs and the chunk coordinator: the job routes, the job
//! thread, [`Fanout`] and its dispatch lanes, and the chunk route that
//! runs one chunk for a peer's coordinator. What a job leaves on disk
//! is [`cnt_fleet::JobTable`]'s business; this module only calls its
//! transitions.

use super::routing::{peer_job_lookup, FleetState};
use super::{render_report, retry_after_hint, static_content_type, RequestScope, Shared};
use crate::api;
use crate::http::{Request, Response};
use cnt_fleet::jobs::{self, Progress};
use cnt_fleet::{ChunkBoard, ChunkClaim, JobEntry, JobSpec, JobState};
use cnt_interconnect::experiments::{self, SweepKernel};
use cnt_obs::TraceContext;
use cnt_sweep::{chunk_ranges, ResultStore};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Takes a job's parameter point to its sweep kernel, through the same
/// gate as `repro sweep`: overrides resolve through the typed params,
/// and the id must have a sweep variant that honours every knob set.
fn sweep_kernel(spec: &JobSpec) -> cnt_interconnect::Result<SweepKernel> {
    experiments::resolve_context(&spec.experiment, spec.preset.as_deref(), &spec.sets)
        .and_then(|(_, ctx)| experiments::chunkable_sweep(&spec.experiment, &ctx))
}

/// `POST /v1/sweeps/{id}`: validate, submit the job (which journals it),
/// start the job's thread, answer `202` + the job id immediately.
pub(super) fn sweep_job_route(
    id: &str,
    request: &Request,
    scope: &RequestScope,
    shared: &Arc<Shared>,
) -> Response {
    let run_request = match api::parse_run_request(&request.body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    // Same gates as the kernel build, which waits for the job's thread
    // to hold a compute permit: a queued job holds no plan.
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
    let spec = JobSpec {
        rid: rid.clone(),
        experiment: id.to_string(),
        preset: run_request.preset,
        sets: run_request.sets,
        format: run_request.format.to_string(),
    };
    let Ok(job) = shared.jobs.submit(spec) else {
        return Response {
            retry_after: Some(retry_after_hint(
                shared.jobs.pending(),
                shared.gate.permits(),
            )),
            ..Response::json(503, api::busy_json("job table"))
        };
    };
    // The job runs on its own thread after this request already
    // answered 202 — it records its *own* trace record as a child of
    // this request's span, so `GET /v1/trace/{id}` shows the async work
    // hanging off the ingress hop that queued it.
    let job_ctx = scope.trace.child_of(shared.mint_id());
    if spawn_sweep_job(shared, &job, job_ctx).is_err() {
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

/// Takes up the jobs [`cnt_fleet::JobTable::open`] re-admitted. An
/// unfinished one re-runs from the top: its completed chunks recall
/// from the chunk store instead of recomputing. A finished one reads
/// done == total: the journal holds no job count, but the spec derives
/// it deterministically.
pub(super) fn resume_jobs(shared: &Arc<Shared>, recovered: Vec<Arc<JobEntry>>) {
    for job in recovered {
        match job.state() {
            JobState::Queued => {
                let job_ctx = TraceContext::root(shared.mint_id(), shared.mint_id());
                let _ = spawn_sweep_job(shared, &job, job_ctx);
            }
            JobState::Done { .. } => {
                let jobs = sweep_kernel(&job.spec).map_or(0, |sweep| sweep.jobs() as u64);
                job.progress.set_total(jobs);
                job.progress.add_done(jobs);
            }
            _ => {}
        }
    }
}

/// Starts one accepted sweep job on a thread of its own, which waits in
/// the compute gate's line for a permit: the job table already admitted
/// the job, so it never sheds there. The job runs through the chunk
/// coordinator, and its outcome — a kernel error and a panic alike —
/// settles in the job table. When the thread cannot start, the job is
/// withdrawn, so it cannot sit `queued` forever, and the error returned.
fn spawn_sweep_job(
    shared: &Arc<Shared>,
    job: &Arc<JobEntry>,
    job_ctx: TraceContext,
) -> std::io::Result<()> {
    shared.metrics.jobs_total.with("queued").inc();
    let slot = shared
        .job_threads
        .enter()
        .expect("job threads have no cap of their own");
    let (worker_shared, worker_job) = (Arc::clone(shared), Arc::clone(job));
    let task = move || {
        let (shared, job) = (worker_shared, worker_job);
        let _slot = slot;
        let _permit = shared.gate.acquire();
        job.mark_running();
        shared.metrics.jobs_total.with("running").inc();
        let started = Instant::now();
        cnt_obs::Trace::begin();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = cnt_obs::span!("serve.job");
            fanout_sweep(&shared, &job.spec, &job.progress)
        }))
        .unwrap_or_else(|_| {
            let message = format!("sweep '{}' panicked during execution", job.spec.experiment);
            Err((500, api::error_json(&message)))
        });
        let roots = cnt_obs::Trace::end();
        let (name, rid) = (format!("job {}", job.spec.experiment), job.spec.rid.clone());
        shared.record_trace(&job_ctx, name, rid, started, 0, roots);
        let status = match outcome {
            Ok((content_type, body)) => {
                shared.jobs.finish(&job, content_type, body);
                "done"
            }
            Err((status, body)) => {
                shared.jobs.fail(&job, status, body);
                "failed"
            }
        };
        shared.metrics.jobs_total.with(status).inc();
        shared
            .metrics
            .jobs_pending
            .set(shared.jobs.pending() as f64);
    };
    let spawned = std::thread::Builder::new()
        .name("cnt-serve-job".to_string())
        .spawn(task);
    if spawned.is_err() {
        shared
            .jobs
            .withdraw(job, 503, api::busy_json("request queue"));
    }
    spawned.map(drop)
}

/// Builds a job's sweep kernel (under the caller's compute permit) and
/// runs it as chunks: a deterministic chunk split, chunk-level crash
/// resume through the kernel's chunk store, one dispatch lane per fleet
/// peer with re-dispatch on failure, and the local lane as the lane of
/// last resort. Per-job rows concatenate in global index order
/// into the same [`SweepKernel::finish`] reduce `repro sweep` uses, so
/// the merged report is byte-identical by construction.
///
/// The coordinator also owns the job's progress: `total` is the sweep's
/// job count from the start, and every chunk adds its length to `done`
/// exactly once, whichever lane lands it.
fn fanout_sweep(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    progress: &Progress,
) -> Result<(&'static str, String), (u16, String)> {
    let sweep = &sweep_kernel(spec).map_err(|e| (400, api::error_json(&e.to_string())))?;
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
        store: shared.jobs.chunk_store(),
        deadline: fleet.map_or(Duration::from_secs(1), |f| {
            f.config.proxy_timeout.max(Duration::from_secs(1))
        }),
    };

    // Resume pass, the job's one lookup per chunk: chunks a previous
    // life of this coordinator (or an earlier job at the same point)
    // finished recall from the store — counted as sweep cache hits, the
    // signal the restart e2e asserts on — and are never dispatched.
    for (index, range) in ranges.iter().enumerate() {
        if let Some(rows) = sweep.recall_chunk(fanout.store.as_ref(), range) {
            fanout.land(index, range, rows, "resumed");
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
        Ok(run) => Ok(render_report(
            &run.report,
            spec.format.parse().unwrap_or_default(),
        )),
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
/// per-chunk rows, the first kernel failure, and the chunk store (none
/// without a data dir).
struct Fanout<'a> {
    shared: &'a Arc<Shared>,
    spec: &'a JobSpec,
    sweep: &'a SweepKernel,
    progress: &'a Progress,
    board: ChunkBoard,
    results: Mutex<Vec<Option<Vec<Vec<f64>>>>>,
    abort: Mutex<Option<(u16, String)>>,
    store: Option<ResultStore>,
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
            let body = jobs::chunk_request_json(self.spec, self.sweep.fingerprint(), &claim.range);
            match fleet.call_peer(peer_index, |addr| {
                fleet
                    .proxy
                    .post(addr, "/v1/_fleet/chunk", "application/json", &body)
            }) {
                // The kernel checks the body and persists it before the
                // chunk reports done: a coordinator killed right after
                // this resumes the chunk from disk instead of re-fetching
                // it. A body it refuses (foreign build, wrong shape)
                // requeues; only the health detector decides this peer's
                // fate.
                Ok(peer) if peer.status == 200 => {
                    match self
                        .sweep
                        .accept_chunk(self.store.as_ref(), &claim.range, &peer.body)
                    {
                        Ok(rows) => self.land(claim.index, &claim.range, rows, "remote"),
                        Err(_) => requeue(),
                    }
                }
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

    /// The coordinator's local lane: runs claimed chunks and keeps each
    /// in the chunk store, so completed work is crash-durable. The
    /// resume pass already looked every chunk up.
    fn local_lane(&self) {
        while let Some(claim) = self.next_claim(|| true) {
            match self.sweep.run_chunk(self.store.as_ref(), &claim.range) {
                Ok(rows) => self.land(claim.index, &claim.range, rows, "local"),
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

/// `POST /v1/_fleet/chunk`: run one chunk of a fanned-out sweep and
/// answer its rows as an encoded table. Internal — coordinators call
/// it; it never fans out further. The fingerprint gate rejects a
/// coordinator whose resolved plan differs (version skew), turning
/// silent row corruption into a `409`.
pub(super) fn fleet_chunk_route(request: &Request, shared: &Arc<Shared>) -> Response {
    let chunk = match jobs::parse_chunk_request(&request.body) {
        Ok(chunk) => chunk,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    let sweep = match sweep_kernel(&chunk.spec) {
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
    // The worker's own chunk store, when it has a data dir: a
    // re-dispatched chunk this instance already ran answers from disk,
    // and a worker that dies mid-chunk leaves nothing to clean up.
    let (store, range) = (shared.jobs.chunk_store(), chunk.lo..chunk.hi);
    let rows = match sweep.recall_chunk(store.as_ref(), &range) {
        Some(rows) => Ok(rows),
        None => sweep.run_chunk(store.as_ref(), &range),
    };
    match rows {
        Ok(rows) => Response::json(200, sweep.encode_chunk(&range, rows)),
        Err(e) => Response::json(500, api::error_json(&e.to_string())),
    }
}

/// The `GET /v1/jobs/{rid}` body: id, experiment, status, and the live
/// sweep-job progress counters (`done` read first, so a poll never
/// shows it above `total`).
fn job_status_json(job: &JobEntry, state: &JobState) -> String {
    format!(
        "{{\"job\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\"done\":{},\"total\":{}}}\n",
        job.spec.rid,
        job.spec.experiment,
        state.label(),
        job.progress.done(),
        job.progress.total(),
    )
}

/// `GET /v1/jobs/{rid}` and `GET /v1/jobs/{rid}/result`: the job's
/// status, or its finished body, its failure, or — while it is still
/// queued or running — `202` + the status body. A job this instance
/// does not hold is asked of the rest of the fleet on the public routes
/// (`fan_out`), so clients may poll any instance; the answer is `404`
/// when nobody holds it.
pub(super) fn job_route(rid: &str, shared: &Arc<Shared>, fan_out: bool, result: bool) -> Response {
    let Some(job) = shared.jobs.get(rid) else {
        return fan_out
            .then(|| peer_job_lookup(shared, rid, result))
            .flatten()
            .unwrap_or_else(|| {
                Response::json(
                    404,
                    api::error_json(&format!("no such job '{rid}' (expired or never created)")),
                )
            });
    };
    match job.state() {
        state if !result => Response::json(200, job_status_json(&job, &state)),
        JobState::Done {
            content_type, body, ..
        } => Response {
            content_type: static_content_type(&content_type),
            ..Response::json(200, body)
        },
        JobState::Failed { status, body, .. } => Response::json(status, body),
        state @ (JobState::Queued | JobState::Running) => {
            Response::json(202, job_status_json(&job, &state))
        }
    }
}
