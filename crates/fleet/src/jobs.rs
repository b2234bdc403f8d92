//! A bounded, TTL-garbage-collected table of asynchronous sweep jobs.
//!
//! `POST /v1/sweeps/{id}` must return immediately, so the serve layer
//! runs the work on a thread of its own and records a [`JobEntry`] here
//! for the client to poll. The table is deliberately dumb shared state —
//! a mutexed map of `Arc` entries — because the interesting lifecycle
//! lives *in* the entry: the HTTP thread creates it `Queued`, the job's
//! thread flips it `Running` once it holds a compute permit and
//! eventually `Done`/`Failed`, and any number of poll requests read it
//! concurrently through its [`Progress`] counters and the state mutex.
//!
//! Two guards keep a long-lived server healthy:
//!
//! * **Bounded admission** — [`JobTable::create`] refuses new jobs once
//!   `capacity` entries exist (after a GC pass), turning runaway
//!   submission into an explicit `503 + Retry-After` shed upstream.
//! * **TTL GC** — finished jobs older than `ttl` are dropped on the next
//!   create or explicit [`JobTable::gc`], so results are pollable for a
//!   grace window but never accumulate forever.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A job's sweep progress, `done / total` in sweep jobs (the units
/// `cnt_sweep::chunk_ranges` splits). Observation only: the sweep
/// coordinator sets `total` when it opens the sweep and adds each chunk's
/// length to `done` as the chunk lands, so polls never touch the
/// deterministic result path.
///
/// `total` is set before any `done` is added, and [`Progress::add_done`]
/// releases what [`Progress::done`] acquires: a reader that loads `done`
/// first and `total` second never sees more done than total.
#[derive(Debug, Default)]
pub struct Progress {
    done: AtomicU64,
    total: AtomicU64,
}

impl Progress {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announces the job's sweep size.
    pub fn set_total(&self, n: u64) {
        self.total.store(n, Ordering::Relaxed);
    }

    /// Records `n` more finished sweep jobs.
    pub fn add_done(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Release);
    }

    /// Sweep jobs finished so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Acquire)
    }

    /// Sweep jobs in the whole run (0 until the coordinator opens it).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Where a finished job's result bytes live.
///
/// Small bodies stay `Inline`; servers running with a data directory
/// spill sweep reports to disk and keep only the path + size here, so a
/// multi-MB report costs the job table a few dozen bytes and the result
/// route can stream it chunk-by-chunk with bounded memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobBody {
    /// The whole rendered body, held in memory.
    Inline(String),
    /// The body lives in a spill file; only its location and size are
    /// table-resident.
    Spilled {
        /// Spill file holding the rendered bytes.
        path: PathBuf,
        /// Exact byte length of the spill file (the Content-Length the
        /// result route advertises).
        bytes: u64,
    },
}

impl JobBody {
    /// Byte length of the result, wherever it lives.
    pub fn len(&self) -> u64 {
        match self {
            JobBody::Inline(body) => body.len() as u64,
            JobBody::Spilled { bytes, .. } => *bytes,
        }
    }

    /// Whether the result is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where a job is in its life, plus the terminal payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a compute permit.
    Queued,
    /// The job's thread holds a compute permit and executes the sweep.
    Running,
    /// Finished successfully; the body is the rendered report.
    Done {
        /// Content type of the stored body.
        content_type: String,
        /// Rendered response body (inline or disk-spilled), byte-identical
        /// to the synchronous endpoint's.
        body: JobBody,
        /// When the job finished (drives TTL GC).
        finished: Instant,
    },
    /// Finished unsuccessfully; the body is the rendered error JSON.
    Failed {
        /// HTTP status the error maps to.
        status: u16,
        /// Rendered error body.
        body: String,
        /// When the job failed (drives TTL GC).
        finished: Instant,
    },
}

impl JobState {
    /// The wire name polled via `GET /v1/jobs/{rid}`.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }

    fn finished_at(&self) -> Option<Instant> {
        match self {
            JobState::Done { finished, .. } | JobState::Failed { finished, .. } => Some(*finished),
            _ => None,
        }
    }
}

/// One asynchronous sweep job, shared between the HTTP threads and the
/// job thread executing it.
#[derive(Debug)]
pub struct JobEntry {
    /// Job id (the request id of the submitting `POST`).
    pub id: String,
    /// Experiment the sweep runs.
    pub sweep_id: String,
    /// Live sweep-job counters, advanced chunk by chunk by the sweep
    /// coordinator.
    pub progress: Progress,
    state: Mutex<JobState>,
}

impl JobEntry {
    /// A snapshot of the current state (clones terminal payloads).
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job state poisoned").clone()
    }

    /// Marks the job picked up by a worker.
    pub fn mark_running(&self) {
        *self.state.lock().expect("job state poisoned") = JobState::Running;
    }

    /// Stores the finished body inline and flips the job `Done`.
    pub fn complete(&self, content_type: &str, body: String) {
        *self.state.lock().expect("job state poisoned") = JobState::Done {
            content_type: content_type.to_string(),
            body: JobBody::Inline(body),
            finished: Instant::now(),
        };
    }

    /// Records a disk-spilled result and flips the job `Done`. The caller
    /// has already written `bytes` bytes to `path`; the table keeps only
    /// the location, so the result route streams from disk.
    pub fn complete_spilled(&self, content_type: &str, path: PathBuf, bytes: u64) {
        *self.state.lock().expect("job state poisoned") = JobState::Done {
            content_type: content_type.to_string(),
            body: JobBody::Spilled { path, bytes },
            finished: Instant::now(),
        };
    }

    /// Stores the error body and flips the job `Failed`.
    pub fn fail(&self, status: u16, body: String) {
        *self.state.lock().expect("job state poisoned") = JobState::Failed {
            status,
            body,
            finished: Instant::now(),
        };
    }
}

/// The server-wide registry of async jobs.
#[derive(Debug)]
pub struct JobTable {
    capacity: usize,
    ttl: Duration,
    jobs: Mutex<HashMap<String, Arc<JobEntry>>>,
}

impl JobTable {
    /// A table admitting at most `capacity` live jobs, keeping finished
    /// ones pollable for `ttl` after completion.
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        Self {
            capacity,
            ttl,
            jobs: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a new `Queued` job under `id`.
    ///
    /// Runs a GC pass first so expired results never count against the
    /// ceiling.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when the table is full — the caller sheds with
    /// `503 + Retry-After`, mirroring the worker-queue shed.
    #[allow(clippy::result_unit_err)]
    pub fn create(&self, id: &str, sweep_id: &str) -> Result<Arc<JobEntry>, ()> {
        let now = Instant::now();
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        Self::collect(&mut jobs, self.ttl, now);
        if jobs.len() >= self.capacity {
            return Err(());
        }
        let entry = Arc::new(JobEntry {
            id: id.to_string(),
            sweep_id: sweep_id.to_string(),
            progress: Progress::new(),
            state: Mutex::new(JobState::Queued),
        });
        jobs.insert(id.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.jobs
            .lock()
            .expect("job table poisoned")
            .get(id)
            .cloned()
    }

    /// Withdraws a job (the submit-bounced path: a job whose thread never
    /// started must not linger `Queued` forever).
    pub fn remove(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.jobs.lock().expect("job table poisoned").remove(id)
    }

    /// Drops finished jobs whose TTL expired; returns how many went.
    pub fn gc(&self) -> usize {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        Self::collect(&mut jobs, self.ttl, Instant::now())
    }

    /// Jobs currently queued or running (the live-depth gauge).
    pub fn pending(&self) -> usize {
        self.jobs
            .lock()
            .expect("job table poisoned")
            .values()
            .filter(|entry| {
                matches!(
                    *entry.state.lock().expect("job state poisoned"),
                    JobState::Queued | JobState::Running
                )
            })
            .count()
    }

    /// All entries, finished or not.
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("job table poisoned").len()
    }

    /// Whether the table holds no jobs at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn collect(jobs: &mut HashMap<String, Arc<JobEntry>>, ttl: Duration, now: Instant) -> usize {
        let before = jobs.len();
        jobs.retain(|_, entry| {
            match entry
                .state
                .lock()
                .expect("job state poisoned")
                .finished_at()
            {
                Some(finished) => now.duration_since(finished) < ttl,
                None => true, // queued/running jobs never expire
            }
        });
        before - jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let p = Progress::new();
        p.set_total(15);
        p.add_done(2);
        p.add_done(3);
        assert_eq!((p.done(), p.total()), (5, 15));
        p.set_total(15);
        assert_eq!(p.total(), 15, "a repeated announcement does not add up");
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = JobTable::new(4, Duration::from_secs(600));
        let job = table.create("j1", "fig12").unwrap();
        assert_eq!(job.state().label(), "queued");
        assert_eq!(table.pending(), 1);

        job.mark_running();
        assert_eq!(job.state().label(), "running");
        job.progress.set_total(10);
        job.progress.add_done(4);
        assert_eq!((job.progress.done(), job.progress.total()), (4, 10));

        job.complete("application/json", "{\"ok\":true}\n".to_string());
        let polled = table.get("j1").unwrap();
        match polled.state() {
            JobState::Done {
                content_type, body, ..
            } => {
                assert_eq!(content_type, "application/json");
                assert_eq!(body, JobBody::Inline("{\"ok\":true}\n".to_string()));
                assert_eq!(body.len(), 12);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(table.pending(), 0, "done jobs are not pending");
        assert_eq!(table.len(), 1, "done jobs stay pollable inside the TTL");
    }

    #[test]
    fn spilled_results_keep_only_the_location() {
        let table = JobTable::new(4, Duration::from_secs(600));
        let job = table.create("j1", "fig12").unwrap();
        job.complete_spilled("text/csv", PathBuf::from("/tmp/jobs/j1.body"), 4096);
        match table.get("j1").unwrap().state() {
            JobState::Done {
                content_type, body, ..
            } => {
                assert_eq!(content_type, "text/csv");
                assert_eq!(body.len(), 4096);
                assert!(!body.is_empty());
                match body {
                    JobBody::Spilled { path, bytes } => {
                        assert_eq!(path, PathBuf::from("/tmp/jobs/j1.body"));
                        assert_eq!(bytes, 4096);
                    }
                    other => panic!("expected Spilled, got {other:?}"),
                }
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn failed_jobs_carry_status_and_body() {
        let table = JobTable::new(4, Duration::from_secs(600));
        let job = table.create("j1", "nope").unwrap();
        job.fail(404, "{\"error\":\"unknown experiment\"}\n".to_string());
        match table.get("j1").unwrap().state() {
            JobState::Failed { status, body, .. } => {
                assert_eq!(status, 404);
                assert!(body.contains("unknown experiment"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn ttl_gc_drops_finished_jobs_only() {
        // ttl = 0: a finished job expires at the very next GC pass.
        let table = JobTable::new(4, Duration::from_secs(0));
        let done = table.create("done", "fig12").unwrap();
        let live = table.create("live", "fig12").unwrap();
        done.complete("application/json", "{}\n".to_string());
        live.mark_running();
        assert_eq!(table.gc(), 1, "exactly the finished job expires");
        assert!(table.get("done").is_none());
        assert!(table.get("live").is_some(), "running jobs never expire");
    }

    #[test]
    fn ttl_boundary_is_exclusive_at_exactly_ttl() {
        // Pin the <-vs-<= semantics of the GC window: a job that finished
        // exactly `ttl` ago is already expired (the window is
        // half-open, `age < ttl` survives), while one a hair younger
        // stays pollable. Drives `collect` with synthetic clocks so the
        // boundary is hit exactly rather than raced.
        let ttl = Duration::from_secs(10);
        let finished = Instant::now();
        let make = |id: &str| {
            (
                id.to_string(),
                Arc::new(JobEntry {
                    id: id.to_string(),
                    sweep_id: "fig12".to_string(),
                    progress: Progress::new(),
                    state: Mutex::new(JobState::Done {
                        content_type: "application/json".to_string(),
                        body: JobBody::Inline("{}\n".to_string()),
                        finished,
                    }),
                }),
            )
        };

        // Just inside the window: nothing expires.
        let mut jobs: HashMap<_, _> = [make("young")].into_iter().collect();
        let just_inside = finished + ttl - Duration::from_millis(1);
        assert_eq!(JobTable::collect(&mut jobs, ttl, just_inside), 0);
        assert!(jobs.contains_key("young"));

        // Exactly at the boundary: age == ttl fails `age < ttl`, evicted.
        let mut jobs: HashMap<_, _> = [make("boundary")].into_iter().collect();
        assert_eq!(JobTable::collect(&mut jobs, ttl, finished + ttl), 1);
        assert!(jobs.is_empty());

        // A `now` *before* the finish instant (clock went backwards
        // between threads): duration_since saturates to zero, job stays.
        let mut jobs: HashMap<_, _> = [make("future")].into_iter().collect();
        assert_eq!(
            JobTable::collect(&mut jobs, ttl, finished - Duration::from_secs(1)),
            0
        );
        assert!(jobs.contains_key("future"));
    }

    #[test]
    fn full_table_sheds_and_recovers_after_gc() {
        let table = JobTable::new(2, Duration::from_secs(0));
        let first = table.create("a", "fig12").unwrap();
        table.create("b", "fig12").unwrap();
        assert!(table.create("c", "fig12").is_err(), "third job must shed");
        // Finishing one (ttl 0) frees a slot at the next create's GC pass.
        first.complete("application/json", "{}\n".to_string());
        assert!(table.create("c", "fig12").is_ok());
    }

    #[test]
    fn removed_jobs_free_their_slot() {
        let table = JobTable::new(1, Duration::from_secs(600));
        table.create("a", "fig12").unwrap();
        assert!(table.create("b", "fig12").is_err());
        assert!(table.remove("a").is_some());
        assert!(table.remove("a").is_none());
        assert!(table.create("b", "fig12").is_ok());
    }

    #[test]
    fn zero_capacity_always_sheds() {
        let table = JobTable::new(0, Duration::from_secs(600));
        assert!(table.create("a", "fig12").is_err());
        assert!(table.is_empty());
    }
}
