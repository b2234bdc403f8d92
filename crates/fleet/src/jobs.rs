//! The asynchronous sweep job and its durable lifecycle: a bounded,
//! TTL-collected table of jobs, the journal records that let them
//! survive a crash, and the disk spills of their results.
//!
//! `POST /v1/sweeps/{id}` must return immediately, so the serve layer
//! runs the work on a thread of its own and records a [`JobEntry`] here
//! for clients to poll: `Queued` when submitted, `Running` once its
//! thread holds a compute permit, then `Done` or `Failed`. Each
//! transition that must survive a crash is one call that updates the
//! table, the journal and the spill together: [`JobTable::submit`],
//! [`JobTable::finish`], [`JobTable::fail`] and [`JobTable::withdraw`].
//! With a data directory the table keeps `journal.log` (framed by
//! [`crate::journal`]; the JSON records inside are this module's),
//! finished bodies in `jobs/`, and the chunk store in `sweep-cache/`.
//!
//! Two guards keep a long-lived server healthy:
//!
//! * **Bounded admission** — [`JobTable::submit`] refuses new jobs once
//!   `capacity` entries exist (after a GC pass), turning runaway
//!   submission into an explicit `503 + Retry-After` shed upstream.
//! * **TTL GC** — finished jobs older than `ttl` are dropped, spill and
//!   all, on the next submission, by [`JobTable::open`] and by
//!   [`JobTable::collect_expired`], which also evicts chunk tables older
//!   than `ttl`, so results are pollable for a grace window but never
//!   accumulate forever. Between startups the journal still grows by two
//!   records per job.

use crate::journal::{self, Journal};
use cnt_obs::json::{self, JsonValue};
use cnt_obs::Counter;
use cnt_sweep::ResultStore;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

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
/// Without a data directory bodies stay `Inline`; with one, sweep
/// reports spill to disk and only the path + size stay here, so a
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
}

/// One asynchronous sweep job, shared between the HTTP threads and the
/// job thread executing it.
#[derive(Debug)]
pub struct JobEntry {
    /// What the job runs: its id, parameter point and output format.
    pub spec: JobSpec,
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
        self.set(JobState::Running);
    }

    fn set(&self, state: JobState) {
        *self.state.lock().expect("job state poisoned") = state;
    }
}

/// One accepted sweep job, as the journal and the worker task see it:
/// everything needed to re-run the job deterministically after a crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSpec {
    /// Job id (the request id of the submitting `POST`).
    pub rid: String,
    /// Experiment the sweep runs.
    pub experiment: String,
    /// Named preset expanded before `sets`.
    pub preset: Option<String>,
    /// `key = raw value` overrides, submission order.
    pub sets: Vec<(String, String)>,
    /// Output format, as its wire string (`json`, `csv` or `text`).
    pub format: String,
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
    /// are left empty for the caller to fill in.
    fn read_point(
        members: &[(String, JsonValue)],
        mut other: impl FnMut(&str, &JsonValue) -> Result<(), String>,
    ) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
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

/// A parsed `/v1/_fleet/chunk` request: one chunk of a job's sweep.
#[derive(Debug)]
pub struct ChunkRequest {
    /// The parameter point (no job id; the format is unused).
    pub spec: JobSpec,
    /// First sweep job of the chunk.
    pub lo: usize,
    /// One past the chunk's last sweep job.
    pub hi: usize,
    /// The coordinator's plan fingerprint.
    pub fingerprint: u64,
}

/// The coordinator→worker chunk request body: the job's parameter point
/// plus the job range and the plan fingerprint.
pub fn chunk_request_json(spec: &JobSpec, fingerprint: u64, range: &Range<usize>) -> String {
    let mut out = String::with_capacity(160);
    out.push('{');
    spec.push_point(&mut out);
    out.push_str(&format!(
        ",\"lo\":{},\"hi\":{},\"fingerprint\":\"{fingerprint:016x}\"}}",
        range.start, range.end
    ));
    out
}

/// Parses a [`chunk_request_json`] body.
///
/// # Errors
///
/// A message naming the first problem: not UTF-8 or JSON, a member of
/// the wrong type or unknown, or no experiment.
pub fn parse_chunk_request(body: &[u8]) -> Result<ChunkRequest, String> {
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

/// The server-wide registry of async jobs.
#[derive(Debug)]
pub struct JobTable {
    capacity: usize,
    ttl: Duration,
    jobs: Mutex<HashMap<String, Arc<JobEntry>>>,
    /// The data directory and the append side of its journal; `None`
    /// keeps jobs in memory only.
    durable: Option<(PathBuf, Mutex<Journal>)>,
    /// Counts records appended to the journal.
    journal_records: Arc<Counter>,
}

impl JobTable {
    /// Opens a table of at most `capacity` live jobs, finished ones
    /// pollable for `ttl`, on `data_dir` (memory-only without one),
    /// counting journal appends in `journal_records`. Replay admits the
    /// journal's jobs newest first: jobs that finished `ttl` or more ago
    /// are dropped, spill or not; other finished ones keep the TTL they
    /// had left, unless their spill is gone, when they re-run. The
    /// journal and `jobs/` are then cut down to the admitted jobs, which
    /// are returned, submission order: the caller re-runs the `Queued`
    /// ones, and a finished job's progress is the caller's to fill in.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors reading, rewriting or opening the
    /// journal.
    pub fn open(
        capacity: usize,
        ttl: Duration,
        data_dir: Option<&Path>,
        journal_records: Arc<Counter>,
    ) -> std::io::Result<(Self, Vec<Arc<JobEntry>>)> {
        let mut table = Self {
            capacity,
            ttl,
            jobs: Mutex::default(),
            durable: None,
            journal_records,
        };
        let Some(dir) = data_dir else {
            return Ok((table, Vec::new()));
        };
        let path = dir.join("journal.log");
        let now = unix_now();
        let mut live = Vec::new();
        let mut admitted = Vec::new();
        for mut job in fold_journal(&journal::replay(&path)?.records, now)
            .into_iter()
            .rev()
        {
            let age = job.ended.as_ref().map(|(_, finished)| {
                Duration::try_from_secs_f64((now - finished).max(0.0)).unwrap_or(Duration::MAX)
            });
            // Table GC deletes an expired job's spill and journals nothing,
            // so age decides before a missing spill can mean "re-run".
            if age.is_some_and(|age| age >= ttl) {
                continue;
            }
            if matches!(&job.ended, Some((Outcome::Done { path, .. }, _)) if !path.exists()) {
                job.ended = None; // the result cannot be served: re-run the job
            }
            let state = match (&job.ended, age) {
                (Some((outcome, _)), Some(age)) => {
                    let at = Instant::now().checked_sub(age);
                    outcome.clone().into_state(at.unwrap_or_else(Instant::now))
                }
                _ => JobState::Queued,
            };
            if let Ok(entry) = table.insert(job.spec.clone(), state) {
                admitted.push(entry);
                live.push(job);
            }
        }
        live.reverse();
        admitted.reverse();
        journal::rewrite(&path, &compact_records(&live))?;
        remove_orphan_spills(&dir.join("jobs"), &live);
        table.durable = Some((dir.to_path_buf(), Mutex::new(Journal::open(&path)?)));
        Ok((table, admitted))
    }

    /// Registers `spec` as a `Queued` job and journals its submission,
    /// before the caller answers `202`, so a coordinator killed right
    /// after still re-runs it on restart. Runs a GC pass first so
    /// expired results never count against the ceiling.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when the table is full — the caller sheds with
    /// `503 + Retry-After`, mirroring the worker-queue shed.
    #[allow(clippy::result_unit_err)]
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<JobEntry>, ()> {
        let job = self.insert(spec, JobState::Queued)?;
        self.append(&submitted_record(&job.spec));
        Ok(job)
    }

    /// Publishes a finished job's body. With a data directory it spills
    /// to `jobs/{id}.body` and the journal records where, so a restart
    /// re-serves it without rerunning; without one, or when the spill
    /// cannot be written, the body stays in memory and the job is not
    /// crash-durable.
    pub fn finish(&self, job: &JobEntry, content_type: &str, body: String) {
        let content_type = content_type.to_string();
        if let Some((dir, _)) = &self.durable {
            let path = dir.join("jobs").join(format!("{}.body", job.spec.rid));
            let written = std::fs::create_dir_all(dir.join("jobs"))
                .and_then(|()| std::fs::write(&path, body.as_bytes()));
            if written.is_ok() {
                let bytes = body.len() as u64;
                let outcome = Outcome::Done {
                    content_type,
                    path,
                    bytes,
                };
                return self.settle(job, outcome);
            }
        }
        let (body, finished) = (JobBody::Inline(body), Instant::now());
        job.set(JobState::Done {
            content_type,
            body,
            finished,
        });
    }

    /// Journals a job's failure and flips it `Failed`.
    pub fn fail(&self, job: &JobEntry, status: u16, body: String) {
        self.settle(job, Outcome::Failed { status, body });
    }

    /// Withdraws a job whose thread never started: the journal records
    /// it failed with `status` and `body`, so a restart does not re-run
    /// it, and the table forgets it.
    pub fn withdraw(&self, job: &JobEntry, status: u16, body: String) {
        self.fail(job, status, body);
        self.remove(&job.spec.rid);
    }

    /// The chunk-result store backing crash resume: `sweep-cache/` under
    /// the data directory, or a throwaway in-memory store without one
    /// (fan-out still works; chunks just cannot be recalled across
    /// restarts).
    pub fn chunk_store(&self) -> ResultStore {
        match &self.durable {
            Some((dir, _)) => ResultStore::on_disk(dir.join("sweep-cache")),
            None => ResultStore::in_memory(),
        }
    }

    /// Drops the finished jobs whose TTL expired, deleting their
    /// spills, and evicts the chunk tables in `sweep-cache/` older than
    /// the TTL — the pass a server runs on a timer, so a quiet server's
    /// data directory stays bounded too. A chunk table is written before
    /// its job finishes, so it expires no later than the job; evicting
    /// one that a running or resumed job would read costs a recompute,
    /// as the store is content-addressed.
    pub fn collect_expired(&self) {
        let expired = Self::collect(
            &mut self.jobs.lock().expect("job table poisoned"),
            self.ttl,
            Instant::now(),
        );
        remove_spills(expired);
        if let Some((dir, _)) = &self.durable {
            // Best effort, like every other cache write and eviction.
            let _ = cnt_sweep::cache::gc_by_age(&dir.join("sweep-cache"), self.ttl);
        }
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.jobs
            .lock()
            .expect("job table poisoned")
            .get(id)
            .cloned()
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

    /// Admits a job in `state` after a GC pass, unless the table is full.
    /// Expired spills are deleted after the table lock is released.
    fn insert(&self, spec: JobSpec, state: JobState) -> Result<Arc<JobEntry>, ()> {
        let (admitted, expired) = {
            let mut jobs = self.jobs.lock().expect("job table poisoned");
            let expired = Self::collect(&mut jobs, self.ttl, Instant::now());
            let admitted = (jobs.len() < self.capacity).then(|| {
                let id = spec.rid.clone();
                let entry = Arc::new(JobEntry {
                    spec,
                    progress: Progress::default(),
                    state: Mutex::new(state),
                });
                jobs.insert(id, Arc::clone(&entry));
                entry
            });
            (admitted, expired)
        };
        remove_spills(expired);
        admitted.ok_or(())
    }

    fn remove(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.jobs.lock().expect("job table poisoned").remove(id)
    }

    /// Journals a terminal outcome, then flips the job to it.
    fn settle(&self, job: &JobEntry, outcome: Outcome) {
        self.append(&terminal_record(&job.spec.rid, &outcome, unix_now()));
        job.set(outcome.into_state(Instant::now()));
    }

    /// Appends one record to the journal, when there is one. A failed
    /// append only skips the counter: the job still runs, it just would
    /// not survive a crash.
    fn append(&self, record: &str) {
        if let Some((_, journal)) = &self.durable {
            let appended = journal.lock().expect("journal poisoned").append(record);
            if appended.is_ok() {
                self.journal_records.inc();
            }
        }
    }

    /// Removes the finished jobs whose TTL expired and returns them.
    fn collect(
        jobs: &mut HashMap<String, Arc<JobEntry>>,
        ttl: Duration,
        now: Instant,
    ) -> Vec<Arc<JobEntry>> {
        let mut expired = Vec::new();
        jobs.retain(|_, entry| {
            let keep = match *entry.state.lock().expect("job state poisoned") {
                JobState::Done { finished, .. } | JobState::Failed { finished, .. } => {
                    now.duration_since(finished) < ttl
                }
                // Queued and running jobs never expire.
                _ => true,
            };
            if !keep {
                expired.push(Arc::clone(entry));
            }
            keep
        });
        expired
    }
}

/// Deletes the spill files of collected jobs.
fn remove_spills(expired: Vec<Arc<JobEntry>>) {
    for entry in expired {
        if let JobState::Done {
            body: JobBody::Spilled { path, .. },
            ..
        } = entry.state()
        {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Deletes every `*.body` in `spill_dir` that no job in `live` names: the
/// spills of expired, dropped and unfinished jobs.
fn remove_orphan_spills(spill_dir: &Path, live: &[RecoveredJob]) {
    let named: HashSet<_> = live
        .iter()
        .filter_map(|job| match &job.ended {
            Some((Outcome::Done { path, .. }, _)) => path.file_name(),
            _ => None,
        })
        .collect();
    for entry in std::fs::read_dir(spill_dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let spill = path.extension().is_some_and(|ext| ext == "body");
        if spill && !named.contains(entry.file_name().as_os_str()) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Wall-clock unix seconds: terminal records carry it, because a
/// restart has no `Instant` of the last life to age a job from.
fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// How a job ended, as its terminal journal record states it.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
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

impl Outcome {
    fn into_state(self, finished: Instant) -> JobState {
        match self {
            Outcome::Done {
                content_type,
                path,
                bytes,
            } => JobState::Done {
                content_type,
                body: JobBody::Spilled { path, bytes },
                finished,
            },
            Outcome::Failed { status, body } => JobState::Failed {
                status,
                body,
                finished,
            },
        }
    }
}

/// One job folded out of the journal: its submission spec plus the
/// terminal outcome and its finish time in unix seconds, when the job
/// reached one before the crash.
#[derive(Debug, Clone, PartialEq)]
struct RecoveredJob {
    spec: JobSpec,
    ended: Option<(Outcome, f64)>,
}

/// The journal record written before a job's `202` leaves: everything
/// needed to re-run the job from scratch.
fn submitted_record(spec: &JobSpec) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"event\":\"submitted\",\"job\":");
    json::push_string(&spec.rid, &mut out);
    out.push(',');
    spec.push_point(&mut out);
    out.push_str(",\"format\":");
    json::push_string(&spec.format, &mut out);
    out.push('}');
    out
}

/// A terminal record — `job_done` with where the spilled body lives, or
/// `job_failed` with the status and body the table held — stamped with
/// the finish time in unix seconds.
fn terminal_record(rid: &str, outcome: &Outcome, unix_s: f64) -> String {
    let mut out = String::with_capacity(160);
    match outcome {
        Outcome::Done {
            content_type,
            path,
            bytes,
        } => {
            out.push_str("{\"event\":\"job_done\",\"job\":");
            json::push_string(rid, &mut out);
            out.push_str(",\"content_type\":");
            json::push_string(content_type, &mut out);
            out.push_str(",\"path\":");
            json::push_string(&path.to_string_lossy(), &mut out);
            out.push_str(&format!(",\"bytes\":{bytes}"));
        }
        Outcome::Failed { status, body } => {
            out.push_str("{\"event\":\"job_failed\",\"job\":");
            json::push_string(rid, &mut out);
            out.push_str(&format!(",\"status\":{status},\"body\":"));
            json::push_string(body, &mut out);
        }
    }
    out.push_str(&format!(",\"unix_s\":{unix_s:.3}}}"));
    out
}

/// Folds raw journal records into per-job state, submission order.
/// Records that do not parse, reference unknown jobs, or carry unknown
/// events are skipped — the journal is truncation-tolerant end to end.
/// A terminal record without a finite time (older builds wrote none)
/// counts as finished at `now`, which compaction then writes down.
fn fold_journal(records: &[String], now: f64) -> Vec<RecoveredJob> {
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    let mut by_rid: HashMap<String, usize> = HashMap::new();
    for record in records {
        let Ok(doc) = json::parse(record) else {
            continue;
        };
        let text = |name: &str| doc.get(name).and_then(JsonValue::as_str);
        let number = |name: &str| match doc.get(name) {
            Some(JsonValue::Number(raw)) => Some(raw.as_str()),
            _ => None,
        };
        let (Some(event), Some(rid)) = (text("event"), text("job")) else {
            continue;
        };
        let outcome = match event {
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
                let format = text("format").filter(|f| matches!(*f, "csv" | "text"));
                spec.format = format.unwrap_or("json").to_string();
                by_rid.insert(rid.to_string(), jobs.len());
                jobs.push(RecoveredJob { spec, ended: None });
                continue;
            }
            "job_done" => {
                let (Some(content_type), Some(path)) = (text("content_type"), text("path")) else {
                    continue;
                };
                Outcome::Done {
                    content_type: content_type.to_string(),
                    path: PathBuf::from(path),
                    bytes: number("bytes")
                        .and_then(|raw| raw.parse().ok())
                        .unwrap_or(0),
                }
            }
            "job_failed" => {
                let Some(body) = text("body") else {
                    continue;
                };
                Outcome::Failed {
                    status: number("status")
                        .and_then(|raw| raw.parse().ok())
                        .unwrap_or(500),
                    body: body.to_string(),
                }
            }
            // Older builds' chunk_done progress markers and anything
            // newer: not state.
            _ => continue,
        };
        if let Some(&index) = by_rid.get(rid) {
            let finished = number("unix_s").and_then(|raw| raw.parse().ok());
            let finished = finished.filter(|t: &f64| t.is_finite()).unwrap_or(now);
            jobs[index].ended = Some((outcome, finished));
        }
    }
    jobs
}

/// The compacted journal for a recovered state: one submission record
/// per job plus its terminal record, if it has one. Replaces the
/// replayed log on startup, so the journal stays proportional to the
/// job table rather than to history.
fn compact_records(jobs: &[RecoveredJob]) -> Vec<String> {
    let mut records = Vec::with_capacity(jobs.len() * 2);
    for job in jobs {
        records.push(submitted_record(&job.spec));
        if let Some((outcome, finished)) = &job.ended {
            records.push(terminal_record(&job.spec.rid, outcome, *finished));
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory-only table.
    fn memory_table(capacity: usize, ttl: Duration) -> JobTable {
        JobTable::open(capacity, ttl, None, Arc::default())
            .expect("a memory-only table opens")
            .0
    }

    /// Submits a fig12 job under `id`.
    fn submit(table: &JobTable, id: &str) -> Result<Arc<JobEntry>, ()> {
        table.submit(JobSpec {
            rid: id.to_string(),
            experiment: "fig12".to_string(),
            ..JobSpec::default()
        })
    }

    /// A fresh temporary directory for one test.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cnt-jobs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(rid: &str) -> JobSpec {
        JobSpec {
            rid: rid.to_string(),
            experiment: "fig12".to_string(),
            preset: Some("small".to_string()),
            sets: vec![("trials".to_string(), "100".to_string())],
            format: "csv".to_string(),
        }
    }

    fn failed(status: u16, body: &str) -> Outcome {
        Outcome::Failed {
            status,
            body: body.to_string(),
        }
    }

    #[test]
    fn counters_accumulate() {
        let p = Progress::default();
        p.set_total(15);
        p.add_done(2);
        p.add_done(3);
        assert_eq!((p.done(), p.total()), (5, 15));
        p.set_total(15);
        assert_eq!(p.total(), 15, "a repeated announcement does not add up");
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = memory_table(4, Duration::from_secs(600));
        let job = submit(&table, "j1").unwrap();
        assert_eq!(job.state().label(), "queued");
        assert_eq!(table.pending(), 1);

        job.mark_running();
        assert_eq!(job.state().label(), "running");
        job.progress.set_total(10);
        job.progress.add_done(4);
        assert_eq!((job.progress.done(), job.progress.total()), (4, 10));

        table.finish(&job, "application/json", "{\"ok\":true}\n".to_string());
        let polled = table.get("j1").unwrap();
        match polled.state() {
            JobState::Done {
                content_type, body, ..
            } => {
                assert_eq!(content_type, "application/json");
                assert_eq!(body, JobBody::Inline("{\"ok\":true}\n".to_string()));
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(table.pending(), 0, "done jobs are not pending");
        assert_eq!(table.len(), 1, "done jobs stay pollable inside the TTL");
    }

    #[test]
    fn spilled_results_keep_only_the_location() {
        // ttl = 0: the job expires, spill and all, at the next
        // submission's GC pass.
        let dir = temp_dir("spill");
        let (table, _) = JobTable::open(4, Duration::ZERO, Some(&dir), Arc::default()).unwrap();
        let job = submit(&table, "j1").unwrap();
        table.finish(&job, "text/csv", "a,b\n1,2\n".to_string());
        match table.get("j1").unwrap().state() {
            JobState::Done {
                content_type, body, ..
            } => {
                assert_eq!(content_type, "text/csv");
                match body {
                    JobBody::Spilled { path, bytes } => {
                        assert_eq!(path, dir.join("jobs").join("j1.body"));
                        assert_eq!(bytes, 8);
                        assert_eq!(std::fs::read_to_string(path).unwrap(), "a,b\n1,2\n");
                    }
                    other => panic!("expected Spilled, got {other:?}"),
                }
            }
            other => panic!("expected Done, got {other:?}"),
        }
        submit(&table, "j2").unwrap();
        assert!(table.get("j1").is_none());
        assert!(
            !dir.join("jobs").join("j1.body").exists(),
            "GC left the spill"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jobs_carry_status_and_body() {
        let table = memory_table(4, Duration::from_secs(600));
        let job = submit(&table, "j1").unwrap();
        table.fail(
            &job,
            404,
            "{\"error\":\"unknown experiment\"}\n".to_string(),
        );
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
        // ttl = 0: a finished job expires at the very next submission's
        // GC pass.
        let table = memory_table(4, Duration::from_secs(0));
        let done = submit(&table, "done").unwrap();
        let live = submit(&table, "live").unwrap();
        table.finish(&done, "application/json", "{}\n".to_string());
        live.mark_running();
        submit(&table, "next").unwrap();
        assert_eq!(table.len(), 2, "exactly the finished job expires");
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
                    spec: JobSpec {
                        rid: id.to_string(),
                        ..JobSpec::default()
                    },
                    progress: Progress::default(),
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
        assert_eq!(JobTable::collect(&mut jobs, ttl, just_inside).len(), 0);
        assert!(jobs.contains_key("young"));

        // Exactly at the boundary: age == ttl fails `age < ttl`, evicted.
        let mut jobs: HashMap<_, _> = [make("boundary")].into_iter().collect();
        assert_eq!(JobTable::collect(&mut jobs, ttl, finished + ttl).len(), 1);
        assert!(jobs.is_empty());

        // A `now` *before* the finish instant (clock went backwards
        // between threads): duration_since saturates to zero, job stays.
        let mut jobs: HashMap<_, _> = [make("future")].into_iter().collect();
        assert_eq!(
            JobTable::collect(&mut jobs, ttl, finished - Duration::from_secs(1)).len(),
            0
        );
        assert!(jobs.contains_key("future"));
    }

    #[test]
    fn full_table_sheds_and_recovers_after_gc() {
        let table = memory_table(2, Duration::from_secs(0));
        let first = submit(&table, "a").unwrap();
        submit(&table, "b").unwrap();
        assert!(submit(&table, "c").is_err(), "third job must shed");
        // Finishing one (ttl 0) frees a slot at the next submission's GC
        // pass.
        table.finish(&first, "application/json", "{}\n".to_string());
        assert!(submit(&table, "c").is_ok());
    }

    #[test]
    fn removed_jobs_free_their_slot() {
        let table = memory_table(1, Duration::from_secs(600));
        submit(&table, "a").unwrap();
        assert!(submit(&table, "b").is_err());
        assert!(table.remove("a").is_some());
        assert!(table.remove("a").is_none());
        assert!(submit(&table, "b").is_ok());
    }

    #[test]
    fn zero_capacity_always_sheds() {
        let table = memory_table(0, Duration::from_secs(600));
        assert!(submit(&table, "a").is_err());
        assert!(table.is_empty());
    }

    #[test]
    fn journal_fold_round_trips_specs_and_outcomes() {
        // A submission record folds back into the exact spec that wrote
        // it — preset, sets, and format all survive the JSON hop.
        let jobs = fold_journal(&[submitted_record(&spec("00aa-000001"))], 0.0);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec, spec("00aa-000001"));
        assert_eq!(jobs[0].ended, None);

        // A terminal failure record attaches to its job by rid.
        let boom = failed(500, "{\"error\":\"boom\"}");
        let jobs = fold_journal(
            &[
                submitted_record(&spec("00aa-000001")),
                terminal_record("00aa-000001", &boom, 1.5),
            ],
            0.0,
        );
        assert_eq!(jobs[0].ended, Some((boom, 1.5)));

        // A done record whose spill file exists re-admits the job
        // finished…
        let dir = temp_dir("fold");
        let spill = dir.join("jobs").join("00aa-000001.body");
        std::fs::create_dir_all(spill.parent().unwrap()).unwrap();
        std::fs::write(&spill, b"result bytes").unwrap();
        let done = Outcome::Done {
            content_type: "text/csv".to_string(),
            path: spill.clone(),
            bytes: 12,
        };
        let records = [
            submitted_record(&spec("00aa-000001")),
            terminal_record("00aa-000001", &done, unix_now()),
        ];
        journal::rewrite(&dir.join("journal.log"), &records).unwrap();
        let open = || JobTable::open(4, Duration::from_secs(600), Some(&dir), Arc::default());
        let (_, admitted) = open().unwrap();
        assert_eq!(admitted.len(), 1);
        assert!(matches!(
            admitted[0].state(),
            JobState::Done {
                body: JobBody::Spilled { bytes: 12, .. },
                ..
            }
        ));
        // …and one whose spill vanished inside its TTL demotes to
        // "re-run the job".
        std::fs::remove_file(&spill).unwrap();
        let (_, admitted) = open().unwrap();
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].spec, spec("00aa-000001"));
        assert_eq!(admitted[0].state(), JobState::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_collected_job_stays_gone_after_replay() {
        // Table GC deletes an expired job's spill and journals nothing, so
        // replay finds its `job_done` with the spill absent: the job is
        // dropped for its age, not re-run for the missing spill.
        let dir = temp_dir("collected");
        let open = || JobTable::open(4, Duration::ZERO, Some(&dir), Arc::default()).unwrap();
        let (table, _) = open();
        let old = submit(&table, "old").unwrap();
        table.finish(&old, "application/json", "{}\n".to_string());
        submit(&table, "new").unwrap(); // collects "old", spill and all
        assert!(!dir.join("jobs").join("old.body").exists());
        drop(table);
        let (table, admitted) = open();
        let ids: Vec<_> = admitted.iter().map(|job| job.spec.rid.as_str()).collect();
        assert_eq!(ids, ["new"], "only the unfinished job comes back");
        assert!(table.get("old").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fold_skips_garbage_and_unknown_records() {
        let jobs = fold_journal(
            &[
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
            ],
            0.0,
        );
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec.rid, "00aa-000002");
        assert_eq!(jobs[0].ended, None);
    }

    #[test]
    fn journal_fold_drops_the_retired_execution_keys() {
        // Older builds took the executor width and a cache directory as
        // parameters, and their sweep bodies sent `"cache_dir": ""`; this
        // is such a submission, then its terminal record. What is left
        // is `trials` and `seed`, which today's gate accepts.
        let rid = "00feed-000001";
        let jobs = fold_journal(
            &[
                format!(
                    "{{\"event\":\"submitted\",\"job\":\"{rid}\",\"experiment\":\"fig12\",\
                     \"sets\":[[\"trials\",\"48\"],[\"cache_dir\",\"\"]],\"format\":\"json\"}}"
                ),
                format!(
                    "{{\"event\":\"job_done\",\"job\":\"{rid}\",\"content_type\":\
                     \"application/json\",\"path\":\"jobs/x.body\",\"bytes\":9}}"
                ),
                "{\"event\":\"submitted\",\"job\":\"00feed-000002\",\"experiment\":\"fig12\",\
                 \"sets\":[[\"threads\",\"4\"],[\"seed\",\"7\"]],\"format\":\"json\"}"
                    .to_string(),
            ],
            0.0,
        );
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].spec.sets,
            [("trials".to_string(), "48".to_string())]
        );
        assert!(matches!(
            jobs[0].ended,
            Some((Outcome::Done { bytes: 9, .. }, _))
        ));
        assert_eq!(jobs[1].spec.sets, [("seed".to_string(), "7".to_string())]);
    }

    #[test]
    fn journal_fold_reads_finish_times() {
        // A terminal record carries its finish time. One an older build
        // wrote without a time, or one whose time is not finite, counts
        // as finished at replay, and compaction writes that time down,
        // so the job ages from there.
        let shed = failed(503, "{\"error\":\"shed\"}");
        let jobs = fold_journal(
            &[
                submitted_record(&spec("00aa-000001")),
                terminal_record("00aa-000001", &shed, 1_700_000_000.25),
                submitted_record(&spec("00aa-000002")),
                "{\"event\":\"job_failed\",\"job\":\"00aa-000002\",\"status\":503,\
                 \"body\":\"{\\\"error\\\":\\\"shed\\\"}\"}"
                    .to_string(),
                submitted_record(&spec("00aa-000003")),
                "{\"event\":\"job_failed\",\"job\":\"00aa-000003\",\"status\":503,\
                 \"body\":\"{\\\"error\\\":\\\"shed\\\"}\",\"unix_s\":1e999}"
                    .to_string(),
            ],
            1_800_000_000.0,
        );
        assert_eq!(jobs[0].ended, Some((shed.clone(), 1_700_000_000.25)));
        assert_eq!(jobs[1].ended, Some((shed.clone(), 1_800_000_000.0)));
        assert_eq!(jobs[2].ended, Some((shed, 1_800_000_000.0)));
        let compacted = compact_records(&jobs);
        assert!(
            compacted[3].ends_with(",\"unix_s\":1800000000.000}"),
            "{}",
            compacted[3]
        );
        assert_eq!(fold_journal(&compacted, 0.0), jobs);
    }

    #[test]
    fn replay_admits_live_jobs_newest_first_and_clears_the_rest() {
        let dir = temp_dir("replay");
        let spills = dir.join("jobs");
        std::fs::create_dir_all(&spills).unwrap();
        let now = unix_now();
        let done = |rid: &str| {
            let path = spills.join(format!("{rid}.body"));
            std::fs::write(&path, b"{}\n").unwrap();
            Outcome::Done {
                content_type: "application/json".to_string(),
                path,
                bytes: 3,
            }
        };
        // An expired job, two live ones, and a spill nothing names.
        let records = [
            submitted_record(&spec("old")),
            terminal_record("old", &done("old"), now - 20.0),
            submitted_record(&spec("mid")),
            terminal_record("mid", &done("mid"), now - 5.0),
            submitted_record(&spec("new")),
            terminal_record("new", &done("new"), now - 5.0),
        ];
        std::fs::write(spills.join("orphan.body"), b"x").unwrap();
        let path = dir.join("journal.log");
        journal::rewrite(&path, &records).unwrap();

        // Room for one: the newest live job wins, with its remaining TTL.
        let (table, admitted) =
            JobTable::open(1, Duration::from_secs(10), Some(&dir), Arc::default()).unwrap();
        assert_eq!(admitted.len(), 1);
        assert_eq!(table.len(), 1);
        let JobState::Done { finished, .. } = table.get("new").unwrap().state() else {
            panic!("the newest job is re-admitted finished");
        };
        assert!(finished.elapsed() >= Duration::from_secs(4), "{finished:?}");
        // The journal and the spills hold only the admitted job.
        assert_eq!(journal::replay(&path).unwrap().records, records[4..]);
        let left: Vec<_> = std::fs::read_dir(&spills)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(left, ["new.body"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_compaction_is_idempotent_across_replays() {
        // Recovery compacts the journal it replays; replaying the
        // compacted journal must reach the same state and compact to
        // the same bytes — the double-crash case.
        let records = vec![
            submitted_record(&spec("00aa-000001")),
            submitted_record(&spec("00aa-000002")),
            terminal_record("00aa-000001", &failed(503, "{\"error\":\"shed\"}"), 2.0),
        ];
        let once = compact_records(&fold_journal(&records, 3.0));
        let twice = compact_records(&fold_journal(&once, 4.0));
        assert_eq!(once, twice);
        // Both jobs survive: one terminal, one unfinished.
        let jobs = fold_journal(&once, 5.0);
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].ended.is_some());
        assert!(jobs[1].ended.is_none());
    }

    #[test]
    fn journal_recovery_reruns_queued_and_running_alike() {
        // The journal does not distinguish Queued from Running — both
        // died without a terminal record, so both fold to "unfinished"
        // and re-run. A submitted record followed by an older build's
        // chunk progress marker (Running) folds identically to a bare
        // submission (Queued).
        let queued = fold_journal(&[submitted_record(&spec("00aa-000001"))], 0.0);
        let running = fold_journal(
            &[
                submitted_record(&spec("00aa-000001")),
                "{\"event\":\"chunk_done\",\"job\":\"00aa-000001\",\"chunk\":0,\"lo\":0,\"hi\":5}"
                    .to_string(),
            ],
            0.0,
        );
        assert_eq!(queued, running);
        assert_eq!(queued[0].ended, None);
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
