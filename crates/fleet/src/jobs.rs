//! The asynchronous sweep job and its durable lifecycle: a bounded,
//! TTL-collected table of jobs and the journal records that let them
//! survive a crash.
//!
//! `POST /v1/sweeps/{id}` must return immediately, so the serve layer
//! runs the work on a thread of its own and records a [`JobEntry`] here
//! for clients to poll: `Queued` when submitted, `Running` once its
//! thread holds a compute permit, then `Done` or `Failed`. Each
//! transition that must survive a crash is one call that updates the
//! table and the journal together: [`JobTable::submit`],
//! [`JobTable::finish`], [`JobTable::fail`] and [`JobTable::withdraw`].
//! A finished job is one journal record holding its rendered body, as a
//! failed one is: every sweep family's final table has a row count fixed
//! by its plan, so no body outgrows a record. With a data directory the
//! table keeps `journal.log` (framed by [`crate::journal`]; the JSON
//! records inside are this module's) and the chunk store in
//! `sweep-cache/`.
//!
//! Two guards keep a long-lived server healthy:
//!
//! * **Bounded admission** — [`JobTable::submit`] refuses new jobs once
//!   `capacity` entries exist (after a GC pass), turning runaway
//!   submission into an explicit `503 + Retry-After` shed upstream.
//! * **TTL GC** — finished jobs older than `ttl` are dropped on the next
//!   submission, by [`JobTable::open`] and by
//!   [`JobTable::collect_expired`], which also compacts the journal to
//!   the jobs still in the table and evicts chunk tables older than
//!   `ttl`, so results are pollable for a grace window but never
//!   accumulate, in memory or on disk.

use crate::journal::{self, Journal};
use cnt_obs::json::{self, JsonValue};
use cnt_obs::Counter;
use cnt_sweep::ResultStore;
use std::collections::HashMap;
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
        /// Rendered response body, byte-identical to the synchronous
        /// endpoint's.
        body: String,
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
    /// are dropped, other finished ones keep the TTL they had left. The
    /// journal is then compacted to the admitted jobs, which are
    /// returned, submission order: the caller re-runs the `Queued` ones,
    /// and a finished job's progress is the caller's to fill in.
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
        let records = journal::replay(&path)?.records;
        let now = unix_now();
        let mut admitted = Vec::new();
        for job in fold_journal(&records).into_iter().rev() {
            let state = match job.ended {
                Some((outcome, finished)) => {
                    let age = Duration::try_from_secs_f64((now - finished).max(0.0))
                        .unwrap_or(Duration::MAX);
                    if age >= ttl {
                        continue;
                    }
                    let at = Instant::now().checked_sub(age);
                    outcome.into_state(at.unwrap_or_else(Instant::now))
                }
                None => JobState::Queued,
            };
            if let Ok(entry) = table.insert(job.spec, state) {
                admitted.push(entry);
            }
        }
        admitted.reverse();
        let mut live = fold_journal(&records);
        table.retain_held(&mut live);
        journal::rewrite(&path, &compact_records(&live))?;
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

    /// Journals a finished job's body and flips it `Done`, so a restart
    /// re-serves the body without rerunning the job.
    pub fn finish(&self, job: &JobEntry, content_type: &str, body: String) {
        let content_type = content_type.to_string();
        self.settle(job, Outcome::Done { content_type, body });
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
    /// the data directory. Without one there is no store: fan-out still
    /// works, but chunks are neither kept nor recalled.
    pub fn chunk_store(&self) -> Option<ResultStore> {
        let (dir, _) = self.durable.as_ref()?;
        Some(ResultStore::new(dir.join("sweep-cache")))
    }

    /// Drops the finished jobs whose TTL expired, compacts the journal
    /// to the jobs still in the table, and evicts the chunk tables in
    /// `sweep-cache/` older than the TTL — the pass a server runs on a
    /// timer, so a quiet server's data directory stays bounded too. A
    /// chunk table is written before its job finishes, so it expires no
    /// later than the job; evicting one that a running or resumed job
    /// would read costs a recompute, as the store is content-addressed.
    pub fn collect_expired(&self) {
        Self::collect(
            &mut self.jobs.lock().expect("job table poisoned"),
            self.ttl,
            Instant::now(),
        );
        if let Some((dir, journal)) = &self.durable {
            // Best effort, like every other cache write and eviction: a
            // journal that cannot be compacted now is compacted at the
            // next tick or the next startup.
            let _ = self.compact(&dir.join("journal.log"), journal);
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
    fn insert(&self, spec: JobSpec, state: JobState) -> Result<Arc<JobEntry>, ()> {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        Self::collect(&mut jobs, self.ttl, Instant::now());
        if jobs.len() >= self.capacity {
            return Err(());
        }
        let id = spec.rid.clone();
        let entry = Arc::new(JobEntry {
            spec,
            progress: Progress::default(),
            state: Mutex::new(state),
        });
        jobs.insert(id, Arc::clone(&entry));
        Ok(entry)
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

    /// Rewrites the journal at `path` to the jobs still in the table.
    /// The journal's lock is held from replay to reopen, so no append
    /// lands in a file about to be replaced; a journal that names no job
    /// the table has dropped is left alone.
    fn compact(&self, path: &Path, journal: &Mutex<Journal>) -> std::io::Result<()> {
        let mut journal = journal.lock().expect("journal poisoned");
        let mut live = fold_journal(&journal::replay(path)?.records);
        let folded = live.len();
        self.retain_held(&mut live);
        if live.len() < folded {
            journal::rewrite(path, &compact_records(&live))?;
            *journal = Journal::open(path)?;
        }
        Ok(())
    }

    /// Keeps the folded jobs the table holds.
    fn retain_held(&self, jobs: &mut Vec<RecoveredJob>) {
        let held = self.jobs.lock().expect("job table poisoned");
        jobs.retain(|job| held.contains_key(&job.spec.rid));
    }

    /// Removes the finished jobs whose TTL expired.
    fn collect(jobs: &mut HashMap<String, Arc<JobEntry>>, ttl: Duration, now: Instant) {
        jobs.retain(
            |_, entry| match *entry.state.lock().expect("job state poisoned") {
                JobState::Done { finished, .. } | JobState::Failed { finished, .. } => {
                    now.duration_since(finished) < ttl
                }
                // Queued and running jobs never expire.
                _ => true,
            },
        );
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
    Done { content_type: String, body: String },
    Failed { status: u16, body: String },
}

impl Outcome {
    fn into_state(self, finished: Instant) -> JobState {
        match self {
            Outcome::Done { content_type, body } => JobState::Done {
                content_type,
                body,
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

/// A terminal record — `job_done` with the content type and body, or
/// `job_failed` with the status and body — stamped with the finish time
/// in unix seconds.
fn terminal_record(rid: &str, outcome: &Outcome, unix_s: f64) -> String {
    let (event, body) = match outcome {
        Outcome::Done { body, .. } => ("job_done", body),
        Outcome::Failed { body, .. } => ("job_failed", body),
    };
    let mut out = String::with_capacity(body.len() + 128);
    out.push_str(&format!("{{\"event\":\"{event}\",\"job\":"));
    json::push_string(rid, &mut out);
    match outcome {
        Outcome::Done { content_type, .. } => {
            out.push_str(",\"content_type\":");
            json::push_string(content_type, &mut out);
        }
        Outcome::Failed { status, .. } => out.push_str(&format!(",\"status\":{status}")),
    }
    out.push_str(",\"body\":");
    json::push_string(body, &mut out);
    out.push_str(&format!(",\"unix_s\":{unix_s:.3}}}"));
    out
}

/// Folds raw journal records into per-job state, submission order.
/// Records that do not parse, reference unknown jobs, or carry unknown
/// events are skipped — the journal is truncation-tolerant end to end.
/// So is a terminal record without its body or a finite finish time,
/// which leaves its job unfinished: it re-runs.
fn fold_journal(records: &[String]) -> Vec<RecoveredJob> {
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
        let outcome = match (event, text("body")) {
            ("submitted", _) => {
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
                spec.rid = rid.to_string();
                let format = text("format").filter(|f| matches!(*f, "csv" | "text"));
                spec.format = format.unwrap_or("json").to_string();
                by_rid.insert(rid.to_string(), jobs.len());
                jobs.push(RecoveredJob { spec, ended: None });
                continue;
            }
            ("job_done", Some(body)) => {
                let Some(content_type) = text("content_type") else {
                    continue;
                };
                Outcome::Done {
                    content_type: content_type.to_string(),
                    body: body.to_string(),
                }
            }
            ("job_failed", Some(body)) => Outcome::Failed {
                status: number("status")
                    .and_then(|raw| raw.parse().ok())
                    .unwrap_or(500),
                body: body.to_string(),
            },
            // Older builds' bodiless `job_done` and `chunk_done` progress
            // markers, and anything newer: not state.
            _ => continue,
        };
        let finished = number("unix_s")
            .and_then(|raw| raw.parse::<f64>().ok())
            .filter(|t| t.is_finite());
        if let (Some(&index), Some(finished)) = (by_rid.get(rid), finished) {
            jobs[index].ended = Some((outcome, finished));
        }
    }
    jobs
}

/// The compacted journal for a folded state: one submission record per
/// job plus its terminal record, if it has one. Replaces the journal at
/// startup and at every history tick, so the journal stays proportional
/// to the job table rather than to history.
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
    use std::sync::atomic::AtomicBool;

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

    fn done(content_type: &str, body: &str) -> Outcome {
        Outcome::Done {
            content_type: content_type.to_string(),
            body: body.to_string(),
        }
    }

    /// Every job the journal in `dir` folds to, by id, with its outcome:
    /// what a restart would re-admit.
    fn journaled(dir: &Path) -> HashMap<String, Option<Outcome>> {
        let records = journal::replay(&dir.join("journal.log")).unwrap().records;
        fold_journal(&records)
            .into_iter()
            .map(|job| (job.spec.rid, job.ended.map(|(outcome, _)| outcome)))
            .collect()
    }

    /// Every job `table` holds, by id, in [`journaled`]'s shape.
    fn tabled(table: &JobTable) -> HashMap<String, Option<Outcome>> {
        let jobs = table.jobs.lock().unwrap();
        let outcome = |entry: &JobEntry| match entry.state() {
            JobState::Done {
                content_type, body, ..
            } => Some(Outcome::Done { content_type, body }),
            JobState::Failed { status, body, .. } => Some(Outcome::Failed { status, body }),
            JobState::Queued | JobState::Running => None,
        };
        jobs.iter()
            .map(|(rid, entry)| (rid.clone(), outcome(entry)))
            .collect()
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
                assert_eq!(body, "{\"ok\":true}\n");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(table.pending(), 0, "done jobs are not pending");
        assert_eq!(table.len(), 1, "done jobs stay pollable inside the TTL");
    }

    #[test]
    fn finished_bodies_round_trip_through_the_journal() {
        // Quotes, backslashes, newlines, CSV commas, a tab, a control
        // byte and non-ASCII text: the JSON escaping of a `job_done`
        // record must hand every byte back, through append, replay and
        // fold, and through the compaction a restart runs.
        let body = "id,\"note\"\nfig12,\"a \\\"quoted\\\" \\\\ path, with commas\"\r\n\
                    tab\there,\u{1}ctl,ρ = 1.7 µΩ·cm\n";
        let dir = temp_dir("body");
        let open = || JobTable::open(4, Duration::from_secs(600), Some(&dir), Arc::default());
        let (table, _) = open().unwrap();
        let job = submit(&table, "j1").unwrap();
        table.finish(&job, "text/csv", body.to_string());
        drop(table);
        let records = journal::replay(&dir.join("journal.log")).unwrap().records;
        assert_eq!(records.len(), 2, "{records:?}");
        let folded = fold_journal(&records);
        assert!(
            matches!(&folded[0].ended, Some((Outcome::Done { body: b, .. }, _)) if b == body),
            "{folded:?}"
        );
        for _ in 0..2 {
            let (table, admitted) = open().unwrap();
            assert_eq!(admitted.len(), 1);
            match table.get("j1").unwrap().state() {
                JobState::Done {
                    content_type,
                    body: replayed,
                    ..
                } => {
                    assert_eq!(content_type, "text/csv");
                    assert_eq!(replayed.as_bytes(), body.as_bytes());
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
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
                        body: "{}\n".to_string(),
                        finished,
                    }),
                }),
            )
        };

        // Just inside the window: nothing expires.
        let mut jobs: HashMap<_, _> = [make("young")].into_iter().collect();
        let just_inside = finished + ttl - Duration::from_millis(1);
        JobTable::collect(&mut jobs, ttl, just_inside);
        assert!(jobs.contains_key("young"));

        // Exactly at the boundary: age == ttl fails `age < ttl`, evicted.
        let mut jobs: HashMap<_, _> = [make("boundary")].into_iter().collect();
        JobTable::collect(&mut jobs, ttl, finished + ttl);
        assert!(jobs.is_empty());

        // A `now` *before* the finish instant (clock went backwards
        // between threads): duration_since saturates to zero, job stays.
        let mut jobs: HashMap<_, _> = [make("future")].into_iter().collect();
        JobTable::collect(&mut jobs, ttl, finished - Duration::from_secs(1));
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
        let jobs = fold_journal(&[submitted_record(&spec("00aa-000001"))]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec, spec("00aa-000001"));
        assert_eq!(jobs[0].ended, None);

        // A terminal failure record attaches to its job by rid.
        let boom = failed(500, "{\"error\":\"boom\"}");
        let jobs = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            terminal_record("00aa-000001", &boom, 1.5),
        ]);
        assert_eq!(jobs[0].ended, Some((boom, 1.5)));

        // A done record re-admits the job finished, body and all…
        let dir = temp_dir("fold");
        let path = dir.join("journal.log");
        let records = [
            submitted_record(&spec("00aa-000001")),
            terminal_record("00aa-000001", &done("text/csv", "a,b\n1,2\n"), unix_now()),
        ];
        journal::rewrite(&path, &records).unwrap();
        let open = || JobTable::open(4, Duration::from_secs(600), Some(&dir), Arc::default());
        let (_, admitted) = open().unwrap();
        assert_eq!(admitted.len(), 1);
        assert!(matches!(
            admitted[0].state(),
            JobState::Done { body, .. } if body == "a,b\n1,2\n"
        ));
        // …and one in an older build's shape, naming a result file
        // instead of holding the body, re-runs the job.
        let records = [
            submitted_record(&spec("00aa-000001")),
            format!(
                "{{\"event\":\"job_done\",\"job\":\"00aa-000001\",\"content_type\":\"text/csv\",\
                 \"path\":\"{}\",\"bytes\":8,\"unix_s\":{:.3}}}",
                dir.join("jobs").join("00aa-000001.body").display(),
                unix_now()
            ),
        ];
        journal::rewrite(&path, &records).unwrap();
        let (_, admitted) = open().unwrap();
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].spec, spec("00aa-000001"));
        assert_eq!(admitted[0].state(), JobState::Queued);
        assert_eq!(
            journal::replay(&path).unwrap().records,
            records[..1],
            "compaction keeps the submission alone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_collected_job_stays_gone_after_replay() {
        // Table GC journals nothing, so replay finds an expired job's
        // `job_done`: the job is dropped for its age, not re-run.
        let dir = temp_dir("collected");
        let open = || JobTable::open(4, Duration::ZERO, Some(&dir), Arc::default()).unwrap();
        let (table, _) = open();
        let old = submit(&table, "old").unwrap();
        table.finish(&old, "application/json", "{}\n".to_string());
        submit(&table, "new").unwrap(); // collects "old"
        drop(table);
        let (table, admitted) = open();
        let ids: Vec<_> = admitted.iter().map(|job| job.spec.rid.as_str()).collect();
        assert_eq!(ids, ["new"], "only the unfinished job comes back");
        assert!(table.get("old").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tick_drops_every_job_that_left_the_table_from_the_journal() {
        // A job leaves the table by the tick's own GC pass, by a
        // submission's GC pass or by withdrawal; after the next tick the
        // journal names only the jobs the table still holds.
        let dir = temp_dir("tick");
        let (table, _) = JobTable::open(8, Duration::ZERO, Some(&dir), Arc::default()).unwrap();
        let ticked = submit(&table, "ticked").unwrap();
        table.finish(&ticked, "application/json", "{}\n".to_string());
        let old = submit(&table, "old").unwrap();
        table.fail(&old, 500, "{\"error\":\"boom\"}\n".to_string());
        submit(&table, "queued").unwrap(); // collects "ticked" and "old"
        let withdrawn = submit(&table, "withdrawn").unwrap();
        table.withdraw(&withdrawn, 503, "{\"error\":\"busy\"}\n".to_string());
        assert_eq!(journaled(&dir).len(), 4, "nothing compacts between ticks");
        table.collect_expired();
        assert_eq!(
            journaled(&dir),
            HashMap::from([("queued".to_string(), None)])
        );
        assert_eq!(journaled(&dir), tabled(&table));
        // Appends after a compaction land in the compacted journal.
        let late = submit(&table, "late").unwrap();
        table.finish(&late, "text/csv", "a\n".to_string());
        assert_eq!(journaled(&dir), tabled(&table));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ticks_racing_transitions_keep_exactly_the_live_jobs_journaled() {
        // Three threads submit, finish, fail and withdraw jobs while a
        // fourth ticks without pause on a short TTL, so compactions
        // interleave with appends and finished jobs expire mid-run.
        // Afterwards one more tick leaves the journal folding to exactly
        // the table: an append lost to a compaction would show as a
        // missing job or a finished job that folds unfinished, a
        // collected job kept as an extra one.
        let dir = temp_dir("race");
        let ttl = Duration::from_millis(20);
        let (table, _) = JobTable::open(usize::MAX, ttl, Some(&dir), Arc::default()).unwrap();
        let stop = AtomicBool::new(false);
        let ticks = std::thread::scope(|scope| {
            let ticker = scope.spawn(|| {
                let mut ticks = 0;
                while !stop.load(Ordering::SeqCst) {
                    table.collect_expired();
                    ticks += 1;
                }
                ticks
            });
            let workers: Vec<_> = (0..3)
                .map(|worker| {
                    let table = &table;
                    scope.spawn(move || {
                        for i in 0..120 {
                            let job = submit(table, &format!("w{worker}-{i}")).unwrap();
                            let body = format!("{{\"job\":\"w{worker}-{i}\"}}\n");
                            match i % 4 {
                                0 => table.finish(&job, "application/json", body),
                                1 => table.fail(&job, 500, body),
                                2 => table.withdraw(&job, 503, body),
                                _ => job.mark_running(),
                            }
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            ticker.join().unwrap()
        });
        assert!(ticks > 1, "the ticker never raced the workers");
        table.collect_expired();
        let live = tabled(&table);
        assert!(live.len() >= 90, "the running jobs never expire: {live:?}");
        assert_eq!(journaled(&dir), live);
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
        assert_eq!(jobs[0].ended, None);
    }

    #[test]
    fn journal_fold_reads_finish_times() {
        // A terminal record carries its finish time. One without a time,
        // or with one that is not finite, leaves its job unfinished.
        let shed = failed(503, "{\"error\":\"shed\"}");
        let jobs = fold_journal(&[
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
        ]);
        assert_eq!(jobs[0].ended, Some((shed, 1_700_000_000.25)));
        assert_eq!(jobs[1].ended, None);
        assert_eq!(jobs[2].ended, None);
        let compacted = compact_records(&jobs);
        assert!(
            compacted[1].ends_with(",\"unix_s\":1700000000.250}"),
            "{}",
            compacted[1]
        );
        assert_eq!(fold_journal(&compacted), jobs);
    }

    #[test]
    fn replay_admits_live_jobs_newest_first_and_clears_the_rest() {
        let dir = temp_dir("replay");
        let now = unix_now();
        let body = done("application/json", "{}\n");
        // An expired job and two live ones.
        let records = [
            submitted_record(&spec("old")),
            terminal_record("old", &body, now - 20.0),
            submitted_record(&spec("mid")),
            terminal_record("mid", &body, now - 5.0),
            submitted_record(&spec("new")),
            terminal_record("new", &body, now - 5.0),
        ];
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
        // The journal holds only the admitted job.
        assert_eq!(journal::replay(&path).unwrap().records, records[4..]);
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
        let once = compact_records(&fold_journal(&records));
        let twice = compact_records(&fold_journal(&once));
        assert_eq!(once, twice);
        // Both jobs survive: one terminal, one unfinished.
        let jobs = fold_journal(&once);
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
        let queued = fold_journal(&[submitted_record(&spec("00aa-000001"))]);
        let running = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            "{\"event\":\"chunk_done\",\"job\":\"00aa-000001\",\"chunk\":0,\"lo\":0,\"hi\":5}"
                .to_string(),
        ]);
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
