//! Crash-safe distributed sweeps, end to end: real multi-instance
//! fleets fanning one `POST /v1/sweeps/{id}` out as chunks, surviving
//! chaos-refused chunk posts and a worker dying mid-job, and — with a
//! data dir — resuming a killed coordinator from its journal with the
//! finished chunks recalled from the content-hash chunk store instead
//! of recomputed. The gate throughout is byte-identity: every merged
//! report must equal the single-instance computation exactly.

mod common;

use cnt_interconnect::experiments::{self, SweepKernel};
use cnt_serve::{
    fleet::{journal, ChaosConfig},
    Config, RouteMode, Server,
};
use cnt_sweep::{chunk_ranges, ResultStore};
use common::{dir_entries, fleet_with, get, job_id, post, sample, scrape, spawn, Instance};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The `(done, total)` counters of a job status body.
fn counters(body: &str) -> (u64, u64) {
    let doc = cnt_obs::json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let count = |key: &str| {
        doc.get(key)
            .and_then(cnt_obs::json::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("no {key} in {body}")) as u64
    };
    (count("done"), count("total"))
}

/// A job's progress as `GET /v1/jobs/{rid}` on `addr` reports it.
fn progress(addr: SocketAddr, rid: &str) -> (u64, u64) {
    let (status, body) = get(addr, &format!("/v1/jobs/{rid}"));
    assert_eq!(status, 200, "{body}");
    counters(&body)
}

/// Polls `/v1/jobs/{rid}/result` on `addr` until the job lands. Every
/// in-flight poll must show the whole sweep (of `jobs` jobs) as its
/// total (or nothing yet) and no more done than that.
fn await_jobs(addr: SocketAddr, rid: &str, jobs: u64) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/v1/jobs/{rid}/result"));
        match status {
            200 => return body,
            202 => {
                let (done, total) = counters(&body);
                assert!(
                    (total == 0 || total == jobs) && done <= total,
                    "inconsistent progress: {body}"
                );
                assert!(
                    std::time::Instant::now() < deadline,
                    "job {rid} never finished: {body}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected result status {other} for {rid}: {body}"),
        }
    }
}

/// [`await_jobs`] for a job at [`SWEEP_BODY`].
fn await_result(addr: SocketAddr, rid: &str) -> String {
    await_jobs(addr, rid, sweep_jobs())
}

/// The sweep point every test uses: a pinned trial count.
const SWEEP_BODY: &str = r#"{"params": {"trials": 48}}"#;

/// The kernel of sweep `id` at `trials`.
fn kernel(id: &str, trials: &str) -> SweepKernel {
    let sets = [("trials".to_string(), trials.to_string())];
    let (_, ctx) = experiments::resolve_context(id, None, &sets).unwrap();
    experiments::chunkable_sweep(id, &ctx).unwrap()
}

/// The single-instance ground truth for sweep `id` at `trials`, rendered
/// the way the job result route renders JSON.
fn expected(id: &str, trials: &str) -> String {
    let run = kernel(id, trials).run_local(None).unwrap();
    format!("{}\n", run.report.to_json())
}

/// How many sweep jobs [`SWEEP_BODY`] flattens into: what a finished
/// job's progress must read.
fn sweep_jobs() -> u64 {
    kernel("fig12", "48").jobs() as u64
}

/// The single-instance ground truth for [`SWEEP_BODY`].
fn expected_report() -> String {
    expected("fig12", "48")
}

/// Fakes the first life of a coordinator that was SIGKILL'd mid-job on
/// the data dir `dir`: the journal holds the accepted submission of job
/// `rid` (sweep `id` at `trials`), and exactly the first of the 8 chunks
/// made it into the durable chunk store before the kill. Returns the
/// chunk ranges.
fn seed_first_life(dir: &Path, rid: &str, id: &str, trials: &str) -> Vec<std::ops::Range<usize>> {
    let sweep = kernel(id, trials);
    let n_jobs = sweep.jobs();
    let ranges = chunk_ranges(n_jobs, 8.clamp(1, n_jobs));
    assert!(ranges.len() >= 2, "sweep too small to test resume");
    let store = ResultStore::new(dir.join("sweep-cache"));
    sweep.run_chunk(Some(&store), &ranges[0]).unwrap();
    let submitted = format!(
        "{{\"event\":\"submitted\",\"job\":\"{rid}\",\"experiment\":\"{id}\",\
         \"sets\":[[\"trials\",\"{trials}\"]],\"format\":\"json\"}}"
    );
    journal::Journal::open(&dir.join("journal.log"))
        .unwrap()
        .append(&submitted)
        .unwrap();
    ranges
}

/// A fresh coordinator on the data dir `dir`.
fn coordinator_on(dir: &Path) -> Instance {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        data_dir: Some(dir.to_path_buf()),
        ..Config::default()
    })
    .expect("bind with data dir");
    spawn(server)
}

#[test]
fn fanned_out_sweep_is_byte_identical_and_readable_fleet_wide() {
    let (instances, _) = fleet_with(3, RouteMode::Proxy, |_, _| {});
    let expected = expected_report();

    let (status, submit) = post(instances[0].addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    assert_eq!(
        await_result(instances[0].addr, &rid),
        expected,
        "fanned-out merge drifted from the single-instance run"
    );
    // Every chunk counts toward the job, whichever lane ran it.
    let jobs = sweep_jobs();
    assert_eq!(jobs, 75);
    assert_eq!(progress(instances[0].addr, &rid), (jobs, jobs));

    // The coordinator really dispatched: with six chunks and three
    // concurrent lanes, every lane lands at least one.
    let metrics = scrape(instances[0].addr);
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"remote\"}") >= 1,
        "no chunk ran remotely:\n{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}") >= 1,
        "no chunk ran locally:\n{metrics}"
    );

    // Any instance answers for any job: the peers relay both the status
    // poll and the result fetch to whoever holds the job.
    for worker in &instances[1..] {
        let (status, polled) = get(worker.addr, &format!("/v1/jobs/{rid}"));
        assert_eq!(status, 200, "{polled}");
        assert!(polled.contains("\"status\":\"done\""), "{polled}");
        let (status, relayed) = get(worker.addr, &format!("/v1/jobs/{rid}/result"));
        assert_eq!(status, 200, "{relayed}");
        assert_eq!(relayed, expected, "relayed result drifted");
    }

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_variability_job_lands_chunks_on_a_peer() {
    // The device Monte-Carlo's per-job rows are narrower than its final
    // table; a chunk body must still pass the coordinator's check, or
    // every chunk requeues and the local lane redoes the whole job.
    let (instances, _) = fleet_with(2, RouteMode::Proxy, |_, _| {});
    let (status, submit) = post(
        instances[0].addr,
        "/v1/sweeps/variability",
        r#"{"params": {"trials": 4000}}"#,
    );
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    let jobs = kernel("variability", "4000").jobs() as u64;
    assert_eq!(
        await_jobs(instances[0].addr, &rid, jobs),
        expected("variability", "4000"),
        "fanned-out merge drifted from the single-instance run"
    );
    assert_eq!(progress(instances[0].addr, &rid), (jobs, jobs));
    let metrics = scrape(instances[0].addr);
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"remote\"}") >= 1,
        "no variability chunk landed remotely:\n{metrics}"
    );
    for instance in instances {
        instance.stop();
    }
}

#[test]
fn chaos_refused_chunk_posts_redispatch_without_changing_bytes() {
    // Seeded chaos refuses every outbound hop from the coordinator: all
    // chunk posts fail, every chunk requeues, and the local lane drains
    // the board — the job still finishes with exactly the right bytes.
    let (instances, _) = fleet_with(2, RouteMode::Proxy, |index, config| {
        if index == 0 {
            config.chaos = Some(ChaosConfig::parse("seed=7,refuse=1").unwrap());
        }
    });

    let (status, submit) = post(instances[0].addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    assert_eq!(
        await_result(instances[0].addr, &rid),
        expected_report(),
        "chaos changed the merged bytes"
    );

    let metrics = scrape(instances[0].addr);
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"requeued\"}") >= 1,
        "refused chunk posts must requeue:\n{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"remote\"}"),
        0,
        "nothing can land remotely under refuse=1:\n{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}") >= 1,
        "{metrics}"
    );

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_worker_dying_mid_job_redispatches_to_survivors() {
    let (mut instances, _) = fleet_with(3, RouteMode::Proxy, |_, _| {});
    let expected = expected_report();

    let (status, submit) = post(instances[0].addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    // Kill one worker while the job is (most likely) in flight. Chunks
    // it claimed past the drain either answered already or fail their
    // next dispatch and requeue onto the survivors — both end in the
    // same merged bytes.
    instances.remove(2).stop();
    assert_eq!(
        await_result(instances[0].addr, &rid),
        expected,
        "losing a worker changed the merged bytes"
    );
    // A re-dispatched or stolen chunk counts once.
    assert_eq!(
        progress(instances[0].addr, &rid),
        (sweep_jobs(), sweep_jobs())
    );

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_restarted_coordinator_resumes_a_seeded_fig13b_chunk() {
    // fig13b reduces per-wafer rows into per-setup rows, so its chunks
    // carry their own, narrower columns; they must recall all the same.
    let dir = std::env::temp_dir().join(format!("cnt-fanout-fig13b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let rid = "00feed-000013";
    let ranges = seed_first_life(&dir, rid, "fig13b", "24");
    let jobs = kernel("fig13b", "24").jobs() as u64;

    let coordinator = coordinator_on(&dir);
    assert_eq!(
        await_jobs(coordinator.addr, rid, jobs),
        expected("fig13b", "24"),
        "resumed job drifted from the single-instance run"
    );
    assert_eq!(progress(coordinator.addr, rid), (jobs, jobs));
    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 1);
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"resumed\"}"),
        1,
        "the seeded chunk must resume:\n{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}"),
        (ranges.len() - 1) as u64,
        "{metrics}"
    );
    coordinator.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_coordinator_resumes_from_journal_and_chunk_store() {
    let dir = std::env::temp_dir().join(format!("cnt-fanout-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let rid = "00feed-000001";
    let ranges = seed_first_life(&dir, rid, "fig12", "48");
    let n_jobs = sweep_jobs() as usize;

    // Restart: the journal replays, the unfinished job re-enters the
    // queue, and the pre-seeded chunk recalls from the store.
    let coordinator = coordinator_on(&dir);
    let expected = expected_report();
    assert_eq!(
        await_result(coordinator.addr, rid),
        expected,
        "resumed job drifted from the single-instance run"
    );
    // The resumed chunk counts toward the job like the computed ones.
    assert_eq!(
        progress(coordinator.addr, rid),
        (n_jobs as u64, n_jobs as u64)
    );

    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 1);
    // The seeded chunk resumed (a chunk store hit — visible in the
    // global sweep-cache counter too); the rest computed.
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"resumed\"}"),
        1,
        "{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}"),
        (ranges.len() - 1) as u64,
        "{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_sweep_cache_hits_total") >= 1,
        "chunk resume must count as a sweep cache hit:\n{metrics}"
    );
    coordinator.stop();

    // Second restart, after the job finished: the journal now folds to a
    // terminal job, so the result serves straight from the body its
    // `job_done` record holds, with zero chunks touched.
    // The journal holds exactly the job's submission and its terminal
    // record: finished chunks live in the chunk store, not the journal.
    let replayed = journal::replay(&dir.join("journal.log")).unwrap();
    assert_eq!(replayed.records.len(), 2, "{:?}", replayed.records);
    for (record, event) in replayed.records.iter().zip(["submitted", "job_done"]) {
        let head = format!("{{\"event\":\"{event}\",\"job\":\"{rid}\"");
        assert!(record.starts_with(&head), "{record}");
    }
    let coordinator = coordinator_on(&dir);
    let (status, body) = get(coordinator.addr, &format!("/v1/jobs/{rid}/result"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "the replayed result drifted");
    // The journal holds no job count; the replayed job derives it from
    // its spec and reads finished, not 0/0.
    assert_eq!(
        progress(coordinator.addr, rid),
        (n_jobs as u64, n_jobs as u64)
    );
    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 1);
    for outcome in ["local", "remote", "requeued", "resumed"] {
        assert_eq!(
            sample(
                &metrics,
                &format!("cnt_fleet_chunks_total{{outcome=\"{outcome}\"}}")
            ),
            0,
            "a finished job must not touch chunks on restart:\n{metrics}"
        );
    }
    coordinator.stop();

    // Third restart, once a 1 s TTL has passed since the job finished:
    // replay drops the expired job and compacts the journal to nothing,
    // so the one-slot table admits a new job. The data dir holds the
    // journal and the chunk store, nothing else.
    std::thread::sleep(Duration::from_millis(1100));
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        jobs_capacity: 1,
        job_ttl: Duration::from_secs(1),
        data_dir: Some(PathBuf::from(&dir)),
        ..Config::default()
    })
    .expect("rebind after the TTL");
    let coordinator = spawn(server);
    let (status, body) = get(coordinator.addr, &format!("/v1/jobs/{rid}"));
    assert_eq!(status, 404, "an expired job came back: {body}");
    assert_eq!(dir_entries(&dir), ["journal.log", "sweep-cache"]);
    let replayed = journal::replay(&dir.join("journal.log")).unwrap();
    assert!(replayed.records.is_empty(), "{:?}", replayed.records);
    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 0);
    let (status, submit) = post(coordinator.addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    let collected = job_id(&submit);
    assert_eq!(await_result(coordinator.addr, &collected), expected);
    // Once that job expires, the next submission's GC or a history
    // tick collects it; its records leave the journal at a tick.
    std::thread::sleep(Duration::from_millis(1100));
    let (status, submit) = post(coordinator.addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    assert_eq!(await_result(coordinator.addr, &job_id(&submit)), expected);
    let (status, body) = get(coordinator.addr, &format!("/v1/jobs/{collected}"));
    assert_eq!(status, 404, "an expired job is still pollable: {body}");
    coordinator.stop();

    // Fourth restart, with room for every job: should a tick not have
    // compacted the collected job away yet, replay drops it for its age
    // instead of re-running it.
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        job_ttl: Duration::from_secs(1),
        data_dir: Some(PathBuf::from(&dir)),
        ..Config::default()
    })
    .expect("rebind after GC");
    let coordinator = spawn(server);
    let (status, body) = get(coordinator.addr, &format!("/v1/jobs/{collected}"));
    assert_eq!(status, 404, "a collected job came back: {body}");
    coordinator.stop();

    let _ = std::fs::remove_dir_all(&dir);
}
