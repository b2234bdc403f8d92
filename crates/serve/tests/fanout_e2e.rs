//! Crash-safe distributed sweeps, end to end: real multi-instance
//! fleets fanning one `POST /v1/sweeps/{id}` out as chunks, surviving
//! chaos-refused chunk posts and a worker dying mid-job, and — with a
//! data dir — resuming a killed coordinator from its journal with the
//! finished chunks recalled from the content-hash chunk store instead
//! of recomputed. The gate throughout is byte-identity: every merged
//! report must equal the single-instance computation exactly.

use cnt_interconnect::experiments;
use cnt_serve::{
    fleet::{journal, ChaosConfig},
    Config, FleetConfig, RouteMode, Server, ShutdownHandle,
};
use cnt_sweep::{chunk_ranges, ResultStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// One HTTP/1.1 exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(addr, "POST", path, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path, "")
}

/// Reads one Prometheus sample (exact line-prefix match).
fn sample(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in {metrics}"))
}

/// A validated `/v1/metrics` scrape.
fn scrape(addr: SocketAddr) -> String {
    let (status, metrics) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    cnt_obs::promcheck::validate(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    metrics
}

/// Extracts the `"job":"…"` id from a 202 submission body.
fn job_id(body: &str) -> String {
    body.split("\"job\":\"")
        .nth(1)
        .and_then(|tail| tail.split('"').next())
        .unwrap_or_else(|| panic!("no job id in {body}"))
        .to_string()
}

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
/// in-flight poll must show the whole sweep as its total (or nothing
/// yet) and no more done than that.
fn await_result(addr: SocketAddr, rid: &str) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let jobs = sweep_jobs();
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

struct Instance {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

impl Instance {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

fn spawn(server: Server) -> Instance {
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    Instance {
        addr,
        handle,
        thread,
    }
}

/// Binds `n` ephemeral-port instances into one proxy-mode fleet, with a
/// per-index hook to tune chaos before each instance joins.
fn fleet_with(n: usize, tweak: impl Fn(usize, &mut FleetConfig)) -> Vec<Instance> {
    let servers: Vec<Server> = (0..n)
        .map(|_| {
            Server::bind(Config {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                queue_capacity: 16,
                cache_capacity: 64,
                ..Config::default()
            })
            .expect("bind ephemeral port")
        })
        .collect();
    let peers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    servers
        .into_iter()
        .enumerate()
        .map(|(index, server)| {
            let mut config = FleetConfig::new(peers.clone(), index);
            config.mode = RouteMode::Proxy;
            tweak(index, &mut config);
            server.enable_fleet(config).expect("join fleet");
            spawn(server)
        })
        .collect()
}

/// The sweep point every test uses: a pinned trial count.
const SWEEP_BODY: &str = r#"{"params": {"trials": 48}}"#;

fn sweep_sets() -> Vec<(String, String)> {
    vec![("trials".to_string(), "48".to_string())]
}

/// How many sweep jobs [`SWEEP_BODY`] flattens into: what a finished
/// job's progress must read.
fn sweep_jobs() -> u64 {
    let (_, ctx) = experiments::resolve_context("fig12", None, &sweep_sets()).unwrap();
    experiments::chunkable_sweep("fig12", &ctx).unwrap().jobs() as u64
}

/// The single-instance ground truth for [`SWEEP_BODY`], rendered the way
/// the job result route renders JSON.
fn expected_report() -> String {
    let (_, ctx) = experiments::resolve_context("fig12", None, &sweep_sets()).unwrap();
    let run = experiments::chunkable_sweep("fig12", &ctx)
        .and_then(|sweep| sweep.run_local(None))
        .unwrap();
    format!("{}\n", run.report.to_json())
}

#[test]
fn fanned_out_sweep_is_byte_identical_and_readable_fleet_wide() {
    let instances = fleet_with(3, |_, _| {});
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
fn chaos_refused_chunk_posts_redispatch_without_changing_bytes() {
    // Seeded chaos refuses every outbound hop from the coordinator: all
    // chunk posts fail, every chunk requeues, and the local lane drains
    // the board — the job still finishes with exactly the right bytes.
    let instances = fleet_with(2, |index, config| {
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
    let mut instances = fleet_with(3, |_, _| {});
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
fn a_restarted_coordinator_resumes_from_journal_and_chunk_store() {
    let dir = std::env::temp_dir().join(format!("cnt-fanout-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Fake the first life of a coordinator that was SIGKILL'd mid-job:
    // the journal holds the accepted submission, and exactly one chunk
    // made it into the durable chunk store before the kill.
    let (_, ctx) = experiments::resolve_context("fig12", None, &sweep_sets()).unwrap();
    let sweep = experiments::chunkable_sweep("fig12", &ctx).unwrap();
    let n_jobs = sweep.jobs();
    let ranges = chunk_ranges(n_jobs, 8.clamp(1, n_jobs));
    assert!(ranges.len() >= 2, "sweep too small to test resume");
    let first = ranges[0].clone();
    let key = sweep.chunk_key(first.start, first.end);
    let rows = sweep.run_range(first.start, first.end).unwrap();
    ResultStore::on_disk(dir.join("sweep-cache"))
        .put(&key, sweep.columns(), rows)
        .unwrap();
    let rid = "00feed-000001";
    let submitted = format!(
        "{{\"event\":\"submitted\",\"job\":\"{rid}\",\"experiment\":\"fig12\",\
         \"sets\":[[\"trials\",\"48\"],[\"cache_dir\",\"\"]],\"format\":\"json\"}}"
    );
    journal::Journal::open(&dir.join("journal.log"))
        .unwrap()
        .append(&submitted)
        .unwrap();

    // Restart: the journal replays, the unfinished job re-enters the
    // queue, and the pre-seeded chunk recalls from the store.
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        data_dir: Some(PathBuf::from(&dir)),
        ..Config::default()
    })
    .expect("bind with data dir");
    let coordinator = spawn(server);
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
    // The seeded chunk resumed (a [`ResultStore::get_or_compute`] hit —
    // visible in the global sweep-cache counter too); the rest computed.
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
    // terminal job, so the result serves straight from the spilled body
    // with zero chunks touched.
    // The journal holds exactly the job's submission and its terminal
    // record: finished chunks live in the chunk store, not the journal.
    let replayed = journal::replay(&dir.join("journal.log")).unwrap();
    assert_eq!(replayed.records.len(), 2, "{:?}", replayed.records);
    for (record, event) in replayed.records.iter().zip(["submitted", "job_done"]) {
        let head = format!("{{\"event\":\"{event}\",\"job\":\"{rid}\"");
        assert!(record.starts_with(&head), "{record}");
    }
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        data_dir: Some(PathBuf::from(&dir)),
        ..Config::default()
    })
    .expect("rebind with data dir");
    let coordinator = spawn(server);
    let (status, body) = get(coordinator.addr, &format!("/v1/jobs/{rid}/result"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "spill-served result drifted");
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
    // replay drops the expired job, deletes its spill and compacts the
    // journal to nothing, so the one-slot table admits a new job.
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
    let spills = std::fs::read_dir(dir.join("jobs")).unwrap().count();
    assert_eq!(spills, 0, "the expired job's spill is still on disk");
    let replayed = journal::replay(&dir.join("journal.log")).unwrap();
    assert!(replayed.records.is_empty(), "{:?}", replayed.records);
    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 0);
    let (status, submit) = post(coordinator.addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    let collected = job_id(&submit);
    assert_eq!(await_result(coordinator.addr, &collected), expected);
    // Once that job expires, the next submission's GC collects it and
    // deletes its spill, journaling nothing.
    std::thread::sleep(Duration::from_millis(1100));
    let (status, submit) = post(coordinator.addr, "/v1/sweeps/fig12", SWEEP_BODY);
    assert_eq!(status, 202, "{submit}");
    assert_eq!(await_result(coordinator.addr, &job_id(&submit)), expected);
    assert!(!dir.join("jobs").join(format!("{collected}.body")).exists());
    coordinator.stop();

    // Fourth restart, with room for every job: replay drops the
    // collected job for its age instead of re-running it for its
    // missing spill.
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
