//! A served sweep answers the bytes `repro sweep` prints for the same
//! point: the server and the CLI start from one default seed, a
//! finished job replayed from its journal after a restart keeps those
//! bytes, and a chunk store or cache that cannot be written costs crash
//! resume or recall, not the sweep.

use cnt_serve::{Config, PeerClient, Server, ShutdownHandle};
use std::net::SocketAddr;
use std::process::Command;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `GET` (no `body`) or `POST` on a fresh connection to `addr` through
/// the fleet's peer client: (status, body).
fn http(addr: SocketAddr, path: &str, body: Option<&str>) -> (u16, String) {
    let client =
        PeerClient::new(Duration::from_secs(5), Duration::from_secs(30)).with_connection_close();
    let addr = addr.to_string();
    let response = match body {
        Some(body) => client.post(&addr, path, "application/json", body),
        None => client.get(&addr, path),
    }
    .expect("peer client exchange");
    (response.status, response.body)
}

fn start(config: Config) -> (SocketAddr, ShutdownHandle, JoinHandle<()>) {
    let server = Server::bind(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..config
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle, thread)
}

/// Submits `POST /v1/sweeps/{id}` with `body` and waits for the job's
/// finished result body: (job id, body).
fn served_sweep(addr: SocketAddr, id: &str, body: &str) -> (String, String) {
    let (status, submit) = http(addr, &format!("/v1/sweeps/{id}"), Some(body));
    assert_eq!(status, 202, "{id}: {submit}");
    let rid = submit
        .split("\"job\":\"")
        .nth(1)
        .and_then(|tail| tail.split('"').next())
        .unwrap_or_else(|| panic!("no job id in {submit}"));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match http(addr, &format!("/v1/jobs/{rid}/result"), None) {
            (200, result) => return (rid.to_string(), result),
            (202, _) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            (status, body) => panic!("{id} job {rid}: {status} {body}"),
        }
    }
}

/// What `repro sweep <id> --trials <trials> --format <format>` prints,
/// with no seed given.
fn repro_sweep(id: &str, trials: usize, format: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", id, "--trials", &trials.to_string()])
        .args(["--format", format, "--no-cache"])
        .output()
        .expect("run repro sweep");
    assert!(
        out.status.success(),
        "repro sweep {id}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// fig05 and fig13b declare their own plain-run seeds (20180319, 13); a
/// sweep of either without a seed starts from the CLI's root seed.
#[test]
fn served_sweeps_without_a_seed_answer_the_clis_bytes() {
    let (addr, handle, thread) = start(Config::default());
    for id in ["fig05", "fig13b"] {
        let (_, served) = served_sweep(addr, id, r#"{"params": {"trials": 8}}"#);
        assert_eq!(served, repro_sweep(id, 8, "json"), "{id}");
    }
    handle.shutdown();
    thread.join().unwrap();
}

/// A finished job's body lives in its journal record: after a graceful
/// stop and a restart on the same data dir, the result route answers
/// the CLI's bytes, JSON and CSV alike.
#[test]
fn a_finished_job_replays_the_clis_bytes_after_a_restart() {
    let dir = std::env::temp_dir().join(format!("cnt-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || Config {
        data_dir: Some(dir.clone()),
        ..Config::default()
    };
    let (addr, handle, thread) = start(durable());
    let finished: Vec<_> = ["json", "csv"]
        .map(|format| {
            let body = format!(r#"{{"params": {{"trials": 8}}, "format": "{format}"}}"#);
            let (rid, _) = served_sweep(addr, "fig12", &body);
            (rid, repro_sweep("fig12", 8, format))
        })
        .into();
    handle.shutdown();
    thread.join().unwrap();

    let (addr, handle, thread) = start(durable());
    for (rid, cli) in &finished {
        let (status, replayed) = http(addr, &format!("/v1/jobs/{rid}/result"), None);
        assert_eq!(status, 200, "{rid}: {replayed}");
        assert_eq!(&replayed, cli, "{rid}");
    }
    handle.shutdown();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--data-dir D` with `D/sweep-cache` a plain file: every chunk write
/// fails, the job still answers the CLI's bytes, and the failed writes
/// are counted.
#[test]
fn an_unwritable_chunk_store_costs_resume_not_the_sweep() {
    let dir = std::env::temp_dir().join(format!("cnt-bench-broken-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("sweep-cache"), "not a directory").unwrap();
    let (addr, handle, thread) = start(Config {
        data_dir: Some(dir.clone()),
        ..Config::default()
    });

    let (_, served) = served_sweep(addr, "fig12", r#"{"params": {"trials": 8}}"#);
    assert_eq!(served, repro_sweep("fig12", 8, "json"));
    let (_, metrics) = http(addr, "/v1/metrics", None);
    let failures: u64 = metrics
        .lines()
        .find_map(|line| line.strip_prefix("cnt_sweep_cache_write_failures_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no write-failure count:\n{metrics}"));
    assert!(failures >= 1, "{failures} failed writes counted");

    handle.shutdown();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro sweep --cache-dir F` with F a plain file: the cache write
/// fails, and the sweep still prints the `--no-cache` bytes.
#[test]
fn an_unwritable_cache_dir_costs_recall_not_the_sweep() {
    let file = std::env::temp_dir().join(format!("cnt-bench-cache-file-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "fig12", "--trials", "8", "--seed", "42"])
        .args(["--format", "json", "--cache-dir"])
        .arg(&file)
        .output()
        .expect("run repro sweep");
    let _ = std::fs::remove_file(&file);
    assert!(
        out.status.success(),
        "repro sweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(printed, repro_sweep("fig12", 8, "json"));
}
