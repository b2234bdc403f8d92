//! A served sweep answers the bytes `repro sweep` prints for the same
//! point: the server and the CLI start from one default seed, and a
//! chunk store that cannot be written costs crash resume, not the sweep.

use cnt_serve::{Config, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One HTTP/1.1 exchange on a fresh connection: (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
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
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
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
/// finished result body.
fn served_sweep(addr: SocketAddr, id: &str, body: &str) -> String {
    let (status, submit) = http(addr, "POST", &format!("/v1/sweeps/{id}"), body);
    assert_eq!(status, 202, "{id}: {submit}");
    let rid = submit
        .split("\"job\":\"")
        .nth(1)
        .and_then(|tail| tail.split('"').next())
        .unwrap_or_else(|| panic!("no job id in {submit}"));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match http(addr, "GET", &format!("/v1/jobs/{rid}/result"), "") {
            (200, result) => return result,
            (202, _) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            (status, body) => panic!("{id} job {rid}: {status} {body}"),
        }
    }
}

/// What `repro sweep <id> --trials <trials> --format json` prints, with
/// no seed given.
fn repro_sweep(id: &str, trials: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", id, "--trials", &trials.to_string()])
        .args(["--format", "json", "--no-cache"])
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
        let served = served_sweep(addr, id, r#"{"params": {"trials": 8}}"#);
        assert_eq!(served, repro_sweep(id, 8), "{id}");
    }
    handle.shutdown();
    thread.join().unwrap();
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

    let served = served_sweep(addr, "fig12", r#"{"params": {"trials": 8}}"#);
    assert_eq!(served, repro_sweep("fig12", 8));
    let (_, metrics) = http(addr, "GET", "/v1/metrics", "");
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
