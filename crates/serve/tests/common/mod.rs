//! Helpers shared by the integration tests: a one-shot HTTP/1.1 client,
//! readers for the healthz counters, Prometheus samples and job ids,
//! and a fleet of real instances on ephemeral ports.
//!
//! The client frames its request and splits the response by hand on a
//! raw `TcpStream`, so it stays an oracle independent of the server's
//! own reader in `cnt_serve::http`.

// Each test binary uses its own subset.
#![allow(dead_code)]

use cnt_serve::{Config, FleetConfig, RouteMode, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP/1.1 exchange on a fresh connection, with extra request
/// headers; returns (status, headers with lower-cased names, body).
pub fn http_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let extra_lines: String = extra.iter().map(|(n, v)| format!("{n}: {v}\r\n")).collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{extra_lines}Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// [`http_with`] without extra headers.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    http_with(addr, method, path, &[], body)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "GET", path, "");
    (status, body)
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "POST", path, body);
    (status, body)
}

/// The first value of a response header, by lower-case name.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Reads one healthz counter out of the flat JSON body.
pub fn counter(health: &str, name: &str) -> u64 {
    let tail = health
        .split(&format!("\"{name}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no counter {name} in {health}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// Reads one Prometheus sample (exact line-prefix match).
pub fn sample(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in {metrics}"))
}

/// A validated `/v1/metrics` scrape.
pub fn scrape(addr: SocketAddr) -> String {
    let (status, metrics) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    cnt_obs::promcheck::validate(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    metrics
}

/// The entries of directory `dir`, sorted by name: what a data dir
/// holds.
pub fn dir_entries(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Extracts the `"job":"…"` id from a 202 submission body.
pub fn job_id(body: &str) -> String {
    body.split("\"job\":\"")
        .nth(1)
        .and_then(|tail| tail.split('"').next())
        .unwrap_or_else(|| panic!("no job id in {body}"))
        .to_string()
}

/// A server running on a thread of its own.
pub struct Instance {
    pub addr: SocketAddr,
    pub handle: ShutdownHandle,
    pub thread: std::thread::JoinHandle<()>,
}

impl Instance {
    /// The instance's kernel-run count, from `/v1/healthz`.
    pub fn runs(&self) -> u64 {
        let (status, health) = get(self.addr, "/v1/healthz");
        assert_eq!(status, 200);
        counter(&health, "runs")
    }

    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

pub fn spawn(server: Server) -> Instance {
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    Instance {
        addr,
        handle,
        thread,
    }
}

/// Binds `n` ephemeral-port instances into one fleet, with a per-index
/// hook to tune health/chaos before each instance joins.
pub fn fleet_with(
    n: usize,
    mode: RouteMode,
    tweak: impl Fn(usize, &mut FleetConfig),
) -> (Vec<Instance>, Vec<String>) {
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
    let instances = servers
        .into_iter()
        .enumerate()
        .map(|(index, server)| {
            let mut config = FleetConfig::new(peers.clone(), index);
            config.mode = mode;
            tweak(index, &mut config);
            server.enable_fleet(config).expect("join fleet");
            spawn(server)
        })
        .collect();
    (instances, peers)
}
