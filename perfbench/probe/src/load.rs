//! `warm` and `load`: HTTP clients for a running `repro serve`.
//!
//! `load` is a closed loop: each client thread sends its next request
//! only after the previous one finished, on its own keep-alive
//! connection, replaying its own seeded sequence of operations, drawn in
//! rounds of ten:
//!
//! * 60 % hot: one of the 21 ids at its default point (the LRU holds it
//!   after `warm`);
//! * 30 % cold: one of the 16 ids with physics knobs, every knob drawn
//!   fresh from [`COLD_KNOBS`];
//! * 10 % sweep: `POST /v1/sweeps/{id}` at [`SWEEP_TRIALS`] trials and a
//!   drawn root seed, then polls `/v1/jobs/{rid}/result` on the same
//!   connection every [`POLL`] until the result arrives.
//!
//! The inputs are fixed tables here, taken from the registry's
//! `ParamSpec`s, so the program sees only generated inputs. One JSON line
//! per operation goes to `--out`; its body hash lets `run.py` check every
//! body against `repro <id> --format json` afterwards.

use crate::spans::Spans;
use crate::Flags;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Every registry id, catalog order.
pub const HOT_IDS: [&str; 21] = [
    "table1",
    "fig01",
    "fig02d",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08a",
    "fig08b",
    "fig08c",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13a",
    "fig13b",
    "tlm",
    "selfheat",
    "stability",
    "variability",
];

/// The ids with a sweep variant.
pub const SWEEP_IDS: [&str; 8] = [
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig12",
    "fig13a",
    "fig13b",
    "variability",
];

/// Trials of each served sweep job.
const SWEEP_TRIALS: u64 = 200;

/// Client threads, one keep-alive connection each (one per vCPU of the
/// 2-vCPU host the workload was sized on).
const CLIENTS: u64 = 2;

/// Interval between polls of a submitted sweep's result.
const POLL: Duration = Duration::from_millis(1);

/// `(id, knob, low, high, integer)`: the physics knobs of each id, with
/// the declared ranges. A range wider than 100× is drawn log-uniform.
///
/// `selfheat` is narrowed to `length_um ≥ 1` and `j_ma_cm2 ≥ 10`: below
/// that the thermal extraction fails ("optimum at bracket edge") at
/// in-range points, and the workload must be one on which no operation
/// fails. Failures elsewhere are still counted, never skipped.
const COLD_KNOBS: [(&str, &str, f64, f64, bool); 24] = [
    ("table1", "width_nm", 20.0, 1000.0, false),
    ("table1", "thickness_nm", 10.0, 500.0, false),
    ("fig02d", "length_um", 0.05, 100.0, false),
    ("fig02d", "nc_doped", 2.0, 30.0, true),
    ("fig03", "d_nm", 1.0, 60.0, false),
    ("fig03", "dopants", 100.0, 1_000_000.0, true),
    ("fig04", "temp_k", 680.0, 1400.0, false),
    ("fig05", "sites", 9.0, 20000.0, true),
    ("fig06", "vf", 0.05, 0.6, false),
    ("fig07", "vf", 0.05, 0.6, false),
    ("fig08a", "temp_k", 50.0, 600.0, false),
    ("fig08b", "length_nm", 0.5, 10.0, false),
    ("fig08c", "temp_k", 50.0, 600.0, false),
    ("fig11", "d_nm", 5.0, 40.0, false),
    ("fig11", "nc", 2.0, 30.0, true),
    ("fig12", "length_um", 1.0, 2000.0, false),
    ("fig12", "nc", 2.0, 30.0, true),
    ("fig13a", "thickness_nm", 20.0, 1000.0, false),
    ("fig13b", "length_um", 10.0, 10000.0, false),
    ("selfheat", "length_um", 1.0, 50.0, false),
    ("selfheat", "j_ma_cm2", 10.0, 300.0, false),
    ("stability", "temp_c", 25.0, 400.0, false),
    ("stability", "j_ma_cm2", 1.0, 1000.0, false),
    ("stability", "dopants", 50.0, 100_000.0, true),
];

/// SplitMix64: a small, fixed generator, so a seed names the same
/// sequence on every build.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Hands out `0..n` in a fresh seeded order each round, so every item
/// comes up equally often whatever the seed: seeds change the order and
/// the drawn knob values, not the composition of the mix.
struct Bag {
    n: usize,
    left: Vec<usize>,
}

impl Bag {
    fn new(n: usize) -> Self {
        Self {
            n,
            left: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.left.swap(i, rng.below(i + 1));
            }
        }
        self.left.pop().expect("bag refilled above")
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Hot,
    Cold,
    Sweep,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Cold => "cold",
            Class::Sweep => "sweep",
        }
    }
}

/// One round of the mix: 60 % hot, 30 % cold, 10 % sweep.
const ROUND: [Class; 10] = [
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Cold,
    Class::Cold,
    Class::Cold,
    Class::Sweep,
];

struct Op {
    class: Class,
    id: &'static str,
    /// `knob=value` pairs exactly as sent (and as `--set` takes them).
    sets: Vec<(&'static str, String)>,
}

/// Each knob's draws come from this many equal strata in turn, so the
/// spread of knob values (and of cold-run cost) is the same for every
/// seed.
const STRATA: usize = 8;

/// One client's seeded operation sequence.
struct Mix {
    rng: Rng,
    cold_ids: Vec<&'static str>,
    round: Bag,
    hot: Bag,
    cold: Bag,
    sweep: Bag,
    /// One bag of strata per [`COLD_KNOBS`] row.
    strata: Vec<Bag>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut cold_ids: Vec<&str> = COLD_KNOBS.iter().map(|k| k.0).collect();
        cold_ids.dedup();
        Self {
            rng: Rng(seed),
            round: Bag::new(ROUND.len()),
            hot: Bag::new(HOT_IDS.len()),
            cold: Bag::new(cold_ids.len()),
            sweep: Bag::new(SWEEP_IDS.len()),
            strata: COLD_KNOBS.iter().map(|_| Bag::new(STRATA)).collect(),
            cold_ids,
        }
    }

    fn next(&mut self) -> Op {
        let rng = &mut self.rng;
        let class = ROUND[self.round.next(rng)];
        let (id, sets) = match class {
            Class::Hot => (HOT_IDS[self.hot.next(rng)], Vec::new()),
            Class::Cold => {
                let id = self.cold_ids[self.cold.next(rng)];
                let strata = &mut self.strata;
                let sets = COLD_KNOBS
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| k.0 == id)
                    .map(|(row, &(_, knob, lo, hi, integer))| {
                        let u = (strata[row].next(rng) as f64 + rng.unit()) / STRATA as f64;
                        let v = if hi / lo > 100.0 {
                            (lo.ln() + u * (hi.ln() - lo.ln())).exp()
                        } else {
                            lo + u * (hi - lo)
                        };
                        let text = if integer {
                            format!("{}", v.round().clamp(lo, hi) as i64)
                        } else {
                            format!("{:.4}", v.clamp(lo, hi))
                        };
                        (knob, text)
                    })
                    .collect();
                (id, sets)
            }
            Class::Sweep => (
                SWEEP_IDS[self.sweep.next(rng)],
                vec![
                    ("trials", SWEEP_TRIALS.to_string()),
                    ("seed", (rng.next() >> 33).to_string()),
                ],
            ),
        };
        Op { class, id, sets }
    }
}

impl Op {
    fn body(&self) -> String {
        if self.sets.is_empty() {
            return "{}".to_string();
        }
        let pairs: Vec<String> = self
            .sets
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"params\":{{{}}}}}", pairs.join(","))
    }
}

struct Response {
    status: u16,
    body: Vec<u8>,
}

/// One keep-alive HTTP/1.1 connection that reopens when the server
/// closes it.
struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
    /// Connections the server ended (`Connection: close`, or a reused
    /// socket found closed).
    closed_by_server: u64,
}

/// Largest response body accepted.
const MAX_BODY: usize = 64 << 20;

impl Conn {
    fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            reader: None,
            closed_by_server: 0,
        }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(self.reader.insert(BufReader::new(stream)))
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if self.reader.is_some() {
            match self.exchange(head.as_bytes()) {
                Ok(r) => return Ok(r),
                // The server ended the reused connection before answering;
                // one retry on a fresh socket.
                Err(_) => {
                    self.reader = None;
                    self.closed_by_server += 1;
                }
            }
        }
        self.connect()?;
        self.exchange(head.as_bytes())
    }

    fn exchange(&mut self, head: &[u8]) -> io::Result<Response> {
        let reader = self
            .reader
            .as_mut()
            .expect("exchange runs on an open connection");
        reader.get_mut().write_all(head)?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((key, value)) = header.split_once(':') {
                let value = value.trim();
                if key.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if key.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length
            .filter(|&n| n <= MAX_BODY)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        if close {
            self.reader = None;
            self.closed_by_server += 1;
        }
        Ok(Response { status, body })
    }
}

/// FNV-1a 64 of a body; `run.py` hashes references the same way.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Outcome {
    status: u16,
    hash: u64,
    polls: u64,
    polls_202: u64,
    error: String,
    /// Submit and poll intervals of a sweep, for its client span.
    steps: Vec<(&'static str, Instant, Instant)>,
}

/// Longest a sweep job may take before it counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

fn job_id(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"job\":\"")? + 7..];
    Some(rest[..rest.find('"')?].to_string())
}

fn run_op(conn: &mut Conn, op: &Op, started: Instant) -> Outcome {
    let mut out = Outcome {
        status: 0,
        hash: 0,
        polls: 0,
        polls_202: 0,
        error: String::new(),
        steps: Vec::new(),
    };
    let path = match op.class {
        Class::Sweep => format!("/v1/sweeps/{}", op.id),
        _ => format!("/v1/experiments/{}/run", op.id),
    };
    let submitted = conn.request("POST", &path, &op.body());
    let mut response = match submitted {
        Ok(r) => r,
        Err(e) => {
            out.error = e.to_string();
            return out;
        }
    };
    if op.class == Class::Sweep && response.status == 202 {
        out.steps.push(("client.submit", started, Instant::now()));
        let Some(rid) = job_id(&response.body) else {
            out.status = response.status;
            out.error = "202 without a job id".to_string();
            return out;
        };
        let result_path = format!("/v1/jobs/{rid}/result");
        loop {
            std::thread::sleep(POLL);
            let asked = Instant::now();
            let polled = conn.request("GET", &result_path, "");
            out.steps.push(("client.poll", asked, Instant::now()));
            out.polls += 1;
            response = match polled {
                Ok(r) => r,
                Err(e) => {
                    out.error = e.to_string();
                    return out;
                }
            };
            if response.status != 202 {
                break;
            }
            out.polls_202 += 1;
            if started.elapsed() > JOB_DEADLINE {
                out.status = 202;
                out.error = "job still running at the deadline".to_string();
                return out;
            }
        }
    }
    out.status = response.status;
    out.hash = fnv1a(&response.body);
    out
}

struct ClientRun {
    records: String,
    spans: Spans,
    reconnects: u64,
}

fn client(
    addr: &str,
    seed: u64,
    index: u64,
    seconds: f64,
    origin: Instant,
    traced: bool,
) -> ClientRun {
    let mut mix = Mix::new(seed ^ (index + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut conn = Conn::new(addr);
    let mut spans = Spans::new(true, origin);
    let mut records = String::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let op = mix.next();
        let started = Instant::now();
        let outcome = run_op(&mut conn, &op, started);
        let finished = Instant::now();
        if traced {
            let root = spans.record(&format!("client.{}", op.class.name()), started, finished);
            for &(name, from, to) in &outcome.steps {
                spans.record_child(root, name, from, to);
            }
        }
        let sets: Vec<String> = op.sets.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            records,
            "{{\"client\":{index},\"class\":\"{}\",\"id\":\"{}\",\"sets\":\"{}\",\"status\":{},\"ms\":{:.4},\"t_s\":{:.4},\"hash\":\"{:016x}\",\"polls\":{},\"polls_202\":{},\"error\":\"{}\"}}",
            op.class.name(),
            op.id,
            sets.join(" "),
            outcome.status,
            finished.duration_since(started).as_secs_f64() * 1e3,
            started.duration_since(origin).as_secs_f64(),
            outcome.hash,
            outcome.polls,
            outcome.polls_202,
            outcome.error.replace(['"', '\\'], "'"),
        );
    }
    ClientRun {
        records,
        spans,
        reconnects: conn.closed_by_server,
    }
}

pub fn load(flags: &Flags) -> Result<(), String> {
    let addr = flags.req("addr")?.to_string();
    let seconds: f64 = flags.num("seconds", 1.0)?;
    let seed: u64 = flags.num("seed", 1)?;
    let out = flags.req("out")?;
    let spans_stem = flags.get("spans");
    let origin = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.as_str();
                let traced = spans_stem.is_some();
                scope.spawn(move || client(addr, seed, i, seconds, origin, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let mut records = String::new();
    let mut spans = Spans::new(true, origin);
    let mut reconnects = 0;
    for run in runs {
        records.push_str(&run.records);
        spans.absorb(run.spans);
        reconnects += run.reconnects;
    }
    std::fs::write(out, records).map_err(|e| format!("writing {out}: {e}"))?;
    if let Some(stem) = spans_stem {
        spans
            .write(stem)
            .map_err(|e| format!("writing {stem}: {e}"))?;
    }
    println!("{{\"elapsed_s\":{elapsed_s:.6},\"reconnects\":{reconnects}}}");
    Ok(())
}

/// Sends the hot set (every id at its default point) so the server's
/// LRU holds it before timing starts.
pub fn warm(flags: &Flags) -> Result<(), String> {
    let mut conn = Conn::new(flags.req("addr")?);
    for id in HOT_IDS {
        let r = conn
            .request("POST", &format!("/v1/experiments/{id}/run"), "{}")
            .map_err(|e| format!("warming {id}: {e}"))?;
        if r.status != 200 {
            return Err(format!("warming {id}: status {}", r.status));
        }
    }
    Ok(())
}
