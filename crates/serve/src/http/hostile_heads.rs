//! A deterministic hostile-head corpus for both readers of a message
//! head: the server's [`read_request`] and the peer client's
//! [`read_response`]. A seeded loop mutates valid heads (byte flips,
//! truncations, deletions, CR/LF/colon and non-ASCII injection, lines
//! straddling the head cap) and checks every outcome against an oracle
//! that does not share the readers' code:
//!
//! - nothing panics, and each case ends within [`CASE_BOUND`];
//! - at most [`MAX_HEAD_BYTES`] + 1 bytes are consumed before the head
//!   ends, and at most the caller's body cap after it;
//! - `Ok` only for a complete head (a blank line within the cap);
//! - an I/O error only when the reader ran out of bytes.
//!
//! Each defect class this oracle catches is pinned by a named test: a
//! line read whole past the cap
//! (`an_endless_header_line_stops_at_the_head_cap`), a non-UTF-8 head
//! dropped as an I/O error (`a_non_utf8_request_head_is_malformed`), a
//! bare `\r` at end of input taken as the blank line
//! (`a_request_head_cut_off_by_eof_is_an_io_error`), and a response head
//! cut off by EOF taken as complete
//! (`peer::tests::a_response_head_cut_off_by_eof_is_an_io_error_and_is_not_parked`).

use super::{read_head, read_request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use crate::peer::{read_response, PeerError, MAX_PEER_BODY};
use std::io::{BufRead, Read};
use std::time::{Duration, Instant};

/// Mutated heads per reader.
const CASES: usize = 20_000;
/// Longest any one case may take.
const CASE_BOUND: Duration = Duration::from_millis(250);

/// How one read ended, in the oracle's terms.
#[derive(PartialEq)]
enum Outcome {
    Ok,
    Io,
    Refused,
}

/// A byte slice read as a stream: it tracks what the reader consumed
/// and whether it asked for bytes past the end.
struct Wire<'a> {
    rest: &'a [u8],
    ran_out: bool,
}

impl Read for Wire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.rest.read(buf)?;
        self.ran_out |= n == 0 && !buf.is_empty();
        Ok(n)
    }
}

impl BufRead for Wire<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.ran_out |= self.rest.is_empty();
        Ok(self.rest)
    }

    fn consume(&mut self, n: usize) {
        self.rest = &self.rest[n..];
    }
}

/// SplitMix64: the corpus's deterministic draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to three mutations of a randomly chosen seed head.
fn mutate(seeds: &[Vec<u8>], draws: &mut Draws) -> Vec<u8> {
    let mut bytes = seeds[draws.below(seeds.len())].clone();
    for _ in 0..1 + draws.below(3) {
        let at = draws.below(bytes.len() + 1);
        match draws.below(7) {
            0 if at < bytes.len() => bytes[at] = draws.next() as u8,
            1 => bytes.truncate(at),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.insert(at, [b'\r', b'\n', b':'][draws.below(3)]),
            4 => bytes.insert(at, 0x80 + draws.below(0x80) as u8),
            5 => {
                let line = MAX_HEAD_BYTES - 64 + draws.below(128);
                bytes.splice(at..at, std::iter::repeat_n(b'a', line));
            }
            _ => {
                bytes.splice(at..at, b"\r\nX-Fuzz: a:b\r\n".iter().copied());
            }
        }
    }
    bytes
}

/// Where the head of `bytes` ends (just past its blank line), found
/// without the readers' code: lines end at `\n`, the first line is the
/// start line, and the first later line of nothing but `\r`s is blank.
fn head_end(bytes: &[u8]) -> Option<usize> {
    let mut start = bytes.iter().position(|&b| b == b'\n')? + 1;
    while let Some(len) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + len];
        start += len + 1;
        if line.iter().all(|&b| b == b'\r') {
            return Some(start);
        }
    }
    None
}

/// Runs `read` over `bytes` and checks the outcome against the oracle.
fn check(case: usize, bytes: &[u8], body_cap: usize, read: impl Fn(&mut Wire<'_>) -> Outcome) {
    let started = Instant::now();
    let mut wire = Wire {
        rest: bytes,
        ran_out: false,
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&mut wire)))
        .unwrap_or_else(|_| panic!("case {case} panicked on {bytes:?}"));
    let elapsed = started.elapsed();
    let consumed = bytes.len() - wire.rest.len();
    let end = head_end(bytes).filter(|&end| end <= MAX_HEAD_BYTES);
    let limit = end.map_or(MAX_HEAD_BYTES + 1, |end| end + body_cap);
    assert!(
        consumed <= limit,
        "case {case} consumed {consumed} bytes past its limit {limit}: {bytes:?}"
    );
    assert!(
        outcome != Outcome::Ok || end.is_some_and(|end| consumed >= end),
        "case {case} read an incomplete head as complete: {bytes:?}"
    );
    assert!(
        outcome != Outcome::Io || wire.ran_out,
        "case {case} failed on I/O with bytes left: {bytes:?}"
    );
    assert!(
        elapsed < CASE_BOUND,
        "case {case} took {elapsed:?}: {bytes:?}"
    );
}

/// The shared head reader alone never consumes past the cap.
fn check_head(case: usize, bytes: &[u8]) {
    let mut wire = Wire {
        rest: bytes,
        ran_out: false,
    };
    let _ = read_head(&mut wire);
    let consumed = bytes.len() - wire.rest.len();
    assert!(
        consumed <= MAX_HEAD_BYTES + 1,
        "case {case}: the head reader consumed {consumed} bytes"
    );
}

#[test]
fn hostile_request_heads_end_typed_within_the_cap() {
    let body = "{\"params\": {\"nc\": 6}}";
    let seeds: Vec<Vec<u8>> = [
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
        format!(
            "POST /v1/experiments/fig12/run?x=1 HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        "GET /v1/jobs/abc/result HTTP/1.0\r\nConnection: keep-alive\r\n\
         X-Trace-Id: 00000000deadbeef\r\nX-Parent-Span: 0000000000000001\r\n\r\n"
            .to_string(),
        "GET /v1/metrics HTTP/1.1\nConnection: close\n\n".to_string(),
    ]
    .map(String::into_bytes)
    .to_vec();
    let mut draws = Draws(0x5EED_0001);
    for case in 0..CASES {
        let bytes = mutate(&seeds, &mut draws);
        check_head(case, &bytes);
        check(case, &bytes, MAX_BODY_BYTES, |wire| {
            match read_request(wire) {
                Ok(_) => Outcome::Ok,
                Err(super::ReadError::Io(_)) => Outcome::Io,
                Err(_) => Outcome::Refused,
            }
        });
    }
}

#[test]
fn hostile_response_heads_end_typed_within_the_cap() {
    let seeds: Vec<Vec<u8>> = [
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\
         Connection: keep-alive\r\nX-Request-Id: 00c0ffee-000007\r\n\r\n{}\n",
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 0\r\nConnection: close\r\nRetry-After: 1\r\n\r\n",
        "HTTP/1.1 307 Temporary Redirect\r\nLocation: http://127.0.0.1:9001/v1/run\r\n\
         Content-Length: 2\r\n\r\n{}",
        "HTTP/1.0 404 Not Found\nContent-Length: 2\n\n{}",
    ]
    .map(|raw| raw.as_bytes().to_vec())
    .to_vec();
    let mut draws = Draws(0x5EED_0002);
    for case in 0..CASES {
        let bytes = mutate(&seeds, &mut draws);
        check_head(case, &bytes);
        check(case, &bytes, MAX_PEER_BODY, |wire| {
            match read_response(wire) {
                Ok(_) => Outcome::Ok,
                Err(PeerError::Io(_)) => Outcome::Io,
                Err(_) => Outcome::Refused,
            }
        });
    }
}
