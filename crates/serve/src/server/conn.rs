//! The connection loop: a thread per accepted connection that reads,
//! routes and writes its requests back to back, each under its own
//! read/write deadline, and the per-request access log.

use super::{route, scope_for, AccessLogFormat, RequestScope, Shared, KEEP_ALIVE_IDLE};
use crate::api;
use crate::http::{self, ReadError, Response};
use cnt_obs::json;
use cnt_obs::trace_store::id_hex;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Stack of a connection thread. Run leaders compute on it, so it must
/// hold every registry kernel and the 128-deep JSON parse.
const CONNECTION_STACK: usize = 256 * 1024;
/// How often a connection waiting for a request's first byte checks for
/// shutdown, so idle keep-alive connections close promptly on drain.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// A `TcpStream` whose reads and writes all count against one wall-clock
/// deadline (each I/O call gets the *remaining* budget as its socket
/// timeout, so many slow little reads cannot add up past it).
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineStream {
    fn remaining(&self) -> std::io::Result<Duration> {
        self.deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "request deadline exceeded")
            })
    }
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.remaining()?;
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let remaining = self.remaining()?;
        self.stream.set_write_timeout(Some(remaining))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Gives one accepted connection a thread of its own, or answers it
/// `503` on the accept path when the connection cap is reached.
pub(super) fn dispatch(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Responses are written head-then-body; without TCP_NODELAY that
    // second small segment sits behind Nagle + the client's delayed
    // ACK (~40 ms per exchange on loopback, dwarfing the kernel time
    // on keep-alive round-trips).
    let _ = stream.set_nodelay(true);
    let Some(slot) = shared.connections.enter() else {
        refuse(stream, shared);
        return;
    };
    let worker = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("cnt-serve-conn".to_string())
        .stack_size(CONNECTION_STACK)
        .spawn(move || {
            let _slot = slot;
            handle_connection(stream, &worker);
        });
    if spawned.is_err() {
        // The closure, stream and slot included, is already dropped.
        shared.metrics.rejected.inc();
    }
}

/// Answers a connection over the cap: `503` + `Retry-After`, then close.
fn refuse(stream: TcpStream, shared: &Shared) {
    let started = Instant::now();
    let mut stream = DeadlineStream {
        stream,
        deadline: started + Duration::from_millis(100),
    };
    // Drain the bytes the client already sent: closing with unread data
    // turns into a TCP RST that can discard the response before the
    // client reads it. One bounded read covers the small request bodies
    // this API carries.
    let _ = stream.read(&mut [0u8; 8192]);
    let scope = scope_for(shared, None);
    let _ = send(
        &mut stream,
        shared.busy("connection table"),
        &scope,
        None,
        false,
        started,
        shared,
    );
    let _ = stream.stream.shutdown(std::net::Shutdown::Write);
}

/// Serves one connection on its own thread: requests back-to-back while
/// the client keeps the connection alive, each under its own read/write
/// deadline, until the client closes, `Connection: close`, an idle
/// timeout, shutdown, or an error ends it. Pipelined
/// requests already sitting in the buffered reader are served without
/// waiting.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline: Instant::now(),
    });
    let mut served = 0usize;
    let mut first_byte_within = shared.request_deadline;
    while request_arrives(&mut reader, first_byte_within, shared) {
        let started = Instant::now();
        let (scope, response, keep_alive, target) = match http::read_request(&mut reader) {
            Ok(request) => {
                shared.metrics.requests.base().inc();
                if served > 0 {
                    shared.metrics.keepalive_reuses.inc();
                }
                let target = (request.method.clone(), request.path.clone());
                let scope = scope_for(shared, Some(&request));
                let response = route(&request, &scope, shared);
                // Decided after routing, so a response finished during a
                // drain already tells the client the connection closes.
                let keep = request.wants_keep_alive() && !shared.stop.load(Ordering::SeqCst);
                (scope, response, keep, Some(target))
            }
            Err(ReadError::Malformed(message)) => (
                scope_for(shared, None),
                Response::json(400, api::error_json(&message)),
                false,
                None,
            ),
            Err(ReadError::TooLarge(message)) => (
                scope_for(shared, None),
                Response::json(413, api::error_json(&message)),
                false,
                None,
            ),
            Err(ReadError::Io(_)) => return, // died or timed out; nobody to answer
        };
        let target = target.as_ref().map(|(m, p)| (m.as_str(), p.as_str()));
        let written = send(
            reader.get_mut(),
            response,
            &scope,
            target,
            keep_alive,
            started,
            shared,
        );
        shared
            .metrics
            .request_seconds
            .record_duration(started.elapsed());
        if written.is_err() || !keep_alive {
            return;
        }
        served += 1;
        first_byte_within = KEEP_ALIVE_IDLE;
    }
}

/// Waits up to `within` for the first byte of the connection's next
/// request (pipelined bytes already buffered count at once), checking
/// for shutdown every [`IDLE_POLL`]. On `true` the read deadline is the
/// full per-request budget; `false` means the client closed, died or
/// stayed silent, or the server is draining.
fn request_arrives(
    reader: &mut BufReader<DeadlineStream>,
    within: Duration,
    shared: &Shared,
) -> bool {
    let until = Instant::now() + within;
    loop {
        reader.get_mut().deadline = until.min(Instant::now() + IDLE_POLL);
        match reader.fill_buf() {
            Ok([]) => return false, // closed cleanly between requests
            Ok(_) => {
                reader.get_mut().deadline = Instant::now() + shared.request_deadline;
                return true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && Instant::now() < until
                    && !shared.stop.load(Ordering::SeqCst) => {}
            Err(_) => return false,
        }
    }
}

/// Sends one response: stamps the scope's ids on it, counts it by
/// status, writes it under a fresh deadline (the computation does not
/// count against the request's read budget), and writes the access-log
/// line.
fn send(
    stream: &mut DeadlineStream,
    response: Response,
    scope: &RequestScope,
    target: Option<(&str, &str)>,
    keep_alive: bool,
    started: Instant,
    shared: &Shared,
) -> std::io::Result<()> {
    let trace_hex = id_hex(scope.trace.trace_id);
    let response = Response {
        request_id: Some(scope.request_id.clone()),
        trace_id: Some(trace_hex.clone()),
        ..response
    };
    shared.metrics.count_response(response.status);
    stream.deadline = Instant::now() + shared.request_deadline;
    let write_started = Instant::now();
    let written = response
        .write_to_with(stream, keep_alive)
        .and_then(|()| stream.flush());
    shared
        .metrics
        .write_seconds
        .record_duration(write_started.elapsed());
    if let Some(log_format) = shared.access_log {
        let (method, path) = target.unwrap_or(("-", "-"));
        print!(
            "{}",
            access_log_line(
                log_format,
                &AccessRecord {
                    request_id: &scope.request_id,
                    trace_id: &trace_hex,
                    method,
                    path,
                    experiment: experiment_of(path),
                    status: response.status,
                    bytes: response.content_length() as usize,
                    duration_s: started.elapsed().as_secs_f64(),
                },
            )
        );
    }
    written
}

/// One completed exchange, as the access log sees it.
pub(super) struct AccessRecord<'a> {
    pub(super) request_id: &'a str,
    /// The request's trace id, hex wire form — the join key across
    /// every fleet instance the request touched.
    pub(super) trace_id: &'a str,
    pub(super) method: &'a str,
    pub(super) path: &'a str,
    /// The experiment id for run/sweep lines, so per-experiment log
    /// slicing is a field match rather than a path regex.
    pub(super) experiment: Option<&'a str>,
    pub(super) status: u16,
    pub(super) bytes: usize,
    pub(super) duration_s: f64,
}

/// The experiment id an access-log line should carry: the `{id}` of
/// `POST /v1/experiments/{id}/run` and `POST /v1/sweeps/{id}` paths.
pub(super) fn experiment_of(path: &str) -> Option<&str> {
    let path = path.trim_end_matches('/');
    if let Some(rest) = path.strip_prefix("/v1/experiments/") {
        return rest
            .strip_suffix("/run")
            .filter(|id| !id.is_empty() && !id.contains('/'));
    }
    path.strip_prefix("/v1/sweeps/")
        .filter(|id| !id.is_empty() && !id.contains('/'))
}

/// Renders one access-log line (trailing newline included). The
/// timestamp is unix seconds at render time; method and path are
/// client-controlled and escaped accordingly in the JSON form.
pub(super) fn access_log_line(log_format: AccessLogFormat, record: &AccessRecord<'_>) -> String {
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    match log_format {
        AccessLogFormat::Text => format!(
            "{ts:.3} {} \"{} {}\" {} {}B {:.6}s trace={}\n",
            record.request_id,
            record.method,
            record.path,
            record.status,
            record.bytes,
            record.duration_s,
            record.trace_id,
        ),
        AccessLogFormat::Json => {
            let mut out = String::with_capacity(200);
            out.push_str(&format!("{{\"ts\":{ts:.3},\"request_id\":"));
            json::push_string(record.request_id, &mut out);
            out.push_str(",\"trace_id\":");
            json::push_string(record.trace_id, &mut out);
            out.push_str(",\"method\":");
            json::push_string(record.method, &mut out);
            out.push_str(",\"path\":");
            json::push_string(record.path, &mut out);
            if let Some(id) = record.experiment {
                out.push_str(",\"experiment\":");
                json::push_string(id, &mut out);
            }
            out.push_str(&format!(
                ",\"status\":{},\"bytes\":{},\"duration_s\":{:.6}}}\n",
                record.status, record.bytes, record.duration_s,
            ));
            out
        }
    }
}
