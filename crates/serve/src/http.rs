//! HTTP/1.1 message framing (RFC 9112) over blocking streams: the
//! server reads requests and writes responses here, and the peer client
//! ([`crate::peer`]) reads its responses with the same head reader, body
//! reader and keep-alive rule.
//!
//! Exactly what the `/v1` routes need, nothing more: `Content-Length`
//! bodies only (no chunked transfer) and hard caps on head and body size
//! so a misbehaving peer cannot balloon a worker. Connections are
//! persistent by HTTP/1.1 default — the server loop serves requests
//! back-to-back (pipelined bytes included, since they sit in the same
//! buffered reader) until the client sends `Connection: close`, an
//! HTTP/1.0 client omits `Connection: keep-alive`, or the idle timeout
//! expires. Anything outside that subset is answered with a
//! `400`/`405`/`413` by the server loop rather than a hang.

use std::io::{BufRead, Read, Write};

/// Largest accepted message head (start line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// The request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target's path component (any `?query` is split off).
    pub path: String,
    /// Whether the request line carried `HTTP/1.1` (vs `HTTP/1.0`).
    pub http11: bool,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Whether the client asked to keep the connection open.
    pub fn wants_keep_alive(&self) -> bool {
        keeps_alive(self.http11, &self.headers)
    }
}

/// Why a message could not be read (each maps to one server response).
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically broken message → `400`.
    Malformed(String),
    /// Head or body over the cap → `413`.
    TooLarge(String),
    /// The connection died mid-message → drop it, nothing to answer.
    Io(std::io::Error),
}

/// Reads one request from a buffered stream.
///
/// # Errors
///
/// See [`ReadError`].
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ReadError> {
    let (line, headers) = read_head(reader)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ReadError::Malformed(format!("bad request line '{line}'"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let body = read_body(reader, &headers, MAX_BODY_BYTES)?;
    Ok(Request {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        http11: version == "HTTP/1.1",
        headers,
        body,
    })
}

/// Reads one message head: the start line and the header `(name, value)`
/// pairs up to the blank line, names lower-cased. Each line (ended by
/// CRLF or a bare LF) is read through what is left of the
/// [`MAX_HEAD_BYTES`] budget, so nothing past the cap is buffered. EOF
/// before the blank line is an I/O error; a non-UTF-8 head is malformed.
pub(crate) fn read_head(
    reader: &mut impl BufRead,
) -> Result<(String, Vec<(String, String)>), ReadError> {
    let mut budget = MAX_HEAD_BYTES;
    let mut next_line = || {
        let mut line = Vec::new();
        reader
            .by_ref()
            .take(budget as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(ReadError::Io)?;
        budget = budget.checked_sub(line.len()).ok_or_else(|| {
            ReadError::TooLarge(format!("head exceeds the {MAX_HEAD_BYTES} byte cap"))
        })?;
        if line.last() != Some(&b'\n') {
            return Err(ReadError::Io(std::io::ErrorKind::UnexpectedEof.into()));
        }
        while matches!(line.last(), Some(b'\n' | b'\r')) {
            line.pop();
        }
        String::from_utf8(line).map_err(|_| ReadError::Malformed("head is not UTF-8".to_string()))
    };
    let start_line = next_line()?;
    let mut headers = Vec::new();
    loop {
        let line = next_line()?;
        if line.is_empty() {
            return Ok((start_line, headers));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads the body a `Content-Length` header announces (none: empty),
/// refusing one over `cap` bytes before reading any of it.
pub(crate) fn read_body(
    reader: &mut impl Read,
    headers: &[(String, String)],
    cap: usize,
) -> Result<Vec<u8>, ReadError> {
    let length = match header(headers, "content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("bad content-length '{v}'")))?,
    };
    if length > cap {
        return Err(ReadError::TooLarge(format!(
            "body of {length} bytes exceeds the {cap} byte cap"
        )));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(ReadError::Io)?;
    Ok(body)
}

/// The first value of a header, by lower-case name.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Whether a connection stays open after a message: HTTP/1.1 defaults
/// to persistent unless `Connection: close`; HTTP/1.0 is persistent only
/// with an explicit `Connection: keep-alive`. The `Connection` header is
/// a comma-separated token list, compared case-insensitively, and a
/// `close` token wins for either version (RFC 7230 §6.1).
pub(crate) fn keeps_alive(http11: bool, headers: &[(String, String)]) -> bool {
    let has_token = |token: &str| {
        header(headers, "connection").is_some_and(|v| {
            v.split(',')
                .any(|part| part.trim().eq_ignore_ascii_case(token))
        })
    };
    !has_token("close") && (http11 || has_token("keep-alive"))
}

/// An outgoing response: status, content type, optional `Retry-After`,
/// optional `Location`, optional `X-Request-Id`, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` seconds (the `503` backpressure hint).
    pub retry_after: Option<u32>,
    /// `Location` header value (the `307` fleet-redirect target).
    pub location: Option<String>,
    /// `X-Request-Id` header value; the server loop stamps one onto
    /// every response it sends (the same id its access log records).
    pub request_id: Option<String>,
    /// `X-Trace-Id` header value; the server loop stamps the request's
    /// distributed-trace id so clients can fetch `/v1/trace/{id}`.
    pub trace_id: Option<String>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            retry_after: None,
            location: None,
            request_id: None,
            trace_id: None,
            body,
        }
    }

    /// Serializes head and body onto `out`, advertising the connection's
    /// fate: `Connection: keep-alive` when the server will serve another
    /// request on this stream, `Connection: close` otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the stream's I/O error.
    pub fn write_to_with(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        if let Some(target) = &self.location {
            head.push_str(&format!("Location: {target}\r\n"));
        }
        if let Some(id) = &self.request_id {
            head.push_str(&format!("X-Request-Id: {id}\r\n"));
        }
        if let Some(id) = &self.trace_id {
            head.push_str(&format!("X-Trace-Id: {id}\r\n"));
        }
        head.push_str("\r\n");
        out.write_all(head.as_bytes())?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

/// The reason phrase for every status this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        307 => "Temporary Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod hostile_heads;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/experiments/fig12/run?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/experiments/fig12/run");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse("GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/9\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Malformed(_))),
                "accepted: {raw:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_bodies_and_truncated_requests() {
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(matches!(parse(&huge), Err(ReadError::TooLarge(_))));
        let truncated = "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(truncated), Err(ReadError::Io(_))));
    }

    /// Counts the bytes its inner reader handed out.
    struct Counting<R> {
        inner: R,
        served: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn an_endless_header_line_stops_at_the_head_cap() {
        // 4 MiB of one header line stands in for an endless one: a reader
        // that buffers the line whole consumes all of it.
        let wire = b"GET /v1/healthz HTTP/1.1\r\n".chain(std::io::repeat(b'a').take(4 << 20));
        let mut reader = BufReader::new(Counting {
            inner: wire,
            served: 0,
        });
        let capacity = reader.capacity();
        assert!(matches!(
            read_request(&mut reader),
            Err(ReadError::TooLarge(_))
        ));
        let served = reader.get_ref().served;
        assert!(
            served <= MAX_HEAD_BYTES + capacity,
            "read {served} bytes for a {MAX_HEAD_BYTES} byte head cap"
        );
    }

    #[test]
    fn a_non_utf8_request_head_is_malformed() {
        for raw in [
            &b"GET /v1/health\xff HTTP/1.1\r\nHost: t\r\n\r\n"[..],
            &b"GET /v1/healthz HTTP/1.1\r\nHost: \xc3\x28\r\n\r\n"[..],
        ] {
            let parsed = read_request(&mut BufReader::new(raw));
            assert!(
                matches!(parsed, Err(ReadError::Malformed(_))),
                "{parsed:?} for {raw:?}"
            );
        }
    }

    #[test]
    fn a_request_head_cut_off_by_eof_is_an_io_error() {
        for raw in [
            "GET /v1/healthz HTTP/1.1",
            "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n",
            "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r",
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Io(_))),
                "accepted: {raw:?}"
            );
        }
    }

    #[test]
    fn a_head_of_exactly_the_cap_is_read_and_one_byte_more_is_not() {
        let request = |head_bytes: usize| {
            let start = "GET /x HTTP/1.1\r\nX-Filler: ";
            let filler = "a".repeat(head_bytes - start.len() - "\r\n\r\n".len());
            format!("{start}{filler}\r\n\r\n")
        };
        assert!(parse(&request(MAX_HEAD_BYTES)).is_ok());
        assert!(matches!(
            parse(&request(MAX_HEAD_BYTES + 1)),
            Err(ReadError::TooLarge(_))
        ));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let keep = |raw: &str| parse(raw).unwrap().wants_keep_alive();
        // HTTP/1.1: persistent by default, closed on request.
        assert!(keep("GET /v1/healthz HTTP/1.1\r\n\r\n"));
        assert!(!keep(
            "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        ));
        assert!(!keep(
            "GET /v1/healthz HTTP/1.1\r\nConnection: CLOSE\r\n\r\n"
        ));
        assert!(!keep(
            "GET /v1/healthz HTTP/1.1\r\nConnection: foo, Close\r\n\r\n"
        ));
        // HTTP/1.0: closed by default, persistent on request.
        assert!(!keep("GET /v1/healthz HTTP/1.0\r\n\r\n"));
        assert!(keep(
            "GET /v1/healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        ));
        // close wins over keep-alive for either version (RFC 7230 §6.1).
        assert!(!keep(
            "GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n"
        ));
        assert!(!keep(
            "GET /v1/healthz HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
        let req = parse("GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.http11);
        assert!(parse("GET /x HTTP/1.1\r\n\r\n").unwrap().http11);
    }

    #[test]
    fn keep_alive_response_advertises_it() {
        let mut out = Vec::new();
        Response::json(200, "{}\n".to_string())
            .write_to_with(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        Response::json(200, "{}\n".to_string())
            .write_to_with(&mut out, false)
            .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}\n"
        );
        let mut busy = Vec::new();
        Response {
            retry_after: Some(1),
            ..Response::json(503, String::new())
        }
        .write_to_with(&mut busy, false)
        .unwrap();
        let text = String::from_utf8(busy).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn redirect_carries_a_location_header() {
        let mut out = Vec::new();
        Response {
            location: Some("http://127.0.0.1:9001/v1/experiments/fig12/run".to_string()),
            ..Response::json(307, String::new())
        }
        .write_to_with(&mut out, false)
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 307 Temporary Redirect\r\n"));
        assert!(
            text.contains("Location: http://127.0.0.1:9001/v1/experiments/fig12/run\r\n"),
            "{text}"
        );
    }

    #[test]
    fn request_id_header_is_emitted_when_set() {
        let mut out = Vec::new();
        Response {
            request_id: Some("00c0ffee-000007".to_string()),
            ..Response::json(200, "{}\n".to_string())
        }
        .write_to_with(&mut out, false)
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: 00c0ffee-000007\r\n"), "{text}");
    }

    #[test]
    fn trace_id_header_is_emitted_when_set() {
        let mut out = Vec::new();
        Response {
            trace_id: Some("00000000deadbeef".to_string()),
            ..Response::json(200, "{}\n".to_string())
        }
        .write_to_with(&mut out, false)
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Trace-Id: 00000000deadbeef\r\n"), "{text}");
        // Absent by default: the exact-wire-format test stays valid.
        assert!(Response::json(200, String::new()).trace_id.is_none());
    }
}
