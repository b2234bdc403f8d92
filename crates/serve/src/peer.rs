//! A minimal blocking HTTP/1.1 client for intra-fleet hops.
//!
//! The serve layer talks to peers in exactly three shapes — a cache-fill
//! probe (`GET /v1/_fleet/cache/{hash}`), a full request proxy, and a
//! background health probe — and the first two sit on a request's
//! critical path, so the client is built around *failing fast*: a
//! bounded connect timeout, bounded read/write deadlines, and a small
//! attempt count (transport failures retry at once) before the caller
//! falls back to local compute.
//!
//! Since the fault-tolerance pass, connections are **kept alive and
//! pooled**: each client keeps a small per-peer stack of idle sockets
//! (bounded depth, staleness-evicted well inside the server's 5 s
//! keep-alive idle window), so a hot proxy path or a retried hop pays
//! one TCP connect, not one per hop. A pooled socket that turns out to
//! be stale — the peer closed it while parked — is discarded and the
//! attempt transparently redialed, never surfaced as a failure. When a
//! peer stalls past the deadline the stream drops (and the OS closes
//! the descriptor) on the error return path, so a flapping peer cannot
//! leak file descriptors into a long-lived server process; there are
//! fd-counting tests for both the timeout and the pooled path.
//!
//! A [`ChaosInjector`] can be armed on the client to inject refused
//! connects, hangs, truncated responses, and added latency — see
//! [`cnt_fleet::chaos`].

use crate::http::{self, ReadError};
use crate::server::KEEP_ALIVE_IDLE;
use cnt_fleet::chaos::{ChaosInjector, Fault};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest peer response body accepted (matches the serve layer's own
/// request-body ceiling order of magnitude; a cached report is ~KBs).
pub(crate) const MAX_PEER_BODY: usize = 4 * 1024 * 1024;

/// Most idle sockets parked per peer address.
const MAX_IDLE_PER_PEER: usize = 4;

/// How long a parked socket stays reusable. Must sit well inside the
/// server's idle window, [`KEEP_ALIVE_IDLE`] (5 s): a socket the
/// *server* is about to reap is worse than no socket, so we evict first.
const IDLE_TTL: Duration = Duration::from_millis(2_000);
const _: () = assert!(IDLE_TTL.as_millis() < KEEP_ALIVE_IDLE.as_millis());

/// A parsed peer response: status plus the framed body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (empty when the peer omitted it).
    pub content_type: String,
    /// Response body, exactly `Content-Length` bytes.
    pub body: String,
}

/// Why a peer hop failed; all variants mean "degrade to local compute".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerError {
    /// The peer address did not parse or the TCP connect failed/timed out.
    Connect(String),
    /// The connection was established but reading/writing failed or
    /// timed out.
    Io(String),
    /// The peer answered with something that is not framed HTTP/1.1.
    Protocol(String),
}

impl PeerError {
    /// Whether this failure is a transport error (retryable, counts
    /// against the peer's health) rather than a protocol one.
    pub fn is_transport(&self) -> bool {
        matches!(self, PeerError::Connect(_) | PeerError::Io(_))
    }
}

impl From<ReadError> for PeerError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => PeerError::Io(e.to_string()),
            ReadError::Malformed(m) | ReadError::TooLarge(m) => PeerError::Protocol(m),
        }
    }
}

impl core::fmt::Display for PeerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PeerError::Connect(m) => write!(f, "peer connect failed: {m}"),
            PeerError::Io(m) => write!(f, "peer i/o failed: {m}"),
            PeerError::Protocol(m) => write!(f, "peer protocol error: {m}"),
        }
    }
}

/// Per-peer stacks of parked keep-alive sockets.
#[derive(Debug, Default)]
struct ConnPool {
    idle: Mutex<HashMap<String, Vec<(TcpStream, Instant)>>>,
}

impl ConnPool {
    /// Pops the freshest reusable socket for `addr`, dropping any that
    /// sat parked past [`IDLE_TTL`].
    fn checkout(&self, addr: &str) -> Option<TcpStream> {
        let mut idle = self.idle.lock().unwrap();
        let stack = idle.get_mut(addr)?;
        while let Some((stream, parked_at)) = stack.pop() {
            if parked_at.elapsed() < IDLE_TTL {
                return Some(stream);
            }
            // Stale: fell out of the TTL while parked; closing it here
            // (drop) is cheaper than discovering the peer reaped it.
        }
        None
    }

    /// Parks a socket for reuse, evicting stale entries and bounding the
    /// stack depth.
    fn checkin(&self, addr: &str, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap();
        let stack = idle.entry(addr.to_string()).or_default();
        stack.retain(|(_, parked_at)| parked_at.elapsed() < IDLE_TTL);
        if stack.len() < MAX_IDLE_PER_PEER {
            stack.push((stream, Instant::now()));
        }
    }
}

/// Blocking HTTP client with per-call deadlines, pooled keep-alive
/// connections, an attempt count, and optional fault injection.
/// Cloning shares the pool and the chaos stream.
#[derive(Debug, Clone)]
pub struct PeerClient {
    connect_timeout: Duration,
    io_timeout: Duration,
    /// Tries per request (at least one); a transport failure retries at
    /// once, so a peer mid-restart recovers and a dead one fails in
    /// `attempts` connect timeouts.
    attempts: u32,
    pool: Arc<ConnPool>,
    chaos: Option<Arc<ChaosInjector>>,
    close_connections: bool,
}

impl PeerClient {
    /// A client that gives up connecting after `connect_timeout` and
    /// gives up on a silent established connection after `io_timeout`,
    /// trying each request twice.
    pub fn new(connect_timeout: Duration, io_timeout: Duration) -> Self {
        Self {
            connect_timeout,
            io_timeout,
            attempts: 2,
            pool: Arc::new(ConnPool::default()),
            chaos: None,
            close_connections: false,
        }
    }

    /// Sets how many times each request is tried (`0` behaves as `1`).
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// Shares `other`'s connection pool instead of this client's own.
    ///
    /// The serve layer runs one client per hop shape (cache-fill, proxy)
    /// with different deadlines — but against the same
    /// peers. Pooling separately would park one idle socket *per client*
    /// on each peer, and on the worker-per-connection server every parked
    /// socket occupies a worker until the keep-alive idle window expires.
    /// Sharing bounds the residue to one pool per instance. Deadlines
    /// stay per-client: they are (re)applied to every socket at checkout.
    #[must_use]
    pub fn sharing_pool_of(mut self, other: &PeerClient) -> Self {
        self.pool = Arc::clone(&other.pool);
        self
    }

    /// Sends `Connection: close` and never pools — for off-path callers
    /// like the health prober, whose rare hops must leave no parked
    /// socket (= no occupied worker) behind on a freshly revived peer.
    #[must_use]
    pub fn with_connection_close(mut self) -> Self {
        self.close_connections = true;
        self
    }

    /// Arms (or shares) a chaos injector on this client's hops.
    #[must_use]
    pub fn with_chaos(mut self, chaos: Option<Arc<ChaosInjector>>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Idle pooled sockets currently parked for `addr`.
    #[cfg(test)]
    pub fn idle_connections(&self, addr: &str) -> usize {
        let idle = self.pool.idle.lock().unwrap();
        idle.get(addr).map_or(0, Vec::len)
    }

    /// `GET path` against `addr`, tried up to the client's attempt count.
    ///
    /// # Errors
    ///
    /// Returns the *last* failure when every attempt dies on transport;
    /// protocol errors (a live peer speaking garbage) are not retried.
    pub fn get(&self, addr: &str, path: &str) -> Result<PeerResponse, PeerError> {
        self.request(addr, "GET", path, "", "", &[])
    }

    /// [`PeerClient::get`] with extra request headers — the carrier for
    /// trace/request-id propagation on fleet hops. Header values
    /// containing CR/LF are silently dropped (no header injection).
    ///
    /// # Errors
    ///
    /// Same policy as [`PeerClient::get`].
    pub fn get_with(
        &self,
        addr: &str,
        path: &str,
        headers: &[(String, String)],
    ) -> Result<PeerResponse, PeerError> {
        self.request(addr, "GET", path, "", "", headers)
    }

    /// `POST body` to `path` on `addr`, tried up to the client's attempt
    /// count.
    ///
    /// # Errors
    ///
    /// Same policy as [`PeerClient::get`].
    pub fn post(
        &self,
        addr: &str,
        path: &str,
        content_type: &str,
        body: &str,
    ) -> Result<PeerResponse, PeerError> {
        self.request(addr, "POST", path, content_type, body, &[])
    }

    /// [`PeerClient::post`] with extra request headers; same CR/LF
    /// policy as [`PeerClient::get_with`].
    ///
    /// # Errors
    ///
    /// Same policy as [`PeerClient::get`].
    pub fn post_with(
        &self,
        addr: &str,
        path: &str,
        content_type: &str,
        body: &str,
        headers: &[(String, String)],
    ) -> Result<PeerResponse, PeerError> {
        self.request(addr, "POST", path, content_type, body, headers)
    }

    #[allow(clippy::too_many_arguments)]
    fn request(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
        headers: &[(String, String)],
    ) -> Result<PeerResponse, PeerError> {
        let mut last = None;
        for _ in 0..self.attempts.max(1) {
            match self.request_once(addr, method, path, content_type, body, headers) {
                Err(err) if err.is_transport() => last = Some(err),
                done => return done,
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    #[allow(clippy::too_many_arguments)]
    fn request_once(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
        headers: &[(String, String)],
    ) -> Result<PeerResponse, PeerError> {
        let fault = self.chaos.as_deref().and_then(ChaosInjector::next_fault);
        match fault {
            Some(Fault::Refuse) => {
                return Err(PeerError::Connect("chaos: connection refused".to_string()));
            }
            Some(Fault::Hang) => {
                // The peer "accepted then went silent": burn the read
                // deadline, then fail exactly like a timeout.
                std::thread::sleep(self.io_timeout);
                return Err(PeerError::Io("chaos: peer accepted then hung".to_string()));
            }
            Some(Fault::Latency) => std::thread::sleep(
                self.chaos
                    .as_deref()
                    .map(ChaosInjector::latency)
                    .unwrap_or_default(),
            ),
            Some(Fault::Truncate) | None => {}
        }

        // A parked socket first; if the peer closed it while idle, the
        // exchange fails and we redial fresh without burning an attempt.
        // Deadlines are re-applied at checkout: a shared pool may hand us
        // a socket dialed by a client with different timeouts.
        if let Some(stream) = self.pool.checkout(addr) {
            let armed = stream
                .set_read_timeout(Some(self.io_timeout))
                .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
                .is_ok();
            if armed {
                if let Ok(response) =
                    self.exchange(stream, addr, method, path, content_type, body, headers)
                {
                    return self.apply_post_faults(fault, response);
                }
            }
        }
        let sock_addr: SocketAddr = addr
            .parse()
            .map_err(|e| PeerError::Connect(format!("bad address {addr}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, self.connect_timeout)
            .map_err(|e| PeerError::Connect(e.to_string()))?;
        // Without TCP_NODELAY, the last partial segment of a request
        // longer than one MSS waits for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .map_err(|e| PeerError::Io(e.to_string()))?;
        let response = self.exchange(stream, addr, method, path, content_type, body, headers)?;
        self.apply_post_faults(fault, response)
    }

    /// Applies faults that fire *after* a real exchange: a truncated
    /// response reached the wire but is useless to the caller.
    fn apply_post_faults(
        &self,
        fault: Option<Fault>,
        response: PeerResponse,
    ) -> Result<PeerResponse, PeerError> {
        match fault {
            Some(Fault::Truncate) => Err(PeerError::Io(
                "chaos: response truncated mid-body".to_string(),
            )),
            _ => Ok(response),
        }
    }

    /// One request/response on an established stream; parks the socket
    /// back in the pool when the response allows reuse.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &self,
        mut stream: TcpStream,
        addr: &str,
        method: &str,
        path: &str,
        content_type: &str,
        body: &str,
        headers: &[(String, String)],
    ) -> Result<PeerResponse, PeerError> {
        // HTTP/1.1 default framing is keep-alive: no Connection header
        // (unless this client opted out of pooling entirely). Head and
        // body share one buffer and one write: a body written after the
        // head waits on Nagle and the peer's delayed ACK (~40 ms per
        // POST on a reused loopback connection).
        let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
        if self.close_connections {
            request.push_str("Connection: close\r\n");
        }
        for (name, value) in headers {
            let clean = !name.contains(['\r', '\n', ':']) && !value.contains(['\r', '\n']);
            if clean && !name.is_empty() {
                request.push_str(&format!("{name}: {value}\r\n"));
            }
        }
        if !content_type.is_empty() {
            request.push_str(&format!("Content-Type: {content_type}\r\n"));
        }
        request.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        request.push_str(body);
        stream
            .write_all(request.as_bytes())
            .map_err(|e| PeerError::Io(e.to_string()))?;

        let mut reader = BufReader::new(stream);
        let (response, reusable) = read_response(&mut reader)?;
        if reusable && !self.close_connections {
            self.pool.checkin(addr, reader.into_inner());
        }
        Ok(response)
    }
}

/// Reads one framed response: the status line, then the shared head,
/// body and keep-alive readers of [`crate::http`]. Returns the response
/// and whether the connection may be reused.
pub(crate) fn read_response(reader: &mut impl BufRead) -> Result<(PeerResponse, bool), PeerError> {
    let (status_line, headers) = http::read_head(reader)?;
    let mut parts = status_line.split_whitespace();
    let http11 = parts.next() == Some("HTTP/1.1");
    let status = parts
        .next()
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| PeerError::Protocol(format!("bad status line {status_line:?}")))?;
    let body = http::read_body(reader, &headers, MAX_PEER_BODY)?;
    let response = PeerResponse {
        status,
        content_type: http::header(&headers, "content-type")
            .unwrap_or_default()
            .to_string(),
        body: String::from_utf8(body)
            .map_err(|_| PeerError::Protocol("non-utf8 body".to_string()))?,
    };
    Ok((response, http::keeps_alive(http11, &headers)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_fleet::chaos::ChaosConfig;
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    fn client() -> PeerClient {
        PeerClient::new(Duration::from_millis(200), Duration::from_millis(200))
    }

    /// Open descriptors of this process (Linux); `None` elsewhere.
    fn open_fds() -> Option<usize> {
        std::fs::read_dir("/proc/self/fd")
            .ok()
            .map(|entries| entries.count())
    }

    /// A server thread answering `responses` keep-alive requests per
    /// connection across `connections` accepts, then reporting how many
    /// connections it actually saw.
    fn keepalive_server(
        listener: TcpListener,
        connections: usize,
    ) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut seen = 0usize;
            for stream in listener.incoming().take(connections).flatten() {
                seen += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                loop {
                    // Read one request head (ours carry no bodies on GET).
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let mut length = 0usize;
                    loop {
                        let mut header = String::new();
                        if reader.read_line(&mut header).unwrap_or(0) == 0 {
                            return seen;
                        }
                        if header.trim_end().is_empty() {
                            break;
                        }
                        if let Some(value) = header
                            .trim_end()
                            .to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::trim)
                            .and_then(|v| v.parse::<usize>().ok())
                        {
                            length = value;
                        }
                    }
                    let mut body = vec![0u8; length];
                    if length > 0 && reader.read_exact(&mut body).is_err() {
                        break;
                    }
                    if stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .is_err()
                    {
                        break;
                    }
                }
            }
            seen
        })
    }

    #[test]
    fn parses_a_framed_response() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                   Content-Length: 8\r\n\r\n{\"a\":1}\n";
        let (response, reusable) = read_response(&mut Cursor::new(raw)).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/json");
        assert_eq!(response.body, "{\"a\":1}\n");
        assert!(reusable, "HTTP/1.1 without Connection: close is reusable");
    }

    #[test]
    fn connection_close_and_http10_are_not_reusable() {
        let close = "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let (_, reusable) = read_response(&mut Cursor::new(close)).unwrap();
        assert!(!reusable);
        let old = "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n";
        let (_, reusable) = read_response(&mut Cursor::new(old)).unwrap();
        assert!(!reusable);
        let keep = "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n";
        let (_, reusable) = read_response(&mut Cursor::new(keep)).unwrap();
        assert!(reusable, "HTTP/1.0 may opt in explicitly");
    }

    /// A one-connection server that reads a request and answers `raw`,
    /// then closes.
    fn answer_once(raw: &'static [u8]) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.read(&mut [0u8; 4096]);
            stream.write_all(raw).unwrap();
        });
        (addr, server)
    }

    #[test]
    fn a_response_head_cut_off_by_eof_is_an_io_error_and_is_not_parked() {
        for raw in [
            "HTTP/1.1 200 OK",
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n",
        ] {
            assert!(
                matches!(read_response(&mut Cursor::new(raw)), Err(PeerError::Io(_))),
                "accepted: {raw:?}"
            );
        }
        let (addr, server) = answer_once(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n");
        let client = client().with_attempts(1);
        let result = client.get(&addr, "/v1/healthz");
        server.join().unwrap();
        assert!(matches!(result, Err(PeerError::Io(_))), "{result:?}");
        assert_eq!(
            client.idle_connections(&addr),
            0,
            "a dead socket was parked"
        );
    }

    #[test]
    fn a_close_token_among_others_is_not_reusable() {
        let raw = "HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\nok";
        let (_, reusable) = read_response(&mut Cursor::new(raw)).unwrap();
        assert!(!reusable);
        let (addr, server) = answer_once(raw.as_bytes());
        let client = client();
        assert_eq!(client.get(&addr, "/v1/healthz").unwrap().body, "ok");
        server.join().unwrap();
        assert_eq!(
            client.idle_connections(&addr),
            0,
            "a closing socket was parked"
        );
    }

    #[test]
    fn rejects_garbage_status_lines() {
        assert!(matches!(
            read_response(&mut Cursor::new("not http at all\r\n\r\n")),
            Err(PeerError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort";
        assert!(matches!(
            read_response(&mut Cursor::new(raw)),
            Err(PeerError::Io(_))
        ));
    }

    #[test]
    fn an_oversized_response_head_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            let mut response = b"HTTP/1.1 200 OK\r\nX-Filler: ".to_vec();
            response.resize(response.len() + (1 << 20), b'a');
            response.extend_from_slice(b"\r\nContent-Length: 2\r\n\r\nok");
            // The client hangs up at the cap, so this write may fail.
            let _ = stream.write_all(&response);
        });
        let result = client().get(&addr.to_string(), "/v1/healthz");
        assert!(
            matches!(result, Err(PeerError::Protocol(_))),
            "a 1 MiB header line: {result:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn round_trips_against_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).unwrap();
            let request = String::from_utf8_lossy(&buf[..n]).to_string();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
            request
        });
        let response = client()
            .get(&addr.to_string(), "/v1/_fleet/cache/abc")
            .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "ok");
        let request = server.join().unwrap();
        assert!(request.starts_with("GET /v1/_fleet/cache/abc HTTP/1.1\r\n"));
        // Keep-alive framing: the hop no longer burns the connection.
        assert!(
            !request.contains("Connection: close"),
            "peer hops must not opt out of keep-alive: {request}"
        );
    }

    #[test]
    fn pooled_connections_are_reused_across_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = keepalive_server(listener, 1);
        let client = client();
        for _ in 0..10 {
            let response = client.get(&addr, "/v1/healthz").unwrap();
            assert_eq!(response.body, "ok");
        }
        assert_eq!(client.idle_connections(&addr), 1, "one parked socket");
        drop(client); // close the pooled socket so the server loop ends
        assert_eq!(
            server.join().unwrap(),
            1,
            "all 10 requests on one connection"
        );
    }

    #[test]
    fn pooled_posts_do_not_wait_on_delayed_acks() {
        // A body written after its head waits on Nagle plus the peer's
        // delayed ACK: ~40 ms per POST on a reused loopback connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = keepalive_server(listener, 1);
        let client = client();
        let started = Instant::now();
        for _ in 0..5 {
            let response = client
                .post(&addr, "/v1/_fleet/chunk", "application/json", "{\"lo\":0}")
                .unwrap();
            assert_eq!(response.body, "ok");
        }
        let elapsed = started.elapsed();
        drop(client);
        assert_eq!(server.join().unwrap(), 1, "all POSTs on one connection");
        assert!(
            elapsed < Duration::from_millis(100),
            "5 pooled POSTs took {elapsed:?}"
        );
    }

    #[test]
    fn clients_sharing_a_pool_reuse_one_socket() {
        // The serve layer's fill and proxy clients share a pool so a
        // relayed request parks ONE socket on the owner, not one per
        // client (each parked socket pins a server worker while idle).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = keepalive_server(listener, 1);
        let fill = PeerClient::new(Duration::from_millis(200), Duration::from_millis(200));
        let proxy = PeerClient::new(Duration::from_millis(200), Duration::from_secs(2))
            .sharing_pool_of(&fill);
        assert_eq!(fill.get(&addr, "/v1/_fleet/cache/abc").unwrap().status, 200);
        assert_eq!(
            proxy
                .post(&addr, "/v1/run", "application/json", "{}")
                .unwrap()
                .status,
            200
        );
        assert_eq!(fill.get(&addr, "/v1/_fleet/cache/def").unwrap().status, 200);
        assert_eq!(fill.idle_connections(&addr), 1, "one parked socket total");
        assert_eq!(proxy.idle_connections(&addr), 1, "same pool, same view");
        drop(fill);
        drop(proxy);
        assert_eq!(
            server.join().unwrap(),
            1,
            "fill and proxy hops rode one connection"
        );
    }

    #[test]
    fn connection_close_client_parks_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).unwrap();
            let request = String::from_utf8_lossy(&buf[..n]).to_string();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
            request
        });
        let prober = client().with_connection_close();
        let addr = addr.to_string();
        assert_eq!(prober.get(&addr, "/v1/healthz").unwrap().status, 200);
        let request = server.join().unwrap();
        assert!(
            request.contains("Connection: close\r\n"),
            "close client must announce itself: {request}"
        );
        assert_eq!(prober.idle_connections(&addr), 0, "nothing parked");
    }

    #[test]
    fn stale_pooled_socket_is_redialed_transparently() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Server answers exactly one request per connection, then closes
        // (without saying Connection: close — a silent reap, the worst
        // case for a pooled client).
        let server = std::thread::spawn(move || {
            let mut seen = 0usize;
            for stream in listener.incoming().take(2).flatten() {
                seen += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    if line.trim_end().is_empty() {
                        break;
                    }
                    line.clear();
                }
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
                // Drop closes the socket while the client has it pooled.
            }
            seen
        });
        let client = client();
        assert_eq!(client.get(&addr, "/a").unwrap().status, 200);
        // Give the server's close a moment to land in our socket.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            client.get(&addr, "/b").unwrap().status,
            200,
            "dead pooled socket must redial, not fail"
        );
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn pooled_reuse_does_not_leak_file_descriptors() {
        // The fd-regression companion to the timeout test below, for the
        // keep-alive path: many sequential requests must hold the fd
        // count at one parked socket, not one per request.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = keepalive_server(listener, 1);
        let client = client();
        assert_eq!(client.get(&addr, "/warm").unwrap().status, 200);
        let before = open_fds();
        for _ in 0..20 {
            assert_eq!(client.get(&addr, "/again").unwrap().status, 200);
        }
        if let (Some(before), Some(after)) = (before, open_fds()) {
            assert!(
                after <= before + 1,
                "fd count grew from {before} to {after} across pooled requests"
            );
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn extra_headers_ride_the_wire_and_injection_is_dropped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).unwrap();
            let request = String::from_utf8_lossy(&buf[..n]).to_string();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            request
        });
        let headers = vec![
            ("X-Trace-Id".to_string(), "00000000deadbeef".to_string()),
            ("X-Request-Id".to_string(), "ab12cd34-000001".to_string()),
            ("Evil".to_string(), "x\r\nInjected: yes".to_string()),
        ];
        let response = client()
            .post_with(
                &addr.to_string(),
                "/v1/run",
                "application/json",
                "{}",
                &headers,
            )
            .unwrap();
        assert_eq!(response.status, 200);
        let request = server.join().unwrap();
        assert!(
            request.contains("X-Trace-Id: 00000000deadbeef\r\n"),
            "{request}"
        );
        assert!(
            request.contains("X-Request-Id: ab12cd34-000001\r\n"),
            "{request}"
        );
        assert!(!request.contains("Injected"), "CR/LF value must be dropped");
        assert!(request.contains("Content-Type: application/json\r\n"));
    }

    #[test]
    fn dead_peer_fails_fast_with_connect_error() {
        // Bind then drop: the port is (almost certainly) refused.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = client().get(&addr, "/").unwrap_err();
        assert!(matches!(err, PeerError::Connect(_) | PeerError::Io(_)));
    }

    #[test]
    fn timed_out_fills_do_not_leak_file_descriptors() {
        // A listener that accepts but never answers: every request runs
        // into the read timeout. The dropped stream must return its fd.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Keep the accepted sockets open until every call finished, so the
        // clients see timeouts rather than a racing FIN from our drop.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let sink = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().take(20).flatten() {
                held.push(stream);
            }
            let _ = done_rx.recv();
        });
        let short = PeerClient::new(Duration::from_millis(200), Duration::from_millis(10));
        let before = open_fds();
        for _ in 0..10 {
            // 10 calls x 2 attempts each = 20 accepted-and-ignored sockets.
            assert!(matches!(short.get(&addr, "/"), Err(PeerError::Io(_))));
        }
        done_tx.send(()).unwrap();
        sink.join().unwrap();
        if let (Some(before), Some(after)) = (before, open_fds()) {
            assert!(
                after <= before + 2,
                "fd count grew from {before} to {after} across timed-out fills"
            );
        }
    }

    #[test]
    fn chaos_refuse_fails_without_dialing() {
        let config = ChaosConfig::parse("refuse=1.0").unwrap();
        let chaos = Arc::new(ChaosInjector::new(config));
        let armed = client().with_chaos(Some(chaos.clone()));
        // No server exists at this address; a real dial would error with
        // a different message than the injected one.
        let err = armed.get("127.0.0.1:1", "/").unwrap_err();
        assert_eq!(
            err,
            PeerError::Connect("chaos: connection refused".to_string())
        );
        assert_eq!(chaos.draws(), 2, "one draw per attempt");
        // One attempt tries once, and so does an attempt count of zero.
        for attempts in [1, 0] {
            let _ = armed
                .clone()
                .with_attempts(attempts)
                .get("127.0.0.1:1", "/");
        }
        assert_eq!(chaos.draws(), 4);
    }

    #[test]
    fn chaos_truncate_reaches_the_wire_but_fails_the_caller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = keepalive_server(listener, 1);
        let config = ChaosConfig::parse("truncate=1.0").unwrap();
        let armed = client().with_chaos(Some(Arc::new(ChaosInjector::new(config))));
        let err = armed.get(&addr, "/").unwrap_err();
        assert!(
            matches!(err, PeerError::Io(ref m) if m.contains("truncated")),
            "{err}"
        );
        drop(armed);
        server.join().unwrap();
    }

    #[test]
    fn chaos_latency_delays_but_succeeds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = keepalive_server(listener, 1);
        let config = ChaosConfig::parse("latency=1.0,latency_ms=30").unwrap();
        let armed = client().with_chaos(Some(Arc::new(ChaosInjector::new(config))));
        let started = Instant::now();
        let response = armed.get(&addr, "/").unwrap();
        assert_eq!(response.status, 200);
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "latency fault must actually delay"
        );
        drop(armed);
        server.join().unwrap();
    }
}
