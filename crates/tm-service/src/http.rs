//! A minimal HTTP/1.1 server and client over `std::net` — just enough
//! protocol for the service's JSON endpoint, with zero dependencies (the
//! shims spirit: offline, in-repo, the API subset this workspace needs).
//!
//! ## Server routes
//!
//! | Method | Path           | Body                | Response                       |
//! |--------|----------------|---------------------|--------------------------------|
//! | GET    | `/healthz`     | —                   | `{"ok": true}`                 |
//! | GET    | `/metrics`     | —                   | Prometheus text exposition     |
//! | GET    | `/v1/stats`    | —                   | [`crate::wire::encode_stats_full`] |
//! | GET    | `/v1/sessions` | —                   | [`crate::wire::encode_sessions`] |
//! | GET    | `/v1/store`    | —                   | [`crate::wire::encode_store`]  |
//! | GET    | `/v1/events`   | — (`?cursor=N`)     | [`crate::wire::encode_events`] |
//! | GET    | `/v1/profile`  | — (`?seconds=N`)    | folded stacks, plain text      |
//! | POST   | `/v1/batch`    | batch request JSON  | [`crate::wire::encode_results`]|
//! | POST   | `/v1/shutdown` | —                   | `{"ok": true}` then clean exit |
//!
//! `GET /v1/profile` starts the ~97 Hz sampling profiler on first use
//! (it stays running afterwards), sleeps for the requested window
//! (default 1 s, capped at 30 s), and answers with the folded-stack
//! delta over that window — pipe it straight into a flamegraph tool.
//! `GET /v1/events` tails the lifecycle journal: pass the
//! `next_cursor` a previous read returned to get only newer events.
//!
//! Requests may carry an `X-Request-Id` header; the id (or a generated
//! `req-N` fallback) is echoed back on the response and stamped on the
//! one structured log line each request emits under `TM_LOG=json`.
//!
//! Connections are one-request (`Connection: close`), each handled on
//! a connection thread of its own (reused for later connections), and
//! the [`Service`] is shared as a plain `Arc`: its
//! API is `&self`, so admitted batches **run concurrently** — sessions
//! on different instance sizes overlap, queries on one session
//! serialize, and artifacts in use are pinned against eviction (see the
//! service and registry docs for the lock hierarchy). `/healthz` takes
//! no lock at all, and `/v1/stats`, `/v1/sessions` and `/metrics` read
//! the service's metrics registry plus the short ledger lock, so they
//! answer immediately while long batches run. The accept
//! loop blocks in `accept`; `POST /v1/shutdown` sets a shutdown flag and
//! wakes it with one connection of its own, so [`serve`] drains
//! in-flight connections and returns — the clean shutdown the CI smoke
//! asserts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tm_automata::{fault, EngineError};
use tm_obs::LogValue;

use crate::service::{QueryResult, Service};
use crate::wire;

/// Upper bound on request bodies (16 MiB — a batch of millions of
/// queries; anything larger is a client bug).
const MAX_BODY_BYTES: usize = 16 << 20;

/// Upper bound on header count per request; more is a 431.
const MAX_HEADERS: usize = 100;

/// Upper bound on total header bytes per request; more is a 431.
const MAX_HEADER_BYTES: usize = 32 << 10;

/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// `Retry-After` seconds advertised on 429/503/504 responses.
const RETRY_AFTER_SECS: u64 = 1;

/// Runs the accept loop on `listener` until a `POST /v1/shutdown`
/// arrives, then joins every connection thread and returns the number of
/// connections served (the shutdown's wake-up connection is not one).
///
/// Each connection is handed to an idle connection thread, or to a new
/// one when none is idle; threads live until shutdown, so their number
/// is the peak number of concurrent connections. Reuse matters for
/// memory: a fresh thread per connection starts before the previous
/// one has exited whenever requests arrive back to back, and glibc then
/// gives it a malloc arena of its own — with two clients this raised
/// the daemon's peak RSS by half.
///
/// # Errors
///
/// Propagates fatal listener errors (transient per-connection I/O errors
/// only terminate that connection).
pub fn serve(listener: TcpListener, service: Arc<Service>) -> std::io::Result<u64> {
    listener.set_nonblocking(false)?;
    let shutdown = Arc::new(Shutdown {
        requested: AtomicBool::new(false),
        wake: wake_address(listener.local_addr()?),
    });
    let inflight = Arc::new(AtomicUsize::new(0));
    let max_inflight = service.max_inflight();
    let (queue, streams) = mpsc::channel::<TcpStream>();
    let streams = Arc::new(Mutex::new(streams));
    // Threads waiting for (or about to wait for) a connection, less the
    // connections already handed to them.
    let idle = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut served = 0u64;
    loop {
        let (stream, _) = listener.accept()?;
        // Checked on every accept, so a busy daemon cannot be kept alive
        // past /v1/shutdown by a stream of new connections. The
        // connection that finds the flag set — the wake-up, or a client
        // racing it — is closed unserved.
        if shutdown.is_requested() {
            break;
        }
        served += 1;
        if idle.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_err() {
            let (service, shutdown, inflight, streams, idle) = (
                Arc::clone(&service),
                Arc::clone(&shutdown),
                Arc::clone(&inflight),
                Arc::clone(&streams),
                Arc::clone(&idle),
            );
            handles.push(std::thread::spawn(move || loop {
                let next = streams.lock().unwrap_or_else(PoisonError::into_inner).recv();
                // The queue closes at shutdown.
                let Ok(stream) = next else { return };
                // Connection-level errors are the client's problem.
                let _ = handle_connection(&stream, &service, &shutdown, &inflight, max_inflight);
                // Idle before the close that ends the client's read, so
                // the client's next connection finds this thread.
                idle.fetch_add(1, Ordering::SeqCst);
                drop(stream);
            }));
        }
        queue
            .send(stream)
            .expect("connection threads hold the queue's receiver until it closes");
    }
    drop(queue);
    for handle in handles {
        let _ = handle.join();
    }
    Ok(served)
}

/// The shutdown flag of one [`serve`] loop and the address that wakes
/// its blocking `accept`.
struct Shutdown {
    requested: AtomicBool,
    wake: SocketAddr,
}

impl Shutdown {
    /// Sets the flag, then connects once so the accept loop sees it.
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        // A failed connect means the listener is already gone.
        let _ = TcpStream::connect_timeout(&self.wake, IO_TIMEOUT);
    }

    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// Where to connect to reach a listener bound at `local`: the address
/// itself, or loopback of the same family for a wildcard bind.
fn wake_address(mut local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => local.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => local.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    local
}

/// An admitted slot in the inflight-batch counter, released on `Drop` —
/// so a panicking connection thread (e.g. an injected panic fault)
/// cannot leak its increment and permanently shrink admission capacity.
struct InflightGuard<'a> {
    inflight: &'a AtomicUsize,
}

impl<'a> InflightGuard<'a> {
    /// Takes a slot. Returns `None` — taking nothing — when that would
    /// exceed `max_inflight` (`0` = unbounded).
    fn admit(inflight: &'a AtomicUsize, max_inflight: usize) -> Option<Self> {
        let admitted = inflight.fetch_add(1, Ordering::SeqCst) + 1;
        let guard = InflightGuard { inflight };
        if max_inflight > 0 && admitted > max_inflight {
            // Dropping the guard undoes the increment.
            None
        } else {
            Some(guard)
        }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A process-unique `req-N` id for requests that carry no
/// `X-Request-Id` header, so every log line has a correlatable id.
fn request_id_fallback() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    format!("req-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The `path` label of `tm_http_requests_total`: known routes verbatim,
/// everything else collapsed to `other` so arbitrary client paths
/// cannot explode the metric's cardinality.
fn route_label(path: &str) -> &'static str {
    // A query string never creates a new label.
    let path = path.split_once('?').map_or(path, |(path, _)| path);
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/stats" => "/v1/stats",
        "/v1/sessions" => "/v1/sessions",
        "/v1/store" => "/v1/store",
        "/v1/events" => "/v1/events",
        "/v1/profile" => "/v1/profile",
        "/v1/batch" => "/v1/batch",
        "/v1/shutdown" => "/v1/shutdown",
        _ => "other",
    }
}

/// The value of `name` in a `k=v&k2=v2` query string, if present.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

/// Emits the one structured log line this request gets (under
/// `TM_LOG=json`) and counts it in `tm_http_requests_total`.
fn observe_request(request_id: &str, method: &str, path: &str, status: u16, started: Instant) {
    tm_obs::global_counter(
        "tm_http_requests_total",
        "HTTP requests served, by route",
        &[("path", route_label(path))],
    )
    .inc();
    tm_obs::log_json(
        "http_request",
        &[
            ("request_id", LogValue::Str(request_id)),
            ("method", LogValue::Str(method)),
            ("path", LogValue::Str(path)),
            ("status", LogValue::U64(u64::from(status))),
            (
                "dur_ms",
                LogValue::U64(u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)),
            ),
        ],
    );
}

fn handle_connection(
    stream: &TcpStream,
    service: &Service,
    shutdown: &Shutdown,
    inflight: &AtomicUsize,
    max_inflight: usize,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Publish this connection thread into the sampling profiler for
    // the request's lifetime.
    let _profile = tm_obs::register_thread(tm_obs::ThreadKind::Http);
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let (method, path, body, request_id) = match read_request(&mut reader) {
        Ok(request) => request,
        Err((status, e)) => {
            let request_id = request_id_fallback();
            observe_request(&request_id, "", "", status, started);
            let body = format!("{{\"error\": \"bad request: {e}\"}}");
            let response = Response {
                status,
                content_type: "application/json",
                retry_after: None,
                request_id: &request_id,
            };
            return write_response(stream, &response, &body);
        }
    };
    let request_id = request_id.unwrap_or_else(request_id_fallback);
    // Queries run on this thread, so journal events they emit carry the
    // request id via the service's thread-local.
    let _request = crate::service::set_request_id(&request_id);
    let (status, content_type, body, retry_after) =
        route(&method, &path, &body, service, shutdown, inflight, max_inflight);
    observe_request(&request_id, &method, &path, status, started);
    let response = Response {
        status,
        content_type,
        retry_after,
        request_id: &request_id,
    };
    write_response(stream, &response, &body)
}

/// Reads one request: the request line, the headers (only
/// `Content-Length` and `X-Request-Id` are interpreted), and the body.
/// Errors carry the HTTP status to answer with — 431 when the header
/// section exceeds [`MAX_HEADERS`] lines or [`MAX_HEADER_BYTES`] bytes,
/// 400 otherwise.
#[allow(clippy::type_complexity)]
fn read_request<R: BufRead>(
    reader: &mut R,
) -> Result<(String, String, String, Option<String>), (u16, String)> {
    let bad = |e: String| (400u16, e);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| bad(format!("request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line".to_owned()))?.to_owned();
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no path".to_owned()))?
        .to_owned();
    let mut content_length = 0usize;
    let mut request_id: Option<String> = None;
    let mut headers = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let mut header = String::new();
        // Cap the *read* too, so one never-ending header line cannot
        // balloon the buffer past the total-bytes limit.
        reader
            .by_ref()
            .take((MAX_HEADER_BYTES + 2) as u64)
            .read_line(&mut header)
            .map_err(|e| bad(format!("headers: {e}")))?;
        if header.is_empty() {
            return Err(bad("truncated headers".to_owned()));
        }
        headers += 1;
        header_bytes += header.len();
        if headers > MAX_HEADERS || header_bytes > MAX_HEADER_BYTES {
            return Err((431, "header section exceeds the limit".to_owned()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad Content-Length: {e}")))?;
            } else if name.eq_ignore_ascii_case("x-request-id") {
                let value = value.trim();
                if !value.is_empty() {
                    request_id = Some(value.to_owned());
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad(format!("body of {content_length} bytes exceeds the limit")));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| bad(format!("body: {e}")))?;
    String::from_utf8(body)
        .map(|body| (method, path, body, request_id))
        .map_err(|_| bad("body is not UTF-8".to_owned()))
}

/// The HTTP status a finished batch maps to: any retryable abort makes
/// the whole response retryable — 504 for deadline expiry, 503 for
/// cancellation/injected faults — while abort reasons the client
/// cannot retry away (the state limit) map to 422. The body always
/// carries the full per-query results either way.
fn batch_status(results: &[QueryResult]) -> (u16, Option<u64>) {
    let aborts: Vec<EngineError> = results.iter().filter_map(QueryResult::abort_reason).collect();
    if aborts.contains(&EngineError::Deadline) {
        (504, Some(RETRY_AFTER_SECS))
    } else if aborts.iter().any(EngineError::is_retryable) {
        (503, Some(RETRY_AFTER_SECS))
    } else if !aborts.is_empty() {
        (422, None)
    } else {
        (200, None)
    }
}

/// JSON content type — every route except `/metrics`.
const JSON: &str = "application/json";

#[allow(clippy::too_many_arguments)]
fn route(
    method: &str,
    path: &str,
    body: &str,
    service: &Service,
    shutdown: &Shutdown,
    inflight: &AtomicUsize,
    max_inflight: usize,
) -> (u16, &'static str, String, Option<u64>) {
    // Split off the query string: `/v1/profile?seconds=2` routes as
    // `/v1/profile`.
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    match (method, path) {
        ("GET", "/healthz") => (200, JSON, "{\"ok\": true}".to_owned(), None),
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4",
            service.render_prometheus(),
            None,
        ),
        ("GET", "/v1/stats") => (
            200,
            JSON,
            wire::encode_stats_full(&service.stats(), &service.latency_quantiles()),
            None,
        ),
        ("GET", "/v1/sessions") => {
            (200, JSON, wire::encode_sessions(&service.sessions_snapshot()), None)
        }
        ("GET", "/v1/store") => (200, JSON, wire::encode_store(&service.store_entries()), None),
        ("GET", "/v1/events") => {
            let cursor = query_param(query, "cursor")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            (
                200,
                JSON,
                wire::encode_events(&tm_obs::global_journal().read_from(cursor)),
                None,
            )
        }
        ("GET", "/v1/profile") => {
            // The handler sleeps for the window on this connection
            // thread; other requests keep being served meanwhile.
            let seconds: u64 = query_param(query, "seconds")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1)
                .clamp(1, 30);
            let folded = tm_obs::collect_profile(Duration::from_secs(seconds));
            (200, "text/plain; charset=utf-8", folded, None)
        }
        ("POST", "/v1/batch") => {
            // Admission control: a draining daemon sheds everything with
            // 503, a saturated one sheds the excess with 429 — both with
            // Retry-After, before any decode work.
            if shutdown.is_requested() {
                return (
                    503,
                    JSON,
                    "{\"error\": \"draining\"}".to_owned(),
                    Some(RETRY_AFTER_SECS),
                );
            }
            let Some(_slot) = InflightGuard::admit(inflight, max_inflight) else {
                return (
                    429,
                    JSON,
                    "{\"error\": \"too many in-flight batches\"}".to_owned(),
                    Some(RETRY_AFTER_SECS),
                );
            };
            // `_slot` releases the admission on every exit from here —
            // including a panic unwinding out of `submit` or the encode
            // fault point below.
            match wire::decode_batch_request_traced(body) {
                Err(e) => (
                    400,
                    JSON,
                    format!("{{\"error\": {}}}", crate::wire::Json::Str(e.to_string())),
                    None,
                ),
                Ok((batch, deadline_ms, trace)) => {
                    let results = service.submit_traced(&batch, deadline_ms, trace);
                    let (status, retry_after) = batch_status(&results);
                    if let Err(error) = fault::fault_point("encode") {
                        return (
                            503,
                            JSON,
                            format!("{{\"error\": {}}}", crate::wire::Json::Str(error.to_string())),
                            Some(RETRY_AFTER_SECS),
                        );
                    }
                    (
                        status,
                        JSON,
                        wire::encode_results(&results, &service.stats()),
                        retry_after,
                    )
                }
            }
        }
        ("POST", "/v1/shutdown") => {
            shutdown.request();
            (200, JSON, "{\"ok\": true, \"shutting_down\": true}".to_owned(), None)
        }
        _ => (404, JSON, format!("{{\"error\": \"no route {method} {path}\"}}"), None),
    }
}

/// The response head: everything but the body.
struct Response<'a> {
    status: u16,
    content_type: &'static str,
    retry_after: Option<u64>,
    request_id: &'a str,
}

fn write_response(mut stream: &TcpStream, response: &Response<'_>, body: &str) -> std::io::Result<()> {
    let status = response.status;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    };
    let retry = response
        .retry_after
        .map_or(String::new(), |secs| format!("Retry-After: {secs}\r\n"));
    // Header values must stay a single line; a hostile X-Request-Id
    // with CR/LF must not become a header-injection vector.
    let request_id: String = response
        .request_id
        .chars()
        .filter(|c| !c.is_control())
        .take(128)
        .collect();
    let text = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nX-Request-Id: {request_id}\r\n{retry}Connection: close\r\n\r\n{body}",
        response.content_type,
        body.len()
    );
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// One-shot HTTP client request (the `tm-query` side): connects, sends
/// `method path` with an optional JSON body, returns `(status, body)`.
///
/// # Errors
///
/// Returns a human-readable message on connection, protocol, or
/// encoding failures.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_request_full(addr, method, path, body).map(|(status, body, _)| (status, body))
}

/// Extracts the `Retry-After` header (in whole seconds) from a response
/// head. Per RFC 9110 field names compare case-insensitively, so
/// `retry-after: 1` and `RETRY-AFTER: 1` parse the same as the
/// canonical spelling; an unparsable value reads as absent.
fn parse_retry_after(head: &str) -> Option<u64> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())
            .flatten()
    })
}

/// [`http_request`] that additionally surfaces the `Retry-After` header
/// in seconds, if the server sent one — what a backing-off client
/// honors on 429/503/504.
///
/// # Errors
///
/// Returns a human-readable message on connection, protocol, or
/// encoding failures.
pub fn http_request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String, Option<u64>), String> {
    http_request_with_id(addr, method, path, body, None)
}

/// [`http_request_full`] that additionally ships an `X-Request-Id`
/// header, which the server echoes and stamps on its log line.
///
/// # Errors
///
/// Returns a human-readable message on connection, protocol, or
/// encoding failures.
pub fn http_request_with_id(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    request_id: Option<&str>,
) -> Result<(u16, String, Option<u64>), String> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&resolved, IO_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let id_header =
        request_id.map_or(String::new(), |id| format!("X-Request-Id: {id}\r\n"));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{id_header}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let response = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status code")?;
    Ok((status, body.to_owned(), parse_retry_after(head)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_parses_case_insensitively() {
        let canonical = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nConnection: close";
        assert_eq!(parse_retry_after(canonical), Some(2));
        // RFC 9110 §5.1: field names are case-insensitive — a proxy may
        // rewrite the server's canonical spelling.
        let lower = "HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\nConnection: close";
        assert_eq!(parse_retry_after(lower), Some(3));
        let shouty = "HTTP/1.1 503 Service Unavailable\r\nRETRY-AFTER: 7";
        assert_eq!(parse_retry_after(shouty), Some(7));
        let spaced = "HTTP/1.1 503 Service Unavailable\r\n Retry-After :  5 ";
        assert_eq!(parse_retry_after(spaced), Some(5));
    }

    #[test]
    fn retry_after_ignores_absent_or_malformed_values() {
        assert_eq!(parse_retry_after("HTTP/1.1 200 OK\r\nContent-Length: 2"), None);
        // An HTTP-date (also legal per RFC 9110) is out of scope for
        // this client; it reads as absent rather than a parse error.
        let dated = "HTTP/1.1 429 x\r\nRetry-After: Fri, 08 Aug 2026 00:00:00 GMT";
        assert_eq!(parse_retry_after(dated), None);
        assert_eq!(parse_retry_after("HTTP/1.1 429 x\r\nRetry-After: -1"), None);
        // The name must match whole, not as a prefix.
        assert_eq!(parse_retry_after("HTTP/1.1 429 x\r\nX-Retry-After: 9"), None);
    }

    #[test]
    fn query_params_parse_and_do_not_pollute_route_labels() {
        assert_eq!(query_param("seconds=3", "seconds"), Some("3"));
        assert_eq!(query_param("cursor=12&seconds=3", "seconds"), Some("3"));
        assert_eq!(query_param("cursor=12", "seconds"), None);
        assert_eq!(query_param("", "seconds"), None);
        assert_eq!(query_param("seconds", "seconds"), None, "no '=' means no value");
        assert_eq!(route_label("/v1/profile?seconds=2"), "/v1/profile");
        assert_eq!(route_label("/v1/events?cursor=7"), "/v1/events");
        assert_eq!(route_label("/v1/nope?x=1"), "other");
    }

    #[test]
    fn inflight_guard_releases_on_drop_and_rejects_over_capacity() {
        let inflight = AtomicUsize::new(0);
        let first = InflightGuard::admit(&inflight, 2).expect("slot 1");
        let _second = InflightGuard::admit(&inflight, 2).expect("slot 2");
        assert!(InflightGuard::admit(&inflight, 2).is_none(), "capacity 2 is full");
        // A failed admission must not consume capacity.
        assert_eq!(inflight.load(Ordering::SeqCst), 2);
        drop(first);
        assert_eq!(inflight.load(Ordering::SeqCst), 1);
        assert!(InflightGuard::admit(&inflight, 2).is_some(), "slot freed by drop");
        // Unbounded admission never rejects.
        assert!(InflightGuard::admit(&inflight, 0).is_some());
    }
}
