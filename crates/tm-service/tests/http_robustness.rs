//! HTTP-level failure semantics: abort reasons map to status codes
//! (504 deadline, 422 state limit), overload and drain answer 429/503
//! with `Retry-After`, and oversized header sections answer 431 —
//! end-to-end through a real listener, never a hung or panicked server.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_service::wire::{decode_results, encode_batch_request};
use tm_service::{
    http_request, http_request_full, serve, EngineError, QueryOutcome, QuerySpec, Service,
    ServiceConfig,
};

fn spawn_server(config: ServiceConfig) -> (String, std::thread::JoinHandle<std::io::Result<u64>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = Arc::new(Service::new(config));
    let server = std::thread::spawn(move || serve(listener, service));
    (addr, server)
}

fn shutdown(addr: &str, server: std::thread::JoinHandle<std::io::Result<u64>>) {
    let (status, _) = http_request(addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.join().expect("server thread").expect("serve result");
}

/// The accept loop blocks in `accept`, and `/v1/shutdown` wakes it with
/// a connection of its own: with no other client, `serve` returns within
/// a second, also on a wildcard bind, and the wake-up connection is not
/// counted as served.
#[test]
fn serve_returns_promptly_after_shutdown_with_no_other_client() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let listener = TcpListener::bind(bind).expect("bind ephemeral port");
        let addr = format!("127.0.0.1:{}", listener.local_addr().expect("local addr").port());
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let server = std::thread::spawn(move || serve(listener, service));
        let asked = Instant::now();
        let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
        while !server.is_finished() && asked.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.is_finished(), "{bind}: serve still running 1 s after shutdown");
        let served = server.join().expect("server thread").expect("serve result");
        assert_eq!(served, 1, "{bind}: only the shutdown request is served");
    }
}

#[test]
fn a_request_deadline_maps_to_504_with_retry_after() {
    let (addr, server) = spawn_server(ServiceConfig::default());
    let batch = vec![QuerySpec::parse("dstm+aggressive:of:2:1").unwrap()];
    // deadline_ms = 0 is already expired: the whole batch sheds.
    let body = encode_batch_request(&batch, Some(0));
    let (status, body, retry_after) =
        http_request_full(&addr, "POST", "/v1/batch", Some(&body)).expect("batch");
    assert_eq!(status, 504, "{body}");
    assert!(retry_after.is_some(), "504 carries Retry-After");
    let (results, stats) = decode_results(&body).expect("aborted results still decode");
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].abort_reason(),
        Some(EngineError::Deadline),
        "{body}"
    );
    assert_eq!(stats.aborted_queries, 1);
    // A deadline-free retry of the same batch succeeds.
    let body = encode_batch_request(&batch, None);
    let (status, body) = http_request(&addr, "POST", "/v1/batch", Some(&body)).expect("retry");
    assert_eq!(status, 200, "{body}");
    let (results, _) = decode_results(&body).expect("decode");
    assert!(matches!(results[0].outcome, QueryOutcome::Verified));
    shutdown(&addr, server);
}

#[test]
fn a_state_limit_maps_to_422_without_retry_after() {
    let (addr, server) = spawn_server(ServiceConfig {
        max_states: 10,
        ..ServiceConfig::default()
    });
    let batch = vec![QuerySpec::parse("dstm:op:2:2").unwrap()];
    let body = encode_batch_request(&batch, None);
    let (status, body, retry_after) =
        http_request_full(&addr, "POST", "/v1/batch", Some(&body)).expect("batch");
    assert_eq!(status, 422, "{body}");
    assert_eq!(retry_after, None, "422 is not retryable");
    let (results, _) = decode_results(&body).expect("decode");
    assert_eq!(results[0].abort_reason(), Some(EngineError::StateLimit(10)));
    shutdown(&addr, server);
}

/// Sends raw bytes, half-closes the write side (so the server consumes
/// everything we sent and closes without a RST), and returns the raw
/// response.
fn raw_request(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

#[test]
fn oversized_header_sections_answer_431() {
    let (addr, server) = spawn_server(ServiceConfig::default());
    // Too many headers: the 101st line trips the count cap, so every
    // sent byte is consumed before the server answers and closes.
    let mut request = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..101 {
        request.push_str(&format!("X-Padding-{i}: x\r\n"));
    }
    let response = raw_request(&addr, &request);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // Too many header bytes: 33 lines of 1 KiB trip the 32 KiB byte cap
    // exactly on the last line sent.
    let mut request = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..33 {
        let prefix = format!("X-{i:03}: ");
        request.push_str(&format!("{prefix}{}\r\n", "y".repeat(1024 - prefix.len() - 2)));
    }
    let response = raw_request(&addr, &request);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // A normal request on a fresh connection still works.
    let (status, _) = http_request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    shutdown(&addr, server);
}

#[test]
fn overload_sheds_with_429_and_drain_with_503() {
    // max_inflight = 0 would disable shedding; 1 makes the second
    // concurrent batch observable. A slow query keeps the first batch
    // inside the service long enough to collide deterministically: we
    // use a liveness query at (2,2), the roster's slowest.
    let (addr, server) = spawn_server(ServiceConfig {
        max_inflight: 1,
        ..ServiceConfig::default()
    });
    let slow = encode_batch_request(
        &[
            QuerySpec::parse("dstm:op:2:2").unwrap(),
            QuerySpec::parse("TL2:op:2:2").unwrap(),
            QuerySpec::parse("2PL:op:2:2").unwrap(),
            QuerySpec::parse("sequential:op:2:2").unwrap(),
        ],
        None,
    );
    let addr_bg = addr.clone();
    let first = std::thread::spawn(move || {
        // Retry shedding: the probe below may win the single admission
        // slot for a moment.
        loop {
            let (status, body) =
                http_request(&addr_bg, "POST", "/v1/batch", Some(&slow)).expect("slow batch");
            if status != 429 {
                return (status, body);
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    });
    // Probe from the start until the slow batch has finished, so the
    // probes cover its whole admission window (a fixed head start can
    // outlast the batch): with max_inflight=1 a collision answers 429 +
    // Retry-After.
    let quick = encode_batch_request(&[QuerySpec::parse("sequential:ss:2:1").unwrap()], None);
    let mut saw_429 = false;
    while !first.is_finished() {
        let (status, _, retry_after) =
            http_request_full(&addr, "POST", "/v1/batch", Some(&quick)).expect("quick batch");
        if status == 429 {
            assert!(retry_after.is_some(), "429 carries Retry-After");
            saw_429 = true;
            break;
        }
        assert_eq!(status, 200);
    }
    let (status, _) = first.join().expect("first batch");
    assert_eq!(status, 200);
    assert!(saw_429, "never collided with the in-flight batch");

    // Draining: after shutdown is requested, late batches get 503 +
    // Retry-After (when the accept loop still picks them up) or a
    // connection error (once it exited) — never a hang.
    let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    if let Ok((status, _, retry_after)) =
        http_request_full(&addr, "POST", "/v1/batch", Some(&quick))
    {
        assert_eq!(status, 503);
        assert!(retry_after.is_some(), "503 carries Retry-After");
    }
    server.join().expect("server thread").expect("serve result");
}
