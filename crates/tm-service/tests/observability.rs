//! Observability acceptance: traces must attach exactly when requested
//! and leave every other field of a result unchanged, the busy clock
//! must stay within its documented envelope under concurrent batches,
//! and the `/metrics` + `X-Request-Id` HTTP surfaces must round-trip.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use tm_service::wire::{decode_results, encode_batch_request_traced};
use tm_service::{http_request, serve, table2_batch, table3_batch, Service, ServiceConfig};

#[test]
fn traces_attach_exactly_when_requested() {
    let mut batch = table3_batch();
    batch.extend(table2_batch());
    // A fresh service on each side, so even the caching flags agree.
    let untraced = Service::new(ServiceConfig::default()).submit_traced(&batch, None, false);
    assert!(untraced.iter().all(|r| r.trace.is_none()));

    let mut traced = Service::new(ServiceConfig::default()).submit_traced(&batch, None, true);
    for result in &mut traced {
        let trace = result.trace.take().unwrap_or_else(|| {
            panic!("{}: trace requested but absent", result.spec)
        });
        assert!(
            trace.total_ns() > 0,
            "{}: a real query spends time in some phase",
            result.spec
        );
        assert!(
            !trace.events.is_empty(),
            "{}: trace:true captures individual spans",
            result.spec
        );
    }
    // With the traces stripped, verdicts, words, lassos, state counts
    // and caching flags are identical: tracing is passive.
    assert_eq!(traced, untraced);
}

#[test]
fn busy_clock_stays_inside_its_envelope() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    // Two concurrent batches over the same sessions. Whether they
    // overlap depends on the scheduler, so only the bounds that hold
    // either way are checked here; that overlapping batches sum past the
    // unioned clock is pinned deterministically by the `BusyClock` unit
    // test in `service.rs`.
    let batch = table3_batch();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let service = Arc::clone(&service);
            let batch = batch.clone();
            scope.spawn(move || service.submit(&batch));
        }
    });
    let stats = service.stats();
    assert!(stats.batch_ns > 0);
    assert!(stats.busy_wall_ns > 0);
    assert!(
        stats.busy_wall_ns <= stats.uptime_ns,
        "union of busy intervals cannot exceed uptime: {stats:?}"
    );
}

#[test]
fn http_metrics_and_request_id_round_trip() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let server = std::thread::spawn(move || serve(listener, service));

    // A traced batch with an explicit request id: the response must echo
    // the id verbatim and carry a trace per result.
    let body = encode_batch_request_traced(&table3_batch()[..2], None, true);
    let request = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: {addr}\r\nX-Request-Id: obs-test-7\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(
        response.contains("X-Request-Id: obs-test-7"),
        "response echoes the request id: {response}"
    );
    let payload = response.split("\r\n\r\n").nth(1).expect("body");
    let (results, _) = decode_results(payload).expect("response decodes");
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.trace.is_some()));

    // The scrape surface: parses as Prometheus text (histogram
    // invariants included) and carries the serving series.
    let (status, exposition) = http_request(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    let parsed = tm_obs::text::parse_prometheus(&exposition)
        .unwrap_or_else(|e| panic!("bad exposition: {e}\n{exposition}"));
    for name in [
        "tm_queries_total",
        "tm_query_seconds",
        "tm_cache_hits_total",
        "tm_artifact_builds_total",
        "tm_serve_busy_ratio",
        "tm_tracked_bytes",
        "tm_peak_tracked_bytes",
        "tm_phase_seconds",
        "tm_http_requests_total",
    ] {
        assert!(parsed.has_series(name), "missing {name}:\n{exposition}");
    }
    // The busy-ratio gauge is refreshed at scrape time and stays a
    // fraction of uptime.
    let ratio = parsed.series("tm_serve_busy_ratio")[0].value;
    assert!((0.0..=1.0).contains(&ratio), "busy ratio {ratio}");

    let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.join().expect("server thread").expect("serve result");
}
