//! Introspection acceptance: the sampling profiler must be
//! conformance-neutral (verdicts with the sampler running are
//! bit-identical to verdicts without it), the
//! lifecycle journal must record real service events with request ids,
//! and the live endpoints — `/v1/sessions`, `/v1/store`, `/v1/events`,
//! `/v1/profile`, and the quantile-bearing `/v1/stats` — must serve
//! real data over HTTP.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use tm_obs::EventKind;
use tm_service::{
    http_request, http_request_with_id, serve, table2_batch, table3_batch, Json, QuerySpec,
    Service, ServiceConfig,
};

/// Serializes tests that use process-global observability state (the
/// sampler, the journal) and stops the sampler on drop.
struct GlobalObs {
    _guard: MutexGuard<'static, ()>,
}

impl GlobalObs {
    fn hold() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        GlobalObs { _guard: guard }
    }
}

impl Drop for GlobalObs {
    fn drop(&mut self) {
        tm_obs::stop_sampler();
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tm-service-introspection-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn paper_batch() -> Vec<QuerySpec> {
    let mut batch = table3_batch();
    batch.extend(table2_batch());
    batch
}

#[test]
fn sampling_profiler_is_conformance_neutral() {
    let _global = GlobalObs::hold();
    let batch = paper_batch();
    let without_sampler = Service::new(ServiceConfig::default()).submit(&batch);
    tm_obs::start_sampler();
    let with_sampler = Service::new(ServiceConfig::default()).submit(&batch);
    tm_obs::stop_sampler();
    // Fresh service on each side, so even the caching flags must
    // agree; the sampler only reads the per-thread slots.
    assert_eq!(with_sampler, without_sampler);
}

#[test]
fn service_lifecycle_lands_in_the_journal() {
    let _global = GlobalObs::hold();
    let cursor = tm_obs::global_journal().head();
    let service = Service::new(ServiceConfig::default());
    service.submit(&table3_batch());
    let read = tm_obs::global_journal().read_from(cursor);
    let builds: Vec<_> = read
        .events
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Build)
        .collect();
    assert!(
        builds.len() >= 4,
        "table 3 builds 4 run graphs, journal saw {} builds",
        builds.len()
    );
    for (_, event) in &builds {
        assert!(event.key.contains("run-graph"), "key {:?}", event.key);
        assert!(event.bytes > 0, "a built run graph has a heap size");
        assert!(
            event.request_id.is_empty(),
            "in-process submits carry no request id"
        );
        assert!(event.at_unix_ms > 0);
    }
}

#[test]
fn introspection_endpoints_serve_over_http() {
    let _global = GlobalObs::hold();
    let dir = scratch_dir("http");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = Arc::new(Service::new(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    }));
    let server = std::thread::spawn(move || serve(listener, service));

    // Tail position before the batch, so the events read below sees
    // exactly this batch's lifecycle.
    let (status, body) = http_request(&addr, "GET", "/v1/events", None).expect("events");
    assert_eq!(status, 200);
    let cursor = Json::parse(&body)
        .expect("events body parses")
        .get("next_cursor")
        .and_then(Json::as_usize)
        .expect("next_cursor");

    let batch = tm_service::wire::encode_batch(&table3_batch()[..3]);
    let (status, _, _) =
        http_request_with_id(&addr, "POST", "/v1/batch", Some(&batch), Some("intro-42"))
            .expect("batch");
    assert_eq!(status, 200);

    // /v1/stats carries the latency quantile summary.
    let (status, body) = http_request(&addr, "GET", "/v1/stats", None).expect("stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).expect("stats body parses");
    let latency = stats.get("latency").expect("latency member");
    assert!(latency.get("count").and_then(Json::as_usize).expect("count") >= 3);
    let quantile = |key: &str| latency.get(key).and_then(Json::as_f64).expect("quantile");
    assert!(quantile("p50_s") > 0.0);
    assert!(quantile("p50_s") <= quantile("p95_s"));
    assert!(quantile("p95_s") <= quantile("p99_s"));

    // /v1/sessions: one row for the (2,1) session with build work.
    let (status, body) = http_request(&addr, "GET", "/v1/sessions", None).expect("sessions");
    assert_eq!(status, 200);
    let sessions = Json::parse(&body).expect("sessions body parses");
    let rows = sessions.get("sessions").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("threads").and_then(Json::as_usize), Some(2));
    assert_eq!(rows[0].get("vars").and_then(Json::as_usize), Some(1));
    assert!(rows[0].get("builds").and_then(Json::as_usize).expect("builds") > 0);
    assert!(rows[0].get("heap_bytes").and_then(Json::as_usize).expect("heap") > 0);
    assert!(rows[0].get("lock_waits").and_then(Json::as_usize).expect("locks") >= 3);

    // /v1/store: write-through persisted the built artifacts.
    let (status, body) = http_request(&addr, "GET", "/v1/store", None).expect("store");
    assert_eq!(status, 200);
    let store = Json::parse(&body).expect("store body parses");
    let count = store.get("count").and_then(Json::as_usize).expect("count");
    assert!(count > 0, "write-through leaves files: {body}");
    let files = store.get("files").and_then(Json::as_arr).expect("files");
    assert_eq!(files.len(), count);
    assert!(files[0].get("file").and_then(Json::as_str).unwrap().ends_with(".tmart"));

    // /v1/events from the pre-batch cursor: build events stamped with
    // the batch's request id.
    let path = format!("/v1/events?cursor={cursor}");
    let (status, body) = http_request(&addr, "GET", &path, None).expect("events");
    assert_eq!(status, 200);
    let events = Json::parse(&body).expect("events body parses");
    assert_eq!(events.get("dropped").and_then(Json::as_usize), Some(0));
    let rows = events.get("events").and_then(Json::as_arr).expect("events");
    let build_with_id = rows.iter().any(|e| {
        e.get("kind").and_then(Json::as_str) == Some("build")
            && e.get("request_id").and_then(Json::as_str) == Some("intro-42")
    });
    assert!(build_with_id, "a build event carries the request id: {body}");

    // /v1/profile: the sampler runs for the window and folds the
    // connection thread held by an open, silent client connection (the
    // thread serving the profile itself is left out).
    let silent = std::net::TcpStream::connect(&addr).expect("silent connection");
    let (status, profile) =
        http_request(&addr, "GET", "/v1/profile?seconds=1", None).expect("profile");
    drop(silent);
    assert_eq!(status, 200);
    assert!(
        profile.lines().any(|l| {
            l.rsplit_once(' ').is_some_and(|(stack, count)| {
                !stack.is_empty() && count.parse::<u64>().is_ok()
            })
        }),
        "folded stacks are '<stack> <count>' lines: {profile:?}"
    );

    let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.join().expect("server thread").expect("serve result");
    tm_obs::stop_sampler();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_daemon_profiles_to_an_empty_body() {
    let _global = GlobalObs::hold();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let server = std::thread::spawn(move || serve(listener, service));
    // The only registered thread is the one serving the profile, which
    // sleeps out the window: nothing else is there to sample.
    let (status, profile) =
        http_request(&addr, "GET", "/v1/profile?seconds=1", None).expect("profile");
    assert_eq!(status, 200);
    assert_eq!(profile, "", "an idle daemon folds no stacks");
    let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.join().expect("server thread").expect("serve result");
}
