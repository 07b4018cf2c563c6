//! Counter agreement: `Service::stats` (`/v1/stats`),
//! `Service::sessions_snapshot` (`/v1/sessions`) and the `/metrics`
//! exposition read one set of registry handles, so at quiescence every
//! count they share is equal — including after an aborted query that
//! left its artifact resident and after a fault that struck between a
//! build and its settle.
//!
//! Faults are process-global, so everything runs inside one `#[test]`.

use tm_automata::fault::{clear_fault, install_fault, FaultPlan};
use tm_service::{table3_batch, EngineError, QuerySpec, Service, ServiceConfig};

fn queries(specs: &[&str]) -> Vec<QuerySpec> {
    specs.iter().map(|q| QuerySpec::parse(q).unwrap()).collect()
}

/// Asserts the three surfaces agree on `service` and returns its
/// `(artifact_builds, cache_hits)`.
fn assert_surfaces_agree(service: &Service, run: &str) -> (u64, u64) {
    let stats = service.stats();
    let rows = service.sessions_snapshot();
    let text = service.render_prometheus();
    let exposition = tm_obs::parse_prometheus(&text)
        .unwrap_or_else(|e| panic!("{run}: bad exposition: {e}\n{text}"));
    let series = |name: &str| -> u64 {
        exposition.series(name).iter().map(|s| s.value).sum::<f64>() as u64
    };
    let rows_sum = |field: fn(&tm_service::SessionInfo) -> u64| -> u64 {
        rows.iter().map(field).sum()
    };
    for (what, total, per_session, metric) in [
        ("builds", stats.artifact_builds, rows_sum(|r| r.builds), "tm_artifact_builds_total"),
        (
            "rebuilds",
            stats.artifact_rebuilds,
            rows_sum(|r| r.rebuilds),
            "tm_artifact_rebuilds_total",
        ),
        (
            "promotes",
            stats.store_promotes,
            rows_sum(|r| r.store_promotes),
            "tm_store_promotes_total",
        ),
    ] {
        assert_eq!(total, per_session, "{run}: {what}: /v1/stats vs /v1/sessions");
        assert_eq!(total, series(metric), "{run}: {what}: /v1/stats vs {metric}");
    }
    assert_eq!(stats.queries, series("tm_query_seconds_count"), "{run}: queries");
    assert_eq!(stats.cache_hits, series("tm_cache_hits_total"), "{run}: hits");
    let aborted = exposition
        .series("tm_queries_total")
        .iter()
        .filter(|s| s.label("result") == Some("aborted"))
        .map(|s| s.value as u64)
        .sum::<u64>();
    assert_eq!(stats.aborted_queries, aborted, "{run}: aborted");
    assert_eq!(
        rows_sum(|r| r.lock_waits),
        series("tm_session_lock_wait_seconds_count"),
        "{run}: lock waits"
    );
    (stats.artifact_builds, stats.cache_hits)
}

#[test]
fn stats_sessions_and_metrics_agree() {
    clear_fault();
    let sequential = ServiceConfig::default();

    // (a) Two safety queries aborted at the state bound: the first
    // builds the lazy ss spec and leaves it resident, the second finds
    // it there.
    let service = Service::new(ServiceConfig {
        max_states: 50,
        ..sequential.clone()
    });
    let results = service.submit(&queries(&["TL2:ss:2:2", "dstm:ss:2:2"]));
    assert!(results
        .iter()
        .all(|r| matches!(r.abort_reason(), Some(EngineError::StateLimit(_)))));
    assert!(service.stats().tracked_bytes > 0, "the aborted search's spec stays charged");
    assert_eq!(assert_surfaces_agree(&service, "state-bound abort"), (1, 1));

    // (b) An `evict` fault after a completed build: the query aborts,
    // but its artifact was built and stays in the session.
    let service = Service::new(sequential.clone());
    install_fault(FaultPlan {
        site: "evict".to_owned(),
        nth: 1,
        delay_ms: 0,
        panic: false,
    });
    let results = service.submit(&queries(&["dstm+aggressive:of:2:1"]));
    clear_fault();
    assert_eq!(results[0].abort_reason(), Some(EngineError::FaultInjected));
    assert_eq!(assert_surfaces_agree(&service, "evict fault"), (1, 0));

    // (c) A clean Table 3 batch: four run graphs, eight hits.
    let service = Service::new(sequential);
    let results = service.submit(&table3_batch());
    assert!(results.iter().all(|r| r.abort_reason().is_none()));
    assert_eq!(assert_surfaces_agree(&service, "table 3"), (4, 8));
}
