//! Service conformance: every response — in-process and over the wire —
//! must be identical to a direct one-shot [`Verifier`] call (verdicts,
//! counterexample words, lassos), for the full Table 2 + Table 3 roster;
//! and the acceptance criterion of the memory
//! budget: a budget smaller than the sum of all compiled artifacts still
//! answers the full roster bit-identically, with peak tracked bytes
//! never exceeding the budget.

use std::net::TcpListener;
use std::sync::Arc;

use tm_checker::{Outcome, Verifier};
use tm_service::wire::{decode_results, encode_batch};
use tm_service::{
    http_request, run_query, serve, table2_batch, table3_batch, QueryOutcome, QueryResult,
    Service, ServiceConfig,
};

/// The full paper roster: Table 3 (liveness at (2,1)) interleaved with
/// Table 2 (safety at (2,2)) to give the scheduler something to untangle.
fn paper_batch() -> Vec<tm_service::QuerySpec> {
    let (t2, t3) = (table2_batch(), table3_batch());
    let mut batch = Vec::new();
    for i in 0..t3.len() {
        batch.push(t3[i].clone());
        if i < t2.len() {
            batch.push(t2[i].clone());
        }
    }
    batch
}

fn config(mem_budget: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        mem_budget,
        ..ServiceConfig::default()
    }
}

/// Asserts one service response against a fresh one-shot session: same
/// verdict, same explored states, and byte-identical counterexample word
/// or lasso.
fn assert_matches_one_shot(result: &QueryResult) {
    let spec = &result.spec;
    let mut verifier = Verifier::new(spec.threads, spec.vars);
    let direct = run_query(&mut verifier, spec);
    let context = spec.to_string();
    assert_eq!(result.holds, direct.holds(), "{context}: verdict");
    assert_eq!(
        result.states, direct.stats.states_explored,
        "{context}: states"
    );
    match (&direct.outcome, &result.outcome) {
        (Outcome::Verified, QueryOutcome::Verified) => {}
        (Outcome::Counterexample(word), QueryOutcome::SafetyViolation { word: served }) => {
            assert_eq!(served, &word.to_string(), "{context}: word");
        }
        (
            Outcome::Lasso(lasso),
            QueryOutcome::LivenessViolation {
                prefix,
                cycle,
                notation,
            },
        ) => {
            let strings = |labels: &[tm_algorithms::RunLabel]| -> Vec<String> {
                labels.iter().map(ToString::to_string).collect()
            };
            assert_eq!(prefix, &strings(&lasso.prefix), "{context}: prefix");
            assert_eq!(cycle, &strings(&lasso.cycle), "{context}: cycle");
            assert_eq!(notation, &lasso.cycle_notation(), "{context}: notation");
        }
        (Outcome::Aborted(reason), _) => panic!("{context}: one-shot aborted: {reason}"),
        other => panic!("{context}: outcome shape mismatch: {other:?}"),
    }
}

/// Strips the caching flags (which legitimately differ between service
/// instances with different histories) for cross-run comparison.
fn verdict_fields(results: &[QueryResult]) -> Vec<(String, bool, usize, QueryOutcome)> {
    results
        .iter()
        .map(|r| (r.name.clone(), r.holds, r.states, r.outcome.clone()))
        .collect()
}

#[test]
fn in_process_service_matches_one_shot_sessions() {
    let batch = paper_batch();
    let service = Service::new(config(None));
    let results = service.submit(&batch);
    assert_eq!(results.len(), batch.len());
    for (result, spec) in results.iter().zip(&batch) {
        assert_eq!(&result.spec, spec, "results come back in request order");
        assert_matches_one_shot(result);
    }
    // The scheduler made each artifact's queries contiguous: 6
    // artifacts, 6 builds, everything else cache hits.
    let stats = service.stats();
    assert_eq!(stats.artifact_builds, 6);
    assert_eq!(stats.cache_hits, 16);
    assert_eq!(stats.artifact_rebuilds, 0);
}

#[test]
fn tight_budget_stays_under_peak_and_answers_bit_identically() {
    let batch = paper_batch();
    // Ground truth and artifact sizes from an unbounded service.
    let unbounded = Service::new(config(None));
    let reference = unbounded.submit(&batch);
    let ledger = unbounded.ledger();
    let total: usize = ledger.iter().map(|(_, bytes)| bytes).sum();
    let largest: usize = ledger.iter().map(|(_, bytes)| *bytes).max().unwrap();
    assert!(ledger.len() >= 2 && largest < total);

    // A budget smaller than the sum of all compiled artifacts (so the
    // batch *cannot* be answered without evicting) but large enough for
    // any single artifact (the budget's documented requirement).
    let budget = largest + (total - largest) / 4;
    assert!(budget < total);
    let service = Service::new(config(Some(budget)));
    let first = service.submit(&batch);
    assert_eq!(verdict_fields(&first), verdict_fields(&reference));
    let stats = service.stats();
    assert!(stats.evictions > 0, "a tight budget must evict: {stats:?}");
    assert!(
        stats.peak_tracked_bytes <= budget,
        "peak {} exceeds budget {budget}",
        stats.peak_tracked_bytes
    );
    assert!(stats.tracked_bytes <= budget);

    // Re-submitting forces transparent rebuilds of evicted artifacts —
    // and stays bit-identical and under budget.
    let second = service.submit(&batch);
    assert_eq!(verdict_fields(&second), verdict_fields(&reference));
    let stats = service.stats();
    assert!(
        stats.artifact_rebuilds > 0,
        "re-querying evicted artifacts must rebuild: {stats:?}"
    );
    assert!(stats.peak_tracked_bytes <= budget);
    // Rebuilt results carry the flag on their first (re)building query.
    assert!(second.iter().any(|r| r.rebuilt));
}

#[test]
fn http_endpoint_matches_the_in_process_service() {
    let batch = paper_batch();
    // In-process ground truth with the same (fresh) configuration.
    let expected = Service::new(config(None)).submit(&batch);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = Arc::new(Service::new(config(None)));
    let server = std::thread::spawn(move || serve(listener, service));

    let (status, body) = http_request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "{\"ok\": true}"));

    let (status, body) = http_request(&addr, "POST", "/v1/batch", Some(&encode_batch(&batch)))
        .expect("batch request");
    assert_eq!(status, 200, "{body}");
    let (results, stats) = decode_results(&body).expect("response decodes");
    // Over the wire ≡ in process, caching flags included (same
    // batch, same fresh service state).
    assert_eq!(results, expected);
    assert_eq!(stats.queries, batch.len() as u64);
    assert_eq!(stats.pool_size, 1);

    // Protocol errors are reported, not fatal.
    let (status, _) = http_request(&addr, "POST", "/v1/batch", Some("{oops"))
        .expect("malformed request is answered");
    assert_eq!(status, 400);
    // An out-of-range instance size is a client error, not a panic
    // in the serving thread (the TMs and the specification assert
    // on threads > 4, the liveness edge masks on threads > 8).
    for threads in [5, 9] {
        let oversized = format!(
            r#"{{"queries": [{{"tm": "2PL", "property": "of", "threads": {threads}, "vars": 1}}]}}"#
        );
        let (status, body) = http_request(&addr, "POST", "/v1/batch", Some(&oversized))
            .expect("oversized query is answered");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("out of range"), "{body}");
    }
    let (status, _) = http_request(&addr, "GET", "/nope", None).expect("404 route");
    assert_eq!(status, 404);
    let (status, body) = http_request(&addr, "GET", "/v1/stats", None).expect("stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"queries\""));

    // Clean shutdown: serve() returns and reports every connection.
    let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let served = server.join().expect("server thread").expect("serve result");
    assert_eq!(served, 8);
}
