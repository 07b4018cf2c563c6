//! Concurrent conformance: N client threads hammering one shared
//! service with interleaved Table 2/3 sub-batches under a tight budget
//! must produce bit-identical fingerprints to the same sub-batches
//! submitted sequentially, while the ledger never
//! exceeds the budget (pinned in-flight artifacts are not evictable, so
//! races cannot overcommit). Also pins the lock-freedom of the stats
//! surface: `stats()` answers immediately while a long batch runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_service::{
    table2_batch, table3_batch, QueryOutcome, QueryResult, QuerySpec, Service, ServiceConfig,
};

const CLIENT_THREADS: usize = 4;
const ROUNDS_PER_THREAD: usize = 3;

/// The paper roster cut into one interleaved sub-batch per client
/// thread, each mixing Table 3 liveness at (2,1) with Table 2 safety at
/// (2,2) so concurrent threads contend on both sessions and all six
/// artifacts.
fn sub_batches() -> Vec<Vec<QuerySpec>> {
    let (t2, t3) = (table2_batch(), table3_batch());
    let mut batches: Vec<Vec<QuerySpec>> = (0..CLIENT_THREADS).map(|_| Vec::new()).collect();
    for (i, spec) in t3.into_iter().chain(t2).enumerate() {
        batches[i % CLIENT_THREADS].push(spec);
    }
    batches
}

fn config(mem_budget: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        mem_budget,
        ..ServiceConfig::default()
    }
}

/// One stable line per result. Deliberately excludes the caching flags,
/// which legitimately depend on submission interleaving; everything the
/// paper's tables report must be interleaving-independent.
fn fingerprint(results: &[QueryResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            let outcome = match &r.outcome {
                QueryOutcome::Verified => "verified".to_owned(),
                QueryOutcome::SafetyViolation { word } => format!("cex {word}"),
                QueryOutcome::LivenessViolation { notation, .. } => format!("lasso {notation}"),
                QueryOutcome::Aborted { reason } => format!("aborted {reason}"),
            };
            format!("{}:{} {} states={} {outcome}", r.spec, r.name, r.holds, r.states)
        })
        .collect()
}

#[test]
fn concurrent_submission_is_bit_identical_to_sequential() {
    let batches = sub_batches();
    let total_queries: usize = batches.iter().map(Vec::len).sum();

    // The tight budget, derived once from an unbounded service's ledger:
    // big enough for any single artifact (the budget's documented
    // requirement), smaller than the artifact total (so the roster
    // cannot be answered without evicting).
    let sizing = Service::new(config(None));
    for batch in &batches {
        sizing.submit(batch);
    }
    let ledger = sizing.ledger();
    let total: usize = ledger.iter().map(|(_, bytes)| bytes).sum();
    let largest: usize = ledger.iter().map(|(_, bytes)| *bytes).max().unwrap();
    let budget = largest + (total - largest) / 4;
    assert!(budget < total, "the tight budget must force eviction");

    // Sequential ground truth under the same tight budget.
    let sequential = Service::new(config(Some(budget)));
    let baselines: Vec<Vec<String>> = batches
        .iter()
        .map(|batch| fingerprint(&sequential.submit(batch)))
        .collect();
    assert!(
        baselines
            .iter()
            .flatten()
            .all(|line| !line.contains("aborted")),
        "sequential baseline must be clean"
    );

    // The same sub-batches, hammered concurrently at the service:
    // every thread round must reproduce its baseline bit for bit,
    // whatever the interleaving did to the artifact caches.
    let service = Arc::new(Service::new(config(Some(budget))));
    std::thread::scope(|scope| {
        for (batch, baseline) in batches.iter().zip(&baselines) {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for round in 0..ROUNDS_PER_THREAD {
                    let results = service.submit(batch);
                    assert_eq!(
                        &fingerprint(&results),
                        baseline,
                        "round={round}: concurrent != sequential"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(
        stats.queries,
        (total_queries * ROUNDS_PER_THREAD) as u64,
        "every submission answered"
    );
    assert_eq!(stats.aborted_queries, 0);
    // The budget held under racing admissions: a pinned in-flight
    // artifact was never evicted out from under a query, and
    // reservations never overcommitted the ledger.
    assert!(
        stats.peak_tracked_bytes <= budget,
        "peak {} exceeds budget {budget}",
        stats.peak_tracked_bytes
    );
    assert!(stats.tracked_bytes <= budget);
    assert!(stats.evictions > 0, "a tight budget must evict: {stats:?}");
}

#[test]
fn stats_answer_immediately_while_a_long_batch_runs() {
    // The slowest roster queries keep a session busy while the main
    // thread probes the stats surface — which reads atomics and the
    // short ledger/registry locks only, never a session lock.
    let service = Arc::new(Service::new(config(None)));
    let busy = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let slow: Vec<QuerySpec> = ["dstm:op:2:2", "TL2:op:2:2", "2PL:op:2:2"]
                .iter()
                .map(|q| QuerySpec::parse(q).unwrap())
                .collect();
            service.submit(&slow)
        })
    };
    // Sample while the batch is genuinely in flight. The *minimum*
    // latency over the window is what the lock-freedom claim bounds —
    // a single sample can always lose the scheduler lottery on a
    // loaded host.
    let mut fastest = Duration::MAX;
    while !busy.is_finished() {
        let start = Instant::now();
        let stats = service.stats();
        fastest = fastest.min(start.elapsed());
        assert!(stats.queries <= 3);
        std::thread::sleep(Duration::from_millis(1));
    }
    let results = busy.join().expect("long batch");
    assert_eq!(results.len(), 3);
    assert!(
        fastest < Duration::from_millis(10),
        "stats took ≥10ms at best ({fastest:?}) while a batch ran"
    );
}
