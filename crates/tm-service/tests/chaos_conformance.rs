//! Chaos conformance: inject one deterministic fault at every
//! registered site, retry the batch on the *same* service, and assert
//! the eventual answers are bit-identical to a fault-free run — the
//! fault layer must be invisible once retries succeed, and a failed
//! build must not leak budget or poison artifact caches.
//!
//! Faults are process-global, so everything runs inside one `#[test]`
//! (the default test harness runs sibling tests concurrently).

use tm_automata::fault::{clear_fault, install_fault, FaultPlan};
use tm_service::{QueryOutcome, QueryResult, QuerySpec, Service, ServiceConfig};

fn mixed_batch() -> Vec<QuerySpec> {
    [
        "dstm+aggressive:of:2:1",
        "dstm+aggressive:lf:2:1",
        "sequential:op:2:2",
        "dstm:op:2:2",
        "2PL:ss:2:2",
        "TL2:of:2:1",
    ]
    .iter()
    .map(|q| QuerySpec::parse(q).unwrap())
    .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        mem_budget: Some(16 << 20),
        ..ServiceConfig::default()
    }
}

/// One stable line per result — the bit-identity the chaos runs compare.
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
fn injected_faults_retry_to_bit_identical_answers() {
    let batch = mixed_batch();
    clear_fault();
    let baseline_service = Service::new(config());
    let baseline = fingerprint(&baseline_service.submit(&batch));

    for site in ["build", "evict"] {
        let service = Service::new(config());
        install_fault(FaultPlan {
            site: site.to_owned(),
            nth: 1,
            delay_ms: 0,
            panic: false,
        });
        let first = service.submit(&batch);
        clear_fault();
        let aborted = first
            .iter()
            .filter(|r| matches!(r.outcome, QueryOutcome::Aborted { .. }))
            .count();
        assert_eq!(aborted, 1, "site {site}: one query aborts");
        // Non-aborted queries from the faulted run already match the
        // baseline bit for bit.
        let first_print = fingerprint(&first);
        for (line, base) in first_print.iter().zip(&baseline) {
            if !line.contains("aborted") {
                assert_eq!(line, base, "site {site}: clean query differs");
            }
        }
        // The retry on the same service converges to the baseline.
        let retried = fingerprint(&service.submit(&batch));
        assert_eq!(retried, baseline, "site {site}: retry differs");
        // The ledger stayed consistent: tracked bytes within budget
        // and no phantom reservation left behind by the failed build.
        let stats = service.stats();
        assert!(stats.peak_tracked_bytes <= 16 << 20, "site {site}: budget overrun");
        assert_eq!(stats.aborted_queries, aborted as u64, "site {site}: abort counter");
    }
    clear_fault();
}

#[test]
fn a_batch_deadline_sheds_the_tail_and_recovers() {
    let batch = mixed_batch();
    let service = Service::new(ServiceConfig::default());
    // A zero-millisecond deadline is already expired: every query sheds.
    let shed = service.submit_traced(&batch, Some(0), false);
    assert_eq!(shed.len(), batch.len());
    for result in &shed {
        assert!(
            matches!(result.outcome, QueryOutcome::Aborted { .. }),
            "{}: expected shed",
            result.spec
        );
        assert!(!result.holds);
    }
    // The same service answers the batch normally without a deadline.
    let clean = service.submit(&batch);
    assert!(clean.iter().all(|r| !matches!(r.outcome, QueryOutcome::Aborted { .. })));
    let stats = service.stats();
    assert_eq!(stats.aborted_queries, batch.len() as u64);
    assert_eq!(stats.queries, 2 * batch.len() as u64);
}
