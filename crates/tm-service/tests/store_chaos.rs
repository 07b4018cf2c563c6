//! Chaos at the `store` fault site: the persistent store is
//! best-effort, so an injected store fault (`TM_FAULT=store:<nth>`)
//! must never abort a query or change a verdict — a crashed save just
//! skips the write-through, a poisoned warm-boot load just skips that
//! artifact, and a poisoned promote falls back to a rebuild.
//!
//! Faults are process-global, so every scenario runs inside one
//! `#[test]` in this dedicated test binary.

use std::path::{Path, PathBuf};

use tm_automata::fault::{clear_fault, install_fault, FaultPlan};
use tm_service::{QueryOutcome, QueryResult, QuerySpec, Service, ServiceConfig};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tm-service-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch() -> Vec<QuerySpec> {
    ["dstm+aggressive:of:2:1", "dstm+aggressive:lf:2:1", "TL2:ss:2:2"]
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect()
}

fn store_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        store_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

fn store_fault(nth: u64) -> FaultPlan {
    FaultPlan {
        site: "store".into(),
        nth,
        delay_ms: 0,
        panic: false,
    }
}

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
fn store_faults_never_abort_queries_or_change_verdicts() {
    clear_fault();
    let queries = batch();
    // Fault-free, storeless ground truth.
    let baseline = fingerprint(&Service::new(ServiceConfig::default()).submit(&queries));

    // --- Crashed write-through: the first save faults mid-write; the
    // query still answers, later saves persist the rest.
    let dir = scratch_dir("save");
    {
        let service = Service::try_new(store_config(&dir)).unwrap();
        install_fault(store_fault(1));
        let results = service.submit(&queries);
        clear_fault();
        assert_eq!(fingerprint(&results), baseline, "crashed save");
        let stats = service.stats();
        assert_eq!(stats.aborted_queries, 0, "store faults never abort");
        // 2 artifacts (run graph + spec); the faulted save skipped one.
        assert_eq!(stats.store_saves, 1, "{stats:?}");
        assert_eq!(stats.store_files, 1, "{stats:?}");
    }

    // Re-populate the directory cleanly for the boot scenarios.
    let _ = std::fs::remove_dir_all(&dir);
    {
        let service = Service::try_new(store_config(&dir)).unwrap();
        service.submit(&queries);
        assert_eq!(service.stats().store_files, 2);
    }

    // --- Poisoned warm-boot load: the first load faults; boot skips
    // that artifact and the first query on it *promotes* it instead
    // (the fault is gone by then) — still zero builds.
    install_fault(store_fault(1));
    let service = Service::try_new(store_config(&dir)).unwrap();
    clear_fault();
    let results = service.submit(&queries);
    assert_eq!(fingerprint(&results), baseline, "poisoned boot load");
    let stats = service.stats();
    assert_eq!(stats.aborted_queries, 0);
    assert_eq!(stats.artifact_builds, 0, "{stats:?}");
    assert_eq!(stats.store_promotes, 1, "{stats:?}");

    // --- Poisoned promote: boot skips one artifact (first fault),
    // then a *re-armed* fault poisons the promote attempt itself — the
    // query falls back to an ordinary rebuild.
    install_fault(store_fault(1));
    let service = Service::try_new(store_config(&dir)).unwrap();
    install_fault(store_fault(1));
    let results = service.submit(&queries);
    clear_fault();
    assert_eq!(fingerprint(&results), baseline, "poisoned promote");
    let stats = service.stats();
    assert_eq!(stats.aborted_queries, 0);
    assert_eq!(stats.store_promotes, 0, "{stats:?}");
    assert_eq!(
        stats.artifact_builds, 1,
        "a poisoned promote rebuilds: {stats:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
