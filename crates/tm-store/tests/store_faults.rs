//! Fault injection at the `store` site (`TM_FAULT=store:<nth>`): a
//! fault during save models a crash before the atomic rename — the
//! addressable store is unchanged and only a temp file remains; a
//! fault during load models a poisoned read — the caller treats it as
//! a miss and rebuilds. Kept in its own test binary (process) because
//! the fault plan is process-global.

use std::time::Duration;

use tm_algorithms::{Action, ExtCommand, RunLabel};
use tm_automata::fault::{clear_fault, install_fault, FaultPlan};
use tm_automata::{CompiledRunGraph, RunGraphParts};
use tm_checker::{Artifact, ArtifactKey};
use tm_lang::{Command, ThreadId, VarId};
use tm_store::{file_name, ArtifactStore, StoreConfig, StoreCounters, StoreError};

/// Counters in a private registry, so tests never share them.
fn store_counters() -> StoreCounters {
    StoreCounters::register(&tm_obs::Registry::new())
}

fn sample_artifact() -> Artifact {
    let v0 = VarId::new(0);
    let t0 = ThreadId::new(0);
    let labels = vec![RunLabel {
        thread: t0,
        command: Command::Read(v0),
        action: Action::Complete(ExtCommand::Base(Command::Read(v0))),
    }];
    Artifact::RunGraph {
        graph: CompiledRunGraph::from_parts(
            RunGraphParts {
                labels,
                row_start: vec![0, 1],
                edge_target: vec![0],
                edge_label: vec![0],
            },
            |label| label.class(),
        )
        .unwrap(),
        states: 1,
        build_time: Duration::from_nanos(1),
    }
}

fn store_plan(nth: u64) -> FaultPlan {
    FaultPlan {
        site: "store".into(),
        nth,
        delay_ms: 0,
        panic: false,
    }
}

/// One test function: the fault plan is process-global state, so the
/// scenarios run sequentially here rather than racing across threads.
#[test]
fn store_faults_crash_saves_and_poison_loads() {
    let dir = std::env::temp_dir().join(format!("tm-store-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, store_counters())
    .unwrap();
    let key = ArtifactKey::run_graph("dstm", 2, 2);

    // --- Mid-write crash: the fault fires after the temp file is
    // written but before the rename.
    install_fault(store_plan(1));
    match store.save(&key, &sample_artifact()) {
        Err(StoreError::Fault) => {}
        other => panic!("expected injected fault, got {other:?}"),
    }
    clear_fault();
    assert!(
        !dir.join(file_name(&key)).exists(),
        "a crashed save must not publish an addressable file"
    );
    assert_eq!(store.stats().saves, 0);
    assert_eq!(store.stats().files, 0);
    // The store recovers transparently: the retry succeeds.
    store.save(&key, &sample_artifact()).unwrap();
    assert!(store.load(&key).unwrap().is_some());

    // --- Poisoned load: the fault fires before the file is read; the
    // file stays intact (NOT quarantined — nothing proved it corrupt).
    install_fault(store_plan(1));
    match store.load(&key) {
        Err(StoreError::Fault) => {}
        other => panic!("expected injected fault, got {other:?}"),
    }
    clear_fault();
    assert!(dir.join(file_name(&key)).exists());
    assert_eq!(store.stats().corrupt, 0);
    assert!(
        store.load(&key).unwrap().is_some(),
        "the artifact must survive a poisoned read untouched"
    );

    // --- A fresh open after the crash sweeps the leftover temp file.
    install_fault(store_plan(1));
    let key2 = ArtifactKey::run_graph("TL2", 2, 2);
    assert!(store.save(&key2, &sample_artifact()).is_err());
    clear_fault();
    let tmp = dir.join(format!("{}.tmp", file_name(&key2)));
    assert!(!tmp.exists(), "failed save cleans its temp file in-process");
    // Simulate the harder case: a crash that never ran cleanup.
    std::fs::write(&tmp, b"partial").unwrap();
    drop(store);
    let reopened = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, store_counters())
    .unwrap();
    assert!(!tmp.exists(), "open must sweep stale temp files");
    assert_eq!(reopened.stats().files, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
