//! Behavioral tests for [`ArtifactStore`]: atomic saves, verified
//! loads, quarantine of corrupt files, warm re-open, and the LRU
//! byte cap.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tm_algorithms::{Action, DstmTm, ExtCommand, RunLabel, SequentialTm};
use tm_automata::{CompiledRunGraph, RunGraphParts};
use tm_checker::{Artifact, ArtifactKey, Verifier};
use tm_lang::{Command, SafetyProperty, ThreadId, VarId};
use tm_store::sha256::checksum64;
use tm_store::{
    decode_artifact, encode_artifact, file_name, ArtifactStore, SectionWriter, Sections,
    StoreConfig, StoreCounters, StoreError, MAGIC,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Counters in a private registry, so tests never share them.
fn store_counters() -> StoreCounters {
    StoreCounters::register(&tm_obs::Registry::new())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tm-store-test-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny but nontrivial run graph: two states, two labels, edges both
/// ways.
fn sample_graph(flavor: u32) -> CompiledRunGraph<RunLabel> {
    let v0 = VarId::new(0);
    let t0 = ThreadId::new(0);
    let labels = vec![
        RunLabel {
            thread: t0,
            command: Command::Read(v0),
            action: Action::Complete(ExtCommand::Base(Command::Read(v0))),
        },
        RunLabel {
            thread: t0,
            command: Command::Commit,
            action: Action::Abort,
        },
    ];
    CompiledRunGraph::from_parts(
        RunGraphParts {
            labels,
            row_start: vec![0, 2, 3],
            edge_target: vec![1, 0, flavor % 2],
            edge_label: vec![0, 1, 0],
        },
        |label| label.class(),
    )
    .expect("sample CSR is valid")
}

fn sample_artifact(flavor: u32) -> Artifact {
    Artifact::RunGraph {
        graph: sample_graph(flavor),
        states: 2,
        build_time: Duration::from_nanos(42),
    }
}

/// A session that has built the opacity specification at (2, 1) by
/// checking the sequential TM against it, with the artifact's key.
fn session_with_spec() -> (Verifier, ArtifactKey) {
    let mut verifier = Verifier::new(2, 1);
    assert!(verifier
        .check_safety(&SequentialTm::new(2, 1), SafetyProperty::Opacity)
        .holds());
    (verifier, ArtifactKey::spec(SafetyProperty::Opacity, 2, 1))
}

/// A specification grown by queries is charged exactly what the same rows
/// cost once stored and loaded: a query that interned states leaves the
/// cache's tables at their exact size, as a decoded cache is built.
#[test]
fn built_and_round_tripped_specs_report_equal_heap_bytes() {
    for property in SafetyProperty::all() {
        let mut verifier = Verifier::new(2, 2);
        let key = ArtifactKey::spec(property, 2, 2);
        verifier.check_safety(&SequentialTm::new(2, 2), property);
        verifier.check_safety(&DstmTm::new(2, 2), property);
        let built = verifier.artifact(&key).expect("the session holds the spec");
        let (_, loaded) = decode_artifact(&encode_artifact(&key, built)).unwrap();
        assert_eq!(loaded.heap_bytes(), built.heap_bytes(), "{property}");
        assert_eq!(loaded.rows(), built.rows(), "{property}");
    }
}

/// A specification file is rewritten when the resident cache has grown
/// past it, and only then.
#[test]
fn a_grown_spec_replaces_its_stored_copy() {
    let dir = scratch_dir("grown-spec");
    let store = ArtifactStore::open(
        StoreConfig {
            dir: dir.clone(),
            ..StoreConfig::default()
        },
        store_counters(),
    )
    .unwrap();
    let property = SafetyProperty::StrictSerializability;
    let key = ArtifactKey::spec(property, 2, 2);
    let mut verifier = Verifier::new(2, 2);
    verifier.check_safety(&SequentialTm::new(2, 2), property);
    store.save(&key, verifier.artifact(&key).unwrap()).unwrap();
    store.save(&key, verifier.artifact(&key).unwrap()).unwrap();
    assert_eq!(store.stats().saves, 1, "an unchanged spec is not re-saved");
    verifier.check_safety(&DstmTm::new(2, 2), property);
    let grown = verifier.artifact(&key).unwrap();
    store.save(&key, grown).unwrap();
    assert_eq!(store.stats().saves, 2, "a grown spec is re-saved");
    let loaded = store.load(&key).unwrap().expect("stored");
    assert_eq!(loaded.rows(), grown.rows());
    assert_eq!(store.stats().files, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_load_round_trip_and_idempotent_resave() {
    let dir = scratch_dir("roundtrip");
    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, store_counters())
    .unwrap();
    let key = ArtifactKey::run_graph("dstm", 2, 2);

    assert!(store.load(&key).unwrap().is_none(), "empty store must miss");
    store.save(&key, &sample_artifact(0)).unwrap();
    store.save(&key, &sample_artifact(0)).unwrap();
    let stats = store.stats();
    assert_eq!(stats.saves, 1, "content-addressed re-save must be a no-op");
    assert_eq!(stats.files, 1);
    assert!(stats.bytes > 0);

    let Some(Artifact::RunGraph {
        graph,
        states,
        build_time,
    }) = store.load(&key).unwrap()
    else {
        panic!("expected a run-graph hit");
    };
    assert_eq!(graph.parts(), sample_graph(0).parts());
    assert_eq!(states, 2);
    assert_eq!(build_time, Duration::from_nanos(42));
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_warm_starts_from_disk() {
    let dir = scratch_dir("reopen");
    let key_a = ArtifactKey::run_graph("dstm", 2, 2);
    let (session, key_b) = session_with_spec();
    {
        let store = ArtifactStore::open(StoreConfig {
            dir: dir.clone(),
            ..StoreConfig::default()
        }, store_counters())
        .unwrap();
        store.save(&key_a, &sample_artifact(0)).unwrap();
        store
            .save(&key_b, session.artifact(&key_b).unwrap())
            .unwrap();
        // A stale temp file from a "crashed" writer.
        std::fs::write(dir.join("deadbeef.tmart.tmp"), b"partial").unwrap();
    }
    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, store_counters())
    .unwrap();
    assert_eq!(store.stats().files, 2, "both artifacts must be readdressable");
    assert!(
        !dir.join("deadbeef.tmart.tmp").exists(),
        "stale temp files must be swept at open"
    );
    let files = store.files();
    assert_eq!(files.len(), 2);
    let mut keys: Vec<ArtifactKey> =
        files.iter().map(|path| store.load_path(path).unwrap().0).collect();
    keys.sort_by_key(ArtifactKey::to_string);
    assert_eq!(keys, vec![key_b, key_a.clone()], "sorted by display: (2,1) before (2,2)");
    assert!(store.load(&key_a).unwrap().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_files_are_quarantined_and_become_misses() {
    let dir = scratch_dir("quarantine");
    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, store_counters())
    .unwrap();
    let key = ArtifactKey::run_graph("TL2", 2, 2);
    store.save(&key, &sample_artifact(0)).unwrap();

    // Flip one payload byte on disk.
    let path = dir.join(file_name(&key));
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    match store.load(&key) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("expected corrupt, got {other:?}"),
    }
    assert!(!path.exists(), "corrupt file must leave the namespace");
    assert!(
        dir.join(format!("{}.quarantined", file_name(&key))).exists(),
        "corrupt file must be kept for post-mortem"
    );
    let stats = store.stats();
    assert_eq!(stats.corrupt, 1);
    assert_eq!(stats.files, 0);

    // The key now misses cleanly, and a rebuild can be saved again.
    assert!(store.load(&key).unwrap().is_none());
    store.save(&key, &sample_artifact(0)).unwrap();
    assert!(store.load(&key).unwrap().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A well-formed image of `artifact` under `key` whose header declares
/// kind `tag` instead, with the header checksum recomputed so the kind
/// tag is the file's only fault.
fn image_with_kind_tag(key: &ArtifactKey, artifact: &Artifact, tag: u32) -> Vec<u8> {
    let mut image = encode_artifact(key, artifact);
    image[16..20].copy_from_slice(&tag.to_le_bytes());
    reseal_header(&mut image);
    image
}

/// Tags 3 and 4 once named compiled NFA/DFA formats; like any other
/// unassigned tag they are corrupt files now. Both load paths quarantine
/// them and count them as corrupt — `load_path`, and the warm start of a
/// reopened store, which walks `files()` through `load_path` — and
/// neither panics.
#[test]
fn unknown_kind_tags_are_quarantined_at_load_path_and_warm_start() {
    const UNKNOWN: [u32; 3] = [3, 4, 99];
    let dir = scratch_dir("unknown-kind");
    let good = ArtifactKey::run_graph("dstm", 2, 2);
    let foreign: Vec<ArtifactKey> = UNKNOWN
        .iter()
        .map(|&tag| ArtifactKey::run_graph(format!("foreign-{tag}"), 2, 2))
        .collect();
    let write_foreign = |dir: &std::path::Path| {
        for (key, &tag) in foreign.iter().zip(&UNKNOWN) {
            let image = image_with_kind_tag(key, &sample_artifact(0), tag);
            std::fs::write(dir.join(file_name(key)), image).unwrap();
        }
    };
    let open = || {
        ArtifactStore::open(StoreConfig {
            dir: dir.clone(),
            ..StoreConfig::default()
        }, store_counters())
        .unwrap()
    };

    // load_path on each file, with the store already open.
    let store = open();
    store.save(&good, &sample_artifact(0)).unwrap();
    write_foreign(&dir);
    for key in &foreign {
        let path = dir.join(file_name(key));
        match store.load_path(&path) {
            Err(StoreError::Corrupt(why)) => assert_eq!(why, "unknown artifact kind tag"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "the file must leave the namespace");
        let quarantined = dir.join(format!("{}.quarantined", file_name(key)));
        assert!(quarantined.exists(), "the file is kept for post-mortem");
    }
    assert_eq!(store.stats().corrupt, UNKNOWN.len() as u64);
    drop(store);

    // Warm start: a reopened store addresses the foreign files, and the
    // files()/load_path walk quarantines them and keeps the good one.
    for key in &foreign {
        std::fs::remove_file(dir.join(format!("{}.quarantined", file_name(key)))).unwrap();
    }
    write_foreign(&dir);
    let store = open();
    assert_eq!(store.stats().files, 1 + UNKNOWN.len() as u64);
    let loaded: Vec<ArtifactKey> = store
        .files()
        .iter()
        .filter_map(|path| store.load_path(path).ok().map(|(key, _)| key))
        .collect();
    assert_eq!(loaded, vec![good]);
    let stats = store.stats();
    assert_eq!(stats.corrupt, UNKNOWN.len() as u64);
    assert_eq!(stats.files, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recomputes the header checksum of `image` after an edit to its
/// fixed header or section table.
fn reseal_header(image: &mut [u8]) {
    let sections = u32::from_le_bytes(image[20..24].try_into().unwrap()) as usize;
    let header_len = MAGIC.len() + 4 * 4 + 32 + sections * (4 + 8 + 8);
    let sum = checksum64(&image[..header_len]);
    image[header_len..header_len + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Stores written by the previous format (version 1: per-edge source
/// and mask columns) are unreadable by this build. An image whose only
/// fault is its format word takes the version-mismatch path at
/// `load_path` and at the warm start of a reopened store: quarantined,
/// counted as corrupt, no panic.
#[test]
fn format_version_1_images_take_the_version_mismatch_path() {
    let dir = scratch_dir("format-v1");
    let key = ArtifactKey::run_graph("dstm", 2, 2);
    let path = dir.join(file_name(&key));
    let write_v1 = || {
        let mut image = encode_artifact(&key, &sample_artifact(0));
        image[8..12].copy_from_slice(&1u32.to_le_bytes());
        reseal_header(&mut image);
        std::fs::write(&path, image).unwrap();
    };
    let open = || {
        ArtifactStore::open(StoreConfig {
            dir: dir.clone(),
            ..StoreConfig::default()
        }, store_counters())
        .unwrap()
    };

    let store = open();
    write_v1();
    match store.load_path(&path) {
        Err(StoreError::Corrupt(why)) => assert_eq!(why, "format version mismatch"),
        other => panic!("expected a version mismatch, got {other:?}"),
    }
    assert!(!path.exists(), "the file must leave the namespace");
    assert!(dir.join(format!("{}.quarantined", file_name(&key))).exists());
    assert_eq!(store.stats().corrupt, 1);
    drop(store);

    // Warm start: the reopened store addresses the file, and the
    // files()/load_path walk quarantines it.
    std::fs::remove_file(dir.join(format!("{}.quarantined", file_name(&key)))).unwrap();
    write_v1();
    let store = open();
    assert_eq!(store.stats().files, 1);
    for file in store.files() {
        match store.load_path(&file) {
            Err(StoreError::Corrupt(why)) => assert_eq!(why, "format version mismatch"),
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }
    let stats = store.stats();
    assert_eq!((stats.corrupt, stats.files), (1, 0));
    assert!(store.load(&key).unwrap().is_none(), "the key now misses");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run-graph image rewritten by the container's own writer, with its
/// first edge target replaced by `target`: every checksum is valid.
/// Sections 1–6 are key, metadata, labels, row offsets, edge targets
/// (a `u32` count, then the targets) and edge labels.
fn with_first_edge_target(image: &[u8], target: u32) -> Vec<u8> {
    let sections = Sections::parse(image).unwrap();
    let mut writer = SectionWriter::new();
    for tag in 1..=6 {
        let mut payload = sections.get(tag).unwrap().to_vec();
        if tag == 5 {
            payload[4..8].copy_from_slice(&target.to_le_bytes());
        }
        writer.section(tag, payload);
    }
    writer.finish(sections.kind, sections.digest)
}

/// A file from a buggy writer — every checksum valid, an edge target
/// beyond the state count — is rejected by the structural validation of
/// `CompiledRunGraph::from_parts`: quarantined and counted in
/// `tm_store_corrupt_total`, never loaded.
#[test]
fn checksum_valid_out_of_range_targets_are_quarantined() {
    let dir = scratch_dir("bad-target");
    let registry = tm_obs::Registry::new();
    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, StoreCounters::register(&registry))
    .unwrap();
    let key = ArtifactKey::run_graph("dstm", 2, 2);
    store.save(&key, &sample_artifact(0)).unwrap();
    let path = dir.join(file_name(&key));
    // The sample graph has 2 states.
    let image = with_first_edge_target(&std::fs::read(&path).unwrap(), 2);
    std::fs::write(&path, image).unwrap();

    match store.load(&key) {
        Err(StoreError::Corrupt(why)) => assert_eq!(why, "edge target out of range"),
        other => panic!("expected corrupt, got {other:?}"),
    }
    assert!(!path.exists(), "the file must leave the namespace");
    assert!(dir.join(format!("{}.quarantined", file_name(&key))).exists());
    assert_eq!(store.stats().corrupt, 1);
    assert!(
        registry.render_prometheus().contains("\ntm_store_corrupt_total 1\n"),
        "{}",
        registry.render_prometheus()
    );
    assert!(store.load(&key).unwrap().is_none(), "the key now misses");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lazy-spec image rewritten by the container's own writer, with the
/// first entry of its first stored row replaced by `entry`: every
/// checksum is valid. Sections 1–5 are key, metadata, states, the row
/// bitmap and the rows (a `u32` width, then the entries).
fn with_first_row_entry(image: &[u8], entry: u32) -> Vec<u8> {
    let sections = Sections::parse(image).unwrap();
    let mut writer = SectionWriter::new();
    for tag in 1..=5 {
        let mut payload = sections.get(tag).unwrap().to_vec();
        if tag == 5 {
            payload[4..8].copy_from_slice(&entry.to_le_bytes());
        }
        writer.section(tag, payload);
    }
    writer.finish(sections.kind, sections.digest)
}

/// The specification counterpart: a checksum-valid lazy-spec file
/// whose row points past its state table is rejected by
/// `SpecCache::from_parts` on load — quarantined and counted in
/// `tm_store_corrupt_total`, not as a hit.
#[test]
fn checksum_valid_out_of_range_spec_rows_are_quarantined() {
    let dir = scratch_dir("bad-spec-row");
    let registry = tm_obs::Registry::new();
    let store = ArtifactStore::open(
        StoreConfig {
            dir: dir.clone(),
            ..StoreConfig::default()
        },
        StoreCounters::register(&registry),
    )
    .unwrap();
    let (session, key) = session_with_spec();
    let Some(Artifact::Spec { cache, .. }) = session.artifact(&key) else {
        panic!("the session holds the spec");
    };
    let touched = cache.touched() as u32;
    store.save(&key, session.artifact(&key).unwrap()).unwrap();
    let path = dir.join(file_name(&key));
    let image = with_first_row_entry(&std::fs::read(&path).unwrap(), touched);
    std::fs::write(&path, image).unwrap();

    match store.load(&key) {
        Err(StoreError::Corrupt(why)) => {
            assert_eq!(why, "cached row points outside the state table")
        }
        other => panic!("expected corrupt, got {other:?}"),
    }
    assert!(!path.exists(), "the file must leave the namespace");
    assert!(dir
        .join(format!("{}.quarantined", file_name(&key)))
        .exists());
    let stats = store.stats();
    assert_eq!((stats.corrupt, stats.hits), (1, 0));
    assert!(
        registry
            .render_prometheus()
            .contains("\ntm_store_corrupt_total 1\n"),
        "{}",
        registry.render_prometheus()
    );
    assert!(store.load(&key).unwrap().is_none(), "the key now misses");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn renamed_files_cannot_impersonate_another_key() {
    let dir = scratch_dir("rename");
    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        ..StoreConfig::default()
    }, store_counters())
    .unwrap();
    let key = ArtifactKey::run_graph("dstm", 2, 2);
    let other = ArtifactKey::run_graph("dstm", 2, 1);
    store.save(&key, &sample_artifact(0)).unwrap();
    std::fs::rename(dir.join(file_name(&key)), dir.join(file_name(&other))).unwrap();
    match store.load(&other) {
        Err(StoreError::Corrupt(why)) => {
            assert!(why.contains("different key"), "unexpected reason: {why}")
        }
        other => panic!("expected corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn byte_cap_evicts_least_recently_used() {
    let dir = scratch_dir("lru");
    // Size one artifact, then cap the store at two of them.
    let probe = {
        let store = ArtifactStore::open(StoreConfig {
            dir: dir.clone(),
            ..StoreConfig::default()
        }, store_counters())
        .unwrap();
        store
            .save(&ArtifactKey::run_graph("probe", 2, 2), &sample_artifact(0))
            .unwrap();
        store.stats().bytes
    };
    std::fs::remove_dir_all(&dir).unwrap();

    let store = ArtifactStore::open(StoreConfig {
        dir: dir.clone(),
        cap_bytes: Some(probe * 2 + probe / 2),
    }, store_counters())
    .unwrap();
    let keys: Vec<ArtifactKey> = ["a", "b", "c"]
        .iter()
        .map(|&tm| ArtifactKey::run_graph(tm, 2, 2))
        .collect();
    store.save(&keys[0], &sample_artifact(0)).unwrap();
    store.save(&keys[1], &sample_artifact(0)).unwrap();
    // Touch `a` so `b` is the LRU victim when `c` lands.
    assert!(store.load(&keys[0]).unwrap().is_some());
    store.save(&keys[2], &sample_artifact(0)).unwrap();

    let stats = store.stats();
    assert_eq!(stats.evicted, 1);
    assert_eq!(stats.files, 2);
    assert!(store.load(&keys[0]).unwrap().is_some(), "a was recently used");
    assert!(store.load(&keys[1]).unwrap().is_none(), "b must be evicted");
    assert!(store.load(&keys[2]).unwrap().is_some(), "c was just saved");
    std::fs::remove_dir_all(&dir).unwrap();
}
