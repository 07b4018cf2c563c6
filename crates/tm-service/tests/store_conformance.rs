//! Storage-tier conformance: the persistent artifact store must be
//! *invisible* in every answer — a warm-started service returns
//! bit-identical verdicts to a cold one with zero artifact (re)builds,
//! a budget that demotes and promotes instead of discarding and
//! rebuilding changes nothing but the counters, and a corrupt store
//! file is quarantined and transparently rebuilt.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tm_checker::ArtifactKey;
use tm_lang::SafetyProperty;
use tm_service::{
    table2_batch, table3_batch, QueryOutcome, QueryResult, QuerySpec, Service, ServiceConfig,
};
use tm_store::sha256::checksum64;
use tm_store::{decode_artifact, encode_artifact, file_name, SectionWriter, Sections, MAGIC};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tm-service-store-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full paper roster: Table 3 liveness at (2,1) plus Table 2 safety
/// at (2,2) — 22 queries over 6 artifacts in 2 sessions.
fn paper_batch() -> Vec<QuerySpec> {
    let mut batch = table3_batch();
    batch.extend(table2_batch());
    batch
}

fn store_config(dir: &Path, mem_budget: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        mem_budget,
        store_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// One stable line per result — verdict, states, and witness, but *not*
/// the cached/rebuilt flags, which legitimately differ between a cold
/// and a warm service.
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
fn warm_restart_answers_roster_with_zero_rebuilds() {
    let batch = paper_batch();
    let dir = scratch_dir("warm");

    // Cold service: populates the store by write-through.
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.artifact_builds, 6);
    assert_eq!(
        cold_stats.store_saves, 10,
        "every built artifact is written through, and so is every Table 2 \
         query that grew a specification (four of them): {cold_stats:?}"
    );
    assert_eq!(cold_stats.store_files, 6);
    drop(cold);

    // "Restarted daemon": a fresh service over the same directory
    // answers the whole roster without building anything.
    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    let warm_results = warm.submit(&batch);
    assert_eq!(fingerprint(&warm_results), reference);
    let stats = warm.stats();
    assert_eq!(
        stats.artifact_builds, 0,
        "warm start must answer with zero builds: {stats:?}"
    );
    assert_eq!(stats.artifact_rebuilds, 0);
    assert_eq!(stats.cache_hits, batch.len() as u64);
    assert!(
        stats.store_hits >= 6,
        "warm boot loads every stored artifact: {stats:?}"
    );
    assert_eq!(stats.store_corrupt, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A specification grows as later queries touch new rows, and the store
/// keeps up: a restarted service loads every row the cold one built,
/// charges it the same bytes, and re-asks the roster without interning a
/// single new row (so nothing is re-saved either).
#[test]
fn a_restarted_service_reasks_the_roster_without_new_spec_rows() {
    let batch = paper_batch();
    let dir = scratch_dir("grown-spec");
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    let cold_ledger = cold.ledger();
    drop(cold);

    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    let boot_ledger = sorted(warm.ledger());
    assert_eq!(
        boot_ledger,
        sorted(cold_ledger),
        "loaded artifacts are charged exactly as built ones"
    );
    assert_eq!(fingerprint(&warm.submit(&batch)), reference);
    let stats = warm.stats();
    assert_eq!(
        (stats.artifact_builds, stats.store_saves),
        (0, 0),
        "nothing was built or grew: {stats:?}"
    );
    assert_eq!(
        sorted(warm.ledger()),
        boot_ledger,
        "no specification interned a new row"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn sorted(mut ledger: Vec<(ArtifactKey, usize)>) -> Vec<(String, usize)> {
    ledger.sort_by_key(|(key, _)| key.to_string());
    ledger
        .into_iter()
        .map(|(key, bytes)| (key.to_string(), bytes))
        .collect()
}

#[test]
fn tight_budget_demotes_and_promotes_instead_of_rebuilding() {
    let batch = paper_batch();
    // Ground truth and artifact sizes from an unbounded, storeless
    // service.
    let unbounded = Service::new(ServiceConfig::default());
    let reference = fingerprint(&unbounded.submit(&batch));
    let ledger = unbounded.ledger();
    let total: usize = ledger.iter().map(|(_, bytes)| bytes).sum();
    let largest: usize = ledger.iter().map(|(_, bytes)| *bytes).max().unwrap();
    let budget = largest + (total - largest) / 4;
    assert!(budget < total, "budget must force evictions");

    let dir = scratch_dir("demote");
    let service = Service::try_new(store_config(&dir, Some(budget))).unwrap();
    let first = service.submit(&batch);
    assert_eq!(fingerprint(&first), reference);
    let stats = service.stats();
    assert!(stats.evictions > 0, "a tight budget must evict: {stats:?}");
    assert_eq!(
        stats.store_demotes, stats.evictions,
        "with a store every eviction is a demotion: {stats:?}"
    );
    assert!(stats.peak_tracked_bytes <= budget);
    assert!(stats.tracked_bytes <= budget);
    // Demotion accounting: the ledger and the sessions agree, resident
    // bytes actually dropped under the budget, and no query leaked a
    // pin.
    assert_eq!(
        service.artifact_heap_bytes(),
        stats.tracked_bytes,
        "resident artifact bytes must match the ledger at quiescence"
    );
    assert_eq!(service.pinned_artifacts(), 0, "no pins survive a batch");

    // Re-submitting promotes the demoted artifacts back from disk —
    // bit-identical answers, zero rebuilds.
    let second = service.submit(&batch);
    assert_eq!(fingerprint(&second), reference);
    let stats = service.stats();
    assert!(
        stats.store_promotes > 0,
        "re-querying demoted artifacts must promote: {stats:?}"
    );
    assert_eq!(
        stats.artifact_rebuilds, 0,
        "promotes must replace rebuilds entirely: {stats:?}"
    );
    assert!(stats.peak_tracked_bytes <= budget);
    assert_eq!(service.artifact_heap_bytes(), stats.tracked_bytes);
    assert_eq!(service.pinned_artifacts(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_store_files_are_quarantined_and_rebuilt() {
    let batch: Vec<QuerySpec> = ["dstm+aggressive:of:2:1", "TL2:ss:2:2"]
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect();
    let dir = scratch_dir("corrupt");
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    assert_eq!(cold.stats().store_files, 2);
    drop(cold);

    // Flip one byte of the liveness run graph on disk.
    let victim = dir.join(file_name(&ArtifactKey::run_graph("dstm+aggressive", 2, 1)));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();

    // The restart quarantines the corrupt file at warm boot...
    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    assert!(
        !victim.exists(),
        "the corrupt file must leave the addressable namespace at boot"
    );
    assert!(
        dir.join(format!(
            "{}.quarantined",
            file_name(&ArtifactKey::run_graph("dstm+aggressive", 2, 1))
        ))
        .exists(),
        "the corrupt file is kept for post-mortem"
    );
    // ...answers correctly anyway (one rebuild), and the write-through
    // re-creates the quarantined key's file from the rebuilt artifact.
    let results = warm.submit(&batch);
    assert_eq!(fingerprint(&results), reference);
    let stats = warm.stats();
    assert!(
        stats.store_corrupt >= 1,
        "the corrupt file must be quarantined: {stats:?}"
    );
    assert_eq!(
        stats.artifact_builds, 1,
        "only the quarantined artifact is rebuilt: {stats:?}"
    );
    assert!(victim.exists(), "the rebuild is written through again");
    assert_eq!(stats.store_files, 2, "{stats:?}");
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

/// A run-graph file that passes every checksum but holds an edge target
/// beyond its state count is quarantined at warm boot, counted as
/// corrupt, and rebuilt: the service answers exactly as the cold one.
#[test]
fn checksum_valid_structurally_bad_run_graphs_are_rebuilt() {
    let batch: Vec<QuerySpec> = ["dstm+aggressive:of:2:1", "TL2:ss:2:2"]
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect();
    let dir = scratch_dir("bad-target");
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    drop(cold);

    let key = ArtifactKey::run_graph("dstm+aggressive", 2, 1);
    let victim = dir.join(file_name(&key));
    let image = with_first_edge_target(&std::fs::read(&victim).unwrap(), u32::MAX);
    assert_eq!(
        decode_artifact(&image).err(),
        Some("edge target out of range"),
        "the checksums pass and the structural check rejects"
    );
    std::fs::write(&victim, &image).unwrap();

    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    assert!(dir.join(format!("{}.quarantined", file_name(&key))).exists());
    assert_eq!(fingerprint(&warm.submit(&batch)), reference);
    let stats = warm.stats();
    assert_eq!(stats.store_corrupt, 1, "{stats:?}");
    assert_eq!(stats.artifact_builds, 1, "only the bad run graph is rebuilt: {stats:?}");
    assert!(victim.exists(), "the rebuild is written through again");
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

/// A lazy-spec file that passes every checksum but holds a row target
/// beyond its state table is rejected by `SpecCache::from_parts` when
/// the store decodes it: quarantined at warm boot, counted as corrupt
/// (not as a store hit), and rebuilt — the service answers exactly as
/// the cold one.
#[test]
fn checksum_valid_structurally_bad_spec_rows_are_rebuilt() {
    let batch: Vec<QuerySpec> = ["dstm+aggressive:of:2:1", "TL2:ss:2:2"]
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect();
    let dir = scratch_dir("bad-spec-row");
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    drop(cold);

    let key = ArtifactKey::spec(SafetyProperty::StrictSerializability, 2, 2);
    let victim = dir.join(file_name(&key));
    let image = with_first_row_entry(&std::fs::read(&victim).unwrap(), u32::MAX - 1);
    assert_eq!(
        decode_artifact(&image).err(),
        Some("cached row points outside the state table"),
        "the checksums pass and the structural check rejects"
    );
    std::fs::write(&victim, &image).unwrap();

    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    assert!(
        !victim.exists(),
        "the bad file must leave the namespace at boot"
    );
    assert!(dir
        .join(format!("{}.quarantined", file_name(&key)))
        .exists());
    let boot = warm.stats();
    assert_eq!((boot.store_corrupt, boot.store_hits), (1, 1), "{boot:?}");
    assert_eq!(fingerprint(&warm.submit(&batch)), reference);
    let stats = warm.stats();
    assert_eq!(stats.store_corrupt, 1, "{stats:?}");
    assert_eq!(
        stats.artifact_builds, 1,
        "only the bad spec is rebuilt: {stats:?}"
    );
    assert!(victim.exists(), "the rebuild is written through again");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lazy-spec image rewritten by the container's own writer, with the
/// first thread record of its last interned state replaced by a doomed
/// (`valid == false`) record that still holds a read set: every checksum
/// is valid. Section 3 holds the states (a `u32` count, then 64 bytes per
/// state, 16 per thread: phase, valid, then the sets as `u16`s, `rs`
/// first).
fn with_doomed_last_state(image: &[u8]) -> Vec<u8> {
    let sections = Sections::parse(image).unwrap();
    let mut writer = SectionWriter::new();
    for tag in 1..=5 {
        let mut payload = sections.get(tag).unwrap().to_vec();
        if tag == 3 {
            let at = payload.len() - 64;
            payload[at..at + 4].copy_from_slice(&[1, 0, 1, 0]);
        }
        writer.section(tag, payload);
    }
    writer.finish(sections.kind, sections.digest)
}

/// The strict-serializability artifact interns normal forms, in which a
/// doomed thread keeps only its phase. A checksum-valid file holding a
/// doomed record with a read set — as rows interned without the normal
/// form would — is not a quotient artifact: it is quarantined at warm
/// boot, counted in `tm_store_corrupt_total`, and the query rebuilds to
/// the cold answer.
#[test]
fn checksum_valid_spec_files_with_doomed_records_are_rebuilt() {
    let batch: Vec<QuerySpec> = ["dstm+aggressive:of:2:1", "TL2:ss:2:2"]
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect();
    let dir = scratch_dir("doomed-record");
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    drop(cold);

    let key = ArtifactKey::spec(SafetyProperty::StrictSerializability, 2, 2);
    let victim = dir.join(file_name(&key));
    let image = with_doomed_last_state(&std::fs::read(&victim).unwrap());
    assert_eq!(
        decode_artifact(&image).err(),
        Some("interned state is not in normal form"),
        "the checksums pass and the normal-form check rejects"
    );
    std::fs::write(&victim, &image).unwrap();

    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    assert!(dir
        .join(format!("{}.quarantined", file_name(&key)))
        .exists());
    let boot = warm.stats();
    assert_eq!((boot.store_corrupt, boot.store_hits), (1, 1), "{boot:?}");
    assert_eq!(fingerprint(&warm.submit(&batch)), reference);
    let stats = warm.stats();
    assert_eq!(
        stats.artifact_builds, 1,
        "only the rejected spec is rebuilt: {stats:?}"
    );
    assert!(victim.exists(), "the rebuild is written through again");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A warm start over files whose header names no artifact kind this
/// build knows (3 and 4 once named compiled NFA/DFA formats) quarantines
/// them as corrupt, boots without panicking, and serves the rest of the
/// store: zero builds, the cold service's answers.
#[test]
fn unknown_kind_files_are_quarantined_at_warm_start() {
    const UNKNOWN: [u32; 3] = [3, 4, 99];
    let batch: Vec<QuerySpec> = ["dstm+aggressive:of:2:1", "TL2:ss:2:2"]
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect();
    let dir = scratch_dir("unknown-kind");
    let cold = Service::try_new(store_config(&dir, None)).unwrap();
    let reference = fingerprint(&cold.submit(&batch));
    drop(cold);

    // Re-encode a real artifact under foreign keys, then overwrite the
    // header's kind tag (recomputing the header checksum, so the tag is
    // the only fault).
    let source = ArtifactKey::run_graph("dstm+aggressive", 2, 1);
    let (_, artifact) = decode_artifact(&std::fs::read(dir.join(file_name(&source))).unwrap())
        .expect("the cold service's file decodes");
    let foreign: Vec<ArtifactKey> = UNKNOWN
        .iter()
        .map(|tag| ArtifactKey::run_graph(format!("foreign-{tag}"), 2, 1))
        .collect();
    for (key, &tag) in foreign.iter().zip(&UNKNOWN) {
        let mut image = encode_artifact(key, &artifact);
        image[16..20].copy_from_slice(&tag.to_le_bytes());
        let sections = u32::from_le_bytes(image[20..24].try_into().unwrap()) as usize;
        let header_len = MAGIC.len() + 4 * 4 + 32 + sections * (4 + 8 + 8);
        let sum = checksum64(&image[..header_len]);
        image[header_len..header_len + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(dir.join(file_name(key)), image).unwrap();
    }

    let warm = Service::try_new(store_config(&dir, None)).unwrap();
    for key in &foreign {
        let path = dir.join(file_name(key));
        assert!(!path.exists(), "{key:?} left in the namespace");
        let quarantined = dir.join(format!("{}.quarantined", file_name(key)));
        assert!(quarantined.exists(), "{key:?} not kept for post-mortem");
    }
    assert_eq!(fingerprint(&warm.submit(&batch)), reference);
    let stats = warm.stats();
    assert_eq!(stats.store_corrupt, UNKNOWN.len() as u64, "{stats:?}");
    assert_eq!(stats.artifact_builds, 0, "{stats:?}");
    assert_eq!(stats.store_files, 2, "{stats:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
