//! Eviction conformance: a session that evicts compiled artifacts
//! between queries ([`Verifier::evict`] with the artifact's
//! [`ArtifactKey`]) must answer every re-query **bit-identically** to
//! the session that never evicted — verdicts, counterexample words,
//! lassos, and notations. Eviction may only cost time (the rebuild) and
//! is reported in [`tm_checker::QueryStats::rebuilds`] and
//! [`Verifier::rebuilds`]; this is the contract the memory-budgeted
//! `tm-service` layer rests on.

use tm_algorithms::{
    AggressiveCm, DstmTm, PoliteCm, SequentialTm, Tl2Tm, TwoPhaseTm, ValidationStyle,
    WithContentionManager,
};
use tm_checker::{ArtifactKey, Verdict, Verifier};
use tm_lang::{LivenessProperty, SafetyProperty};

/// The Table 3 roster rows, rebuilt per call (construction is cheap).
fn liveness_verdict(verifier: &mut Verifier, name: &str, property: LivenessProperty) -> Verdict {
    match name {
        "sequential" => verifier.check_liveness(&SequentialTm::new(2, 1), property),
        "2PL" => verifier.check_liveness(&TwoPhaseTm::new(2, 1), property),
        "dstm+aggressive" => verifier.check_liveness(
            &WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm),
            property,
        ),
        "TL2+polite" => verifier.check_liveness(
            &WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm),
            property,
        ),
        other => panic!("unknown roster row: {other}"),
    }
}

fn assert_liveness_identical(kept: &Verdict, evicted: &Verdict, context: &str) {
    assert_eq!(kept.abort_reason(), None, "{context}: answered");
    assert_eq!(kept.holds(), evicted.holds(), "{context}: verdict");
    assert_eq!(
        kept.stats.states_explored, evicted.stats.states_explored,
        "{context}: states"
    );
    assert_eq!(kept.lasso(), evicted.lasso(), "{context}: lasso");
    if let (Some(a), Some(b)) = (kept.lasso(), evicted.lasso()) {
        assert_eq!(a.cycle_notation(), b.cycle_notation(), "{context}: notation");
    }
}

#[test]
fn evicted_run_graphs_requery_bit_identically() {
    let mut kept = Verifier::new(2, 1);
    let mut evicting = Verifier::new(2, 1);
    // Names are the TMs' own `name()`s — the run-graph key names.
    for name in ["sequential", "2PL", "dstm+aggressive", "TL2+polite"] {
        for property in LivenessProperty::all() {
            let reference = liveness_verdict(&mut kept, name, property);
            // Evict the graph before *every* query: each one is a
            // cold rebuild after the first.
            let had_graph = evicting.evict(&ArtifactKey::run_graph(name, 2, 1));
            let requeried = liveness_verdict(&mut evicting, name, property);
            assert_liveness_identical(&reference, &requeried, &format!("{name}/{property}"));
            assert_eq!(
                requeried.stats.rebuilds,
                usize::from(had_graph),
                "{name}/{property}: a build after eviction is a rebuild"
            );
        }
    }
    // 4 TMs × 3 properties: one first build plus two rebuilds each.
    assert_eq!(kept.builds(), 4);
    assert_eq!(kept.rebuilds(), 0);
    assert_eq!(evicting.builds(), 12);
    assert_eq!(evicting.rebuilds(), 8);
}

fn safety_verdict(verifier: &mut Verifier, name: &str, property: SafetyProperty) -> Verdict {
    match name {
        "sequential" => verifier.check_safety(&SequentialTm::new(2, 2), property),
        "2PL" => verifier.check_safety(&TwoPhaseTm::new(2, 2), property),
        "dstm" => verifier.check_safety(&DstmTm::new(2, 2), property),
        "modified-TL2+polite" => verifier.check_safety(
            &WithContentionManager::new(
                Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
                PoliteCm,
            ),
            property,
        ),
        other => panic!("unknown roster row: {other}"),
    }
}

#[test]
fn evicted_specs_requery_bit_identically() {
    // The paper's interesting safety rows: a verifying TM per property
    // plus the violating modified TL2 (counterexample word must survive
    // eviction byte-for-byte).
    let mut kept = Verifier::new(2, 2);
    let mut evicting = Verifier::new(2, 2);
    for property in SafetyProperty::all() {
        for name in ["sequential", "dstm", "modified-TL2+polite"] {
            let reference = safety_verdict(&mut kept, name, property);
            assert_eq!(reference.abort_reason(), None, "{name}/{property:?}: answered");
            let had_spec = evicting.evict(&ArtifactKey::spec(property, 2, 2));
            let requeried = safety_verdict(&mut evicting, name, property);
            assert_eq!(
                reference.holds(),
                requeried.holds(),
                "{name}/{property:?}: verdict"
            );
            assert_eq!(
                reference.counterexample(),
                requeried.counterexample(),
                "{name}/{property:?}: word"
            );
            assert_eq!(
                requeried.stats.rebuilds,
                usize::from(had_spec),
                "{name}/{property:?}: rebuild accounting"
            );
        }
    }
    // 2 properties, 3 TMs each: every query after the first per
    // property was answered from a freshly rebuilt artifact.
    assert_eq!(kept.builds(), 2);
    assert_eq!(kept.rebuilds(), 0);
    assert_eq!(evicting.builds(), 6);
    assert_eq!(evicting.rebuilds(), 4);
}

#[test]
fn dropping_unknown_artifacts_is_a_no_op() {
    let mut verifier = Verifier::new(2, 1);
    assert!(!verifier.evict(&ArtifactKey::run_graph("dstm", 2, 1)));
    assert!(!verifier.evict(&ArtifactKey::spec(SafetyProperty::Opacity, 2, 1)));
    let verdict = verifier.check_liveness(
        &WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm),
        LivenessProperty::ObstructionFreedom,
    );
    // A first-time build after a no-op drop is not a rebuild.
    assert_eq!(verdict.stats.rebuilds, 0);
    assert_eq!(verifier.rebuilds(), 0);
    let key = ArtifactKey::run_graph("dstm+aggressive", 2, 1);
    assert!(verifier.artifact(&key).is_some());
    assert!(verifier.evict(&key));
    assert!(verifier.artifact(&key).is_none());
    assert_eq!(verifier.artifact_heap_bytes(), 0);
}
