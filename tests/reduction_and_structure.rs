//! Integration tests around the reduction theorems (§4, §6): structural
//! properties of the paper's TMs, the full reduction pipeline, and
//! empirical confirmation that verification at the (2,2) bound carries to
//! larger instances.

use tm_modelcheck::algorithms::{
    DstmTm, KarmaCm, PastAbortsCm, SequentialTm, Tl2Tm, TwoPhaseTm, WithContentionManager,
};
use tm_modelcheck::checker::{
    check_all_structural, check_structural, Outcome, ReductionEvidence, StructuralProperty,
    Verdict, Verifier,
};
use tm_modelcheck::lang::SafetyProperty;

/// The evidence of a reduction query, which must not have aborted.
fn reduction_evidence(verdict: Verdict) -> ReductionEvidence {
    match verdict.outcome {
        Outcome::Reduction(evidence) => evidence,
        other => panic!("a reduction query returns its evidence, got {other:?}"),
    }
}

/// §4: the four TMs satisfy the structural properties (bounded-exhaustive
/// evidence at depth 5).
#[test]
fn paper_tms_satisfy_structural_properties() {
    for report in check_all_structural(&SequentialTm::new(2, 2), 5) {
        assert!(report.holds(), "seq {}: {:?}", report.property, report.violation);
    }
    for report in check_all_structural(&TwoPhaseTm::new(2, 2), 5) {
        assert!(report.holds(), "2PL {}: {:?}", report.property, report.violation);
    }
}

/// The paper's P1 limitation: a manager prioritizing by past aborts falls
/// outside the reduction theorem, and the harness produces the witness.
#[test]
fn past_aborts_cm_violates_p1_with_witness() {
    let tm = WithContentionManager::new(DstmTm::new(2, 1), PastAbortsCm::new(2, 2));
    let report = check_structural(&tm, StructuralProperty::TransactionProjection, 5);
    let violation = report.violation.expect("P1 violated");
    // The witness drops an aborting transaction...
    assert!(violation
        .original
        .iter()
        .any(|s| s.kind.is_abort()));
    assert!(violation.transformed.len() < violation.original.len());
    // ... and the projection is genuinely rejected.
    let explored = tm_modelcheck::algorithms::most_general_nfa(&tm, 1_000_000);
    assert!(explored.nfa.accepts(violation.original.statements()));
    assert!(!explored.nfa.accepts(violation.transformed.statements()));
}

/// Extension finding: the Karma manager (priority = accesses this
/// transaction) also violates P1 — dropping the victim's transaction can
/// forbid an abort the original word contained.
#[test]
fn karma_cm_violates_p1() {
    let tm = WithContentionManager::new(DstmTm::new(2, 1), KarmaCm::new(2, 2));
    let report = check_structural(&tm, StructuralProperty::TransactionProjection, 6);
    assert!(
        !report.holds(),
        "karma should violate transaction projection"
    );
}

/// The full reduction pipeline for 2PL: (2,2) verdict + structural
/// evidence + spot checks at other sizes.
#[test]
fn reduction_pipeline_two_phase() {
    let evidence = reduction_evidence(Verifier::new(2, 2).verify_with_reduction(
        TwoPhaseTm::new,
        SafetyProperty::Opacity,
        4,
        &[(2, 1), (3, 1)],
    ));
    assert!(evidence.concludes());
    assert!(evidence.base_verdict.holds());
    assert_eq!(evidence.structural.len(), 4);
}

/// Empirical reduction confirmation: TMs verified at (2,2) also pass at
/// (2,3) and (3,2) — the sizes the reduction theorem promises are
/// redundant.
#[test]
fn spot_checks_beyond_the_bound() {
    let opacity = SafetyProperty::Opacity;
    for (n, k) in [(2usize, 3usize), (3, 2)] {
        let mut verifier = Verifier::new(n, k);
        assert!(
            verifier.check_safety(&SequentialTm::new(n, k), opacity).holds(),
            "seq ({n},{k})"
        );
        assert!(
            verifier.check_safety(&TwoPhaseTm::new(n, k), opacity).holds(),
            "2PL ({n},{k})"
        );
        assert!(
            verifier.check_safety(&DstmTm::new(n, k), opacity).holds(),
            "DSTM ({n},{k})"
        );
    }
}

/// The modified TL2 already fails at the reduction bound — consistent with
/// Theorem 1's contrapositive: an unsafe TM has a (2,2) witness.
#[test]
fn unsafe_tm_fails_at_the_bound_already() {
    use tm_modelcheck::algorithms::ValidationStyle;
    let make = |n, k| Tl2Tm::with_validation(n, k, ValidationStyle::RValidateThenChkLock);
    let evidence = reduction_evidence(Verifier::new(2, 2).verify_with_reduction(
        make,
        SafetyProperty::Opacity,
        4,
        &[],
    ));
    assert!(!evidence.concludes());
    assert!(!evidence.base_verdict.holds());
}
