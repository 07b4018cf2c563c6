//! Validation of the specification quotient (`tm_spec::QuotientSpec`):
//! a synchronized walk of the quotient against the materialized
//! unquotiented automaton (`DetSpec::to_dfa`).
//!
//! For every reachable `DetSpec` state `s` and letter `a`, the quotient
//! stepped from `key(s)` must enable `a` exactly when the DFA does, and
//! reach `key` of the DFA's successor. By induction on the word, the
//! quotient then tracks the key of the DFA state along every word and
//! accepts the same language. A negative control applies the
//! strict-serializability rule to opacity, where it is unsound, and
//! checks that the walk catches it. A differential check runs the
//! session (over the quotient) against the product engine over the
//! unquotiented `DetSpec` on the TMs and managers at (2, 1) and (3, 1).

use std::collections::HashSet;

use tm_modelcheck::algorithms::{
    AggressiveCm, DstmTm, MostGeneralSource, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm,
    TwoPhaseTm, ValidationStyle, WithContentionManager,
};
use tm_modelcheck::automata::{
    check_inclusion_otf, Alphabet, DeterministicTransitionSystem, QueryBudget, SpecCache,
};
use tm_modelcheck::checker::Verifier;
use tm_modelcheck::lang::{SafetyProperty, Statement};
use tm_modelcheck::spec::{forget_doomed, spec_alphabet, DetSpec, DetState, QuotientSpec};

const MAX: usize = 2_000_000;

/// What a synchronized walk found.
#[derive(Debug, Default, PartialEq, Eq)]
struct Walk {
    /// Reachable states of `DetSpec::to_dfa`.
    dfa_states: usize,
    /// Distinct keys of those states.
    keys: usize,
    /// (state, letter) pairs where exactly one side enables the letter.
    enabledness_mismatches: usize,
    /// (state, letter) pairs where both step but the quotient's
    /// successor is not the key of the DFA's.
    target_mismatches: usize,
}

/// Walks `quotient` against `DetSpec::new(property, n, k).to_dfa`, with
/// `key` the normal form the quotient interns by.
fn walk<Q>(
    quotient: &Q,
    key: impl Fn(&DetState) -> DetState,
    property: SafetyProperty,
    n: usize,
    k: usize,
) -> Walk
where
    Q: DeterministicTransitionSystem<State = DetState, Label = Statement>,
{
    let (dfa, states) = DetSpec::new(property, n, k).to_dfa(MAX);
    assert_eq!(
        quotient.initial(),
        key(&states[dfa.initial_state()]),
        "{property} ({n},{k}): initial key"
    );
    let mut found = Walk {
        dfa_states: dfa.num_states(),
        ..Walk::default()
    };
    let mut keys = HashSet::new();
    for (q, state) in states.iter().enumerate() {
        let from = key(state);
        keys.insert(from);
        for letter in dfa.alphabet() {
            match (dfa.step(q, letter), quotient.step(&from, letter)) {
                (None, None) => {}
                (Some(next), Some(got)) => {
                    if got != key(&states[next]) {
                        found.target_mismatches += 1;
                    }
                }
                _ => found.enabledness_mismatches += 1,
            }
        }
    }
    found.keys = keys.len();
    found
}

/// The strict-serializability quotient is exact wherever `to_dfa` is
/// feasible: no mismatch, and the key counts it interns.
#[test]
fn ss_quotient_walks_in_step_with_the_materialized_spec() {
    let property = SafetyProperty::StrictSerializability;
    for (n, k, dfa_states, keys) in [
        (2, 1, 48, 32),
        (3, 1, 1264, 256),
        (2, 2, 3520, 1120),
        (4, 1, 57_952, 2336),
        (2, 3, 235_264, 62_848),
    ] {
        let quotient = QuotientSpec::new(property, n, k);
        let found = walk(&quotient, |s| quotient.normalize(s), property, n, k);
        assert_eq!(
            found,
            Walk {
                dfa_states,
                keys,
                ..Walk::default()
            },
            "ss ({n},{k})"
        );
    }
}

/// The opacity system's key is the identity: walking it is walking
/// `DetSpec` itself.
#[test]
fn op_quotient_is_the_identity() {
    let property = SafetyProperty::Opacity;
    let quotient = QuotientSpec::new(property, 2, 2);
    let found = walk(&quotient, |s| quotient.normalize(s), property, 2, 2);
    assert_eq!(
        found,
        Walk {
            dfa_states: 2272,
            keys: 2272,
            ..Walk::default()
        }
    );
}

/// Negative control: the strict-serializability rule applied to opacity
/// merges states that accept different continuations, and the walk
/// reports it.
#[test]
fn ss_rule_applied_to_opacity_is_caught() {
    struct OpacityWithSsRule(DetSpec);
    impl DeterministicTransitionSystem for OpacityWithSsRule {
        type State = DetState;
        type Label = Statement;
        fn initial(&self) -> DetState {
            forget_doomed(&DetState::default())
        }
        fn step(&self, state: &DetState, letter: &Statement) -> Option<DetState> {
            self.0
                .apply(state, *letter)
                .map(|next| forget_doomed(&next))
        }
    }
    let property = SafetyProperty::Opacity;
    let unsound = OpacityWithSsRule(DetSpec::new(property, 2, 2));
    let found = walk(&unsound, forget_doomed, property, 2, 2);
    assert_eq!(found.enabledness_mismatches, 640, "{found:?}");
}

/// The session's answer over the quotient against the product engine
/// over the unquotiented `DetSpec`: the same verdict and word, the same
/// TM states on verified runs, and never more product states.
fn assert_session_matches_unquotiented<A: TmAlgorithm>(tm: &A, verifier: &mut Verifier) {
    let (n, k) = (tm.threads(), tm.vars());
    for property in SafetyProperty::all() {
        let mut spec = SpecCache::new(DetSpec::new(property, n, k), spec_alphabet(n, k));
        let source = MostGeneralSource::new(tm, Alphabet::from_letters(spec.letters()));
        let (expected, stats) =
            check_inclusion_otf(&source, &mut spec, &QueryBudget::unlimited()).expect("in bounds");
        let got = verifier.check_safety(tm, property);
        let context = format!("{} / {} ({n},{k})", property.short_name(), tm.name());
        assert_eq!(
            got.counterexample().map(|w| w.statements()),
            expected.counterexample(),
            "{context}: word"
        );
        assert_eq!(got.holds(), expected.holds(), "{context}: verdict");
        if expected.holds() {
            assert_eq!(got.stats.tm_states, stats.impl_states, "{context}: tm states");
        }
        assert!(
            got.stats.states_explored <= expected.product_states(),
            "{context}: {} quotient pairs against {}",
            got.stats.states_explored,
            expected.product_states()
        );
    }
}

#[test]
fn sessions_over_the_quotient_match_the_unquotiented_spec() {
    for (n, k) in [(2, 1), (3, 1)] {
        let mut verifier = Verifier::new(n, k);
        let modified = Tl2Tm::with_validation(n, k, ValidationStyle::RValidateThenChkLock);
        assert_session_matches_unquotiented(&SequentialTm::new(n, k), &mut verifier);
        assert_session_matches_unquotiented(&TwoPhaseTm::new(n, k), &mut verifier);
        assert_session_matches_unquotiented(&DstmTm::new(n, k), &mut verifier);
        assert_session_matches_unquotiented(&Tl2Tm::new(n, k), &mut verifier);
        assert_session_matches_unquotiented(&modified, &mut verifier);
        assert_session_matches_unquotiented(
            &WithContentionManager::new(DstmTm::new(n, k), AggressiveCm),
            &mut verifier,
        );
        assert_session_matches_unquotiented(
            &WithContentionManager::new(modified, PoliteCm),
            &mut verifier,
        );
    }
}
