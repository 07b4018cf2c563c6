//! Differential conformance harness for the inclusion checks: the seed
//! reference (`tm_bench::oracle::check_inclusion_reference`) and the
//! on-the-fly product engine (`check_inclusion_otf`) — fed materialized
//! automata through `tm_bench::validation::NfaSource`, the TM steppers
//! directly, and inside a `Verifier` session — must agree on every Table
//! 2 (TM, property) pair, on randomized NFA/DFA pairs and on hand-built
//! edge cases. The session's lazily interned specification is also
//! checked entry by entry against the materialized automaton.
//!
//! Counterexamples additionally *replay*: the word is accepted by the
//! implementation automaton and rejected by the specification DFA
//! (`Nfa::accepts` / `Dfa::accepts`).

use std::collections::HashMap;
use std::hash::Hash;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use tm_modelcheck::algorithms::{
    DstmTm, MostGeneralSource, PoliteCm, SequentialTm, Tl2Tm, TwoPhaseTm, ValidationStyle,
    WithContentionManager,
};
use tm_bench::oracle::check_inclusion_reference;
use tm_bench::validation::{check_materialized, determinize};
use tm_modelcheck::automata::{
    check_inclusion_otf, Alphabet, Dfa, InclusionResult, Nfa, OtfStats, QueryBudget, SpecCache,
    SuccessorSource, NO_STATE,
};
use tm_modelcheck::checker::{Artifact, ArtifactKey, Verifier};
use tm_modelcheck::lang::{SafetyProperty, Statement};
use tm_modelcheck::spec::{DetSpec, QuotientSpec};

const MAX_STATES: usize = 20_000_000;

/// The on-the-fly engine without a budget, against a fresh
/// specification cache over `dfa`.
fn otf<S: SuccessorSource>(
    source: &S,
    dfa: &Dfa<Statement>,
) -> (InclusionResult<S::Label>, OtfStats) {
    let mut spec = SpecCache::new(dfa, dfa.letter_ids());
    check_inclusion_otf(source, &mut spec, &QueryBudget::unlimited()).expect("in bounds")
}

/// Asserts that a counterexample of `L(nfa) ⊆ L(dfa)` replays: accepted
/// by the implementation, rejected by the specification.
fn assert_replays<L: Clone + Eq + Hash + std::fmt::Debug>(
    nfa: &Nfa<L>,
    dfa: &Dfa<L>,
    word: &[L],
    context: &str,
) {
    assert!(
        nfa.accepts(word),
        "{context}: counterexample not accepted by the implementation: {word:?}"
    );
    assert!(
        !dfa.accepts(word),
        "{context}: counterexample accepted by the specification: {word:?}"
    );
}

/// Checks one (implementation NFA, specification DFA) pair with the
/// engine, fed the NFA through `NfaSource` (`check_materialized`), and
/// with the reference, and cross-checks them; returns the reference
/// result.
fn conform<L: Clone + Eq + Hash + std::fmt::Debug>(
    nfa: &Nfa<L>,
    dfa: &Dfa<L>,
    context: &str,
) -> InclusionResult<L> {
    let reference = check_inclusion_reference(nfa, dfa);
    let got = check_materialized(nfa, dfa);
    assert_eq!(got, reference, "{context}: check_inclusion_otf");
    if let Some(word) = reference.counterexample() {
        assert_replays(nfa, dfa, word, context);
    }
    reference
}

/// All Table 2 (TM, property) pairs: the engine agrees with the
/// reference — same verdict, same shortest counterexample, and same
/// `product_states` — and every counterexample replays.
#[test]
fn table2_all_engines_agree() {
    let roster = tm_bench::table2_roster();
    for property in SafetyProperty::all() {
        let (dfa, _) = DetSpec::new(property, 2, 2).to_dfa(MAX_STATES);
        for (name, nfa, _) in &roster {
            let context = format!("{} / {name}", property.short_name());
            let result = conform(nfa, &dfa, &context);
            if let Some(word) = result.counterexample() {
                let word: tm_modelcheck::lang::Word = word.iter().copied().collect();
                assert!(!property.holds(&word), "{context}: oracle accepts {word}");
            }
        }
    }
}

/// The on-the-fly engine fed by the TM steppers directly (no NFA ever
/// built) agrees with the materialize-then-check pipeline on every Table
/// 2 TM — verdict, word, product count, and the implementation
/// state count discovered on the fly.
#[test]
fn tm_steppers_match_materialized_pipeline() {
    fn check_stepper<A: tm_modelcheck::algorithms::TmAlgorithm>(tm: &A, name: &str) {
        for property in SafetyProperty::all() {
            let (dfa, _) = DetSpec::new(property, 2, 2).to_dfa(MAX_STATES);
            let explored = tm_modelcheck::algorithms::most_general_nfa(tm, MAX_STATES);
            let expected = check_materialized(&explored.nfa, &dfa);
            let source = MostGeneralSource::new(tm, Alphabet::from_letters(dfa.alphabet()));
            let context = format!("{} / {name} (stepper)", property.short_name());
            let (got, stats) = otf(&source, &dfa);
            assert_eq!(got, expected, "{context}");
            if expected.holds() {
                assert_eq!(
                    stats.impl_states,
                    explored.num_states(),
                    "{context}: impl state count"
                );
            }
            if let Some(word) = expected.counterexample() {
                assert_replays(&explored.nfa, &dfa, word, &context);
            }
        }
    }

    check_stepper(&SequentialTm::new(2, 2), "sequential");
    check_stepper(&TwoPhaseTm::new(2, 2), "2PL");
    check_stepper(&DstmTm::new(2, 2), "dstm");
    check_stepper(&Tl2Tm::new(2, 2), "TL2");
    check_stepper(
        &WithContentionManager::new(
            Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
            PoliteCm,
        ),
        "modified-TL2+polite",
    );
}

/// The `Verifier` session — its lazily interned specification cached
/// across all five TMs — agrees with the bare engine over the
/// materialized specification (`DetSpec::to_dfa`) on every Table 2 pair:
/// verdict, counterexample word, and (on verified runs) TM state count.
#[test]
fn safety_sessions_match_otf_engine_on_table2() {
    use tm_modelcheck::algorithms::TmAlgorithm;

    fn check_case<A>(
        tm: &A,
        name: &str,
        property: SafetyProperty,
        spec: &Dfa<Statement>,
        verifier: &mut Verifier,
    ) where
        A: TmAlgorithm,
    {
        let source = MostGeneralSource::new(tm, Alphabet::from_letters(spec.alphabet()));
        let (baseline, stats) = otf(&source, spec);
        let got = verifier.check_safety(tm, property);
        let context = format!("{} / {name}", property.short_name());
        assert_eq!(got.holds(), baseline.holds(), "{context}: verdict");
        assert_eq!(
            got.counterexample().map(|w| w.statements()),
            baseline.counterexample(),
            "{context}: word"
        );
        if baseline.holds() {
            // Full reachable TM state count.
            assert_eq!(got.stats.tm_states, stats.impl_states, "{context}: tm states");
        }
    }

    for property in SafetyProperty::all() {
        let spec = DetSpec::new(property, 2, 2).to_dfa(MAX_STATES).0;
        let mut verifier = Verifier::new(2, 2);
        check_case(&SequentialTm::new(2, 2), "sequential", property, &spec, &mut verifier);
        check_case(&TwoPhaseTm::new(2, 2), "2PL", property, &spec, &mut verifier);
        check_case(&DstmTm::new(2, 2), "dstm", property, &spec, &mut verifier);
        check_case(&Tl2Tm::new(2, 2), "TL2", property, &spec, &mut verifier);
        check_case(
            &WithContentionManager::new(
                Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
                PoliteCm,
            ),
            "modified-TL2+polite",
            property,
            &spec,
            &mut verifier,
        );
        // Five TMs, one property per loop iteration: the session built
        // its specification artifact exactly once.
        assert_eq!(verifier.builds(), 1, "spec built once");
    }
}

/// The session's lazily interned specification, entry by entry, against
/// the materialized automaton: after the Table 2 roster at (2, 2) runs
/// through one `Verifier`, every row the session's
/// `SpecCache<QuotientSpec>` cached belongs to a key of some
/// `DetSpec::to_dfa` state, reaches the key of that state's DFA successor
/// for each letter, and misses exactly where the DFA has no transition.
#[test]
fn session_spec_rows_match_materialized_dfa() {
    let mut verifier = Verifier::new(2, 2);
    for property in SafetyProperty::all() {
        for case in tm_bench::table2_cases() {
            case.check_session(&mut verifier, property);
        }
        let key = ArtifactKey::spec(property, 2, 2);
        let Some(Artifact::Spec { cache, .. }) = verifier.artifact(&key) else {
            panic!("{property}: the session holds no specification artifact");
        };
        let quotient = QuotientSpec::new(property, 2, 2);
        let (dfa, dfa_states) = DetSpec::new(property, 2, 2).to_dfa(MAX_STATES);
        // One DFA state per key: the walk in `tests/spec_quotient.rs`
        // shows every state of a key steps to the same keys.
        let mut dfa_of_key: HashMap<_, usize> = HashMap::new();
        for (id, state) in dfa_states.iter().enumerate() {
            dfa_of_key.entry(quotient.normalize(state)).or_insert(id);
        }
        assert_eq!(cache.letters(), dfa.alphabet(), "{property}: letter order");
        let (states, rows) = cache.parts();
        let mut entries = 0;
        for (state, row) in states.iter().zip(rows) {
            let Some(row) = row else { continue };
            let q = dfa_of_key[state];
            for (letter, &next) in dfa.alphabet().iter().zip(row.iter()) {
                let expected = dfa
                    .step(q, letter)
                    .map(|t| quotient.normalize(&dfa_states[t]));
                let got = (next != NO_STATE).then(|| states[next as usize]);
                assert_eq!(
                    got, expected,
                    "{property}: row of {state:?}, letter {letter}"
                );
                entries += 1;
            }
        }
        assert!(entries > 0, "{property}: the session cached no rows");
    }
}

const NFA_ALPHABET: [char; 4] = ['a', 'b', 'c', 'd'];

/// A random NFA over a bounded alphabet with bounded states/transitions
/// (25% ε), state 0 initial.
fn arb_nfa() -> impl Strategy<Value = Nfa<char>> {
    (
        1usize..=7,
        proptest::collection::vec((0usize..7, 0usize..5, 0usize..7), 0..18),
    )
        .prop_map(|(states, edges)| build_nfa(states, &edges))
}

fn build_nfa(states: usize, edges: &[(usize, usize, usize)]) -> Nfa<char> {
    let mut nfa = Nfa::new();
    for _ in 0..states {
        nfa.add_state();
    }
    nfa.set_initial(0);
    for &(from, label, to) in edges {
        let (from, to) = (from % states, to % states);
        let label = if label == NFA_ALPHABET.len() {
            None
        } else {
            Some(NFA_ALPHABET[label])
        };
        nfa.add_transition(from, label, to);
    }
    nfa
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fuzz: on random NFA/DFA pairs, the on-the-fly engine (fed the NFA
    /// through `NfaSource`) is equivalent to the reference checker, so it
    /// is exercised on adversarial shapes, not just the Table 2 examples.
    #[test]
    fn otf_equals_compiled_on_random_pairs((left, right) in (arb_nfa(), arb_nfa())) {
        let dfa = determinize(&right, NFA_ALPHABET.to_vec());
        conform(&left, &dfa, "proptest pair");
    }
}

/// The same differential property driven by explicit `rand`-shim seeds —
/// a reproducible sweep wider than the proptest default stream.
#[test]
fn otf_equals_compiled_on_seeded_pairs() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xd1ff_0000 + seed);
        let random_nfa = |rng: &mut StdRng| {
            let states = 1 + rng.gen_range(0..7);
            let edges: Vec<(usize, usize, usize)> = (0..rng.gen_range(0..20))
                .map(|_| {
                    (
                        rng.gen_range(0..states),
                        rng.gen_range(0..NFA_ALPHABET.len() + 1),
                        rng.gen_range(0..states),
                    )
                })
                .collect();
            build_nfa(states, &edges)
        };
        let left = random_nfa(&mut rng);
        let right = random_nfa(&mut rng);
        let dfa = determinize(&right, NFA_ALPHABET.to_vec());
        conform(&left, &dfa, &format!("seed {seed}"));
    }
}

/// A one-state implementation looping on each of `letters`.
fn letter_nfa(letters: &[char]) -> Nfa<char> {
    let mut nfa = Nfa::new();
    let s = nfa.add_state();
    nfa.set_initial(s);
    for &l in letters {
        nfa.add_transition(s, Some(l), s);
    }
    nfa
}

/// A one-state specification allowing exactly `letters`.
fn letter_dfa(letters: &[char]) -> Dfa<char> {
    let mut dfa = Dfa::new(letters.to_vec());
    let q = dfa.add_state();
    dfa.set_initial(q);
    for l in letters {
        dfa.set_transition(q, l, q);
    }
    dfa
}

/// A chain with branching and ε-moves, long enough to have several BFS
/// levels.
fn chain_nfa(n: usize) -> Nfa<char> {
    let mut nfa = Nfa::new();
    let states: Vec<_> = (0..n).map(|_| nfa.add_state()).collect();
    nfa.set_initial(states[0]);
    for i in 0..n - 1 {
        nfa.add_transition(states[i], Some('a'), states[i + 1]);
        if i % 3 == 0 {
            nfa.add_transition(states[i], None, states[(i + 2).min(n - 1)]);
        }
        if i % 4 == 1 {
            nfa.add_transition(states[i], Some('b'), states[i]);
        }
    }
    nfa.add_transition(states[n - 1], Some('c'), states[n - 1]);
    nfa
}

/// Hand-built pairs the random ones do not reach: implementation letters
/// outside the specification's alphabet, an ε-cycle, and multi-level
/// chains. Every engine matches the reference exactly.
#[test]
fn hand_built_pairs_match_reference() {
    let mut eps_cycle = Nfa::new();
    let s0 = eps_cycle.add_state();
    let s1 = eps_cycle.add_state();
    eps_cycle.set_initial(s0);
    eps_cycle.add_transition(s0, None, s1);
    eps_cycle.add_transition(s1, Some('a'), s0);
    eps_cycle.add_transition(s0, Some('b'), s1);
    eps_cycle.add_transition(s1, Some('c'), s1);
    let mut alternating = Dfa::new(vec!['a', 'b']);
    let q0 = alternating.add_state();
    let q1 = alternating.add_state();
    alternating.set_initial(q0);
    alternating.set_transition(q0, &'a', q1);
    alternating.set_transition(q1, &'b', q0);

    let cases: Vec<(Nfa<char>, Dfa<char>)> = vec![
        (letter_nfa(&['a', 'b']), letter_dfa(&['a'])),
        (letter_nfa(&['a']), letter_dfa(&['a', 'b'])),
        (letter_nfa(&['z']), letter_dfa(&['a'])),
        (eps_cycle, alternating),
        (chain_nfa(9), letter_dfa(&['a', 'b'])),
        (chain_nfa(12), letter_dfa(&['a', 'b'])),
        (chain_nfa(12), letter_dfa(&['a', 'b', 'c'])),
    ];
    for (i, (nfa, dfa)) in cases.iter().enumerate() {
        conform(nfa, dfa, &format!("hand-built pair {i}"));
    }
}
