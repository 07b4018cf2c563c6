//! Property-based tests (proptest) over random transaction histories:
//! invariants of the reference semantics, the specifications, and the
//! checkers.

use proptest::prelude::*;

use tm_bench::oracle::check_inclusion_reference;
use tm_bench::validation::{check_materialized, determinize, NondetSpec};
use tm_modelcheck::automata::Nfa;
use tm_modelcheck::lang::{
    is_opaque, is_opaque_brute_force, is_strictly_serializable,
    is_strictly_serializable_brute_force, is_sequential, opacity_witness,
    serialization_witness, strictly_equivalent, transactions, SafetyProperty, Statement,
    StatementKind, ThreadId, VarId, Word,
};
use tm_modelcheck::spec::DetSpec;

/// A random statement over (2 threads, 2 variables).
fn arb_statement() -> impl Strategy<Value = Statement> {
    (0usize..2, 0usize..6).prop_map(|(t, k)| {
        let kind = match k {
            0 => StatementKind::Read(VarId::new(0)),
            1 => StatementKind::Read(VarId::new(1)),
            2 => StatementKind::Write(VarId::new(0)),
            3 => StatementKind::Write(VarId::new(1)),
            4 => StatementKind::Commit,
            _ => StatementKind::Abort,
        };
        Statement::new(kind, ThreadId::new(t))
    })
}

fn arb_word(max_len: usize) -> impl Strategy<Value = Word> {
    proptest::collection::vec(arb_statement(), 0..max_len).prop_map(Word::from)
}

proptest! {
    /// π_op ⊆ π_ss (§2).
    #[test]
    fn opacity_implies_strict_serializability(w in arb_word(10)) {
        if is_opaque(&w) {
            prop_assert!(is_strictly_serializable(&w));
        }
    }

    /// The conflict-graph checkers agree with the brute-force
    /// (definition-level) search.
    #[test]
    fn graph_checker_equals_brute_force(w in arb_word(8)) {
        prop_assume!(transactions(&w).len() <= 6);
        prop_assert_eq!(
            is_strictly_serializable(&w),
            is_strictly_serializable_brute_force(&w)
        );
        prop_assert_eq!(is_opaque(&w), is_opaque_brute_force(&w));
    }

    /// Safety is prefix-closed: a violating prefix never heals.
    #[test]
    fn safety_is_prefix_closed(w in arb_word(10)) {
        for property in SafetyProperty::all() {
            let mut seen_violation = false;
            for len in 0..=w.len() {
                let prefix = w.prefix(len);
                if seen_violation {
                    prop_assert!(!property.holds(&prefix));
                } else if !property.holds(&prefix) {
                    seen_violation = true;
                }
            }
        }
    }

    /// Serialization witnesses are sound: sequential and strictly
    /// equivalent to com(w) (resp. w).
    #[test]
    fn witnesses_are_sound(w in arb_word(8)) {
        if let Some(witness) = serialization_witness(&w) {
            prop_assert!(is_sequential(&witness));
            prop_assert!(strictly_equivalent(&w.com(), &witness));
        } else {
            prop_assert!(!is_strictly_serializable(&w));
        }
        if let Some(witness) = opacity_witness(&w) {
            prop_assert!(is_sequential(&witness));
            prop_assert!(strictly_equivalent(&w, &witness));
        } else {
            prop_assert!(!is_opaque(&w));
        }
    }

    /// Strict equivalence is reflexive, and stable under the identity.
    #[test]
    fn strict_equivalence_reflexive(w in arb_word(8)) {
        prop_assert!(strictly_equivalent(&w, &w));
    }

    /// The deterministic specification decides exactly the reference
    /// property (random-word slice of Theorem 2).
    #[test]
    fn det_spec_matches_oracle(w in arb_word(9)) {
        for property in SafetyProperty::all() {
            let spec = DetSpec::new(property, 2, 2);
            prop_assert_eq!(
                spec.accepts_word(&w),
                property.holds(&w),
                "{} on {}", property, &w
            );
        }
    }

    /// Sequential words satisfy both properties.
    #[test]
    fn sequential_words_are_opaque(w in arb_word(9)) {
        prop_assume!(is_sequential(&w));
        prop_assert!(is_opaque(&w));
        prop_assert!(is_strictly_serializable(&w));
    }

    /// Aborting every open transaction at the end preserves opacity.
    #[test]
    fn closing_aborts_preserve_opacity(w in arb_word(8)) {
        prop_assume!(is_opaque(&w));
        let mut closed = w.clone();
        for x in transactions(&w) {
            if x.is_unfinished() {
                closed.push(Statement::new(StatementKind::Abort, x.thread()));
            }
        }
        prop_assert!(is_opaque(&closed));
    }
}

const NFA_ALPHABET: [char; 3] = ['a', 'b', 'c'];

/// A random NFA over {a, b, c} with ≤ 6 states, ≤ 14 transitions (25% ε),
/// state 0 initial — the automaton shape also used in
/// `tests/automata_laws.rs`.
fn arb_nfa() -> impl Strategy<Value = Nfa<char>> {
    (
        1usize..=6,
        proptest::collection::vec((0usize..6, 0usize..4, 0usize..6), 0..14),
    )
        .prop_map(|(states, edges)| {
            let mut nfa = Nfa::new();
            for _ in 0..states {
                nfa.add_state();
            }
            nfa.set_initial(0);
            for (from, label, to) in edges {
                let (from, to) = (from % states, to % states);
                let label = if label == 3 {
                    None
                } else {
                    Some(NFA_ALPHABET[label])
                };
                nfa.add_transition(from, label, to);
            }
            nfa
        })
}

proptest! {
    /// The product engine returns results identical to the seed
    /// (label-hashing) product checker — verdict, counterexample word,
    /// and product-state count.
    #[test]
    fn inclusion_checks_agree_with_seed((left, right) in (arb_nfa(), arb_nfa())) {
        let dfa = determinize(&right, NFA_ALPHABET.to_vec());
        prop_assert_eq!(
            check_materialized(&left, &dfa),
            check_inclusion_reference(&left, &dfa)
        );
    }
}

/// Non-proptest: membership in the nondeterministic spec agrees with the
/// oracle on a fixed pseudo-random sample (the NFA is too costly to build
/// per proptest case).
#[test]
fn nondet_spec_matches_oracle_on_sample() {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    for property in SafetyProperty::all() {
        let spec = NondetSpec::new(property, 2, 2);
        let nfa = spec.to_nfa(2_000_000).nfa;
        for _ in 0..2_000 {
            let len = next(10);
            let w = tm_modelcheck::lang::random_word(
                tm_modelcheck::lang::Alphabet::new(2, 2),
                len,
                &mut next,
            );
            assert_eq!(
                nfa.accepts(w.statements()),
                property.holds(&w),
                "{property} on {w}"
            );
        }
    }
}
