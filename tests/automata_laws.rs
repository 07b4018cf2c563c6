//! Property-based validation of the automata tools on random
//! prefix-closed automata: determinization and minimization
//! (`tm_bench::validation`) preserve the language, and the antichain
//! inclusion check agrees with the determinize-then-product method, whose
//! product is the engine the `Verifier` runs (`check_inclusion_otf`).

use proptest::prelude::*;

use tm_bench::validation::{
    check_equivalence_antichain, check_inclusion_antichain, check_materialized, determinize,
    minimize,
};
use tm_modelcheck::automata::Nfa;

const ALPHABET: [char; 3] = ['a', 'b', 'c'];

/// A random NFA over {a, b, c} with ≤ 6 states, ≤ 14 transitions (10% ε),
/// state 0 initial.
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
                    Some(ALPHABET[label])
                };
                nfa.add_transition(from, label, to);
            }
            nfa
        })
}

/// All words over {a,b,c} up to length `n`.
fn words_up_to(n: usize) -> Vec<Vec<char>> {
    let mut out: Vec<Vec<char>> = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..n {
        let mut next = Vec::new();
        for w in &frontier {
            for &l in &ALPHABET {
                let mut w2 = w.clone();
                w2.push(l);
                out.push(w2.clone());
                next.push(w2);
            }
        }
        frontier = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subset-construction determinization preserves the language.
    #[test]
    fn determinization_preserves_language(nfa in arb_nfa()) {
        let dfa = determinize(&nfa, ALPHABET.to_vec());
        for w in words_up_to(4) {
            prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "{:?}", w);
        }
    }

    /// Minimization preserves the language and never grows the automaton.
    #[test]
    fn minimization_preserves_language(nfa in arb_nfa()) {
        let dfa = determinize(&nfa, ALPHABET.to_vec());
        let min = minimize(&dfa);
        prop_assert!(min.num_states() <= dfa.num_states().max(1));
        for w in words_up_to(4) {
            prop_assert_eq!(dfa.accepts(&w), min.accepts(&w), "{:?}", w);
        }
    }

    /// Minimization is idempotent.
    #[test]
    fn minimization_is_idempotent(nfa in arb_nfa()) {
        let min = minimize(&determinize(&nfa, ALPHABET.to_vec()));
        prop_assert_eq!(minimize(&min).num_states(), min.num_states());
    }

    /// The antichain inclusion check agrees with the classical
    /// determinize-then-product check, in both directions.
    #[test]
    fn antichain_agrees_with_product((left, right) in (arb_nfa(), arb_nfa())) {
        let right_dfa = determinize(&right, ALPHABET.to_vec());
        let classical = check_materialized(&left, &right_dfa);
        let antichain = check_inclusion_antichain(&left, &right);
        prop_assert_eq!(classical.holds(), antichain.holds());
        if let (Some(c), Some(a)) = (classical.counterexample(), antichain.counterexample()) {
            // Both find shortest counterexamples (BFS), so lengths agree.
            prop_assert_eq!(c.len(), a.len());
            prop_assert!(left.accepts(a));
            prop_assert!(!right.accepts(a));
        }
    }

    /// Equivalence is reflexive, and an automaton is equivalent to its
    /// determinization and minimization.
    #[test]
    fn equivalence_with_canonical_forms(nfa in arb_nfa()) {
        let dfa = determinize(&nfa, ALPHABET.to_vec());
        prop_assert!(check_equivalence_antichain(&nfa, &nfa).holds());
        prop_assert!(check_equivalence_antichain(&nfa, &dfa.to_nfa()).holds());
        prop_assert!(
            check_equivalence_antichain(&nfa, &minimize(&dfa).to_nfa()).holds()
        );
    }

    /// Counterexamples returned by inclusion checks are genuine.
    #[test]
    fn counterexamples_are_genuine((left, right) in (arb_nfa(), arb_nfa())) {
        let right_dfa = determinize(&right, ALPHABET.to_vec());
        if let Some(w) = check_materialized(&left, &right_dfa).counterexample() {
            prop_assert!(left.accepts(w));
            prop_assert!(!right_dfa.accepts(w));
        }
    }
}
