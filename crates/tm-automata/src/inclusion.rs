//! Language inclusion `L(A) ⊆ L(B)` for a nondeterministic implementation
//! against a **deterministic** specification — the paper's core safety
//! check (§5.4): "Since the TM specification is deterministic, language
//! inclusion can be checked in time linear in the size of the systems."
//!
//! There is one product BFS: [`crate::check_inclusion_otf`]
//! (`product.rs`), over one specification artifact, the
//! [`crate::SpecCache`]. [`check_inclusion`] is its wrapper for
//! already-materialized automata: the [`Dfa`] runs as the cache's
//! deterministic transition system. The pre-compilation original is the
//! test oracle of the differential suites, in the dev-only `tm-bench`
//! crate (`tm_bench::oracle`).

use std::hash::Hash;

use crate::budget::QueryBudget;
use crate::compiled::CompiledNfa;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::product::{check_inclusion_otf, NfaSource, SpecCache};

/// Outcome of an inclusion check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InclusionResult<L> {
    /// Every word of the implementation is accepted by the specification.
    Included {
        /// Number of product states explored.
        product_states: usize,
    },
    /// A word of the implementation rejected by the specification.
    Counterexample {
        /// A shortest offending word.
        word: Vec<L>,
        /// Number of product states explored before the violation.
        product_states: usize,
    },
}

impl<L> InclusionResult<L> {
    /// `true` if inclusion holds.
    pub fn holds(&self) -> bool {
        matches!(self, InclusionResult::Included { .. })
    }

    /// The counterexample word, if any.
    pub fn counterexample(&self) -> Option<&[L]> {
        match self {
            InclusionResult::Counterexample { word, .. } => Some(word),
            InclusionResult::Included { .. } => None,
        }
    }

    /// Number of product states explored.
    pub fn product_states(&self) -> usize {
        match self {
            InclusionResult::Included { product_states }
            | InclusionResult::Counterexample { product_states, .. } => *product_states,
        }
    }
}

/// Checks `L(nfa) ⊆ L(dfa)` by breadth-first exploration of the product,
/// following ε-moves of the implementation on the spot.
///
/// Both automata have all states accepting, so inclusion fails exactly
/// when some reachable implementation transition has no counterpart in the
/// specification; BFS order makes the returned counterexample shortest
/// (and identical to the seed checker's in `tm_bench::oracle`).
///
/// Compiles the implementation over a clone of the specification's
/// interned alphabet and runs [`crate::check_inclusion_otf`] against a
/// fresh [`SpecCache`] over `dfa`, without a budget. To check one
/// specification against several implementations, keep one cache and
/// call [`crate::check_inclusion_otf`] over [`crate::NfaSource`]
/// directly.
///
/// # Examples
///
/// ```
/// use tm_automata::{check_inclusion, Dfa, Nfa};
/// let mut imp = Nfa::new();
/// let s = imp.add_state();
/// imp.set_initial(s);
/// imp.add_transition(s, Some('a'), s);
/// imp.add_transition(s, Some('b'), s);
/// let mut spec = Dfa::new(vec!['a', 'b']);
/// let q = spec.add_state();
/// spec.set_initial(q);
/// spec.set_transition(q, &'a', q);
/// let result = check_inclusion(&imp, &spec);
/// assert_eq!(result.counterexample(), Some(&['b'][..]));
/// ```
pub fn check_inclusion<L: Clone + Eq + Hash>(nfa: &Nfa<L>, dfa: &Dfa<L>) -> InclusionResult<L> {
    // Implementation labels are interned on top of the specification
    // alphabet: ids at or above its length are implementation-only
    // letters, immediate violations when reached.
    let mut alphabet = dfa.interned().clone();
    let imp = CompiledNfa::compile(nfa, &mut alphabet);
    let source = NfaSource::new(&imp, &alphabet);
    let mut spec = SpecCache::new(dfa, dfa.letter_ids());
    check_inclusion_otf(&source, &mut spec, &QueryBudget::unlimited())
        .expect("an unlimited check cannot abort")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letter_nfa(letters: &[char]) -> Nfa<char> {
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        nfa.set_initial(s);
        for &l in letters {
            nfa.add_transition(s, Some(l), s);
        }
        nfa
    }

    fn letter_dfa(letters: &[char]) -> Dfa<char> {
        let mut dfa = Dfa::new(letters.to_vec());
        let q = dfa.add_state();
        dfa.set_initial(q);
        for l in letters {
            dfa.set_transition(q, l, q);
        }
        dfa
    }

    #[test]
    fn inclusion_holds_for_subset_alphabet() {
        let result = check_inclusion(&letter_nfa(&['a']), &letter_dfa(&['a', 'b']));
        assert!(result.holds());
        assert_eq!(result.counterexample(), None);
        assert_eq!(result.product_states(), 1);
    }

    #[test]
    fn counterexample_is_shortest() {
        // Implementation: a* then one c allowed after a b.
        let mut imp = Nfa::new();
        let s0 = imp.add_state();
        let s1 = imp.add_state();
        imp.set_initial(s0);
        imp.add_transition(s0, Some('a'), s0);
        imp.add_transition(s0, Some('b'), s1);
        imp.add_transition(s1, Some('c'), s1);
        // Spec: only a and b.
        let mut spec = Dfa::new(vec!['a', 'b', 'c']);
        let q = spec.add_state();
        spec.set_initial(q);
        spec.set_transition(q, &'a', q);
        spec.set_transition(q, &'b', q);
        let result = check_inclusion(&imp, &spec);
        assert_eq!(result.counterexample(), Some(&['b', 'c'][..]));
    }

    #[test]
    fn epsilon_steps_do_not_consume_spec_letters() {
        let mut imp = Nfa::new();
        let s0 = imp.add_state();
        let s1 = imp.add_state();
        imp.set_initial(s0);
        imp.add_transition(s0, None, s1);
        imp.add_transition(s1, Some('a'), s1);
        let result = check_inclusion(&imp, &letter_dfa(&['a']));
        assert!(result.holds());
    }

    #[test]
    fn letter_outside_spec_alphabet_is_violation() {
        let result = check_inclusion(&letter_nfa(&['z']), &letter_dfa(&['a']));
        assert_eq!(result.counterexample(), Some(&['z'][..]));
    }
}
