//! Cross-validation of specification automata against the
//! definition-level reference checkers of `tm-lang` (Theorem 2), and the
//! canonical automaton derived from the nondeterministic specification.
//!
//! Both the specification languages and the safety properties are
//! prefix-closed, so a bounded-exhaustive depth-first co-traversal that
//! descends only below words on which the automata and the oracle *agree
//! positively* finds the shortest disagreement if any exists up to the
//! depth bound. Several automata of one property walk together: they
//! visit the same words as long as they all agree with the oracle, so
//! the oracle — most of a walk's time — is asked once per word, not once
//! per word and automaton.

use tm_automata::{BitSet, Dfa, Nfa};
use tm_lang::{Alphabet, SafetyProperty, Statement, Word};
use tm_spec::spec_alphabet;

use super::{determinize, minimize, NondetSpec};

/// The outcome of a [`cross_validate`] walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrossValidation {
    /// The first word (in DFS order, shortest-prefix first) on which some
    /// automaton's verdict differs from the oracle's, with the index of
    /// the first such automaton; `None` if all agree up to the bound.
    pub mismatch: Option<(usize, Word)>,
    /// Words visited: the oracle was asked once per word, and every
    /// automaton stepped on each of them.
    pub words: u64,
}

/// Walks every word of length 1 to `max_len` over `alphabet` below which
/// `automata` and the reference checker for `property` all accept, and
/// reports the first disagreement.
///
/// Each automaton must be over statements of `alphabet` with all states
/// accepting (a TM specification). A walk of one automaton visits the
/// same words as a walk of several that agree with the oracle, so a
/// joint walk of `m` automata steps them `m × words` times in all — the
/// sum of the separate walks' counts.
///
/// # Examples
///
/// ```
/// use tm_lang::{Alphabet, SafetyProperty};
/// use tm_bench::validation::{cross_validate, NondetSpec};
///
/// let nfa = NondetSpec::new(SafetyProperty::Opacity, 2, 1).to_nfa(1_000_000).nfa;
/// let walk = cross_validate(&[&nfa], SafetyProperty::Opacity, Alphabet::new(2, 1), 4);
/// assert_eq!(walk.mismatch, None);
/// assert!(walk.words > 0);
/// ```
pub fn cross_validate(
    automata: &[&Nfa<Statement>],
    property: SafetyProperty,
    alphabet: Alphabet,
    max_len: usize,
) -> CrossValidation {
    let mut walk = Walk {
        automata,
        property,
        letters: alphabet.statements().collect(),
        max_len,
        word: Word::new(),
        words: 0,
    };
    let roots: Vec<BitSet> = automata.iter().map(|nfa| nfa.initial_closure()).collect();
    let mismatch = walk.descend(&roots);
    CrossValidation {
        mismatch,
        words: walk.words,
    }
}

/// The state of one [`cross_validate`] walk.
struct Walk<'a> {
    automata: &'a [&'a Nfa<Statement>],
    property: SafetyProperty,
    letters: Vec<Statement>,
    max_len: usize,
    word: Word,
    words: u64,
}

impl Walk<'_> {
    /// Visits every one-letter extension of the current word, given each
    /// automaton's state set after it, and descends below those the
    /// oracle accepts.
    fn descend(&mut self, frontiers: &[BitSet]) -> Option<(usize, Word)> {
        if self.word.len() >= self.max_len {
            return None;
        }
        for i in 0..self.letters.len() {
            let s = self.letters[i];
            self.word.push(s);
            self.words += 1;
            let oracle_accepts = self.property.holds(&self.word);
            let next: Vec<BitSet> = self
                .automata
                .iter()
                .zip(frontiers)
                .map(|(nfa, frontier)| nfa.post(frontier, &s))
                .collect();
            let found = match next.iter().position(|set| set.is_empty() == oracle_accepts) {
                Some(automaton) => Some((automaton, self.word.clone())),
                None if oracle_accepts => self.descend(&next),
                None => None,
            };
            self.word.pop();
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

/// Builds the canonical (determinized and minimized) specification DFA
/// for a property and instance size: language-equal to Σ_π by
/// construction, an independently constructed witness for Theorem 3
/// next to the hand-built Algorithm 6 automaton (`tm_spec::DetSpec`).
///
/// # Panics
///
/// Panics if the nondeterministic specification exceeds `max_states`
/// reachable states.
///
/// # Examples
///
/// ```
/// use tm_lang::SafetyProperty;
/// use tm_bench::validation::canonical_dfa;
///
/// let dfa = canonical_dfa(SafetyProperty::Opacity, 2, 1, 1_000_000);
/// let w: tm_lang::Word = "(r,1)1 (w,1)2 c2 c1".parse()?;
/// assert!(dfa.accepts(w.statements()));
/// # Ok::<(), tm_lang::ParseStatementError>(())
/// ```
pub fn canonical_dfa(
    property: SafetyProperty,
    threads: usize,
    vars: usize,
    max_states: usize,
) -> Dfa<Statement> {
    let explored = NondetSpec::new(property, threads, vars).to_nfa(max_states);
    minimize(&determinize(&explored.nfa, spec_alphabet(threads, vars)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broken_spec_is_caught() {
        // An automaton accepting everything is wrong about opacity.
        let mut everything: Nfa<Statement> = Nfa::new();
        let q = everything.add_state();
        everything.set_initial(q);
        for s in Alphabet::new(2, 1).statements() {
            everything.add_transition(q, Some(s), q);
        }
        let right = NondetSpec::new(SafetyProperty::Opacity, 2, 1)
            .to_nfa(1_000_000)
            .nfa;
        let walk = cross_validate(
            &[&right, &everything],
            SafetyProperty::Opacity,
            Alphabet::new(2, 1),
            6,
        );
        let (automaton, word) = walk
            .mismatch
            .expect("the always-accepting spec must disagree");
        assert_eq!(automaton, 1);
        assert!(!tm_lang::is_opaque(&word));
    }

    #[test]
    fn a_joint_walk_visits_the_words_of_each_separate_walk() {
        let property = SafetyProperty::StrictSerializability;
        let nondet = NondetSpec::new(property, 2, 1).to_nfa(1_000_000).nfa;
        let det = canonical_dfa(property, 2, 1, 1_000_000).to_nfa();
        let alphabet = Alphabet::new(2, 1);
        let joint = cross_validate(&[&nondet, &det], property, alphabet, 4);
        for nfa in [&nondet, &det] {
            assert_eq!(cross_validate(&[nfa], property, alphabet, 4), joint);
        }
        assert_eq!(joint.mismatch, None);
    }

    #[test]
    fn canonical_agrees_with_nondet_on_samples() {
        let property = SafetyProperty::StrictSerializability;
        let nfa = NondetSpec::new(property, 2, 1).to_nfa(1_000_000).nfa;
        let dfa = canonical_dfa(property, 2, 1, 1_000_000);
        for text in [
            "",
            "(r,1)1 (w,1)2 c2 c1",
            "(r,1)1 (w,1)2 c2 a1",
            "(w,1)1 (w,1)2 c1 c2",
            "(r,1)1 (r,1)2 c1 c2",
        ] {
            let w: Word = text.parse().unwrap();
            assert_eq!(
                nfa.accepts(w.statements()),
                dfa.accepts(w.statements()),
                "{text}"
            );
        }
    }

    #[test]
    fn minimization_shrinks_the_subset_automaton() {
        let nfa = NondetSpec::new(SafetyProperty::Opacity, 2, 1)
            .to_nfa(1_000_000)
            .nfa;
        let subset = determinize(&nfa, spec_alphabet(2, 1));
        let minimal = minimize(&subset);
        assert!(minimal.num_states() <= subset.num_states());
        assert!(minimal.num_states() > 1);
    }
}
