//! Deterministic finite automata over an explicit alphabet.
//!
//! As everywhere in this workspace, all states are accepting and the
//! transition function may be partial: a missing transition rejects the
//! word (the languages are prefix-closed).

use std::hash::Hash;

use crate::alphabet::{Alphabet, LetterId};
use crate::bitset::BitSet;
use crate::explore::DeterministicTransitionSystem;
use crate::nfa::{Nfa, StateId};

/// A deterministic automaton with all states accepting and a (possibly
/// partial) dense transition table.
///
/// It is also a [`DeterministicTransitionSystem`] over its letter ids
/// (the indices of [`Dfa::alphabet`], listed by [`Dfa::letter_ids`]), so
/// the product engine runs it as a [`crate::SpecCache`] like any other
/// specification, without hashing a label per step.
///
/// # Examples
///
/// ```
/// use tm_automata::Dfa;
/// let mut dfa = Dfa::new(vec!['a', 'b']);
/// let q0 = dfa.add_state();
/// let q1 = dfa.add_state();
/// dfa.set_initial(q0);
/// dfa.set_transition(q0, &'a', q1);
/// assert!(dfa.accepts(&['a']));
/// assert!(!dfa.accepts(&['b']));
/// ```
#[derive(Clone, Debug)]
pub struct Dfa<L> {
    /// The interned alphabet, built once at construction: letter ids are
    /// the letter indices.
    alphabet: Alphabet<L>,
    initial: StateId,
    /// `next[state][letter] = Some(target)`.
    next: Vec<Vec<Option<StateId>>>,
}

impl<L: Clone + Eq + Hash> Dfa<L> {
    /// Creates an automaton over the given alphabet, with no states.
    ///
    /// # Panics
    ///
    /// Panics if the alphabet contains duplicate letters.
    pub fn new(alphabet: Vec<L>) -> Self {
        let interned = Alphabet::from_letters(&alphabet);
        assert_eq!(
            interned.len(),
            alphabet.len(),
            "duplicate letters in alphabet"
        );
        Dfa {
            alphabet: interned,
            initial: 0,
            next: Vec::new(),
        }
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &[L] {
        self.alphabet.letters()
    }

    /// The letter ids `0..alphabet().len()`, in order: the letter list
    /// of a [`crate::SpecCache`] over this automaton.
    pub fn letter_ids(&self) -> Vec<LetterId> {
        (0..self.alphabet.len() as LetterId).collect()
    }

    /// Adds a fresh state with no outgoing transitions.
    pub fn add_state(&mut self) -> StateId {
        self.next.push(vec![None; self.alphabet.len()]);
        self.next.len() - 1
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, state: StateId) {
        self.initial = state;
    }

    /// The initial state.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.next.len()
    }

    /// Number of defined transitions.
    pub fn num_transitions(&self) -> usize {
        self.next
            .iter()
            .map(|row| row.iter().filter(|t| t.is_some()).count())
            .sum()
    }

    /// Defines `from --letter--> to`.
    ///
    /// # Panics
    ///
    /// Panics if `letter` is not in the alphabet.
    pub fn set_transition(&mut self, from: StateId, letter: &L, to: StateId) {
        let li = self.alphabet.get(letter).expect("letter not in alphabet") as usize;
        self.next[from][li] = Some(to);
    }

    /// The successor of `state` under `letter`, or `None` (reject) if
    /// undefined. Letters outside the alphabet also return `None`.
    pub fn step(&self, state: StateId, letter: &L) -> Option<StateId> {
        let li = self.alphabet.get(letter)? as usize;
        self.next[state][li]
    }

    /// Defines `from --letter--> to` by letter index, skipping the label
    /// hash of [`Dfa::set_transition`].
    ///
    /// # Panics
    ///
    /// Panics if `letter_index` is out of range.
    pub fn set_transition_by_index(&mut self, from: StateId, letter_index: usize, to: StateId) {
        assert!(letter_index < self.alphabet.len(), "letter index out of range");
        self.next[from][letter_index] = Some(to);
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[L]) -> bool {
        let mut q = self.initial;
        for letter in word {
            match self.step(q, letter) {
                Some(q2) => q = q2,
                None => return false,
            }
        }
        true
    }

    /// Converts to an [`Nfa`] with the same language.
    pub fn to_nfa(&self) -> Nfa<L> {
        let mut nfa = Nfa::new();
        for _ in 0..self.num_states() {
            nfa.add_state();
        }
        nfa.set_initial(self.initial);
        for (q, row) in self.next.iter().enumerate() {
            for (li, target) in row.iter().enumerate() {
                if let Some(t) = target {
                    nfa.add_transition(q, Some(self.alphabet.letter(li as u32).clone()), *t);
                }
            }
        }
        nfa
    }

    /// The set of states reachable from the initial state.
    pub fn reachable_states(&self) -> BitSet {
        let mut seen = BitSet::new(self.num_states().max(self.initial + 1));
        seen.insert(self.initial);
        let mut stack = vec![self.initial];
        while let Some(q) = stack.pop() {
            for target in self.next[q].iter().flatten() {
                if seen.insert(*target) {
                    stack.push(*target);
                }
            }
        }
        seen
    }
}

impl<L> DeterministicTransitionSystem for Dfa<L> {
    type State = StateId;
    type Label = LetterId;

    fn initial(&self) -> StateId {
        self.initial
    }

    fn step(&self, state: &StateId, letter: &LetterId) -> Option<StateId> {
        self.next[*state][*letter as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab_dfa() -> Dfa<char> {
        // Language: prefixes of a*b.
        let mut dfa = Dfa::new(vec!['a', 'b']);
        let q0 = dfa.add_state();
        let q1 = dfa.add_state();
        dfa.set_initial(q0);
        dfa.set_transition(q0, &'a', q0);
        dfa.set_transition(q0, &'b', q1);
        dfa
    }

    #[test]
    fn step_and_accept() {
        let dfa = ab_dfa();
        assert!(dfa.accepts(&[]));
        assert!(dfa.accepts(&['a', 'a', 'b']));
        assert!(!dfa.accepts(&['b', 'a']));
        assert_eq!(dfa.step(0, &'z'), None);
        assert_eq!(dfa.num_transitions(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate letters")]
    fn duplicate_alphabet_rejected() {
        let _ = Dfa::new(vec!['a', 'a']);
    }

    #[test]
    fn to_nfa_round_trip() {
        let dfa = ab_dfa();
        let nfa = dfa.to_nfa();
        for word in [&[][..], &['a', 'b'][..], &['b', 'b'][..]] {
            assert_eq!(dfa.accepts(word), nfa.accepts(word));
        }
    }
}
