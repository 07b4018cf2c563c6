//! Nondeterministic finite automata with ε-transitions.
//!
//! The automata in this workspace recognize *prefix-closed* languages of
//! runs: **every state is accepting**, and a word is rejected exactly when
//! no run for it exists. This matches the paper's TM specifications and TM
//! algorithm languages, and it simplifies all the algorithms (inclusion
//! failure = the implementation moves while the specification's state set
//! becomes empty).

use std::hash::Hash;

use crate::alphabet::Alphabet;
use crate::bitset::BitSet;
use crate::compiled::CompiledNfa;

/// State index within an automaton.
pub type StateId = usize;

/// A nondeterministic finite automaton over labels `L`, with ε-moves and
/// all states accepting.
///
/// # Examples
///
/// ```
/// use tm_automata::Nfa;
/// let mut nfa = Nfa::new();
/// let q0 = nfa.add_state();
/// let q1 = nfa.add_state();
/// nfa.set_initial(q0);
/// nfa.add_transition(q0, Some('a'), q1);
/// nfa.add_transition(q1, None, q0); // ε back
/// assert!(nfa.accepts(&['a', 'a']));
/// assert!(!nfa.accepts(&['b']));
/// ```
#[derive(Clone, Debug)]
pub struct Nfa<L> {
    initial: Vec<StateId>,
    /// Outgoing transitions per state: `(label, target)`; `None` is ε.
    transitions: Vec<Vec<(Option<L>, StateId)>>,
}

impl<L> Default for Nfa<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L> Nfa<L> {
    /// Creates an automaton with no states.
    pub fn new() -> Self {
        Nfa {
            initial: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    /// Marks a state as initial.
    pub fn set_initial(&mut self, state: StateId) {
        if !self.initial.contains(&state) {
            self.initial.push(state);
        }
    }

    /// Adds a transition; `label = None` is an ε-move.
    pub fn add_transition(&mut self, from: StateId, label: Option<L>, to: StateId) {
        self.transitions[from].push((label, to));
    }

    /// The initial states.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of transitions (including ε).
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// Number of ε-transitions.
    pub fn num_epsilon_transitions(&self) -> usize {
        self.transitions
            .iter()
            .flatten()
            .filter(|(l, _)| l.is_none())
            .count()
    }

    /// The outgoing transitions of a state.
    pub fn transitions_from(&self, state: StateId) -> &[(Option<L>, StateId)] {
        &self.transitions[state]
    }

    /// Extends `set` to its ε-closure in place.
    pub fn epsilon_close(&self, set: &mut BitSet) {
        let mut stack: Vec<StateId> = set.iter().collect();
        while let Some(q) = stack.pop() {
            for (label, target) in &self.transitions[q] {
                if label.is_none() && set.insert(*target) {
                    stack.push(*target);
                }
            }
        }
    }

    /// The ε-closure of the initial states.
    pub fn initial_closure(&self) -> BitSet {
        let mut set = BitSet::new(self.num_states());
        for &q in &self.initial {
            set.insert(q);
        }
        self.epsilon_close(&mut set);
        set
    }
}

impl<L: Eq> Nfa<L> {
    /// The ε-closed successor set of `set` under `label`.
    pub fn post(&self, set: &BitSet, label: &L) -> BitSet {
        let mut out = BitSet::new(self.num_states());
        for q in set.iter() {
            for (l, target) in &self.transitions[q] {
                if l.as_ref() == Some(label) {
                    out.insert(*target);
                }
            }
        }
        self.epsilon_close(&mut out);
        out
    }

    /// Whether the automaton accepts `word` (all states accepting: accepts
    /// iff some run exists).
    pub fn accepts(&self, word: &[L]) -> bool {
        let mut frontier = self.initial_closure();
        for letter in word {
            frontier = self.post(&frontier, letter);
            if frontier.is_empty() {
                return false;
            }
        }
        true
    }

    /// Compiles this automaton over `alphabet` (interning any new
    /// labels); see [`CompiledNfa`].
    pub fn compile(&self, alphabet: &mut Alphabet<L>) -> CompiledNfa
    where
        L: Clone + Hash,
    {
        CompiledNfa::compile(self, alphabet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a*b automaton with an ε-shortcut.
    fn sample() -> Nfa<char> {
        let mut nfa = Nfa::new();
        let q0 = nfa.add_state();
        let q1 = nfa.add_state();
        let q2 = nfa.add_state();
        nfa.set_initial(q0);
        nfa.add_transition(q0, Some('a'), q0);
        nfa.add_transition(q0, None, q1);
        nfa.add_transition(q1, Some('b'), q2);
        nfa
    }

    #[test]
    fn accepts_with_epsilon() {
        let nfa = sample();
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&['a', 'a', 'b']));
        assert!(nfa.accepts(&['b']));
        assert!(!nfa.accepts(&['b', 'b']));
        assert!(!nfa.accepts(&['c']));
    }

    #[test]
    fn closure_contains_epsilon_reachable() {
        let nfa = sample();
        let init = nfa.initial_closure();
        assert_eq!(init.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn counts() {
        let nfa = sample();
        assert_eq!(nfa.num_states(), 3);
        assert_eq!(nfa.num_transitions(), 3);
        assert_eq!(nfa.num_epsilon_transitions(), 1);
    }

    #[test]
    fn duplicate_initial_ignored() {
        let mut nfa: Nfa<char> = Nfa::new();
        let q = nfa.add_state();
        nfa.set_initial(q);
        nfa.set_initial(q);
        assert_eq!(nfa.initial_states(), &[0]);
    }
}
