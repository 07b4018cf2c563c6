//! Deterministic finite automata over an explicit alphabet, with
//! subset-construction determinization and Moore minimization.
//!
//! As everywhere in this workspace, all states are accepting and the
//! transition function may be partial: a missing transition rejects the
//! word (the languages are prefix-closed).

use std::hash::Hash;

use crate::alphabet::Alphabet;
use crate::bitset::BitSet;
use crate::compiled::{CompiledDfa, CompiledNfa, NO_STATE};
use crate::fxhash::FxHashMap;
use crate::nfa::{Nfa, StateId};

/// A deterministic automaton with all states accepting and a (possibly
/// partial) dense transition table.
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
    /// the letter indices, and [`Dfa::compile`] clones this one instead of
    /// re-interning every letter.
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

    /// Compiles to the dense-table form used by the inclusion inner
    /// loops; letter ids equal this automaton's letter indices. The
    /// interned alphabet is cloned from the prebuilt one, not re-interned
    /// letter by letter.
    pub fn compile(&self) -> CompiledDfa<L> {
        let alphabet = self.alphabet.clone();
        let mut next = Vec::with_capacity(self.num_states() * self.alphabet.len());
        for row in &self.next {
            next.extend(
                row.iter()
                    .map(|t| t.map_or(NO_STATE, |s| s as u32)),
            );
        }
        CompiledDfa::new(
            alphabet,
            u32::try_from(self.num_states()).expect("more than u32::MAX states"),
            self.initial as u32,
            next,
        )
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

    /// Determinizes `nfa` over `alphabet` by the subset construction
    /// (ε-closures included). Only reachable subsets are materialized; the
    /// empty subset is not a state (it becomes a missing transition).
    ///
    /// # Examples
    ///
    /// ```
    /// use tm_automata::{Dfa, Nfa};
    /// let mut nfa = Nfa::new();
    /// let q0 = nfa.add_state();
    /// let q1 = nfa.add_state();
    /// nfa.set_initial(q0);
    /// nfa.add_transition(q0, Some('a'), q0);
    /// nfa.add_transition(q0, Some('a'), q1);
    /// let dfa = Dfa::determinize(&nfa, vec!['a']);
    /// assert!(dfa.accepts(&['a', 'a']));
    /// ```
    pub fn determinize(nfa: &Nfa<L>, alphabet: Vec<L>) -> Dfa<L> {
        let mut dfa = Dfa::new(alphabet);
        // Compile the NFA over the target alphabet so each `post` is a
        // per-letter CSR slice walk instead of a full-edge scan; NFA
        // labels outside the alphabet get ids ≥ the alphabet length and
        // are simply never queried.
        let mut interner = dfa.alphabet.clone();
        let num_letters = interner.len() as u32;
        let compiled = CompiledNfa::compile(nfa, &mut interner);
        let start = compiled.initial_closure();
        let mut ids: FxHashMap<BitSet, StateId> = FxHashMap::default();
        let q0 = dfa.add_state();
        dfa.set_initial(q0);
        ids.insert(start.clone(), q0);
        let mut queue = vec![start];
        let mut head = 0;
        while head < queue.len() {
            let from = ids[&queue[head]];
            for li in 0..num_letters {
                let target = compiled.post(&queue[head], li);
                if target.is_empty() {
                    continue;
                }
                let to = match ids.get(&target) {
                    Some(&id) => id,
                    None => {
                        let id = dfa.add_state();
                        ids.insert(target.clone(), id);
                        queue.push(target);
                        id
                    }
                };
                dfa.next[from][li as usize] = Some(to);
            }
            head += 1;
        }
        dfa
    }

    /// Minimizes the automaton (Moore partition refinement over the
    /// completed automaton; the implicit reject sink is kept implicit).
    ///
    /// Since all states are accepting, the initial partition separates
    /// states only from the implicit sink; refinement then splits by
    /// successor blocks. Unreachable states are dropped first.
    pub fn minimize(&self) -> Dfa<L> {
        let reachable = self.reachable_states();
        let states: Vec<StateId> = reachable.iter().collect();
        let mut position = vec![usize::MAX; self.num_states()];
        for (i, &q) in states.iter().enumerate() {
            position[q] = i;
        }
        let n = states.len();
        let sink = n; // implicit reject sink block
        let mut block = vec![0usize; n];
        let mut num_blocks = 1usize;
        loop {
            // Signature: for each state, the blocks of its successors
            // (sink for missing transitions).
            let mut sig_ids: FxHashMap<Vec<usize>, usize> = FxHashMap::default();
            let mut new_block = vec![0usize; n];
            for (i, &q) in states.iter().enumerate() {
                let mut sig = Vec::with_capacity(self.alphabet.len() + 1);
                sig.push(block[i]);
                for li in 0..self.alphabet.len() {
                    let b = match self.next[q][li] {
                        Some(t) => block[position[t]],
                        None => sink,
                    };
                    sig.push(b);
                }
                let next_id = sig_ids.len();
                let id = *sig_ids.entry(sig).or_insert(next_id);
                new_block[i] = id;
            }
            let new_num = sig_ids.len();
            block = new_block;
            if new_num == num_blocks {
                break;
            }
            num_blocks = new_num;
        }
        // Build the quotient automaton.
        let mut out = Dfa {
            alphabet: self.alphabet.clone(),
            initial: 0,
            next: Vec::new(),
        };
        for _ in 0..num_blocks {
            out.add_state();
        }
        out.set_initial(block[position[self.initial]]);
        for (i, &q) in states.iter().enumerate() {
            for li in 0..self.alphabet.len() {
                if let Some(t) = self.next[q][li] {
                    out.next[block[i]][li] = Some(block[position[t]]);
                }
            }
        }
        out
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
    fn determinize_preserves_language() {
        let mut nfa = Nfa::new();
        let q0 = nfa.add_state();
        let q1 = nfa.add_state();
        let q2 = nfa.add_state();
        nfa.set_initial(q0);
        nfa.add_transition(q0, Some('a'), q1);
        nfa.add_transition(q0, None, q1);
        nfa.add_transition(q1, Some('b'), q2);
        let dfa = Dfa::determinize(&nfa, vec!['a', 'b']);
        for word in [&[][..], &['a'][..], &['b'][..], &['a', 'b'][..]] {
            assert_eq!(dfa.accepts(word), nfa.accepts(word), "{word:?}");
        }
        assert!(!dfa.accepts(&['b', 'b']));
    }

    #[test]
    fn minimize_merges_equivalent_states() {
        // Two redundant sibling states with identical behavior.
        let mut dfa = Dfa::new(vec!['a']);
        let q0 = dfa.add_state();
        let q1 = dfa.add_state();
        let q2 = dfa.add_state();
        dfa.set_initial(q0);
        dfa.set_transition(q0, &'a', q1);
        dfa.set_transition(q1, &'a', q2);
        // q2 dead-ends; q1 and q2 differ; a twin of q1:
        let q3 = dfa.add_state();
        dfa.set_transition(q3, &'a', q2);
        // q3 is unreachable, so it should vanish entirely.
        let min = dfa.minimize();
        assert_eq!(min.num_states(), 3);
        assert!(min.accepts(&['a', 'a']));
        assert!(!min.accepts(&['a', 'a', 'a']));
    }

    #[test]
    fn minimize_collapses_uniform_loop() {
        // Every state accepts everything: minimal automaton has 1 state.
        let mut dfa = Dfa::new(vec!['a', 'b']);
        let q0 = dfa.add_state();
        let q1 = dfa.add_state();
        dfa.set_initial(q0);
        for q in [q0, q1] {
            dfa.set_transition(q, &'a', q1);
            dfa.set_transition(q, &'b', q0);
        }
        let min = dfa.minimize();
        assert_eq!(min.num_states(), 1);
        assert!(min.accepts(&['a', 'b', 'a', 'a']));
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
