//! The compiled implementation automaton: an NFA over an interned
//! alphabet, the hot-loop representation behind the inclusion checkers.
//!
//! [`crate::Nfa`] is convenient to *build* — labels are arbitrary `L`,
//! transitions are pushed freely — but poor to *run*: `Nfa::post`
//! re-scans every outgoing edge of every frontier state per letter.
//! [`CompiledNfa`] fixes the representation instead of the algorithms:
//! it stores transitions in CSR (compressed sparse row) form **grouped
//! by `(state, letter id)`**, with ε-edges segregated into their own
//! arrays, so `post` walks exactly the per-letter target slices of the
//! frontier; it also keeps the original insertion-order edge list per
//! state, which the inclusion BFS walks so that counterexamples come out
//! identical to the uncompiled checker's.
//!
//! It is label-free once built: all labels live in the [`Alphabet`] used
//! at compile time, and are only materialized again when a
//! counterexample word is reconstructed.

use std::hash::Hash;

use crate::alphabet::{Alphabet, LetterId};
use crate::bitset::BitSet;
use crate::nfa::Nfa;

/// Sentinel letter id marking an ε-edge in [`CompiledNfa`] edge lists.
pub const EPSILON: LetterId = u32::MAX;

/// An NFA compiled to dense letter ids and CSR transition arrays.
///
/// # Examples
///
/// ```
/// use tm_automata::{Alphabet, CompiledNfa, Nfa};
/// let mut nfa = Nfa::new();
/// let q0 = nfa.add_state();
/// let q1 = nfa.add_state();
/// nfa.set_initial(q0);
/// nfa.add_transition(q0, Some('a'), q1);
/// nfa.add_transition(q1, None, q0);
/// let mut alphabet = Alphabet::new();
/// let compiled = CompiledNfa::compile(&nfa, &mut alphabet);
/// let a = alphabet.get(&'a').unwrap();
/// assert!(compiled.accepts(&[a, a]));
/// assert!(!compiled.accepts(&[a, 99]));
/// ```
#[derive(Clone, Debug)]
pub struct CompiledNfa {
    num_states: u32,
    num_letters: u32,
    initial: Vec<u32>,
    /// CSR by `(state, letter)`: targets of non-ε edges with letter `a`
    /// from state `q` live in
    /// `letter_targets[letter_offsets[q * num_letters + a] .. letter_offsets[q * num_letters + a + 1]]`.
    letter_offsets: Vec<u32>,
    letter_targets: Vec<u32>,
    /// CSR of ε-edges per state.
    eps_offsets: Vec<u32>,
    eps_targets: Vec<u32>,
    /// Original insertion-order edges per state (ε encoded as
    /// [`EPSILON`]): preserves the BFS discovery order of the uncompiled
    /// checkers, hence identical shortest counterexamples.
    edge_offsets: Vec<u32>,
    edge_letters: Vec<LetterId>,
    edge_targets: Vec<u32>,
}

impl CompiledNfa {
    /// Compiles `nfa`, interning every label into `alphabet` (letters
    /// already interned keep their ids, so automata compiled against the
    /// same alphabet agree on letter ids).
    ///
    /// # Panics
    ///
    /// Panics if the automaton exceeds `u32` states.
    pub fn compile<L: Clone + Eq + Hash>(nfa: &Nfa<L>, alphabet: &mut Alphabet<L>) -> Self {
        let num_states = u32::try_from(nfa.num_states()).expect("more than u32::MAX states");
        // Pass 1: intern labels into per-state edge lists (insertion
        // order), counting ε and per-(state, letter) degrees.
        let mut edge_offsets = Vec::with_capacity(nfa.num_states() + 1);
        let mut edge_letters = Vec::with_capacity(nfa.num_transitions());
        let mut edge_targets = Vec::with_capacity(nfa.num_transitions());
        edge_offsets.push(0u32);
        for q in 0..nfa.num_states() {
            for (label, target) in nfa.transitions_from(q) {
                let letter = match label {
                    None => EPSILON,
                    Some(l) => alphabet.intern(l),
                };
                edge_letters.push(letter);
                edge_targets.push(*target as u32);
            }
            edge_offsets
                .push(u32::try_from(edge_letters.len()).expect("more than u32::MAX transitions"));
        }
        let num_letters = u32::try_from(alphabet.len()).expect("more than u32::MAX letters");

        // Pass 2: counting sort of the edges into CSR by (state, letter)
        // and the segregated ε arrays.
        let rows = nfa.num_states() * alphabet.len();
        let mut letter_offsets = vec![0u32; rows + 1];
        let mut eps_offsets = vec![0u32; nfa.num_states() + 1];
        for q in 0..nfa.num_states() {
            let edges = edge_offsets[q] as usize..edge_offsets[q + 1] as usize;
            for k in edges {
                if edge_letters[k] == EPSILON {
                    eps_offsets[q + 1] += 1;
                } else {
                    letter_offsets[q * alphabet.len() + edge_letters[k] as usize + 1] += 1;
                }
            }
        }
        for i in 1..letter_offsets.len() {
            letter_offsets[i] += letter_offsets[i - 1];
        }
        for i in 1..eps_offsets.len() {
            eps_offsets[i] += eps_offsets[i - 1];
        }
        let mut letter_targets = vec![0u32; *letter_offsets.last().expect("nonempty") as usize];
        let mut eps_targets = vec![0u32; *eps_offsets.last().expect("nonempty") as usize];
        let mut letter_cursor = letter_offsets.clone();
        let mut eps_cursor = eps_offsets.clone();
        for q in 0..nfa.num_states() {
            let edges = edge_offsets[q] as usize..edge_offsets[q + 1] as usize;
            for k in edges {
                if edge_letters[k] == EPSILON {
                    eps_targets[eps_cursor[q] as usize] = edge_targets[k];
                    eps_cursor[q] += 1;
                } else {
                    let row = q * alphabet.len() + edge_letters[k] as usize;
                    letter_targets[letter_cursor[row] as usize] = edge_targets[k];
                    letter_cursor[row] += 1;
                }
            }
        }

        CompiledNfa {
            num_states,
            num_letters,
            initial: nfa.initial_states().iter().map(|&q| q as u32).collect(),
            letter_offsets,
            letter_targets,
            eps_offsets,
            eps_targets,
            edge_offsets,
            edge_letters,
            edge_targets,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states as usize
    }

    /// Number of letters the automaton was compiled against.
    pub fn num_letters(&self) -> usize {
        self.num_letters as usize
    }

    /// The initial states.
    pub fn initial_states(&self) -> &[u32] {
        &self.initial
    }

    /// Estimated heap footprint in bytes: the sum of the backing arrays'
    /// capacities. This is the crate's heap-accounting convention (used
    /// by session-level memory budgets): containers are counted at
    /// `capacity × element size`, elements that own further heap memory
    /// are counted at their inline size only. For the all-`u32` compiled
    /// automaton the figure is exact.
    pub fn heap_bytes(&self) -> usize {
        let u32s = self.initial.capacity()
            + self.letter_offsets.capacity()
            + self.letter_targets.capacity()
            + self.eps_offsets.capacity()
            + self.eps_targets.capacity()
            + self.edge_offsets.capacity()
            + self.edge_letters.capacity()
            + self.edge_targets.capacity();
        u32s * std::mem::size_of::<u32>()
    }

    /// Targets of non-ε edges from `state` labelled `letter` (empty for
    /// letters outside the compiled alphabet).
    #[inline]
    pub fn successors(&self, state: u32, letter: LetterId) -> &[u32] {
        if letter >= self.num_letters {
            return &[];
        }
        let row = state as usize * self.num_letters as usize + letter as usize;
        let range = self.letter_offsets[row] as usize..self.letter_offsets[row + 1] as usize;
        &self.letter_targets[range]
    }

    /// Targets of ε-edges from `state`.
    #[inline]
    pub fn eps_successors(&self, state: u32) -> &[u32] {
        let range =
            self.eps_offsets[state as usize] as usize..self.eps_offsets[state as usize + 1] as usize;
        &self.eps_targets[range]
    }

    /// The outgoing edges of `state` in original insertion order, as
    /// parallel `(letters, targets)` slices with ε encoded as
    /// [`EPSILON`].
    #[inline]
    pub fn edges_from(&self, state: u32) -> (&[LetterId], &[u32]) {
        let range =
            self.edge_offsets[state as usize] as usize..self.edge_offsets[state as usize + 1] as usize;
        (&self.edge_letters[range.clone()], &self.edge_targets[range])
    }

    /// Extends `set` to its ε-closure in place.
    pub fn epsilon_close(&self, set: &mut BitSet) {
        let mut stack: Vec<usize> = set.iter().collect();
        while let Some(q) = stack.pop() {
            for &target in self.eps_successors(q as u32) {
                if set.insert(target as usize) {
                    stack.push(target as usize);
                }
            }
        }
    }

    /// The ε-closure of the initial states.
    pub fn initial_closure(&self) -> BitSet {
        let mut set = BitSet::new(self.num_states());
        for &q in &self.initial {
            set.insert(q as usize);
        }
        self.epsilon_close(&mut set);
        set
    }

    /// The ε-closed successor set of `set` under `letter`: a per-letter
    /// slice walk over the frontier (no full-edge scan).
    pub fn post(&self, set: &BitSet, letter: LetterId) -> BitSet {
        let mut out = BitSet::new(self.num_states());
        for q in set.iter() {
            for &target in self.successors(q as u32, letter) {
                out.insert(target as usize);
            }
        }
        self.epsilon_close(&mut out);
        out
    }

    /// Whether the automaton accepts a word of letter ids (all states
    /// accepting, as everywhere in this workspace).
    pub fn accepts(&self, word: &[LetterId]) -> bool {
        let mut frontier = self.initial_closure();
        for &letter in word {
            frontier = self.post(&frontier, letter);
            if frontier.is_empty() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a*b automaton with an ε-shortcut (same shape as nfa.rs tests).
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
    fn compiled_agrees_with_nfa() {
        let nfa = sample();
        let mut alphabet = Alphabet::new();
        let compiled = CompiledNfa::compile(&nfa, &mut alphabet);
        let to_ids = |w: &[char]| -> Option<Vec<LetterId>> {
            w.iter().map(|l| alphabet.get(l)).collect()
        };
        for word in [&[][..], &['a', 'a', 'b'][..], &['b'][..], &['b', 'b'][..]] {
            let ids = to_ids(word).unwrap();
            assert_eq!(compiled.accepts(&ids), nfa.accepts(word), "{word:?}");
        }
        // Letters never interned are rejected (if any step is needed).
        assert!(!compiled.accepts(&[77]));
    }

    #[test]
    fn post_is_per_letter() {
        let nfa = sample();
        let mut alphabet = Alphabet::new();
        let compiled = CompiledNfa::compile(&nfa, &mut alphabet);
        let a = alphabet.get(&'a').unwrap();
        let b = alphabet.get(&'b').unwrap();
        let init = compiled.initial_closure();
        assert_eq!(init.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(compiled.post(&init, a).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(compiled.post(&init, b).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(compiled.successors(0, a), &[0]);
        assert_eq!(compiled.eps_successors(0), &[1]);
        assert!(compiled.successors(0, 55).is_empty());
    }

    #[test]
    fn edge_lists_preserve_insertion_order() {
        let nfa = sample();
        let mut alphabet = Alphabet::new();
        let compiled = CompiledNfa::compile(&nfa, &mut alphabet);
        let (letters, targets) = compiled.edges_from(0);
        assert_eq!(letters, &[alphabet.get(&'a').unwrap(), EPSILON]);
        assert_eq!(targets, &[0, 1]);
    }

    #[test]
    fn shared_alphabet_aligns_ids() {
        let mut left = Nfa::new();
        let s = left.add_state();
        left.set_initial(s);
        left.add_transition(s, Some('x'), s);
        let mut right = Nfa::new();
        let q = right.add_state();
        right.set_initial(q);
        right.add_transition(q, Some('y'), q);
        right.add_transition(q, Some('x'), q);
        let mut alphabet = Alphabet::new();
        let cl = CompiledNfa::compile(&left, &mut alphabet);
        let cr = CompiledNfa::compile(&right, &mut alphabet);
        let x = alphabet.get(&'x').unwrap();
        // `x` has one id in both automata even though `right` also has `y`.
        assert_eq!(cl.successors(0, x), &[0]);
        assert_eq!(cr.successors(0, x), &[0]);
        assert_eq!(cl.num_letters(), 1);
        assert_eq!(cr.num_letters(), 2);
    }

    #[test]
    fn heap_bytes_track_backing_vec_capacities() {
        let nfa = sample();
        let mut alphabet = Alphabet::new();
        let compiled = CompiledNfa::compile(&nfa, &mut alphabet);
        // Every edge is stored once in the insertion-order lists and once
        // in the CSR (letter or ε) arrays — two letter/target pairs per
        // edge — plus the per-state offset rows.
        let edges = nfa.num_transitions();
        let floor = (4 * edges + 2 * (nfa.num_states() + 1)) * std::mem::size_of::<u32>();
        assert!(compiled.heap_bytes() >= floor, "{}", compiled.heap_bytes());
    }
}
