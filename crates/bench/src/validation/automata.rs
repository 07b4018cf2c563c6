//! Materialized-automaton tools of the validation toolkit: subset
//! construction, Moore minimization, and the bridge that runs an [`Nfa`]
//! through the production product engine.

use std::hash::Hash;

use tm_automata::{
    check_inclusion_otf, Alphabet, BitSet, DeterministicTransitionSystem, Dfa, FxHashMap,
    InclusionResult, LetterId, Nfa, QueryBudget, SpecCache, StateId, SuccessorSource, EPSILON,
};

/// Determinizes `nfa` over `alphabet` by the subset construction
/// (ε-closures included). Only reachable subsets are materialized; the
/// empty subset is not a state (it becomes a missing transition). NFA
/// labels outside `alphabet` are never followed.
///
/// # Examples
///
/// ```
/// use tm_automata::Nfa;
/// use tm_bench::validation::determinize;
/// let mut nfa = Nfa::new();
/// let q0 = nfa.add_state();
/// let q1 = nfa.add_state();
/// nfa.set_initial(q0);
/// nfa.add_transition(q0, Some('a'), q0);
/// nfa.add_transition(q0, Some('a'), q1);
/// let dfa = determinize(&nfa, vec!['a']);
/// assert!(dfa.accepts(&['a', 'a']));
/// ```
pub fn determinize<L: Clone + Eq + Hash>(nfa: &Nfa<L>, alphabet: Vec<L>) -> Dfa<L> {
    let mut dfa = Dfa::new(alphabet);
    let letters = dfa.alphabet().len();
    // `moves[q][a]`: the targets of `q`'s `a`-edges, so each subset's
    // post walks only its letter's edges; column `letters` holds the
    // ε-edges.
    let index = Alphabet::from_letters(dfa.alphabet());
    let moves: Vec<Vec<Vec<StateId>>> = (0..nfa.num_states())
        .map(|q| {
            let mut row = vec![Vec::new(); letters + 1];
            for (label, target) in nfa.transitions_from(q) {
                let column = match label {
                    None => Some(letters),
                    Some(l) => index.get(l).map(|a| a as usize),
                };
                if let Some(column) = column {
                    row[column].push(*target);
                }
            }
            row
        })
        .collect();
    // The ε-closed successor set of `set` under column `letter`.
    let post = |set: &BitSet, letter: usize| {
        let mut out = BitSet::new(nfa.num_states());
        for q in set.iter() {
            for &target in &moves[q][letter] {
                out.insert(target);
            }
        }
        let mut stack: Vec<StateId> = out.iter().collect();
        while let Some(q) = stack.pop() {
            for &target in &moves[q][letters] {
                if out.insert(target) {
                    stack.push(target);
                }
            }
        }
        out
    };

    let start = nfa.initial_closure();
    let mut ids: FxHashMap<BitSet, StateId> = FxHashMap::default();
    let q0 = dfa.add_state();
    dfa.set_initial(q0);
    ids.insert(start.clone(), q0);
    let mut queue = vec![start];
    let mut head = 0;
    while head < queue.len() {
        let from = ids[&queue[head]];
        for letter in 0..letters {
            let target = post(&queue[head], letter);
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
            dfa.set_transition_by_index(from, letter, to);
        }
        head += 1;
    }
    dfa
}

/// Minimizes `dfa` (Moore partition refinement over the completed
/// automaton; the implicit reject sink is kept implicit).
///
/// Since all states are accepting, the initial partition separates
/// states only from the implicit sink; refinement then splits by
/// successor blocks. Unreachable states are dropped first.
pub fn minimize<L: Clone + Eq + Hash>(dfa: &Dfa<L>) -> Dfa<L> {
    let letters = dfa.letter_ids();
    let next = |q: StateId, letter: &LetterId| DeterministicTransitionSystem::step(dfa, &q, letter);
    let states: Vec<StateId> = dfa.reachable_states().iter().collect();
    let mut position = vec![usize::MAX; dfa.num_states()];
    for (i, &q) in states.iter().enumerate() {
        position[q] = i;
    }
    let n = states.len();
    let sink = n; // implicit reject sink block
    let mut block = vec![0usize; n];
    let mut num_blocks = 1usize;
    loop {
        // Signature: for each state, its block and the blocks of its
        // successors (sink for missing transitions).
        let mut sig_ids: FxHashMap<Vec<usize>, usize> = FxHashMap::default();
        let mut new_block = vec![0usize; n];
        for (i, &q) in states.iter().enumerate() {
            let mut sig = Vec::with_capacity(letters.len() + 1);
            sig.push(block[i]);
            sig.extend(
                letters
                    .iter()
                    .map(|letter| next(q, letter).map_or(sink, |t| block[position[t]])),
            );
            let next_id = sig_ids.len();
            new_block[i] = *sig_ids.entry(sig).or_insert(next_id);
        }
        let new_num = sig_ids.len();
        block = new_block;
        if new_num == num_blocks {
            break;
        }
        num_blocks = new_num;
    }
    // Build the quotient automaton.
    let mut out = Dfa::new(dfa.alphabet().to_vec());
    for _ in 0..num_blocks {
        out.add_state();
    }
    out.set_initial(block[position[dfa.initial_state()]]);
    for (i, &q) in states.iter().enumerate() {
        for letter in &letters {
            if let Some(t) = next(q, letter) {
                out.set_transition_by_index(block[i], *letter as usize, block[position[t]]);
            }
        }
    }
    out
}

/// An [`Nfa`] as a [`SuccessorSource`] of the production product engine
/// ([`check_inclusion_otf`]), so the differential suites can feed it
/// random and hand-built automata. Letter ids are those of a
/// specification's letter list; labels the specification lacks are
/// interned after it and are immediate violations when reached.
pub struct NfaSource<'a, L> {
    nfa: &'a Nfa<L>,
    alphabet: Alphabet<L>,
}

impl<'a, L: Clone + Eq + Hash> NfaSource<'a, L> {
    /// Wraps `nfa` over the letter ids of `spec_letters` (the letter list
    /// of the [`SpecCache`] it is checked against, in order).
    pub fn new(nfa: &'a Nfa<L>, spec_letters: &[L]) -> Self {
        let mut alphabet = Alphabet::from_letters(spec_letters);
        for q in 0..nfa.num_states() {
            for label in nfa
                .transitions_from(q)
                .iter()
                .filter_map(|(l, _)| l.as_ref())
            {
                alphabet.intern(label);
            }
        }
        NfaSource { nfa, alphabet }
    }
}

impl<L: Clone + Eq + Hash> SuccessorSource for NfaSource<'_, L> {
    type State = StateId;
    type Label = L;

    fn initial_states(&self, out: &mut Vec<StateId>) {
        out.extend_from_slice(self.nfa.initial_states());
    }

    fn successors(&self, state: &StateId, out: &mut Vec<(LetterId, StateId)>) {
        for (label, target) in self.nfa.transitions_from(*state) {
            let letter = label
                .as_ref()
                .map_or(EPSILON, |l| self.alphabet.get(l).expect("interned by new"));
            out.push((letter, *target));
        }
    }

    fn letter(&self, id: LetterId) -> L {
        self.alphabet.letter(id).clone()
    }
}

/// `L(nfa) ⊆ L(dfa)` for two materialized automata: [`check_inclusion_otf`]
/// over an [`NfaSource`] and a fresh [`SpecCache`] of `dfa`, unbudgeted.
///
/// # Examples
///
/// ```
/// use tm_automata::{Dfa, Nfa};
/// use tm_bench::validation::check_materialized;
/// let mut imp = Nfa::new();
/// let s = imp.add_state();
/// imp.set_initial(s);
/// imp.add_transition(s, Some('a'), s);
/// imp.add_transition(s, Some('b'), s);
/// let mut spec = Dfa::new(vec!['a', 'b']);
/// let q = spec.add_state();
/// spec.set_initial(q);
/// spec.set_transition(q, &'a', q);
/// assert_eq!(check_materialized(&imp, &spec).counterexample(), Some(&['b'][..]));
/// ```
pub fn check_materialized<L: Clone + Eq + Hash>(nfa: &Nfa<L>, dfa: &Dfa<L>) -> InclusionResult<L> {
    let source = NfaSource::new(nfa, dfa.alphabet());
    let mut spec = SpecCache::new(dfa, dfa.letter_ids());
    check_inclusion_otf(&source, &mut spec, &QueryBudget::unlimited())
        .expect("an unlimited check cannot abort")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let dfa = determinize(&nfa, vec!['a', 'b']);
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
        let min = minimize(&dfa);
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
        let min = minimize(&dfa);
        assert_eq!(min.num_states(), 1);
        assert!(min.accepts(&['a', 'b', 'a', 'a']));
    }

    #[test]
    fn nfa_source_puts_specification_letters_first() {
        let mut nfa = Nfa::new();
        let q = nfa.add_state();
        nfa.set_initial(q);
        nfa.add_transition(q, Some('z'), q);
        nfa.add_transition(q, None, q);
        nfa.add_transition(q, Some('b'), q);
        let source = NfaSource::new(&nfa, &['a', 'b']);
        let mut out = Vec::new();
        source.successors(&q, &mut out);
        // `z` is not a specification letter: it gets the first id after
        // the specification's two.
        assert_eq!(out, [(2, q), (EPSILON, q), (1, q)]);
        assert_eq!(source.letter(2), 'z');
    }
}
