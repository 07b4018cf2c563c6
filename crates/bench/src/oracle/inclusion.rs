//! The pre-compilation inclusion checker: label hashing in every
//! `Dfa::step`, label clones on every discovered edge, SipHash interning
//! of product pairs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use tm_automata::{Dfa, InclusionResult, Nfa, StateId};

/// The seed product checker that `tm_automata::check_inclusion_otf`
/// replaced: checks `L(nfa) ⊆ L(dfa)` by breadth-first exploration of
/// the product, following ε-moves of the implementation on the spot. BFS
/// order makes the counterexample shortest.
///
/// # Examples
///
/// ```
/// use tm_automata::{Dfa, Nfa};
/// use tm_bench::oracle::check_inclusion_reference;
/// let mut imp = Nfa::new();
/// let s = imp.add_state();
/// imp.set_initial(s);
/// imp.add_transition(s, Some('a'), s);
/// imp.add_transition(s, Some('b'), s);
/// let mut spec = Dfa::new(vec!['a', 'b']);
/// let q = spec.add_state();
/// spec.set_initial(q);
/// spec.set_transition(q, &'a', q);
/// let result = check_inclusion_reference(&imp, &spec);
/// assert_eq!(result.counterexample(), Some(&['b'][..]));
/// ```
pub fn check_inclusion_reference<L: Clone + Eq + Hash>(
    nfa: &Nfa<L>,
    dfa: &Dfa<L>,
) -> InclusionResult<L> {
    // Product pair (implementation state, spec state), interned.
    let mut ids: HashMap<(StateId, StateId), usize> = HashMap::new();
    // Parent pointers for counterexample reconstruction:
    // (parent pair index, label on the edge — None for ε).
    let mut parent: Vec<Option<(usize, Option<L>)>> = Vec::new();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();

    let spec0 = dfa.initial_state();
    for &q in nfa.initial_states() {
        if let Entry::Vacant(e) = ids.entry((q, spec0)) {
            e.insert(pairs.len());
            pairs.push((q, spec0));
            parent.push(None);
        }
    }

    let mut head = 0;
    while head < pairs.len() {
        let (qi, qs) = pairs[head];
        for (label, target) in nfa.transitions_from(qi) {
            let qs2 = match label {
                None => qs, // internal step: spec stays put
                Some(l) => match dfa.step(qs, l) {
                    Some(qs2) => qs2,
                    None => {
                        return InclusionResult::Counterexample {
                            word: word_to(&parent, head, l),
                            product_states: pairs.len(),
                        };
                    }
                },
            };
            let key = (*target, qs2);
            if let Entry::Vacant(e) = ids.entry(key) {
                e.insert(pairs.len());
                pairs.push(key);
                parent.push(Some((head, label.clone())));
            }
        }
        head += 1;
    }
    InclusionResult::Included {
        product_states: pairs.len(),
    }
}

/// The word along the parent pointers from a root to node `at`, followed
/// by the violating `last` letter.
pub(crate) fn word_to<L: Clone>(
    parent: &[Option<(usize, Option<L>)>],
    mut at: usize,
    last: &L,
) -> Vec<L> {
    let mut word = vec![last.clone()];
    while let Some((p, label)) = &parent[at] {
        if let Some(label) = label {
            word.push(label.clone());
        }
        at = *p;
    }
    word.reverse();
    word
}
