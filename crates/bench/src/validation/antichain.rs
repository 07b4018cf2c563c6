//! Antichain-based language inclusion and equivalence between two
//! nondeterministic automata, after De Wulf, Doyen, Henzinger & Raskin,
//! *"Antichains: a new algorithm for checking universality of finite
//! automata"* (CAV 2006) — the tool the paper uses to prove
//! `L(Σ) = L(Σᵈ)` (§5.3, Theorem 3).
//!
//! Specialized to the prefix-closed, all-states-accepting automata of this
//! workspace: `L(A) ⊆ L(B)` fails iff some word drives `A` somewhere while
//! the set of `B`-states reachable on that word becomes empty. The
//! algorithm explores pairs `(a, S)` of an `A`-state and a `B`-state set;
//! since `post` is monotone in `S`, a pair is subsumed by any stored pair
//! with the same `a` and a *smaller* set, so only ⊆-minimal sets are kept
//! per `A`-state — the antichain.

use std::collections::HashMap;
use std::hash::Hash;

use tm_automata::{BitSet, InclusionResult, Nfa, StateId};

use crate::oracle::word_to;

/// Checks `L(a) ⊆ L(b)` with the antichain algorithm.
///
/// Both automata may be nondeterministic and contain ε-moves. The result's
/// `product_states` reports the number of `(state, set)` pairs explored
/// (the effective size of the antichain frontier). Pairs are explored
/// breadth-first, so a counterexample is shortest.
///
/// # Examples
///
/// ```
/// use tm_automata::Nfa;
/// use tm_bench::validation::check_inclusion_antichain;
/// let mut left = Nfa::new();
/// let s = left.add_state();
/// left.set_initial(s);
/// left.add_transition(s, Some('a'), s);
/// let mut right = Nfa::new();
/// let q = right.add_state();
/// right.set_initial(q);
/// right.add_transition(q, Some('a'), q);
/// right.add_transition(q, Some('b'), q);
/// assert!(check_inclusion_antichain(&left, &right).holds());
/// assert!(!check_inclusion_antichain(&right, &left).holds());
/// ```
pub fn check_inclusion_antichain<L: Clone + Eq + Hash>(
    a: &Nfa<L>,
    b: &Nfa<L>,
) -> InclusionResult<L> {
    let mut queue: Vec<(StateId, BitSet)> = Vec::new();
    let mut parent: Vec<Option<(usize, Option<L>)>> = Vec::new();
    // Antichain of ⊆-minimal B-sets seen per A-state.
    let mut antichain: HashMap<StateId, Vec<BitSet>> = HashMap::new();

    let b0 = b.initial_closure();
    for &qa in a.initial_states() {
        if try_insert(&mut antichain, qa, &b0) {
            queue.push((qa, b0.clone()));
            parent.push(None);
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let (qa, set) = queue[head].clone();
        for (label, target) in a.transitions_from(qa) {
            let next_set = match label {
                None => set.clone(),
                Some(l) => {
                    let post = b.post(&set, l);
                    if post.is_empty() {
                        return InclusionResult::Counterexample {
                            word: word_to(&parent, head, l),
                            product_states: queue.len(),
                        };
                    }
                    post
                }
            };
            if try_insert(&mut antichain, *target, &next_set) {
                queue.push((*target, next_set));
                parent.push(Some((head, label.clone())));
            }
        }
        head += 1;
    }
    InclusionResult::Included {
        product_states: queue.len(),
    }
}

/// Inserts `set` into `state`'s antichain unless a stored set is a
/// subset of it, removing stored strict supersets; `true` if inserted.
fn try_insert(antichain: &mut HashMap<StateId, Vec<BitSet>>, state: StateId, set: &BitSet) -> bool {
    let entry = antichain.entry(state).or_default();
    if entry.iter().any(|stored| stored.is_subset(set)) {
        return false;
    }
    entry.retain(|stored| !set.is_subset(stored));
    entry.push(set.clone());
    true
}

/// Outcome of a language-equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivalenceResult<L> {
    /// The two automata accept the same language.
    Equivalent {
        /// Pairs explored checking `L(left) ⊆ L(right)`.
        forward_states: usize,
        /// Pairs explored checking `L(right) ⊆ L(left)`.
        backward_states: usize,
    },
    /// A word accepted by the left automaton only.
    OnlyInLeft(Vec<L>),
    /// A word accepted by the right automaton only.
    OnlyInRight(Vec<L>),
}

impl<L> EquivalenceResult<L> {
    /// `true` if the languages coincide.
    pub fn holds(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent { .. })
    }
}

/// Checks `L(left) = L(right)` by two antichain inclusion checks.
pub fn check_equivalence_antichain<L: Clone + Eq + Hash>(
    left: &Nfa<L>,
    right: &Nfa<L>,
) -> EquivalenceResult<L> {
    let forward = match check_inclusion_antichain(left, right) {
        InclusionResult::Included { product_states } => product_states,
        InclusionResult::Counterexample { word, .. } => return EquivalenceResult::OnlyInLeft(word),
    };
    match check_inclusion_antichain(right, left) {
        InclusionResult::Included { product_states } => EquivalenceResult::Equivalent {
            forward_states: forward,
            backward_states: product_states,
        },
        InclusionResult::Counterexample { word, .. } => EquivalenceResult::OnlyInRight(word),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letters(ls: &[char]) -> Nfa<char> {
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        nfa.set_initial(s);
        for &l in ls {
            nfa.add_transition(s, Some(l), s);
        }
        nfa
    }

    #[test]
    fn inclusion_and_counterexample() {
        let ab = letters(&['a', 'b']);
        let a = letters(&['a']);
        assert!(check_inclusion_antichain(&a, &ab).holds());
        let result = check_inclusion_antichain(&ab, &a);
        assert_eq!(result.counterexample(), Some(&['b'][..]));
    }

    #[test]
    fn nondeterministic_right_side() {
        // Right: two branches, one allowing a*, one allowing b.
        let mut right = Nfa::new();
        let q0 = right.add_state();
        let qa = right.add_state();
        let qb = right.add_state();
        right.set_initial(q0);
        right.add_transition(q0, None, qa);
        right.add_transition(q0, None, qb);
        right.add_transition(qa, Some('a'), qa);
        right.add_transition(qb, Some('b'), qb);
        // Left: the single word "ab" (as prefixes).
        let mut left = Nfa::new();
        let p0 = left.add_state();
        let p1 = left.add_state();
        let p2 = left.add_state();
        left.set_initial(p0);
        left.add_transition(p0, Some('a'), p1);
        left.add_transition(p1, Some('b'), p2);
        let result = check_inclusion_antichain(&left, &right);
        // "ab" is in neither branch: counterexample expected.
        assert_eq!(result.counterexample(), Some(&['a', 'b'][..]));
    }

    #[test]
    fn equivalence_of_dfa_and_its_nfa_disguise() {
        // Same language ({a,b}* prefixes), one with a redundant ε-split.
        let plain = letters(&['a', 'b']);
        let mut split = Nfa::new();
        let q0 = split.add_state();
        let q1 = split.add_state();
        split.set_initial(q0);
        split.add_transition(q0, None, q1);
        split.add_transition(q0, Some('a'), q0);
        split.add_transition(q0, Some('b'), q0);
        split.add_transition(q1, Some('a'), q0);
        assert!(check_equivalence_antichain(&plain, &split).holds());
    }

    #[test]
    fn equivalence_reports_direction() {
        let ab = letters(&['a', 'b']);
        let a = letters(&['a']);
        assert_eq!(
            check_equivalence_antichain(&ab, &a),
            EquivalenceResult::OnlyInLeft(vec!['b'])
        );
        assert_eq!(
            check_equivalence_antichain(&a, &ab),
            EquivalenceResult::OnlyInRight(vec!['b'])
        );
    }

    #[test]
    fn subsumption_keeps_only_minimal_sets() {
        let mut antichain = HashMap::new();
        let mut big = BitSet::new(4);
        big.insert(0);
        big.insert(1);
        let mut small = BitSet::new(4);
        small.insert(0);
        assert!(try_insert(&mut antichain, 0, &big));
        // The smaller set replaces the bigger one...
        assert!(try_insert(&mut antichain, 0, &small));
        assert_eq!(antichain[&0], [small]);
        // ...which is now subsumed; another state's antichain is separate.
        assert!(!try_insert(&mut antichain, 0, &big));
        assert!(try_insert(&mut antichain, 1, &big));
    }
}
