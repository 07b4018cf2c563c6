//! Antichain-based language inclusion between two nondeterministic
//! automata, after De Wulf, Doyen, Henzinger & Raskin, *"Antichains: a new
//! algorithm for checking universality of finite automata"* (CAV 2006) —
//! the tool the paper uses to prove `L(Σ) = L(Σᵈ)` (§5.3, Theorem 3).
//!
//! Specialized to the prefix-closed, all-states-accepting automata of this
//! workspace: `L(A) ⊆ L(B)` fails iff some word drives `A` somewhere while
//! the set of `B`-states reachable on that word becomes empty. The
//! algorithm explores pairs `(a, S)` of an `A`-state and a `B`-state set;
//! since `post` is monotone in `S`, a pair is subsumed by any stored pair
//! with the same `a` and a *smaller* set, so only ⊆-minimal sets are kept
//! per `A`-state — the antichain.
//!
//! Both automata are compiled over one shared interned alphabet
//! ([`crate::CompiledNfa`]), so the frontier loop works purely on
//! `(u32 state, u32 letter)` integers: `post` is a per-letter CSR slice
//! walk, subsumption runs on raw bitset words ([`BitSet::words`]) with
//! the stored sets bucketed by popcount — a subset is never larger than
//! its superset, so `try_insert` scans only the buckets a subset relation
//! is arithmetically possible in — and labels are materialized only for
//! counterexample reconstruction. The pre-compilation original is a
//! test oracle in the dev-only `tm-bench` crate (`tm_bench::oracle`).

use std::hash::Hash;

use crate::alphabet::{Alphabet, LetterId};
use crate::bitset::BitSet;
use crate::compiled::{CompiledNfa, EPSILON};
use crate::inclusion::InclusionResult;
use crate::nfa::Nfa;

/// Checks `L(a) ⊆ L(b)` with the antichain algorithm.
///
/// Both automata may be nondeterministic and contain ε-moves. The result's
/// `product_states` reports the number of `(state, set)` pairs explored
/// (the effective size of the antichain frontier).
///
/// # Examples
///
/// ```
/// use tm_automata::{check_inclusion_antichain, Nfa};
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
    // One shared alphabet: `a`-letters first, then `b`-only letters.
    // Letters of `a` that `b` lacks get ids with empty CSR rows in `cb`,
    // so `post` naturally returns the empty set — a violation, exactly as
    // in the uncompiled checker.
    let mut alphabet = Alphabet::new();
    let ca = CompiledNfa::compile(a, &mut alphabet);
    let cb = CompiledNfa::compile(b, &mut alphabet);

    let mut queue: Vec<(u32, BitSet)> = Vec::new();
    // (parent queue index, letter id); u32::MAX parent marks a root.
    let mut parent: Vec<(u32, LetterId)> = Vec::new();
    // Antichain of ⊆-minimal B-sets seen, indexed by A-state.
    let mut antichain: Vec<Antichain> = (0..ca.num_states()).map(|_| Antichain::new()).collect();

    let b0 = cb.initial_closure();
    for &qa in ca.initial_states() {
        if antichain[qa as usize].try_insert(&b0) {
            queue.push((qa, b0.clone()));
            parent.push((u32::MAX, EPSILON));
        }
    }

    let mut head = 0usize;
    while head < queue.len() {
        let qa = queue[head].0;
        let (letters, targets) = ca.edges_from(qa);
        for (&letter, &target) in letters.iter().zip(targets) {
            let next_set = if letter == EPSILON {
                queue[head].1.clone()
            } else {
                let post = cb.post(&queue[head].1, letter);
                if post.is_empty() {
                    return counterexample(&alphabet, &parent, head, letter, queue.len());
                }
                post
            };
            if antichain[target as usize].try_insert(&next_set) {
                queue.push((target, next_set));
                parent.push((head as u32, letter));
            }
        }
        head += 1;
    }
    InclusionResult::Included {
        product_states: queue.len(),
    }
}

/// Reconstructs the violating word along the queue's parent pointers; the
/// only place letter ids are materialized back into labels.
fn counterexample<L: Clone>(
    alphabet: &Alphabet<L>,
    parent: &[(u32, LetterId)],
    mut at: usize,
    last_letter: LetterId,
    product_states: usize,
) -> InclusionResult<L> {
    let mut word = vec![alphabet.letter(last_letter).clone()];
    loop {
        let (prev, letter) = parent[at];
        if prev == u32::MAX {
            break;
        }
        if letter != EPSILON {
            word.push(alphabet.letter(letter).clone());
        }
        at = prev as usize;
    }
    word.reverse();
    InclusionResult::Counterexample {
        word,
        product_states,
    }
}

/// The ⊆-minimal state sets stored for one `A`-state, bucketed by
/// popcount: a stored set can only subsume a candidate if it has **at
/// most** as many elements, and can only be a superset of it with
/// **strictly more** (equal-popcount supersets are equal sets, caught by
/// the subsumption scan first). `try_insert` therefore scans only the
/// buckets a subset relation is arithmetically possible in, and each
/// word-level test short-circuits at the first failing `u64` of the
/// [`BitSet::words`] prefix.
struct Antichain {
    /// `buckets[p]` holds the stored sets of popcount `p` (tail buckets
    /// lazily grown).
    buckets: Vec<Vec<BitSet>>,
    /// Word-level subset tests performed — the regression-test handle
    /// proving the bucketing actually skips work. Compiled out of
    /// non-test builds (the increments fold into a dead local and
    /// vanish).
    #[cfg(test)]
    comparisons: usize,
}

impl Antichain {
    fn new() -> Self {
        Antichain {
            buckets: Vec::new(),
            #[cfg(test)]
            comparisons: 0,
        }
    }

    /// Accumulates `try_insert`'s locally counted subset tests (no-op
    /// outside tests).
    #[allow(unused_variables)]
    fn note_comparisons(&mut self, count: usize) {
        #[cfg(test)]
        {
            self.comparisons += count;
        }
    }

    /// Inserts `set` unless it is subsumed (some stored set is a subset
    /// of it); removes stored strict supersets. Returns `true` if
    /// inserted.
    fn try_insert(&mut self, set: &BitSet) -> bool {
        let words = set.words();
        let popcount = set.len();
        let mut comparisons = 0usize;
        // Subsumption: only sets with popcount <= |set| can be subsets.
        for bucket in self.buckets.iter().take(popcount + 1) {
            for stored in bucket {
                comparisons += 1;
                if subset_words(stored.words(), words) {
                    self.note_comparisons(comparisons);
                    return false;
                }
            }
        }
        // Removal: only strictly larger sets can be strict supersets.
        for bucket in self.buckets.iter_mut().skip(popcount + 1) {
            bucket.retain(|stored| {
                comparisons += 1;
                !subset_words(words, stored.words())
            });
        }
        self.note_comparisons(comparisons);
        if self.buckets.len() <= popcount {
            self.buckets.resize_with(popcount + 1, Vec::new);
        }
        self.buckets[popcount].push(set.clone());
        true
    }

    /// Word-level subset tests performed so far.
    #[cfg(test)]
    fn comparisons(&self) -> usize {
        self.comparisons
    }

    /// Number of stored sets.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// `true` if the set with words `a` is a subset of the set with words `b`
/// (equal lengths assumed).
#[inline]
fn subset_words(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
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
        InclusionResult::Counterexample { word, .. } => {
            return EquivalenceResult::OnlyInLeft(word)
        }
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
        // Right: two branches, one allowing a*, one allowing b; together
        // they cover {a,b}-prefix-words where b ends the word.
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
        let result = check_equivalence_antichain(&plain, &split);
        assert!(result.holds());
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
    fn antichain_subsumption_prunes() {
        let mut entry = Antichain::new();
        let mut big = BitSet::new(4);
        big.insert(0);
        big.insert(1);
        let mut small = BitSet::new(4);
        small.insert(0);
        assert!(entry.try_insert(&big));
        // Smaller set replaces the bigger one.
        assert!(entry.try_insert(&small));
        assert_eq!(entry.len(), 1);
        // Superset now subsumed.
        assert!(!entry.try_insert(&big));
    }

    /// Builds a `capacity`-bit set holding `indices`.
    fn bits(capacity: usize, indices: &[usize]) -> BitSet {
        let mut s = BitSet::new(capacity);
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// Popcount bucketing regression: `try_insert` performs subset tests
    /// only against buckets a subset relation is arithmetically possible
    /// in, so small candidates skip the subsumption scan entirely and
    /// equal-size candidates skip the superset-removal scan.
    #[test]
    fn popcount_buckets_bound_comparison_counts() {
        let mut entry = Antichain::new();
        // Eight pairwise-incomparable popcount-4 sets.
        for i in 0..8 {
            assert!(entry.try_insert(&bits(64, &[4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3])));
        }
        assert_eq!(entry.len(), 8);
        // Same-popcount inserts compare only within their own bucket:
        // 0 + 1 + … + 7 subsumption tests, no removal tests (no strictly
        // larger bucket exists).
        assert_eq!(entry.comparisons(), (0..8).sum::<usize>());

        // A popcount-2 candidate: the subsumption scan sees only the
        // (empty) buckets 0..=2 — zero tests — and the removal scan tests
        // exactly the 8 stored popcount-4 sets.
        let before = entry.comparisons();
        assert!(entry.try_insert(&bits(64, &[0, 1])));
        assert_eq!(entry.comparisons() - before, 8);
        // It knocked out its stored superset {0, 1, 2, 3}.
        assert_eq!(entry.len(), 8);

        // A popcount-8 candidate that is a superset of a stored set:
        // rejected by the subsumption scan without ever reaching the
        // removal scan (at most the 9 smaller-or-equal stored sets).
        let before = entry.comparisons();
        assert!(!entry.try_insert(&bits(64, &[4, 5, 6, 7, 8, 9, 10, 11])));
        assert!(entry.comparisons() - before <= 9);
    }

    /// The seed's unbucketed antichain insert over one plain list.
    fn try_insert_list(entry: &mut Vec<BitSet>, set: &BitSet) -> bool {
        if entry.iter().any(|stored| stored.is_subset(set)) {
            return false;
        }
        entry.retain(|stored| !set.is_subset(stored));
        entry.push(set.clone());
        true
    }

    /// The bucketed antichain stores exactly the ⊆-minimal sets the seed
    /// list-based insert stores, for an interleaved workload.
    #[test]
    fn bucketed_antichain_matches_reference_storage() {
        let sets: Vec<BitSet> = vec![
            bits(32, &[0, 1, 2]),
            bits(32, &[0, 1]),
            bits(32, &[3]),
            bits(32, &[0, 1, 2, 3]),
            bits(32, &[2]),
            bits(32, &[0, 1]),
            bits(32, &[4, 5]),
            bits(32, &[2, 6]),
        ];
        let mut bucketed = Antichain::new();
        let mut expected: Vec<BitSet> = Vec::new();
        for set in &sets {
            assert_eq!(
                bucketed.try_insert(set),
                try_insert_list(&mut expected, set),
                "{set:?}"
            );
        }
        let mut stored: Vec<BitSet> = bucketed.buckets.iter().flatten().cloned().collect();
        stored.sort();
        expected.sort();
        assert_eq!(stored, expected);
    }
}
