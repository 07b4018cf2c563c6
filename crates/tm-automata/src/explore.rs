//! On-the-fly exploration of implicitly defined transition systems.
//!
//! TM algorithms and TM specifications are defined by transition *rules*
//! over structured states (tuples of status functions and variable sets).
//! [`explore`] interns the reachable states of such a system into an
//! explicit [`Nfa`], remembering the original state for each id so that
//! counterexamples and liveness loops can be reported in source terms.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::budget::{EngineError, QueryBudget};
use crate::fxhash::FxHashMap;
use crate::nfa::{Nfa, StateId};

/// How many BFS visits pass between deadline/cancellation checks: cheap
/// enough to bound abort latency, coarse enough to keep the hot loop
/// clock-free.
const INTERRUPT_STRIDE: usize = 1024;

/// An implicitly defined labelled transition system.
///
/// `Label = None` in a successor is an internal (ε) step: in TM-algorithm
/// terms, an extended command answered with the `⊥` response.
pub trait TransitionSystem {
    /// Structured state type.
    type State: Clone + Eq + Hash;
    /// Transition label type.
    type Label: Clone;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Appends all transitions enabled in `state` to `out` as
    /// `(label, successor)` pairs.
    fn successors(&self, state: &Self::State, out: &mut Vec<(Option<Self::Label>, Self::State)>);
}

/// The result of [`explore`]: an explicit automaton plus the interning
/// table mapping state ids back to the structured states.
#[derive(Clone, Debug)]
pub struct Explored<S, L> {
    /// The reachable portion of the system as an NFA (all states
    /// accepting).
    pub nfa: Nfa<L>,
    /// `states[id]` is the structured state interned as `id`.
    pub states: Vec<S>,
}

impl<S, L> Explored<S, L> {
    /// Number of reachable states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The structured state behind `id`.
    pub fn state(&self, id: StateId) -> &S {
        &self.states[id]
    }
}

/// Explores the reachable state space of `ts` breadth-first under
/// `budget`: the state bound is checked before every intern, the
/// deadline/cancellation every `INTERRUPT_STRIDE` visited states.
///
/// # Errors
///
/// [`EngineError::StateLimit`] if the reachable state space exceeds
/// `budget.max_states()` — in this workspace the bound is the caller's
/// declaration that the instance was expected to be finite and small (cf.
/// the paper's reduction to two threads and two variables), so hitting it
/// is a structured abort, never a panic — and [`EngineError::Deadline`] /
/// [`EngineError::Cancelled`] per the budget.
pub fn explore<T: TransitionSystem>(
    ts: &T,
    budget: &QueryBudget,
) -> Result<Explored<T::State, T::Label>, EngineError> {
    let mut nfa = Nfa::new();
    let mut ids: FxHashMap<T::State, StateId> = FxHashMap::default();
    let mut states: Vec<T::State> = Vec::new();

    let init = ts.initial();
    let id0 = nfa.add_state();
    nfa.set_initial(id0);
    ids.insert(init.clone(), id0);
    states.push(init);

    let mut head = 0;
    let mut buf: Vec<(Option<T::Label>, T::State)> = Vec::new();
    while head < states.len() {
        if head.is_multiple_of(INTERRUPT_STRIDE) {
            budget.check_interrupt()?;
        }
        buf.clear();
        // Borrow the frontier state in place: the successor buffer is
        // filled before `states` grows, so no per-visit clone is needed.
        ts.successors(&states[head], &mut buf);
        for (label, succ) in buf.drain(..) {
            let to = match ids.entry(succ) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    budget.check_states(states.len())?;
                    let id = nfa.add_state();
                    states.push(entry.key().clone());
                    *entry.insert(id)
                }
            };
            nfa.add_transition(head, label, to);
        }
        head += 1;
    }
    Ok(Explored { nfa, states })
}

/// An implicitly defined *deterministic* transition system: at most one
/// successor per (state, letter), no internal steps.
pub trait DeterministicTransitionSystem {
    /// Structured state type.
    type State: Clone + Eq + Hash;
    /// Transition label type.
    type Label: Clone + Eq + Hash;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// The successor of `state` under `letter`, or `None` if the letter is
    /// rejected in `state`.
    fn step(&self, state: &Self::State, letter: &Self::Label) -> Option<Self::State>;
}

/// Blanket reference implementation, so adapters that own their system
/// (such as [`crate::SpecCache`]) can be built over a borrowed one.
impl<T: DeterministicTransitionSystem + ?Sized> DeterministicTransitionSystem for &T {
    type State = T::State;
    type Label = T::Label;

    fn initial(&self) -> Self::State {
        (**self).initial()
    }

    fn step(&self, state: &Self::State, letter: &Self::Label) -> Option<Self::State> {
        (**self).step(state, letter)
    }
}

/// The result of a deterministic exploration: the compiled
/// [`Dfa`](crate::Dfa) plus the concrete state behind each automaton id.
pub type ExploredDfa<T> = (
    crate::dfa::Dfa<<T as DeterministicTransitionSystem>::Label>,
    Vec<<T as DeterministicTransitionSystem>::State>,
);

/// Explores a deterministic system over `alphabet` into a
/// [`Dfa`](crate::Dfa), breadth-first, under `budget`.
///
/// # Errors
///
/// As for [`explore`].
pub fn explore_deterministic<T: DeterministicTransitionSystem>(
    ts: &T,
    alphabet: Vec<T::Label>,
    budget: &QueryBudget,
) -> Result<ExploredDfa<T>, EngineError> {
    let mut dfa = crate::dfa::Dfa::new(alphabet);
    let mut ids: FxHashMap<T::State, StateId> = FxHashMap::default();
    let mut states: Vec<T::State> = Vec::new();

    let init = ts.initial();
    let q0 = dfa.add_state();
    dfa.set_initial(q0);
    ids.insert(init.clone(), q0);
    states.push(init);

    // One up-front copy of the alphabet instead of a letter clone (plus a
    // label hash in `set_transition`) per explored edge.
    let letters: Vec<T::Label> = dfa.alphabet().to_vec();
    let mut head = 0;
    while head < states.len() {
        if head.is_multiple_of(INTERRUPT_STRIDE) {
            budget.check_interrupt()?;
        }
        for (li, letter) in letters.iter().enumerate() {
            let Some(succ) = ts.step(&states[head], letter) else {
                continue;
            };
            let to = match ids.get(&succ) {
                Some(&id) => id,
                None => {
                    budget.check_states(states.len())?;
                    let id = dfa.add_state();
                    ids.insert(succ.clone(), id);
                    states.push(succ);
                    id
                }
            };
            dfa.set_transition_by_index(head, li, to);
        }
        head += 1;
    }
    Ok((dfa, states))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter modulo `n`, incremented by 'i' with an ε-reset to 0.
    struct ModCounter {
        n: u32,
    }

    impl TransitionSystem for ModCounter {
        type State = u32;
        type Label = char;

        fn initial(&self) -> u32 {
            0
        }

        fn successors(&self, state: &u32, out: &mut Vec<(Option<char>, u32)>) {
            out.push((Some('i'), (state + 1) % self.n));
            if *state != 0 {
                out.push((None, 0));
            }
        }
    }

    #[test]
    fn explores_all_residues() {
        let explored = explore(&ModCounter { n: 5 }, &QueryBudget::new(100)).unwrap();
        assert_eq!(explored.num_states(), 5);
        assert_eq!(explored.nfa.num_epsilon_transitions(), 4);
        assert_eq!(*explored.state(0), 0);
    }

    #[test]
    fn state_bound_is_a_structured_error() {
        assert_eq!(
            explore(&ModCounter { n: 100 }, &QueryBudget::new(10)).err(),
            Some(EngineError::StateLimit(10))
        );
    }

    #[test]
    fn expired_deadline_aborts_exploration() {
        let budget = QueryBudget::unlimited().with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            explore(&ModCounter { n: 100 }, &budget).err(),
            Some(EngineError::Deadline)
        );
        let stale = crate::CancelToken::new();
        stale.cancel();
        let budget = QueryBudget::unlimited().with_cancel(stale);
        assert_eq!(
            explore_deterministic(&Parity, vec!['f', 'z'], &budget).err(),
            Some(EngineError::Cancelled)
        );
    }

    struct Parity;

    impl DeterministicTransitionSystem for Parity {
        type State = bool;
        type Label = char;

        fn initial(&self) -> bool {
            false
        }

        fn step(&self, state: &bool, letter: &char) -> Option<bool> {
            match letter {
                'f' => Some(!state),
                'z' if !state => Some(*state), // 'z' only allowed when even
                _ => None,
            }
        }
    }

    #[test]
    fn deterministic_exploration() {
        let (dfa, states) =
            explore_deterministic(&Parity, vec!['f', 'z'], &QueryBudget::new(10)).unwrap();
        assert_eq!(dfa.num_states(), 2);
        assert_eq!(states.len(), 2);
        assert!(dfa.accepts(&['f', 'f', 'z']));
        assert!(!dfa.accepts(&['f', 'z']));
    }
}
