//! The specification the product engine runs: [`DetSpec`] with its
//! states interned by a **normal form**, so the safety product explores
//! `(TM state, key)` pairs instead of `(TM state, DetState)` pairs.
//!
//! # The normal form
//!
//! For strict serializability ([`forget_doomed`]): a thread whose
//! transaction is doomed (`valid == false`) keeps only its phase and its
//! `valid` flag; the rest of its [`DetThread`] record is reset to the
//! default, and the thread is removed from every other thread's `wp` and
//! `sp`. A doomed transaction can never commit, and strict
//! serializability constrains committed transactions only, so nothing it
//! read, wrote or was ordered against can change which words are
//! accepted afterwards. At (2, 2) the 3520 states of `DetSpec::to_dfa`
//! fall to 1120 keys (the language has 512 classes).
//!
//! For opacity the key is the state itself. The same rule is unsound
//! there — an aborting reader still constrains the serialization order —
//! and `tests/spec_quotient.rs` keeps a negative control showing that a
//! synchronized walk catches it at (2, 2).
//!
//! # Validation
//!
//! [`QuotientSpec`] steps a key with the [`DetSpec`] rules and normalizes
//! the successor. That is exact when the normal form is a *congruence*:
//! for every reachable state `s` and letter `a`, `step(key(s), a)` is
//! defined iff `step(s, a)` is, and then `key(step(key(s), a)) =
//! key(step(s, a))`. By induction on the word, the key reached by the
//! quotient is then the key of the state `DetSpec` reaches, and both
//! automata accept the same words. `tests/spec_quotient.rs` checks this
//! on every reachable state of `DetSpec::to_dfa` at (2, 1), (3, 1),
//! (2, 2), (4, 1) and (2, 3), and the differential suites compare every
//! Table 2 verdict and word with the unquotiented specification.
//!
//! # Why the product BFS reports the same shortest word
//!
//! Call two product pairs `(q, s)` and `(q, s')` *equivalent* when
//! `key(s) = key(s')`. The FIFO product BFS of
//! `tm_automata::check_inclusion_otf` over `DetSpec` and the same BFS
//! over the keys discover the same word, because:
//!
//! 1. **A violating edge depends only on the key.** An edge of `(q, s)`
//!    is a TM edge of `q` (the same for every pair with TM state `q`)
//!    whose letter `DetSpec` rejects in `s`; by the congruence that
//!    letter is rejected in every state with the key of `s`. Equivalent
//!    pairs also step to equivalent pairs under every TM edge.
//! 2. **The first pair of each class is discovered exactly as before.**
//!    Take the first pair `p` of a class in the unquotiented queue, found
//!    from parent `r` under edge `e`. If `r` were not the first of its
//!    own class, that first pair `r'` sits earlier in the queue, has the
//!    same TM edges, and steps under `e` to a pair of `p`'s class — so a
//!    pair of that class would have been discovered before `p`. Hence
//!    `r` is the first of its class, and the earliest such parent, under
//!    its earliest such edge. The quotient BFS discovers its pairs by the
//!    same rule, so by induction on queue position its queue is the
//!    unquotiented queue restricted to first-of-class pairs, in the same
//!    order and with the same parent edges.
//!
//! The unquotiented BFS stops at the first queue entry with a violating
//! edge. By (1) that entry is the first of its class (an earlier
//! equivalent entry would have violated first), so the quotient BFS
//! reaches it as the same head, scans the same row, and stops at the
//! same edge: the parent chains, and so the words, are identical. Only
//! `product_states` and the number of specification states touched
//! shrink.

use tm_automata::DeterministicTransitionSystem;
use tm_lang::{SafetyProperty, Statement, ThreadId, ThreadSet};

use crate::det::DetSpec;
use crate::state::{DetState, DetThread};

/// The strict-serializability normal form of `state`: every doomed
/// thread (`valid == false`) keeps only its phase and its `valid` flag,
/// and is dropped from every other thread's `wp` and `sp` (see the
/// module docs). A state without doomed threads is its own key.
pub fn forget_doomed(state: &DetState) -> DetState {
    let doomed: ThreadSet = state
        .0
        .iter()
        .enumerate()
        .filter(|(_, thread)| !thread.valid)
        .map(|(i, _)| ThreadId::new(i))
        .collect();
    if doomed.is_empty() {
        return *state;
    }
    let mut key = *state;
    for thread in &mut key.0 {
        if thread.valid {
            thread.wp = thread.wp.difference(doomed);
            thread.sp = thread.sp.difference(doomed);
        } else {
            *thread = DetThread {
                phase: thread.phase,
                valid: false,
                ..DetThread::default()
            };
        }
    }
    key
}

/// [`DetSpec`] over normal-form keys: the specification system the
/// `tm_checker::Verifier` session interns (see the module docs). Its
/// states are keys, and it accepts exactly the words [`DetSpec`]
/// accepts.
///
/// # Examples
///
/// ```
/// use tm_automata::DeterministicTransitionSystem;
/// use tm_lang::SafetyProperty;
/// use tm_spec::QuotientSpec;
///
/// let spec = QuotientSpec::new(SafetyProperty::StrictSerializability, 2, 2);
/// let w: tm_lang::Word = "(r,1)1 (w,1)2 c2 (r,1)1".parse()?;
/// let mut key = spec.initial();
/// for s in w.iter() {
///     key = spec.step(&key, s).expect("a prefix of an ss word");
/// }
/// // Thread 1 read `x1` both before and after a committed write to it:
/// // it is doomed, and its key keeps nothing but its phase.
/// assert!(!key.0[0].valid && key.0[0].rs.is_empty() && key.0[0].prs.is_empty());
/// # Ok::<(), tm_lang::ParseStatementError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct QuotientSpec {
    spec: DetSpec,
}

impl QuotientSpec {
    /// The quotient of Σᵈ_π for `threads` threads and `vars` variables.
    ///
    /// # Panics
    ///
    /// As [`DetSpec::new`].
    pub fn new(property: SafetyProperty, threads: usize, vars: usize) -> Self {
        QuotientSpec {
            spec: DetSpec::new(property, threads, vars),
        }
    }

    /// The key of `state`: [`forget_doomed`] for strict serializability,
    /// the state itself for opacity.
    pub fn normalize(&self, state: &DetState) -> DetState {
        match self.spec.property() {
            SafetyProperty::StrictSerializability => forget_doomed(state),
            SafetyProperty::Opacity => *state,
        }
    }
}

impl DeterministicTransitionSystem for QuotientSpec {
    type State = DetState;
    type Label = Statement;

    fn initial(&self) -> DetState {
        self.normalize(&self.spec.initial())
    }

    fn step(&self, state: &DetState, letter: &Statement) -> Option<DetState> {
        self.spec
            .apply(state, *letter)
            .map(|next| self.normalize(&next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_lang::VarId;

    #[test]
    fn forget_doomed_clears_the_doomed_record_and_its_back_references() {
        let mut q = DetState::default();
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        q.0[0].phase = crate::DetPhase::Pending;
        q.0[0].valid = false;
        q.0[0].rs.insert(VarId::new(0));
        q.0[0].wp.insert(t2);
        q.0[1].wp.insert(t1);
        q.0[1].sp.insert(t1);
        q.0[1].rs.insert(VarId::new(1));
        let key = forget_doomed(&q);
        assert_eq!(key.0[0].phase, crate::DetPhase::Pending);
        assert!(!key.0[0].valid);
        assert!(key.0[0].rs.is_empty() && key.0[0].wp.is_empty());
        assert!(key.0[1].wp.is_empty() && key.0[1].sp.is_empty());
        assert_eq!(key.0[1].rs, q.0[1].rs, "live records keep their sets");
        assert_eq!(forget_doomed(&key), key, "idempotent");
    }

    #[test]
    fn opacity_keys_are_the_states_themselves() {
        let spec = QuotientSpec::new(SafetyProperty::Opacity, 2, 2);
        let mut q = DetState::default();
        q.0[0].valid = false;
        q.0[0].rs.insert(VarId::new(0));
        assert_eq!(spec.normalize(&q), q);
    }
}
