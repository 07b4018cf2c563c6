//! Contention managers and the TM × CM product construction (§3.1).
//!
//! A contention manager `cm = ⟨P, p_init, δcm⟩` watches the extended
//! statements `(d, t)` of a TM algorithm and *restricts* its behavior: at
//! a conflict (`φ(q, (c, t)) = true`) only actions with a δcm transition
//! remain available; outside conflicts the TM is unrestricted but the CM
//! state still advances along its transitions. Consequently
//! `L(A_cm) ⊆ L(A)` — which is why safety is verified once, without any
//! manager (§4), while liveness must be checked per manager (§6).

use std::cell::Cell;
use std::fmt;
use std::hash::Hash;

use tm_lang::{Command, ThreadId};

use crate::algorithm::{set_pending, Action, ExtCommand, Step, TmAlgorithm, TmState, MAX_THREADS};

/// A contention manager in the paper's formalism.
///
/// `δcm` is exposed as [`ContentionManager::transition`]: the successor CM
/// state for extended statement `(d, t)` — `None` both for "no transition"
/// and with `d = None` denoting the abort statement.
pub trait ContentionManager {
    /// CM state type `P`.
    type State: Clone + Eq + Hash + fmt::Debug;

    /// Human-readable name, e.g. `"aggressive"`.
    fn name(&self) -> String;

    /// The initial state `p_init`.
    fn initial_state(&self) -> Self::State;

    /// `δcm(p, (d, t))`: the successor state, or `None` if the manager has
    /// no transition for this statement. `d = None` stands for `abort`.
    fn transition(
        &self,
        p: &Self::State,
        d: Option<ExtCommand>,
        t: ThreadId,
    ) -> Option<Self::State>;
}

/// The *aggressive* contention manager (§3.3.3): every non-abort statement
/// allowed, abort never — at a conflict the attacker must attack, so a
/// transaction never aborts itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggressiveCm;

impl ContentionManager for AggressiveCm {
    type State = ();

    fn name(&self) -> String {
        "aggressive".to_owned()
    }

    fn initial_state(&self) {}

    fn transition(&self, _p: &(), d: Option<ExtCommand>, _t: ThreadId) -> Option<()> {
        d.map(|_| ())
    }
}

/// The *polite* contention manager (§3.3.4): only abort statements
/// allowed — at a conflict the requesting transaction always aborts
/// itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoliteCm;

impl ContentionManager for PoliteCm {
    type State = ();

    fn name(&self) -> String {
        "polite".to_owned()
    }

    fn initial_state(&self) {}

    fn transition(&self, _p: &(), d: Option<ExtCommand>, _t: ThreadId) -> Option<()> {
        match d {
            None => Some(()),
            Some(_) => None,
        }
    }
}

/// A finite Karma-style contention manager (extension beyond the paper,
/// after Scherer & Scott): each thread's priority is the number of
/// accesses completed in its current transaction, saturating at `cap`; at
/// a conflict the requester may attack iff its priority is at least every
/// other priority, and must back down (abort) otherwise.
///
/// The cap keeps the state space finite, which the paper points out is
/// essential for the method (§4: unbounded managers cannot be modelled).
#[derive(Clone, Copy, Debug)]
pub struct KarmaCm {
    threads: usize,
    cap: u8,
}

impl KarmaCm {
    /// Creates a Karma manager for `threads` threads with priorities
    /// saturating at `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or `cap` is 0.
    pub fn new(threads: usize, cap: u8) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!(cap > 0);
        KarmaCm { threads, cap }
    }
}

/// Per-thread saturating priorities — state of [`KarmaCm`] and
/// [`PastAbortsCm`].
pub type Priorities = [u8; MAX_THREADS];

impl ContentionManager for KarmaCm {
    type State = Priorities;

    fn name(&self) -> String {
        format!("karma{}", self.cap)
    }

    fn initial_state(&self) -> Priorities {
        [0; MAX_THREADS]
    }

    fn transition(
        &self,
        p: &Priorities,
        d: Option<ExtCommand>,
        t: ThreadId,
    ) -> Option<Priorities> {
        let ti = t.index();
        let top = (0..self.threads)
            .filter(|&u| u != ti)
            .map(|u| p[u])
            .max()
            .unwrap_or(0);
        match d {
            // Abort: allowed only when outranked; priority resets.
            None => {
                if p[ti] < top {
                    let mut next = *p;
                    next[ti] = 0;
                    Some(next)
                } else {
                    None
                }
            }
            // Commit completion resets priority; it is always allowed.
            Some(ExtCommand::Base(Command::Commit)) => {
                let mut next = *p;
                next[ti] = 0;
                Some(next)
            }
            // Accesses earn karma and are allowed while not outranked.
            Some(ExtCommand::Base(_)) => {
                if p[ti] >= top {
                    let mut next = *p;
                    next[ti] = (p[ti] + 1).min(self.cap);
                    Some(next)
                } else {
                    Some(*p)
                }
            }
            // TM-internal statements allowed iff not outranked.
            Some(_) => (p[ti] >= top).then_some(*p),
        }
    }
}

/// A deliberately **ill-structured** contention manager (extension): each
/// abort raises the thread's priority (saturating at `cap`); a commit
/// resets it; at a conflict the requester attacks iff its priority
/// strictly exceeds every other (so freshly started transactions always
/// yield). The paper (§4, P1) names exactly this shape —
/// "a contention manager that prioritizes transactions according to the
/// number of times it has aborted in the past" — as one that **violates**
/// the transaction-projection property P1, because removing an aborted
/// transaction changes later decisions. Used in tests to demonstrate the
/// limits of the reduction theorem.
#[derive(Clone, Copy, Debug)]
pub struct PastAbortsCm {
    threads: usize,
    cap: u8,
}

impl PastAbortsCm {
    /// Creates the manager for `threads` threads, priorities saturating at
    /// `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or `cap` is 0.
    pub fn new(threads: usize, cap: u8) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!(cap > 0);
        PastAbortsCm { threads, cap }
    }
}

impl ContentionManager for PastAbortsCm {
    type State = Priorities;

    fn name(&self) -> String {
        format!("past-aborts{}", self.cap)
    }

    fn initial_state(&self) -> Priorities {
        [0; MAX_THREADS]
    }

    fn transition(
        &self,
        p: &Priorities,
        d: Option<ExtCommand>,
        t: ThreadId,
    ) -> Option<Priorities> {
        let ti = t.index();
        let top = (0..self.threads)
            .filter(|&u| u != ti)
            .map(|u| p[u])
            .max()
            .unwrap_or(0);
        match d {
            None => {
                let mut next = *p;
                next[ti] = (p[ti] + 1).min(self.cap);
                Some(next)
            }
            Some(ExtCommand::Base(Command::Commit)) => {
                let mut next = *p;
                next[ti] = 0;
                Some(next)
            }
            Some(_) => (p[ti] > top).then_some(*p),
        }
    }
}

/// Product state of a TM algorithm and a contention manager.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CmState<S, P> {
    /// TM-algorithm component.
    pub tm: S,
    /// Contention-manager component.
    pub cm: P,
}

impl<S: fmt::Debug, P: fmt::Debug> fmt::Debug for CmState<S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{:?} × {:?}⟩", self.tm, self.cm)
    }
}

impl<S: TmState, P: Clone + Eq + Hash + fmt::Debug> TmState for CmState<S, P> {
    fn pending(&self, t: ThreadId) -> Option<Command> {
        self.tm.pending(t)
    }

    fn set_pending(&mut self, t: ThreadId, c: Option<Command>) {
        self.tm.set_pending(t, c);
    }
}

/// The product TM algorithm `A_cm` of a TM algorithm and a contention
/// manager (§3.1).
///
/// # Examples
///
/// ```
/// use tm_algorithms::{AggressiveCm, DstmTm, TmAlgorithm, WithContentionManager};
/// use tm_lang::{Command, ThreadId, VarId};
///
/// let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
/// assert_eq!(tm.name(), "dstm+aggressive");
/// let v = VarId::new(0);
/// let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
/// let q = tm.initial_state();
/// let q = tm.steps(&q, Command::Write(v), t1)[0].next.clone();
/// // Conflict for t2 — but aggressive forbids self-abort, so only the
/// // ownership steal remains:
/// let steps = tm.steps(&q, Command::Write(v), t2);
/// assert_eq!(steps.len(), 1);
/// assert!(!steps[0].action.is_abort());
/// ```
pub struct WithContentionManager<A: TmAlgorithm, C> {
    tm: A,
    cm: C,
    /// The base TM's proper steps of the call in progress: their state
    /// type is the base's, not the product's, so they cannot go into the
    /// caller's buffer. Taken and put back by every call, so stepping
    /// allocates only while the buffer grows to its high-water mark.
    base: Cell<Vec<Step<A::State>>>,
}

impl<A: TmAlgorithm + Clone, C: Clone> Clone for WithContentionManager<A, C> {
    fn clone(&self) -> Self {
        WithContentionManager {
            tm: self.tm.clone(),
            cm: self.cm.clone(),
            base: Cell::default(),
        }
    }
}

impl<A: TmAlgorithm + fmt::Debug, C: fmt::Debug> fmt::Debug for WithContentionManager<A, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WithContentionManager")
            .field("tm", &self.tm)
            .field("cm", &self.cm)
            .finish()
    }
}

impl<A: TmAlgorithm, C: ContentionManager> WithContentionManager<A, C> {
    /// Composes a TM algorithm with a contention manager.
    pub fn new(tm: A, cm: C) -> Self {
        WithContentionManager {
            tm,
            cm,
            base: Cell::default(),
        }
    }

    /// The underlying TM algorithm.
    pub fn tm(&self) -> &A {
        &self.tm
    }

    /// The contention manager.
    pub fn cm(&self) -> &C {
        &self.cm
    }

    /// CM successor obeying product rule (iii): stay put if δcm has no
    /// transition (only legal outside conflicts).
    fn cm_advance(&self, p: &C::State, d: Option<ExtCommand>, t: ThreadId) -> C::State {
        self.cm.transition(p, d, t).unwrap_or_else(|| p.clone())
    }

    /// Drains the base TM's proper steps `base` (of thread `t` in `q`,
    /// `conflict` being `φ` there), appending those the manager admits,
    /// paired with the manager's successor state.
    fn push_cm_filtered(
        &self,
        q: &CmState<A::State, C::State>,
        t: ThreadId,
        conflict: bool,
        base: &mut Vec<Step<A::State>>,
        out: &mut Vec<Step<CmState<A::State, C::State>>>,
    ) {
        for step in base.drain(..) {
            let d = step.action.ext_command();
            let cm_next = match self.cm.transition(&q.cm, d, t) {
                Some(p) => p,
                // Rule (ii): at a conflict every statement needs a δcm
                // transition; otherwise rule (iii) keeps the CM state.
                None if conflict => continue,
                None => q.cm.clone(),
            };
            out.push(Step {
                action: step.action,
                next: CmState {
                    tm: step.next,
                    cm: cm_next,
                },
            });
        }
    }
}

impl<A: TmAlgorithm, C: ContentionManager> TmAlgorithm for WithContentionManager<A, C> {
    type State = CmState<A::State, C::State>;

    fn name(&self) -> String {
        format!("{}+{}", self.tm.name(), self.cm.name())
    }

    fn threads(&self) -> usize {
        self.tm.threads()
    }

    fn vars(&self) -> usize {
        self.tm.vars()
    }

    fn initial_state(&self) -> Self::State {
        CmState {
            tm: self.tm.initial_state(),
            cm: self.cm.initial_state(),
        }
    }

    fn is_conflict(&self, q: &Self::State, c: Command, t: ThreadId) -> bool {
        self.tm.is_conflict(&q.tm, c, t)
    }

    fn proper_steps(
        &self,
        q: &Self::State,
        c: Command,
        t: ThreadId,
        out: &mut Vec<Step<Self::State>>,
    ) {
        let conflict = self.tm.is_conflict(&q.tm, c, t);
        let mut base = self.base.take();
        self.tm.proper_steps(&q.tm, c, t, &mut base);
        self.push_cm_filtered(q, t, conflict, &mut base, out);
        self.base.set(base);
    }

    fn abort_state(&self, q: &Self::State, t: ThreadId) -> Self::State {
        CmState {
            tm: self.tm.abort_state(&q.tm, t),
            cm: self.cm_advance(&q.cm, None, t),
        }
    }

    /// Product transition relation: CM-filtered proper steps, plus the
    /// abort transition when the base TM would offer it **and** — at a
    /// conflict — the manager has an abort transition. The base TM's
    /// proper steps are computed once and serve both the filter and the
    /// abort-enabledness test. They go into the composite's own reused
    /// buffer: its element type is the base TM's step, not `out`'s.
    fn steps_into(
        &self,
        q: &Self::State,
        c: Command,
        t: ThreadId,
        out: &mut Vec<Step<Self::State>>,
    ) {
        let start = out.len();
        let conflict = self.is_conflict(q, c, t);
        let mut base = self.base.take();
        self.tm.proper_steps(&q.tm, c, t, &mut base);
        let abort_in_base = base.is_empty() || conflict;
        self.push_cm_filtered(q, t, conflict, &mut base, out);
        self.base.set(base);
        let cm_allows_abort = !conflict || self.cm.transition(&q.cm, None, t).is_some();
        if abort_in_base && cm_allows_abort {
            out.push(Step {
                action: Action::Abort,
                next: self.abort_state(q, t),
            });
        }
        set_pending(&mut out[start..], c, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dstm::DstmTm;
    use crate::tl2::Tl2Tm;
    use tm_lang::VarId;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }
    fn write(v: usize) -> Command {
        Command::Write(VarId::new(v))
    }

    /// A base TM that counts its `proper_steps` calls.
    struct Counting<A> {
        tm: A,
        calls: std::cell::Cell<usize>,
    }

    impl<A: TmAlgorithm> TmAlgorithm for Counting<A> {
        type State = A::State;

        fn name(&self) -> String {
            self.tm.name()
        }
        fn threads(&self) -> usize {
            self.tm.threads()
        }
        fn vars(&self) -> usize {
            self.tm.vars()
        }
        fn initial_state(&self) -> A::State {
            self.tm.initial_state()
        }
        fn is_conflict(&self, q: &A::State, c: Command, t: ThreadId) -> bool {
            self.tm.is_conflict(q, c, t)
        }
        fn proper_steps(
            &self,
            q: &A::State,
            c: Command,
            t: ThreadId,
            out: &mut Vec<Step<A::State>>,
        ) {
            self.calls.set(self.calls.get() + 1);
            self.tm.proper_steps(q, c, t, out);
        }
        fn abort_state(&self, q: &A::State, t: ThreadId) -> A::State {
            self.tm.abort_state(q, t)
        }
    }

    /// Every product transition relation query runs the base TM's rules
    /// exactly once, over every reachable (state, thread, command).
    fn assert_one_base_call_per_step<C: ContentionManager>(cm: C) {
        let counting = Counting {
            tm: DstmTm::new(2, 2),
            calls: std::cell::Cell::new(0),
        };
        let tm = WithContentionManager::new(counting, cm);
        let states = crate::explore::most_general_nfa(&tm, 100_000).states;
        let mut out = Vec::new();
        let mut queries = 0;
        for q in &states {
            for t in tm.thread_ids() {
                for c in tm.enabled_commands(q, t) {
                    tm.tm().calls.set(0);
                    tm.steps_into(q, c, t, &mut out);
                    assert_eq!(tm.tm().calls.get(), 1, "{c} by {t} at {q:?}");
                    queries += 1;
                }
            }
        }
        assert!(queries > states.len());
    }

    #[test]
    fn steps_into_runs_the_base_rules_once() {
        assert_one_base_call_per_step(AggressiveCm);
        assert_one_base_call_per_step(PoliteCm);
    }

    #[test]
    fn aggressive_removes_self_abort_at_conflict() {
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let q = tm.initial_state();
        let q = tm.steps(&q, write(0), t(0))[0].next.clone(); // t1 owns v
        let steps = tm.steps(&q, write(0), t(1));
        assert_eq!(steps.len(), 1);
        assert!(!steps[0].action.is_abort());
    }

    #[test]
    fn polite_forces_self_abort_at_conflict() {
        let tm = WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm);
        let mut q = tm.initial_state();
        q = tm.steps(&q, write(0), t(0))[0].next.clone();
        q = tm.steps(&q, write(0), t(1))[0].next.clone();
        q = tm.steps(&q, Command::Commit, t(0))[0].next.clone(); // t1 locks v
        // t2's commit is a conflict: under polite only abort remains.
        let steps = tm.steps(&q, Command::Commit, t(1));
        assert_eq!(steps.len(), 1);
        assert!(steps[0].action.is_abort());
    }

    #[test]
    fn outside_conflicts_cm_does_not_restrict() {
        let tm = WithContentionManager::new(DstmTm::new(2, 2), PoliteCm);
        let q = tm.initial_state();
        let steps = tm.steps(&q, Command::Read(VarId::new(0)), t(0));
        assert_eq!(steps.len(), 1);
        assert!(!steps[0].action.is_abort());
    }

    #[test]
    fn aggressive_still_allows_abort_when_abort_enabled() {
        // A killed thread aborts through any non-conflicting command
        // (reads never conflict in DSTM).
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let mut q = tm.initial_state();
        q = tm.steps(&q, write(0), t(0))[0].next.clone(); // t1 owns v
        q = tm.steps(&q, write(0), t(1))[0].next.clone(); // t2 steals (only option)
        let steps = tm.steps(&q, Command::Read(VarId::new(0)), t(0));
        assert_eq!(steps.len(), 1);
        assert!(steps[0].action.is_abort());
    }

    #[test]
    fn aggressive_deadlocks_killed_thread_on_conflicting_command() {
        // Rule (ii) of the product: at a conflict every statement —
        // including abort — needs a δcm transition. A killed thread whose
        // next command is itself a conflict is therefore stuck under the
        // aggressive manager.
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let mut q = tm.initial_state();
        q = tm.steps(&q, write(0), t(0))[0].next.clone(); // t1 owns v
        q = tm.steps(&q, write(0), t(1))[0].next.clone(); // t2 steals; t1 killed
        let steps = tm.steps(&q, write(0), t(0));
        assert!(steps.is_empty());
    }

    #[test]
    fn karma_lets_richer_thread_attack_and_poorer_back_down() {
        let cm = KarmaCm::new(2, 3);
        let mut p = cm.initial_state();
        // t1 earns karma with two accesses.
        for _ in 0..2 {
            p = cm
                .transition(&p, Some(ExtCommand::Base(write(0))), t(0))
                .unwrap();
        }
        assert_eq!(p[0], 2);
        // t2 (karma 0) may not take internal attack steps...
        assert!(cm
            .transition(&p, Some(ExtCommand::Own(VarId::new(0))), t(1))
            .is_none());
        // ...but may abort.
        assert!(cm.transition(&p, None, t(1)).is_some());
        // t1 (outranking) may attack but not self-abort.
        assert!(cm
            .transition(&p, Some(ExtCommand::Own(VarId::new(0))), t(0))
            .is_some());
        assert!(cm.transition(&p, None, t(0)).is_none());
    }

    #[test]
    fn karma_priority_saturates_and_resets() {
        let cm = KarmaCm::new(2, 2);
        let mut p = cm.initial_state();
        for _ in 0..5 {
            p = cm
                .transition(&p, Some(ExtCommand::Base(write(0))), t(0))
                .unwrap();
        }
        assert_eq!(p[0], 2);
        p = cm
            .transition(&p, Some(ExtCommand::Base(Command::Commit)), t(0))
            .unwrap();
        assert_eq!(p[0], 0);
    }

    #[test]
    fn past_aborts_counts_aborts() {
        let cm = PastAbortsCm::new(2, 4);
        let mut p = cm.initial_state();
        p = cm.transition(&p, None, t(0)).unwrap();
        p = cm.transition(&p, None, t(0)).unwrap();
        assert_eq!(p[0], 2);
        // t2 is outranked: no attack.
        assert!(cm
            .transition(&p, Some(ExtCommand::Own(VarId::new(0))), t(1))
            .is_none());
        // t1 strictly outranks: attack allowed.
        assert!(cm
            .transition(&p, Some(ExtCommand::Own(VarId::new(0))), t(0))
            .is_some());
        // At equal priorities nobody attacks (fresh threads yield).
        let fresh = cm.initial_state();
        assert!(cm
            .transition(&fresh, Some(ExtCommand::Own(VarId::new(0))), t(0))
            .is_none());
    }

    #[test]
    fn product_name_concatenates() {
        let tm = WithContentionManager::new(DstmTm::new(2, 2), KarmaCm::new(2, 2));
        assert_eq!(tm.name(), "dstm+karma2");
    }
}
