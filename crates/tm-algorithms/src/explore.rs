//! Applying a TM algorithm to the *most general program* (§3.2): from
//! every state, every thread may issue every enabled command, and the TM
//! answers by any of its transitions.
//!
//! Two views of the resulting transition system are produced:
//!
//! * the **word-level** NFA over statements `Ŝ` — internal (`⊥`-response)
//!   steps become ε-moves, completions emit `(c, t)`, aborts emit
//!   `(abort, t)`; its language is `L(A)`, the input to the safety checks;
//! * the **run-level** graph ([`MostGeneralRunSource`]), in which every
//!   atomic step (including internal ones) is an edge labelled with
//!   thread, command, and action — the input to the liveness loop search
//!   of §6.

use tm_lang::{Command, Statement, ThreadId};

use tm_automata::{
    explore, Explored, LetterId, QueryBudget, SuccessorSource, TransitionSystem, EPSILON,
};

use crate::algorithm::{Action, Step, TmAlgorithm, TmState};

/// One state expansion of the most general program: every step of every
/// thread `t` in [`TmAlgorithm::thread_ids`] order and each command in
/// [`TmAlgorithm::enabled_commands`] order, in each pair's
/// [`TmAlgorithm::steps_into`] order, handed to `emit`. All pairs share
/// one step buffer, so expanding a plain TM's state allocates at most
/// once.
fn for_each_step<A: TmAlgorithm>(
    tm: &A,
    state: &A::State,
    mut emit: impl FnMut(ThreadId, Command, Step<A::State>),
) {
    let mut steps = Vec::new();
    for t in tm.thread_ids() {
        for c in tm.enabled_commands(state, t) {
            tm.steps_into(state, c, t, &mut steps);
            for step in steps.drain(..) {
                emit(t, c, step);
            }
        }
    }
}

/// Word-level view: labels are statements, internal steps are ε.
struct WordLevel<'a, A>(&'a A);

impl<A: TmAlgorithm> TransitionSystem for WordLevel<'_, A> {
    type State = A::State;
    type Label = Statement;

    fn initial(&self) -> A::State {
        self.0.initial_state()
    }

    fn successors(&self, state: &A::State, out: &mut Vec<(Option<Statement>, A::State)>) {
        for_each_step(self.0, state, |t, c, step| {
            out.push((step.action.statement(c, t), step.next));
        });
    }
}

/// Explores `L(A)` for the most general program as an NFA over statements.
///
/// The returned [`Explored`] keeps the TM states behind the automaton ids,
/// and its `nfa.num_states()` is the "Size" column of the paper's Table 2.
///
/// # Panics
///
/// Panics if the reachable state space exceeds `max_states`.
///
/// # Examples
///
/// ```
/// use tm_algorithms::{most_general_nfa, SequentialTm};
///
/// let explored = most_general_nfa(&SequentialTm::new(2, 2), 100);
/// assert_eq!(explored.num_states(), 3); // paper Table 2, row "seq"
/// assert!(explored.nfa.accepts(&"(r,1)1 c1".parse::<tm_lang::Word>()
///     .unwrap().statements().to_vec()));
/// ```
pub fn most_general_nfa<A: TmAlgorithm>(
    tm: &A,
    max_states: usize,
) -> Explored<A::State, Statement> {
    explore(&WordLevel(tm), &QueryBudget::new(max_states))
        .unwrap_or_else(|error| panic!("most-general-program exploration failed: {error}"))
}

/// The most general program of a TM algorithm as a lazy
/// [`SuccessorSource`]: the word-level transition system of
/// [`most_general_nfa`], but stepped on demand by the on-the-fly product
/// engine ([`tm_automata::check_inclusion_otf`]) instead of being
/// materialized into an [`tm_automata::Nfa`] up front.
///
/// The source is built over the *specification's* interned alphabet
/// (extended with every statement of the instance, so letter lookups in
/// the successor hot path never miss): statements the specification knows
/// keep its letter ids, statements outside its alphabet get extension ids
/// that the engine reports as immediate violations.
///
/// # Examples
///
/// ```
/// use tm_algorithms::{MostGeneralSource, SequentialTm};
/// use tm_automata::{check_inclusion_otf, Alphabet, Dfa, QueryBudget, SpecCache};
///
/// // A toy specification over commits only, accepting any sequence of
/// // them: every read/write completion is then a violation.
/// let commits = "c1 c2".parse::<tm_lang::Word>().unwrap().statements().to_vec();
/// let mut spec = Dfa::new(commits.clone());
/// let q = spec.add_state();
/// spec.set_initial(q);
/// for c in &commits {
///     spec.set_transition(q, c, q);
/// }
/// let tm = SequentialTm::new(2, 2);
/// let source = MostGeneralSource::new(&tm, Alphabet::from_letters(&commits));
/// assert_eq!(source.alphabet().len(), 12); // extended to all of Ŝ
/// let mut cache = SpecCache::new(&spec, spec.letter_ids());
/// let (result, _) = check_inclusion_otf(&source, &mut cache, &QueryBudget::unlimited()).unwrap();
/// assert_eq!(result.counterexample().map(<[_]>::len), Some(1));
/// ```
pub struct MostGeneralSource<'a, A> {
    tm: &'a A,
    alphabet: tm_automata::Alphabet<Statement>,
}

impl<'a, A: TmAlgorithm> MostGeneralSource<'a, A> {
    /// Builds the source over (an extension of) the given interned
    /// alphabet — pass a clone of the specification's alphabet
    /// (`spec.alphabet().clone()`) so letter ids agree with the
    /// specification's.
    pub fn new(tm: &'a A, mut alphabet: tm_automata::Alphabet<Statement>) -> Self {
        for statement in tm_lang::Alphabet::new(tm.threads(), tm.vars()).statements() {
            alphabet.intern(&statement);
        }
        MostGeneralSource { tm, alphabet }
    }

    /// The extended alphabet the source emits letter ids over.
    pub fn alphabet(&self) -> &tm_automata::Alphabet<Statement> {
        &self.alphabet
    }
}

impl<A: TmAlgorithm> SuccessorSource for MostGeneralSource<'_, A> {
    type State = A::State;
    type Label = Statement;

    fn initial_states(&self, out: &mut Vec<A::State>) {
        out.push(self.tm.initial_state());
    }

    fn successors(&self, state: &A::State, out: &mut Vec<(LetterId, A::State)>) {
        for_each_step(self.tm, state, |t, c, step| {
            let letter = match step.action.statement(c, t) {
                None => EPSILON,
                Some(s) => self
                    .alphabet
                    .get(&s)
                    .expect("all instance statements are interned"),
            };
            out.push((letter, step.next));
        });
    }

    fn letter(&self, id: LetterId) -> Statement {
        *self.alphabet.letter(id)
    }
}

/// An edge of the run-level transition graph: one atomic TM step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RunLabel {
    /// The scheduled thread.
    pub thread: ThreadId,
    /// The command being executed.
    pub command: Command,
    /// The atomic action taken.
    pub action: Action,
}

impl RunLabel {
    /// `true` if this step aborts a transaction (response 0).
    pub fn is_abort(self) -> bool {
        self.action.is_abort()
    }

    /// `true` if this step completes a commit command (a commit
    /// statement).
    pub fn is_commit(self) -> bool {
        matches!(self.action, Action::Complete(_)) && self.command == Command::Commit
    }

    /// The word-level statement emitted by this step, if any.
    pub fn statement(self) -> Option<Statement> {
        self.action.statement(self.command, self.thread)
    }

    /// The liveness engine's classification of this step: the label
    /// masks of a built run graph and of one loaded from the store both
    /// come from here.
    pub fn class(self) -> tm_automata::LabelClass {
        tm_automata::LabelClass {
            thread: self.thread.index(),
            is_commit: self.is_commit(),
            is_abort: self.is_abort(),
            emits_statement: self.statement().is_some(),
        }
    }
}

impl std::fmt::Display for RunLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.action {
            Action::Abort => write!(f, "a{}", self.thread.number()),
            Action::Internal(d) | Action::Complete(d) => {
                write!(f, "{}{}", d, self.thread.number())
            }
        }
    }
}

/// The most general program of a TM algorithm at the **run level** as a
/// lazy [`tm_automata::RunGraphSource`]: every step of the word-level
/// system of [`most_general_nfa`], labelled with its [`RunLabel`], stepped
/// on demand by the compiled liveness engine
/// ([`tm_automata::CompiledRunGraph::build`]) so no labelled edge list is
/// materialized. Successors come in the order of the seed checker's
/// materialized run graph (a test oracle in `tm_bench::oracle`), which is
/// what makes the engine's state numbering — and hence its lassos —
/// identical to that checker's.
///
/// # Examples
///
/// ```
/// use tm_algorithms::{MostGeneralRunSource, SequentialTm};
/// use tm_automata::CompiledRunGraph;
///
/// let tm = SequentialTm::new(2, 1);
/// let (graph, states) = CompiledRunGraph::build(&MostGeneralRunSource::new(&tm), 1_000)
///     .expect("within the state bound");
/// assert_eq!(graph.num_states(), states.len());
/// assert!(graph.num_edges() > 0);
/// ```
pub struct MostGeneralRunSource<'a, A>(&'a A);

impl<'a, A: TmAlgorithm> MostGeneralRunSource<'a, A> {
    /// Wraps a TM algorithm (× contention manager) instance.
    pub fn new(tm: &'a A) -> Self {
        MostGeneralRunSource(tm)
    }
}

impl<A: TmAlgorithm> tm_automata::RunGraphSource for MostGeneralRunSource<'_, A> {
    type State = A::State;
    type Label = RunLabel;

    fn initial_state(&self) -> A::State {
        self.0.initial_state()
    }

    fn successors(&self, state: &A::State, out: &mut Vec<(RunLabel, A::State)>) {
        for_each_step(self.0, state, |thread, command, step| {
            let label = RunLabel {
                thread,
                command,
                action: step.action,
            };
            out.push((label, step.next));
        });
    }

    fn classify(&self, label: &RunLabel) -> tm_automata::LabelClass {
        label.class()
    }
}

/// Checks the formalism's pending rules (γ1–γ4) on explored states: every
/// step of an enabled command `c` of thread `t` leaves `c` pending exactly
/// when it answers `⊥`, and leaves every other thread's pending command
/// as it was — a structural sanity check of the TM's rules, used in tests.
pub fn check_pending_invariant<A: TmAlgorithm>(tm: &A, states: &[A::State]) -> bool {
    let mut steps = Vec::new();
    states.iter().all(|q| {
        tm.thread_ids().all(|t| {
            tm.enabled_commands(q, t).all(|c| {
                steps.clear();
                tm.steps_into(q, c, t, &mut steps);
                steps.iter().all(|step| {
                    tm.thread_ids().all(|u| {
                        let expected = match (u == t, step.action.is_internal()) {
                            (false, _) => q.pending(u),
                            (true, true) => Some(c),
                            (true, false) => None,
                        };
                        step.next.pending(u) == expected
                    })
                })
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialTm;
    use crate::two_phase::TwoPhaseTm;
    use tm_lang::Word;

    fn word(s: &str) -> Vec<Statement> {
        s.parse::<Word>().unwrap().statements().to_vec()
    }

    #[test]
    fn sequential_language_contains_table1_words() {
        let explored = most_general_nfa(&SequentialTm::new(2, 2), 100);
        assert!(explored.nfa.accepts(&word("(r,1)1 (w,2)1 c1 (w,1)2 c2")));
        assert!(explored.nfa.accepts(&word("(r,1)1 (w,2)1 a2 c1 (w,1)2 c2")));
        // Interleaving two open transactions is impossible:
        assert!(!explored.nfa.accepts(&word("(r,1)1 (w,1)2")));
    }

    #[test]
    fn two_phase_language_contains_table1_words() {
        let explored = most_general_nfa(&TwoPhaseTm::new(2, 2), 10_000);
        assert!(explored.nfa.accepts(&word("(r,1)1 (w,2)1 c1")));
        assert!(explored.nfa.accepts(&word("a2 (r,1)1 (w,2)1 c1")));
        // A read of a write-locked variable cannot succeed:
        assert!(!explored.nfa.accepts(&word("(w,1)1 (r,1)2")));
        // ... but both threads can read-share:
        assert!(explored.nfa.accepts(&word("(r,1)1 (r,1)2 c1 c2")));
    }

    #[test]
    fn run_graph_and_nfa_have_same_state_count() {
        let tm = TwoPhaseTm::new(2, 2);
        let explored = most_general_nfa(&tm, 10_000);
        let (graph, states) =
            tm_automata::CompiledRunGraph::build(&MostGeneralRunSource::new(&tm), 10_000).unwrap();
        assert_eq!(explored.states, states);
        assert!(graph.num_edges() >= explored.nfa.num_transitions());
    }

    #[test]
    fn pending_invariant_holds_for_all_tms() {
        let tm = TwoPhaseTm::new(2, 2);
        let explored = most_general_nfa(&tm, 10_000);
        assert!(check_pending_invariant(&tm, &explored.states));
    }

    #[test]
    fn run_label_display() {
        use crate::algorithm::ExtCommand;
        use tm_lang::VarId;
        let label = RunLabel {
            thread: ThreadId::new(0),
            command: Command::Read(VarId::new(0)),
            action: Action::Internal(ExtCommand::RLock(VarId::new(0))),
        };
        assert_eq!(label.to_string(), "(rl,1)1");
        assert!(!label.is_commit());
    }
}
