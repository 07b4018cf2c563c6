//! The TM-algorithm formalism of §3: `A = ⟨Q, q_init, D, φ, γ, δ⟩`.
//!
//! A TM algorithm reacts to program *commands* (read/write/commit) by
//! executing *extended commands* in atomic steps, each answered with a
//! response: `⊥` (more steps needed — the command stays *pending*), `0`
//! (the transaction is aborted), or `1` (the command completed).
//!
//! The paper's well-formedness rules are enforced structurally:
//!
//! * the pending function `γ` is part of every state ([`TmState`]) and is
//!   maintained by the framework (provided method
//!   [`TmAlgorithm::steps_into`]), so rules γ1–γ4 hold by construction;
//! * abort transitions exist exactly when a command is *abort-enabled*
//!   (no proper transition) or the *conflict function* `φ` is true — also
//!   enforced by [`TmAlgorithm::steps_into`];
//! * implementations only supply the proper (non-abort) transitions via
//!   [`TmAlgorithm::proper_steps`] and the per-thread reset state via
//!   [`TmAlgorithm::abort_state`].
//!
//! Stepping is the model checker's innermost loop, so the transition
//! methods *append* into a caller-owned buffer instead of returning a
//! fresh `Vec`: an explorer reuses one buffer for a whole state expansion,
//! and stepping a plain TM allocates nothing once the buffer has grown.
//! A TM × contention-manager product collects the base TM's steps in a
//! second buffer that it owns and reuses (see
//! [`crate::WithContentionManager`]).

use std::fmt;
use std::hash::Hash;

use tm_lang::{Command, Statement, StatementKind, ThreadId, VarId};

/// Maximum number of threads supported by the fixed-size state encodings.
///
/// The reduction theorems (§4, §6) make two threads sufficient for
/// verification; four leaves room for the scaling experiments.
pub const MAX_THREADS: usize = 4;

/// An extended command (`d ∈ D`): a base command or one of the TM-specific
/// atomic operations used while executing a command.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExtCommand {
    /// The base command itself completing.
    Base(Command),
    /// 2PL: acquire a shared (read) lock.
    RLock(VarId),
    /// 2PL: acquire an exclusive (write) lock.
    WLock(VarId),
    /// DSTM: acquire ownership of a variable, aborting the previous owner.
    Own(VarId),
    /// DSTM / TL2: validate the read set (atomic version).
    Validate,
    /// TL2: lock a write-set variable at commit time.
    Lock(VarId),
    /// Modified TL2: the version-check half of validation.
    RValidate,
    /// Modified TL2: the lock-check half of validation.
    ChkLock,
}

impl fmt::Display for ExtCommand {
    /// Paper Table 1 notation: `rl`, `wl`, `o`, `v`, `l`, `rv`, `k`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtCommand::Base(Command::Read(v)) => write!(f, "(r,{})", v.number()),
            ExtCommand::Base(Command::Write(v)) => write!(f, "(w,{})", v.number()),
            ExtCommand::Base(Command::Commit) => write!(f, "c"),
            ExtCommand::RLock(v) => write!(f, "(rl,{})", v.number()),
            ExtCommand::WLock(v) => write!(f, "(wl,{})", v.number()),
            ExtCommand::Own(v) => write!(f, "(o,{})", v.number()),
            ExtCommand::Validate => write!(f, "v"),
            ExtCommand::Lock(v) => write!(f, "(l,{})", v.number()),
            ExtCommand::RValidate => write!(f, "rv"),
            ExtCommand::ChkLock => write!(f, "k"),
        }
    }
}

/// One atomic step of a TM algorithm: the extended action taken and the
/// response given to the program.
///
/// The paper's response set is `{⊥, 0, 1}`; the pairing rules (`d = abort
/// ⟺ r = 0`) make the following three-way enum exhaustive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// Extended command executed, response `⊥`: the command stays pending.
    Internal(ExtCommand),
    /// Extended command executed, response `1`: the command completed.
    Complete(ExtCommand),
    /// Response `0`: the transaction of the issuing thread aborts.
    Abort,
}

impl Action {
    /// The extended statement `(d, t)`-component of this action, with
    /// `None` standing for `abort`.
    pub fn ext_command(&self) -> Option<ExtCommand> {
        match self {
            Action::Internal(d) | Action::Complete(d) => Some(*d),
            Action::Abort => None,
        }
    }

    /// `true` if this step answers `⊥`.
    pub fn is_internal(&self) -> bool {
        matches!(self, Action::Internal(_))
    }

    /// `true` if this step aborts the transaction.
    pub fn is_abort(&self) -> bool {
        matches!(self, Action::Abort)
    }

    /// The word-level statement emitted by this step for command `c` of
    /// thread `t`: completions emit `(c, t)`, aborts emit `(abort, t)`,
    /// internal steps emit nothing.
    pub fn statement(&self, c: Command, t: ThreadId) -> Option<Statement> {
        match self {
            Action::Internal(_) => None,
            Action::Complete(_) => Some(Statement::new(StatementKind::from(c), t)),
            Action::Abort => Some(Statement::new(StatementKind::Abort, t)),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Internal(d) => write!(f, "{d}/⊥"),
            Action::Complete(d) => write!(f, "{d}/1"),
            Action::Abort => write!(f, "a/0"),
        }
    }
}

/// A transition offered by a TM algorithm: the action plus the successor
/// state (pending bookkeeping is filled in by [`TmAlgorithm::steps`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Step<S> {
    /// The action taken.
    pub action: Action,
    /// The successor state.
    pub next: S,
}

impl<S> Step<S> {
    /// An internal (`⊥`) step.
    pub fn internal(d: ExtCommand, next: S) -> Self {
        Step {
            action: Action::Internal(d),
            next,
        }
    }

    /// A completing (`1`) step for base command `c`.
    pub fn complete(c: Command, next: S) -> Self {
        Step {
            action: Action::Complete(ExtCommand::Base(c)),
            next,
        }
    }

    /// A completing (`1`) step with an explicit extended command.
    pub fn complete_ext(d: ExtCommand, next: S) -> Self {
        Step {
            action: Action::Complete(d),
            next,
        }
    }
}

/// State of a TM algorithm; carries the pending function `γ` so that the
/// formalism's requirement "γ is a function of the state" holds
/// trivially.
pub trait TmState: Clone + Eq + Hash + fmt::Debug {
    /// `γ(q, t)`: the command thread `t` is in the middle of executing.
    fn pending(&self, t: ThreadId) -> Option<Command>;

    /// Overwrites `γ(q, t)` — used by the framework only.
    fn set_pending(&mut self, t: ThreadId, c: Option<Command>);
}

/// A TM algorithm in the paper's formalism. Implementations provide the
/// proper transitions, the conflict function, and the per-thread reset;
/// the provided methods derive the full transition relation (abort rules,
/// pending bookkeeping) and the enabled-command relation.
///
/// # The appending contract
///
/// [`TmAlgorithm::proper_steps`] and [`TmAlgorithm::steps_into`] append
/// their transitions to a caller-owned `out` buffer, in a fixed order,
/// and must leave the entries already in `out` untouched. They are called
/// once per (state, thread, enabled command) of every explored state, so
/// implementations should not allocate: build successors on the stack
/// (states are small `Copy` structs) and `push` them. A composite TM
/// whose base has another state type cannot hand `out` to the base, so
/// [`crate::WithContentionManager`] collects the base TM's steps in a
/// buffer of its own that every call reuses. [`TmAlgorithm::steps`] is
/// the allocating
/// convenience wrapper for tests and one-off replays.
pub trait TmAlgorithm {
    /// The state type `Q`.
    type State: TmState;

    /// Human-readable name (e.g. `"dstm+aggressive"`), used in reports.
    fn name(&self) -> String;

    /// Number of threads `n` of the (most general) program instance.
    fn threads(&self) -> usize;

    /// Number of shared variables `k`.
    fn vars(&self) -> usize;

    /// The initial state `q_init` (no pending commands, empty sets).
    fn initial_state(&self) -> Self::State;

    /// The conflict function `φ(q, (c, t))`: `true` when executing `c`
    /// would require resolving a conflict, i.e. when a contention manager
    /// is consulted and self-abort becomes an alternative.
    fn is_conflict(&self, q: &Self::State, c: Command, t: ThreadId) -> bool;

    /// Appends to `out` all non-abort transitions for the **enabled**
    /// command `c` of thread `t` in state `q`, leaving earlier entries of
    /// `out` untouched. Appending nothing means `c` is abort-enabled.
    /// Implementations need not touch the pending field of the successor;
    /// [`TmAlgorithm::steps_into`] maintains it.
    fn proper_steps(
        &self,
        q: &Self::State,
        c: Command,
        t: ThreadId,
        out: &mut Vec<Step<Self::State>>,
    );

    /// The state reached when thread `t` aborts in `q` (its per-thread
    /// bookkeeping reset; other threads untouched).
    fn abort_state(&self, q: &Self::State, t: ThreadId) -> Self::State;

    /// Appends to `out` the full transition relation for enabled command
    /// `c` of thread `t`: the proper steps plus the abort transition when
    /// `c` is abort-enabled (no proper step) or in conflict (`φ` true),
    /// with the pending function updated per the formalism's rules.
    /// Entries already in `out` are left untouched.
    fn steps_into(
        &self,
        q: &Self::State,
        c: Command,
        t: ThreadId,
        out: &mut Vec<Step<Self::State>>,
    ) {
        let start = out.len();
        self.proper_steps(q, c, t, out);
        if out.len() == start || self.is_conflict(q, c, t) {
            out.push(Step {
                action: Action::Abort,
                next: self.abort_state(q, t),
            });
        }
        set_pending(&mut out[start..], c, t);
    }

    /// [`TmAlgorithm::steps_into`] collected into a fresh `Vec`.
    fn steps(&self, q: &Self::State, c: Command, t: ThreadId) -> Vec<Step<Self::State>> {
        let mut steps = Vec::new();
        self.steps_into(q, c, t, &mut steps);
        steps
    }

    /// The commands enabled for thread `t` in `q`: the pending command if
    /// any, otherwise every command, in [`Command::all`] order. The
    /// explorers step `thread_ids() × enabled_commands()` of every state,
    /// so this iterates without allocating.
    fn enabled_commands(&self, q: &Self::State, t: ThreadId) -> impl Iterator<Item = Command> {
        let pending = q.pending(t);
        Command::all(self.vars()).filter(move |&c| pending.is_none_or(|p| p == c))
    }

    /// This instance's thread ids, in index order.
    fn thread_ids(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.threads()).map(ThreadId::new)
    }
}

/// Pending bookkeeping of the formalism (rules γ1–γ4) for the steps of
/// command `c` of thread `t`: an internal (`⊥`) step leaves `c` pending,
/// a completion or an abort clears it.
pub(crate) fn set_pending<S: TmState>(steps: &mut [Step<S>], c: Command, t: ThreadId) {
    for step in steps {
        let pending = match step.action {
            Action::Internal(_) => Some(c),
            Action::Complete(_) | Action::Abort => None,
        };
        step.next.set_pending(t, pending);
    }
}

/// Helper: the thread ids `u ≠ t` of an `n`-thread instance.
pub(crate) fn other_threads(n: usize, t: ThreadId) -> impl Iterator<Item = ThreadId> {
    (0..n).map(ThreadId::new).filter(move |&u| u != t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_command_display_matches_table1_notation() {
        assert_eq!(ExtCommand::RLock(VarId::new(0)).to_string(), "(rl,1)");
        assert_eq!(ExtCommand::Own(VarId::new(1)).to_string(), "(o,2)");
        assert_eq!(ExtCommand::Validate.to_string(), "v");
        assert_eq!(ExtCommand::Lock(VarId::new(1)).to_string(), "(l,2)");
        assert_eq!(ExtCommand::ChkLock.to_string(), "k");
        assert_eq!(ExtCommand::Base(Command::Commit).to_string(), "c");
    }

    #[test]
    fn action_statement_projection() {
        let t = ThreadId::new(0);
        let c = Command::Read(VarId::new(0));
        assert_eq!(
            Action::Internal(ExtCommand::RLock(VarId::new(0))).statement(c, t),
            None
        );
        assert_eq!(
            Action::Complete(ExtCommand::Base(c)).statement(c, t),
            Some(Statement::read(0, 0))
        );
        assert_eq!(Action::Abort.statement(c, t), Some(Statement::abort(0)));
    }

    #[test]
    fn other_threads_skips_self() {
        let us: Vec<ThreadId> = other_threads(3, ThreadId::new(1)).collect();
        assert_eq!(us, vec![ThreadId::new(0), ThreadId::new(2)]);
    }
}
