//! The sequential TM (paper §3.3.1, Algorithm 1): transactions execute
//! one at a time; any step by a thread while another thread's transaction
//! is open is refused (and therefore aborts).

use std::fmt;
use std::hash::{Hash, Hasher};

use tm_lang::{Command, ThreadId};

use crate::algorithm::{other_threads, Step, TmAlgorithm, TmState, MAX_THREADS};
use crate::pack;

/// Per-thread status of the sequential TM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SeqStatus {
    /// No open transaction.
    #[default]
    Finished,
    /// Transaction in progress.
    Started,
}

/// State of the sequential TM: `Status : T → {finished, started}`.
///
/// The sequential TM answers every command in a single step, so no command
/// is ever pending.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SeqState {
    status: [SeqStatus; MAX_THREADS],
}

impl SeqState {
    /// The status of thread `t`.
    pub fn status(&self, t: ThreadId) -> SeqStatus {
        self.status[t.index()]
    }

    /// The state packed losslessly into one word (see `pack`).
    pub(crate) fn packed(&self) -> [u64; 1] {
        [pack::lanes(1, self.status.iter().map(|&s| s as u64))]
    }
}

impl Hash for SeqState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        pack::write_words(&self.packed(), state);
    }
}

impl fmt::Debug for SeqState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨Status: {:?}⟩", &self.status)
    }
}

impl TmState for SeqState {
    fn pending(&self, _t: ThreadId) -> Option<Command> {
        None
    }

    fn set_pending(&mut self, _t: ThreadId, c: Option<Command>) {
        debug_assert!(c.is_none(), "sequential TM never leaves a command pending");
    }
}

/// The sequential TM algorithm `A_seq` for `n` threads and `k` variables.
///
/// # Examples
///
/// ```
/// use tm_algorithms::{SequentialTm, TmAlgorithm};
/// use tm_lang::{Command, ThreadId, VarId};
///
/// let tm = SequentialTm::new(2, 2);
/// let q0 = tm.initial_state();
/// // Thread 1 starts a transaction...
/// let q1 = tm.steps(&q0, Command::Read(VarId::new(0)), ThreadId::new(0))
///     .into_iter().next().unwrap().next;
/// // ... now thread 2 can only abort.
/// let steps = tm.steps(&q1, Command::Write(VarId::new(1)), ThreadId::new(1));
/// assert!(steps.iter().all(|s| s.action.is_abort()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SequentialTm {
    threads: usize,
    vars: usize,
}

impl SequentialTm {
    /// Creates the sequential TM for `threads` threads and `vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or `vars` is 0.
    pub fn new(threads: usize, vars: usize) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!(vars >= 1);
        SequentialTm { threads, vars }
    }

    fn others_finished(&self, q: &SeqState, t: ThreadId) -> bool {
        other_threads(self.threads, t).all(|u| q.status[u.index()] == SeqStatus::Finished)
    }
}

impl TmAlgorithm for SequentialTm {
    type State = SeqState;

    fn name(&self) -> String {
        "sequential".to_owned()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn vars(&self) -> usize {
        self.vars
    }

    fn initial_state(&self) -> SeqState {
        SeqState::default()
    }

    fn is_conflict(&self, _q: &SeqState, _c: Command, _t: ThreadId) -> bool {
        false
    }

    fn proper_steps(&self, q: &SeqState, c: Command, t: ThreadId, out: &mut Vec<Step<SeqState>>) {
        if !self.others_finished(q, t) {
            return;
        }
        let mut next = *q;
        next.status[t.index()] = match c {
            Command::Read(_) | Command::Write(_) => SeqStatus::Started,
            Command::Commit => SeqStatus::Finished,
        };
        out.push(Step::complete(c, next));
    }

    fn abort_state(&self, q: &SeqState, t: ThreadId) -> SeqState {
        let mut next = *q;
        next.status[t.index()] = SeqStatus::Finished;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_lang::VarId;

    fn read(v: usize) -> Command {
        Command::Read(VarId::new(v))
    }

    #[test]
    fn packed_fields_do_not_overlap_at_the_largest_instance() {
        let base = SeqState::default();
        let variants: Vec<(String, [u64; 1])> = (0..MAX_THREADS)
            .map(|ti| {
                let mut q = base;
                q.status[ti] = SeqStatus::Started;
                (format!("status[{ti}]"), q.packed())
            })
            .collect();
        crate::pack::tests::assert_fields_disjoint(base.packed(), &variants);
    }

    #[test]
    fn solo_thread_runs_freely() {
        let tm = SequentialTm::new(2, 2);
        let t = ThreadId::new(0);
        let mut q = tm.initial_state();
        for c in [read(0), Command::Write(VarId::new(1)), Command::Commit] {
            let steps = tm.steps(&q, c, t);
            assert_eq!(steps.len(), 1);
            assert!(!steps[0].action.is_abort());
            q = steps[0].next;
        }
        assert_eq!(q, tm.initial_state());
    }

    #[test]
    fn second_thread_must_abort_while_first_is_open() {
        let tm = SequentialTm::new(2, 1);
        let q = tm.initial_state();
        let q = tm.steps(&q, read(0), ThreadId::new(0))[0].next;
        let steps = tm.steps(&q, read(0), ThreadId::new(1));
        assert_eq!(steps.len(), 1);
        assert!(steps[0].action.is_abort());
        // The abort does not disturb thread 1's open transaction.
        assert_eq!(steps[0].next.status(ThreadId::new(0)), SeqStatus::Started);
    }

    #[test]
    fn empty_commit_allowed_anytime_for_idle_thread() {
        let tm = SequentialTm::new(2, 1);
        let q = tm.initial_state();
        let steps = tm.steps(&q, Command::Commit, ThreadId::new(1));
        assert!(!steps[0].action.is_abort());
        assert_eq!(steps[0].next, q);
    }

    #[test]
    fn reachable_state_count_is_three_for_two_threads() {
        // Paper Table 2: "seq: 3".
        use crate::explore::most_general_nfa;
        let tm = SequentialTm::new(2, 2);
        let explored = most_general_nfa(&tm, 100);
        assert_eq!(explored.num_states(), 3);
    }
}
