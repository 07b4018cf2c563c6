//! The two-phase locking TM (paper §3.3.2, Algorithm 2): shared locks for
//! reads, exclusive locks for writes, all locks released at commit (or
//! abort). A thread whose lock request is blocked aborts — the formalism
//! has no waiting.

use std::fmt;
use std::hash::{Hash, Hasher};

use tm_lang::{Command, ThreadId, VarSet};

use crate::algorithm::{other_threads, ExtCommand, Step, TmAlgorithm, TmState, MAX_THREADS};
use crate::pack;

/// State of the 2PL TM: per-thread shared-lock sets `rs`, exclusive-lock
/// sets `ws`, plus the pending function.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoPhaseState {
    rs: [VarSet; MAX_THREADS],
    ws: [VarSet; MAX_THREADS],
    pending: [Option<Command>; MAX_THREADS],
}

impl TwoPhaseState {
    /// The shared-lock (read) set of thread `t`.
    pub fn read_locks(&self, t: ThreadId) -> VarSet {
        self.rs[t.index()]
    }

    /// The exclusive-lock (write) set of thread `t`.
    pub fn write_locks(&self, t: ThreadId) -> VarSet {
        self.ws[t.index()]
    }

    /// The state packed losslessly into three words (see `pack`).
    pub(crate) fn packed(&self) -> [u64; 3] {
        [
            pack::sets(&self.rs),
            pack::sets(&self.ws),
            pack::pending(&self.pending),
        ]
    }
}

impl Hash for TwoPhaseState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        pack::write_words(&self.packed(), state);
    }
}

impl fmt::Debug for TwoPhaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨rs: {:?}, ws: {:?}, γ: {:?}⟩",
            &self.rs, &self.ws, &self.pending
        )
    }
}

impl TmState for TwoPhaseState {
    fn pending(&self, t: ThreadId) -> Option<Command> {
        self.pending[t.index()]
    }

    fn set_pending(&mut self, t: ThreadId, c: Option<Command>) {
        self.pending[t.index()] = c;
    }
}

/// The two-phase locking TM algorithm `A_2PL`.
///
/// # Examples
///
/// ```
/// use tm_algorithms::{TmAlgorithm, TwoPhaseTm};
/// use tm_lang::{Command, ThreadId, VarId};
///
/// let tm = TwoPhaseTm::new(2, 2);
/// let v = VarId::new(0);
/// // Thread 1 write-locks v ...
/// let q = tm.initial_state();
/// let q = tm.steps(&q, Command::Write(v), ThreadId::new(0))[0].next;
/// let q = tm.steps(&q, Command::Write(v), ThreadId::new(0))[0].next;
/// // ... so thread 2's read of v can only abort.
/// let steps = tm.steps(&q, Command::Read(v), ThreadId::new(1));
/// assert!(steps.iter().all(|s| s.action.is_abort()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TwoPhaseTm {
    threads: usize,
    vars: usize,
}

impl TwoPhaseTm {
    /// Creates the 2PL TM for `threads` threads and `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or `vars` is 0.
    pub fn new(threads: usize, vars: usize) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!(vars >= 1);
        TwoPhaseTm { threads, vars }
    }
}

impl TmAlgorithm for TwoPhaseTm {
    type State = TwoPhaseState;

    fn name(&self) -> String {
        "2PL".to_owned()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn vars(&self) -> usize {
        self.vars
    }

    fn initial_state(&self) -> TwoPhaseState {
        TwoPhaseState::default()
    }

    fn is_conflict(&self, _q: &TwoPhaseState, _c: Command, _t: ThreadId) -> bool {
        false
    }

    fn proper_steps(
        &self,
        q: &TwoPhaseState,
        c: Command,
        t: ThreadId,
        out: &mut Vec<Step<TwoPhaseState>>,
    ) {
        let ti = t.index();
        let step = match c {
            Command::Read(v) => {
                if q.ws[ti].contains(v) || q.rs[ti].contains(v) {
                    // Lock already held: the read completes.
                    Step::complete(c, *q)
                } else if other_threads(self.threads, t).any(|u| q.ws[u.index()].contains(v)) {
                    // Some other thread holds the exclusive lock.
                    return;
                } else {
                    // Acquire the shared lock.
                    let mut next = *q;
                    next.rs[ti].insert(v);
                    Step::internal(ExtCommand::RLock(v), next)
                }
            }
            Command::Write(v) => {
                if q.ws[ti].contains(v) {
                    Step::complete(c, *q)
                } else if other_threads(self.threads, t)
                    .any(|u| q.ws[u.index()].contains(v) || q.rs[u.index()].contains(v))
                {
                    // Some other thread holds a lock on v.
                    return;
                } else {
                    // Acquire the exclusive lock.
                    let mut next = *q;
                    next.ws[ti].insert(v);
                    Step::internal(ExtCommand::WLock(v), next)
                }
            }
            Command::Commit => {
                let mut next = *q;
                next.rs[ti].clear();
                next.ws[ti].clear();
                Step::complete(c, next)
            }
        };
        out.push(step);
    }

    fn abort_state(&self, q: &TwoPhaseState, t: ThreadId) -> TwoPhaseState {
        let mut next = *q;
        next.rs[t.index()].clear();
        next.ws[t.index()].clear();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Action;
    use tm_lang::VarId;

    fn read(v: usize) -> Command {
        Command::Read(VarId::new(v))
    }
    fn write(v: usize) -> Command {
        Command::Write(VarId::new(v))
    }

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn packed_fields_do_not_overlap_at_the_largest_instance() {
        use crate::pack::tests::{all_pending, assert_fields_disjoint, BOUNDARY_VARS};
        for vars in BOUNDARY_VARS {
            let base = TwoPhaseState::default();
            let mut variants = Vec::new();
            let mut add = |field: String, q: TwoPhaseState| variants.push((field, q.packed()));
            for ti in 0..MAX_THREADS {
                for v in (0..vars).map(VarId::new) {
                    let mut q = base;
                    q.rs[ti].insert(v);
                    add(format!("rs[{ti}]"), q);
                    let mut q = base;
                    q.ws[ti].insert(v);
                    add(format!("ws[{ti}]"), q);
                }
                for c in all_pending(vars).skip(1) {
                    let mut q = base;
                    q.pending[ti] = c;
                    add(format!("pending[{ti}]"), q);
                }
            }
            assert_fields_disjoint(base.packed(), &variants);
        }
    }

    #[test]
    fn read_takes_two_steps_then_completes() {
        let tm = TwoPhaseTm::new(2, 2);
        let q0 = tm.initial_state();
        let s1 = tm.steps(&q0, read(0), t(0));
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].action, Action::Internal(ExtCommand::RLock(VarId::new(0))));
        let q1 = s1[0].next;
        assert_eq!(q1.pending(t(0)), Some(read(0)));
        let s2 = tm.steps(&q1, read(0), t(0));
        assert_eq!(s2[0].action, Action::Complete(ExtCommand::Base(read(0))));
        assert_eq!(s2[0].next.pending(t(0)), None);
    }

    #[test]
    fn shared_locks_are_compatible() {
        let tm = TwoPhaseTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, read(0), t(0))[0].next;
        let steps = tm.steps(&q, read(0), t(1));
        assert!(!steps[0].action.is_abort());
    }

    #[test]
    fn write_lock_blocks_readers_and_writers() {
        let tm = TwoPhaseTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, write(0), t(0))[0].next; // wlock
        for c in [read(0), write(0)] {
            let steps = tm.steps(&q, c, t(1));
            assert_eq!(steps.len(), 1, "{c:?}");
            assert!(steps[0].action.is_abort(), "{c:?}");
        }
    }

    #[test]
    fn reader_blocks_writer_but_not_other_readers() {
        let tm = TwoPhaseTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, read(0), t(0))[0].next; // rlock by t1
        let w = tm.steps(&q, write(0), t(1));
        assert!(w[0].action.is_abort());
    }

    #[test]
    fn lock_upgrade_by_owner_is_allowed() {
        let tm = TwoPhaseTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, read(0), t(0))[0].next; // rlock
        q = tm.steps(&q, read(0), t(0))[0].next; // read completes
        let steps = tm.steps(&q, write(0), t(0)); // upgrade: own rlock only
        assert_eq!(
            steps[0].action,
            Action::Internal(ExtCommand::WLock(VarId::new(0)))
        );
    }

    #[test]
    fn commit_releases_all_locks() {
        let tm = TwoPhaseTm::new(2, 2);
        let mut q = tm.initial_state();
        q = tm.steps(&q, write(0), t(0))[0].next;
        q = tm.steps(&q, write(0), t(0))[0].next;
        q = tm.steps(&q, Command::Commit, t(0))[0].next;
        assert_eq!(q, tm.initial_state());
    }

    #[test]
    fn abort_releases_locks_of_aborting_thread_only() {
        let tm = TwoPhaseTm::new(2, 2);
        let mut q = tm.initial_state();
        q = tm.steps(&q, write(0), t(0))[0].next;
        q = tm.steps(&q, write(1), t(1))[0].next;
        let aborted = tm.abort_state(&q, t(0));
        assert!(aborted.write_locks(t(0)).is_empty());
        assert!(!aborted.write_locks(t(1)).is_empty());
    }

}
