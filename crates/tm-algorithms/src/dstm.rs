//! The dynamic software transactional memory, DSTM (paper §3.3.3,
//! Algorithm 3): writers *own* variables, acquiring ownership aborts the
//! previous owner, and commit validates the read set — conflicts at
//! ownership acquisition and at commit-time validation are referred to the
//! contention manager.

use std::fmt;
use std::hash::{Hash, Hasher};

use tm_lang::{Command, ThreadId, VarSet};

use crate::algorithm::{other_threads, ExtCommand, Step, TmAlgorithm, TmState, MAX_THREADS};
use crate::pack;

/// Per-thread status of DSTM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DstmStatus {
    /// Default: either idle or executing normally.
    #[default]
    Finished,
    /// Killed by another thread (ownership stolen / invalidated at their
    /// validate); the next step of this thread must abort.
    Aborted,
    /// Read set validated; the commit may complete.
    Validated,
    /// A committing writer invalidated this thread's reads; it can still
    /// read owned variables but can never commit.
    Invalid,
}

/// State of DSTM: `⟨Status, rs, os⟩` per thread, plus the pending
/// function.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct DstmState {
    status: [DstmStatus; MAX_THREADS],
    rs: [VarSet; MAX_THREADS],
    os: [VarSet; MAX_THREADS],
    pending: [Option<Command>; MAX_THREADS],
}

impl DstmState {
    /// The status of thread `t`.
    pub fn status(&self, t: ThreadId) -> DstmStatus {
        self.status[t.index()]
    }

    /// The read set of thread `t`.
    pub fn read_set(&self, t: ThreadId) -> VarSet {
        self.rs[t.index()]
    }

    /// The ownership set of thread `t`.
    pub fn ownership_set(&self, t: ThreadId) -> VarSet {
        self.os[t.index()]
    }

    /// Kills thread `u`: status ← aborted, sets cleared (the treatment a
    /// victim receives from an owner steal or a validating committer).
    fn kill(&mut self, u: ThreadId) {
        self.status[u.index()] = DstmStatus::Aborted;
        self.rs[u.index()].clear();
        self.os[u.index()].clear();
    }

    /// The state packed losslessly into three words (see `pack`).
    pub(crate) fn packed(&self) -> [u64; 3] {
        let status = pack::lanes(2, self.status.iter().map(|&s| s as u64));
        [
            pack::sets(&self.rs),
            pack::sets(&self.os),
            pack::pending(&self.pending) | status << 32,
        ]
    }
}

impl Hash for DstmState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        pack::write_words(&self.packed(), state);
    }
}

impl fmt::Debug for DstmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨Status: {:?}, rs: {:?}, os: {:?}, γ: {:?}⟩",
            &self.status, &self.rs, &self.os, &self.pending
        )
    }
}

impl TmState for DstmState {
    fn pending(&self, t: ThreadId) -> Option<Command> {
        self.pending[t.index()]
    }

    fn set_pending(&mut self, t: ThreadId, c: Option<Command>) {
        self.pending[t.index()] = c;
    }
}

/// The DSTM algorithm `A_dstm`.
///
/// Used bare, the algorithm resolves conflicts nondeterministically
/// (attacker steals **or** self-aborts); composed with a contention
/// manager (see [`WithContentionManager`](crate::WithContentionManager))
/// the manager picks.
///
/// # Examples
///
/// ```
/// use tm_algorithms::{DstmTm, TmAlgorithm};
/// use tm_lang::{Command, ThreadId, VarId};
///
/// let tm = DstmTm::new(2, 2);
/// let v = VarId::new(0);
/// let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
/// // t1 owns v (write = own + complete):
/// let q = tm.initial_state();
/// let q = tm.steps(&q, Command::Write(v), t1)[0].next;
/// // t2 writing v is now a conflict: steal or self-abort.
/// assert!(tm.is_conflict(&q, Command::Write(v), t2));
/// assert_eq!(tm.steps(&q, Command::Write(v), t2).len(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DstmTm {
    threads: usize,
    vars: usize,
}

impl DstmTm {
    /// Creates the DSTM algorithm for `threads` threads and `vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or `vars` is 0.
    pub fn new(threads: usize, vars: usize) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!(vars >= 1);
        DstmTm { threads, vars }
    }
}

impl TmAlgorithm for DstmTm {
    type State = DstmState;

    fn name(&self) -> String {
        "dstm".to_owned()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn vars(&self) -> usize {
        self.vars
    }

    fn initial_state(&self) -> DstmState {
        DstmState::default()
    }

    fn is_conflict(&self, q: &DstmState, c: Command, t: ThreadId) -> bool {
        match c {
            // (i) writing a variable owned by another thread;
            Command::Write(v) => {
                other_threads(self.threads, t).any(|u| q.os[u.index()].contains(v))
            }
            // (ii) committing while some owner holds a variable we read.
            Command::Commit => {
                q.status[t.index()] == DstmStatus::Finished
                    && other_threads(self.threads, t)
                        .any(|u| !q.rs[t.index()].is_disjoint(q.os[u.index()]))
            }
            Command::Read(_) => false,
        }
    }

    fn proper_steps(&self, q: &DstmState, c: Command, t: ThreadId, out: &mut Vec<Step<DstmState>>) {
        let ti = t.index();
        // A thread killed by someone else can only abort.
        if q.status[ti] == DstmStatus::Aborted {
            return;
        }
        let step = match c {
            Command::Read(v) => {
                if q.os[ti].contains(v) {
                    // Reading an owned variable is always consistent.
                    Step::complete(c, *q)
                } else if q.status[ti] == DstmStatus::Finished {
                    let mut next = *q;
                    next.rs[ti].insert(v);
                    Step::complete(c, next)
                } else {
                    return; // invalid/validated threads cannot take new reads
                }
            }
            Command::Write(v) => {
                if q.os[ti].contains(v) {
                    Step::complete(c, *q)
                } else {
                    // Acquire ownership, aborting any current owner.
                    let mut next = *q;
                    next.os[ti].insert(v);
                    for u in other_threads(self.threads, t) {
                        if q.os[u.index()].contains(v) {
                            next.kill(u);
                        }
                    }
                    Step::internal(ExtCommand::Own(v), next)
                }
            }
            Command::Commit => match q.status[ti] {
                DstmStatus::Finished => {
                    // Validate: abort every thread owning a variable we
                    // read (at a conflict this is the "attack" option).
                    let mut next = *q;
                    next.status[ti] = DstmStatus::Validated;
                    for u in other_threads(self.threads, t) {
                        if !q.rs[ti].is_disjoint(q.os[u.index()]) {
                            next.kill(u);
                        }
                    }
                    Step::internal(ExtCommand::Validate, next)
                }
                DstmStatus::Validated => {
                    // Complete the commit: our writes become global;
                    // readers of our owned variables are invalidated.
                    let mut next = *q;
                    next.status[ti] = DstmStatus::Finished;
                    next.rs[ti].clear();
                    next.os[ti].clear();
                    for u in other_threads(self.threads, t) {
                        if !q.rs[u.index()].is_disjoint(q.os[ti]) {
                            next.status[u.index()] = DstmStatus::Invalid;
                        }
                    }
                    Step::complete(c, next)
                }
                DstmStatus::Invalid | DstmStatus::Aborted => return,
            },
        };
        out.push(step);
    }

    fn abort_state(&self, q: &DstmState, t: ThreadId) -> DstmState {
        let mut next = *q;
        next.status[t.index()] = DstmStatus::Finished;
        next.rs[t.index()].clear();
        next.os[t.index()].clear();
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

    /// Drives thread `i` through the full write of `v` (own + complete).
    fn do_write(tm: &DstmTm, q: DstmState, v: usize, i: usize) -> DstmState {
        let q = tm.steps(&q, write(v), t(i))[0].next;
        tm.steps(&q, write(v), t(i))[0].next
    }

    #[test]
    fn packed_fields_do_not_overlap_at_the_largest_instance() {
        use crate::pack::tests::{all_pending, assert_fields_disjoint, BOUNDARY_VARS};
        for vars in BOUNDARY_VARS {
            let base = DstmState::default();
            let mut variants = Vec::new();
            let mut add = |field: String, q: DstmState| variants.push((field, q.packed()));
            for ti in 0..MAX_THREADS {
                for v in (0..vars).map(VarId::new) {
                    let mut q = base;
                    q.rs[ti].insert(v);
                    add(format!("rs[{ti}]"), q);
                    let mut q = base;
                    q.os[ti].insert(v);
                    add(format!("os[{ti}]"), q);
                }
                for status in [
                    DstmStatus::Aborted,
                    DstmStatus::Validated,
                    DstmStatus::Invalid,
                ] {
                    let mut q = base;
                    q.status[ti] = status;
                    add(format!("status[{ti}]"), q);
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
    fn write_is_own_then_complete() {
        let tm = DstmTm::new(2, 2);
        let q0 = tm.initial_state();
        let s1 = tm.steps(&q0, write(0), t(0));
        assert_eq!(s1[0].action, Action::Internal(ExtCommand::Own(VarId::new(0))));
        let q1 = s1[0].next;
        assert!(q1.ownership_set(t(0)).contains(VarId::new(0)));
        assert_eq!(q1.pending(t(0)), Some(write(0)));
        let s2 = tm.steps(&q1, write(0), t(0));
        assert_eq!(s2[0].action, Action::Complete(ExtCommand::Base(write(0))));
    }

    #[test]
    fn ownership_steal_kills_victim() {
        let tm = DstmTm::new(2, 1);
        let q = do_write(&tm, tm.initial_state(), 0, 0);
        // t2 steals ownership of v1.
        let steps = tm.steps(&q, write(0), t(1));
        let steal = steps
            .iter()
            .find(|s| s.action == Action::Internal(ExtCommand::Own(VarId::new(0))))
            .expect("steal option exists");
        assert_eq!(steal.next.status(t(0)), DstmStatus::Aborted);
        assert!(steal.next.ownership_set(t(0)).is_empty());
        // ... and self-abort is also offered (conflict).
        assert!(steps.iter().any(|s| s.action.is_abort()));
    }

    #[test]
    fn killed_thread_can_only_abort() {
        let tm = DstmTm::new(2, 1);
        let q = do_write(&tm, tm.initial_state(), 0, 0);
        let q = tm
            .steps(&q, write(0), t(1))
            .into_iter()
            .find(|s| !s.action.is_abort())
            .unwrap()
            .next;
        for c in [read(0), write(0), Command::Commit] {
            let steps = tm.steps(&q, c, t(0));
            assert_eq!(steps.len(), 1, "{c:?}");
            assert!(steps[0].action.is_abort(), "{c:?}");
        }
    }

    #[test]
    fn optimistic_read_of_owned_variable_is_allowed() {
        let tm = DstmTm::new(2, 1);
        let q = do_write(&tm, tm.initial_state(), 0, 0);
        let steps = tm.steps(&q, read(0), t(1));
        assert!(!steps[0].action.is_abort());
    }

    #[test]
    fn commit_with_read_ownership_overlap_is_conflict_and_kills_owner() {
        let tm = DstmTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, read(0), t(0))[0].next; // t1 reads v
        q = do_write(&tm, q, 0, 1); // t2 owns v
        assert!(tm.is_conflict(&q, Command::Commit, t(0)));
        let steps = tm.steps(&q, Command::Commit, t(0));
        let validate = steps
            .iter()
            .find(|s| s.action == Action::Internal(ExtCommand::Validate))
            .expect("validate option");
        assert_eq!(validate.next.status(t(1)), DstmStatus::Aborted);
        assert!(steps.iter().any(|s| s.action.is_abort()));
    }

    #[test]
    fn committing_writer_invalidates_readers() {
        let tm = DstmTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, read(0), t(0))[0].next; // t1 reads v
        q = do_write(&tm, q, 0, 1); // t2 owns v
        q = tm.steps(&q, Command::Commit, t(1))[0].next; // validate
        q = tm.steps(&q, Command::Commit, t(1))[0].next; // complete
        assert_eq!(q.status(t(0)), DstmStatus::Invalid);
        // The invalid reader cannot commit: only abort remains.
        let steps = tm.steps(&q, Command::Commit, t(0));
        assert!(steps.iter().all(|s| s.action.is_abort()));
        // ... but it may still read variables it owns.
        let q2 = do_write(&tm, q, 0, 0); // re-own v (fresh transaction? no — still invalid)
        let read_steps = tm.steps(&q2, read(0), t(0));
        assert!(!read_steps[0].action.is_abort());
    }

    #[test]
    fn read_only_commit_validates_then_completes() {
        let tm = DstmTm::new(2, 1);
        let mut q = tm.initial_state();
        q = tm.steps(&q, read(0), t(0))[0].next;
        let s1 = tm.steps(&q, Command::Commit, t(0));
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].action, Action::Internal(ExtCommand::Validate));
        let s2 = tm.steps(&s1[0].next, Command::Commit, t(0));
        assert_eq!(s2[0].action, Action::Complete(ExtCommand::Base(Command::Commit)));
        assert_eq!(s2[0].next, tm.initial_state());
    }
}
