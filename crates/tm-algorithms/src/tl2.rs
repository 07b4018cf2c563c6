//! Transactional Locking 2, TL2 (paper §3.3.4, Algorithm 4), with version
//! numbers modelled as per-thread *modified sets* `ms`: when a transaction
//! commits, its write set is added to the modified set of every thread
//! with a live transaction, and a read-set/modified-set intersection at
//! validation plays the role of the version check.
//!
//! Commit protocol: lock each write-set variable (stealing a lock aborts
//! the holder — a *conflict*, so a contention manager may force
//! self-abort instead), then validate, then complete.
//!
//! Validation comes in three styles (§5.4 of the paper):
//!
//! * [`ValidationStyle::Atomic`] — the published algorithm, where the
//!   version check (`rvalidate`) and the read-set lock check (`chklock`)
//!   happen in one atomic step (in real TL2 the version number and the
//!   lock bit share a memory word);
//! * [`ValidationStyle::ChkLockThenRValidate`] — split into two atomic
//!   steps in the **safe** order;
//! * [`ValidationStyle::RValidateThenChkLock`] — the paper's "modified
//!   TL2": split in the **unsafe** order. A full commit of a conflicting
//!   writer can slip between the two steps, making the TM non-serializable
//!   (Table 2's counterexample `(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1`).
//!
//! Faithfulness notes (see DESIGN.md): Algorithm 4 as printed references a
//! DSTM-only `os` set inside `validate` (a transcription artifact) and
//! omits the read-time lock check of real TL2; we implement `validate` as
//! the conjunction the running text demands, and refuse reads of variables
//! locked by other threads (also needed to reproduce the Table 3 liveness
//! counterexample for TL2 + polite).

use std::fmt;
use std::hash::{Hash, Hasher};

use tm_lang::{Command, ThreadId, VarId, VarSet};

use crate::algorithm::{other_threads, ExtCommand, Step, TmAlgorithm, TmState, MAX_THREADS};
use crate::pack;

/// How commit-time validation is decomposed into atomic steps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ValidationStyle {
    /// `rvalidate` and `chklock` in one atomic step (published TL2).
    #[default]
    Atomic,
    /// Two steps, lock check first — the safe order.
    ChkLockThenRValidate,
    /// Two steps, version check first — the unsafe order ("modified TL2").
    RValidateThenChkLock,
}

/// Per-thread status of TL2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Tl2Status {
    /// Idle or executing normally.
    #[default]
    Finished,
    /// Read set validated; the commit may complete.
    Validated,
    /// A competing committer stole one of this thread's commit locks; the
    /// next step must abort.
    Aborted,
}

/// State of TL2: `⟨Status, rs, ws, ls, ms⟩` per thread, the pending
/// function, and (for the split validation styles) a per-thread flag
/// recording that the first validation half succeeded.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Tl2State {
    status: [Tl2Status; MAX_THREADS],
    rs: [VarSet; MAX_THREADS],
    ws: [VarSet; MAX_THREADS],
    ls: [VarSet; MAX_THREADS],
    ms: [VarSet; MAX_THREADS],
    half_validated: [bool; MAX_THREADS],
    pending: [Option<Command>; MAX_THREADS],
}

impl Tl2State {
    /// The status of thread `t`.
    pub fn status(&self, t: ThreadId) -> Tl2Status {
        self.status[t.index()]
    }

    /// The read set of thread `t`.
    pub fn read_set(&self, t: ThreadId) -> VarSet {
        self.rs[t.index()]
    }

    /// The write set of thread `t`.
    pub fn write_set(&self, t: ThreadId) -> VarSet {
        self.ws[t.index()]
    }

    /// The lock set of thread `t`.
    pub fn lock_set(&self, t: ThreadId) -> VarSet {
        self.ls[t.index()]
    }

    /// The modified set of thread `t` (variables committed by others since
    /// `t`'s transaction began — the version-check abstraction).
    pub fn modified_set(&self, t: ThreadId) -> VarSet {
        self.ms[t.index()]
    }

    /// Clears every per-thread component of `t` (commit/abort cleanup).
    fn reset(&mut self, t: ThreadId) {
        let ti = t.index();
        self.status[ti] = Tl2Status::Finished;
        self.rs[ti].clear();
        self.ws[ti].clear();
        self.ls[ti].clear();
        self.ms[ti].clear();
        self.half_validated[ti] = false;
    }

    /// `true` if thread `u` has a live transaction whose reads could be
    /// invalidated by a commit (used for the modified-set broadcast).
    fn is_active(&self, u: ThreadId) -> bool {
        !self.rs[u.index()].is_empty() || !self.ws[u.index()].is_empty()
    }

    /// The state packed losslessly into five words (see `pack`).
    pub(crate) fn packed(&self) -> [u64; 5] {
        let status = pack::lanes(2, self.status.iter().map(|&s| s as u64));
        let half_validated = pack::lanes(1, self.half_validated.iter().map(|&h| u64::from(h)));
        [
            pack::sets(&self.rs),
            pack::sets(&self.ws),
            pack::sets(&self.ls),
            pack::sets(&self.ms),
            pack::pending(&self.pending) | status << 32 | half_validated << 40,
        ]
    }
}

impl Hash for Tl2State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        pack::write_words(&self.packed(), state);
    }
}

impl fmt::Debug for Tl2State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨Status: {:?}, rs: {:?}, ws: {:?}, ls: {:?}, ms: {:?}, hv: {:?}, γ: {:?}⟩",
            &self.status, &self.rs, &self.ws, &self.ls, &self.ms, &self.half_validated,
            &self.pending
        )
    }
}

impl TmState for Tl2State {
    fn pending(&self, t: ThreadId) -> Option<Command> {
        self.pending[t.index()]
    }

    fn set_pending(&mut self, t: ThreadId, c: Option<Command>) {
        self.pending[t.index()] = c;
    }
}

/// The TL2 algorithm `A_TL2`, parameterized by its [`ValidationStyle`].
///
/// # Examples
///
/// ```
/// use tm_algorithms::{Tl2Tm, TmAlgorithm, ValidationStyle};
///
/// let tl2 = Tl2Tm::new(2, 2);
/// assert_eq!(tl2.name(), "TL2");
/// let modified = Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock);
/// assert_eq!(modified.name(), "modified-TL2");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Tl2Tm {
    threads: usize,
    vars: usize,
    validation: ValidationStyle,
}

impl Tl2Tm {
    /// Creates the published (atomic-validation) TL2 for `threads` threads
    /// and `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or `vars` is 0.
    pub fn new(threads: usize, vars: usize) -> Self {
        Self::with_validation(threads, vars, ValidationStyle::Atomic)
    }

    /// Creates a TL2 variant with an explicit validation decomposition.
    ///
    /// # Panics
    ///
    /// Same as [`Tl2Tm::new`].
    pub fn with_validation(threads: usize, vars: usize, validation: ValidationStyle) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!(vars >= 1);
        Tl2Tm {
            threads,
            vars,
            validation,
        }
    }

    /// The validation style of this instance.
    pub fn validation(&self) -> ValidationStyle {
        self.validation
    }

    /// `rvalidate`: the read set has not been overwritten by a commit
    /// since the transaction began (version check).
    fn rvalidate_ok(&self, q: &Tl2State, t: ThreadId) -> bool {
        q.rs[t.index()].is_disjoint(q.ms[t.index()])
    }

    /// `chklock`: no read-set variable is currently locked by another
    /// thread.
    fn chklock_ok(&self, q: &Tl2State, t: ThreadId) -> bool {
        other_threads(self.threads, t).all(|u| q.rs[t.index()].is_disjoint(q.ls[u.index()]))
    }

    /// All write-set locks held.
    fn locks_complete(&self, q: &Tl2State, t: ThreadId) -> bool {
        q.ws[t.index()] == q.ls[t.index()]
    }

    /// Whether `v` is locked by a thread other than `t`.
    fn locked_by_other(&self, q: &Tl2State, v: VarId, t: ThreadId) -> bool {
        other_threads(self.threads, t).any(|u| q.ls[u.index()].contains(v))
    }

    /// Appends the commit-phase step available once all locks are held,
    /// if validation (or its next half) succeeds.
    fn validation_steps(&self, q: &Tl2State, t: ThreadId, out: &mut Vec<Step<Tl2State>>) {
        let ti = t.index();
        match self.validation {
            ValidationStyle::Atomic => {
                if self.rvalidate_ok(q, t) && self.chklock_ok(q, t) {
                    let mut next = *q;
                    next.status[ti] = Tl2Status::Validated;
                    out.push(Step::internal(ExtCommand::Validate, next));
                }
            }
            ValidationStyle::ChkLockThenRValidate => {
                if !q.half_validated[ti] {
                    if self.chklock_ok(q, t) {
                        let mut next = *q;
                        next.half_validated[ti] = true;
                        out.push(Step::internal(ExtCommand::ChkLock, next));
                    }
                } else if self.rvalidate_ok(q, t) {
                    let mut next = *q;
                    next.half_validated[ti] = false;
                    next.status[ti] = Tl2Status::Validated;
                    out.push(Step::internal(ExtCommand::RValidate, next));
                }
            }
            ValidationStyle::RValidateThenChkLock => {
                if !q.half_validated[ti] {
                    if self.rvalidate_ok(q, t) {
                        let mut next = *q;
                        next.half_validated[ti] = true;
                        out.push(Step::internal(ExtCommand::RValidate, next));
                    }
                } else if self.chklock_ok(q, t) {
                    let mut next = *q;
                    next.half_validated[ti] = false;
                    next.status[ti] = Tl2Status::Validated;
                    out.push(Step::internal(ExtCommand::ChkLock, next));
                }
            }
        }
    }
}

impl TmAlgorithm for Tl2Tm {
    type State = Tl2State;

    fn name(&self) -> String {
        match self.validation {
            ValidationStyle::Atomic => "TL2".to_owned(),
            ValidationStyle::ChkLockThenRValidate => "TL2-split-safe".to_owned(),
            ValidationStyle::RValidateThenChkLock => "modified-TL2".to_owned(),
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn vars(&self) -> usize {
        self.vars
    }

    fn initial_state(&self) -> Tl2State {
        Tl2State::default()
    }

    fn is_conflict(&self, q: &Tl2State, c: Command, t: ThreadId) -> bool {
        // Commit-time lock conflict: some write-set variable is locked by
        // another thread.
        c == Command::Commit
            && q.ws[t.index()]
                .iter()
                .any(|v| self.locked_by_other(q, v, t))
    }

    fn proper_steps(&self, q: &Tl2State, c: Command, t: ThreadId, out: &mut Vec<Step<Tl2State>>) {
        let ti = t.index();
        if q.status[ti] == Tl2Status::Aborted {
            return;
        }
        match c {
            Command::Read(v) => {
                if q.ws[ti].contains(v) {
                    // Read own (buffered) write.
                    out.push(Step::complete(c, *q));
                    return;
                }
                if q.ms[ti].contains(v) || self.locked_by_other(q, v, t) {
                    // Version changed since the transaction began, or the
                    // variable is mid-commit elsewhere: the read would be
                    // inconsistent.
                    return;
                }
                let mut next = *q;
                next.rs[ti].insert(v);
                out.push(Step::complete(c, next));
            }
            Command::Write(v) => {
                // Writes are buffered; always succeed.
                let mut next = *q;
                next.ws[ti].insert(v);
                out.push(Step::complete(c, next));
            }
            Command::Commit => match q.status[ti] {
                Tl2Status::Finished if !self.locks_complete(q, t) => {
                    // Lock acquisition phase: one step per unlocked
                    // write-set variable (any order — this is where the
                    // state space fans out). Taking a lock held by another
                    // thread aborts that thread.
                    for v in q.ws[ti].difference(q.ls[ti]) {
                        let mut next = *q;
                        next.ls[ti].insert(v);
                        for u in other_threads(self.threads, t) {
                            if q.ls[u.index()].contains(v) {
                                next.status[u.index()] = Tl2Status::Aborted;
                            }
                        }
                        out.push(Step::internal(ExtCommand::Lock(v), next));
                    }
                }
                Tl2Status::Finished => self.validation_steps(q, t, out),
                Tl2Status::Validated => {
                    let mut next = *q;
                    // Broadcast the write set into the modified set of
                    // every thread with a live transaction (the
                    // version-number bump).
                    for u in other_threads(self.threads, t) {
                        if q.is_active(u) {
                            next.ms[u.index()].extend_with(q.ws[ti]);
                        }
                    }
                    next.reset(t);
                    out.push(Step::complete(c, next));
                }
                Tl2Status::Aborted => {}
            },
        }
    }

    fn abort_state(&self, q: &Tl2State, t: ThreadId) -> Tl2State {
        let mut next = *q;
        next.reset(t);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Action;

    fn read(v: usize) -> Command {
        Command::Read(VarId::new(v))
    }
    fn write(v: usize) -> Command {
        Command::Write(VarId::new(v))
    }
    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    /// Runs thread `i` through the listed commands, always taking the
    /// first step, and asserts no abort happens.
    fn drive(tm: &Tl2Tm, mut q: Tl2State, i: usize, cmds: &[Command]) -> Tl2State {
        for &c in cmds {
            loop {
                let steps = tm.steps(&q, c, t(i));
                let step = &steps[0];
                assert!(!step.action.is_abort(), "unexpected abort on {c:?}");
                q = step.next;
                if !step.action.is_internal() {
                    break;
                }
            }
        }
        q
    }

    #[test]
    fn packed_fields_do_not_overlap_at_the_largest_instance() {
        use crate::pack::tests::{all_pending, assert_fields_disjoint, BOUNDARY_VARS};
        for vars in BOUNDARY_VARS {
            let base = Tl2State::default();
            let mut variants = Vec::new();
            let mut add = |field: String, q: Tl2State| variants.push((field, q.packed()));
            for ti in 0..MAX_THREADS {
                for v in (0..vars).map(VarId::new) {
                    let single = VarSet::singleton(v);
                    add(
                        format!("rs[{ti}]"),
                        Tl2State {
                            rs: set_at(ti, single),
                            ..base
                        },
                    );
                    add(
                        format!("ws[{ti}]"),
                        Tl2State {
                            ws: set_at(ti, single),
                            ..base
                        },
                    );
                    add(
                        format!("ls[{ti}]"),
                        Tl2State {
                            ls: set_at(ti, single),
                            ..base
                        },
                    );
                    add(
                        format!("ms[{ti}]"),
                        Tl2State {
                            ms: set_at(ti, single),
                            ..base
                        },
                    );
                }
                for status in [Tl2Status::Validated, Tl2Status::Aborted] {
                    let mut q = base;
                    q.status[ti] = status;
                    add(format!("status[{ti}]"), q);
                }
                let mut q = base;
                q.half_validated[ti] = true;
                add(format!("half_validated[{ti}]"), q);
                for c in all_pending(vars).skip(1) {
                    let mut q = base;
                    q.pending[ti] = c;
                    add(format!("pending[{ti}]"), q);
                }
            }
            assert_fields_disjoint(base.packed(), &variants);
        }
    }

    /// Per-thread sets with `set` at thread `ti`, empty elsewhere.
    fn set_at(ti: usize, set: VarSet) -> [VarSet; MAX_THREADS] {
        let mut sets = [VarSet::new(); MAX_THREADS];
        sets[ti] = set;
        sets
    }

    #[test]
    fn reads_and_writes_complete_in_one_step() {
        let tm = Tl2Tm::new(2, 2);
        let q = tm.initial_state();
        let s = tm.steps(&q, read(0), t(0));
        assert_eq!(s.len(), 1);
        assert!(!s[0].action.is_internal());
        let s = tm.steps(&q, write(0), t(0));
        assert!(!s[0].action.is_internal());
    }

    #[test]
    fn commit_locks_validates_completes() {
        let tm = Tl2Tm::new(2, 2);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(0), write(1)]);
        // Two lock orders available.
        let locks = tm.steps(&q, Command::Commit, t(0));
        assert_eq!(locks.len(), 2);
        q = locks[0].next;
        q = tm.steps(&q, Command::Commit, t(0))[0].next; // second lock
        let validate = tm.steps(&q, Command::Commit, t(0));
        assert_eq!(validate[0].action, Action::Internal(ExtCommand::Validate));
        q = validate[0].next;
        assert_eq!(q.status(t(0)), Tl2Status::Validated);
        q = tm.steps(&q, Command::Commit, t(0))[0].next;
        assert_eq!(q, tm.initial_state());
    }

    #[test]
    fn committed_write_invalidates_live_readers_via_modified_set() {
        let tm = Tl2Tm::new(2, 2);
        let mut q = tm.initial_state();
        // t2 starts a transaction by reading v2 (stays live).
        q = drive(&tm, q, 1, &[read(1)]);
        // t1 writes v1 and commits fully.
        q = drive(&tm, q, 0, &[write(0), Command::Commit]);
        assert!(q.modified_set(t(1)).contains(VarId::new(0)));
        // t2's read of v1 must now refuse (version changed).
        let s = tm.steps(&q, read(0), t(1));
        assert!(s.iter().all(|st| st.action.is_abort()));
    }

    #[test]
    fn commit_does_not_pollute_idle_threads() {
        let tm = Tl2Tm::new(2, 1);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(0), Command::Commit]);
        // t2 was idle: its modified set must stay empty, so it can read.
        assert!(q.modified_set(t(1)).is_empty());
        let s = tm.steps(&q, read(0), t(1));
        assert!(!s[0].action.is_abort());
    }

    #[test]
    fn read_of_locked_variable_refuses() {
        let tm = Tl2Tm::new(2, 1);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(0)]);
        q = tm.steps(&q, Command::Commit, t(0))[0].next; // lock v1
        let s = tm.steps(&q, read(0), t(1));
        assert!(s.iter().all(|st| st.action.is_abort()));
    }

    #[test]
    fn lock_steal_is_conflict_and_aborts_holder() {
        let tm = Tl2Tm::new(2, 1);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(0)]);
        q = drive(&tm, q, 1, &[write(0)]);
        q = tm.steps(&q, Command::Commit, t(0))[0].next; // t1 locks v1
        assert!(tm.is_conflict(&q, Command::Commit, t(1)));
        let steps = tm.steps(&q, Command::Commit, t(1));
        let steal = steps
            .iter()
            .find(|s| matches!(s.action, Action::Internal(ExtCommand::Lock(_))))
            .expect("steal available");
        assert_eq!(steal.next.status(t(0)), Tl2Status::Aborted);
        assert!(steps.iter().any(|s| s.action.is_abort()));
    }

    #[test]
    fn aborted_holder_can_only_abort() {
        let tm = Tl2Tm::new(2, 1);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(0)]);
        q = drive(&tm, q, 1, &[write(0)]);
        q = tm.steps(&q, Command::Commit, t(0))[0].next; // t1 locks
        let steal = tm
            .steps(&q, Command::Commit, t(1))
            .into_iter()
            .find(|s| !s.action.is_abort())
            .unwrap();
        let q = steal.next;
        let s = tm.steps(&q, Command::Commit, t(0));
        assert!(s.iter().all(|st| st.action.is_abort()));
    }

    #[test]
    fn stale_read_set_fails_validation() {
        let tm = Tl2Tm::new(2, 2);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 1, &[read(0)]); // t2 reads v1
        q = drive(&tm, q, 0, &[write(0), Command::Commit]); // t1 commits v1
        // t2 (read-only) tries to commit: validation must fail → abort.
        let s = tm.steps(&q, Command::Commit, t(1));
        assert!(s.iter().all(|st| st.action.is_abort()));
    }

    #[test]
    fn split_safe_variant_orders_chklock_first() {
        let tm = Tl2Tm::with_validation(2, 1, ValidationStyle::ChkLockThenRValidate);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[read(0)]);
        let s1 = tm.steps(&q, Command::Commit, t(0));
        assert_eq!(s1[0].action, Action::Internal(ExtCommand::ChkLock));
        let s2 = tm.steps(&s1[0].next, Command::Commit, t(0));
        assert_eq!(s2[0].action, Action::Internal(ExtCommand::RValidate));
    }

    #[test]
    fn split_unsafe_variant_orders_rvalidate_first() {
        let tm = Tl2Tm::with_validation(2, 1, ValidationStyle::RValidateThenChkLock);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[read(0)]);
        let s1 = tm.steps(&q, Command::Commit, t(0));
        assert_eq!(s1[0].action, Action::Internal(ExtCommand::RValidate));
        let s2 = tm.steps(&s1[0].next, Command::Commit, t(0));
        assert_eq!(s2[0].action, Action::Internal(ExtCommand::ChkLock));
    }

    #[test]
    fn unsafe_split_admits_the_paper_counterexample_interleaving() {
        // (w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1 with both commits succeeding:
        // t2 finishes chklock before t1 locks v2, and t1's rvalidate runs
        // before t2's commit completes — so neither notices the other.
        let tm = Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(1)]); // t1 writes v2
        q = drive(&tm, q, 1, &[write(0), read(1)]); // t2 writes v1, reads v2
        q = drive(&tm, q, 0, &[read(0)]); // t1 reads v1
        let step = |q: &Tl2State, i: usize, expect: &str| {
            let steps = tm.steps(q, Command::Commit, t(i));
            let s = &steps[0];
            assert!(!s.action.is_abort(), "abort at {expect}");
            s.next
        };
        q = step(&q, 1, "t2 lock v1");
        q = step(&q, 1, "t2 rvalidate");
        q = step(&q, 1, "t2 chklock"); // v2 not locked yet: passes
        q = step(&q, 0, "t1 lock v2");
        q = step(&q, 0, "t1 rvalidate"); // ms(t1) still empty: passes
        q = step(&q, 1, "t2 commit"); // c2 — ms(t1) += {v1}, locks freed
        q = step(&q, 0, "t1 chklock"); // locks freed: passes (the bug!)
        let s = tm.steps(&q, Command::Commit, t(0));
        assert!(!s[0].action.is_abort()); // c1 — non-serializable outcome
        assert_eq!(s[0].next, tm.initial_state());
    }

    #[test]
    fn atomic_validation_blocks_the_same_interleaving() {
        let tm = Tl2Tm::new(2, 2);
        let mut q = tm.initial_state();
        q = drive(&tm, q, 0, &[write(1)]);
        q = drive(&tm, q, 1, &[write(0), read(1)]);
        q = drive(&tm, q, 0, &[read(0)]);
        q = tm.steps(&q, Command::Commit, t(0))[0].next; // t1 locks v2
        // t2's commit: lock v1, then validate must fail (v2 in rs(t2) is
        // locked by t1) — or, after t1 commits, rvalidate fails. Either
        // way t2 can never complete; check the immediate path:
        q = tm.steps(&q, Command::Commit, t(1))[0].next; // t2 locks v1
        let s = tm.steps(&q, Command::Commit, t(1));
        assert!(s.iter().all(|st| st.action.is_abort()));
    }
}
