//! Shared state vocabulary of the TM specifications (§5).

use std::fmt;

use tm_lang::{ThreadId, ThreadSet, VarSet};

/// Maximum number of threads supported by the fixed-size spec states.
pub const MAX_THREADS: usize = 4;

/// Lifecycle phase of a thread in the **deterministic** specifications
/// (Alg. 6).
///
/// The paper's `Status` conflates the phase with commit-viability; a
/// pinned (`pending`) transaction that is additionally doomed would
/// otherwise lose its pin, and with it the prohibited-read bookkeeping
/// opacity needs for aborting readers (DESIGN.md documents the offending
/// word). Phase and the `valid` flag ([`DetThread::valid`]) are therefore
/// tracked separately.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DetPhase {
    /// No live transaction.
    #[default]
    Finished,
    /// Transaction live.
    Started,
    /// Pinned: this transaction was a weak predecessor of a transaction
    /// that committed, so its serialization point lies in the past.
    Pending,
}

/// Per-thread record of the deterministic specifications: phase,
/// commit-viability, read and write sets, prohibited read/write sets, and
/// the weak and strong predecessor sets.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetThread {
    /// Lifecycle phase.
    pub phase: DetPhase,
    /// `false` once the transaction can no longer commit (the paper's
    /// `invalid` status).
    pub valid: bool,
    /// Variables globally read by the live transaction.
    pub rs: VarSet,
    /// Variables written by the live transaction.
    pub ws: VarSet,
    /// Variables the thread may no longer read.
    pub prs: VarSet,
    /// Variables the thread may no longer write.
    pub pws: VarSet,
    /// Weak predecessors: threads that must serialize before this one *if
    /// both commit*.
    pub wp: ThreadSet,
    /// Strong predecessors: threads that must serialize before this one
    /// unconditionally.
    pub sp: ThreadSet,
}

impl Default for DetThread {
    fn default() -> Self {
        DetThread {
            phase: DetPhase::Finished,
            valid: true,
            rs: VarSet::new(),
            ws: VarSet::new(),
            prs: VarSet::new(),
            pws: VarSet::new(),
            wp: ThreadSet::new(),
            sp: ThreadSet::new(),
        }
    }
}

impl fmt::Debug for DetThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}{}/rs{:?}ws{:?}prs{:?}pws{:?}wp{:?}sp{:?}",
            self.phase,
            if self.valid { "" } else { "✗" },
            self.rs,
            self.ws,
            self.prs,
            self.pws,
            self.wp,
            self.sp
        )
    }
}

/// State of a deterministic specification: one [`DetThread`] per thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DetState(pub [DetThread; MAX_THREADS]);

impl DetState {
    /// The record of thread `t`.
    pub fn thread(&self, t: ThreadId) -> &DetThread {
        &self.0[t.index()]
    }

    /// `ResetState(q, t)`: status ← finished, sets cleared, `t` removed
    /// from every other predecessor set.
    pub fn reset(&mut self, t: ThreadId) {
        self.0[t.index()] = DetThread::default();
        for u in 0..MAX_THREADS {
            self.0[u].wp.remove(t);
            self.0[u].sp.remove(t);
        }
    }
}

impl fmt::Debug for DetState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_reset_clears_both_predecessor_kinds() {
        let mut q = DetState::default();
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        q.0[1].wp.insert(t1);
        q.0[1].sp.insert(t1);
        q.reset(t1);
        assert!(q.thread(t2).wp.is_empty());
        assert!(q.thread(t2).sp.is_empty());
    }
}
