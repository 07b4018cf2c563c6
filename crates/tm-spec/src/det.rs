//! The deterministic TM specifications Σᵈ_ss and Σᵈ_op (§5.2,
//! Algorithm 6).
//!
//! Instead of guessing serialization points, the deterministic
//! specification tracks *predecessor* constraints between live
//! transactions:
//!
//! * `u ∈ wp(t)` (**weak**): if both commit, `u` must serialize before
//!   `t`;
//! * `u ∈ sp(t)` (**strong**): `u` must serialize before `t`
//!   unconditionally (needed for opacity, where even aborting readers
//!   constrain the order);
//! * `Status(t) = pending`: `t` was a weak predecessor of a transaction
//!   that committed, so `t`'s serialization point is pinned in the past —
//!   new transactions order strictly after it;
//! * `prs(t)` / `pws(t)`: variables `t` may no longer read / write.
//!
//! Transcription notes (the printed Algorithm 6 reuses the variable `U`
//! across blocks with ambiguous scope; each resolution below is marked
//! `PAPER-AMBIGUITY` and justified, and the whole construction is
//! validated against the nondeterministic specification by antichain
//! language-equivalence and against the definition-level oracle by
//! bounded-exhaustive search — the dev-only `tm_bench::validation`
//! toolkit, run by `tests/spec_correctness.rs`).

use tm_lang::{
    Alphabet, SafetyProperty, Statement, StatementKind, ThreadId, ThreadSet, VarId, Word,
};

use tm_automata::{DeterministicTransitionSystem, Dfa};

use crate::state::{DetPhase, DetState, MAX_THREADS};

/// The statement alphabet `Ŝ` for `threads` threads and `vars` variables,
/// in canonical order: the letter list of every specification automaton
/// and [`tm_automata::SpecCache`] in the workspace.
pub fn spec_alphabet(threads: usize, vars: usize) -> Vec<Statement> {
    Alphabet::new(threads, vars).statements().collect()
}

/// The deterministic TM specification for `n` threads and `k` variables
/// and a given safety property.
///
/// # Examples
///
/// ```
/// use tm_lang::SafetyProperty;
/// use tm_spec::DetSpec;
///
/// let spec = DetSpec::new(SafetyProperty::Opacity, 2, 2);
/// let (dfa, _) = spec.to_dfa(1_000_000);
/// let w: tm_lang::Word = "(r,1)1 (w,1)2 c2 c1".parse()?;
/// assert!(dfa.accepts(w.statements()));
/// # Ok::<(), tm_lang::ParseStatementError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DetSpec {
    property: SafetyProperty,
    threads: usize,
    vars: usize,
}

impl DetSpec {
    /// Creates the specification Σᵈ_π for `threads` threads and `vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds 4, or `vars` is 0 or exceeds
    /// 16.
    pub fn new(property: SafetyProperty, threads: usize, vars: usize) -> Self {
        assert!((1..=MAX_THREADS).contains(&threads));
        assert!((1..=16).contains(&vars));
        DetSpec {
            property,
            threads,
            vars,
        }
    }

    /// The safety property this specification defines.
    pub fn property(&self) -> SafetyProperty {
        self.property
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    fn thread_ids(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.threads).map(ThreadId::new)
    }

    fn others(&self, t: ThreadId) -> impl Iterator<Item = ThreadId> {
        (0..self.threads)
            .map(ThreadId::new)
            .filter(move |&u| u != t)
    }

    fn is_op(&self) -> bool {
        self.property == SafetyProperty::Opacity
    }

    /// Threads that may no longer read `v`, closed under strong
    /// predecessors: `{u | v ∈ prs(u)} ∪ {u | u ∈ sp(u'), v ∈ prs(u')}`.
    fn read_prohibited_closure(&self, q: &DetState, v: VarId) -> ThreadSet {
        let mut set = ThreadSet::new();
        for u in self.thread_ids() {
            if q.0[u.index()].prs.contains(v) {
                set.insert(u);
                set.extend_with(q.0[u.index()].sp);
            }
        }
        set
    }

    /// The `Status(t) = finished` startup block shared by read and write:
    /// pending threads (and their strong predecessors) become weak and
    /// strong predecessors of the fresh transaction. Returns the set of
    /// strong predecessors gained.
    fn start_transaction(&self, q: &mut DetState, t: ThreadId) -> ThreadSet {
        let pending: ThreadSet = self
            .thread_ids()
            .filter(|&u| q.0[u.index()].phase == DetPhase::Pending)
            .collect();
        let mut pending_sp = ThreadSet::new();
        for u in pending {
            pending_sp.extend_with(q.0[u.index()].sp);
        }
        let gained = pending.union(pending_sp);
        let ti = t.index();
        q.0[ti].wp.extend_with(pending);
        q.0[ti].sp.extend_with(gained);
        q.0[ti].phase = DetPhase::Started;
        gained
    }

    /// Adds `adds` to `sp(t)` and to `sp(u)` of every `u` with
    /// `t ∈ sp(u)` — the transitive-closure maintenance step the paper
    /// writes as "for all u such that u = t or t ∈ sp(u): sp(u) := sp(u) ∪ U".
    fn propagate_strong(&self, q: &mut DetState, t: ThreadId, adds: ThreadSet) {
        if adds.is_empty() {
            return;
        }
        for u in self.thread_ids() {
            if u == t || q.0[u.index()].sp.contains(t) {
                q.0[u.index()].sp.extend_with(adds);
            }
        }
    }

    /// `detSpec(q, ((read, v), t), π)` — Alg. 6, read case.
    fn apply_read(&self, q: &DetState, v: VarId, t: ThreadId) -> Option<DetState> {
        let ti = t.index();
        if q.0[ti].ws.contains(v) {
            return Some(*q); // read of own write
        }
        // Opacity: a read prohibited for t (directly, or through a strong
        // successor chain) can be justified by no serialization order.
        let prohibited = self.read_prohibited_closure(q, v);
        if self.is_op() && prohibited.contains(t) {
            return None;
        }
        let mut n = *q;
        // PAPER-AMBIGUITY: Alg. 6 reuses `U` for both the prohibition
        // closure and the startup set; we keep both and apply their union
        // in the strong-closure line below.
        let started_adds = if q.0[ti].phase == DetPhase::Finished {
            self.start_transaction(&mut n, t)
        } else {
            ThreadSet::new()
        };
        n.0[ti].rs.insert(v);
        if q.0[ti].prs.contains(v) {
            n.0[ti].valid = false;
        }
        for u in self.thread_ids() {
            let ui = u.index();
            if u != t && q.0[ui].ws.contains(v) {
                // t read the pre-commit value of u's write: if u commits,
                // t serializes before u.
                n.0[ui].wp.insert(t);
            }
            if u != t && q.0[ui].prs.contains(v) {
                // u is pinned before the committed writer of v; t now
                // observes that writer's value, hence comes after u.
                n.0[ti].wp.insert(u);
            }
        }
        if !self.is_op() {
            return Some(n);
        }
        // Opacity only: the observed-writer ordering is *strong* (it
        // constrains t even if t aborts), and strong predecessors must
        // never have written v.
        self.propagate_strong(&mut n, t, prohibited.union(started_adds));
        let strong = n.0[ti].sp;
        for u in strong {
            let ui = u.index();
            n.0[ui].pws.insert(v);
            if n.0[ui].ws.contains(v) {
                n.0[ui].valid = false;
            }
        }
        Some(n)
    }

    /// `detSpec(q, ((write, v), t), π)` — Alg. 6, write case.
    fn apply_write(&self, q: &DetState, v: VarId, t: ThreadId) -> Option<DetState> {
        let ti = t.index();
        let mut n = *q;
        if q.0[ti].phase == DetPhase::Finished {
            self.start_transaction(&mut n, t);
        }
        n.0[ti].ws.insert(v);
        if q.0[ti].pws.contains(v) {
            n.0[ti].valid = false;
        }
        for u in self.others(t) {
            let ui = u.index();
            if q.0[ui].rs.contains(v) {
                // u read v before this write: if t commits, u precedes t.
                n.0[ti].wp.insert(u);
                if self.is_op() && q.0[ui].sp.contains(t) {
                    // ... but t strongly precedes u: committing this write
                    // would invalidate u's read even if u aborts.
                    n.0[ti].valid = false;
                }
            }
            if q.0[ui].pws.contains(v) {
                n.0[ti].wp.insert(u);
            }
        }
        Some(n)
    }

    /// `detSpec(q, (commit, t), π)` — Alg. 6, commit case.
    fn apply_commit(&self, q: &DetState, t: ThreadId) -> Option<DetState> {
        let ti = t.index();
        if q.0[ti].wp.contains(t) {
            return None; // predecessor cycle through t
        }
        if !q.0[ti].valid {
            return None;
        }
        // Opacity: committing now pins every weak predecessor strictly
        // before t; if t itself strongly precedes any of them (or their
        // strong predecessors include t), the order is contradictory.
        let mut pinned = q.0[ti].wp;
        for u in q.0[ti].wp {
            pinned.extend_with(q.0[u.index()].sp);
        }
        if self.is_op() && pinned.contains(t) {
            return None;
        }
        let mut n = *q;
        let committer = q.0[ti];
        for u in committer.wp {
            let ui = u.index();
            // Every weak predecessor is now pinned before t (pending);
            // those with overlapping write sets additionally lose
            // commit-viability. Keeping the pin on doomed transactions is
            // the phase/valid split discussed in the module docs.
            n.0[ui].phase = DetPhase::Pending;
            if !committer.ws.is_disjoint(q.0[ui].ws) {
                n.0[ui].valid = false;
            }
            n.0[ui].prs.extend_with(committer.prs.union(committer.ws));
            n.0[ui]
                .pws
                .extend_with(committer.pws.union(committer.ws).union(committer.rs));
            for w in self.thread_ids() {
                let wi = w.index();
                // Successors of t inherit u as weak predecessor...
                if q.0[wi].wp.contains(t) {
                    n.0[wi].wp.insert(u);
                }
                // ... as do future committers overlapping t's write set.
                if w != t && !q.0[wi].ws.is_disjoint(committer.ws) {
                    n.0[wi].wp.insert(u);
                }
            }
        }
        if self.is_op() {
            // Strong successors of t inherit the pinned set.
            self.propagate_strong(&mut n, t, pinned);
        }
        n.reset(t);
        Some(n)
    }

    /// Applies one statement deterministically.
    pub fn apply(&self, q: &DetState, s: Statement) -> Option<DetState> {
        match s.kind {
            StatementKind::Read(v) => self.apply_read(q, v, s.thread),
            StatementKind::Write(v) => self.apply_write(q, v, s.thread),
            StatementKind::Commit => self.apply_commit(q, s.thread),
            StatementKind::Abort => {
                let mut n = *q;
                n.reset(s.thread);
                Some(n)
            }
        }
    }

    /// Decides membership of a word directly, without materializing the
    /// automaton.
    pub fn accepts_word(&self, w: &Word) -> bool {
        let mut q = DetState::default();
        for &s in w.iter() {
            match self.apply(&q, s) {
                Some(next) => q = next,
                None => return false,
            }
        }
        true
    }

    /// Explores the reachable automaton into a [`Dfa`] (plus the interned
    /// structured states).
    ///
    /// # Panics
    ///
    /// Panics if the reachable state space exceeds `max_states`.
    pub fn to_dfa(&self, max_states: usize) -> (Dfa<Statement>, Vec<DetState>) {
        let alphabet = spec_alphabet(self.threads, self.vars);
        let budget = tm_automata::QueryBudget::new(max_states);
        tm_automata::explore_deterministic(self, alphabet, &budget)
            .unwrap_or_else(|error| panic!("specification exploration failed: {error}"))
    }
}

impl DeterministicTransitionSystem for DetSpec {
    type State = DetState;
    type Label = Statement;

    fn initial(&self) -> DetState {
        DetState::default()
    }

    fn step(&self, state: &DetState, letter: &Statement) -> Option<DetState> {
        self.apply(state, *letter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Word {
        s.parse().unwrap()
    }

    fn det(p: SafetyProperty) -> DetSpec {
        DetSpec::new(p, 2, 2)
    }

    #[test]
    fn accepts_sequential_histories() {
        for p in SafetyProperty::all() {
            let spec = det(p);
            for text in [
                "",
                "(r,1)1 c1",
                "(r,1)1 (w,2)1 c1 (w,1)2 c2",
                "a1 a1 c2",
            ] {
                assert!(spec.accepts_word(&w(text)), "{p:?} {text}");
            }
        }
    }

    #[test]
    fn rejects_table2_counterexample() {
        let bad = w("(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1");
        for p in SafetyProperty::all() {
            assert!(!det(p).accepts_word(&bad), "{p:?}");
        }
    }

    #[test]
    fn matches_reference_on_selected_words() {
        for p in SafetyProperty::all() {
            let spec = det(p);
            for text in [
                "(r,1)1 (w,1)2 c2 c1",
                "(r,1)1 (w,1)2 c2 a1",
                "(w,1)1 (w,1)2 c1 c2",
                "(r,1)1 (w,1)2 (w,2)1 c2 (r,2)2 c1",
                "(w,1)2 (r,1)1 c2 (r,2)2 a2 (w,2)1 c1",
                "(r,1)1 (r,2)2 (w,2)1 (w,1)2 c1 c2",
                "(w,1)1 (r,2)2 (r,1)2 c1",
                "(w,1)1 (r,2)2 (r,1)2 c1 c2",
            ] {
                let word = w(text);
                assert_eq!(spec.accepts_word(&word), p.holds(&word), "{p:?} {text}");
            }
        }
    }

    #[test]
    fn dfa_matches_direct_application() {
        let spec = det(SafetyProperty::Opacity);
        let (dfa, _) = spec.to_dfa(1_000_000);
        for text in ["(r,1)1 (w,1)2 c2 c1", "(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1"] {
            let word = w(text);
            assert_eq!(
                dfa.accepts(word.statements()),
                spec.accepts_word(&word),
                "{text}"
            );
        }
    }

    #[test]
    fn state_count_is_in_the_paper_ballpark() {
        // Paper §5.3: Σᵈ_ss 3520 states, Σᵈ_op 2272 states for (2,2).
        let (ss, _) = det(SafetyProperty::StrictSerializability).to_dfa(1_000_000);
        let (op, _) = det(SafetyProperty::Opacity).to_dfa(1_000_000);
        assert!(ss.num_states() > 300, "ss: {}", ss.num_states());
        assert!(op.num_states() > 300, "op: {}", op.num_states());
        assert!(ss.num_states() < 100_000);
        assert!(op.num_states() < 100_000);
    }
}
