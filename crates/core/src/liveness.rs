//! Liveness verification of TM algorithms (§6): loop search in the
//! run-level transition system of the TM (with its contention manager)
//! applied to the most general program.
//!
//! The paper reduces each property to the absence of a certain *loop* in
//! the transition system (its reduction theorem, Theorem 5, bounds the
//! instance at two threads and one variable):
//!
//! * **obstruction freedom** fails iff some loop contains only statements
//!   of one thread, at least one abort, and no commit;
//! * **livelock freedom** fails iff some loop contains no commit and every
//!   thread with a statement in it has an abort in it;
//! * **wait freedom** fails iff some loop gives a thread infinitely many
//!   (word-level) statements but no commit.
//!
//! All loops here are loops of the run-level graph — they may contain
//! extended commands (cf. the loop `a1, (r,1)1, (o,1)1, a2, (o,1)2` of the
//! paper's Table 3).
//!
//! [`crate::Verifier::check_liveness`] decides them with the **compiled
//! engine** ([`tm_automata::CompiledRunGraph`]): the run graph is
//! compiled to CSR while it is explored (never materialized as an edge
//! list), every property pass is a mask-filtered Tarjan over that one
//! graph sharing one scratch arena, and the independent per-thread /
//! per-subset passes run in order until the first violation. The seed
//! checker it replaced (cloned filtered subgraphs, one Tarjan per clone)
//! is a test oracle in the dev-only `tm-bench` crate
//! (`tm_bench::oracle`); it returns the same verdicts and lassos and is
//! the differential baseline of `tests/liveness_conformance.rs`.

use std::time::Duration;

use tm_algorithms::RunLabel;
use tm_automata::{
    EdgeFilter, LoopQuery, LoopSelection, MASK_ABORT, MASK_ALL_THREADS, MASK_COMMIT, MASK_EMITS,
};
use tm_lang::{Lasso, LivenessProperty, Word};

/// A liveness counterexample: an ultimately periodic run `prefix · loopω`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunLasso {
    /// Run-level steps leading from the initial state to the loop.
    pub prefix: Vec<RunLabel>,
    /// The repeated loop (non-empty).
    pub cycle: Vec<RunLabel>,
}

impl RunLasso {
    /// The word-level lasso (projecting away internal steps).
    ///
    /// Returns `None` if the loop emits no statements at all (a purely
    /// internal divergence, which cannot happen for the TMs in this
    /// workspace).
    pub fn to_word_lasso(&self) -> Option<Lasso> {
        let cycle: Word = self.cycle.iter().filter_map(|l| l.statement()).collect();
        if cycle.is_empty() {
            return None;
        }
        let prefix: Word = self.prefix.iter().filter_map(|l| l.statement()).collect();
        Some(Lasso::new(prefix, cycle))
    }

    /// The loop in the paper's Table 3 notation.
    pub fn cycle_notation(&self) -> String {
        self.cycle
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Outcome of a liveness check.
#[derive(Clone, Debug)]
pub enum LivenessOutcome {
    /// No offending loop exists: the TM (with its manager) ensures the
    /// property for this instance size (and by Theorem 5 in general, for
    /// structurally well-behaved TMs).
    Verified,
    /// An offending reachable loop.
    Violation(RunLasso),
}

/// Result of a [`crate::Verifier::check_liveness`] query.
#[derive(Clone, Debug)]
pub struct LivenessVerdict {
    /// TM algorithm (with manager) name.
    pub tm_name: String,
    /// The property checked.
    pub property: LivenessProperty,
    /// Reachable states of the run-level transition system.
    pub tm_states: usize,
    /// Wall-clock time for the whole check.
    pub total_time: Duration,
    /// The verdict.
    pub outcome: LivenessOutcome,
}

impl LivenessVerdict {
    /// `true` if the property was verified.
    pub fn holds(&self) -> bool {
        matches!(self.outcome, LivenessOutcome::Verified)
    }

    /// The counterexample lasso, if any.
    pub fn counterexample(&self) -> Option<&RunLasso> {
        match &self.outcome {
            LivenessOutcome::Violation(l) => Some(l),
            LivenessOutcome::Verified => None,
        }
    }
}

/// The engine queries of a property for an `n`-thread instance, in the
/// order the seed checker searches them (so first-in-order violation
/// selection reproduces the reference lasso), run by the
/// [`crate::Verifier`] session over its cached run graphs:
///
/// * obstruction freedom — per thread `t`: the subgraph of `t`-only,
///   non-commit edges must have no loop through an abort;
/// * livelock freedom — per non-empty thread subset `T'` (in subset-mask
///   order): the subgraph of `T'`-edges without commits must have no SCC
///   containing an abort of *every* thread of `T'`;
/// * wait freedom — per thread `t`: the subgraph without `(commit, t)`
///   edges must have no loop through a statement-emitting edge of `t`.
pub(crate) fn property_queries(n: usize, property: LivenessProperty) -> Vec<LoopQuery> {
    match property {
        LivenessProperty::ObstructionFreedom => (0..n)
            .map(|t| LoopQuery {
                filter: EdgeFilter {
                    keep_any: 1 << t,
                    forbid_all: MASK_COMMIT,
                },
                required: vec![MASK_ABORT],
                selection: LoopSelection::FirstEdge,
            })
            .collect(),
        LivenessProperty::LivelockFreedom => (1u16..(1 << n))
            .map(|subset| LoopQuery {
                filter: EdgeFilter {
                    keep_any: subset,
                    forbid_all: MASK_COMMIT,
                },
                required: (0..n)
                    .filter(|t| subset & (1 << t) != 0)
                    .map(|t| MASK_ABORT | 1 << t)
                    .collect(),
                selection: LoopSelection::FirstComponent,
            })
            .collect(),
        LivenessProperty::WaitFreedom => (0..n)
            .map(|t| LoopQuery {
                filter: EdgeFilter {
                    keep_any: MASK_ALL_THREADS,
                    forbid_all: MASK_COMMIT | 1 << t,
                },
                required: vec![MASK_EMITS | 1 << t],
                selection: LoopSelection::FirstEdge,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verifier;
    use tm_algorithms::{
        AggressiveCm, DstmTm, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm, TwoPhaseTm,
        WithContentionManager,
    };

    /// One liveness query through a fresh default session.
    fn check<A: TmAlgorithm>(tm: &A, property: LivenessProperty) -> LivenessVerdict {
        Verifier::new(tm.threads(), tm.vars())
            .check_liveness(tm, property)
            .into_liveness()
            .expect("liveness query")
    }

    #[test]
    fn sequential_tm_is_not_obstruction_free() {
        let verdict = check(&SequentialTm::new(2, 1), LivenessProperty::ObstructionFreedom);
        let lasso = verdict.counterexample().expect("Table 3: N");
        // The paper's loop is `a1` (a single abort).
        let word = lasso.to_word_lasso().expect("emits statements");
        assert!(!word.is_obstruction_free());
        assert!(word.cycle().iter().all(|s| s.kind.is_abort()));
    }

    #[test]
    fn two_phase_fails_both_properties() {
        let tm = TwoPhaseTm::new(2, 1);
        for p in [
            LivenessProperty::ObstructionFreedom,
            LivenessProperty::LivelockFreedom,
        ] {
            let verdict = check(&tm, p);
            assert!(!verdict.holds(), "{p:?}");
            let lasso = verdict.counterexample().unwrap();
            let word = lasso.to_word_lasso().unwrap();
            assert!(!p.holds(&word), "{p:?}: {word}");
        }
    }

    #[test]
    fn dstm_aggressive_is_of_but_not_lf() {
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        assert!(check(&tm, LivenessProperty::ObstructionFreedom).holds());
        let lf = check(&tm, LivenessProperty::LivelockFreedom);
        let lasso = lf.counterexample().expect("Table 3: N");
        let word = lasso.to_word_lasso().unwrap();
        assert!(!word.is_livelock_free());
        // Both threads abort infinitely (ownership ping-pong).
        assert!(word.is_obstruction_free());
    }

    #[test]
    fn the_first_violating_query_wins_after_earlier_ones_hold() {
        // dstm+aggressive livelock at (2, 1): the subsets {t0} and {t1}
        // hold and only {t0, t1}, index 2 of 3, has a loop, so the scan
        // runs every query and reports the last one.
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let source = tm_algorithms::MostGeneralRunSource::new(&tm);
        let (graph, _) = tm_automata::CompiledRunGraph::build(&source, 1_000_000).unwrap();
        let queries = property_queries(2, LivenessProperty::LivelockFreedom);
        let unlimited = tm_automata::QueryBudget::unlimited();
        let mut scratch = tm_automata::LiveScratch::default();
        let alone: Vec<bool> = queries
            .iter()
            .map(|q| graph.find_loop(q, &mut scratch, &unlimited).unwrap().is_some())
            .collect();
        assert_eq!(alone, [false, false, true]);
        let (index, _) = graph
            .find_first_loop(&queries, &unlimited)
            .unwrap()
            .expect("Table 3: N");
        assert_eq!(index, 2);
    }

    #[test]
    fn tl2_polite_is_not_obstruction_free() {
        let tm = WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm);
        let verdict = check(&tm, LivenessProperty::ObstructionFreedom);
        let lasso = verdict.counterexample().expect("Table 3: N");
        let word = lasso.to_word_lasso().unwrap();
        assert!(!word.is_obstruction_free());
    }

    #[test]
    fn nothing_is_wait_free() {
        // Every TM lets a thread read forever without committing.
        for verdict in [
            check(&SequentialTm::new(2, 1), LivenessProperty::WaitFreedom),
            check(
                &WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm),
                LivenessProperty::WaitFreedom,
            ),
        ] {
            assert!(!verdict.holds());
        }
    }

    #[test]
    fn counterexample_prefix_starts_at_initial_state() {
        let verdict = check(&TwoPhaseTm::new(2, 1), LivenessProperty::ObstructionFreedom);
        let lasso = verdict.counterexample().unwrap();
        // Prefix must be a real run: non-empty here, since the violating
        // loop needs the other thread to hold a lock first.
        assert!(!lasso.prefix.is_empty());
        assert!(!lasso.cycle.is_empty());
    }
}
