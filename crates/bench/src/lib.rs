//! # tm-bench — the experiment suite
//!
//! Shared definitions of the paper's experiment roster, used by the
//! Criterion benches (`benches/`) and the `tables` binary that regenerates
//! every table of the paper in one run:
//!
//! ```bash
//! cargo run --release -p tm-bench --bin tables
//! ```
//!
//! Two modules hold code that no query runs:
//!
//! * [`oracle`] — the seed checkers that the production engines
//!   replaced: the ground truth of the workspace's differential test
//!   suites and the baselines of the A/B benches;
//! * [`validation`] — the paper-validation toolkit for Theorems 2 and 3:
//!   the nondeterministic specifications, the bounded-exhaustive oracle
//!   walk, the antichain equivalence check, subset construction and
//!   minimization.
//!
//! This crate is a dev-dependency of the facade's tests only; no
//! production crate depends on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod validation;

use tm_algorithms::{
    most_general_nfa, AggressiveCm, DstmTm, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm,
    TwoPhaseTm, ValidationStyle, WithContentionManager,
};
use tm_automata::Nfa;
use tm_checker::{LivenessVerdict, Verdict, Verifier};
use tm_lang::{LivenessProperty, SafetyProperty, Statement};

/// State-space bound used throughout the experiment suite.
pub const MAX_STATES: usize = 20_000_000;

/// The safety-experiment roster of Table 2: TM name, word-level automaton,
/// and the paper's reported state count.
pub fn table2_roster() -> Vec<(String, Nfa<Statement>, usize)> {
    let modified = WithContentionManager::new(
        Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
        PoliteCm,
    );
    vec![
        named(&SequentialTm::new(2, 2), 3),
        named(&TwoPhaseTm::new(2, 2), 99),
        named(&DstmTm::new(2, 2), 1846),
        named(&Tl2Tm::new(2, 2), 21568),
        named(&modified, 17520),
    ]
}

fn named<A: TmAlgorithm>(tm: &A, paper_states: usize) -> (String, Nfa<Statement>, usize) {
    (tm.name(), most_general_nfa(tm, MAX_STATES).nfa, paper_states)
}

/// The liveness-experiment roster of Table 3 as boxed check thunks
/// (TM construction is cheap; the checks run per property).
pub fn table3_names() -> [&'static str; 4] {
    ["seq", "2PL", "dstm+aggressive", "TL2+polite"]
}

/// Runs a liveness check for one of the [`table3_names`] rows through a
/// [`Verifier`] session at (2, 1): the TM's compiled run graph is built
/// by the session's first query for it and answers the other properties
/// from cache.
///
/// # Panics
///
/// Panics if `name` is not one of the roster names or the session's
/// instance size is not (2, 1).
pub fn table3_check_session(
    verifier: &mut Verifier,
    name: &str,
    property: LivenessProperty,
) -> LivenessVerdict {
    let verdict = match name {
        "seq" => verifier.check_liveness(&SequentialTm::new(2, 1), property),
        "2PL" => verifier.check_liveness(&TwoPhaseTm::new(2, 1), property),
        "dstm+aggressive" => verifier.check_liveness(
            &WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm),
            property,
        ),
        "TL2+polite" => verifier.check_liveness(
            &WithContentionManager::new(Tl2Tm::new(2, 1), PoliteCm),
            property,
        ),
        other => panic!("unknown Table 3 row: {other}"),
    };
    verdict
        .into_liveness()
        .expect("liveness query returns a liveness verdict")
}

/// One TM × contention-manager liveness case of [`liveness_roster`]: the
/// concrete TM type erased behind check thunks so heterogeneous rosters
/// fit in one list.
pub struct LivenessCase {
    /// Display name (`tm.name()`, e.g. `"dstm+aggressive"`).
    pub name: String,
    threads: usize,
    vars: usize,
    tm: Box<dyn ErasedLiveness>,
}

impl LivenessCase {
    fn new<A: TmAlgorithm + 'static>(tm: A) -> Self {
        LivenessCase {
            name: tm.name(),
            threads: tm.threads(),
            vars: tm.vars(),
            tm: Box::new(tm),
        }
    }

    /// Runs the compiled liveness engine through a fresh [`Verifier`]
    /// session (so the run graph is built anew).
    pub fn check(&self, property: LivenessProperty) -> LivenessVerdict {
        let mut verifier = Verifier::new(self.threads, self.vars);
        self.check_session(&mut verifier, property)
            .into_liveness()
            .expect("liveness query returns a liveness verdict")
    }

    /// Runs the query through a [`Verifier`] session: the first query for
    /// this TM compiles its run graph into the session cache, later ones
    /// answer from it (`verdict.stats` records which happened).
    pub fn check_session(
        &self,
        verifier: &mut Verifier,
        property: LivenessProperty,
    ) -> Verdict {
        self.tm.check_session(verifier, property)
    }

    /// Runs the seed reference checker
    /// ([`oracle::check_liveness_reference`]).
    pub fn check_reference(&self, property: LivenessProperty) -> LivenessVerdict {
        self.tm.check_reference(property)
    }
}

/// Object-safe shim over concrete TM types (the [`TmAlgorithm`] trait has
/// an associated state type and cannot be boxed directly).
trait ErasedLiveness {
    fn check_session(&self, verifier: &mut Verifier, property: LivenessProperty) -> Verdict;
    fn check_reference(&self, property: LivenessProperty) -> LivenessVerdict;
}

impl<A: TmAlgorithm> ErasedLiveness for A {
    fn check_session(&self, verifier: &mut Verifier, property: LivenessProperty) -> Verdict {
        verifier.check_liveness(self, property)
    }

    fn check_reference(&self, property: LivenessProperty) -> LivenessVerdict {
        oracle::check_liveness_reference(self, property)
    }
}

/// One TM safety case of [`table2_cases`]: the concrete TM type erased
/// behind a session-check thunk (the safety analogue of
/// [`LivenessCase`]).
pub struct SafetyCase {
    /// Display name (`tm.name()`).
    pub name: String,
    /// The paper's reported Table 2 state count for this TM.
    pub paper_states: usize,
    tm: Box<dyn ErasedSafety>,
}

impl SafetyCase {
    fn new<A: TmAlgorithm + 'static>(tm: A, paper_states: usize) -> Self {
        SafetyCase {
            name: tm.name(),
            paper_states,
            tm: Box::new(tm),
        }
    }

    /// Runs the safety query through a [`Verifier`] session (the
    /// specification artifact is shared across every case of the same
    /// property).
    pub fn check_session(&self, verifier: &mut Verifier, property: SafetyProperty) -> Verdict {
        self.tm.check_session(verifier, property)
    }
}

/// Object-safe shim for [`SafetyCase`].
trait ErasedSafety {
    fn check_session(&self, verifier: &mut Verifier, property: SafetyProperty) -> Verdict;
}

impl<A: TmAlgorithm> ErasedSafety for A {
    fn check_session(&self, verifier: &mut Verifier, property: SafetyProperty) -> Verdict {
        verifier.check_safety(self, property)
    }
}

/// The Table 2 TMs as session-checkable cases, in the same order (and
/// with the same paper state counts) as [`table2_roster`].
pub fn table2_cases() -> Vec<SafetyCase> {
    let modified = WithContentionManager::new(
        Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
        PoliteCm,
    );
    vec![
        SafetyCase::new(SequentialTm::new(2, 2), 3),
        SafetyCase::new(TwoPhaseTm::new(2, 2), 99),
        SafetyCase::new(DstmTm::new(2, 2), 1846),
        SafetyCase::new(Tl2Tm::new(2, 2), 21568),
        SafetyCase::new(modified, 17520),
    ]
}

/// Short tag of a liveness property (`"of"` / `"lf"` / `"wf"`) for table
/// and JSON rows.
pub fn liveness_property_tag(property: LivenessProperty) -> &'static str {
    match property {
        LivenessProperty::ObstructionFreedom => "of",
        LivenessProperty::LivelockFreedom => "lf",
        LivenessProperty::WaitFreedom => "wf",
    }
}

/// The liveness roster at instance size `(n, k)`: every TM of the paper
/// crossed with every contention manager (bare, aggressive, polite) — the
/// paper's Table 3 rows are the subset
/// `{seq, 2PL, dstm+aggressive, TL2+polite}` at `(2, 1)`.
pub fn liveness_roster(n: usize, k: usize) -> Vec<LivenessCase> {
    let mut roster = Vec::new();
    macro_rules! push_combos {
        ($tm:expr) => {
            roster.push(LivenessCase::new($tm));
            roster.push(LivenessCase::new(WithContentionManager::new($tm, AggressiveCm)));
            roster.push(LivenessCase::new(WithContentionManager::new($tm, PoliteCm)));
        };
    }
    push_combos!(SequentialTm::new(n, k));
    push_combos!(TwoPhaseTm::new(n, k));
    push_combos!(DstmTm::new(n, k));
    push_combos!(Tl2Tm::new(n, k));
    roster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper_rows() {
        let roster = table2_roster();
        assert_eq!(roster.len(), 5);
        assert_eq!(roster[0].0, "sequential");
        assert_eq!(roster[0].1.num_states(), 3);
        assert_eq!(roster[4].0, "modified-TL2+polite");
    }

    #[test]
    #[should_panic(expected = "unknown Table 3 row")]
    fn unknown_row_panics() {
        let mut verifier = Verifier::new(2, 1);
        let _ = table3_check_session(&mut verifier, "nope", LivenessProperty::ObstructionFreedom);
    }

    #[test]
    fn table2_cases_align_with_the_materialized_roster() {
        let cases = table2_cases();
        let roster = table2_roster();
        assert_eq!(cases.len(), roster.len());
        for (case, (name, _, paper)) in cases.iter().zip(&roster) {
            assert_eq!(&case.name, name);
            assert_eq!(case.paper_states, *paper);
        }
    }

    #[test]
    fn session_check_matches_one_shot_on_a_sample() {
        let mut verifier = Verifier::new(2, 1);
        let roster = liveness_roster(2, 1);
        let case = &roster[0];
        for property in LivenessProperty::all() {
            let session = case.check_session(&mut verifier, property);
            let one_shot = case.check(property);
            assert_eq!(session.holds(), one_shot.holds(), "{property}");
        }
        assert_eq!(verifier.builds(), 1);
    }

    #[test]
    fn liveness_roster_is_the_full_tm_times_cm_product() {
        let roster = liveness_roster(2, 1);
        assert_eq!(roster.len(), 12);
        let names: Vec<&str> = roster.iter().map(|c| c.name.as_str()).collect();
        for expected in ["sequential", "dstm+aggressive", "TL2+polite", "2PL+aggressive"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
    }
}
