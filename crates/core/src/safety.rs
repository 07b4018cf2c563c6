//! Safety verification of TM algorithms (§5.4): language inclusion of the
//! TM applied to the most general program in the deterministic
//! specification of the property.
//!
//! By the reduction theorem (§4, Theorem 1), verifying a structurally
//! well-behaved TM for two threads and two variables verifies it for all
//! programs; and since `L(A_cm) ⊆ L(A)` for every contention manager,
//! verifying the bare TM covers every managed variant.
//!
//! The inclusion itself runs through [`crate::Verifier::check_safety`]
//! on the **on-the-fly product engine**
//! ([`tm_automata::check_inclusion_otf`]): the TM transition system is
//! never materialized into an NFA — its states are stepped lazily as the
//! product BFS reaches them, against the session's lazily interned
//! specification ([`tm_automata::SpecCache`] over
//! [`tm_spec::QuotientSpec`], the deterministic specification interned
//! by a normal form). This module holds the verdict types.

use std::time::Duration;

use tm_lang::{SafetyProperty, Word};

/// Outcome of a safety check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SafetyOutcome {
    /// `L(A) ⊆ L(Σᵈ_π)` — the TM ensures the property (for this instance
    /// size; by Theorem 1 for all sizes if the TM is structurally
    /// well-behaved).
    Verified,
    /// A word produced by the TM that violates the property. The word has
    /// been re-checked against the definition-level oracle.
    Violation(Word),
}

/// Result of a [`crate::Verifier::check_safety`] query, with the
/// statistics reported in the paper's Table 2.
#[derive(Clone, Debug)]
pub struct SafetyVerdict {
    /// TM algorithm name.
    pub tm_name: String,
    /// The property checked.
    pub property: SafetyProperty,
    /// TM states discovered by the on-the-fly check: the full reachable
    /// state count (Table 2 "Size") when the property holds, the explored
    /// portion when a violation cut the search short.
    pub tm_states: usize,
    /// Specification keys the product touched: the normal-form keys
    /// ([`tm_spec::QuotientSpec`]) the session's lazily interned
    /// specification holds after this query (cumulative over the
    /// session's earlier queries against the same property and size).
    /// For strict serializability a key stands for every state that
    /// differs only in a doomed thread's record; for opacity keys are
    /// states. Not the full deterministic automaton's size, which
    /// `tm_spec::DetSpec::to_dfa` reports.
    pub spec_states: usize,
    /// Product pairs `(TM state, specification key)` explored by the
    /// inclusion check.
    pub product_states: usize,
    /// Wall-clock time of the inclusion check (excluding automaton
    /// construction).
    pub check_time: Duration,
    /// Wall-clock time of the whole pipeline.
    pub total_time: Duration,
    /// The verdict.
    pub outcome: SafetyOutcome,
}

impl SafetyVerdict {
    /// `true` if the property was verified.
    pub fn holds(&self) -> bool {
        matches!(self.outcome, SafetyOutcome::Verified)
    }

    /// The counterexample word, if any.
    pub fn counterexample(&self) -> Option<&Word> {
        match &self.outcome {
            SafetyOutcome::Violation(w) => Some(w),
            SafetyOutcome::Verified => None,
        }
    }
}

/// Default bound on reachable TM / specification states.
pub const DEFAULT_MAX_STATES: usize = 10_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verifier;
    use tm_algorithms::{
        DstmTm, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm, TwoPhaseTm, ValidationStyle,
        WithContentionManager,
    };
    use tm_lang::is_strictly_serializable;

    /// One safety query through a fresh default session.
    fn check<A: TmAlgorithm>(tm: &A, property: SafetyProperty) -> SafetyVerdict {
        Verifier::new(tm.threads(), tm.vars())
            .check_safety(tm, property)
            .into_safety()
            .expect("safety query")
    }

    #[test]
    fn sequential_tm_is_opaque() {
        let verdict = check(&SequentialTm::new(2, 2), SafetyProperty::Opacity);
        assert!(verdict.holds());
        assert_eq!(verdict.tm_states, 3);
    }

    #[test]
    fn two_phase_is_opaque() {
        let verdict = check(&TwoPhaseTm::new(2, 2), SafetyProperty::Opacity);
        assert!(verdict.holds(), "{:?}", verdict.counterexample());
    }

    #[test]
    fn dstm_is_strictly_serializable_and_opaque() {
        for p in SafetyProperty::all() {
            let verdict = check(&DstmTm::new(2, 2), p);
            assert!(verdict.holds(), "{p:?}: {:?}", verdict.counterexample());
        }
    }

    #[test]
    fn modified_tl2_with_polite_has_counterexample() {
        let tm = WithContentionManager::new(
            Tl2Tm::with_validation(2, 2, ValidationStyle::RValidateThenChkLock),
            PoliteCm,
        );
        let verdict = check(&tm, SafetyProperty::StrictSerializability);
        let word = verdict.counterexample().expect("must be unsafe");
        assert!(!is_strictly_serializable(word));
        // The paper's w1 has length 6; BFS returns a shortest violation.
        assert!(word.len() <= 6, "counterexample too long: {word}");
    }
}
