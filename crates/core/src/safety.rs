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
//! by a normal form). A violation comes back as
//! [`crate::Outcome::Counterexample`].

/// Default bound on reachable TM / specification states.
pub const DEFAULT_MAX_STATES: usize = 10_000_000;

#[cfg(test)]
mod tests {
    use crate::{Verdict, Verifier};
    use tm_algorithms::{
        DstmTm, PoliteCm, SequentialTm, Tl2Tm, TmAlgorithm, TwoPhaseTm, ValidationStyle,
        WithContentionManager,
    };
    use tm_lang::{is_strictly_serializable, SafetyProperty};

    /// One safety query through a fresh default session.
    fn check<A: TmAlgorithm>(tm: &A, property: SafetyProperty) -> Verdict {
        Verifier::new(tm.threads(), tm.vars()).check_safety(tm, property)
    }

    #[test]
    fn sequential_tm_is_opaque() {
        let verdict = check(&SequentialTm::new(2, 2), SafetyProperty::Opacity);
        assert!(verdict.holds());
        assert_eq!(verdict.stats.tm_states, 3);
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
