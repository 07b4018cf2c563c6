//! Orchestration of the paper's verification methodology (§4, §6): apply
//! the reduction theorem by combining the finite check at the reduction
//! bound with structural-property evidence and optional larger-instance
//! spot checks.
//!
//! The theorems:
//!
//! * **Theorem 1** — if a TM satisfies P1–P4 and ensures (2,2) strict
//!   serializability (resp. opacity), it ensures the property for every
//!   number of threads and variables.
//! * **Theorem 5** — if a TM satisfies P5–P6 and ensures (2,1)
//!   obstruction freedom, it ensures obstruction freedom generally.
//!
//! The structural properties are established here as bounded-exhaustive
//! *evidence* (violations are proofs of failure; absence up to the bound
//! is not a proof of satisfaction — the paper establishes them by manual
//! inspection of each algorithm).

use crate::safety::SafetyVerdict;
use crate::structural::StructuralReport;

/// Evidence assembled by [`crate::Verifier::verify_with_reduction`].
#[derive(Clone, Debug)]
pub struct ReductionEvidence {
    /// The safety verdict at the reduction bound (2, 2).
    pub base_verdict: SafetyVerdict,
    /// Structural-property reports (P1–P4 flavors) at (2, 2).
    pub structural: Vec<StructuralReport>,
    /// Additional inclusion checks at larger instance sizes.
    pub spot_checks: Vec<SafetyVerdict>,
}

impl ReductionEvidence {
    /// `true` if the base check passed, no structural violation was
    /// found, and all spot checks passed — the methodology's conclusion
    /// that the TM ensures the property for **all** `(n, k)`.
    pub fn concludes(&self) -> bool {
        self.base_verdict.holds()
            && self.structural.iter().all(StructuralReport::holds)
            && self.spot_checks.iter().all(SafetyVerdict::holds)
    }
}

#[cfg(test)]
mod tests {
    use crate::Verifier;
    use tm_algorithms::{SequentialTm, TwoPhaseTm};
    use tm_lang::SafetyProperty;

    #[test]
    fn sequential_reduction_concludes() {
        let verdict = Verifier::new(2, 2).verify_with_reduction(
            SequentialTm::new,
            SafetyProperty::Opacity,
            4,
            &[(2, 1), (3, 1), (3, 2)],
        );
        let evidence = verdict.into_reduction().expect("reduction query");
        assert!(evidence.concludes());
        assert_eq!(evidence.spot_checks.len(), 3);
    }

    #[test]
    fn two_phase_reduction_concludes_with_spot_checks() {
        let verdict = Verifier::new(2, 2).verify_with_reduction(
            TwoPhaseTm::new,
            SafetyProperty::StrictSerializability,
            4,
            &[(2, 1), (2, 3), (3, 2)],
        );
        assert!(verdict.into_reduction().expect("reduction query").concludes());
    }
}
