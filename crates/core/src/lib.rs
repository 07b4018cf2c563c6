//! # tm-checker — model checking transactional memories
//!
//! The verification core of the *tm-modelcheck* workspace, reproducing
//! *"Model Checking Transactional Memories"* (Guerraoui, Henzinger,
//! Singh; PLDI 2008 / extended version):
//!
//! * **The session API** ([`Verifier`]): the crate's only entry point
//!   for verification queries — one session per instance size owns
//!   build-once artifact caches (interned
//!   specifications, compiled run graphs) and answers every query below
//!   through them, returning one [`Verdict`]: an [`Outcome`] — verified,
//!   a counterexample word, a lasso, reduction evidence, or an abort —
//!   with [`QueryStats`] holding each count and time once.
//! * **Safety** ([`Verifier::check_safety`]): strict serializability and
//!   opacity, decided as language inclusion of the TM algorithm (applied
//!   to the most general program) in the deterministic specification
//!   automaton, with shortest counterexample words.
//! * **Liveness** ([`Verifier::check_liveness`]): obstruction freedom,
//!   livelock freedom and wait freedom, decided by loop (lasso) search in
//!   the run-level transition system of a TM × contention-manager product
//!   — one compiled run graph per TM answers all three properties.
//! * **Structural properties** ([`check_structural`]): bounded-exhaustive
//!   tests of the projection/symmetry/commutativity properties P1–P4 that
//!   the reduction theorems require.
//! * **Reduction methodology** ([`Verifier::verify_with_reduction`]): the
//!   paper's end-to-end argument — check at the (2,2) bound, establish
//!   the structural properties, conclude for all instance sizes.
//! * **Reports** ([`safety_table`], [`liveness_table`]): the paper's
//!   Tables 2 and 3 regenerated from `(TM name, property, verdict)` rows.
//!
//! The seed liveness checker the compiled engine replaced is a test
//! oracle in the dev-only `tm-bench` crate (`tm_bench::oracle`), the
//! differential baseline of `tests/liveness_conformance.rs`; it is not
//! part of this crate.
//!
//! # Examples
//!
//! Verify the paper's headline results in a few lines:
//!
//! ```
//! use tm_checker::Verifier;
//! use tm_lang::{LivenessProperty, SafetyProperty};
//! use tm_algorithms::{AggressiveCm, DstmTm, SequentialTm, WithContentionManager};
//!
//! // Theorem 4: DSTM ensures opacity.
//! let mut safety = Verifier::new(2, 2);
//! assert!(safety.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity).holds());
//! // The opacity specification is interned once, shared by later checks:
//! let verdict = safety.check_safety(&SequentialTm::new(2, 2), SafetyProperty::Opacity);
//! assert!(verdict.holds() && verdict.stats.artifact_cached);
//!
//! // Theorem 6: DSTM + aggressive is obstruction free.
//! let managed = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
//! let mut liveness = Verifier::new(2, 1);
//! assert!(liveness.check_liveness(&managed, LivenessProperty::ObstructionFreedom).holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod liveness;
mod reduction;
mod report;
mod safety;
mod session;
mod structural;

pub use liveness::RunLasso;
pub use reduction::ReductionEvidence;
pub use report::{liveness_table, safety_table, Outcome, QueryStats, Table, Verdict};
pub use safety::DEFAULT_MAX_STATES;
pub use session::{Artifact, ArtifactKey, ArtifactKind, Verifier};
pub use tm_automata::{EngineError, QueryBudget};
pub use structural::{
    check_all_structural, check_structural, StructuralProperty, StructuralReport,
    StructuralViolation,
};
