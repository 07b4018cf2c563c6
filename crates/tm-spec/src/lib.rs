//! # tm-spec — finite-state TM specifications
//!
//! Implementation of §5 of *"Model Checking Transactional Memories"*
//! (Guerraoui, Henzinger, Singh): finite automata whose languages are
//! exactly the strictly-serializable (resp. opaque) transaction histories
//! for a bounded number of threads and variables.
//!
//! * [`DetSpec`] — the deterministic specifications Σᵈ_ss / Σᵈ_op (paper
//!   Alg. 6), based on weak/strong predecessor tracking; its reachable
//!   automaton (`DetSpec::to_dfa`) gives the paper's sizes 3520 / 2272;
//! * [`QuotientSpec`] — [`DetSpec`] with its states interned by a
//!   normal form ([`forget_doomed`] for strict serializability, the
//!   identity for opacity): the language-equal system the
//!   `tm_checker::Verifier` session's product runs over, with the proof
//!   that its product search reports the same shortest counterexample;
//! * [`spec_alphabet`] — the statement alphabet `Ŝ` in canonical order,
//!   the letter list of every specification automaton.
//!
//! The evidence that these automata define the right languages is
//! dev-only and lives in `tm_bench::validation`: the nondeterministic
//! specifications Σ_ss / Σ_op (paper Alg. 5), the bounded-exhaustive
//! comparison against the definition-level checkers of `tm-lang`
//! (Theorem 2) and the antichain equivalence `L(Σ) = L(Σᵈ)` (Theorem 3).
//!
//! # Examples
//!
//! ```
//! use tm_lang::SafetyProperty;
//! use tm_spec::DetSpec;
//!
//! let spec = DetSpec::new(SafetyProperty::StrictSerializability, 2, 2);
//! let (dfa, _) = spec.to_dfa(1_000_000);
//! assert_eq!(dfa.num_states(), 3520);
//! let history: tm_lang::Word = "(r,1)1 (w,1)2 c2 c1".parse()?;
//! assert!(dfa.accepts(history.statements()));
//! # Ok::<(), tm_lang::ParseStatementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod det;
mod quotient;
mod state;

pub use det::{spec_alphabet, DetSpec};
pub use quotient::{forget_doomed, QuotientSpec};
pub use state::{DetPhase, DetState, DetThread, MAX_THREADS};
