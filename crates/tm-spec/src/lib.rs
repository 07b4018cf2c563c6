//! # tm-spec — finite-state TM specifications
//!
//! Implementation of §5 of *"Model Checking Transactional Memories"*
//! (Guerraoui, Henzinger, Singh): finite automata whose languages are
//! exactly the strictly-serializable (resp. opaque) transaction histories
//! for a bounded number of threads and variables.
//!
//! * [`NondetSpec`] — the natural nondeterministic specifications Σ_ss /
//!   Σ_op (paper Alg. 5), in which each transaction guesses its
//!   serialization point with an internal ε-move;
//! * [`DetSpec`] — the deterministic specifications Σᵈ_ss / Σᵈ_op (paper
//!   Alg. 6), based on weak/strong predecessor tracking; its reachable
//!   automaton (`DetSpec::to_dfa`) gives the paper's sizes 3520 / 2272;
//! * [`QuotientSpec`] — [`DetSpec`] with its states interned by a
//!   normal form ([`forget_doomed`] for strict serializability, the
//!   identity for opacity): the language-equal system the
//!   `tm_checker::Verifier` session's product runs over, with the proof
//!   that its product search reports the same shortest counterexample;
//! * [`canonical_dfa`] — a determinized + minimized automaton derived
//!   from the nondeterministic specification (language-equal by
//!   construction), used as an independently constructed reference;
//! * [`cross_validate`] — bounded-exhaustive comparison of any
//!   specification automaton against the definition-level checkers of
//!   `tm-lang`.
//!
//! # Examples
//!
//! ```
//! use tm_lang::SafetyProperty;
//! use tm_spec::NondetSpec;
//!
//! let spec = NondetSpec::new(SafetyProperty::StrictSerializability, 2, 2);
//! let explored = spec.to_nfa(1_000_000);
//! let history: tm_lang::Word = "(r,1)1 (w,1)2 c2 c1".parse()?;
//! assert!(explored.nfa.accepts(history.statements()));
//! # Ok::<(), tm_lang::ParseStatementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod det;
mod nondet;
mod quotient;
mod state;
mod validate;

pub use canonical::{canonical_dfa, spec_alphabet};
pub use det::DetSpec;
pub use nondet::NondetSpec;
pub use quotient::{forget_doomed, QuotientSpec};
pub use state::{DetPhase, DetState, DetThread, NdPhase, NdState, NdThread, MAX_THREADS};
pub use validate::cross_validate;
