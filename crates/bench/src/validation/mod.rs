//! The paper-validation toolkit: the evidence that the deterministic
//! specifications the `Verifier` checks against define the right
//! languages (§5.3). No query runs any of it; the `tables` bin, the
//! benches and the specification suites (`tests/spec_correctness.rs`)
//! do.
//!
//! * [`NondetSpec`] — the natural nondeterministic specifications Σ_ss /
//!   Σ_op (paper Alg. 5), in which each transaction guesses its
//!   serialization point with an internal ε-move;
//! * [`cross_validate`] — Theorem 2: bounded-exhaustive comparison of
//!   specification automata against the definition-level checkers of
//!   `tm-lang`, several automata per walk;
//! * [`check_inclusion_antichain`] / [`check_equivalence_antichain`] —
//!   Theorem 3, `L(Σ) = L(Σᵈ)`, by the antichain algorithm of De Wulf et
//!   al. (the seed implementation; the workspace's only antichain);
//! * [`determinize`], [`minimize`] and [`canonical_dfa`] — subset
//!   construction and Moore minimization, and the canonical automaton
//!   they derive from Σ_π, an independent construction of its language;
//! * [`NfaSource`] and [`check_materialized`] — a materialized [`Nfa`]
//!   fed to the production product engine
//!   (`tm_automata::check_inclusion_otf`), so the differential suites
//!   can run random and hand-built automata through it.
//!
//! [`Nfa`]: tm_automata::Nfa

mod antichain;
mod automata;
mod cross;
mod nondet;

pub use antichain::{check_equivalence_antichain, check_inclusion_antichain, EquivalenceResult};
pub use automata::{check_materialized, determinize, minimize, NfaSource};
pub use cross::{canonical_dfa, cross_validate, CrossValidation};
pub use nondet::{NdPhase, NdState, NdThread, NondetSpec};
