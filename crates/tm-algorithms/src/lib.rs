//! # tm-algorithms — transactional memory algorithms as transition systems
//!
//! Implementation of §3 of *"Model Checking Transactional Memories"*
//! (Guerraoui, Henzinger, Singh): a uniform formalism for TM algorithms
//! ([`TmAlgorithm`], with conflict function, pending function, extended
//! commands and ⊥/0/1 responses), the paper's four example TMs, the
//! contention-manager product, and the *most general program* semantics
//! that turns a TM algorithm into an automaton over statements.
//!
//! TMs provided:
//!
//! * [`SequentialTm`] — one transaction at a time (paper Alg. 1);
//! * [`TwoPhaseTm`] — two-phase locking (Alg. 2);
//! * [`DstmTm`] — DSTM with ownership stealing (Alg. 3);
//! * [`Tl2Tm`] — TL2 with commit-time locking and version-check
//!   validation (Alg. 4), including the paper's *modified TL2* with split
//!   (non-atomic) validation in either order ([`ValidationStyle`]).
//!
//! Contention managers: [`AggressiveCm`], [`PoliteCm`] (paper), plus the
//! finite [`KarmaCm`] and the deliberately P1-violating [`PastAbortsCm`]
//! (extensions), composed via [`WithContentionManager`].
//!
//! # Examples
//!
//! Build DSTM + aggressive and explore its language for two threads and
//! two variables:
//!
//! ```
//! use tm_algorithms::{most_general_nfa, AggressiveCm, DstmTm, WithContentionManager};
//!
//! let tm = WithContentionManager::new(DstmTm::new(2, 2), AggressiveCm);
//! let explored = most_general_nfa(&tm, 100_000);
//! assert!(explored.num_states() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
#[cfg(test)]
mod conformance;
mod contention;
mod dstm;
mod explore;
mod pack;
mod runner;
mod sequential;
mod tl2;
mod two_phase;

pub use algorithm::{Action, ExtCommand, Step, TmAlgorithm, TmState, MAX_THREADS};
pub use contention::{
    AggressiveCm, CmState, ContentionManager, KarmaCm, PastAbortsCm, PoliteCm, Priorities,
    WithContentionManager,
};
pub use dstm::{DstmState, DstmStatus, DstmTm};
pub use explore::{
    check_pending_invariant, most_general_nfa, MostGeneralRunSource, MostGeneralSource, RunLabel,
};
pub use runner::{execute_schedule, run_statements, Run, RunEntry, ScheduleError};
pub use sequential::{SeqState, SeqStatus, SequentialTm};
pub use tl2::{Tl2State, Tl2Status, Tl2Tm, ValidationStyle};
pub use two_phase::{TwoPhaseState, TwoPhaseTm};
