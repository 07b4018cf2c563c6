//! # tm-automata — finite automata and graph algorithms
//!
//! The automata-theoretic substrate of the *tm-modelcheck* workspace
//! (reproduction of *"Model Checking Transactional Memories"*, Guerraoui,
//! Henzinger, Singh). All languages in this domain are prefix-closed run
//! languages, so every automaton here has **all states accepting** and a
//! possibly partial transition structure.
//!
//! Provided machinery:
//!
//! * [`Nfa`] with ε-moves and [`Dfa`] — the materialized forms that
//!   [`explore`] / [`explore_deterministic`] build (the paper's
//!   specification sizes come from `tm_spec::DetSpec::to_dfa`);
//!   [`Alphabet`] maps labels to dense `u32` [`LetterId`]s;
//! * on-the-fly state-space exploration of rule-defined systems
//!   ([`TransitionSystem`] / [`explore`],
//!   [`DeterministicTransitionSystem`] / [`explore_deterministic`]);
//! * linear-time inclusion against a deterministic specification by
//!   **on-the-fly product exploration**: one entry point,
//!   [`check_inclusion_otf`], over one specification artifact, the
//!   lazily interned [`SpecCache`] of a [`DeterministicTransitionSystem`]
//!   (a rule system such as `tm_spec::DetSpec`, or a materialized
//!   [`Dfa`]); the implementation side is a [`SuccessorSource`], stepped
//!   lazily — never materialized. Counterexamples are shortest, and the
//!   BFS runs purely on `(u32 state, u32 letter)` integers. The seed
//!   checker it replaced is a test oracle in the dev-only `tm-bench`
//!   crate (`tm_bench::oracle`), not part of this crate, and so are the
//!   tools that validate the specifications themselves (Theorems 2 and
//!   3: subset construction, minimization, the antichain equivalence
//!   check, in `tm_bench::validation`). See `README.md`;
//! * the **compiled liveness engine** ([`CompiledRunGraph`],
//!   [`RunGraphSource`], `livecheck.rs`): run graphs built on the fly
//!   into CSR with per-edge class bitmasks, mask-filtered Tarjan in a
//!   reusable [`LiveScratch`] arena, closed-walk lasso extraction, and a
//!   first-violation scan over independent loop queries
//!   ([`CompiledRunGraph::find_first_loop`]); its reference, the seed's
//!   labelled graphs with per-clone Tarjan, is `tm_bench::oracle` too;
//! * the [`FxHasher`] used by every hot-path hash map in the workspace
//!   ([`FxHashMap`], [`FxHashSet`]).
//!
//! # Examples
//!
//! ```
//! use tm_automata::{
//!     check_inclusion_otf, Dfa, LetterId, QueryBudget, SpecCache, SuccessorSource, EPSILON,
//! };
//!
//! // Implementation: one state that emits `a` (letter 0), `b` (letter 1)
//! // or an internal step.
//! struct Emitter;
//!
//! impl SuccessorSource for Emitter {
//!     type State = ();
//!     type Label = char;
//!     fn initial_states(&self, out: &mut Vec<()>) {
//!         out.push(());
//!     }
//!     fn successors(&self, _: &(), out: &mut Vec<(LetterId, ())>) {
//!         out.extend([(0, ()), (EPSILON, ()), (1, ())]);
//!     }
//!     fn letter(&self, id: LetterId) -> char {
//!         ['a', 'b'][id as usize]
//!     }
//! }
//!
//! // Specification: allows only `a`.
//! let mut spec = Dfa::new(vec!['a', 'b']);
//! let q = spec.add_state();
//! spec.set_initial(q);
//! spec.set_transition(q, &'a', q);
//!
//! let mut cache = SpecCache::new(&spec, spec.letter_ids());
//! let (verdict, _) = check_inclusion_otf(&Emitter, &mut cache, &QueryBudget::unlimited())?;
//! assert_eq!(verdict.counterexample(), Some(&['b'][..]));
//! # Ok::<(), tm_automata::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod bitset;
mod budget;
mod dfa;
mod explore;
pub mod fault;
mod fxhash;
mod livecheck;
mod nfa;
mod product;

pub use alphabet::{Alphabet, LetterId};
pub use budget::{CancelToken, EngineError, QueryBudget};
pub use bitset::{BitSet, Iter as BitSetIter};
pub use dfa::Dfa;
pub use explore::{
    explore, explore_deterministic, DeterministicTransitionSystem, Explored, TransitionSystem,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use livecheck::{
    CompiledLasso, CompiledRunGraph, EdgeFilter, EdgeMask, LabelClass, LiveScratch, LoopQuery,
    LoopSelection, RunGraphParts, RunGraphSource, MASK_ABORT, MASK_ALL_THREADS, MASK_COMMIT,
    MASK_EMITS, MAX_MASK_THREADS,
};
pub use nfa::{Nfa, StateId};
pub use product::{
    check_inclusion_otf, InclusionResult, OtfStats, SpecCache, SpecRows, SuccessorSource, EPSILON,
    NO_STATE,
};
