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
//! * [`Nfa`] with ε-moves and [`Dfa`] with subset-construction
//!   [`Dfa::determinize`] and Moore [`Dfa::minimize`];
//! * an interned-alphabet compiled core: [`Alphabet`] maps labels to
//!   dense `u32` [`LetterId`]s and [`CompiledNfa`] stores transitions in
//!   CSR form grouped by letter (ε segregated) — see `README.md`;
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
//!   BFS runs purely on `(u32 state, u32 letter)` integers.
//!   [`check_inclusion`] wraps the same engine for materialized
//!   automata. The pre-compilation originals are test oracles and A/B
//!   baselines in the dev-only `tm-bench` crate (`tm_bench::oracle`),
//!   not part of this crate. See `README.md` for the engine hierarchy;
//! * antichain-based inclusion and equivalence between nondeterministic
//!   automata ([`check_inclusion_antichain`],
//!   [`check_equivalence_antichain`]) in the style of De Wulf et al.;
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
//! use tm_automata::{check_inclusion, Dfa, Nfa};
//!
//! // Implementation: emits `a` or `b`; specification allows only `a`.
//! let mut imp = Nfa::new();
//! let s = imp.add_state();
//! imp.set_initial(s);
//! imp.add_transition(s, Some('a'), s);
//! imp.add_transition(s, Some('b'), s);
//!
//! let mut spec = Dfa::new(vec!['a', 'b']);
//! let q = spec.add_state();
//! spec.set_initial(q);
//! spec.set_transition(q, &'a', q);
//!
//! let verdict = check_inclusion(&imp, &spec);
//! assert_eq!(verdict.counterexample(), Some(&['b'][..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod antichain;
mod bitset;
mod budget;
mod compiled;
mod dfa;
mod explore;
pub mod fault;
mod fxhash;
mod inclusion;
mod livecheck;
mod nfa;
mod product;

pub use alphabet::{Alphabet, LetterId};
pub use budget::{CancelToken, EngineError, QueryBudget};
pub use antichain::{check_equivalence_antichain, check_inclusion_antichain, EquivalenceResult};
pub use bitset::{BitSet, Iter as BitSetIter};
pub use compiled::{CompiledNfa, EPSILON};
pub use dfa::Dfa;
pub use explore::{
    explore, explore_deterministic, DeterministicTransitionSystem, Explored, TransitionSystem,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use inclusion::{check_inclusion, InclusionResult};
pub use livecheck::{
    CompiledLasso, CompiledRunGraph, EdgeFilter, EdgeMask, LabelClass, LiveScratch, LoopQuery,
    LoopSelection, RunGraphParts, RunGraphSource, MASK_ABORT, MASK_ALL_THREADS, MASK_COMMIT,
    MASK_EMITS, MAX_MASK_THREADS,
};
pub use nfa::{Nfa, StateId};
pub use product::{
    check_inclusion_otf, NfaSource, OtfStats, SpecCache, SpecRows, SuccessorSource, NO_STATE,
};
