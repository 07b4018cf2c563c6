//! Test oracles: the seed implementations of the checkers, kept as the
//! ground truth of the differential suites and the baselines of the A/B
//! benches. No checker calls them.
//!
//! * [`check_inclusion_reference`] — `L(nfa) ⊆ L(dfa)` by label-hashing
//!   product BFS; the sequential product engine
//!   (`tm_automata::check_inclusion_otf`) reproduces its verdicts,
//!   shortest counterexample words and `product_states` exactly.
//! * [`LabeledGraph`], [`strongly_connected_components`] and
//!   [`closed_walk_through`] — boxed labelled edge lists, iterative
//!   Tarjan and closed-walk stitching, the reference for the compiled
//!   liveness engine's mask-filtered passes.
//! * [`most_general_run_graph`] and [`check_liveness_reference`] — the
//!   run-level graph of a TM materialized as a [`LabeledGraph`], and the
//!   liveness checker that clones a filtered subgraph per pass; the
//!   `Verifier`'s compiled engine returns the same verdicts and lassos.

mod graph;
mod inclusion;
mod liveness;

pub use graph::{closed_walk_through, strongly_connected_components, LabeledGraph, Sccs};
pub(crate) use inclusion::word_to;
pub use inclusion::check_inclusion_reference;
pub use liveness::{check_liveness_reference, most_general_run_graph};
