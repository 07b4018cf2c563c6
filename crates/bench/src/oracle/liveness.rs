//! The seed liveness checker: the run-level transition graph of a TM on
//! the most general program, materialized as a boxed labelled edge list,
//! with one cloned filtered subgraph and one Tarjan per property pass.

use std::time::Instant;

use tm_algorithms::{RunLabel, TmAlgorithm};
use tm_automata::{explore, QueryBudget, TransitionSystem};
use tm_checker::{Outcome, QueryStats, RunLasso, Verdict, DEFAULT_MAX_STATES};
use tm_lang::{LivenessProperty, ThreadId};

use super::graph::{closed_walk_through, strongly_connected_components, LabeledGraph, Sccs};

/// Run-level view of the most general program: every atomic step of
/// every thread and enabled command, in `thread_ids` × `enabled_commands`
/// × `steps_into` order, is a labelled edge.
struct RunLevel<'a, A>(&'a A);

impl<A: TmAlgorithm> TransitionSystem for RunLevel<'_, A> {
    type State = A::State;
    type Label = RunLabel;

    fn initial(&self) -> A::State {
        self.0.initial_state()
    }

    fn successors(&self, state: &A::State, out: &mut Vec<(Option<RunLabel>, A::State)>) {
        let mut steps = Vec::new();
        for thread in self.0.thread_ids() {
            for command in self.0.enabled_commands(state, thread) {
                self.0.steps_into(state, command, thread, &mut steps);
                for step in steps.drain(..) {
                    let label = RunLabel {
                        thread,
                        command,
                        action: step.action,
                    };
                    out.push((Some(label), step.next));
                }
            }
        }
    }
}

/// The run-level transition graph of the TM on the most general program,
/// plus the interned TM states. State numbering and edge order are those
/// of `tm_automata::CompiledRunGraph::build` over
/// `tm_algorithms::MostGeneralRunSource`.
///
/// # Panics
///
/// Panics if the reachable state space exceeds `max_states`.
pub fn most_general_run_graph<A: TmAlgorithm>(
    tm: &A,
    max_states: usize,
) -> (LabeledGraph<RunLabel>, Vec<A::State>) {
    let explored = explore(&RunLevel(tm), &QueryBudget::new(max_states))
        .unwrap_or_else(|error| panic!("run-level exploration failed: {error}"));
    let mut graph = LabeledGraph::new(explored.num_states());
    for from in 0..explored.num_states() {
        for (label, to) in explored.nfa.transitions_from(from) {
            let label = label.expect("run-level edges are always labelled");
            graph.add_edge(from, label, *to);
        }
    }
    (graph, explored.states)
}

/// The seed implementation of `tm_checker::Verifier::check_liveness`:
/// explores the run graph into a boxed labelled edge list, then
/// **clones** a filtered subgraph and reruns Tarjan for every per-thread
/// / per-subset pass — `2^n` graph copies for the livelock check alone,
/// plus `O(E)` edge scans per required-edge query (`find_cyclic_edge`).
/// It returns the engine's verdicts, lassos and `states_explored`; the
/// whole check is its `search_time`.
pub fn check_liveness_reference<A: TmAlgorithm>(
    tm: &A,
    property: LivenessProperty,
) -> Verdict {
    let start = Instant::now();
    let (graph, states) = most_general_run_graph(tm, DEFAULT_MAX_STATES);
    let lasso = match property {
        LivenessProperty::ObstructionFreedom => check_obstruction(tm, &graph),
        LivenessProperty::LivelockFreedom => check_livelock(tm, &graph),
        LivenessProperty::WaitFreedom => check_wait(tm, &graph),
    };
    Verdict {
        outcome: lasso.map_or(Outcome::Verified, Outcome::Lasso),
        stats: QueryStats {
            states_explored: states.len(),
            search_time: start.elapsed(),
            ..QueryStats::default()
        },
    }
}

/// Finds a loop in `filtered` containing one edge of each required kind,
/// and wraps it into a lasso with a shortest prefix from the initial
/// state through the *full* graph.
fn build_lasso(
    full: &LabeledGraph<RunLabel>,
    filtered: &LabeledGraph<RunLabel>,
    required: Vec<(usize, RunLabel, usize)>,
) -> Option<RunLasso> {
    let walk = closed_walk_through(filtered, &required)?;
    let entry = walk.first()?.0;
    let prefix_edges = full.shortest_path_to(0, |s| s == entry)?;
    Some(RunLasso {
        prefix: prefix_edges.into_iter().map(|(_, l, _)| l).collect(),
        cycle: walk.into_iter().map(|(_, l, _)| l).collect(),
    })
}

/// Obstruction freedom: for each thread `t`, search the subgraph of
/// `t`-only, non-commit edges for an SCC containing an abort edge of `t`.
fn check_obstruction<A: TmAlgorithm>(
    tm: &A,
    graph: &LabeledGraph<RunLabel>,
) -> Option<RunLasso> {
    for t in tm.thread_ids() {
        let filtered = graph.filtered(|_, l, _| l.thread == t && !l.is_commit());
        let sccs = strongly_connected_components(&filtered);
        if let Some(edge) = find_cyclic_edge(&filtered, &sccs, |l| l.is_abort()) {
            if let Some(lasso) = build_lasso(graph, &filtered, vec![edge]) {
                return Some(lasso);
            }
        }
    }
    None
}

/// Livelock freedom: for each non-empty subset `T'` of threads, search the
/// subgraph of `T'`-edges without commits for an SCC containing an abort
/// edge of every thread in `T'`.
fn check_livelock<A: TmAlgorithm>(
    tm: &A,
    graph: &LabeledGraph<RunLabel>,
) -> Option<RunLasso> {
    let n = tm.threads();
    for subset in 1u32..(1 << n) {
        let in_subset = |t: ThreadId| subset & (1 << t.index()) != 0;
        let filtered = graph.filtered(|_, l, _| in_subset(l.thread) && !l.is_commit());
        let sccs = strongly_connected_components(&filtered);
        // Group cyclic abort edges per component, then look for a
        // component covering every thread of the subset.
        'component: for comp in 0..sccs.count() {
            let mut required = Vec::new();
            for t in tm.thread_ids().filter(|&t| in_subset(t)) {
                match find_cyclic_edge_in(&filtered, &sccs, comp, |l| l.is_abort() && l.thread == t)
                {
                    Some(edge) => required.push(edge),
                    None => continue 'component,
                }
            }
            if let Some(lasso) = build_lasso(graph, &filtered, required) {
                return Some(lasso);
            }
        }
    }
    None
}

/// Wait freedom: for each thread `t`, search the subgraph without
/// `(commit, t)` completions for an SCC containing a word-level statement
/// of `t`.
fn check_wait<A: TmAlgorithm>(
    tm: &A,
    graph: &LabeledGraph<RunLabel>,
) -> Option<RunLasso> {
    for t in tm.thread_ids() {
        let filtered = graph.filtered(|_, l, _| !(l.thread == t && l.is_commit()));
        let sccs = strongly_connected_components(&filtered);
        if let Some(edge) = find_cyclic_edge(&filtered, &sccs, |l| {
            l.thread == t && l.statement().is_some()
        }) {
            if let Some(lasso) = build_lasso(graph, &filtered, vec![edge]) {
                return Some(lasso);
            }
        }
    }
    None
}

/// An edge matching `want` whose endpoints share an SCC (i.e. an edge on
/// some cycle), if any: a full `O(E)` scan per query.
fn find_cyclic_edge<F: Fn(&RunLabel) -> bool>(
    g: &LabeledGraph<RunLabel>,
    sccs: &Sccs,
    want: F,
) -> Option<(usize, RunLabel, usize)> {
    g.edges()
        .find(|(from, l, to)| want(l) && sccs.same_component(*from, *to))
        .map(|(from, l, to)| (from, *l, to))
}

/// Like [`find_cyclic_edge`], restricted to one component.
fn find_cyclic_edge_in<F: Fn(&RunLabel) -> bool>(
    g: &LabeledGraph<RunLabel>,
    sccs: &Sccs,
    component: usize,
    want: F,
) -> Option<(usize, RunLabel, usize)> {
    g.edges()
        .find(|(from, l, to)| {
            want(l) && sccs.component_of(*from) == component && sccs.component_of(*to) == component
        })
        .map(|(from, l, to)| (from, *l, to))
}
