//! Differential conformance harness for the liveness checker pair: the
//! compiled engine (`Verifier::check_liveness`, masked CSR passes over
//! one run graph) must agree with the seed reference
//! (`tm_bench::oracle::check_liveness_reference`, cloned filtered
//! subgraphs) on **every** Table 3 TM × contention-manager × property
//! combination — verdict, run-level lasso, word-level lasso projection,
//! and Table 3 cycle notation. The engine's run graph has the reference's
//! state numbering and edge order, which is what makes the lassos agree.
//!
//! A seeded random-graph fuzz additionally pins the engine's mask-filtered
//! Tarjan to the reference cloned-subgraph SCC decomposition on
//! adversarial shapes, component indices included; the reference graph
//! algorithms themselves are pinned on small hand-built graphs.

use rand::{rngs::StdRng, Rng, SeedableRng};

use tm_bench::liveness_roster;
use tm_bench::oracle::{
    closed_walk_through, most_general_run_graph, strongly_connected_components, LabeledGraph,
};
use tm_modelcheck::algorithms::{MostGeneralRunSource, RunLabel, TwoPhaseTm};
use tm_modelcheck::automata::{
    CompiledRunGraph, EdgeFilter, LabelClass, LiveScratch, LoopQuery, LoopSelection, QueryBudget,
    RunGraphSource, MASK_ABORT, MASK_ALL_THREADS, MASK_COMMIT,
};
use tm_modelcheck::checker::{Verdict, Verifier};
use tm_modelcheck::lang::LivenessProperty;

/// Asserts engine ≡ reference on one verdict pair: outcome, state count,
/// run-level lasso, word projection, and Table 3 notation.
fn assert_conforms(engine: &Verdict, reference: &Verdict, context: &str) {
    assert_eq!(engine.holds(), reference.holds(), "{context}: verdict");
    assert_eq!(
        engine.stats.states_explored, reference.stats.states_explored,
        "{context}: run-graph state count"
    );
    match (engine.lasso(), reference.lasso()) {
        (None, None) => {}
        (Some(e), Some(r)) => {
            assert_eq!(e, r, "{context}: run-level lasso");
            assert_eq!(
                e.to_word_lasso(),
                r.to_word_lasso(),
                "{context}: word-level projection"
            );
            assert_eq!(
                e.cycle_notation(),
                r.cycle_notation(),
                "{context}: Table 3 notation"
            );
        }
        (e, r) => panic!("{context}: engine {e:?} vs reference {r:?}"),
    }
}

/// All Table 3 TM × manager × property combinations at (2, 1): the engine
/// agrees with the seed reference, and every violation is confirmed by
/// the word-level property oracle.
#[test]
fn table3_engine_matches_reference() {
    for case in liveness_roster(2, 1) {
        for property in LivenessProperty::all() {
            let reference = case.check_reference(property);
            if let Some(lasso) = reference.lasso() {
                let word = lasso.to_word_lasso().expect("TM loops emit statements");
                assert!(
                    !property.holds(&word),
                    "{} / {property}: oracle accepts {word}",
                    case.name
                );
            }
            let engine = case.check(property);
            let context = format!("{} / {property}", case.name);
            assert_conforms(&engine, &reference, &context);
        }
    }
}

/// Session reuse: a [`Verifier`] answering all three liveness properties
/// of a TM from **one** cached run graph must yield verdicts, lassos,
/// word projections, and Table 3 cycle notations bit-identical to three
/// queries on fresh sessions, over the full (2, 1) TM × manager roster.
#[test]
fn session_reuse_matches_one_shot() {
    for case in liveness_roster(2, 1) {
        let mut verifier = Verifier::new(2, 1);
        for property in LivenessProperty::all() {
            let session = case.check_session(&mut verifier, property);
            let one_shot = case.check(property);
            let context = format!("{} / {property} (session)", case.name);
            assert_conforms(&session, &one_shot, &context);
        }
        assert_eq!(
            verifier.builds(),
            1,
            "{}: three properties must share one compiled run graph",
            case.name
        );
    }
}

/// The engine's run graph numbers states and enumerates edges exactly
/// like the reference's materialized graph — lasso parity depends on it.
#[test]
fn run_source_matches_materialized_run_graph() {
    let tm = TwoPhaseTm::new(2, 2);
    let (graph, states) = most_general_run_graph(&tm, 10_000);
    let (compiled, compiled_states) =
        CompiledRunGraph::build(&MostGeneralRunSource::new(&tm), 10_000).unwrap();
    assert_eq!(states, compiled_states);
    let seed_edges: Vec<(usize, RunLabel, usize)> =
        graph.edges().map(|(f, l, t)| (f, *l, t)).collect();
    let engine_edges: Vec<(usize, RunLabel, usize)> =
        compiled.edges().map(|(f, l, t)| (f, *l, t)).collect();
    assert_eq!(seed_edges, engine_edges);
}

/// The (3, 1) instance exercises the 7-subset livelock scan and
/// 3-thread masks; the reference still copes at this size, so pin the
/// engine to it here too.
#[test]
fn three_thread_instance_matches_reference() {
    for case in liveness_roster(3, 1) {
        for property in LivenessProperty::all() {
            let reference = case.check_reference(property);
            let engine = case.check(property);
            let context = format!("{} (3,1) / {property}", case.name);
            assert_conforms(&engine, &reference, &context);
        }
    }
}

// ---------------------------------------------------------------------
// Mask-filtered Tarjan fuzz: random graphs, random filters — the masked
// decomposition must equal the reference (clone the filtered subgraph,
// run the original Tarjan) exactly, component indices included.

/// A random-graph label carrying its own class bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct FuzzLabel {
    id: u16,
    thread: u8,
    commit: bool,
    abort: bool,
}

/// Explicit adjacency as a [`RunGraphSource`] (state 0 initial; only the
/// part reachable from it is compiled, mirroring real run graphs).
struct FuzzSource {
    succ: Vec<Vec<(FuzzLabel, u32)>>,
}

impl RunGraphSource for FuzzSource {
    type State = u32;
    type Label = FuzzLabel;

    fn initial_state(&self) -> u32 {
        0
    }

    fn successors(&self, state: &u32, out: &mut Vec<(FuzzLabel, u32)>) {
        out.extend(self.succ[*state as usize].iter().copied());
    }

    fn classify(&self, label: &FuzzLabel) -> LabelClass {
        LabelClass {
            thread: label.thread as usize,
            is_commit: label.commit,
            is_abort: label.abort,
            emits_statement: label.commit || label.abort,
        }
    }
}

fn random_source(rng: &mut StdRng) -> FuzzSource {
    let states = 1 + rng.gen_range(0..12);
    let mut succ: Vec<Vec<(FuzzLabel, u32)>> = (0..states).map(|_| Vec::new()).collect();
    let edges = rng.gen_range(0..40);
    for id in 0..edges {
        let from = rng.gen_range(0..states);
        let to = rng.gen_range(0..states) as u32;
        let label = FuzzLabel {
            id: id as u16,
            thread: rng.gen_range(0..3) as u8,
            commit: rng.gen_range(0..4) == 0,
            abort: rng.gen_range(0..4) == 0,
        };
        succ[from].push((label, to));
    }
    FuzzSource { succ }
}

#[test]
fn masked_tarjan_matches_cloned_subgraph_reference_on_random_graphs() {
    let filters = [
        EdgeFilter { keep_any: MASK_ALL_THREADS, forbid_all: 0 },
        EdgeFilter { keep_any: MASK_ALL_THREADS, forbid_all: MASK_COMMIT },
        EdgeFilter { keep_any: 0b001, forbid_all: MASK_COMMIT },
        EdgeFilter { keep_any: 0b011, forbid_all: MASK_COMMIT },
        EdgeFilter { keep_any: 0b110, forbid_all: MASK_ABORT },
        EdgeFilter { keep_any: MASK_ALL_THREADS, forbid_all: MASK_COMMIT | 0b010 },
    ];
    let mut scratch = LiveScratch::default();
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x5cc0_0000 + seed);
        let source = random_source(&mut rng);
        let (graph, _) = CompiledRunGraph::build(&source, 10_000).expect("fuzz graph in bounds");
        // Materialize the engine's reachable subgraph once, then compare
        // decompositions per filter.
        let mut labeled: LabeledGraph<FuzzLabel> = LabeledGraph::new(graph.num_states());
        for (from, label, to) in graph.edges() {
            labeled.add_edge(from, *label, to);
        }
        for filter in filters {
            graph
                .sccs_masked(filter, &mut scratch, &QueryBudget::unlimited())
                .expect("no budget to exceed");
            let filtered =
                labeled.filtered(|_, l, _| filter.keeps(source.classify(l).mask()));
            let reference = strongly_connected_components(&filtered);
            assert_eq!(
                scratch.num_components(),
                reference.count(),
                "seed {seed}, {filter:?}: component count"
            );
            for v in 0..graph.num_states() {
                assert_eq!(
                    scratch.component_of(v),
                    reference.component_of(v),
                    "seed {seed}, {filter:?}: state {v}"
                );
            }
        }
    }
}

/// The scan over a query list reports the violation of the smallest
/// violating index — the one a query-by-query `find_loop` finds first —
/// on random graphs with randomized query lists, beyond the structured
/// queries `Verifier::check_liveness` generates.
#[test]
fn random_query_scan_returns_the_first_violation() {
    let unlimited = QueryBudget::unlimited();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xfa40_0000 + seed);
        let source = random_source(&mut rng);
        let (graph, _) = CompiledRunGraph::build(&source, 10_000).expect("fuzz graph in bounds");
        let queries: Vec<LoopQuery> = (0..6)
            .map(|_| {
                let t = rng.gen_range(0..3);
                let selection = if rng.gen_range(0..2) == 0 {
                    LoopSelection::FirstEdge
                } else {
                    LoopSelection::FirstComponent
                };
                LoopQuery {
                    filter: EdgeFilter {
                        keep_any: 1 << t,
                        forbid_all: MASK_COMMIT,
                    },
                    required: vec![MASK_ABORT | (1 << t)],
                    selection,
                }
            })
            .collect();
        let mut scratch = LiveScratch::default();
        let expected = queries.iter().enumerate().find_map(|(i, query)| {
            let found = graph.find_loop(query, &mut scratch, &unlimited).expect("unbudgeted");
            found.map(|lasso| (i, lasso))
        });
        let got = graph.find_first_loop(&queries, &unlimited).expect("unbudgeted");
        assert_eq!(got, expected, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// The reference graph algorithms on small hand-built graphs.

fn ring(n: usize) -> LabeledGraph<usize> {
    let mut g = LabeledGraph::new(n);
    for i in 0..n {
        g.add_edge(i, i, (i + 1) % n);
    }
    g
}

#[test]
fn reference_ring_is_one_scc() {
    let sccs = strongly_connected_components(&ring(5));
    assert_eq!(sccs.count(), 1);
    assert!(sccs.same_component(0, 4));
}

#[test]
fn reference_dag_has_singleton_sccs() {
    let mut g = LabeledGraph::new(3);
    g.add_edge(0, 'x', 1);
    g.add_edge(1, 'y', 2);
    let sccs = strongly_connected_components(&g);
    assert_eq!(sccs.count(), 3);
    assert!(!sccs.same_component(0, 1));
}

#[test]
fn reference_two_cycles_joined_by_bridge() {
    let mut g = LabeledGraph::new(4);
    g.add_edge(0, 'a', 1);
    g.add_edge(1, 'b', 0);
    g.add_edge(1, 'c', 2); // bridge
    g.add_edge(2, 'd', 3);
    g.add_edge(3, 'e', 2);
    let sccs = strongly_connected_components(&g);
    assert_eq!(sccs.count(), 2);
    assert!(sccs.same_component(0, 1));
    assert!(sccs.same_component(2, 3));
    assert!(!sccs.same_component(1, 2));
}

#[test]
fn reference_shortest_path_finds_bfs_route() {
    let g = ring(6);
    let path = g.shortest_path_to(0, |s| s == 3).unwrap();
    assert_eq!(path.len(), 3);
    assert_eq!(path[0], (0, 0, 1));
    assert_eq!(path[2].2, 3);
    assert!(g.shortest_path_to(0, |_| false).is_none());
    assert_eq!(g.shortest_path_to(2, |s| s == 2).unwrap().len(), 0);
}

#[test]
fn reference_closed_walk_visits_required_edges() {
    let g = ring(4);
    let required = vec![(1usize, 1usize, 2usize), (3, 3, 0)];
    let walk = closed_walk_through(&g, &required).unwrap();
    // Walk starts at 1, ends back at 1, uses both required edges.
    assert_eq!(walk.first().unwrap().0, 1);
    assert_eq!(walk.last().unwrap().2, 1);
    for edge in &required {
        assert!(walk.contains(edge));
    }
}

#[test]
fn reference_closed_walk_rejects_cross_scc_requirements() {
    let mut g = LabeledGraph::new(4);
    g.add_edge(0, 'a', 1);
    g.add_edge(1, 'b', 0);
    g.add_edge(1, 'x', 2);
    g.add_edge(2, 'c', 3);
    g.add_edge(3, 'd', 2);
    let required = vec![(0, 'a', 1), (2, 'c', 3)];
    assert!(closed_walk_through(&g, &required).is_none());
}

#[test]
fn reference_filtered_drops_edges() {
    let g = ring(3);
    let f = g.filtered(|from, _, _| from != 1);
    assert_eq!(f.num_edges(), 2);
}
