//! Layer probes for the traced run: direct, timed calls into each
//! layer's public functions on the workload's own inputs — the TM rule
//! stepper, the specification builder, the run-graph compiler, the wire
//! codec and the counterexample replay.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use tm_algorithms::{most_general_nfa, MostGeneralRunSource, TmAlgorithm};
use tm_automata::CompiledRunGraph;
use tm_lang::SafetyProperty;
use tm_service::{wire, PropertyKind, QueryResult, QuerySpec, ServiceStats};
use tm_spec::DetSpec;

use crate::check::replay_counterexample;

/// State bound for the probes (the service's own default).
const MAX_STATES: usize = tm_service::DEFAULT_SERVICE_MAX_STATES;

/// Wall clock one probe may spend on repetitions after its first call.
const REPEAT_BUDGET: Duration = Duration::from_millis(300);

/// The paper's specification sizes at (2,2) (§5.3).
pub const PAPER_SPEC_STATES: [(SafetyProperty, usize); 2] = [
    (SafetyProperty::StrictSerializability, 3520),
    (SafetyProperty::Opacity, 2272),
];

/// A TM of a workload: its full name and instance size.
pub type TmKey = (String, usize, usize);

#[derive(Default)]
pub struct Probes {
    /// `most_general_nfa` time per workload TM (median of repetitions).
    pub step_ns: BTreeMap<TmKey, u64>,
    /// `most_general_nfa` state count per workload TM.
    pub tm_states: BTreeMap<TmKey, u64>,
    /// `DetSpec::new` + `to_dfa` time per property at (2,2).
    pub spec_build_ns: u64,
    /// DFA states per property at (2,2).
    pub spec_states: Vec<(SafetyProperty, u64)>,
    /// `CompiledRunGraph::build` time, summed over the liveness TMs.
    pub graph_build_ns: u64,
    pub run_states: u64,
    pub edges: u64,
    pub graph_bytes: u64,
    /// Mean wire encode / decode time of one request and its response.
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Mean replay time of one counterexample (0 when there is none).
    pub replay_ns: f64,
}

/// Median wall time of `f` over one call plus as many more as fit in
/// [`REPEAT_BUDGET`] (at most nine), with the last call's result.
fn timed<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    let started = Instant::now();
    let mut last = black_box(f());
    let mut times = vec![started.elapsed()];
    while times.len() < 9 && started.elapsed() < REPEAT_BUDGET {
        let t = Instant::now();
        last = black_box(f());
        times.push(t.elapsed());
    }
    times.sort_unstable();
    (nanos(times[times.len() / 2]), last)
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn tm_key(spec: &QuerySpec) -> TmKey {
    (spec.tm_name(), spec.threads, spec.vars)
}

/// Runs every probe on the workload's `queries`, one pass of its
/// `results`, and its distinct `counterexamples`.
pub fn run(
    queries: &[QuerySpec],
    results: &[QueryResult],
    counterexamples: &[(QuerySpec, String)],
) -> Probes {
    let mut probes = Probes::default();
    let mut tms: BTreeMap<TmKey, &QuerySpec> = BTreeMap::new();
    let mut live_tms: BTreeSet<TmKey> = BTreeSet::new();
    let mut safety = false;
    for spec in queries {
        tms.entry(tm_key(spec)).or_insert(spec);
        match spec.property {
            PropertyKind::Liveness(_) => {
                live_tms.insert(tm_key(spec));
            }
            PropertyKind::Safety(_) => safety = true,
        }
    }

    // tm-algorithms: the word-level exploration of each TM's rules.
    for (key, spec) in &tms {
        let (ns, states) = with_tm!(spec, |tm| timed(
            || most_general_nfa(&tm, MAX_STATES).num_states()
        ));
        probes.step_ns.insert(key.clone(), ns);
        probes.tm_states.insert(key.clone(), states as u64);
    }

    // tm-spec: the paper's deterministic specifications, when the
    // workload decides safety at all.
    if safety {
        for (property, _) in PAPER_SPEC_STATES {
            let (ns, states) = timed(|| {
                DetSpec::new(property, 2, 2)
                    .to_dfa(MAX_STATES)
                    .0
                    .num_states()
            });
            probes.spec_build_ns += ns;
            probes.spec_states.push((property, states as u64));
        }
    }

    // tm-automata.livecheck: a fresh run-graph compile per liveness TM.
    for key in &live_tms {
        let spec = tms[key];
        let (ns, (states, edges, bytes)) = with_tm!(spec, |tm| timed(|| graph_shape(&tm)));
        probes.graph_build_ns += ns;
        probes.run_states += states;
        probes.edges += edges;
        probes.graph_bytes += bytes;
    }

    // tm-service.wire: one request body and its response, both ways.
    let stats = ServiceStats::default();
    let plain: Vec<QueryResult> = results
        .iter()
        .map(|r| QueryResult {
            trace: None,
            ..r.clone()
        })
        .collect();
    let bodies: Vec<(String, String)> = plain
        .iter()
        .map(|r| {
            (
                wire::encode_batch_request(std::slice::from_ref(&r.spec), None),
                wire::encode_results(std::slice::from_ref(r), &stats),
            )
        })
        .collect();
    if !bodies.is_empty() {
        let per_request = |ns: u64| ns as f64 / bodies.len() as f64;
        let (ns, ()) = timed(|| {
            for r in &plain {
                black_box(wire::encode_batch_request(
                    std::slice::from_ref(&r.spec),
                    None,
                ));
                black_box(wire::encode_results(std::slice::from_ref(r), &stats));
            }
        });
        probes.encode_ns = per_request(ns);
        let (ns, ()) = timed(|| {
            for (request, response) in &bodies {
                black_box(wire::decode_batch_request(request).expect("own encoding decodes"));
                black_box(wire::decode_results(response).expect("own encoding decodes"));
            }
        });
        probes.decode_ns = per_request(ns);
    }

    // tm-lang: replaying each counterexample (schedule search through
    // the TM runner, then the definition-level oracle).
    if !counterexamples.is_empty() {
        let (ns, ()) = timed(|| {
            for (spec, word) in counterexamples {
                replay_counterexample(spec, word).expect("replayed once already");
            }
        });
        probes.replay_ns = ns as f64 / counterexamples.len() as f64;
    }
    probes
}

fn graph_shape<A: TmAlgorithm>(tm: &A) -> (u64, u64, u64) {
    let (graph, _) = CompiledRunGraph::build(&MostGeneralRunSource::new(tm), MAX_STATES)
        .expect("the workload's run graphs fit the state bound");
    (
        graph.num_states() as u64,
        graph.num_edges() as u64,
        graph.heap_bytes() as u64,
    )
}
