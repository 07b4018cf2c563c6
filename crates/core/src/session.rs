//! The [`Verifier`] session: one entry point for every query of the
//! paper's method, with build-once compiled artifacts.
//!
//! The paper answers *many* queries per TM — two safety properties
//! (Table 2), three liveness properties per TM × contention-manager pair
//! (Table 3), plus the reduction methodology — and the session API is
//! shaped around that: a [`Verifier`] is created once per instance size
//! `(n, k)` and amortizes across all subsequent queries
//!
//! * the **specification artifact** of each property (a
//!   [`tm_automata::SpecCache`] over the property's [`tm_spec::DetSpec`]
//!   rules, its rows interned lazily), shared by every TM checked against
//!   the same property and searched by the one product engine,
//!   [`tm_automata::check_inclusion_otf`];
//! * the **compiled run graph** ([`tm_automata::CompiledRunGraph`]) of
//!   each TM, built on the first liveness query and answering all three
//!   properties (the `tables` bin used to build it three times per TM).
//!
//! Every query runs on the calling thread.
//!
//! Both kinds of artifact are one resident [`Artifact`] in one map,
//! addressed by one [`ArtifactKey`] (kind, `n`, `k`). The same key names
//! the artifact in the `tm-service` memory budget and in the `tm-store`
//! files, and the keyed session API — [`Verifier::artifact`],
//! [`Verifier::import`], [`Verifier::evict`] — is all a service needs to
//! charge, persist, evict and reload artifacts. [`Verifier::builds`] and
//! [`Verifier::rebuilds`] count builds of either kind.
//!
//! Every query returns a uniform [`Verdict`] carrying [`QueryStats`]
//! (states explored, build vs. search time, cache hit). Verdicts,
//! counterexample words, and lassos equal the bare engines' and the
//! reference checkers' (pinned by `tests/inclusion_conformance.rs` and
//! `tests/liveness_conformance.rs`).
//!
//! Thread-safety: a `Verifier` is `Send` but not `Sync` — queries take
//! `&mut self` because they mutate the artifact caches. Concurrent
//! services share sessions as `Arc<Mutex<Verifier>>` (one mutex per
//! instance size, so independent sessions overlap while queries on one
//! session serialize; see the `tm-service` registry). Holding no
//! cross-query invariants, a session is safe to keep using after a
//! panicked query poisoned its mutex.

use std::fmt;
use std::time::{Duration, Instant};

use tm_algorithms::{MostGeneralRunSource, MostGeneralSource, RunLabel, TmAlgorithm};
use tm_automata::{
    check_inclusion_otf, Alphabet, CancelToken, CompiledRunGraph, EngineError, FxHashMap,
    InclusionResult, QueryBudget, SpecCache, SpecRows,
};
use tm_lang::{LivenessProperty, SafetyProperty, Statement, Word};
use tm_spec::{spec_alphabet, DetSpec, DetState};

use crate::liveness::{property_queries, LivenessOutcome, LivenessVerdict, RunLasso};
use crate::reduction::ReductionEvidence;
use crate::report::{QueryStats, Verdict, VerdictOutcome};
use crate::safety::{SafetyOutcome, SafetyVerdict};
use crate::structural::check_all_structural;

/// Which compiled artifact an [`ArtifactKey`] names.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ArtifactKind {
    /// A TM's compiled run graph, by the TM's full name (with its
    /// contention-manager suffix, `"dstm+aggressive"`).
    RunGraph(String),
    /// The specification artifact of one safety property.
    Spec(SafetyProperty),
}

/// The identity of one compiled artifact: its kind at instance size
/// `(threads, vars)`. The session, the service's memory budget and the
/// on-disk store all address artifacts by this key.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// Threads `n`.
    pub threads: usize,
    /// Variables `k`.
    pub vars: usize,
    /// Which artifact.
    pub kind: ArtifactKind,
}

impl ArtifactKey {
    /// The key of `tm_name`'s run graph at `(threads, vars)`.
    pub fn run_graph(tm_name: impl Into<String>, threads: usize, vars: usize) -> Self {
        ArtifactKey {
            threads,
            vars,
            kind: ArtifactKind::RunGraph(tm_name.into()),
        }
    }

    /// The key of `property`'s specification at `(threads, vars)`.
    pub fn spec(property: SafetyProperty, threads: usize, vars: usize) -> Self {
        ArtifactKey {
            threads,
            vars,
            kind: ArtifactKind::Spec(property),
        }
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (n, k) = (self.threads, self.vars);
        match &self.kind {
            ArtifactKind::RunGraph(name) => write!(f, "({n},{k})/run-graph/{name}"),
            ArtifactKind::Spec(property) => {
                write!(f, "({n},{k})/spec/{}", property.short_name())
            }
        }
    }
}

/// A resident compiled artifact with its build metadata.
pub enum Artifact {
    /// A TM's compiled run graph, answering every liveness property.
    RunGraph {
        /// The graph.
        graph: CompiledRunGraph<RunLabel>,
        /// States explored by the build.
        states: usize,
        /// Wall time of the original build.
        build_time: Duration,
    },
    /// A lazily stepped specification with its persistent interned rows:
    /// the specification rules ([`tm_spec::DetSpec`]) are stepped on the
    /// fly, so only specification states some TM actually reaches are
    /// ever computed — which is what lets safety scale past (3, 2),
    /// where determinizing the whole specification up front would
    /// dominate every check. Shared by every TM checked against the
    /// property.
    Spec {
        /// The interned rows over the specification rules.
        cache: SpecCache<DetSpec>,
        /// Wall time of the original build.
        build_time: Duration,
    },
}

impl Artifact {
    /// Reassembles the specification artifact of `(property, threads,
    /// vars)` from stored interned rows, validated by
    /// [`SpecCache::from_parts`] against freshly built specification
    /// rules (initial state, row widths, id ranges). The rows are a pure
    /// memo of the deterministic specification, so an artifact that
    /// passes can change timing, never verdicts.
    ///
    /// # Errors
    ///
    /// A static description of the first validation failure, including
    /// an instance size the specification does not support.
    pub fn spec_from_parts(
        property: SafetyProperty,
        threads: usize,
        vars: usize,
        states: Vec<DetState>,
        rows: SpecRows,
        build_time: Duration,
    ) -> Result<Artifact, &'static str> {
        // The sizes `DetSpec::new` asserts: the key comes from disk.
        if !(1..=tm_spec::MAX_THREADS).contains(&threads) || !(1..=16).contains(&vars) {
            return Err("specification instance size out of range");
        }
        let spec = DetSpec::new(property, threads, vars);
        let cache = SpecCache::from_parts(spec, spec_alphabet(threads, vars), states, rows)?;
        Ok(Artifact::Spec { cache, build_time })
    }

    /// Estimated heap footprint in bytes
    /// ([`CompiledRunGraph::heap_bytes`] / [`SpecCache::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Artifact::RunGraph { graph, .. } => graph.heap_bytes(),
            Artifact::Spec { cache, .. } => cache.heap_bytes(),
        }
    }

    /// Wall time of the original build.
    pub fn build_time(&self) -> Duration {
        match self {
            Artifact::RunGraph { build_time, .. } | Artifact::Spec { build_time, .. } => {
                *build_time
            }
        }
    }
}

impl fmt::Debug for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            Artifact::RunGraph { .. } => "RunGraph",
            Artifact::Spec { .. } => "Spec",
        };
        f.debug_struct(kind)
            .field("heap_bytes", &self.heap_bytes())
            .field("build_time", &self.build_time())
            .finish()
    }
}

/// A verification session for one instance size `(n, k)`: the single
/// entry point of the crate, owning the artifact cache (see the module
/// docs).
///
/// Construction is cheap and lazy: artifacts build on first use.
/// Builder-style setters configure the session before (or between)
/// queries.
///
/// # Examples
///
/// Answer Table 3's three properties from one compiled run graph:
///
/// ```
/// use tm_checker::Verifier;
/// use tm_lang::LivenessProperty;
/// use tm_algorithms::{AggressiveCm, DstmTm, WithContentionManager};
///
/// let mut verifier = Verifier::new(2, 1);
/// let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
/// assert!(verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom).holds());
/// assert!(!verifier.check_liveness(&tm, LivenessProperty::LivelockFreedom).holds());
/// assert!(!verifier.check_liveness(&tm, LivenessProperty::WaitFreedom).holds());
/// // The graph was built once and reused by the second and third query.
/// assert_eq!(verifier.builds(), 1);
/// ```
pub struct Verifier {
    threads: usize,
    vars: usize,
    max_states: usize,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    artifacts: FxHashMap<ArtifactKey, Artifact>,
    /// Builds and imports ever per key — survives eviction, so a build
    /// after [`Verifier::evict`] is recognized as a rebuild.
    history: FxHashMap<ArtifactKey, usize>,
    builds: usize,
    rebuilds: usize,
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Verifier")
            .field("threads", &self.threads)
            .field("vars", &self.vars)
            .field("max_states", &self.max_states)
            .field("builds", &self.builds)
            .field("rebuilds", &self.rebuilds)
            .finish()
    }
}

use crate::safety::DEFAULT_MAX_STATES;

impl Verifier {
    /// Creates a session for instance size `(threads, vars)` with a
    /// [`crate::DEFAULT_MAX_STATES`] bound, no deadline and no
    /// cancellation token.
    pub fn new(threads: usize, vars: usize) -> Self {
        Verifier {
            threads,
            vars,
            max_states: DEFAULT_MAX_STATES,
            deadline: None,
            cancel: None,
            artifacts: FxHashMap::default(),
            history: FxHashMap::default(),
            builds: 0,
            rebuilds: 0,
        }
    }

    /// Sets the bound on reachable state spaces. A query whose state
    /// space exceeds the bound returns
    /// [`VerdictOutcome::Aborted`]`(`[`EngineError::StateLimit`]`)`
    /// instead of panicking.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Sets a per-query wall-clock deadline: each subsequent query that
    /// runs longer (artifact build included) returns
    /// [`VerdictOutcome::Aborted`]`(`[`EngineError::Deadline`]`)` with
    /// the partial stats it had accumulated. The engines poll the
    /// deadline at BFS level boundaries and Tarjan iteration chunks, so
    /// overshoot is bounded by one chunk.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token checked by every subsequent query:
    /// [`CancelToken::cancel`] from another thread retires the running
    /// query at its next budget poll with
    /// [`VerdictOutcome::Aborted`]`(`[`EngineError::Cancelled`]`)`.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The budget one query runs under: the session's state bound, plus
    /// the optional deadline (counted from *now* — each query gets the
    /// full window) and cancellation token.
    fn query_budget(&self) -> QueryBudget {
        let mut budget = QueryBudget::new(self.max_states);
        if let Some(deadline) = self.deadline {
            budget = budget.with_timeout(deadline);
        }
        if let Some(token) = &self.cancel {
            budget = budget.with_cancel(token.clone());
        }
        budget
    }

    /// How many artifacts this session has built so far — at most one
    /// run graph per TM and one specification per (property, instance
    /// size) queried, unless evicted in between. Imports are not builds.
    pub fn builds(&self) -> usize {
        self.builds
    }

    /// How many of [`Verifier::builds`] were *re*builds of an artifact
    /// the session had built or imported before an [`Verifier::evict`].
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The cached artifact under `key`, if any — what a service charges
    /// to its memory budget and persists to disk.
    pub fn artifact(&self, key: &ArtifactKey) -> Option<&Artifact> {
        self.artifacts.get(key)
    }

    /// Installs `artifact` as the cached artifact under `key`, replacing
    /// any cached one.
    ///
    /// Importing is **neither a build nor a rebuild** — the build
    /// counters and [`QueryStats::rebuilds`] are untouched, so a
    /// warm-started service truthfully reports zero rebuilds. The build
    /// *history* is marked, so a later eviction followed by an actual
    /// build still counts as a rebuild.
    ///
    /// The artifact must come from this key's build or a verified store
    /// load: builds are deterministic, so an imported artifact answers
    /// queries bit-identically to a rebuilt one.
    ///
    /// # Panics
    ///
    /// Panics if the artifact's kind disagrees with the key's.
    pub fn import(&mut self, key: ArtifactKey, artifact: Artifact) {
        assert!(
            matches!(
                (&key.kind, &artifact),
                (ArtifactKind::RunGraph(_), Artifact::RunGraph { .. })
                    | (ArtifactKind::Spec(_), Artifact::Spec { .. })
            ),
            "artifact kind disagrees with its key {key}"
        );
        *self.history.entry(key.clone()).or_insert(0) += 1;
        self.artifacts.insert(key, artifact);
    }

    /// Evicts the cached artifact under `key`, returning whether one was
    /// cached. The next query that needs it transparently rebuilds it —
    /// and reports the build in [`QueryStats::rebuilds`] and
    /// [`Verifier::rebuilds`]. Verdicts, words and lassos are unaffected
    /// by eviction (builds are deterministic); only time and memory are.
    pub fn evict(&mut self, key: &ArtifactKey) -> bool {
        self.artifacts.remove(key).is_some()
    }

    /// Estimated heap footprint of every cached artifact of the session.
    pub fn artifact_heap_bytes(&self) -> usize {
        self.artifacts.values().map(Artifact::heap_bytes).sum()
    }

    /// Caches a freshly built artifact under `key` and counts the build,
    /// returning 1 when it was a rebuild (the key had been built or
    /// imported before) and 0 on first build.
    fn record_build(&mut self, key: ArtifactKey, artifact: Artifact) -> usize {
        let seen = self.history.entry(key.clone()).or_insert(0);
        *seen += 1;
        let rebuilt = usize::from(*seen > 1);
        self.artifacts.insert(key, artifact);
        self.builds += 1;
        self.rebuilds += rebuilt;
        rebuilt
    }

    /// Checks a safety property of `tm` on the most general program,
    /// reusing the session's specification artifact for the property.
    ///
    /// A state space exceeding the session's bound, an expired
    /// [`Verifier::deadline`], or a cancelled [`Verifier::cancel_token`]
    /// returns [`VerdictOutcome::Aborted`] with partial stats — never a
    /// panic.
    ///
    /// # Panics
    ///
    /// Panics if `tm`'s instance size disagrees with the session's.
    pub fn check_safety<A: TmAlgorithm>(&mut self, tm: &A, property: SafetyProperty) -> Verdict {
        assert_eq!(tm.threads(), self.threads, "thread count mismatch");
        assert_eq!(tm.vars(), self.vars, "variable count mismatch");
        capture_phases(|| self.safety_query(tm, property))
    }

    /// The safety pipeline, parameterized over the TM's own size so the
    /// reduction methodology can run spot checks at non-session sizes
    /// against the same artifact caches.
    fn safety_query<A: TmAlgorithm>(&mut self, tm: &A, property: SafetyProperty) -> Verdict {
        let total = Instant::now();
        let key = ArtifactKey::spec(property, tm.threads(), tm.vars());
        let budget = self.query_budget();
        let cached = self.artifacts.contains_key(&key);
        let mut rebuilds = 0;
        if !cached {
            let build = Instant::now();
            let (n, k) = (key.threads, key.vars);
            let cache = SpecCache::new(DetSpec::new(property, n, k), spec_alphabet(n, k));
            let build_time = build.elapsed();
            rebuilds = self.record_build(key.clone(), Artifact::Spec { cache, build_time });
        }
        let Some(Artifact::Spec { cache, build_time }) = self.artifacts.get_mut(&key) else {
            unreachable!("a spec key holds a spec artifact");
        };
        let build_time = if cached { Duration::ZERO } else { *build_time };
        let source = MostGeneralSource::new(tm, Alphabet::from_letters(cache.letters()));
        let search = Instant::now();
        let stats = |states_explored, search_time| QueryStats {
            states_explored,
            build_time,
            search_time,
            artifact_cached: cached,
            rebuilds,
            ..QueryStats::default()
        };
        let checked = check_inclusion_otf(&source, cache, &budget);
        let (result, otf) = match checked {
            Ok(pair) => pair,
            Err(error) => return abort_verdict(error, stats(0, search.elapsed())),
        };
        let search_time = search.elapsed();
        let verdict = assemble_safety(
            tm.name(),
            property,
            result,
            otf.impl_states,
            cache.touched(),
            search_time,
            total.elapsed(),
        );
        Verdict {
            stats: stats(verdict.product_states, search_time),
            outcome: VerdictOutcome::Safety(verdict),
        }
    }

    /// Checks a liveness property of `tm` (× its contention manager) on
    /// the most general program. The compiled run graph is built on the
    /// first query for this TM and cached; subsequent properties are pure
    /// loop searches over it.
    ///
    /// A run-graph state space exceeding the session's bound, an expired
    /// [`Verifier::deadline`], or a cancelled [`Verifier::cancel_token`]
    /// returns [`VerdictOutcome::Aborted`] with partial stats — never a
    /// panic.
    ///
    /// # Panics
    ///
    /// Panics if `tm`'s instance size disagrees with the session's.
    pub fn check_liveness<A: TmAlgorithm>(
        &mut self,
        tm: &A,
        property: LivenessProperty,
    ) -> Verdict {
        assert_eq!(tm.threads(), self.threads, "thread count mismatch");
        assert_eq!(tm.vars(), self.vars, "variable count mismatch");
        capture_phases(|| self.liveness_query(tm, property))
    }

    /// The liveness pipeline behind [`Verifier::check_liveness`] (split
    /// out so the phase capture brackets exactly one query).
    fn liveness_query<A: TmAlgorithm>(
        &mut self,
        tm: &A,
        property: LivenessProperty,
    ) -> Verdict {
        let total = Instant::now();
        let budget = self.query_budget();
        let tm_name = tm.name();
        let key = ArtifactKey::run_graph(tm_name.clone(), self.threads, self.vars);
        let cached = self.artifacts.contains_key(&key);
        let mut rebuilds = 0;
        if !cached {
            let build = Instant::now();
            let source = MostGeneralRunSource::new(tm);
            let (graph, states) = match CompiledRunGraph::build_budget(&source, &budget) {
                Ok(pair) => pair,
                Err(error) => {
                    return abort_verdict(
                        error,
                        QueryStats {
                            states_explored: 0,
                            build_time: build.elapsed(),
                            search_time: Duration::ZERO,
                            artifact_cached: false,
                            rebuilds: 0,
                            ..QueryStats::default()
                        },
                    );
                }
            };
            let artifact = Artifact::RunGraph {
                graph,
                states: states.len(),
                build_time: build.elapsed(),
            };
            rebuilds = self.record_build(key.clone(), artifact);
        }
        let queries = property_queries(self.threads, property);
        let Some(Artifact::RunGraph {
            graph,
            states,
            build_time,
        }) = self.artifacts.get(&key)
        else {
            unreachable!("a run-graph key holds a run graph");
        };
        let (states, build_time) = (*states, if cached { Duration::ZERO } else { *build_time });
        let search = Instant::now();
        let outcome = match graph.find_first_loop(&queries, &budget) {
            Ok(Some((_, lasso))) => LivenessOutcome::Violation(RunLasso {
                prefix: lasso.prefix,
                cycle: lasso.cycle,
            }),
            Ok(None) => LivenessOutcome::Verified,
            Err(error) => {
                return abort_verdict(
                    error,
                    QueryStats {
                        states_explored: states,
                        build_time,
                        search_time: search.elapsed(),
                        artifact_cached: cached,
                        rebuilds,
                        ..QueryStats::default()
                    },
                );
            }
        };
        let search_time = search.elapsed();
        let verdict = LivenessVerdict {
            tm_name,
            property,
            tm_states: states,
            total_time: total.elapsed(),
            outcome,
        };
        Verdict {
            outcome: VerdictOutcome::Liveness(verdict),
            stats: QueryStats {
                states_explored: states,
                build_time,
                search_time,
                artifact_cached: cached,
                rebuilds,
                ..QueryStats::default()
            },
        }
    }

    /// Applies the paper's reduction methodology (§4) through the
    /// session: the safety check at the session's instance size (the
    /// reduction bound), bounded-exhaustive structural evidence, and spot
    /// checks at the given larger sizes — all through the session's
    /// artifact caches, so repeated reduction runs (or runs sharing
    /// properties with earlier queries) rebuild nothing.
    ///
    /// `make(n, k)` must build the same TM algorithm at size `(n, k)`.
    ///
    /// If any constituent query aborts at a resource limit (state bound,
    /// deadline, cancellation), the whole run returns that
    /// [`VerdictOutcome::Aborted`] with the stats accumulated so far.
    pub fn verify_with_reduction<A, F>(
        &mut self,
        make: F,
        property: SafetyProperty,
        structural_depth: usize,
        spot_sizes: &[(usize, usize)],
    ) -> Verdict
    where
        A: TmAlgorithm,
        F: Fn(usize, usize) -> A,
    {
        capture_phases(|| self.reduction_query(make, property, structural_depth, spot_sizes))
    }

    /// The reduction pipeline behind [`Verifier::verify_with_reduction`]
    /// (split out so the phase capture brackets the whole methodology
    /// run, spot checks included).
    fn reduction_query<A, F>(
        &mut self,
        make: F,
        property: SafetyProperty,
        structural_depth: usize,
        spot_sizes: &[(usize, usize)],
    ) -> Verdict
    where
        A: TmAlgorithm,
        F: Fn(usize, usize) -> A,
    {
        let total = Instant::now();
        let base_tm = make(self.threads, self.vars);
        let base = self.safety_query(&base_tm, property);
        if matches!(base.outcome, VerdictOutcome::Aborted(_)) {
            return base;
        }
        let mut build_time = base.stats.build_time;
        let mut search_time = base.stats.search_time;
        let states_explored = base.stats.states_explored;
        let mut all_cached = base.stats.artifact_cached;
        let mut rebuilds = base.stats.rebuilds;
        let base_verdict = base.into_safety().expect("safety query");
        let structural = check_all_structural(&base_tm, structural_depth);
        let structural_time = total
            .elapsed()
            .saturating_sub(build_time)
            .saturating_sub(search_time);
        let mut spot_checks = Vec::with_capacity(spot_sizes.len());
        for &(n, k) in spot_sizes {
            let tm = make(n, k);
            let spot = self.safety_query(&tm, property);
            build_time += spot.stats.build_time;
            search_time += spot.stats.search_time;
            all_cached &= spot.stats.artifact_cached;
            rebuilds += spot.stats.rebuilds;
            if let VerdictOutcome::Aborted(error) = spot.outcome {
                return abort_verdict(
                    error,
                    QueryStats {
                        states_explored,
                        build_time,
                        search_time,
                        artifact_cached: all_cached,
                        rebuilds,
                        ..QueryStats::default()
                    },
                );
            }
            spot_checks.push(spot.into_safety().expect("safety query"));
        }
        let evidence = ReductionEvidence {
            base_verdict,
            structural,
            spot_checks,
        };
        Verdict {
            outcome: VerdictOutcome::Reduction(evidence),
            stats: QueryStats {
                states_explored,
                build_time,
                // Structural evidence is part of the methodology's search.
                search_time: search_time + structural_time,
                artifact_cached: all_cached,
                rebuilds,
                ..QueryStats::default()
            },
        }
    }
}

/// Attaches the engine-phase breakdown to a query's stats
/// ([`QueryStats::phase_ns`]). Under an already-installed recorder (the
/// service's per-query one) the query is bracketed by two phase-total
/// snapshots, so its share still flows to the outer recorder; otherwise a
/// fresh recorder is installed for the query's duration. Free when
/// instrumentation is disabled (`TM_OBS=off`): the stats stay all-zero.
fn capture_phases(f: impl FnOnce() -> Verdict) -> Verdict {
    match tm_obs::phase_totals() {
        Some(before) => {
            let mut verdict = f();
            if let Some(after) = tm_obs::phase_totals() {
                for ((slot, a), b) in verdict.stats.phase_ns.iter_mut().zip(after).zip(before) {
                    *slot = a.saturating_sub(b);
                }
            }
            verdict
        }
        None => {
            let (mut verdict, record) = tm_obs::ensure_recorder(f);
            if let Some(record) = record {
                verdict.stats.phase_ns = record.phase_ns;
            }
            verdict
        }
    }
}

/// Wraps an engine abort into the uniform verdict envelope with the
/// partial stats the query had accumulated when it was retired.
fn abort_verdict(error: EngineError, stats: QueryStats) -> Verdict {
    Verdict {
        outcome: VerdictOutcome::Aborted(error),
        stats,
    }
}

/// Builds a [`SafetyVerdict`] from an inclusion result, re-checking any
/// counterexample against the definition-level oracle (debug builds).
fn assemble_safety(
    tm_name: String,
    property: SafetyProperty,
    result: InclusionResult<Statement>,
    tm_states: usize,
    spec_states: usize,
    check_time: Duration,
    total_time: Duration,
) -> SafetyVerdict {
    let (outcome, product_states) = match result {
        InclusionResult::Included { product_states } => (SafetyOutcome::Verified, product_states),
        InclusionResult::Counterexample {
            word,
            product_states,
        } => {
            let word: Word = word.into_iter().collect();
            debug_assert!(
                !property.holds(&word),
                "counterexample not confirmed by the reference checker: {word}"
            );
            (SafetyOutcome::Violation(word), product_states)
        }
    };
    SafetyVerdict {
        tm_name,
        property,
        tm_states,
        spec_states,
        product_states,
        check_time,
        total_time,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algorithms::{AggressiveCm, DstmTm, SequentialTm, TwoPhaseTm, WithContentionManager};

    #[test]
    fn safety_artifacts_are_shared_across_tms() {
        let mut verifier = Verifier::new(2, 2);
        assert!(verifier
            .check_safety(&SequentialTm::new(2, 2), SafetyProperty::Opacity)
            .holds());
        assert_eq!(verifier.builds(), 1);
        let second = verifier.check_safety(&TwoPhaseTm::new(2, 2), SafetyProperty::Opacity);
        assert!(second.holds());
        assert!(second.stats.artifact_cached);
        assert_eq!(second.stats.build_time, Duration::ZERO);
        assert_eq!(verifier.builds(), 1);
        // A different property is a different artifact.
        let other = verifier
            .check_safety(&SequentialTm::new(2, 2), SafetyProperty::StrictSerializability);
        assert!(!other.stats.artifact_cached);
        assert_eq!(verifier.builds(), 2);
    }

    #[test]
    fn liveness_graph_is_built_once_per_tm() {
        let mut verifier = Verifier::new(2, 1);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let first = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert!(first.holds());
        assert!(!first.stats.artifact_cached);
        for property in [LivenessProperty::LivelockFreedom, LivenessProperty::WaitFreedom] {
            let verdict = verifier.check_liveness(&tm, property);
            assert!(!verdict.holds());
            assert!(verdict.stats.artifact_cached);
            assert_eq!(verdict.stats.build_time, Duration::ZERO);
        }
        assert_eq!(verifier.builds(), 1);
        // A different TM builds its own graph.
        let other = TwoPhaseTm::new(2, 1);
        assert!(!verifier
            .check_liveness(&other, LivenessProperty::ObstructionFreedom)
            .holds());
        assert_eq!(verifier.builds(), 2);
    }

    #[test]
    fn session_reduction_concludes_and_reuses_spec() {
        let mut verifier = Verifier::new(2, 2);
        let verdict = verifier.verify_with_reduction(
            SequentialTm::new,
            SafetyProperty::Opacity,
            4,
            &[(2, 1), (3, 1)],
        );
        assert!(verdict.holds());
        let evidence = verdict.as_reduction().unwrap();
        assert_eq!(evidence.spot_checks.len(), 2);
        // Base (2,2) + spots (2,1), (3,1): three spec artifacts.
        assert_eq!(verifier.builds(), 3);
        // A second run over the same family answers from cache.
        let again = verifier.verify_with_reduction(
            SequentialTm::new,
            SafetyProperty::Opacity,
            4,
            &[(2, 1), (3, 1)],
        );
        assert!(again.holds());
        assert!(again.stats.artifact_cached);
        assert_eq!(verifier.builds(), 3);
    }

    #[test]
    #[should_panic(expected = "thread count mismatch")]
    fn size_mismatch_is_rejected() {
        let mut verifier = Verifier::new(2, 2);
        let _ = verifier.check_safety(&SequentialTm::new(3, 2), SafetyProperty::Opacity);
    }

    #[test]
    fn a_state_blowup_aborts_instead_of_panicking() {
        let mut verifier = Verifier::new(2, 2).max_states(10);
        let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
        assert!(!verdict.holds());
        assert_eq!(verdict.abort_reason(), Some(EngineError::StateLimit(10)));
        let mut verifier = Verifier::new(2, 1).max_states(10);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert!(!verdict.holds(), "liveness");
        assert_eq!(verdict.abort_reason(), Some(EngineError::StateLimit(10)));
    }

    #[test]
    fn an_expired_deadline_aborts_every_engine() {
        let mut verifier = Verifier::new(2, 2).deadline(Duration::ZERO);
        let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
        assert_eq!(verdict.abort_reason(), Some(EngineError::Deadline));
        let mut verifier = Verifier::new(2, 1).deadline(Duration::ZERO);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert_eq!(verdict.abort_reason(), Some(EngineError::Deadline));
    }

    #[test]
    fn a_cancelled_token_aborts_every_engine() {
        let token = CancelToken::new();
        token.cancel();
        let mut verifier = Verifier::new(2, 2).cancel_token(token.clone());
        let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
        assert_eq!(verdict.abort_reason(), Some(EngineError::Cancelled));
        let mut verifier = Verifier::new(2, 1).cancel_token(token);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert_eq!(verdict.abort_reason(), Some(EngineError::Cancelled));
    }

    #[test]
    fn an_aborted_query_reports_partial_stats_and_recovers() {
        // The same session answers normally once the limit is lifted —
        // an abort must not poison the artifact caches.
        let mut verifier = Verifier::new(2, 1).max_states(10);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let aborted = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert_eq!(aborted.abort_reason(), Some(EngineError::StateLimit(10)));
        let mut verifier = verifier.max_states(1_000_000);
        let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert!(verdict.holds());
    }

    #[test]
    fn reduction_stops_at_the_first_aborted_query() {
        let mut verifier = Verifier::new(2, 2).max_states(10);
        let verdict = verifier.verify_with_reduction(
            SequentialTm::new,
            SafetyProperty::Opacity,
            4,
            &[(2, 1)],
        );
        assert!(!verdict.holds());
        assert_eq!(verdict.abort_reason(), Some(EngineError::StateLimit(10)));
    }
}
