//! The [`Verifier`] session: one entry point for every query of the
//! paper's method, with build-once compiled artifacts and a persistent
//! worker pool.
//!
//! The paper answers *many* queries per TM — two safety properties
//! (Table 2), three liveness properties per TM × contention-manager pair
//! (Table 3), plus the reduction methodology — and the session API is
//! shaped around that: a [`Verifier`] is created once per instance size
//! `(n, k)` and amortizes across all subsequent queries
//!
//! * the **specification artifact** of each property (the lazily
//!   interned [`tm_automata::SpecCache`] rows), shared by every TM checked
//!   against the same property;
//! * the **compiled run graph** ([`tm_automata::CompiledRunGraph`]) of
//!   each TM, built on the first liveness query and answering all three
//!   properties (the `tables` bin used to build it three times per TM);
//! * the **worker pool** ([`tm_automata::WorkerPool`]), spawned once and
//!   reused by every parallel region of every query, replacing the
//!   per-BFS-level and per-property scoped-thread spawns.
//!
//! Every query returns a uniform [`Verdict`] carrying [`QueryStats`]
//! (states explored, build vs. search time, pool size, cache hit).
//! Verdicts, counterexample words, and lassos are bit-identical at every
//! pool size, and equal to the bare engines' and
//! the reference checkers' (pinned by `tests/inclusion_conformance.rs`
//! and `tests/liveness_conformance.rs`).
//!
//! Thread-safety: a `Verifier` is `Send` but not `Sync` — queries take
//! `&mut self` because they mutate the artifact caches. Concurrent
//! services share sessions as `Arc<Mutex<Verifier>>` (one mutex per
//! instance size, so independent sessions overlap while queries on one
//! session serialize; see the `tm-service` registry). Holding no
//! cross-query invariants, a session is safe to keep using after a
//! panicked query poisoned its mutex.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_algorithms::{MostGeneralRunSource, MostGeneralSource, RunLabel, TmAlgorithm};
use tm_automata::{
    check_inclusion_otf_cached, modelcheck_threads, Alphabet, CancelToken, CompiledRunGraph,
    DtsSpecSource, EngineError, Executor, FxHashMap, InclusionResult, QueryBudget, SpecCache,
    WorkerPool,
};
use tm_lang::{LivenessProperty, SafetyProperty, Statement, Word};
use tm_spec::{spec_alphabet, DetSpec};

use crate::liveness::{property_queries, LivenessOutcome, LivenessVerdict, RunLasso};
use crate::reduction::ReductionEvidence;
use crate::report::{QueryStats, Verdict, VerdictOutcome};
use crate::safety::{SafetyOutcome, SafetyVerdict};
use crate::structural::check_all_structural;

/// A lazily stepped specification with its persistent interned rows (one
/// per property and instance size): the specification rules
/// ([`tm_spec::DetSpec`]) are stepped on the fly, so only specification
/// states some TM actually reaches are ever computed — which is what lets
/// safety scale past (3, 2), where determinizing the whole specification
/// up front would dominate every check. The product BFS runs on the
/// deterministic sequential engine.
struct LazySpec {
    cache: SpecCache<DtsSpecSource<DetSpec>>,
    build_time: Duration,
}

/// The compiled run graph of one TM (keyed by `tm.name()`), answering
/// every liveness property of the session.
struct RunGraphArtifact {
    graph: CompiledRunGraph<RunLabel>,
    states: usize,
    build_time: Duration,
}

/// A verification session for one instance size `(n, k)`: the single
/// entry point of the crate, owning the persistent worker pool and the
/// per-property / per-TM artifact caches (see the module docs).
///
/// Construction is cheap and lazy: the pool spawns on the first parallel
/// query, artifacts build on first use. Builder-style setters configure
/// the session before (or between) queries.
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
/// let mut verifier = Verifier::new(2, 1).pool_size(2);
/// let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
/// assert!(verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom).holds());
/// assert!(!verifier.check_liveness(&tm, LivenessProperty::LivelockFreedom).holds());
/// assert!(!verifier.check_liveness(&tm, LivenessProperty::WaitFreedom).holds());
/// // The graph was built once and reused by the second and third query.
/// assert_eq!(verifier.run_graph_builds(), 1);
/// ```
pub struct Verifier {
    threads: usize,
    vars: usize,
    pool_size: usize,
    max_states: usize,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    pool: Option<WorkerPool>,
    /// A pool owned by someone else (a service multiplexing many
    /// sessions); takes precedence over the session-owned `pool`.
    shared_pool: Option<Arc<WorkerPool>>,
    lazy_specs: FxHashMap<(SafetyProperty, usize, usize), LazySpec>,
    run_graphs: FxHashMap<String, RunGraphArtifact>,
    run_graph_builds: usize,
    spec_builds: usize,
    run_graph_rebuilds: usize,
    spec_rebuilds: usize,
    /// Total builds ever per TM name — survives eviction, so a build
    /// after [`Verifier::drop_run_graph`] is recognized as a rebuild.
    run_graph_history: FxHashMap<String, usize>,
    /// Total builds ever per (property, n, k) — the eviction counterpart
    /// for specification artifacts.
    spec_history: FxHashMap<(SafetyProperty, usize, usize), usize>,
}

impl std::fmt::Debug for Verifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Verifier")
            .field("threads", &self.threads)
            .field("vars", &self.vars)
            .field("pool_size", &self.pool_size)
            .field("max_states", &self.max_states)
            .field("run_graph_builds", &self.run_graph_builds)
            .field("spec_builds", &self.spec_builds)
            .finish()
    }
}

use crate::safety::DEFAULT_MAX_STATES;

impl Verifier {
    /// Creates a session for instance size `(threads, vars)` with the
    /// defaults: pool size from [`tm_automata::modelcheck_threads`]
    /// (the `TM_MODELCHECK_THREADS` environment variable) and a
    /// [`crate::DEFAULT_MAX_STATES`] bound.
    pub fn new(threads: usize, vars: usize) -> Self {
        Verifier {
            threads,
            vars,
            pool_size: modelcheck_threads(),
            max_states: DEFAULT_MAX_STATES,
            deadline: None,
            cancel: None,
            pool: None,
            shared_pool: None,
            lazy_specs: FxHashMap::default(),
            run_graphs: FxHashMap::default(),
            run_graph_builds: 0,
            spec_builds: 0,
            run_graph_rebuilds: 0,
            spec_rebuilds: 0,
            run_graph_history: FxHashMap::default(),
            spec_history: FxHashMap::default(),
        }
    }

    /// Sets the worker-pool size (clamped to at least 1; 1 selects the
    /// deterministic sequential engines). Results are identical at every
    /// size. An already-spawned pool of a different size is replaced on
    /// the next parallel query.
    pub fn pool_size(mut self, size: usize) -> Self {
        let size = size.max(1);
        if size != self.pool_size {
            self.pool_size = size;
            self.pool = None;
            self.shared_pool = None;
        }
        self
    }

    /// Attaches a worker pool owned by the caller: every parallel region
    /// of this session dispatches to it instead of a session-owned pool.
    /// This is how a service multiplexes many sessions over one fixed
    /// set of worker threads (see the `tm-service` crate). The session's
    /// pool size becomes the shared pool's.
    pub fn shared_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool_size = pool.size();
        self.pool = None;
        self.shared_pool = Some(pool);
        self
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

    /// [`Verifier::max_states`] for an already-shared session: the
    /// consuming builder setters cannot reconfigure a `Verifier` living
    /// inside an `Arc<Mutex<_>>`, so the reconfigurable limits also have
    /// `&mut self` forms usable through a lock guard.
    pub fn set_max_states(&mut self, max_states: usize) {
        self.max_states = max_states;
    }

    /// [`Verifier::deadline`] in `&mut self` form (see
    /// [`Verifier::set_max_states`]); `None` clears the deadline.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// [`Verifier::cancel_token`] in `&mut self` form (see
    /// [`Verifier::set_max_states`]); `None` detaches the token.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
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

    /// Number of threads of the session's instance size.
    pub fn instance_threads(&self) -> usize {
        self.threads
    }

    /// Number of variables of the session's instance size.
    pub fn instance_vars(&self) -> usize {
        self.vars
    }

    /// The configured worker-pool size.
    pub fn configured_pool_size(&self) -> usize {
        self.pool_size
    }

    /// How many run graphs this session has compiled so far — one per
    /// distinct TM with at least one liveness query, never more (the
    /// build-once counter the `tables` bin asserts on).
    pub fn run_graph_builds(&self) -> usize {
        self.run_graph_builds
    }

    /// How many specification artifacts this session has built so far —
    /// at most one per (property, instance size) queried.
    pub fn spec_builds(&self) -> usize {
        self.spec_builds
    }

    /// The recorded build time of `tm_name`'s cached run graph, if this
    /// session has compiled one — however early in the session that
    /// happened (what the bench suite reports as the amortized
    /// per-TM build cost).
    pub fn run_graph_build_time(&self, tm_name: &str) -> Option<Duration> {
        self.run_graphs.get(tm_name).map(|artifact| artifact.build_time)
    }

    /// Spawns the pool if a parallel query needs it (a shared pool is
    /// never spawned here — the owner did).
    fn ensure_pool(&mut self) {
        if self.shared_pool.is_none() && self.pool_size > 1 && self.pool.is_none() {
            self.pool = Some(WorkerPool::new(self.pool_size));
        }
    }

    /// The executor parallel regions run on: the shared pool if one is
    /// attached, else the session-owned pool, else sequential.
    fn executor(&self) -> Executor<'_> {
        if let Some(pool) = self.shared_pool.as_deref() {
            if pool.size() > 1 {
                return Executor::Pool(pool);
            }
            return Executor::Sequential;
        }
        match self.pool.as_ref() {
            Some(pool) => Executor::Pool(pool),
            None => Executor::Sequential,
        }
    }

    /// Evicts the cached compiled run graph of `tm_name`, returning
    /// whether one was cached. The next liveness query for that TM
    /// transparently rebuilds it — and reports the build in
    /// [`QueryStats::rebuilds`] and [`Verifier::run_graph_rebuilds`].
    /// Verdicts and lassos are unaffected by eviction (the build is
    /// deterministic); only time and memory are.
    pub fn drop_run_graph(&mut self, tm_name: &str) -> bool {
        self.run_graphs.remove(tm_name).is_some()
    }

    /// Evicts every cached specification artifact for `property`, at
    /// every instance size this session has touched, returning whether
    /// any was cached. The next safety query against the property
    /// transparently rebuilds (and reports a rebuild, as with
    /// [`Verifier::drop_run_graph`]).
    pub fn drop_spec(&mut self, property: SafetyProperty) -> bool {
        let before = self.lazy_specs.len();
        self.lazy_specs.retain(|key, _| key.0 != property);
        before != self.lazy_specs.len()
    }

    /// Exports the cached compiled run graph of `tm_name` for
    /// persistence: the graph (cloned), the states-explored figure, and
    /// the original build time. `None` when nothing is cached. Pairs
    /// with [`Verifier::import_run_graph`]; a service *demotes* an
    /// artifact by exporting it to disk and then calling
    /// [`Verifier::drop_run_graph`].
    pub fn export_run_graph(
        &self,
        tm_name: &str,
    ) -> Option<(CompiledRunGraph<RunLabel>, usize, Duration)> {
        self.run_graphs
            .get(tm_name)
            .map(|artifact| (artifact.graph.clone(), artifact.states, artifact.build_time))
    }

    /// Installs a previously exported (or freshly loaded-from-disk)
    /// compiled run graph as `tm_name`'s cached artifact, replacing any
    /// cached one.
    ///
    /// Importing is **neither a build nor a rebuild** — the build
    /// counters and [`QueryStats::rebuilds`] are untouched, so a
    /// warm-started service truthfully reports zero rebuilds. The build
    /// *history* is marked, so a later eviction followed by an actual
    /// build still counts as a rebuild.
    ///
    /// The graph must come from [`Verifier::export_run_graph`] or a
    /// verified store load: builds are deterministic, so an imported
    /// artifact answers queries bit-identically to a rebuilt one.
    pub fn import_run_graph(
        &mut self,
        tm_name: &str,
        graph: CompiledRunGraph<RunLabel>,
        states: usize,
        build_time: Duration,
    ) {
        self.run_graphs.insert(
            tm_name.to_owned(),
            RunGraphArtifact {
                graph,
                states,
                build_time,
            },
        );
        *self
            .run_graph_history
            .entry(tm_name.to_owned())
            .or_insert(0) += 1;
    }

    /// Exports the interned rows of the cached lazy specification for
    /// `(property, n, k)`: the interned states, the computed successor
    /// rows, and the original build time. `None` when nothing is cached.
    /// Pairs with
    /// [`Verifier::import_lazy_spec`].
    #[allow(clippy::type_complexity)]
    pub fn export_lazy_spec(
        &self,
        property: SafetyProperty,
        n: usize,
        k: usize,
    ) -> Option<(Vec<tm_spec::DetState>, Vec<Option<Box<[u32]>>>, Duration)> {
        self.lazy_specs.get(&(property, n, k)).map(|artifact| {
            let (states, rows) = artifact.cache.to_parts();
            (states, rows, artifact.build_time)
        })
    }

    /// Installs previously exported lazy-specification rows for
    /// `(property, n, k)`, validating them against a freshly
    /// constructed specification source (initial state, row widths, id
    /// ranges). Like [`Verifier::import_run_graph`], this is neither a
    /// build nor a rebuild, but it marks the build history.
    ///
    /// The interned rows are a pure memo of the deterministic
    /// specification semantics — ids are dense renames in discovery
    /// order, and any state the memo lacks is stepped on demand — so an
    /// import can change timing, never verdicts.
    ///
    /// # Errors
    ///
    /// A static description of the first validation failure; the
    /// session is left unchanged.
    pub fn import_lazy_spec(
        &mut self,
        property: SafetyProperty,
        n: usize,
        k: usize,
        states: Vec<tm_spec::DetState>,
        rows: Vec<Option<Box<[u32]>>>,
        build_time: Duration,
    ) -> Result<(), &'static str> {
        let source = DtsSpecSource::new(DetSpec::new(property, n, k), spec_alphabet(n, k));
        let cache = SpecCache::from_parts(source, states, rows)?;
        self.lazy_specs
            .insert((property, n, k), LazySpec { cache, build_time });
        *self.spec_history.entry((property, n, k)).or_insert(0) += 1;
        Ok(())
    }

    /// How many run-graph builds were *re*builds after a
    /// [`Verifier::drop_run_graph`] eviction.
    pub fn run_graph_rebuilds(&self) -> usize {
        self.run_graph_rebuilds
    }

    /// How many specification builds were *re*builds after a
    /// [`Verifier::drop_spec`] eviction.
    pub fn spec_rebuilds(&self) -> usize {
        self.spec_rebuilds
    }

    /// Estimated heap footprint of `tm_name`'s cached run graph (the
    /// [`tm_automata::CompiledRunGraph::heap_bytes`] figure), if one is
    /// cached.
    pub fn run_graph_heap_bytes(&self, tm_name: &str) -> Option<usize> {
        self.run_graphs.get(tm_name).map(|artifact| artifact.graph.heap_bytes())
    }

    /// Estimated heap footprint of every cached specification artifact
    /// for `property` (summed over instance sizes), or `None` if none is
    /// cached.
    pub fn spec_heap_bytes(&self, property: SafetyProperty) -> Option<usize> {
        let mut bytes = 0;
        let mut any = false;
        for (key, artifact) in &self.lazy_specs {
            if key.0 == property {
                bytes += artifact.cache.heap_bytes();
                any = true;
            }
        }
        any.then_some(bytes)
    }

    /// Estimated heap footprint of every cached artifact of the session
    /// (run graphs plus specifications).
    pub fn artifact_heap_bytes(&self) -> usize {
        let graphs: usize = self
            .run_graphs
            .values()
            .map(|artifact| artifact.graph.heap_bytes())
            .sum();
        let specs: usize = self.lazy_specs.values().map(|a| a.cache.heap_bytes()).sum();
        graphs + specs
    }

    /// Names of the TMs whose run graphs are currently cached, sorted
    /// (the hash map's own order is not deterministic).
    pub fn cached_run_graphs(&self) -> Vec<String> {
        let mut names: Vec<String> = self.run_graphs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Checks a safety property of `tm` on the most general program,
    /// reusing the session's specification artifact for the property.
    /// The product search runs on the deterministic sequential engine
    /// whatever the pool size.
    ///
    /// A state space exceeding the session's bound, an expired
    /// [`Verifier::deadline`], or a cancelled [`Verifier::cancel_token`]
    /// returns [`VerdictOutcome::Aborted`] with partial stats — never a
    /// panic.
    ///
    /// # Panics
    ///
    /// Panics if `tm`'s instance size disagrees with the session's.
    pub fn check_safety<A>(&mut self, tm: &A, property: SafetyProperty) -> Verdict
    where
        A: TmAlgorithm + Sync,
        A::State: Send + Sync,
    {
        assert_eq!(tm.threads(), self.threads, "thread count mismatch");
        assert_eq!(tm.vars(), self.vars, "variable count mismatch");
        capture_phases(|| self.safety_query(tm, property))
    }

    /// The safety pipeline, parameterized over the TM's own size so the
    /// reduction methodology can run spot checks at non-session sizes
    /// against the same artifact caches.
    fn safety_query<A>(&mut self, tm: &A, property: SafetyProperty) -> Verdict
    where
        A: TmAlgorithm + Sync,
        A::State: Send + Sync,
    {
        let total = Instant::now();
        let (n, k) = (tm.threads(), tm.vars());
        let key = (property, n, k);
        let budget = self.query_budget();
        let cached = self.lazy_specs.contains_key(&key);
        let mut rebuilds = 0;
        if !cached {
            let build = Instant::now();
            let spec = DetSpec::new(property, n, k);
            let source = DtsSpecSource::new(spec, spec_alphabet(n, k));
            self.lazy_specs.insert(
                key,
                LazySpec {
                    cache: SpecCache::new(source),
                    build_time: build.elapsed(),
                },
            );
            rebuilds = self.record_spec_build(property, n, k);
        }
        let artifact = self.lazy_specs.get_mut(&key).expect("just ensured");
        let build_time = if cached {
            Duration::ZERO
        } else {
            artifact.build_time
        };
        let source = MostGeneralSource::new(
            tm,
            Alphabet::from_letters(artifact.cache.source().letters()),
        );
        let search = Instant::now();
        let stats = |states_explored, search_time| QueryStats {
            states_explored,
            build_time,
            search_time,
            pool_size: 1, // the lazy spec path is sequential
            artifact_cached: cached,
            rebuilds,
            ..QueryStats::default()
        };
        let checked = check_inclusion_otf_cached(&source, &mut artifact.cache, &budget);
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
            artifact.cache.touched(),
            search_time,
            total.elapsed(),
        );
        Verdict {
            stats: stats(verdict.product_states, search_time),
            outcome: VerdictOutcome::Safety(verdict),
        }
    }

    /// Records a specification build in the counters, returning 1 when it
    /// was a rebuild (the artifact existed before a
    /// [`Verifier::drop_spec`]) and 0 on first build.
    fn record_spec_build(&mut self, property: SafetyProperty, n: usize, k: usize) -> usize {
        self.spec_builds += 1;
        let rebuilt = bump_build_history(self.spec_history.entry((property, n, k)).or_insert(0));
        self.spec_rebuilds += rebuilt;
        rebuilt
    }

    /// Checks a liveness property of `tm` (× its contention manager) on
    /// the most general program. The compiled run graph is built on the
    /// first query for this TM and cached; subsequent properties are pure
    /// loop searches over it, fanned out on the session pool.
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
        let key = tm.name();
        let cached = self.run_graphs.contains_key(&key);
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
                            pool_size: 1,
                            artifact_cached: false,
                            rebuilds: 0,
                            ..QueryStats::default()
                        },
                    );
                }
            };
            self.run_graphs.insert(
                key.clone(),
                RunGraphArtifact {
                    graph,
                    states: states.len(),
                    build_time: build.elapsed(),
                },
            );
            self.run_graph_builds += 1;
            rebuilds = bump_build_history(self.run_graph_history.entry(key.clone()).or_insert(0));
            self.run_graph_rebuilds += rebuilds;
        }
        self.ensure_pool();
        let queries = property_queries(self.threads, property);
        let artifact = &self.run_graphs[&key];
        let executor = self.executor();
        let search = Instant::now();
        let outcome = match artifact.graph.find_first_loop(&queries, &executor, &budget) {
            Ok(Some((_, lasso))) => LivenessOutcome::Violation(RunLasso {
                prefix: lasso.prefix,
                cycle: lasso.cycle,
            }),
            Ok(None) => LivenessOutcome::Verified,
            Err(error) => {
                return abort_verdict(
                    error,
                    QueryStats {
                        states_explored: artifact.states,
                        build_time: if cached { Duration::ZERO } else { artifact.build_time },
                        search_time: search.elapsed(),
                        pool_size: executor.threads(),
                        artifact_cached: cached,
                        rebuilds,
                        ..QueryStats::default()
                    },
                );
            }
        };
        let search_time = search.elapsed();
        let verdict = LivenessVerdict {
            tm_name: key,
            property,
            tm_states: artifact.states,
            total_time: total.elapsed(),
            outcome,
        };
        Verdict {
            outcome: VerdictOutcome::Liveness(verdict),
            stats: QueryStats {
                states_explored: artifact.states,
                build_time: if cached { Duration::ZERO } else { artifact.build_time },
                search_time,
                pool_size: executor.threads(),
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
        A: TmAlgorithm + Sync,
        A::State: Send + Sync,
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
        A: TmAlgorithm + Sync,
        A::State: Send + Sync,
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
        let pool_size = base.stats.pool_size;
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
                        pool_size,
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
                pool_size,
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

/// Bumps a per-artifact build-history entry, returning 1 when the build
/// was a *re*build (the artifact had been built — and evicted — before)
/// and 0 on first build. The one place the rebuild-counting rule lives,
/// shared by the spec and run-graph paths.
fn bump_build_history(seen: &mut usize) -> usize {
    *seen += 1;
    usize::from(*seen > 1)
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
        assert_eq!(verifier.spec_builds(), 1);
        let second = verifier.check_safety(&TwoPhaseTm::new(2, 2), SafetyProperty::Opacity);
        assert!(second.holds());
        assert!(second.stats.artifact_cached);
        assert_eq!(second.stats.build_time, Duration::ZERO);
        assert_eq!(verifier.spec_builds(), 1);
        // A different property is a different artifact.
        let other = verifier
            .check_safety(&SequentialTm::new(2, 2), SafetyProperty::StrictSerializability);
        assert!(!other.stats.artifact_cached);
        assert_eq!(verifier.spec_builds(), 2);
    }

    #[test]
    fn liveness_graph_is_built_once_per_tm() {
        let mut verifier = Verifier::new(2, 1).pool_size(4);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let first = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert!(first.holds());
        assert!(!first.stats.artifact_cached);
        for property in [LivenessProperty::LivelockFreedom, LivenessProperty::WaitFreedom] {
            let verdict = verifier.check_liveness(&tm, property);
            assert!(!verdict.holds());
            assert!(verdict.stats.artifact_cached);
            assert_eq!(verdict.stats.build_time, Duration::ZERO);
            assert_eq!(verdict.stats.pool_size, 4);
        }
        assert_eq!(verifier.run_graph_builds(), 1);
        // A different TM builds its own graph.
        let other = TwoPhaseTm::new(2, 1);
        assert!(!verifier
            .check_liveness(&other, LivenessProperty::ObstructionFreedom)
            .holds());
        assert_eq!(verifier.run_graph_builds(), 2);
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
        assert_eq!(verifier.spec_builds(), 3);
        // A second run over the same family answers from cache.
        let again = verifier.verify_with_reduction(
            SequentialTm::new,
            SafetyProperty::Opacity,
            4,
            &[(2, 1), (3, 1)],
        );
        assert!(again.holds());
        assert!(again.stats.artifact_cached);
        assert_eq!(verifier.spec_builds(), 3);
    }

    #[test]
    #[should_panic(expected = "thread count mismatch")]
    fn size_mismatch_is_rejected() {
        let mut verifier = Verifier::new(2, 2);
        let _ = verifier.check_safety(&SequentialTm::new(3, 2), SafetyProperty::Opacity);
    }

    #[test]
    fn a_state_blowup_aborts_instead_of_panicking() {
        for pool in [1, 4] {
            let mut verifier = Verifier::new(2, 2).pool_size(pool).max_states(10);
            let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
            assert!(!verdict.holds(), "pool={pool}");
            assert_eq!(
                verdict.abort_reason(),
                Some(EngineError::StateLimit(10)),
                "pool={pool}"
            );
            let mut verifier = Verifier::new(2, 1).pool_size(pool).max_states(10);
            let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
            let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
            assert!(!verdict.holds(), "pool={pool} liveness");
            assert_eq!(verdict.abort_reason(), Some(EngineError::StateLimit(10)));
        }
    }

    #[test]
    fn an_expired_deadline_aborts_every_engine() {
        for pool in [1, 4] {
            let mut verifier = Verifier::new(2, 2).pool_size(pool).deadline(Duration::ZERO);
            let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
            assert_eq!(
                verdict.abort_reason(),
                Some(EngineError::Deadline),
                "pool={pool}"
            );
            let mut verifier = Verifier::new(2, 1).pool_size(pool).deadline(Duration::ZERO);
            let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
            let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
            assert_eq!(verdict.abort_reason(), Some(EngineError::Deadline));
        }
    }

    #[test]
    fn a_cancelled_token_aborts_every_engine() {
        for pool in [1, 4] {
            let token = CancelToken::new();
            token.cancel();
            let mut verifier = Verifier::new(2, 2)
                .pool_size(pool)
                .cancel_token(token.clone());
            let verdict = verifier.check_safety(&DstmTm::new(2, 2), SafetyProperty::Opacity);
            assert_eq!(verdict.abort_reason(), Some(EngineError::Cancelled), "pool={pool}");
            let mut verifier = Verifier::new(2, 1).pool_size(pool).cancel_token(token);
            let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
            let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
            assert_eq!(verdict.abort_reason(), Some(EngineError::Cancelled));
        }
    }

    #[test]
    fn an_aborted_query_reports_partial_stats_and_recovers() {
        // The same session answers normally once the limit is lifted —
        // an abort must not poison the artifact caches.
        let mut verifier = Verifier::new(2, 1).pool_size(1).max_states(10);
        let tm = WithContentionManager::new(DstmTm::new(2, 1), AggressiveCm);
        let aborted = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert_eq!(aborted.abort_reason(), Some(EngineError::StateLimit(10)));
        assert_eq!(aborted.stats.pool_size, 1);
        let mut verifier = verifier.max_states(1_000_000);
        let verdict = verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom);
        assert!(verdict.holds());
    }

    #[test]
    fn reduction_stops_at_the_first_aborted_query() {
        let mut verifier = Verifier::new(2, 2).pool_size(1).max_states(10);
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
