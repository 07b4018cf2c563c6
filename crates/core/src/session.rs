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
//!   [`tm_automata::SpecCache`] over the property's
//!   [`tm_spec::QuotientSpec`], its rows interned lazily), shared by every
//!   TM checked against the same property and searched by the one product
//!   engine, [`tm_automata::check_inclusion_otf`];
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
//! The specification artifact interns [`tm_spec::DetSpec`]'s states by a
//! normal form ([`tm_spec::QuotientSpec`]): for strict serializability a
//! doomed transaction keeps only its phase, which takes the Table 2
//! specification from 3214 touched states to 910 keys and the product
//! with it; for opacity the key is the state. The quotient accepts the
//! same words, and its product search reports the same shortest
//! counterexample (the proof is in `tm_spec::QuotientSpec`'s module
//! docs; `tests/spec_quotient.rs` validates the normal form against
//! `DetSpec::to_dfa`). Only `product_states` and `spec_states` count
//! keys instead of states. There is no switch back to the unquotiented
//! specification in the session: a plain `SpecCache<DetSpec>` is the
//! tests' oracle.
//!
//! Every query returns one [`Verdict`]: an [`Outcome`] (verified, a
//! counterexample word, a lasso, reduction evidence, or an abort) and
//! [`QueryStats`] (states explored, build vs. search time, cache hit),
//! seeded by the one step that acquires the query's artifact. Verdicts,
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
    check_inclusion_otf, Alphabet, CompiledRunGraph, EngineError, FxHashMap, InclusionResult,
    QueryBudget, SpecCache, SpecRows,
};
use tm_lang::{LivenessProperty, SafetyProperty, Word};
use tm_spec::{spec_alphabet, DetState, QuotientSpec};

use crate::liveness::{property_queries, RunLasso};
use crate::reduction::ReductionEvidence;
use crate::report::{Outcome, QueryStats, Verdict};
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
    /// the specification rules ([`tm_spec::QuotientSpec`]) are stepped on
    /// the fly, so only specification keys some TM actually reaches are
    /// ever computed — which is what lets safety scale past (3, 2),
    /// where determinizing the whole specification up front would
    /// dominate every check. Shared by every TM checked against the
    /// property.
    Spec {
        /// The interned rows over the specification rules.
        cache: SpecCache<QuotientSpec>,
        /// Wall time of the original build.
        build_time: Duration,
    },
}

impl Artifact {
    /// Reassembles the specification artifact of `(property, threads,
    /// vars)` from stored interned rows, validated by
    /// [`SpecCache::from_parts`] against freshly built specification
    /// rules (initial state, row widths, id ranges) after checking that
    /// every stored state is a key of the normal form
    /// ([`QuotientSpec::normalize`] leaves it unchanged), so rows
    /// interned without the quotient are never taken for quotient rows.
    /// The rows are a pure memo of the specification, so an artifact
    /// that passes can change timing, never verdicts.
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
        let spec = QuotientSpec::new(property, threads, vars);
        if states.iter().any(|state| spec.normalize(state) != *state) {
            return Err("interned state is not in normal form");
        }
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

    /// How many rows the artifact holds: a run graph's states (one CSR
    /// row each, fixed at build), a specification's computed letter rows
    /// (they only grow). A stored copy with fewer rows than the resident
    /// artifact is stale.
    pub fn rows(&self) -> usize {
        match self {
            Artifact::RunGraph { states, .. } => *states,
            Artifact::Spec { cache, .. } => cache.rows_built(),
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
    /// [`crate::DEFAULT_MAX_STATES`] bound and no deadline.
    pub fn new(threads: usize, vars: usize) -> Self {
        Verifier {
            threads,
            vars,
            max_states: DEFAULT_MAX_STATES,
            deadline: None,
            artifacts: FxHashMap::default(),
            history: FxHashMap::default(),
            builds: 0,
            rebuilds: 0,
        }
    }

    /// Sets the bound on reachable state spaces. A query whose state
    /// space exceeds the bound returns
    /// [`Outcome::Aborted`]`(`[`EngineError::StateLimit`]`)`
    /// instead of panicking.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Sets a per-query wall-clock deadline: each subsequent query that
    /// runs longer (artifact build included) returns
    /// [`Outcome::Aborted`]`(`[`EngineError::Deadline`]`)` with
    /// the partial stats it had accumulated. The engines poll the
    /// deadline at BFS level boundaries and Tarjan iteration chunks, so
    /// overshoot is bounded by one chunk.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The budget one query runs under: the session's state bound, plus
    /// the optional deadline (counted from *now* — each query gets the
    /// full window).
    fn query_budget(&self) -> QueryBudget {
        let budget = QueryBudget::new(self.max_states);
        match self.deadline {
            Some(deadline) => budget.with_timeout(deadline),
            None => budget,
        }
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

    /// The artifact step every query starts with: the artifact cached
    /// under `key`, or else a fresh `build()`, recorded as a build (or
    /// rebuild). Returns the artifact — or the build's abort — and the
    /// query's stats seeded with what acquiring it cost: build time,
    /// cache hit, rebuilds.
    fn acquire(
        &mut self,
        key: &ArtifactKey,
        build: impl FnOnce() -> Result<Artifact, EngineError>,
    ) -> (Result<&mut Artifact, EngineError>, QueryStats) {
        let mut stats = QueryStats {
            artifact_cached: self.artifacts.contains_key(key),
            ..QueryStats::default()
        };
        if !stats.artifact_cached {
            let start = Instant::now();
            match build() {
                Ok(artifact) => {
                    stats.build_time = artifact.build_time();
                    stats.rebuilds = self.record_build(key.clone(), artifact);
                }
                Err(error) => {
                    stats.build_time = start.elapsed();
                    return (Err(error), stats);
                }
            }
        }
        let artifact = self.artifacts.get_mut(key).expect("acquired above");
        (Ok(artifact), stats)
    }

    /// Checks a safety property of `tm` on the most general program,
    /// reusing the session's specification artifact for the property.
    ///
    /// A state space exceeding the session's bound or an expired
    /// [`Verifier::deadline`] returns [`Outcome::Aborted`] with partial
    /// stats — never a panic.
    ///
    /// # Panics
    ///
    /// Panics if `tm`'s instance size disagrees with the session's.
    pub fn check_safety<A: TmAlgorithm>(&mut self, tm: &A, property: SafetyProperty) -> Verdict {
        assert_eq!(tm.threads(), self.threads, "thread count mismatch");
        assert_eq!(tm.vars(), self.vars, "variable count mismatch");
        self.safety_query(tm, property)
    }

    /// The safety pipeline, parameterized over the TM's own size so the
    /// reduction methodology can run spot checks at non-session sizes
    /// against the same artifact caches.
    fn safety_query<A: TmAlgorithm>(&mut self, tm: &A, property: SafetyProperty) -> Verdict {
        let (n, k) = (tm.threads(), tm.vars());
        let budget = self.query_budget();
        let (acquired, mut stats) = self.acquire(&ArtifactKey::spec(property, n, k), || {
            let start = Instant::now();
            let cache = SpecCache::new(QuotientSpec::new(property, n, k), spec_alphabet(n, k));
            let build_time = start.elapsed();
            Ok(Artifact::Spec { cache, build_time })
        });
        let Ok(Artifact::Spec { cache, .. }) = acquired else {
            unreachable!("a spec build never aborts, and a spec key holds a spec artifact");
        };
        let source = MostGeneralSource::new(tm, Alphabet::from_letters(cache.letters()));
        let search = Instant::now();
        let checked = check_inclusion_otf(&source, cache, &budget);
        stats.search_time = search.elapsed();
        let (result, otf) = match checked {
            Ok(pair) => pair,
            Err(error) => {
                let outcome = Outcome::Aborted(error);
                return Verdict { outcome, stats };
            }
        };
        stats.states_explored = result.product_states();
        stats.tm_states = otf.impl_states;
        stats.spec_states = cache.touched();
        let outcome = match result {
            InclusionResult::Included { .. } => Outcome::Verified,
            InclusionResult::Counterexample { word, .. } => {
                let word: Word = word.into_iter().collect();
                debug_assert!(
                    !property.holds(&word),
                    "counterexample not confirmed by the reference checker: {word}"
                );
                Outcome::Counterexample(word)
            }
        };
        Verdict { outcome, stats }
    }

    /// Checks a liveness property of `tm` (× its contention manager) on
    /// the most general program. The compiled run graph is built on the
    /// first query for this TM and cached; subsequent properties are pure
    /// loop searches over it.
    ///
    /// A run-graph state space exceeding the session's bound or an
    /// expired [`Verifier::deadline`] returns [`Outcome::Aborted`] with
    /// partial stats — never a panic.
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
        let budget = self.query_budget();
        let queries = property_queries(self.threads, property);
        let key = ArtifactKey::run_graph(tm.name(), self.threads, self.vars);
        let (acquired, mut stats) = self.acquire(&key, || {
            let start = Instant::now();
            let source = MostGeneralRunSource::new(tm);
            let (graph, states) = CompiledRunGraph::build_budget(&source, &budget)?;
            let build_time = start.elapsed();
            Ok(Artifact::RunGraph {
                graph,
                states: states.len(),
                build_time,
            })
        });
        let artifact = match acquired {
            Ok(artifact) => artifact,
            Err(error) => {
                let outcome = Outcome::Aborted(error);
                return Verdict { outcome, stats };
            }
        };
        let Artifact::RunGraph { graph, states, .. } = artifact else {
            unreachable!("a run-graph key holds a run graph");
        };
        stats.states_explored = *states;
        let search = Instant::now();
        let found = graph.find_first_loop(&queries, &budget);
        stats.search_time = search.elapsed();
        let outcome = match found {
            Ok(Some((_, lasso))) => Outcome::Lasso(RunLasso {
                prefix: lasso.prefix,
                cycle: lasso.cycle,
            }),
            Ok(None) => Outcome::Verified,
            Err(error) => Outcome::Aborted(error),
        };
        Verdict { outcome, stats }
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
    /// The stats are the base check's, with the build and search times,
    /// cache hits and rebuilds of the structural evidence and the spot
    /// checks added in. If any constituent query aborts at a resource
    /// limit (state bound, deadline), the whole run returns that
    /// [`Outcome::Aborted`] with the stats accumulated so far.
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
        let base_tm = make(self.threads, self.vars);
        let base = self.safety_query(&base_tm, property);
        if base.abort_reason().is_some() {
            return base;
        }
        let mut stats = base.stats;
        let structural_start = Instant::now();
        let structural = check_all_structural(&base_tm, structural_depth);
        // Structural evidence is part of the methodology's search.
        stats.search_time += structural_start.elapsed();
        let mut spot_checks = Vec::with_capacity(spot_sizes.len());
        for &(n, k) in spot_sizes {
            let spot = self.safety_query(&make(n, k), property);
            stats.build_time += spot.stats.build_time;
            stats.search_time += spot.stats.search_time;
            stats.artifact_cached &= spot.stats.artifact_cached;
            stats.rebuilds += spot.stats.rebuilds;
            if let Some(error) = spot.abort_reason() {
                let outcome = Outcome::Aborted(error);
                return Verdict { outcome, stats };
            }
            spot_checks.push(spot);
        }
        let evidence = ReductionEvidence {
            base_verdict: Box::new(base),
            structural,
            spot_checks,
        };
        Verdict {
            outcome: Outcome::Reduction(evidence),
            stats,
        }
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
    fn queries_record_engine_phases_into_the_callers_recorder() {
        use tm_obs::Phase;
        let mut verifier = Verifier::new(2, 1);
        let tm = DstmTm::new(2, 1);
        let (safety, record) = tm_obs::with_recorder(false, || {
            verifier.check_safety(&tm, SafetyProperty::Opacity)
        });
        assert!(safety.holds());
        assert!(record.phase_ns[Phase::BfsLevel as usize] > 0, "{record:?}");
        let (liveness, record) = tm_obs::with_recorder(false, || {
            verifier.check_liveness(&tm, LivenessProperty::ObstructionFreedom)
        });
        assert!(!liveness.stats.artifact_cached);
        assert!(record.phase_ns[Phase::RunGraphBuild as usize] > 0, "{record:?}");
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
        let Outcome::Reduction(evidence) = &verdict.outcome else {
            panic!("a reduction query returns its evidence");
        };
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
