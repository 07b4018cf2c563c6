//! The in-process [`Service`]: registry + budget + scheduler behind one
//! `submit(batch)` call. The HTTP endpoint (`http.rs`, the `tm-serve`
//! bin) is a thin wire adapter over this type; everything observable —
//! verdicts, scheduling, eviction, statistics — lives here and is
//! testable without a socket.
//!
//! The whole API is `&self`: a `Service` is shared across connection
//! threads as a plain `Arc`, and concurrent `submit` calls overlap.
//! Internally the lock hierarchy is **registry → session → budget
//! ledger** (see `registry.rs` and `budget.rs`): the registry lock only
//! resolves sessions, each `(n, k)` session has its own mutex (so
//! batches on different instance sizes run concurrently while queries
//! on one session serialize — which also makes artifact builds
//! single-flight per key), and the budget ledger pins in-flight
//! artifacts so a concurrent batch can never evict an artifact
//! mid-query.
//!
//! Every counter lives once, as a handle in the service's own `tm-obs`
//! [`Registry`]: [`Service::stats`], [`Service::sessions_snapshot`] and
//! [`Service::render_prometheus`] (`/metrics`) read the same handles, so
//! the three surfaces agree and none of them waits on a running query.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tm_automata::{fault, EngineError};
use tm_checker::{Artifact, ArtifactKey, Outcome, Verdict, Verifier};
use tm_obs::{
    Counter, EventKind, Gauge, GaugeF, Histogram, JournalEvent, LogValue, Phase, Registry,
    TraceRecord, Unit,
};
use tm_store::{ArtifactStore, StoreConfig, StoreCounters, StoreEntry};

use crate::budget::SharedBudget;
use crate::registry::{lock_session, Session, SessionRegistry};
use crate::roster::{run_query, QuerySpec, MAX_QUERY_THREADS, MAX_QUERY_VARS};
use crate::scheduler::execution_order;

/// Default bound on reachable state spaces (the experiment suite's).
pub const DEFAULT_SERVICE_MAX_STATES: usize = 20_000_000;

/// Default bound on concurrently admitted `/v1/batch` requests.
pub const DEFAULT_MAX_INFLIGHT: usize = 4;

/// Environment variable holding the artifact memory budget for
/// [`ServiceConfig::from_env`]: plain bytes with an optional `k`/`m`/`g`
/// suffix (powers of 1024); `0` or `unbounded` disables the budget.
pub const MEM_BUDGET_ENV: &str = "TM_SERVICE_MEM_BUDGET";

/// Environment variable holding the per-query deadline in milliseconds
/// (`0` or unset = none).
pub const QUERY_DEADLINE_ENV: &str = "TM_SERVICE_QUERY_DEADLINE_MS";

/// Environment variable holding the per-batch deadline in milliseconds
/// (`0` or unset = none). A request-supplied `deadline_ms` overrides it.
pub const BATCH_DEADLINE_ENV: &str = "TM_SERVICE_BATCH_DEADLINE_MS";

/// Environment variable bounding concurrently admitted batch requests
/// (unset = [`DEFAULT_MAX_INFLIGHT`]; `0` = unbounded).
pub const MAX_INFLIGHT_ENV: &str = "TM_SERVICE_MAX_INFLIGHT";

/// Environment variable holding the persistent artifact store directory
/// (unset or empty = no store). With a store, budget evictions *demote*
/// artifacts to disk instead of discarding them, built artifacts and
/// specifications that a query grew are written through, and a new
/// service warm-starts its sessions from the directory — a restarted
/// daemon answers its old roster with zero rebuilds and no new
/// specification rows.
pub const STORE_DIR_ENV: &str = "TM_STORE_DIR";

/// Environment variable holding the on-disk byte cap for the store's own
/// LRU, in [`MEM_BUDGET_ENV`] syntax (`0`/`unbounded`/unset = no cap).
pub const STORE_CAP_ENV: &str = "TM_STORE_CAP";

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Artifact byte budget (`None` = unbounded).
    pub mem_budget: Option<usize>,
    /// Bound on reachable state spaces.
    pub max_states: usize,
    /// Per-query wall-clock deadline (`None` = none). A query that runs
    /// longer aborts with [`EngineError::Deadline`].
    pub query_deadline: Option<Duration>,
    /// Per-batch wall-clock deadline (`None` = none). Queries still
    /// unanswered when it expires are shed as aborted results without
    /// running; a request-supplied `deadline_ms` overrides this default.
    pub batch_deadline: Option<Duration>,
    /// Bound on concurrently admitted `/v1/batch` requests; requests
    /// beyond it are shed with HTTP 429 (`0` = unbounded).
    pub max_inflight: usize,
    /// Directory of the persistent artifact store (`None` = none). See
    /// [`STORE_DIR_ENV`] for the semantics it enables.
    pub store_dir: Option<PathBuf>,
    /// On-disk byte cap for the store's own LRU (`None` = unbounded).
    pub store_cap: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mem_budget: None,
            max_states: DEFAULT_SERVICE_MAX_STATES,
            query_deadline: None,
            batch_deadline: None,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            store_dir: None,
            store_cap: None,
        }
    }
}

impl ServiceConfig {
    /// The default configuration with the memory budget read from
    /// [`MEM_BUDGET_ENV`] (unset, empty, `0`, or `unbounded` mean no
    /// budget; a malformed value is an error), the deadlines from
    /// [`QUERY_DEADLINE_ENV`] / [`BATCH_DEADLINE_ENV`], and the
    /// admission bound from [`MAX_INFLIGHT_ENV`].
    pub fn from_env() -> Result<Self, String> {
        let mem_budget = match std::env::var(MEM_BUDGET_ENV) {
            Err(_) => None,
            Ok(value) => parse_mem_budget(&value)?,
        };
        let millis = |name: &str| -> Result<Option<Duration>, String> {
            match std::env::var(name) {
                Err(_) => Ok(None),
                Ok(value) => {
                    let value = value.trim();
                    if value.is_empty() || value == "0" {
                        return Ok(None);
                    }
                    value
                        .parse::<u64>()
                        .map(|ms| Some(Duration::from_millis(ms)))
                        .map_err(|e| format!("bad {name}={value:?}: {e}"))
                }
            }
        };
        let max_inflight = match std::env::var(MAX_INFLIGHT_ENV) {
            Err(_) => DEFAULT_MAX_INFLIGHT,
            Ok(value) => value
                .trim()
                .parse()
                .map_err(|e| format!("bad {MAX_INFLIGHT_ENV}={value:?}: {e}"))?,
        };
        let store_dir = match std::env::var(STORE_DIR_ENV) {
            Err(_) => None,
            Ok(value) => {
                let value = value.trim();
                (!value.is_empty()).then(|| PathBuf::from(value))
            }
        };
        let store_cap = match std::env::var(STORE_CAP_ENV) {
            Err(_) => None,
            Ok(value) => parse_mem_budget(&value)
                .map_err(|e| format!("bad {STORE_CAP_ENV}: {e}"))?
                .map(|bytes| bytes as u64),
        };
        Ok(ServiceConfig {
            mem_budget,
            query_deadline: millis(QUERY_DEADLINE_ENV)?,
            batch_deadline: millis(BATCH_DEADLINE_ENV)?,
            max_inflight,
            store_dir,
            store_cap,
            ..ServiceConfig::default()
        })
    }
}

/// Parses a [`MEM_BUDGET_ENV`]-style byte budget: decimal bytes with an
/// optional `k`/`m`/`g` suffix; empty, `0`, and `unbounded` mean none.
pub fn parse_mem_budget(value: &str) -> Result<Option<usize>, String> {
    let value = value.trim();
    if value.is_empty() || value == "0" || value.eq_ignore_ascii_case("unbounded") {
        return Ok(None);
    }
    let (digits, shift) = match value.as_bytes().last().map(u8::to_ascii_lowercase) {
        Some(b'k') => (&value[..value.len() - 1], 10),
        Some(b'm') => (&value[..value.len() - 1], 20),
        Some(b'g') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    let bytes: usize = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad memory budget {value:?}: {e}"))?;
    bytes
        .checked_shl(shift)
        .filter(|&b| b >> shift == bytes)
        .map(Some)
        .ok_or_else(|| format!("memory budget {value:?} overflows"))
}

thread_local! {
    /// The request id of the HTTP request this thread is serving, if
    /// any — queries run on the connection thread that routed them, so
    /// journal events they emit can carry the id without threading it
    /// through every call.
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs `id` as the calling thread's request id until the guard
/// drops. The HTTP layer wraps each routed request in one; in-process
/// callers (tests, benches) publish events with an empty id.
pub(crate) fn set_request_id(id: &str) -> RequestIdGuard {
    REQUEST_ID.with(|cell| *cell.borrow_mut() = Some(id.to_owned()));
    RequestIdGuard(())
}

/// Clears the thread's request id on drop (panic-safe, like the other
/// RAII guards in this module).
pub(crate) struct RequestIdGuard(());

impl Drop for RequestIdGuard {
    fn drop(&mut self) {
        REQUEST_ID.with(|cell| cell.borrow_mut().take());
    }
}

fn current_request_id() -> String {
    REQUEST_ID.with(|cell| cell.borrow().clone().unwrap_or_default())
}

/// Publishes one lifecycle event into the global journal, stamped with
/// the current thread's request id.
fn journal(kind: EventKind, key: impl ToString, bytes: u64) {
    tm_obs::global_journal().publish(JournalEvent::now(
        kind,
        key.to_string(),
        current_request_id(),
        bytes,
    ));
}

/// Budget admissions that waited at least this long are journaled as
/// [`EventKind::AdmissionWait`] — long enough that an uncontended
/// mutex acquisition never qualifies, short enough that a query
/// actually parked on the admission condvar always does.
const ADMISSION_WAIT_JOURNAL_THRESHOLD: Duration = Duration::from_millis(1);

/// The wire-friendly outcome of one query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryOutcome {
    /// The property holds.
    Verified,
    /// A safety violation with its shortest counterexample word (the
    /// word's canonical `Display` form).
    SafetyViolation {
        /// The counterexample word.
        word: String,
    },
    /// A liveness violation with its lasso, as the run labels' canonical
    /// `Display` forms.
    LivenessViolation {
        /// Labels of the run from the initial state to the loop.
        prefix: Vec<String>,
        /// Labels of the repeated loop.
        cycle: Vec<String>,
        /// The loop in the paper's Table 3 notation.
        notation: String,
    },
    /// The query was retired at a resource limit instead of answered
    /// (`holds` is `false`): a state-space blowup, an expired deadline,
    /// or an injected fault.
    /// [`EngineError::is_retryable`] says whether resubmitting can
    /// succeed.
    Aborted {
        /// Why the query was retired.
        reason: EngineError,
    },
}

/// The service's answer to one [`QuerySpec`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryResult {
    /// The query answered.
    pub spec: QuerySpec,
    /// Full TM name (run-graph cache key, `"tm+cm"` under a manager).
    pub name: String,
    /// Whether the property holds.
    pub holds: bool,
    /// States explored (product states for safety, run-graph states for
    /// liveness).
    pub states: usize,
    /// Whether the artifact was already resident in the session.
    pub cached: bool,
    /// Whether answering required rebuilding an evicted artifact.
    pub rebuilt: bool,
    /// The verdict payload.
    pub outcome: QueryOutcome,
    /// The per-query phase trace, present only when the batch requested
    /// tracing ([`Service::submit_traced`]).
    pub trace: Option<TraceRecord>,
}

impl QueryResult {
    fn from_verdict(spec: QuerySpec, verdict: Verdict) -> Self {
        let holds = verdict.holds();
        let outcome = match verdict.outcome {
            Outcome::Verified => QueryOutcome::Verified,
            Outcome::Counterexample(word) => QueryOutcome::SafetyViolation {
                word: word.to_string(),
            },
            Outcome::Lasso(lasso) => QueryOutcome::LivenessViolation {
                prefix: lasso.prefix.iter().map(ToString::to_string).collect(),
                cycle: lasso.cycle.iter().map(ToString::to_string).collect(),
                notation: lasso.cycle_notation(),
            },
            Outcome::Aborted(reason) => QueryOutcome::Aborted { reason },
            Outcome::Reduction(_) => {
                unreachable!("the service only issues safety and liveness queries")
            }
        };
        let stats = verdict.stats;
        QueryResult {
            name: spec.tm_name(),
            spec,
            holds,
            states: stats.states_explored,
            cached: stats.artifact_cached,
            rebuilt: stats.rebuilds > 0,
            outcome,
            trace: None,
        }
    }

    /// An aborted result produced by the service layer itself (batch
    /// deadline shedding, an injected build fault) — no engine ran.
    fn aborted(spec: QuerySpec, reason: EngineError) -> Self {
        let name = spec.tm_name();
        QueryResult {
            spec,
            name,
            holds: false,
            states: 0,
            cached: false,
            rebuilt: false,
            outcome: QueryOutcome::Aborted { reason },
            trace: None,
        }
    }

    /// The abort reason, if this query was retired at a resource limit.
    pub fn abort_reason(&self) -> Option<EngineError> {
        match &self.outcome {
            QueryOutcome::Aborted { reason } => Some(*reason),
            _ => None,
        }
    }
}

/// Cumulative service counters (monotonic across batches, except the
/// instantaneous `tracked_bytes`, `store_bytes` and `store_files`).
///
/// The counters are read from the service's metrics registry, the same
/// handles `/metrics` renders: a field equals its series there (or the
/// sum of its per-session series).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServiceStats {
    /// Queries answered: the count of `tm_query_seconds`.
    pub queries: u64,
    /// Queries whose artifact was already resident
    /// (`tm_cache_hits_total`).
    pub cache_hits: u64,
    /// Artifact builds (first-time and rebuilds) that left the artifact
    /// resident, even when the query itself then aborted: the sum of the
    /// per-session `tm_artifact_builds_total` series.
    pub artifact_builds: u64,
    /// Builds that were rebuilds of an evicted artifact (the sum of
    /// `tm_artifact_rebuilds_total`).
    pub artifact_rebuilds: u64,
    /// Queries that aborted (deadline, state limit,
    /// injected fault) instead of producing a verdict:
    /// `tm_queries_total{result="aborted"}`.
    pub aborted_queries: u64,
    /// Ledger evictions (`tm_evictions_total`).
    pub evictions: u64,
    /// Currently tracked artifact bytes.
    pub tracked_bytes: usize,
    /// High-water mark of tracked bytes (never exceeds the budget while
    /// every single artifact fits it — the ledger invariant).
    pub peak_tracked_bytes: usize,
    /// The configured budget (`None` = unbounded).
    pub mem_budget: Option<usize>,
    /// Sessions created (distinct instance sizes seen).
    pub sessions: usize,
    /// Worker threads per query: always 1, since every query runs on the
    /// thread that submitted it. Kept as a `/v1/stats` field for clients
    /// that read it.
    pub pool_size: usize,
    /// Wall-clock nanoseconds spent inside `submit`, **summed across
    /// batches** — concurrent batches each contribute their full elapsed
    /// time, so on overlapping load this exceeds real wall clock. A
    /// *work* metric (total batch time served), not a utilization
    /// metric; for utilization use [`ServiceStats::busy_wall_ns`] /
    /// [`ServiceStats::uptime_ns`]. The sum of `tm_batch_seconds`.
    pub batch_ns: u64,
    /// Wall-clock nanoseconds during which **at least one** batch was in
    /// flight — each instant counted once no matter how many batches
    /// overlap, so this is monotonic and never exceeds
    /// [`ServiceStats::uptime_ns`]. `busy_wall_ns / uptime_ns` is the
    /// `tm_serve_busy_ratio` utilization gauge.
    pub busy_wall_ns: u64,
    /// Wall-clock nanoseconds since the service was constructed.
    pub uptime_ns: u64,
    /// Persistent-store loads that returned a verified artifact. Zero
    /// (like every `store_*` counter) when no store is configured.
    pub store_hits: u64,
    /// Persistent-store loads that found no file for the key.
    pub store_misses: u64,
    /// Artifacts promoted from the store into a session instead of
    /// rebuilt (a promote counts as a cache hit, not a build): the sum
    /// of the per-session `tm_store_promotes_total` series.
    pub store_promotes: u64,
    /// Eviction victims demoted to the store instead of discarded.
    pub store_demotes: u64,
    /// Store files quarantined as corrupt (checksum or content-address
    /// mismatch); each was renamed `*.quarantined` and its key rebuilt.
    pub store_corrupt: u64,
    /// Artifact files written to the store (write-through plus
    /// demotions; re-saves of a key whose file already holds as many
    /// rows are not counted).
    pub store_saves: u64,
    /// Bytes currently addressable in the store directory.
    pub store_bytes: u64,
    /// Files currently addressable in the store directory.
    pub store_files: u64,
}

/// Wall-clock accounting behind [`ServiceStats::busy_wall_ns`]: tracks
/// the number of in-flight `submit` calls and accumulates the union of
/// their busy intervals (an instant with five overlapping batches counts
/// once — the fix for the old `busy_ns` counter, which summed overlaps
/// and read as >100% utilization on one core).
struct BusyClock {
    started: Instant,
    state: Mutex<BusyState>,
}

struct BusyState {
    inflight: usize,
    busy: Duration,
    since: Option<Instant>,
}

impl BusyClock {
    fn new() -> Self {
        BusyClock {
            started: Instant::now(),
            state: Mutex::new(BusyState {
                inflight: 0,
                busy: Duration::ZERO,
                since: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BusyState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Marks one batch in flight; the clock runs while any guard lives.
    fn enter(&self) -> BusyGuard<'_> {
        let mut state = self.lock();
        if state.inflight == 0 {
            state.since = Some(Instant::now());
        }
        state.inflight += 1;
        BusyGuard { clock: self }
    }

    /// Busy wall time so far, including the currently open interval.
    fn busy_wall(&self) -> Duration {
        let state = self.lock();
        state.busy + state.since.map_or(Duration::ZERO, |since| since.elapsed())
    }

    fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Closes a [`BusyClock`] interval on drop — panic-safe, like the
/// admission guard in `http.rs`.
struct BusyGuard<'a> {
    clock: &'a BusyClock,
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.clock.lock();
        state.inflight -= 1;
        if state.inflight == 0 {
            if let Some(since) = state.since.take() {
                state.busy += since.elapsed();
            }
        }
    }
}

/// The service's own series in its metrics registry, resolved once at
/// construction. The per-session series sit on each [`Session`], the
/// eviction counter in the budget ledger and the store counters in the
/// store; all of them live in `registry`.
struct ServiceMetrics {
    registry: Arc<Registry>,
    queries_verified: Counter,
    queries_violated: Counter,
    queries_aborted: Counter,
    query_seconds: Histogram,
    batch_seconds: Histogram,
    cache_hits: Counter,
    store_demotes: Counter,
    tracked_bytes: Gauge,
    peak_tracked_bytes: Gauge,
    store_bytes: Gauge,
    busy_ratio: GaugeF,
}

impl ServiceMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        let counter = |name: &str, help: &str| r.counter(name, help, &[]);
        let gauge = |name: &str, help: &str| r.gauge(name, help, &[]);
        let seconds = |name: &str, help: &str| r.histogram(name, help, &[], Unit::Nanos);
        let queries = |result| {
            r.counter("tm_queries_total", "Queries answered, by result", &[("result", result)])
        };
        ServiceMetrics {
            queries_verified: queries("verified"),
            queries_violated: queries("violated"),
            queries_aborted: queries("aborted"),
            query_seconds: seconds(
                "tm_query_seconds",
                "End-to-end time per query (admission to settle)",
            ),
            batch_seconds: seconds("tm_batch_seconds", "Wall time per submitted batch"),
            cache_hits: counter("tm_cache_hits_total", "Queries answered from a resident artifact"),
            store_demotes: counter(
                "tm_store_demotes_total",
                "Eviction victims demoted to the persistent store instead of discarded",
            ),
            tracked_bytes: gauge(
                "tm_tracked_bytes",
                "Artifact bytes currently tracked by the budget ledger",
            ),
            peak_tracked_bytes: gauge(
                "tm_peak_tracked_bytes",
                "High-water mark of tracked artifact bytes",
            ),
            store_bytes: gauge(
                "tm_store_bytes",
                "Bytes currently addressable in the persistent artifact store",
            ),
            busy_ratio: r.gauge_f(
                "tm_serve_busy_ratio",
                "Fraction of service uptime with at least one batch in flight",
                &[],
            ),
            registry,
        }
    }

    /// Per-query updates: the result counter and the latency histogram
    /// (cheap relaxed adds, done inline).
    fn observe_query(&self, result: &QueryResult, elapsed: Duration) {
        match &result.outcome {
            QueryOutcome::Aborted { reason } => {
                self.queries_aborted.inc();
                // Abort-reason cardinality is the 5 EngineError codes;
                // aborts are rare, so the registry lookup per abort is
                // fine.
                self.registry
                    .counter(
                        "tm_aborted_queries_total",
                        "Aborted queries, by abort reason",
                        &[("reason", reason.code())],
                    )
                    .inc();
            }
            _ if result.holds => self.queries_verified.inc(),
            _ => self.queries_violated.inc(),
        }
        self.query_seconds.observe(saturating_ns(elapsed));
    }
}

/// Unpins (and on the reserved path refunds) an admitted query's budget
/// charge unless defused by a settle — the RAII backstop that keeps a
/// panicking query (injected or otherwise) from leaking a pin and
/// permanently shielding its artifact from eviction.
struct PinGuard<'a> {
    budget: &'a SharedBudget,
    key: &'a ArtifactKey,
    reserved: bool,
    armed: bool,
}

impl<'a> PinGuard<'a> {
    fn new(budget: &'a SharedBudget, key: &'a ArtifactKey, reserved: bool) -> Self {
        PinGuard {
            budget,
            key,
            reserved,
            armed: true,
        }
    }

    /// The failed-build settle: unpin + refund the reservation.
    fn abandon(mut self) {
        self.armed = false;
        self.budget.abandon(self.key, self.reserved);
    }

    /// The successful settle: unpin + charge the actual size. Returns
    /// the eviction victims the caller must drop.
    fn settle(mut self, bytes: usize) -> Vec<ArtifactKey> {
        self.armed = false;
        self.budget.settle(self.key, bytes)
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.budget.abandon(self.key, self.reserved);
        }
    }
}

/// One row of [`Service::sessions_snapshot`] — the `GET /v1/sessions`
/// schema: the per-instance-size view of artifact residency, build
/// work, and contention. Residency comes from the budget ledger; the
/// counts are the session's own series in the metrics registry
/// (labelled `threads`, `vars`), so they add up to the
/// [`ServiceStats`] totals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionInfo {
    /// Threads `n` of the session.
    pub threads: usize,
    /// Variables `k` of the session.
    pub vars: usize,
    /// Artifacts currently charged to the budget ledger for this
    /// session.
    pub resident_artifacts: usize,
    /// Their summed ledger bytes.
    pub heap_bytes: usize,
    /// Artifact builds this session performed (spec + run graph):
    /// `tm_artifact_builds_total`.
    pub builds: u64,
    /// Builds that re-created an evicted artifact:
    /// `tm_artifact_rebuilds_total`.
    pub rebuilds: u64,
    /// Artifacts promoted from the persistent store instead of rebuilt:
    /// `tm_store_promotes_total`.
    pub store_promotes: u64,
    /// Queries that acquired this session's lock: the count of
    /// `tm_session_lock_wait_seconds`.
    pub lock_waits: u64,
    /// Total nanoseconds queries spent waiting for this session's lock:
    /// the sum of `tm_session_lock_wait_seconds`.
    pub lock_wait_ns: u64,
}

/// The latency summary `GET /v1/stats` attaches: quantiles estimated
/// from the log2-bucket `tm_query_seconds` histogram (linear
/// interpolation within a bucket — see
/// [`tm_obs::HistogramSnapshot::quantile`]), in seconds.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencyQuantiles {
    /// Observations behind the estimate (0 ⇒ all quantiles are 0).
    pub count: u64,
    /// Median end-to-end query latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
}

/// The verification service: a [`SessionRegistry`] under a shared
/// [`crate::MemoryBudget`] ledger, fed by the batch scheduler. The API
/// is `&self` throughout — share it across threads with an `Arc` and
/// submit concurrently.
///
/// # Examples
///
/// ```
/// use tm_service::{QuerySpec, Service, ServiceConfig};
///
/// let service = Service::new(ServiceConfig::default());
/// let batch = vec![
///     QuerySpec::parse("dstm+aggressive:of:2:1").unwrap(),
///     QuerySpec::parse("dstm+aggressive:lf:2:1").unwrap(),
/// ];
/// let results = service.submit(&batch);
/// assert!(results[0].holds && !results[1].holds);
/// // One run graph answered both properties.
/// assert_eq!(service.stats().artifact_builds, 1);
/// ```
pub struct Service {
    registry: SessionRegistry,
    budget: SharedBudget,
    batch_deadline: Option<Duration>,
    max_inflight: usize,
    store: Option<ArtifactStore>,
    busy: BusyClock,
    metrics: ServiceMetrics,
}

impl Service {
    /// Creates a service from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configured store directory cannot be opened; use
    /// [`Service::try_new`] to handle that as an error.
    pub fn new(config: ServiceConfig) -> Self {
        Service::try_new(config).unwrap_or_else(|error| panic!("{error}"))
    }

    /// Creates a service from `config`, opening (and warm-starting
    /// from) the persistent store when one is configured. Every
    /// readable artifact in the store directory is imported into its
    /// owning session and charged to the budget ledger before the first
    /// query runs, so a restarted daemon answers its old roster with
    /// zero rebuilds; corrupt files are quarantined and skipped.
    pub fn try_new(config: ServiceConfig) -> Result<Self, String> {
        let metrics = Arc::new(Registry::new());
        let store = match &config.store_dir {
            None => None,
            Some(dir) => Some(
                ArtifactStore::open(
                    StoreConfig {
                        dir: dir.clone(),
                        cap_bytes: config.store_cap,
                    },
                    StoreCounters::register(&metrics),
                )
                .map_err(|e| format!("cannot open artifact store {}: {e}", dir.display()))?,
            ),
        };
        let evictions =
            metrics.counter("tm_evictions_total", "Artifacts evicted by the memory budget", &[]);
        let service = Service {
            registry: SessionRegistry::new(config.max_states, Arc::clone(&metrics))
                .query_deadline(config.query_deadline),
            budget: SharedBudget::new(config.mem_budget, evictions),
            batch_deadline: config.batch_deadline,
            max_inflight: config.max_inflight,
            store,
            busy: BusyClock::new(),
            metrics: ServiceMetrics::new(metrics),
        };
        service.warm_start();
        Ok(service)
    }

    /// Rehydrates every session from the persistent store at
    /// construction: loads each addressable file (integrity-verified —
    /// a corrupt one is quarantined by the load and skipped), imports
    /// the artifact into its owning session, and charges it through the
    /// normal admit/settle protocol, so the memory budget holds from
    /// the first instant (overflow demotes straight back to disk).
    fn warm_start(&self) {
        let Some(store) = &self.store else { return };
        for path in store.files() {
            if let Ok((key, artifact)) = store.load_path(&path) {
                self.install(key, artifact);
            }
        }
    }

    /// Installs one verified store artifact into its owning session and
    /// charges it to the budget ledger. Skipped when the key's instance
    /// size is outside the query bounds.
    fn install(&self, key: ArtifactKey, artifact: Artifact) {
        if !serves(&key) {
            return;
        }
        let bytes = artifact.heap_bytes();
        let session = self.registry.session(key.threads, key.vars);
        lock_session(&session).import(key.clone(), artifact);
        let admission = self.budget.admit(&key);
        self.perform_evictions(&admission.evicted);
        let evicted = self.budget.settle(&key, bytes);
        self.perform_evictions(&evicted);
    }

    /// Tries to answer an artifact miss from the persistent store:
    /// loads and verifies the on-disk copy and imports it into the
    /// (locked) session in place of a rebuild. `false` on a store miss,
    /// a corrupt file (quarantined by the load), an injected `store`
    /// fault, or when the artifact is already resident — every failure
    /// falls back to the ordinary rebuild.
    fn promote(&self, session: &mut Verifier, key: &ArtifactKey) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        if session.artifact(key).is_some() {
            return false;
        }
        let Ok(Some(artifact)) = store.load(key) else {
            return false;
        };
        journal(EventKind::Promote, key, artifact.heap_bytes() as u64);
        session.import(key.clone(), artifact);
        true
    }

    /// Write-through: persists an artifact that a query built or grew
    /// straight from the (locked) session. The store skips a key whose
    /// file already holds as many rows; store faults and I/O errors are
    /// swallowed — persistence is best-effort and never fails a query.
    fn save_through(&self, session: &Verifier, key: &ArtifactKey) {
        let Some(store) = &self.store else { return };
        if let Some(artifact) = session.artifact(key) {
            let _ = store.save(key, artifact);
        }
    }

    /// Demotes an eviction victim to the store before it is dropped
    /// (saved under the caller's session lock). `false` — and the
    /// eviction simply discards, the pre-store behavior — when no store
    /// is configured or the save fails.
    fn demote(&self, session: &Verifier, key: &ArtifactKey) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let Some(artifact) = session.artifact(key) else {
            return false;
        };
        if store.save(key, artifact).is_err() {
            return false;
        }
        self.metrics.store_demotes.inc();
        true
    }

    /// The configured admission bound (`0` = unbounded) — enforced by
    /// the HTTP layer, which sheds requests beyond it with 429.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Answers a whole batch: schedules it for artifact reuse
    /// ([`execution_order`]), runs every query through the registry
    /// sessions under the budget, and returns the results **in request
    /// order**. Runs under the configured batch deadline, if any.
    /// Concurrent `submit` calls overlap: queries on different instance
    /// sizes run in parallel, queries on the same session serialize.
    pub fn submit(&self, batch: &[QuerySpec]) -> Vec<QueryResult> {
        self.submit_traced(batch, None, false)
    }

    /// [`Service::submit`] with an explicit batch deadline in
    /// milliseconds (a request-supplied `deadline_ms` overrides the
    /// configured default) and, when `trace` is `true`, a per-query
    /// [`TraceRecord`] — the phase totals and captured spans — on every
    /// result. Queries still unanswered when the deadline expires are
    /// shed as [`QueryOutcome::Aborted`] / [`EngineError::Deadline`]
    /// results without running; results stay in request order either
    /// way.
    pub fn submit_traced(
        &self,
        batch: &[QuerySpec],
        deadline_ms: Option<u64>,
        trace: bool,
    ) -> Vec<QueryResult> {
        let start = Instant::now();
        let _busy = self.busy.enter();
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.batch_deadline)
            .map(|window| start + window);
        let mut results: Vec<Option<QueryResult>> = batch.iter().map(|_| None).collect();
        for idx in execution_order(batch) {
            results[idx] = Some(self.run_traced(&batch[idx], deadline, trace));
        }
        self.metrics.batch_seconds.observe(saturating_ns(start.elapsed()));
        results
            .into_iter()
            .map(|r| r.expect("every scheduled query was answered"))
            .collect()
    }

    /// Runs one query under a per-query trace recorder, updates the
    /// per-query metrics, and emits the slow-query log line if the query
    /// crossed the `TM_SLOW_QUERY_MS` threshold.
    fn run_traced(
        &self,
        spec: &QuerySpec,
        deadline: Option<Instant>,
        trace: bool,
    ) -> QueryResult {
        let started = Instant::now();
        let (mut result, record) = tm_obs::with_recorder(trace, || self.run_one(spec, deadline));
        if trace {
            result.trace = Some(record);
        }
        let elapsed = started.elapsed();
        self.metrics.observe_query(&result, elapsed);
        if let Some(threshold) = tm_obs::slow_query_threshold() {
            if elapsed >= threshold {
                self.log_slow_query(&result, elapsed);
            }
        }
        result
    }

    /// Emits the slow-query line. Written straight to stderr via
    /// [`tm_obs::format_log_line`] — deliberately *not* through
    /// [`tm_obs::log_json`], so setting `TM_SLOW_QUERY_MS` alone (with
    /// `TM_LOG` off) still surfaces slow queries.
    fn log_slow_query(&self, result: &QueryResult, elapsed: Duration) {
        use std::io::Write;
        let spec = result.spec.to_string();
        let dur_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        let line = tm_obs::format_log_line(
            "slow_query",
            &[
                ("query", LogValue::Str(&spec)),
                ("tm", LogValue::Str(&result.name)),
                ("dur_ms", LogValue::U64(dur_ms)),
                ("holds", LogValue::Bool(result.holds)),
                ("states", LogValue::U64(result.states as u64)),
                ("cached", LogValue::Bool(result.cached)),
            ],
        );
        let stderr = std::io::stderr();
        let mut handle = stderr.lock();
        let _ = handle.write_all(line.as_bytes());
    }

    /// Answers one scheduled query: deadline check, budget admission
    /// (pin), session query, settle. The extracted per-query body of the
    /// old `submit` loop, so [`Service::run_traced`] can wrap it in a
    /// recorder.
    fn run_one(&self, spec: &QuerySpec, deadline: Option<Instant>) -> QueryResult {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            journal(EventKind::Abort, spec, 0);
            return QueryResult::aborted(spec.clone(), EngineError::Deadline);
        }
        let key = spec.artifact_key();
        // Admit under the budget: pins `key` for the whole query, so
        // no concurrent batch can evict the artifact from under us;
        // on a miss this also pre-evicts at the last known size so
        // two generations of a large artifact never coexist.
        let admit_started = Instant::now();
        let admission = self.budget.admit(&key);
        if admit_started.elapsed() >= ADMISSION_WAIT_JOURNAL_THRESHOLD {
            journal(EventKind::AdmissionWait, &key, 0);
        }
        let pin = PinGuard::new(&self.budget, &key, admission.reserved);
        self.perform_evictions(&admission.evicted);
        // Fault site: the artifact (re)build about to happen.
        if admission.reserved {
            if let Err(error) = fault::fault_point("build") {
                pin.abandon();
                journal(EventKind::Abort, &key, 0);
                return QueryResult::aborted(spec.clone(), error);
            }
        }
        let session = self.registry.session(spec.threads, spec.vars);
        let (verdict, bytes) = {
            let (mut verifier, waited) =
                tm_obs::timed(Phase::SessionLockWait, || lock_session(&session));
            session.lock_wait.observe(saturating_ns(waited));
            // A budget miss first tries the persistent store: a
            // verified on-disk copy imports in place of a rebuild.
            if admission.reserved && self.promote(&mut verifier, &key) {
                session.promotes.inc();
            }
            let rows_before = verifier.artifact(&key).map_or(0, Artifact::rows);
            let verdict = run_query(&mut verifier, spec);
            let artifact = verifier.artifact(&key);
            let bytes = artifact.map_or(0, Artifact::heap_bytes);
            // Write-through: a successful build, rebuild, or query that
            // grew a specification's rows is persisted immediately, so a
            // restart warm-starts with every row even if the budget
            // never forces a demotion.
            if artifact.is_some_and(|a| a.rows() > rows_before)
                && verdict.abort_reason().is_none()
            {
                self.save_through(&verifier, &key);
            }
            (verdict, bytes)
        };
        let aborted = verdict.abort_reason().is_some();
        if aborted {
            journal(EventKind::Abort, &key, 0);
        }
        if verdict.stats.artifact_cached {
            self.metrics.cache_hits.inc();
        } else if bytes > 0 {
            // A build counts once it leaves the artifact resident — an
            // aborted safety search keeps the spec it started, exactly
            // as the session's own build counters see it.
            session.builds.inc();
            session.rebuilds.add(verdict.stats.rebuilds as u64);
            journal(EventKind::Build, &key, bytes as u64);
        }
        // Fault site: the charge settle / eviction after the query.
        if let Err(error) = fault::fault_point("evict") {
            pin.abandon();
            journal(EventKind::Abort, &key, 0);
            return QueryResult::aborted(spec.clone(), error);
        }
        if bytes == 0 && aborted {
            // The build failed before producing an artifact: settle
            // the provisional reservation instead of charging a
            // phantom entry.
            pin.abandon();
        } else {
            // Charge the artifact's *current* size (lazy spec caches
            // grow as new TMs touch new rows) and settle back under
            // budget.
            let evicted = pin.settle(bytes);
            self.perform_evictions(&evicted);
        }
        QueryResult::from_verdict(spec.clone(), verdict)
    }

    /// Performs ledger-decided evictions on the owning sessions. The
    /// decision and the drop are deliberately decoupled: by the time a
    /// victim's session lock is acquired here, a concurrent query may
    /// have re-admitted the artifact, so each drop re-checks the ledger
    /// (holding the session lock, which is what any user of the artifact
    /// would need) and skips victims that came back to life. With a
    /// store, the victim is exported and saved right before the drop —
    /// eviction becomes demotion, and a later query on the key promotes
    /// it back instead of rebuilding.
    fn perform_evictions(&self, evicted: &[ArtifactKey]) {
        for key in evicted {
            let session = self.registry.session(key.threads, key.vars);
            let mut session = lock_session(&session);
            if !self.budget.should_drop(key) {
                continue;
            }
            let bytes = session.artifact(key).map_or(0, Artifact::heap_bytes) as u64;
            if self.demote(&session, key) {
                journal(EventKind::Demote, key, bytes);
            } else {
                journal(EventKind::Evict, key, bytes);
            }
            session.evict(key);
        }
    }

    /// Current counters, read from the metrics registry handles. Takes
    /// only the (short, condvar-released) ledger and registry-map locks
    /// — never a session lock — so it answers immediately while long
    /// batches run.
    pub fn stats(&self) -> ServiceStats {
        let store = self
            .store
            .as_ref()
            .map(ArtifactStore::stats)
            .unwrap_or_default();
        let sessions = self.registry.sessions();
        let total = |counter: fn(&Session) -> &Counter| -> u64 {
            sessions.iter().map(|s| counter(s).get()).sum()
        };
        let m = &self.metrics;
        ServiceStats {
            queries: m.query_seconds.count(),
            cache_hits: m.cache_hits.get(),
            artifact_builds: total(|s| &s.builds),
            artifact_rebuilds: total(|s| &s.rebuilds),
            aborted_queries: m.queries_aborted.get(),
            evictions: self.budget.evictions(),
            tracked_bytes: self.budget.tracked_bytes(),
            peak_tracked_bytes: self.budget.peak_bytes(),
            mem_budget: self.budget.limit(),
            sessions: sessions.len(),
            pool_size: 1,
            batch_ns: m.batch_seconds.sum(),
            busy_wall_ns: saturating_ns(self.busy.busy_wall()),
            uptime_ns: saturating_ns(self.busy.uptime()),
            store_hits: store.hits,
            store_misses: store.misses,
            store_promotes: total(|s| &s.promotes),
            store_demotes: m.store_demotes.get(),
            store_corrupt: store.corrupt,
            store_saves: store.saves,
            store_bytes: store.bytes,
            store_files: store.files,
        }
    }

    /// The `GET /metrics` body: sets the scrape-time gauges (ledger
    /// bytes, store bytes, busy ratio), then renders this service's
    /// registry and the process-global one (engine phases, profiler,
    /// HTTP routes) as one Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        let stats = self.stats();
        let m = &self.metrics;
        m.tracked_bytes.set(stats.tracked_bytes as u64);
        m.peak_tracked_bytes.set(stats.peak_tracked_bytes as u64);
        m.store_bytes.set(stats.store_bytes);
        m.busy_ratio
            .set(stats.busy_wall_ns as f64 / (stats.uptime_ns.max(1)) as f64);
        tm_obs::render_exposition(&[&m.registry, tm_obs::global()])
    }

    /// The currently charged artifacts and their byte sizes, sorted.
    pub fn ledger(&self) -> Vec<(ArtifactKey, usize)> {
        self.budget.ledger()
    }

    /// Sum of every session's resident artifact heap bytes — the ground
    /// truth the budget ledger approximates (takes each session lock
    /// briefly; a snapshot, not an atomic read).
    pub fn artifact_heap_bytes(&self) -> usize {
        self.registry.artifact_heap_bytes()
    }

    /// Ledger entries currently pinned by in-flight queries — 0
    /// whenever no query is running (diagnostics; the demotion
    /// accounting tests assert pins never leak).
    pub fn pinned_artifacts(&self) -> usize {
        self.budget.pinned_entries()
    }

    /// One [`SessionInfo`] row per `(n, k)` session, sorted by instance
    /// size — the `GET /v1/sessions` payload. Reads the ledger and each
    /// session's registry handles and takes no session lock, so it
    /// answers while a query (even a cold build) holds a session.
    pub fn sessions_snapshot(&self) -> Vec<SessionInfo> {
        let ledger = self.budget.ledger();
        self.registry
            .sessions()
            .iter()
            .map(|s| {
                let (resident_artifacts, heap_bytes) = ledger
                    .iter()
                    .filter(|(key, _)| key.threads == s.threads && key.vars == s.vars)
                    .fold((0, 0), |(n, b), (_, bytes)| (n + 1, b + bytes));
                SessionInfo {
                    threads: s.threads,
                    vars: s.vars,
                    resident_artifacts,
                    heap_bytes,
                    builds: s.builds.get(),
                    rebuilds: s.rebuilds.get(),
                    store_promotes: s.promotes.get(),
                    lock_waits: s.lock_wait.count(),
                    lock_wait_ns: s.lock_wait.sum(),
                }
            })
            .collect()
    }

    /// The latency quantile summary estimated from the
    /// `tm_query_seconds` histogram — what `GET /v1/stats` attaches as
    /// its `"latency"` member. All zeros before the first query.
    pub fn latency_quantiles(&self) -> LatencyQuantiles {
        let snapshot = self.metrics.query_seconds.snapshot();
        let quantile = |q: f64| snapshot.quantile(q) / 1e9;
        LatencyQuantiles {
            count: snapshot.count,
            p50_s: quantile(0.50),
            p95_s: quantile(0.95),
            p99_s: quantile(0.99),
        }
    }

    /// The persistent store's file listing in LRU order (least recently
    /// used first) — the `GET /v1/store` payload; empty when no store is
    /// configured.
    pub fn store_entries(&self) -> Vec<StoreEntry> {
        self.store
            .as_ref()
            .map(ArtifactStore::entries)
            .unwrap_or_default()
    }
}

/// Whether this service serves an artifact of `key`'s instance size: a
/// key read from disk outside the query bounds must be skipped, not fed
/// to a session constructor that would assert.
fn serves(key: &ArtifactKey) -> bool {
    (1..=MAX_QUERY_THREADS).contains(&key.threads) && (1..=MAX_QUERY_VARS).contains(&key.vars)
}

fn saturating_ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::{table2_batch, table3_batch};

    fn budget_config(mem_budget: Option<usize>) -> ServiceConfig {
        ServiceConfig {
            mem_budget,
            ..ServiceConfig::default()
        }
    }

    /// Two overlapping guards: the clock counts their union once, so the
    /// sum of the two batches' wall times (what `batch_ns` adds up)
    /// exceeds it by at least the overlap.
    #[test]
    fn busy_clock_counts_overlapping_batches_once() {
        let pause = || std::thread::sleep(Duration::from_millis(2));
        let clock = BusyClock::new();
        let first_start = Instant::now();
        let first = clock.enter();
        pause();
        let second_start = Instant::now();
        let second = clock.enter();
        pause();
        drop(first);
        let first_wall = first_start.elapsed();
        pause();
        drop(second);
        let second_wall = second_start.elapsed();
        let busy = clock.busy_wall();
        assert!(busy >= Duration::from_millis(6), "{busy:?}");
        assert!(busy <= clock.uptime());
        assert!(
            first_wall + second_wall >= busy + Duration::from_millis(2),
            "{first_wall:?} + {second_wall:?} vs union {busy:?}"
        );
    }

    #[test]
    fn a_batch_builds_each_artifact_once() {
        let service = Service::new(budget_config(None));
        let mut batch = table3_batch();
        batch.extend(table2_batch());
        let results = service.submit(&batch);
        assert_eq!(results.len(), 22);
        // Results come back in request order.
        for (result, spec) in results.iter().zip(&batch) {
            assert_eq!(&result.spec, spec);
        }
        let stats = service.stats();
        assert_eq!(stats.queries, 22);
        // 4 run graphs + 2 specs, each built exactly once.
        assert_eq!(stats.artifact_builds, 6);
        assert_eq!(stats.cache_hits, 16);
        assert_eq!(stats.artifact_rebuilds, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.sessions, 2);
        assert_eq!(service.ledger().len(), 6);
        assert!(stats.tracked_bytes > 0);
    }

    #[test]
    fn sessions_snapshot_reports_per_size_rows() {
        let service = Service::new(budget_config(None));
        let mut batch = table3_batch();
        batch.extend(table2_batch());
        service.submit(&batch);
        let rows = service.sessions_snapshot();
        assert_eq!(rows.len(), 2, "two instance sizes in the roster");
        assert!(rows.windows(2).all(|w| (w[0].threads, w[0].vars) < (w[1].threads, w[1].vars)));
        for row in &rows {
            assert!(row.resident_artifacts > 0);
            assert!(row.heap_bytes > 0);
            assert!(row.builds > 0);
            assert_eq!(row.rebuilds, 0);
            assert!(row.lock_waits > 0, "every query acquires the session lock");
        }
        // 4 run graphs + 2 specs across both sessions, matching the
        // ledger.
        let resident: usize = rows.iter().map(|r| r.resident_artifacts).sum();
        assert_eq!(resident, service.ledger().len());
    }

    #[test]
    fn snapshots_take_no_session_lock() {
        let service = Service::new(budget_config(None));
        service.submit(&[QuerySpec::parse("dstm+aggressive:of:2:1").unwrap()]);
        let session = service.registry.session(2, 1);
        let held = lock_session(&session);
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = sender.send((service.sessions_snapshot(), service.stats()));
            });
            // Held like a query mid-build: both reads must still answer.
            let answered = receiver.recv_timeout(Duration::from_secs(10));
            drop(held);
            let (rows, stats) = answered.expect("snapshot and stats answer under a held session");
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].builds, stats.artifact_builds);
        });
    }

    #[test]
    fn every_instance_size_gets_its_series_without_drops() {
        let service = Service::new(ServiceConfig {
            max_states: 1,
            ..budget_config(None)
        });
        let batch: Vec<QuerySpec> = (1..=MAX_QUERY_THREADS)
            .flat_map(|n| (1..=MAX_QUERY_VARS).map(move |k| (n, k)))
            .map(|(n, k)| QuerySpec::parse(&format!("sequential:ss:{n}:{k}")).unwrap())
            .collect();
        assert_eq!(batch.len(), 32);
        let results = service.submit(&batch);
        assert!(results
            .iter()
            .all(|r| matches!(r.abort_reason(), Some(EngineError::StateLimit(_)))));
        assert_eq!(service.sessions_snapshot().len(), 32);
        assert_eq!(service.metrics.registry.dropped_series(), 0);
        // Each aborted search left its spec resident: one build a session.
        assert_eq!(service.stats().artifact_builds, 32);
    }

    #[test]
    fn latency_quantiles_are_ordered_and_populated_after_queries() {
        let service = Service::new(budget_config(None));
        service.submit(&table3_batch());
        let q = service.latency_quantiles();
        assert_eq!(q.count, 12);
        assert!(q.p50_s > 0.0);
        assert!(q.p50_s <= q.p95_s && q.p95_s <= q.p99_s);
    }

    #[test]
    fn mem_budget_parsing() {
        assert_eq!(parse_mem_budget(""), Ok(None));
        assert_eq!(parse_mem_budget("0"), Ok(None));
        assert_eq!(parse_mem_budget("unbounded"), Ok(None));
        assert_eq!(parse_mem_budget("4096"), Ok(Some(4096)));
        assert_eq!(parse_mem_budget("16k"), Ok(Some(16 << 10)));
        assert_eq!(parse_mem_budget("3M"), Ok(Some(3 << 20)));
        assert_eq!(parse_mem_budget("2g"), Ok(Some(2 << 30)));
        assert!(parse_mem_budget("lots").is_err());
        assert!(parse_mem_budget("12q").is_err());
    }
}
