//! # tm-obs — observability for the tm-modelcheck workspace
//!
//! A std-only (zero external dependencies, in the spirit of the
//! `crates/shims` policy) observability layer shared by every other
//! crate:
//!
//! * [`registry`] — **metrics registries** (a process-global one, and
//!   any a component owns, like each `tm-service` service): lock-free
//!   atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket log2
//!   [`Histogram`]s, registered by static name + label set under a
//!   cardinality cap, rendered — several registries as one exposition
//!   ([`render_exposition`]) — in the Prometheus text format;
//! * [`trace`] — **phase spans**: a lightweight [`PhaseTimer`] RAII API
//!   that records engine phases ([`Phase`]) both into the global phase
//!   histograms and — when a per-query recorder is installed — into a
//!   bounded per-query [`TraceRecord`];
//! * [`text`] — a tiny Prometheus **text-format parser/checker** used by
//!   `tm-query --metrics` and the CI smoke to assert that `/metrics`
//!   output is well formed and the required series exist;
//! * [`log`] — **structured JSON log lines** to stderr, gated by
//!   `TM_LOG=json|off`, plus the `TM_SLOW_QUERY_MS` slow-query
//!   threshold;
//! * [`profile`] — the **cooperative sampling profiler**: registered
//!   threads publish their current phase stack into per-thread atomic
//!   slots; an opt-in ~97 Hz sampler folds them into
//!   flamegraph-compatible folded stacks, per-thread utilization, and
//!   the `tm_parallelism` busy-worker histogram;
//! * [`journal`] — the **lifecycle event journal**: a bounded
//!   ring buffer of structured build/evict/demote/promote/abort/
//!   admission-wait events with loss-free sequence cursors for
//!   tail-following (`GET /v1/events`).
//!
//! ## Cost model
//!
//! Instrumentation is always on and passive: it never changes verdicts,
//! words, or lassos. A phase span costs two `Instant::now` reads plus a
//! handful of relaxed atomic adds; spans are placed at per-level /
//! per-artifact granularity, never per-state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod log;
pub mod profile;
pub mod registry;
pub mod text;
pub mod trace;

pub use journal::{
    global_journal, EventKind, Journal, JournalEvent, JournalRead, JOURNAL_CAP,
};
pub use log::{
    format_log_line, log_json, log_mode, set_log_mode, set_slow_query_threshold,
    slow_query_threshold, LogMode, LogValue,
};
pub use registry::{
    global, global_counter, global_histogram, render_exposition, Counter, Gauge, GaugeF,
    Histogram, HistogramSnapshot, LocalHistogram, Registry, Unit,
    DEFAULT_SERIES_CAP, HISTOGRAM_BUCKETS,
};
pub use profile::{
    collect_profile, profile_snapshot, register_thread, sampler_running, start_sampler,
    stop_sampler, ProfileSnapshot, ThreadKind, ThreadRegistration,
    PROFILE_MAX_DEPTH, SAMPLE_PERIOD_MICROS,
};
pub use text::{parse_prometheus, Exposition, Sample};
pub use trace::{
    timed, with_recorder, Phase, PhaseNanos, PhaseTimer, TraceEvent, TraceRecord,
    TRACE_EVENT_CAP,
};
