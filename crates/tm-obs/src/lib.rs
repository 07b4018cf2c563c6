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
//! Instrumentation is passive: it never changes verdicts, words, or
//! lassos (pinned by the metrics-on ≡ metrics-off conformance tests).
//! When disabled (`TM_OBS=off` or [`set_obs_enabled`]`(false)`) the hot
//! path cost is one relaxed atomic load per site — no clock reads, no
//! allocation. When enabled, a phase span costs two `Instant::now`
//! reads plus a handful of relaxed atomic adds; spans are placed at
//! per-level / per-artifact granularity, never per-state.

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
    stop_sampler, task_frame, ProfileSnapshot, TaskFrame, ThreadKind, ThreadRegistration,
    PROFILE_MAX_DEPTH, SAMPLE_PERIOD_MICROS,
};
pub use text::{parse_prometheus, Exposition, Sample};
pub use trace::{
    ensure_recorder, phase_totals, record_phase, recorder_active, timed, with_recorder, Phase,
    PhaseNanos, PhaseTimer, TraceEvent, TraceRecord, TRACE_EVENT_CAP,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable disabling all instrumentation when set to `off`
/// (or `0`): `TM_OBS=off`.
pub const OBS_ENV: &str = "TM_OBS";

// 0 = not yet read from the environment, 1 = enabled, 2 = disabled.
static OBS_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation is enabled (the default; `TM_OBS=off`
/// disables it). The first call reads the environment; afterwards this
/// is a single relaxed atomic load — the entire disabled-path cost of a
/// [`PhaseTimer`].
pub fn obs_enabled() -> bool {
    match OBS_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = matches!(std::env::var(OBS_ENV).as_deref(), Ok("off") | Ok("0"));
            OBS_STATE.store(if off { 2 } else { 1 }, Ordering::Relaxed);
            !off
        }
    }
}

/// Overrides the enable flag (tests and the on/off overhead bench).
pub fn set_obs_enabled(enabled: bool) {
    OBS_STATE.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
}
