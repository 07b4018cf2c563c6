//! Phase spans: named engine phases ([`Phase`]), the RAII
//! [`PhaseTimer`], and the per-query [`TraceRecord`] a thread-local
//! recorder accumulates.
//!
//! Every recorded span goes to the **global** per-phase histogram
//! (`tm_phase_seconds{phase=…}`); when a recorder is installed on the
//! recording thread ([`with_recorder`]) the span is *also* added to the
//! per-query phase totals, and — if event capture was requested —
//! appended to a bounded event list (capacity [`TRACE_EVENT_CAP`];
//! overflow increments [`TraceRecord::dropped_events`] instead of
//! allocating further).
//!
//! The recorder is thread-local on purpose: engine phases are recorded
//! from the query's coordinating thread (the BFS level loop, artifact
//! builds, and lock/budget waits all run there), so a per-query trace
//! needs no cross-thread synchronization.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::registry::{global_histogram, Histogram, Unit};

/// A named phase of query execution. The engine phases are recorded by
/// `tm-automata`; the wait phases by `tm-service`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Phase {
    /// Lazy spec-row interning inside `SpecCache` (safety queries on the
    /// default lazy path).
    SpecIntern,
    /// One BFS level of the product engine (span value = frontier size
    /// entering the level).
    BfsLevel,
    /// The dedup merge of a parallel BFS level. No engine records it
    /// since every engine runs on the calling thread; kept so phase
    /// names and indices stay stable for trace readers.
    DedupMerge,
    /// Compiling a TM's run graph (liveness artifact build).
    RunGraphBuild,
    /// The mask-filtered Tarjan SCC search of a loop query.
    SccSearch,
    /// Extracting a concrete lasso witness from a found loop.
    LassoExtract,
    /// Dispatching a parallel region to worker threads. Never recorded,
    /// like [`Phase::DedupMerge`]; its time reads zero.
    PoolDispatch,
    /// Time a worker-thread job spent queued. Never recorded, like
    /// [`Phase::DedupMerge`].
    PoolQueueWait,
    /// Waiting to lock the session mutex of the query's instance size.
    SessionLockWait,
    /// Waiting in budget admission for pinned bytes to drain.
    BudgetAdmitWait,
    /// Waiting in budget settle for the final charge to fit.
    BudgetSettleWait,
    /// Loading an artifact from the on-disk store (read + verify +
    /// decode; span value = file size in bytes).
    StoreLoad,
    /// Saving an artifact to the on-disk store (encode + atomic write;
    /// span value = file size in bytes).
    StoreSave,
}

impl Phase {
    /// Number of phases ( = the length of a [`PhaseNanos`] breakdown).
    pub const COUNT: usize = 13;

    /// Every phase, in `repr` order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::SpecIntern,
        Phase::BfsLevel,
        Phase::DedupMerge,
        Phase::RunGraphBuild,
        Phase::SccSearch,
        Phase::LassoExtract,
        Phase::PoolDispatch,
        Phase::PoolQueueWait,
        Phase::SessionLockWait,
        Phase::BudgetAdmitWait,
        Phase::BudgetSettleWait,
        Phase::StoreLoad,
        Phase::StoreSave,
    ];

    /// The stable snake_case name used in metric labels, trace JSON, and
    /// the phase-breakdown columns.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SpecIntern => "spec_intern",
            Phase::BfsLevel => "bfs_level",
            Phase::DedupMerge => "dedup_merge",
            Phase::RunGraphBuild => "run_graph_build",
            Phase::SccSearch => "scc_search",
            Phase::LassoExtract => "lasso_extract",
            Phase::PoolDispatch => "pool_dispatch",
            Phase::PoolQueueWait => "pool_queue_wait",
            Phase::SessionLockWait => "session_lock_wait",
            Phase::BudgetAdmitWait => "budget_admit_wait",
            Phase::BudgetSettleWait => "budget_settle_wait",
            Phase::StoreLoad => "store_load",
            Phase::StoreSave => "store_save",
        }
    }

    /// Parses a [`Phase::name`] back (wire decoding).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Per-phase nanosecond totals, indexed by `Phase as usize`.
pub type PhaseNanos = [u64; Phase::COUNT];

/// One captured span in a per-query trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Which phase.
    pub phase: Phase,
    /// Start offset from the trace origin, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Phase-specific magnitude (frontier size for
    /// [`Phase::BfsLevel`], rows interned for [`Phase::SpecIntern`], 0
    /// otherwise).
    pub value: u64,
}

/// What a per-query recorder collected: phase totals, and optionally
/// the individual spans.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceRecord {
    /// Nanoseconds per phase (always collected while a recorder is
    /// installed).
    pub phase_ns: PhaseNanos,
    /// Captured spans, in record order (empty unless event capture was
    /// requested; bounded by [`TRACE_EVENT_CAP`]).
    pub events: Vec<TraceEvent>,
    /// Spans that did not fit in the event buffer.
    pub dropped_events: u64,
}

impl TraceRecord {
    /// Total recorded nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

/// Capacity of a trace's event buffer; spans past it are counted in
/// [`TraceRecord::dropped_events`] rather than allocated.
pub const TRACE_EVENT_CAP: usize = 512;

struct Collector {
    origin: Instant,
    record: TraceRecord,
    capture_events: bool,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

fn phase_histogram(phase: Phase) -> &'static Histogram {
    static HISTOGRAMS: OnceLock<Vec<Histogram>> = OnceLock::new();
    let all = HISTOGRAMS.get_or_init(|| {
        Phase::ALL
            .into_iter()
            .map(|p| {
                global_histogram(
                    "tm_phase_seconds",
                    "Time spent per engine/service phase",
                    &[("phase", p.name())],
                    Unit::Nanos,
                )
            })
            .collect()
    });
    &all[phase as usize]
}

/// Records one finished span: into the global per-phase histogram, and
/// into the thread's recorder if one is installed. Called when a
/// [`PhaseTimer`] ends.
pub(crate) fn record_phase(phase: Phase, duration: Duration, value: u64) {
    let dur_ns = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
    phase_histogram(phase).observe(dur_ns);
    COLLECTOR.with(|cell| {
        if let Some(collector) = cell.borrow_mut().as_mut() {
            collector.record.phase_ns[phase as usize] += dur_ns;
            if collector.capture_events {
                if collector.record.events.len() < TRACE_EVENT_CAP {
                    let start_ns = collector.origin.elapsed().as_nanos().min(u128::from(u64::MAX))
                        as u64;
                    collector.record.events.push(TraceEvent {
                        phase,
                        start_ns: start_ns.saturating_sub(dur_ns),
                        dur_ns,
                        value,
                    });
                } else {
                    collector.record.dropped_events += 1;
                }
            }
        }
    });
}

/// Runs `f` with a fresh recorder installed on this thread and returns
/// its result plus the collected [`TraceRecord`]. The previous recorder
/// (if any) is suspended for the duration and restored afterwards, so
/// nesting is safe (the inner record is *not* folded into the outer
/// one).
pub fn with_recorder<R>(capture_events: bool, f: impl FnOnce() -> R) -> (R, TraceRecord) {
    let previous = COLLECTOR.with(|cell| {
        cell.borrow_mut().replace(Collector {
            origin: Instant::now(),
            record: TraceRecord::default(),
            capture_events,
        })
    });
    let result = f();
    let collector = COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        let taken = slot.take();
        *slot = previous;
        taken
    });
    let record = collector.map(|c| c.record).unwrap_or_default();
    (result, record)
}

/// An RAII span: measures from construction to drop and records the
/// duration into the phase histogram and the thread's recorder.
#[must_use = "a PhaseTimer records on drop; binding it to _ ends the span immediately"]
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    value: u64,
    start: Instant,
    /// Whether the span pushed a profiler frame (the thread was
    /// registered with [`crate::profile`]) and owes a pop on drop.
    frame: bool,
}

impl PhaseTimer {
    /// Starts a span. On a thread registered with the sampling profiler
    /// ([`crate::profile::register_thread`]) the phase is also published
    /// as the thread's current frame for the span's duration.
    pub fn start(phase: Phase) -> Self {
        PhaseTimer {
            phase,
            value: 0,
            frame: crate::profile::push_phase(phase),
            start: Instant::now(),
        }
    }

    /// Attaches a phase-specific magnitude (see [`TraceEvent::value`]).
    pub fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }

    /// Updates the magnitude after construction.
    pub fn set_value(&mut self, value: u64) {
        self.value = value;
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn stop(self) {}

    /// Ends the span, recording `elapsed` as its duration.
    fn end(&self, elapsed: Duration) {
        if self.frame {
            crate::profile::pop_phase();
        }
        record_phase(self.phase, elapsed, self.value);
    }
}

/// Runs `f` inside a `phase` span and returns its result with the time
/// it took. One pair of clock reads feeds both the span and the caller's
/// duration.
pub fn timed<R>(phase: Phase, f: impl FnOnce() -> R) -> (R, Duration) {
    let span = PhaseTimer::start(phase);
    let result = f();
    let elapsed = span.start.elapsed();
    std::mem::ManuallyDrop::new(span).end(elapsed);
    (result, elapsed)
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.end(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_totals_and_events() {
        let ((), record) = with_recorder(true, || {
            record_phase(Phase::BfsLevel, Duration::from_nanos(100), 7);
            record_phase(Phase::BfsLevel, Duration::from_nanos(50), 3);
            record_phase(Phase::DedupMerge, Duration::from_nanos(25), 3);
        });
        assert_eq!(record.phase_ns[Phase::BfsLevel as usize], 150);
        assert_eq!(record.phase_ns[Phase::DedupMerge as usize], 25);
        assert_eq!(record.total_ns(), 175);
        assert_eq!(record.events.len(), 3);
        assert_eq!(record.events[0].value, 7);
        assert_eq!(record.dropped_events, 0);
    }

    #[test]
    fn event_buffer_is_bounded() {
        let ((), record) = with_recorder(true, || {
            for _ in 0..TRACE_EVENT_CAP + 10 {
                record_phase(Phase::SpecIntern, Duration::from_nanos(1), 0);
            }
        });
        assert_eq!(record.events.len(), TRACE_EVENT_CAP);
        assert_eq!(record.dropped_events, 10);
        assert_eq!(record.phase_ns[Phase::SpecIntern as usize], (TRACE_EVENT_CAP + 10) as u64);
    }

    #[test]
    fn totals_only_recorder_allocates_no_events() {
        let ((), record) = with_recorder(false, || {
            record_phase(Phase::SccSearch, Duration::from_nanos(42), 0);
        });
        assert!(record.events.is_empty());
        assert_eq!(record.phase_ns[Phase::SccSearch as usize], 42);
    }

    #[test]
    fn nested_recorders_do_not_leak_into_each_other() {
        let ((), outer) = with_recorder(false, || {
            record_phase(Phase::SessionLockWait, Duration::from_nanos(10), 0);
            let ((), inner) = with_recorder(false, || {
                record_phase(Phase::SccSearch, Duration::from_nanos(99), 0);
            });
            assert_eq!(inner.phase_ns[Phase::SccSearch as usize], 99);
            record_phase(Phase::SessionLockWait, Duration::from_nanos(5), 0);
        });
        assert_eq!(outer.phase_ns[Phase::SessionLockWait as usize], 15);
        assert_eq!(outer.phase_ns[Phase::SccSearch as usize], 0, "inner spans stay inner");
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn timers_record_their_span() {
        let ((), record) = with_recorder(true, || {
            PhaseTimer::start(Phase::BfsLevel).with_value(9).stop();
        });
        assert_eq!(record.events.len(), 1);
        assert_eq!(record.events[0].phase, Phase::BfsLevel);
        assert_eq!(record.events[0].value, 9);
        let ((_, elapsed), record) = with_recorder(false, || {
            timed(Phase::SessionLockWait, || std::thread::sleep(Duration::from_millis(1)))
        });
        assert!(elapsed >= Duration::from_millis(1));
        assert_eq!(
            record.phase_ns[Phase::SessionLockWait as usize],
            elapsed.as_nanos() as u64,
            "timed records the duration it returns"
        );
    }
}
