//! The cooperative sampling profiler: per-thread frame slots and the
//! ~97 Hz sampler that reads them.
//!
//! Instead of interrupting threads (no signals, no unsafe stack walks —
//! the workspace is std-only and `tm-obs` forbids unsafe), every thread
//! that wants to be profiled *cooperates*: it registers a `Slot` via
//! [`register_thread`] and publishes its current activity into a small
//! fixed-depth stack of atomic frames. Publication piggybacks on the
//! instrumentation that already exists — every [`crate::PhaseTimer`]
//! pushes its [`Phase`] on construction and pops it on drop — so a
//! profiled thread's stack reads like `http-0: bfs_level / spec_intern`.
//!
//! The opt-in sampler thread ([`start_sampler`]) wakes every
//! [`SAMPLE_PERIOD_MICROS`] and, per tick:
//!
//! * folds each registered thread's current stack into a
//!   *folded-stack* line (`http-0;bfs_level;spec_intern`), counting
//!   samples per distinct stack — the flamegraph collapsed format;
//! * observes the number of busy [`ThreadKind::Worker`] threads into the
//!   `tm_parallelism` histogram. The engines run every query on the
//!   calling thread and register no workers, so it observes 0;
//! * counts idle threads under an explicit `idle` frame so per-thread
//!   utilization (busy / total samples) falls out of the same data.
//!
//! Reads are racy by design: a sampler may catch a stack mid-push and
//! see a frame early or late by one tick. A sampling profiler only
//! needs statistical truth; the determinism contract is untouched
//! because nothing here feeds back into the engines (pinned by the
//! sampler-on ≡ sampler-off conformance tests).
//!
//! Cost model: a frame push/pop is two relaxed stores plus one load on
//! data owned by the pushing thread; an unregistered thread publishes
//! nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::{global_histogram, Histogram, Unit};
use crate::trace::Phase;

/// Maximum published stack depth per thread; deeper nesting keeps
/// counting depth (pops stay balanced) but publishes no further frames.
/// Spans nest at most two deep today (a BFS level around its spec-row
/// interning).
pub const PROFILE_MAX_DEPTH: usize = 8;

/// Sampler period: 10 309 µs ≈ 97 Hz. Deliberately a prime number of
/// microseconds (and not a divisor of common timer periods) so the
/// sampler does not phase-lock with periodic engine work.
pub const SAMPLE_PERIOD_MICROS: u64 = 10_309;

// Frame encoding inside a slot's atomic stack.
const FRAME_EMPTY: usize = 0;
const FRAME_PHASE_BASE: usize = 1;

/// What kind of thread a profile slot belongs to (the root frame of its
/// folded stacks).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadKind {
    /// A thread that runs jobs handed over by other threads (counted by
    /// `tm_parallelism`). The engines start none.
    Worker,
    /// An HTTP connection/batch thread in `tm-serve`.
    Http,
    /// A thread driving a `Verifier` session directly (benches, the
    /// profiling examples).
    Session,
}

impl ThreadKind {
    /// The stable label used as the folded-stack root (`http-0`).
    pub fn label(self) -> &'static str {
        match self {
            ThreadKind::Worker => "worker",
            ThreadKind::Http => "http",
            ThreadKind::Session => "session",
        }
    }
}

/// One thread's published stack: a fixed array of atomic frames plus a
/// depth counter. Only the owning thread writes; the sampler reads
/// racily.
struct Slot {
    kind: ThreadKind,
    ordinal: usize,
    /// `false` once the owning thread unregistered; inactive slots are
    /// skipped by the sampler and reused by the next registration of the
    /// same kind (bounding folded-stack cardinality under HTTP thread
    /// churn).
    active: AtomicBool,
    depth: AtomicUsize,
    frames: [AtomicUsize; PROFILE_MAX_DEPTH],
}

impl Slot {
    fn new(kind: ThreadKind, ordinal: usize) -> Self {
        Slot {
            kind,
            ordinal,
            active: AtomicBool::new(true),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicUsize::new(FRAME_EMPTY)),
        }
    }

    /// The root frame of this slot's folded stacks (`http-0`).
    fn root(&self) -> String {
        format!("{}-{}", self.kind.label(), self.ordinal)
    }

    fn reset(&self) {
        self.depth.store(0, Ordering::Relaxed);
        for frame in &self.frames {
            frame.store(FRAME_EMPTY, Ordering::Relaxed);
        }
    }
}

fn slots() -> &'static Mutex<Vec<Arc<Slot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_slots() -> std::sync::MutexGuard<'static, Vec<Arc<Slot>>> {
    slots().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Slot>>> = const { RefCell::new(None) };
}

/// Registers the calling thread with the profiler until the returned
/// guard drops.
#[must_use = "the thread is profiled only while the guard lives"]
pub fn register_thread(kind: ThreadKind) -> ThreadRegistration {
    let slot = {
        let mut table = lock_slots();
        // Reuse the lowest-ordinal inactive slot of this kind so thread
        // churn (HTTP connections come and go) maps onto a bounded set
        // of folded-stack roots.
        let reused = table
            .iter()
            .filter(|s| s.kind == kind && !s.active.load(Ordering::Relaxed))
            .min_by_key(|s| s.ordinal)
            .cloned();
        match reused {
            Some(slot) => {
                slot.reset();
                slot.active.store(true, Ordering::Relaxed);
                slot
            }
            None => {
                let ordinal = table.iter().filter(|s| s.kind == kind).count();
                let slot = Arc::new(Slot::new(kind, ordinal));
                table.push(Arc::clone(&slot));
                slot
            }
        }
    };
    CURRENT.with(|cell| *cell.borrow_mut() = Some(Arc::clone(&slot)));
    ThreadRegistration { slot }
}

/// RAII handle of [`register_thread`]; unregisters (and stops all
/// publication from) the thread on drop.
#[derive(Debug)]
pub struct ThreadRegistration {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("kind", &self.kind)
            .field("ordinal", &self.ordinal)
            .finish()
    }
}

impl Drop for ThreadRegistration {
    fn drop(&mut self) {
        CURRENT.with(|cell| *cell.borrow_mut() = None);
        self.slot.reset();
        self.slot.active.store(false, Ordering::Relaxed);
    }
}

/// Pushes the [`Phase`] frame of a starting `PhaseTimer` onto the
/// calling thread's slot. Returns `true` iff a frame was pushed (a
/// matching [`pop_phase`] is then owed).
pub(crate) fn push_phase(phase: Phase) -> bool {
    let frame = FRAME_PHASE_BASE + phase as usize;
    CURRENT.with(|cell| {
        let borrow = cell.borrow();
        let Some(slot) = borrow.as_ref() else {
            return false;
        };
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth < PROFILE_MAX_DEPTH {
            slot.frames[depth].store(frame, Ordering::Relaxed);
        }
        // The depth bump is released so a sampler that sees the new
        // depth also sees the frame written above.
        slot.depth.store(depth + 1, Ordering::Release);
        true
    })
}

/// Pops the frame a successful [`push_phase`] published.
pub(crate) fn pop_phase() {
    CURRENT.with(|cell| {
        let borrow = cell.borrow();
        let Some(slot) = borrow.as_ref() else {
            return;
        };
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth == 0 {
            return; // unbalanced pop; never happens through the guards
        }
        slot.depth.store(depth - 1, Ordering::Release);
        if depth - 1 < PROFILE_MAX_DEPTH {
            slot.frames[depth - 1].store(FRAME_EMPTY, Ordering::Relaxed);
        }
    });
}

fn frame_name(frame: usize) -> &'static str {
    match frame {
        FRAME_EMPTY => "",
        _ => Phase::ALL
            .get(frame - FRAME_PHASE_BASE)
            .map(|p| p.name())
            .unwrap_or(""),
    }
}

/// Accumulated profile state: total sampler ticks and samples per
/// distinct folded stack. Snapshots are *cumulative* — diff two
/// ([`ProfileSnapshot::folded_since`]) to get a window.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProfileSnapshot {
    /// Sampler ticks taken so far.
    pub samples: u64,
    /// Samples per folded stack (`http-0;bfs_level` → count).
    pub folded: BTreeMap<String, u64>,
}

impl ProfileSnapshot {
    /// The folded-stack text (flamegraph collapsed format: one
    /// `stack count` line per distinct stack) for the window between an
    /// earlier snapshot and this one.
    pub fn folded_since(&self, earlier: &ProfileSnapshot) -> String {
        let mut out = String::new();
        for (stack, &count) in &self.folded {
            let before = earlier.folded.get(stack).copied().unwrap_or(0);
            if count > before {
                out.push_str(&format!("{stack} {}\n", count - before));
            }
        }
        out
    }
}

fn profile_data() -> &'static Mutex<ProfileSnapshot> {
    static DATA: OnceLock<Mutex<ProfileSnapshot>> = OnceLock::new();
    DATA.get_or_init(|| Mutex::new(ProfileSnapshot::default()))
}

/// The cumulative profile accumulated by every sampler run so far.
pub fn profile_snapshot() -> ProfileSnapshot {
    profile_data().lock().unwrap_or_else(|poisoned| poisoned.into_inner()).clone()
}

fn parallelism_histogram() -> &'static Histogram {
    static HISTOGRAM: OnceLock<Histogram> = OnceLock::new();
    HISTOGRAM.get_or_init(|| {
        global_histogram(
            "tm_parallelism",
            "Busy worker threads per profiler sample",
            &[],
            Unit::None,
        )
    })
}

/// One sampler tick over `slots`, folded into `data`.
fn sample_once(data: &Mutex<ProfileSnapshot>) {
    let slots: Vec<Arc<Slot>> = lock_slots()
        .iter()
        .filter(|s| s.active.load(Ordering::Relaxed))
        .cloned()
        .collect();
    let mut busy_workers = 0u64;
    let mut stacks: Vec<String> = Vec::with_capacity(slots.len());
    for slot in &slots {
        let depth = slot.depth.load(Ordering::Acquire).min(PROFILE_MAX_DEPTH);
        let mut stack = slot.root();
        if depth == 0 {
            stack.push_str(";idle");
        } else {
            if slot.kind == ThreadKind::Worker {
                busy_workers += 1;
            }
            for frame in slot.frames.iter().take(depth) {
                let name = frame_name(frame.load(Ordering::Relaxed));
                if !name.is_empty() {
                    stack.push(';');
                    stack.push_str(name);
                }
            }
        }
        stacks.push(stack);
    }
    parallelism_histogram().observe(busy_workers);
    let mut data = data.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    data.samples += 1;
    for stack in stacks {
        *data.folded.entry(stack).or_insert(0) += 1;
    }
}

struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

fn sampler_state() -> &'static Mutex<Option<SamplerHandle>> {
    static STATE: OnceLock<Mutex<Option<SamplerHandle>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Starts the sampler thread. Idempotent: returns `true` if this call
/// started it, `false` if it was already running.
pub fn start_sampler() -> bool {
    let mut state = sampler_state().lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if state.is_some() {
        return false;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("tm-obs-sampler".to_owned())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                sample_once(profile_data());
                std::thread::sleep(Duration::from_micros(SAMPLE_PERIOD_MICROS));
            }
        })
        .expect("spawning the sampler thread");
    *state = Some(SamplerHandle { stop, thread });
    true
}

/// Stops and joins the sampler thread. Idempotent: returns `true` if
/// this call stopped it, `false` if it was not running. Accumulated
/// profile data is kept.
pub fn stop_sampler() -> bool {
    let handle = {
        let mut state =
            sampler_state().lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        state.take()
    };
    match handle {
        Some(handle) => {
            handle.stop.store(true, Ordering::Relaxed);
            let _ = handle.thread.join();
            true
        }
        None => false,
    }
}

/// `true` while the sampler thread is running.
pub fn sampler_running() -> bool {
    sampler_state().lock().unwrap_or_else(|poisoned| poisoned.into_inner()).is_some()
}

/// Profiles the next `window` of wall clock and returns the folded-stack
/// text for it: ensures the sampler is running (leaving it running if it
/// already was), sleeps the window on the calling thread, and diffs the
/// cumulative snapshots around it. The calling thread's own slot is left
/// out: it only sleeps out the window, so an idle process profiles to an
/// empty text. This is what `GET /v1/profile` serves.
pub fn collect_profile(window: Duration) -> String {
    start_sampler();
    let own_root = CURRENT.with(|cell| cell.borrow().as_ref().map(|slot| slot.root()));
    let before = profile_snapshot();
    std::thread::sleep(window);
    let folded = profile_snapshot().folded_since(&before);
    let Some(own_root) = own_root else {
        return folded;
    };
    folded
        .lines()
        .filter(|line| line.split([';', ' ']).next() != Some(own_root.as_str()))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global slot table or the sampler.
    fn profile_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn frames_push_and_pop_through_the_guards() {
        let _guard = profile_lock();
        let _registration = register_thread(ThreadKind::Session);
        {
            let _level = crate::PhaseTimer::start(Phase::BfsLevel);
            let _intern = crate::PhaseTimer::start(Phase::SpecIntern);
            CURRENT.with(|cell| {
                let borrow = cell.borrow();
                let slot = borrow.as_ref().expect("registered");
                assert_eq!(slot.depth.load(Ordering::Relaxed), 2);
                assert_eq!(frame_name(slot.frames[0].load(Ordering::Relaxed)), "bfs_level");
                assert_eq!(
                    frame_name(slot.frames[1].load(Ordering::Relaxed)),
                    "spec_intern"
                );
            });
        }
        CURRENT.with(|cell| {
            let borrow = cell.borrow();
            assert_eq!(borrow.as_ref().unwrap().depth.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn overdeep_stacks_stay_balanced() {
        let _guard = profile_lock();
        let _registration = register_thread(ThreadKind::Session);
        let frames: Vec<crate::PhaseTimer> = (0..PROFILE_MAX_DEPTH + 3)
            .map(|_| crate::PhaseTimer::start(Phase::BfsLevel))
            .collect();
        CURRENT.with(|cell| {
            let borrow = cell.borrow();
            let slot = borrow.as_ref().unwrap();
            assert_eq!(slot.depth.load(Ordering::Relaxed), PROFILE_MAX_DEPTH + 3);
        });
        drop(frames);
        CURRENT.with(|cell| {
            let borrow = cell.borrow();
            assert_eq!(borrow.as_ref().unwrap().depth.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn unregistering_frees_the_ordinal_for_reuse() {
        let _guard = profile_lock();
        let first = register_thread(ThreadKind::Http);
        let first_ordinal = first.slot.ordinal;
        drop(first);
        let second = register_thread(ThreadKind::Http);
        assert_eq!(
            second.slot.ordinal,
            first_ordinal,
            "a freed slot is reused before a new ordinal is minted"
        );
    }

    #[test]
    fn sampler_start_stop_are_idempotent() {
        let _guard = profile_lock();
        assert!(start_sampler());
        assert!(!start_sampler(), "second start is a no-op");
        assert!(sampler_running());
        assert!(stop_sampler());
        assert!(!stop_sampler(), "second stop is a no-op");
        assert!(!sampler_running());
    }

    #[test]
    fn sampler_folds_stacks_and_diffs_windows() {
        let _guard = profile_lock();
        let _registration = register_thread(ThreadKind::Session);
        let _level = crate::PhaseTimer::start(Phase::BfsLevel);
        let _intern = crate::PhaseTimer::start(Phase::SpecIntern);
        let before = profile_snapshot();
        // Drive ticks directly instead of racing a real sampler thread.
        for _ in 0..5 {
            sample_once(profile_data());
        }
        let after = profile_snapshot();
        assert_eq!(after.samples, before.samples + 5);
        let folded = after.folded_since(&before);
        let line = folded
            .lines()
            .find(|l| l.starts_with("session-") && l.contains("bfs_level;spec_intern"))
            .expect("the published stack shows up in the folded text");
        let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(count, 5);
        // A second diff over an empty window is empty.
        assert!(after.folded_since(&after).is_empty());
    }
}
