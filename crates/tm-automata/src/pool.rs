//! Persistent worker pool and the executor abstraction behind every
//! parallel region of the engines.
//!
//! The product engine used to spawn three `thread::scope`s per BFS level
//! and the liveness engine one scope per property check; a deep product
//! pays that thread start-up cost hundreds of times, and a session
//! answering many queries pays it per query. [`WorkerPool`] keeps a fixed
//! set of workers alive instead: tasks are sent over a shared channel and
//! a per-batch countdown (mutex + condvar) blocks the submitting thread
//! until every task of the batch has finished — the same structural
//! guarantee `thread::scope` gives, which is what makes it sound to run
//! borrowing tasks on `'static` worker threads (see the safety note in
//! the module source).
//!
//! [`Executor`] is the knob the engines actually take:
//!
//! * [`Executor::Sequential`] — run tasks inline (the deterministic
//!   single-threaded engines);
//! * [`Executor::Pool`] — dispatch to a [`WorkerPool`].
//!
//! All engine results are index-addressed (each task writes its own
//! slot), so verdicts, counterexamples, and lassos are identical under
//! every executor — the determinism contract is scheduling-independent.

// The one place in the workspace that needs `unsafe`: erasing a task's
// borrow lifetime so it can cross onto a persistent worker thread. The
// soundness argument is local to `run_batch` and documented there.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use tm_obs::{Phase, PhaseTimer};

use crate::budget::EngineError;
use crate::fault;

/// A type-erased task with its borrows erased to `'static`; only ever
/// constructed inside [`WorkerPool::run_batch`], which guarantees the
/// erased borrows outlive the task's execution.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Countdown shared between a batch submitter and the workers running its
/// tasks.
struct BatchState {
    /// Tasks dispatched but not yet finished.
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// Set if any task of the batch panicked (the panic is caught on the
    /// worker, recorded here, and re-raised on the submitting thread).
    panicked: AtomicBool,
}

impl BatchState {
    fn new() -> Arc<Self> {
        Arc::new(BatchState {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        })
    }

    /// Blocks until every dispatched task of the batch has finished.
    fn wait(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Blocks on the batch countdown when dropped: even if the submitting
/// thread unwinds mid-dispatch, no task that borrows its stack can still
/// be running (or queued) once the stack frame dies.
struct WaitGuard<'a>(&'a BatchState);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// A fixed-size pool of persistent worker threads.
///
/// Created once per verification session (see `tm_checker::Verifier`) and
/// reused by every parallel region of every query, replacing the
/// per-region `thread::scope` spawns. Dropping the pool shuts the workers
/// down and joins them.
///
/// # Examples
///
/// ```
/// use tm_automata::{Executor, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let mut squares = vec![0usize; 4];
/// Executor::Pool(&pool)
///     .try_scope(|scope| {
///         for (i, slot) in squares.iter_mut().enumerate() {
///             scope.spawn(move || *slot = i * i);
///         }
///     })
///     .unwrap();
/// assert_eq!(squares, [0, 1, 4, 9]);
/// ```
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.size).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `size` workers (`size` is clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || {
                    // Register with the sampling profiler for the
                    // worker's lifetime (inert under `TM_OBS=off`): the
                    // sampler sees this thread as `worker-N`.
                    let _profile = tm_obs::register_thread(tm_obs::ThreadKind::Worker);
                    worker_loop(&receiver)
                })
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs a batch of borrowing tasks on the workers and blocks until
    /// all of them have finished. Panics in tasks are caught on the
    /// workers (keeping them alive for the next batch) and propagated
    /// here as [`EngineError::TaskPanicked`] once the batch has drained.
    ///
    /// Must not be called from inside a pool task of the same pool: with
    /// every worker parked on the inner batch the pool would deadlock.
    /// The engines never nest parallel regions.
    fn run_batch<'scope>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) -> Result<(), EngineError> {
        let state = BatchState::new();
        // Installed before the first dispatch: whatever happens below —
        // including a panic on this thread mid-loop — this frame cannot
        // be left while a dispatched task is unfinished.
        let guard = WaitGuard(&state);
        let sender = self.sender.as_ref().expect("pool is alive while borrowed");
        for task in tasks {
            *state
                .remaining
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) += 1;
            let batch = Arc::clone(&state);
            // Queue-wait probe: stamped at enqueue, observed by the worker
            // that dequeues the job. Workers have no per-query recorder,
            // so the span lands in the global histogram only.
            let enqueued = tm_obs::obs_enabled().then(Instant::now);
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if let Some(enqueued) = enqueued {
                    tm_obs::record_phase(Phase::PoolQueueWait, enqueued.elapsed(), 0);
                }
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    batch.panicked.store(true, Ordering::Relaxed);
                }
                let mut remaining = batch
                    .remaining
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done.notify_all();
                }
            });
            // SAFETY: the job's only non-`'static` content is the borrows
            // captured by `task` (lifetime `'scope`, which outlives this
            // call). The transmute erases `'scope` so the job can live on
            // a `'static` worker thread; soundness requires that the job
            // never runs — and is dropped — after `'scope` data is gone.
            // That is guaranteed by the batch countdown: `remaining` was
            // incremented before this dispatch, the job decrements it
            // only after the task has returned (or unwound) and been
            // consumed, and `guard` blocks this function — on normal
            // return *and* on unwind — until the count is zero again.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job)
            };
            sender.send(job).expect("workers outlive the pool handle");
        }
        drop(guard); // blocks until the batch has drained
        if state.panicked.load(Ordering::Relaxed) {
            return Err(EngineError::TaskPanicked);
        }
        Ok(())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a recv error.
        self.sender = None;
        for worker in self.workers.drain(..) {
            // A worker can only have panicked through a bug in the pool
            // itself (task panics are caught); don't double-panic here.
            let _ = worker.join();
        }
    }
}

/// Worker main loop: pull jobs off the shared channel until it closes.
fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let receiver = receiver
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            receiver.recv()
        };
        match job {
            Ok(job) => {
                // Published for the job's duration so a profiler sample
                // counts this worker as busy (`tm_parallelism`) even
                // between finer-grained phase spans.
                let _busy = tm_obs::task_frame();
                job();
            }
            Err(_) => break, // pool dropped
        }
    }
}

/// A collector of borrowing tasks for one parallel region; handed to the
/// closure of [`Executor::try_scope`]. Tasks run after the closure
/// returns.
pub struct TaskScope<'scope> {
    tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
}

impl<'scope> TaskScope<'scope> {
    /// Registers a task. All tasks of the scope run concurrently (under
    /// parallel executors); each must write only to state it exclusively
    /// borrows.
    pub fn spawn(&mut self, task: impl FnOnce() + Send + 'scope) {
        self.tasks.push(Box::new(task));
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if no task has been registered.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// How a parallel region is executed. The engines take an `&Executor`;
/// results are identical under both variants (and every pool size) by
/// the determinism contract.
#[derive(Clone, Copy, Debug)]
pub enum Executor<'p> {
    /// Run tasks inline on the calling thread, in registration order —
    /// the deterministic sequential engines.
    Sequential,
    /// Dispatch tasks to a persistent [`WorkerPool`].
    Pool(&'p WorkerPool),
}

impl Executor<'_> {
    /// The width callers should partition a region's work into: 1 or the
    /// pool size.
    pub fn threads(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Pool(pool) => pool.size(),
        }
    }

    /// Runs one parallel region: collects the tasks registered by `f`,
    /// executes them to completion, then returns `f`'s result. Tasks may
    /// borrow from the caller's stack; the region is fully synchronous —
    /// on `Err` as on `Ok`, no task outlives the call.
    ///
    /// # Errors
    ///
    /// [`EngineError::TaskPanicked`] if a task panicked (caught on the
    /// worker under [`Executor::Pool`], inline under
    /// [`Executor::Sequential`]; every task still runs), and
    /// [`EngineError::FaultInjected`] from the `dispatch`
    /// fault-injection point (see [`crate::fault`]).
    pub fn try_scope<'scope, R>(
        &self,
        f: impl FnOnce(&mut TaskScope<'scope>) -> R,
    ) -> Result<R, EngineError> {
        let mut scope = TaskScope { tasks: Vec::new() };
        let result = f(&mut scope);
        let tasks = scope.tasks;
        if tasks.is_empty() {
            return Ok(result);
        }
        fault::fault_point("dispatch")?;
        // Submit + drain of the whole region, as seen by the coordinating
        // thread (covers the inline run under `Sequential` too).
        let _span = PhaseTimer::start(Phase::PoolDispatch).with_value(tasks.len() as u64);
        match self {
            Executor::Sequential => {
                // Run every task (matching the pool, which always drains
                // the batch) and report a panic afterwards.
                let mut panicked = false;
                for task in tasks {
                    panicked |= catch_unwind(AssertUnwindSafe(task)).is_err();
                }
                if panicked {
                    return Err(EngineError::TaskPanicked);
                }
            }
            Executor::Pool(pool) => pool.run_batch(tasks)?,
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Sums 0..n by giving each task a disjoint slot, under one executor.
    fn slot_sum(executor: &Executor<'_>, n: usize) -> usize {
        let mut slots = vec![0usize; n];
        executor
            .try_scope(|scope| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    scope.spawn(move || *slot = i);
                }
            })
            .unwrap();
        slots.iter().sum()
    }

    #[test]
    fn executors_agree_on_slot_writes() {
        let pool = WorkerPool::new(3);
        let expected = (0..17).sum::<usize>();
        assert_eq!(slot_sum(&Executor::Sequential, 17), expected);
        assert_eq!(slot_sum(&Executor::Pool(&pool), 17), expected);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            Executor::Pool(&pool)
                .try_scope(|scope| {
                    for _ in 0..4 {
                        scope.spawn(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
                .unwrap();
        }
        // Every batch fully drained before the next: no task can be
        // outstanding once `try_scope` returns.
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn batches_larger_than_the_pool_complete() {
        let pool = WorkerPool::new(2);
        assert_eq!(slot_sum(&Executor::Pool(&pool), 64), (0..64).sum());
    }

    #[test]
    fn scope_result_is_returned_and_empty_scopes_are_free() {
        let pool = WorkerPool::new(1);
        for executor in [Executor::Sequential, Executor::Pool(&pool)] {
            assert_eq!(executor.try_scope(|_| 42), Ok(42));
        }
    }

    #[test]
    fn pool_size_is_clamped_and_reported() {
        assert_eq!(WorkerPool::new(0).size(), 1);
        assert_eq!(WorkerPool::new(5).size(), 5);
        assert_eq!(Executor::Pool(&WorkerPool::new(3)).threads(), 3);
        assert_eq!(Executor::Sequential.threads(), 1);
    }

    #[test]
    fn try_scope_reports_task_panics_as_errors_on_every_executor() {
        let pool = WorkerPool::new(2);
        for executor in [Executor::Sequential, Executor::Pool(&pool)] {
            let mut ran = false;
            let result = executor.try_scope(|scope| {
                scope.spawn(|| panic!("boom"));
                scope.spawn(|| ran = true);
            });
            assert_eq!(result, Err(crate::EngineError::TaskPanicked));
            // The batch drained: the sibling task still ran, and the
            // executor is reusable afterwards.
            assert!(ran);
            assert_eq!(executor.try_scope(|_| 7), Ok(7));
        }
        assert_eq!(slot_sum(&Executor::Pool(&pool), 8), (0..8).sum());
    }
}
