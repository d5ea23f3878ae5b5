//! # mfdfp-rt — persistent work-sharing thread-pool runtime
//!
//! The shift-only kernels in this workspace make individual products so
//! cheap that *thread lifetime* becomes the dominant scheduling cost:
//! spawning and joining OS threads per GEMM call costs tens of
//! microseconds, which small products cannot repay, and a serving
//! runtime dispatching hundreds of batches per second pays it over and
//! over. This crate replaces per-call `std::thread::scope` fan-out with
//! one **lazy, process-wide pool** of long-lived workers
//! ([`global`], sized by `MFDFP_THREADS` or the detected core count)
//! plus a scoped fork-join API ([`ThreadPool::scope`]) that:
//!
//! * lets tasks borrow from the caller's stack (like
//!   `std::thread::scope` — the scope does not return until every
//!   spawned task has finished, even when a task panics);
//! * propagates task panics to the scope owner (first panic wins,
//!   mirroring the join-side behaviour of scoped threads);
//! * never deadlocks on nesting: any thread waiting for a scope *helps*
//!   execute queued tasks, so a pool task may itself open a scope
//!   (the serving runtime's batch forwards do exactly that);
//! * is deterministic-friendly: the pool only decides **which thread**
//!   runs a task, never how work is partitioned — callers fix chunk
//!   boundaries themselves, so bit-identical results are a property of
//!   their kernels, exactly as with per-call spawning.
//!
//! Tasks go through a shared injector queue (one mutex-guarded deque —
//! the hot paths enqueue at most a handful of row-chunk tasks per
//! dispatch, so a work-stealing deque per worker would buy nothing at
//! this granularity) and workers park on a condvar when idle.
//! [`PoolStats`] exposes the observability counters the serving runtime
//! surfaces: tasks run, steals (tasks executed by a thread other than
//! their submitter) and idle parks.
//!
//! # Examples
//!
//! Fork-join over borrowed stack data:
//!
//! ```
//! let pool = mfdfp_rt::ThreadPool::with_threads(4);
//! let mut halves = [0u64; 2];
//! let (lo, hi) = halves.split_at_mut(1);
//! pool.scope(|s| {
//!     s.spawn(|| lo[0] = (1..=50).sum());
//!     s.spawn(|| hi[0] = (51..=100).sum());
//! });
//! assert_eq!(halves[0] + halves[1], 5050);
//! ```
//!
//! The process-wide pool the tensor/serving hot paths share:
//!
//! ```
//! let pool = mfdfp_rt::global();
//! assert!(pool.threads() >= 1);
//! let stats = mfdfp_rt::global_stats();
//! assert!(stats.threads >= 1); // engaged by the call above
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, ThreadId};

/// A point-in-time view of the pool's counters (monotonic since pool
/// creation; cheap enough for the serving hot path to snapshot on
/// every metrics read, and ordered so `steals <= tasks_run` holds in
/// every snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel width of the pool: dedicated workers plus the
    /// scope-owning caller. [`global_stats`] reports `0` here when the
    /// global pool has never been engaged.
    pub threads: usize,
    /// Tasks claimed and run (by workers or by helping waiters).
    /// Counted when execution *starts*, so a snapshot taken mid-task
    /// includes that task; every counted task finishes before its
    /// scope returns.
    pub tasks_run: u64,
    /// Tasks executed by a thread other than the one that spawned them
    /// (a scope owner running its own task inline is not a steal).
    pub steals: u64,
    /// Times a worker found the queue empty and parked on the condvar.
    pub idle_parks: u64,
}

/// A task after lifetime erasure (see the safety argument in
/// [`Scope::spawn`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueuedJob {
    job: Job,
    submitter: ThreadId,
}

/// Queue state under the mutex: pending jobs + the shutdown latch.
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Workers park here when the queue is empty.
    work_cv: Condvar,
    threads: usize,
    tasks_run: AtomicU64,
    steals: AtomicU64,
    idle_parks: AtomicU64,
}

impl Shared {
    fn push(&self, job: QueuedJob) {
        let mut q = self.queue.lock().expect("rt queue poisoned");
        q.jobs.push_back(job);
        drop(q);
        self.work_cv.notify_one();
    }

    fn try_pop(&self) -> Option<QueuedJob> {
        self.queue.lock().expect("rt queue poisoned").jobs.pop_front()
    }

    /// Executes one claimed job, attributing the run/steal counters.
    /// Panics cannot escape: every queued job wraps its payload in
    /// `catch_unwind` at spawn time (see [`Scope::spawn`]).
    ///
    /// Counter protocol: `tasks_run` is bumped before `steals`, both
    /// `SeqCst`, and [`ThreadPool::stats`] reads them in the opposite
    /// order — so a concurrent snapshot can never observe
    /// `steals > tasks_run` (the invariant the serving dashboard and
    /// the tests lean on).
    fn run_job(&self, queued: QueuedJob) {
        self.tasks_run.fetch_add(1, Ordering::SeqCst);
        if thread::current().id() != queued.submitter {
            self.steals.fetch_add(1, Ordering::SeqCst);
        }
        (queued.job)();
    }
}

/// Long-lived worker: pop → run, park when empty, exit on shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let queued = {
            let mut q = shared.queue.lock().expect("rt queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                shared.idle_parks.fetch_add(1, Ordering::Relaxed);
                q = shared.work_cv.wait(q).expect("rt queue poisoned");
            }
        };
        match queued {
            Some(job) => shared.run_job(job),
            None => return,
        }
    }
}

/// Per-scope completion state: outstanding task count, the first panic
/// payload, and the condvar the owner sleeps on once the queue is dry.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

/// A fork-join scope handed to the closure of [`ThreadPool::scope`].
///
/// Spawned tasks may borrow anything that outlives the scope (the
/// `'scope` lifetime); the scope call does not return until every task
/// has finished. The marker makes `'scope` invariant, which is what
/// keeps those borrows sound.
pub struct Scope<'scope> {
    shared: &'scope Shared,
    state: Arc<ScopeState>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Submits `task` to the pool. It may run on any worker, or on the
    /// scope owner while it waits; it has started — or will start —
    /// before [`ThreadPool::scope`] returns, and will have **finished**
    /// before it returns.
    ///
    /// A panicking task does not abort the others; the payload is
    /// re-raised on the scope owner after all tasks complete (first
    /// panic wins).
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                let mut slot = state.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
                drop(slot);
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last task out: take the lock so the notify cannot race
                // between the owner's pending check and its wait.
                drop(state.done_lock.lock().expect("rt scope lock poisoned"));
                state.done_cv.notify_all();
            }
        });
        // SAFETY: the job is erased to 'static so 'static worker threads
        // can hold it, but it only borrows data outliving 'scope, and
        // `ThreadPool::scope` does not return (not even by unwinding)
        // until `pending` reaches zero — i.e. until this closure has run
        // to completion. The borrowed data therefore strictly outlives
        // every use. This is the same argument `std::thread::scope` and
        // rayon's scope rest on.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        self.shared.push(QueuedJob { job, submitter: thread::current().id() });
    }
}

/// A persistent pool of worker threads with a scoped fork-join API.
///
/// The pool spawns `threads - 1` workers: the thread calling
/// [`scope`](ThreadPool::scope) is the remaining lane (it helps execute
/// tasks while waiting), so a width-1 pool runs everything inline with
/// no worker threads at all. Most code should use the process-wide
/// [`global`] pool instead of constructing its own.
///
/// Dropping a pool shuts it down: workers drain the queue latch and
/// exit, and the drop joins them. (The [`global`] pool lives for the
/// process and is never dropped.)
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool of parallel width `threads` (clamped to ≥ 1),
    /// spawning `threads - 1` dedicated workers.
    pub fn with_threads(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
            threads,
            tasks_run: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            idle_parks: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mfdfp-rt-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// The pool's parallel width: dedicated workers plus the caller.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Snapshot of the pool's counters. Mutually consistent in the one
    /// direction that matters: `steals` is read *before* `tasks_run`
    /// (and writers bump them in the opposite order, all `SeqCst` — see
    /// `Shared::run_job`), so a snapshot taken during a burst of steals
    /// still satisfies `steals <= tasks_run`.
    pub fn stats(&self) -> PoolStats {
        let steals = self.shared.steals.load(Ordering::SeqCst);
        let tasks_run = self.shared.tasks_run.load(Ordering::SeqCst);
        PoolStats {
            threads: self.shared.threads,
            tasks_run,
            steals,
            idle_parks: self.shared.idle_parks.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with a [`Scope`] whose spawned tasks may borrow from the
    /// caller's stack. Returns only after every spawned task finished;
    /// the calling thread helps execute queued tasks while it waits, so
    /// nested scopes (a pool task opening its own scope) cannot
    /// deadlock. If `f` or any task panicked, the panic resumes on the
    /// caller **after** all tasks completed — the same contract as
    /// `std::thread::scope`, minus the per-call spawn/join cost.
    ///
    /// # Examples
    ///
    /// ```
    /// let pool = mfdfp_rt::ThreadPool::with_threads(2);
    /// let mut out = vec![0usize; 8];
    /// pool.scope(|s| {
    ///     for (i, chunk) in out.chunks_mut(4).enumerate() {
    ///         s.spawn(move || chunk.iter_mut().for_each(|v| *v = i));
    ///     }
    /// });
    /// assert_eq!(out, [0, 0, 0, 0, 1, 1, 1, 1]);
    /// ```
    pub fn scope<'scope, F, R>(&'scope self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            shared: &self.shared,
            state: Arc::new(ScopeState::new()),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Tasks borrow the caller's frame: they must all complete before
        // this function returns, even if `f` itself panicked.
        self.wait_scope(&scope.state);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                let panicked = scope.state.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
                match panicked {
                    Some(payload) => resume_unwind(payload),
                    None => value,
                }
            }
        }
    }

    /// Help-first wait: run queued tasks (of any scope — that is what
    /// makes nesting deadlock-free) until this scope's count drains,
    /// then park on the scope condvar. No task of *this* scope can be
    /// enqueued after `f` returns (spawning needs the `&Scope`), so the
    /// count only falls here.
    fn wait_scope(&self, state: &ScopeState) {
        while state.pending.load(Ordering::SeqCst) != 0 {
            if let Some(job) = self.shared.try_pop() {
                self.shared.run_job(job);
                continue;
            }
            let guard = state.done_lock.lock().expect("rt scope lock poisoned");
            if state.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            // Completing tasks signal done_cv under done_lock, so this
            // wait cannot miss the final decrement observed above.
            drop(state.done_cv.wait(guard).expect("rt scope lock poisoned"));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().expect("rt queue poisoned").shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Parallel width the global pool is created with: `MFDFP_THREADS` if
/// set and parseable (clamped to ≥ 1), else the detected core count.
/// Read once at first [`global`] use — changing the variable afterwards
/// has no effect, which is what makes the pool's width a stable fact a
/// server can report.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MFDFP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The lazy process-wide pool every hot path shares (GEMM row chunks,
/// batched quantized forwards, serving batch dispatch). Created on
/// first use with [`default_threads`] width; lives for the process.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::with_threads(default_threads()))
}

/// Counters of the [`global`] pool **without instantiating it**: all
/// zeros (including `threads: 0`) when no hot path has engaged the pool
/// yet. This is what the serving metrics snapshot reads, so a metrics
/// poll never spawns worker threads as a side effect.
pub fn global_stats() -> PoolStats {
    GLOBAL.get().map_or_else(PoolStats::default, ThreadPool::stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = ThreadPool::with_threads(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn tasks_borrow_disjoint_chunks() {
        let pool = ThreadPool::with_threads(3);
        let mut out = vec![0usize; 100];
        pool.scope(|s| {
            for (i, chunk) in out.chunks_mut(7).enumerate() {
                s.spawn(move || chunk.iter_mut().for_each(|v| *v = i));
            }
        });
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, j / 7, "element {j}");
        }
    }

    #[test]
    fn width_one_pool_runs_inline_without_workers() {
        let pool = ThreadPool::with_threads(1);
        assert_eq!(pool.threads(), 1);
        let main_id = thread::current().id();
        let mut ran_on = None;
        pool.scope(|s| s.spawn(|| ran_on = Some(thread::current().id())));
        assert_eq!(ran_on, Some(main_id));
        let stats = pool.stats();
        assert_eq!((stats.tasks_run, stats.steals), (1, 0));
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Each outer task opens its own scope on the same pool — the
        // pattern batched serving dispatch produces.
        let pool = ThreadPool::with_threads(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = ThreadPool::with_threads(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let fin = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    let fin = Arc::clone(&fin);
                    s.spawn(move || {
                        fin.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-raise the task panic");
        assert_eq!(finished.load(Ordering::SeqCst), 8, "siblings must still run");
        // The pool survives a panicked scope.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn closure_panic_still_waits_for_tasks() {
        let pool = ThreadPool::with_threads(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let fin = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..4 {
                    let fin = Arc::clone(&fin);
                    s.spawn(move || {
                        fin.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("owner boom");
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::with_threads(2);
        let x = pool.scope(|s| {
            s.spawn(|| {});
            41 + 1
        });
        assert_eq!(x, 42);
    }

    #[test]
    fn stats_are_monotonic_and_attributed() {
        let pool = ThreadPool::with_threads(4);
        let before = pool.stats();
        assert_eq!(before.threads, 4);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| std::hint::black_box(()));
            }
        });
        let after = pool.stats();
        assert_eq!(after.tasks_run, before.tasks_run + 32);
        assert!(after.steals <= after.tasks_run);
    }

    #[test]
    fn global_stats_never_instantiates() {
        // Can't assert the global is untouched here (other tests in the
        // process may engage it), but the call must be side-effect free:
        // two reads in a row agree on width.
        let a = global_stats();
        let b = global_stats();
        assert_eq!(a.threads, b.threads);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
