//! Deterministic fault injection for the serving tier.
//!
//! The hooks are compiled into every build and stay disarmed until a
//! test arms them: a disarmed hook costs one relaxed atomic load (two
//! per request, four per batch). Arming a fault is a relaxed atomic
//! store; hitting one is a relaxed decrement — there is no lock
//! anywhere, so injection can never introduce a synchronisation edge
//! that masks a real race. The `tests/fault.rs` and `tests/recovery.rs`
//! harnesses drive them.
//!
//! Supported faults (each armed for the next *n* hits):
//!
//! * **queue-full** — admissions behave as if the shard queue were at
//!   capacity, exercising the [`ServeError::QueueFull`] backpressure
//!   path without needing to actually fill a queue;
//! * **worker panic** — a worker panics mid-dispatch (inside the batch,
//!   before inference); the server must contain it: typed
//!   [`ServeError::WorkerPanic`] responses, no poisoned lock, the worker
//!   thread survives;
//! * **slow batch** — a dispatch stalls for a configured duration before
//!   inference, the deterministic way to force queued requests past
//!   their deadlines (deadline-shed testing);
//! * **registry read delay** — a registry lookup holds the shared lock
//!   for a configured duration, widening the mid-swap window so the
//!   reader/swapper interleaving is reliably exercised;
//! * **worker hang** — a dispatch stalls long enough for the worker's
//!   heartbeat to go stale, the deterministic way to trip the watchdog's
//!   hung-worker detection and crash-only respawn;
//! * **worker death** — a worker thread aborts *outside* the
//!   per-dispatch panic containment (at the top of its loop), the
//!   deterministic way to exercise dead-worker detection and respawn.
//!   Arm a large count of worker panics for a **panic storm** (the
//!   circuit-breaker trip scenario).
//!
//! [`ServeError::QueueFull`]: crate::ServeError::QueueFull
//! [`ServeError::WorkerPanic`]: crate::ServeError::WorkerPanic

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static QUEUE_FULL: AtomicU64 = AtomicU64::new(0);
static WORKER_PANIC: AtomicU64 = AtomicU64::new(0);
static SLOW_BATCH: AtomicU64 = AtomicU64::new(0);
static SLOW_BATCH_US: AtomicU64 = AtomicU64::new(0);
static REGISTRY_READ: AtomicU64 = AtomicU64::new(0);
static REGISTRY_READ_US: AtomicU64 = AtomicU64::new(0);
static WORKER_HANG: AtomicU64 = AtomicU64::new(0);
static WORKER_HANG_US: AtomicU64 = AtomicU64::new(0);
static WORKER_DIE: AtomicU64 = AtomicU64::new(0);

/// Decrements `counter` if positive; returns whether it was.
fn take(counter: &AtomicU64) -> bool {
    counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_ok()
}

/// Arms the next `n` admissions to report a full queue.
pub fn arm_queue_full(n: u64) {
    QUEUE_FULL.store(n, Ordering::Relaxed);
}

/// Arms the next `n` dispatches to panic before inference.
pub fn arm_worker_panic(n: u64) {
    WORKER_PANIC.store(n, Ordering::Relaxed);
}

/// Arms the next `n` dispatches to stall for `delay` before
/// inference.
pub fn arm_slow_batch(n: u64, delay: Duration) {
    SLOW_BATCH_US.store(delay.as_micros() as u64, Ordering::Relaxed);
    SLOW_BATCH.store(n, Ordering::Relaxed);
}

/// Arms the next `n` registry lookups to hold the shared lock for
/// `delay` (the mid-swap window).
pub fn arm_registry_read_delay(n: u64, delay: Duration) {
    REGISTRY_READ_US.store(delay.as_micros() as u64, Ordering::Relaxed);
    REGISTRY_READ.store(n, Ordering::Relaxed);
}

/// Arms the next `n` dispatches to hang for `delay` — long enough,
/// with `delay > hang_timeout`, for the watchdog to declare the
/// worker hung and respawn it. The hung thread finishes its batch
/// when the sleep ends (crash-only: nobody waits for it).
pub fn arm_worker_hang(n: u64, delay: Duration) {
    WORKER_HANG_US.store(delay.as_micros() as u64, Ordering::Relaxed);
    WORKER_HANG.store(n, Ordering::Relaxed);
}

/// Arms the next `n` worker-loop iterations to abort the worker
/// thread (outside the per-dispatch panic containment), exercising
/// dead-worker detection and respawn.
pub fn arm_worker_die(n: u64) {
    WORKER_DIE.store(n, Ordering::Relaxed);
}

/// Disarms every fault.
pub fn reset() {
    for counter in
        [&QUEUE_FULL, &WORKER_PANIC, &SLOW_BATCH, &REGISTRY_READ, &WORKER_HANG, &WORKER_DIE]
    {
        counter.store(0, Ordering::Relaxed);
    }
}

/// Hook: should this admission pretend the queue is full?
pub(crate) fn take_queue_full() -> bool {
    take(&QUEUE_FULL)
}

/// Hook: panic if a worker panic is armed.
pub(crate) fn maybe_worker_panic() {
    if take(&WORKER_PANIC) {
        panic!("fault injection: worker panic");
    }
}

/// Hook: stall if a slow batch is armed.
pub(crate) fn maybe_slow_batch() {
    if take(&SLOW_BATCH) {
        std::thread::sleep(Duration::from_micros(SLOW_BATCH_US.load(Ordering::Relaxed)));
    }
}

/// Hook: hold the registry's shared lock open if armed.
pub(crate) fn on_registry_read() {
    if take(&REGISTRY_READ) {
        std::thread::sleep(Duration::from_micros(REGISTRY_READ_US.load(Ordering::Relaxed)));
    }
}

/// Hook: hang the dispatching worker if armed.
pub(crate) fn maybe_worker_hang() {
    if take(&WORKER_HANG) {
        std::thread::sleep(Duration::from_micros(WORKER_HANG_US.load(Ordering::Relaxed)));
    }
}

/// Hook: kill the worker thread if armed (panics outside the
/// dispatch containment, so the thread actually dies).
pub(crate) fn maybe_worker_die() {
    if take(&WORKER_DIE) {
        panic!("fault injection: worker death");
    }
}
