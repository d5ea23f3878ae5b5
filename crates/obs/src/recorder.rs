//! The flight recorder: per-thread rings, the span guard, and the
//! ordered dump.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::TraceEvent;

/// Events per thread ring. At serving rates (~10–20k spans/s/thread)
/// this holds the last few hundred milliseconds of history — flight
/// recorders keep *recent* history and overwrite the rest.
const RING_CAPACITY: usize = 4096;

/// Capacity of each per-thread ring, in events.
pub fn ring_capacity() -> usize {
    RING_CAPACITY
}

/// Nanoseconds on the process-wide monotonic clock (first caller
/// fixes the epoch, so early timestamps start near zero).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One ring slot. All fields are atomics so concurrent dump reads
/// are race-free by construction; the `version` seqlock decides
/// whether a read saw one *consistent* event: the writer invalidates
/// (`0`), writes the fields, then publishes `event_index + 1`. A
/// reader that observes the expected version both before and after
/// its field loads holds an untorn record; anything else is skipped.
struct Slot {
    version: AtomicU64,
    label_ptr: AtomicPtr<u8>,
    label_len: AtomicUsize,
    arg: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            label_ptr: AtomicPtr::new(std::ptr::null_mut()),
            label_len: AtomicUsize::new(0),
            arg: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// One ring. Only its current owner thread writes; any thread may read
/// via [`dump`]. Rings live for the whole process: when the owner
/// exits, the ring (events included) goes back to the registry's free
/// list and the next thread to record takes it over, appending after
/// the finished thread's final events.
struct Ring {
    id: u64,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(id: u64) -> Ring {
        Ring {
            id,
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
        }
    }

    /// Appends one event, overwriting the oldest when full. Owner
    /// thread only; a handful of relaxed stores plus two release
    /// stores — no CAS, no locking, no allocation.
    fn push(&self, label: &'static str, arg: u64, start_ns: u64, dur_ns: u64) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[n as usize % RING_CAPACITY];
        // Invalidate, write, publish (seqlock write protocol).
        slot.version.store(0, Ordering::Release);
        slot.label_ptr.store(label.as_ptr().cast_mut(), Ordering::Relaxed);
        slot.label_len.store(label.len(), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.version.store(n + 1, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }

    /// Reads the event at ring position `n` if it is still intact.
    fn read(&self, n: u64) -> Option<TraceEvent> {
        let slot = &self.slots[n as usize % RING_CAPACITY];
        if slot.version.load(Ordering::Acquire) != n + 1 {
            return None; // overwritten or mid-write
        }
        let ptr = slot.label_ptr.load(Ordering::Relaxed);
        let len = slot.label_len.load(Ordering::Relaxed);
        let arg = slot.arg.load(Ordering::Relaxed);
        let start_ns = slot.start_ns.load(Ordering::Relaxed);
        let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
        // Re-validate after the field loads; the fence keeps the
        // loads above from sinking past the version re-check.
        fence(Ordering::Acquire);
        if slot.version.load(Ordering::Relaxed) != n + 1 {
            return None;
        }
        // SAFETY: both version checks returned `n + 1`, so `ptr`/
        // `len` are the matched pointer and length of the single
        // `&'static str` the writer stored for event `n` (the
        // writer invalidates the version before touching either
        // field and republishes only after both are written).
        // `'static` string data never moves or deallocates.
        let label = unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) };
        Some(TraceEvent { label, arg, start_ns, dur_ns, thread: self.id })
    }
}

/// Every ring ever created, and the ones no live thread owns. Locked
/// only when a thread takes or returns a ring (once each per thread)
/// and inside [`dump`]; `all` never holds more rings than the peak
/// number of threads recording at once.
struct Registry {
    all: Vec<&'static Ring>,
    free: Vec<&'static Ring>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry { all: Vec::new(), free: Vec::new() });

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// The calling thread's ring, taken on its first event; dropping it
/// (TLS teardown at thread exit) returns the ring to the free list.
/// The registry mutex orders the old owner's last push before the new
/// owner's first, so the relaxed `head` load in [`Ring::push`] sees it.
struct Owner(Cell<Option<&'static Ring>>);

impl Drop for Owner {
    fn drop(&mut self) {
        if let Some(ring) = self.0.take() {
            registry().free.push(ring);
        }
    }
}

thread_local! {
    static MY_RING: Owner = const { Owner(Cell::new(None)) };
}

/// Runs `f` on the calling thread's ring, taking a free one (or
/// creating one — the only event-path allocation) on the thread's
/// first event. Events during TLS teardown are silently dropped.
#[inline]
fn with_ring(f: impl FnOnce(&Ring)) {
    let _ = MY_RING.try_with(|owner| {
        let ring = owner.0.get().unwrap_or_else(|| {
            let mut reg = registry();
            let ring = reg.free.pop().unwrap_or_else(|| {
                let ring: &'static Ring = Box::leak(Box::new(Ring::new(reg.all.len() as u64)));
                reg.all.push(ring);
                ring
            });
            owner.0.set(Some(ring));
            ring
        });
        f(ring);
    });
}

/// Records an already-measured `[start_ns, end_ns]` interval on the
/// calling thread's ring — the cross-thread companion to [`Span`]
/// (e.g. queue wait: stamped at admission, recorded at dequeue).
#[inline]
pub fn record_complete(label: &'static str, arg: u64, start_ns: u64, end_ns: u64) {
    with_ring(|ring| ring.push(label, arg, start_ns, end_ns.saturating_sub(start_ns)));
}

/// Merges every ring into one event list ordered by `start_ns` (ties
/// broken by ring id). Non-destructive: events stay in their rings
/// until overwritten. Events being overwritten while the dump runs are
/// skipped, never torn.
pub fn dump() -> Vec<TraceEvent> {
    let rings = registry().all.clone();
    let mut events = Vec::new();
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(RING_CAPACITY as u64);
        events.extend((lo..head).filter_map(|n| ring.read(n)));
    }
    events.sort_by_key(|e| (e.start_ns, e.thread));
    events
}

/// A scoped trace guard: stamps its start on construction and
/// records one complete event on the owning thread's ring when
/// dropped. Create via the [`span!`](crate::span) macro.
#[must_use = "a span records its duration when dropped; binding it to `_` drops immediately"]
pub struct Span {
    label: &'static str,
    arg: u64,
    start_ns: u64,
}

impl Span {
    /// Opens a span; prefer the [`span!`](crate::span) macro.
    #[inline]
    pub fn enter(label: &'static str, arg: u64) -> Span {
        Span { label, arg, start_ns: now_ns() }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        record_complete(self.label, self.arg, self.start_ns, now_ns());
    }
}
