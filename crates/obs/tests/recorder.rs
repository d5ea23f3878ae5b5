//! Flight-recorder behaviour tests: wraparound eviction without torn
//! records, cross-thread dump ordering, ring reuse after thread exit,
//! span guard semantics, and the span-overhead regression budget.
//!
//! The recorder is process-global and rings pass from exited threads to
//! new ones, so one test's threads can write into a ring holding another
//! test's events. Every test that records therefore holds [`serial`],
//! filters the dump by its own label prefix and asserts `>=`-style
//! invariants on anything global.

use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::Instant;

use mfdfp_obs::{dump, now_ns, record_complete, ring_capacity, span, TraceEvent};

fn labelled<'a>(events: &'a [TraceEvent], prefix: &str) -> Vec<&'a TraceEvent> {
    events.iter().filter(|e| e.label.starts_with(prefix)).collect()
}

/// Serialises the recording tests of this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn wraparound_evicts_oldest_and_never_tears() {
    let _serial = serial();
    let cap = ring_capacity();
    let extra = 256;
    // A dedicated thread fills its ring past capacity; synthetic
    // timestamps make the assertions exact. Labels alternate by the
    // parity of the argument, so a torn record (fields from two
    // different events) would show up as a label/arg parity mismatch.
    let events = std::thread::spawn(move || {
        for i in 0..(cap + extra) as u64 {
            let label = if i % 2 == 0 { "wrap.even" } else { "wrap.odd" };
            record_complete(label, i, i, i + 1);
        }
        dump()
    })
    .join()
    .unwrap();

    let ours = labelled(&events, "wrap.");
    assert_eq!(ours.len(), cap, "a full ring holds exactly its capacity");
    let args: Vec<u64> = ours.iter().map(|e| e.arg).collect();
    // Oldest `extra` events were evicted; the newest `cap` survive, in
    // timestamp order.
    assert_eq!(args[0], extra as u64, "oldest events must be evicted first");
    assert_eq!(*args.last().unwrap(), (cap + extra - 1) as u64);
    assert!(args.windows(2).all(|w| w[0] < w[1]), "dump is ordered by start_ns");
    for e in &ours {
        let expect = if e.arg % 2 == 0 { "wrap.even" } else { "wrap.odd" };
        assert_eq!(e.label, expect, "torn record: label and arg disagree");
        assert_eq!(e.start_ns, e.arg, "torn record: start and arg disagree");
        assert_eq!(e.dur_ns, 1);
    }
}

#[test]
fn multi_thread_dump_orders_by_timestamp() {
    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 100;
    let _serial = serial();
    // Interleaved synthetic timestamps: thread t records starts
    // t, THREADS + t, 2·THREADS + t, … so a correct merge interleaves
    // all three rings rather than concatenating them. The barrier keeps
    // every thread alive until all have recorded, so none inherits
    // another's ring.
    let live = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let live = &live;
            s.spawn(move || {
                for j in 0..PER_THREAD {
                    record_complete("order.ev", t, j * THREADS + t, j * THREADS + t + 1);
                }
                live.wait();
            });
        }
    });

    let events = dump();
    let ours = labelled(&events, "order.");
    assert_eq!(ours.len(), (THREADS * PER_THREAD) as usize);
    let starts: Vec<u64> = ours.iter().map(|e| e.start_ns).collect();
    assert!(starts.windows(2).all(|w| w[0] < w[1]), "merged dump must be start-ordered");
    let mut rings: Vec<u64> = ours.iter().map(|e| e.thread).collect();
    rings.sort_unstable();
    rings.dedup();
    assert_eq!(rings.len(), THREADS as usize, "each live recording thread owns its own ring");
    // The whole dump (other tests' events included) is start-ordered too.
    assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
}

/// An exited thread's ring goes back to the registry and the next new
/// thread reuses it: 256 short-lived threads, run one after another,
/// leave all their events behind on a handful of rings instead of
/// registering 256 of them.
#[test]
fn exited_threads_hand_their_rings_on() {
    const THREADS: u64 = 256;
    let _serial = serial();
    for i in 0..THREADS {
        std::thread::spawn(move || drop(span!("recycle.ev", i))).join().unwrap();
    }

    let events = dump();
    let ours = labelled(&events, "recycle.");
    let mut args: Vec<u64> = ours.iter().map(|e| e.arg).collect();
    args.sort_unstable();
    assert_eq!(args, (0..THREADS).collect::<Vec<_>>(), "every thread's event survives its exit");
    let mut rings: Vec<u64> = ours.iter().map(|e| e.thread).collect();
    rings.sort_unstable();
    rings.dedup();
    assert!(rings.len() < 32, "{THREADS} sequential threads used {} rings", rings.len());
}

#[test]
fn span_guard_records_label_arg_and_duration() {
    let _serial = serial();
    let before = now_ns();
    {
        let _span = span!("guard.scoped", 77);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let events = dump();
    let ours = labelled(&events, "guard.scoped");
    let e = ours.last().expect("span must be recorded on drop");
    assert_eq!(e.arg, 77);
    assert!(e.start_ns >= before);
    assert!(e.dur_ns >= 1_000_000, "2 ms sleep must be visible, got {} ns", e.dur_ns);
}

#[test]
fn clock_is_monotonic() {
    let a = now_ns();
    let b = now_ns();
    assert!(b >= a);
}

/// The overhead regression budget: an idle span (create +
/// drop, nobody dumping) must stay within a bounded per-span cost. The
/// measured cost is two monotonic clock reads plus a few relaxed stores
/// — ~100 ns on commodity hardware; the budget is 15–20× that so a
/// loaded CI box never flakes, while a regression to locking or
/// allocation (microseconds) still fails loudly.
#[test]
fn span_overhead_within_budget() {
    const SPANS_PER_TRIAL: u32 = 10_000;
    const BUDGET_NS_PER_SPAN: f64 = 2_000.0;
    let _serial = serial();
    // Warm: ensure this thread's ring is already registered.
    drop(span!("overhead.warm"));
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for i in 0..SPANS_PER_TRIAL {
            let _span = span!("overhead.spin", i as u64);
        }
        let per_span = t0.elapsed().as_nanos() as f64 / SPANS_PER_TRIAL as f64;
        best = best.min(per_span);
    }
    assert!(
        best <= BUDGET_NS_PER_SPAN,
        "idle span costs {best:.0} ns, budget {BUDGET_NS_PER_SPAN} ns"
    );
}
