//! Fault-injection harness: deterministic failures injected through the
//! hooks in [`mfdfp_serve::fault`], asserting the serving tier degrades
//! *gracefully* — typed errors, exact accounting, surviving workers —
//! rather than hanging, poisoning a lock, or tearing a response.
//!
//! The hooks are in every build, so a plain `cargo test` runs it. The
//! fault counters are process-global, so every test serialises on one
//! mutex and re-arms from a clean slate.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::{fault, ModelRegistry, ServeConfig, ServeError, Server};
use mfdfp_tensor::{Tensor, TensorRng};

/// Serialises tests (the armed-fault counters are process-global) and
/// disarms any fault a previous test left behind.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    fault::reset();
    guard
}

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes).
fn tiny_qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [2, 2, 4], 8, 10, &mut rng).unwrap();
    let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn start_server(qnet: &QuantizedNet, config: ServeConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", qnet.clone());
    Server::start(registry, config).unwrap()
}

fn image(seed: u64) -> Tensor {
    TensorRng::seed_from(seed).gaussian([3, 16, 16], 0.0, 0.7)
}

#[test]
fn injected_queue_full_is_typed_backpressure_not_a_hang() {
    let _guard = serial();
    let qnet = tiny_qnet(1);
    let server = start_server(&qnet, ServeConfig::default());

    // Three admissions report a full queue even though it is empty.
    fault::arm_queue_full(3);
    for _ in 0..3 {
        match server.submit("m", image(10)) {
            Err(ServeError::QueueFull { capacity }) => {
                assert!(capacity > 0, "the *configured* capacity must be reported");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    // The fourth admission — fault exhausted — serves normally and
    // bit-exactly.
    let img = image(10);
    let response = server.submit("m", img.clone()).unwrap().wait().unwrap();
    assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));

    let snap = server.metrics();
    // `submitted` counts *admitted* requests only; rejections are their
    // own counter, so `completed + failed + shed == submitted` stays an
    // exact identity under backpressure.
    assert_eq!(snap.submitted, 1);
    assert_eq!(snap.rejected, 3, "every injected rejection must be counted");
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 0);
    let m = snap.models.iter().find(|m| m.name == "m").unwrap();
    assert_eq!(m.in_flight, 0, "rejected admissions must release their quota slot");
    server.shutdown();
}

#[test]
fn worker_panic_is_contained_and_the_worker_survives() {
    let _guard = serial();
    let qnet = tiny_qnet(2);
    // One worker: the same thread that panics must serve the follow-ups,
    // proving the panic is caught per-dispatch rather than killing it.
    let server =
        start_server(&qnet, ServeConfig { workers: 1, max_batch: 8, ..ServeConfig::default() });

    fault::arm_worker_panic(1);
    let poisoned_ticket = server.submit("m", image(20)).unwrap();
    match poisoned_ticket.wait() {
        Err(ServeError::WorkerPanic) => {}
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // The worker thread lives on and no lock was poisoned: later
    // requests serve fine on the same thread.
    for seed in 21..26 {
        let img = image(seed);
        let response = server.submit("m", img.clone()).unwrap().wait().unwrap();
        assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));
    }

    let snap = server.metrics();
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.failed, 1, "the panicked dispatch must be a counted failure");
    assert_eq!(snap.completed, 5);
    assert_eq!(snap.shed, 0);
    let m = snap.models.iter().find(|m| m.name == "m").unwrap();
    assert_eq!(m.in_flight, 0, "panicked requests must release their quota slot");
    server.shutdown();
}

#[test]
fn panicked_batch_fails_every_ticket_in_it() {
    let _guard = serial();
    let qnet = tiny_qnet(3);
    // A long linger coalesces all the admissions into one batch, so one
    // injected panic must answer *all* of them.
    let server = start_server(
        &qnet,
        ServeConfig {
            workers: 1,
            max_batch: 16,
            max_wait: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    );

    fault::arm_worker_panic(1);
    let tickets: Vec<_> = (0..4).map(|i| server.submit("m", image(30 + i)).unwrap()).collect();
    for ticket in tickets {
        match ticket.wait() {
            Err(ServeError::WorkerPanic) => {}
            other => panic!("expected WorkerPanic for every ticket, got {other:?}"),
        }
    }
    let snap = server.metrics();
    assert_eq!(snap.failed, 4, "no ticket in a panicked batch may be lost");
    assert_eq!(snap.models.iter().find(|m| m.name == "m").unwrap().in_flight, 0);
    server.shutdown();
}

#[test]
fn slow_batch_pushes_queued_requests_past_their_deadline() {
    let _guard = serial();
    let qnet = tiny_qnet(4);
    let server = start_server(
        &qnet,
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            ..ServeConfig::default()
        },
    );

    // The first dispatch stalls long; requests queued behind it with
    // short deadlines expire while it runs and must be shed at the next
    // batch formation, never computed.
    fault::arm_slow_batch(1, Duration::from_millis(300));
    let stalled = server.submit("m", image(40)).unwrap();
    // Wait until the stalling batch has actually been popped, so the
    // deadline requests land *behind* it rather than inside it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !server.metrics().shard_depths.iter().all(|&d| d == 0) {
        assert!(std::time::Instant::now() < deadline, "stalled batch never popped");
        std::thread::sleep(Duration::from_micros(200));
    }
    // Depth hits zero the moment the stalling request leaves the queue,
    // but `pop_batch` lingers `max_wait` longer for stragglers — outwait
    // that window so the doomed requests land *behind* the batch, not in
    // it.
    std::thread::sleep(Duration::from_millis(10));
    let opts = mfdfp_serve::SubmitOptions {
        deadline: Some(Duration::from_millis(20)),
        ..Default::default()
    };
    let doomed: Vec<_> =
        (0..3).map(|i| server.submit_with("m", image(41 + i), opts).unwrap()).collect();

    // The stalled request itself had no deadline: it completes.
    assert!(stalled.wait().is_ok(), "the slow batch itself must still answer");
    for ticket in doomed {
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded { model }) => assert_eq!(model, "m"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let snap = server.metrics();
    assert_eq!(snap.submitted, 4);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.shed, 3, "every expired request must be shed, not computed");
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.models.iter().find(|m| m.name == "m").unwrap().in_flight, 0);
    server.shutdown();
}

#[test]
fn mid_swap_registry_reads_resolve_old_or_new_never_torn() {
    let _guard = serial();
    const SWAPS: u64 = 8;
    const REQUESTS: usize = 40;

    // Two generations with different weights; the swapper alternates
    // between them, so version v carries generation (v - 1) % 2.
    let generations = [tiny_qnet(5), tiny_qnet(6)];
    let img = image(50);
    let expected: Vec<Vec<u32>> =
        generations.iter().map(|g| bits(&g.logits(&img).unwrap())).collect();
    assert_ne!(expected[0], expected[1], "generations must disagree");

    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", generations[0].clone());
    let server = Arc::new(
        Server::start(Arc::clone(&registry), ServeConfig { workers: 2, ..ServeConfig::default() })
            .unwrap(),
    );

    // Every lookup dwells inside the registry's read lock, widening the
    // reader/swapper race window from nanoseconds to a millisecond.
    fault::arm_registry_read_delay(REQUESTS as u64, Duration::from_millis(1));
    let swapper = {
        let server = Arc::clone(&server);
        let generations = generations.clone();
        std::thread::spawn(move || {
            for installed in 1..=SWAPS {
                let next = &generations[(installed % 2) as usize];
                let version = server.swap_model("m", next.clone()).unwrap();
                assert_eq!(version, installed + 1, "swap lineage must be gapless");
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    for _ in 0..REQUESTS {
        let response = server.submit("m", img.clone()).unwrap().wait().unwrap();
        let claimed = &expected[((response.version - 1) % 2) as usize];
        assert_eq!(
            &bits(&response.logits),
            claimed,
            "a mid-swap read must resolve to a whole generation (version {})",
            response.version
        );
    }
    swapper.join().unwrap();

    let snap = server.metrics();
    assert_eq!(snap.completed, REQUESTS as u64);
    assert_eq!(snap.failed, 0);
    let m = snap.models.iter().find(|m| m.name == "m").unwrap();
    assert_eq!(m.version, SWAPS + 1);
    assert_eq!(m.swaps, SWAPS);
    fault::reset();
    Arc::try_unwrap(server).ok().expect("swapper joined").shutdown();
}
