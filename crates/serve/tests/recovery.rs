//! Chaos-recovery harness: the self-healing loop driven end-to-end by
//! the deterministic fault hooks — panic storms trip and heal the
//! per-model circuit breaker, hung and dead workers are respawned by
//! the watchdog mid-traffic, overload trims ensemble members (each
//! degraded answer **bit-identical** to the truncated-ensemble oracle),
//! and a bounded-drain shutdown answers leftovers with a typed error
//! while the accounting identity
//! `completed + failed + shed + shutdown_rejected == submitted` stays
//! exact through all of it.
//!
//! Needs the `fault` feature, which the workspace root turns on for every
//! test build, so a plain `cargo test` runs it. Fault counters are
//! process-global, so every test serialises on one mutex and re-arms from
//! a clean slate.

#![cfg(feature = "fault")]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mfdfp_core::{calibrate, Ensemble, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::{
    fault, BreakerConfig, BreakerState, DegradeConfig, MetricsSnapshot, ModelRegistry, ServeConfig,
    ServeError, Server,
};
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

fn image(seed: u64) -> Tensor {
    TensorRng::seed_from(seed).gaussian([3, 16, 16], 0.0, 0.7)
}

/// `completed + failed + shed + shutdown_rejected == submitted` — the
/// identity every test ends on.
fn assert_balanced(snap: &MetricsSnapshot) {
    assert_eq!(
        snap.submitted,
        snap.completed + snap.failed + snap.shed + snap.shutdown_rejected,
        "accounting identity must balance exactly"
    );
}

/// Breaker state of `model` as the health surface reports it.
fn breaker_state(server: &Server, model: &str) -> BreakerState {
    server
        .health()
        .breakers
        .iter()
        .find(|(name, _)| name == model)
        .map(|(_, snap)| snap.state)
        .unwrap_or_else(|| panic!("no breaker surfaced for {model}"))
}

#[test]
fn panic_storm_trips_the_breaker_and_probes_heal_it() {
    let _guard = serial();
    let qnet = tiny_qnet(1);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", qnet.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            breaker: Some(BreakerConfig {
                threshold: 3,
                backoff: Duration::from_millis(50),
                backoff_max: Duration::from_millis(500),
                probes: 1,
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Healthy baseline.
    for seed in 0..2 {
        let img = image(seed);
        let response = server.submit("m", img.clone()).unwrap().wait().unwrap();
        assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));
    }
    assert!(matches!(breaker_state(&server, "m"), BreakerState::Closed));

    // Storm: every dispatch panics. Sequential submits make the count
    // deterministic — exactly `threshold` failures reach a worker, then
    // the circuit opens and the next admission fast-fails.
    fault::arm_worker_panic(1_000);
    for i in 0..3 {
        match server.submit("m", image(10 + i)).unwrap().wait() {
            Err(ServeError::WorkerPanic) => {}
            other => panic!("storm dispatch {i} must panic, got {other:?}"),
        }
    }
    match server.submit("m", image(20)) {
        Err(ServeError::CircuitOpen { model, retry_after }) => {
            assert_eq!(model, "m");
            assert!(retry_after <= Duration::from_millis(50), "retry_after must fit the backoff");
        }
        other => panic!("expected CircuitOpen after {} failures, got {other:?}", 3),
    }
    assert!(matches!(breaker_state(&server, "m"), BreakerState::Open));

    // While open: no storm panic is consumed — admissions never reach a
    // worker — and every rejection is counted.
    for i in 0..5 {
        assert!(
            matches!(server.submit("m", image(30 + i)), Err(ServeError::CircuitOpen { .. })),
            "open circuit must fast-fail admission {i}"
        );
    }

    // Half-open probe that *fails*: the circuit re-opens with the
    // backoff doubled.
    std::thread::sleep(Duration::from_millis(70));
    match server.submit("m", image(40)).unwrap().wait() {
        Err(ServeError::WorkerPanic) => {}
        other => panic!("the failing probe must reach a worker and panic, got {other:?}"),
    }
    match server.submit("m", image(41)) {
        Err(ServeError::CircuitOpen { retry_after, .. }) => {
            assert!(
                retry_after > Duration::from_millis(50),
                "a failed probe must double the backoff, got {retry_after:?}"
            );
        }
        other => panic!("expected CircuitOpen after the failed probe, got {other:?}"),
    }

    // Disarm and heal: once the doubled backoff lapses, the next probe
    // succeeds and fully closes the circuit.
    fault::reset();
    let heal_start = Instant::now();
    let img = image(50);
    let response = loop {
        match server.submit("m", img.clone()) {
            Ok(ticket) => break ticket.wait().expect("the healthy probe must serve"),
            Err(ServeError::CircuitOpen { .. }) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("heal submit: {e}"),
        }
        assert!(heal_start.elapsed() < Duration::from_secs(10), "circuit never closed");
    };
    assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));
    assert!(matches!(breaker_state(&server, "m"), BreakerState::Closed));

    // Closed means fully closed: follow-up traffic flows freely.
    for seed in 60..63 {
        let img = image(seed);
        let response = server.submit("m", img.clone()).unwrap().wait().unwrap();
        assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));
    }

    let snap = server.metrics();
    assert_eq!(snap.failed, 4, "3 storm failures + 1 failed probe");
    assert_eq!(snap.breaker_opens, 2, "initial trip + the failed probe's re-open");
    let opens: u64 = server.health().breakers.iter().map(|(_, b)| b.opens).sum();
    assert_eq!(snap.breaker_opens, opens, "the total is the sum over model breakers");
    assert!(snap.breaker_rejected >= 6, "every fast-fail must be counted");
    assert_balanced(&snap);
    let m = snap.models.iter().find(|m| m.name == "m").unwrap();
    assert_eq!(m.in_flight, 0, "breaker rejections must never leak quota slots");
    server.shutdown();
}

#[test]
fn hung_and_dead_workers_are_respawned_mid_traffic() {
    let _guard = serial();
    let qnet = tiny_qnet(2);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", qnet.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            supervise_interval: Duration::from_millis(10),
            hang_timeout: Duration::from_millis(80),
            breaker: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert!(server.ready(), "a fresh tier must be ready");

    // Hang the only worker mid-dispatch for well past the hang timeout.
    fault::arm_worker_hang(1, Duration::from_millis(400));
    let hung = server.submit("m", image(70)).unwrap();
    // Let the worker pop the hanging batch before queueing traffic
    // behind it.
    std::thread::sleep(Duration::from_millis(20));
    let queued: Vec<_> = (0..4).map(|i| server.submit("m", image(71 + i)).unwrap()).collect();

    // The watchdog must declare the worker hung and respawn a
    // replacement while the original still sleeps.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().respawns < 1 {
        assert!(Instant::now() < deadline, "watchdog never respawned the hung worker");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Crash-only: the hung dispatch still answers its ticket when the
    // sleep ends, and the queued traffic is served (by the replacement,
    // or by the detached original once it wakes) — nothing is lost.
    let response = hung.wait().expect("the hung batch must still answer");
    assert_eq!(bits(&response.logits), bits(&qnet.logits(&image(70)).unwrap()));
    for (i, ticket) in queued.into_iter().enumerate() {
        let img = image(71 + i as u64);
        let response = ticket.wait().expect("queued traffic must survive the respawn");
        assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));
    }

    // Kill a worker outright (outside the dispatch containment): the
    // watchdog detects the dead thread and respawns again. Idle workers
    // still tick their loop, so no traffic is needed to trigger it. Two
    // threads drain this queue now — the replacement in the slot and
    // the detached zombie (crash-only: nobody joined it) — and either
    // may consume an armed death, so arm one per thread; a dying thread
    // can never consume more than one, so the slot worker is guaranteed
    // to die and trip the watchdog.
    let before = server.metrics().respawns;
    fault::arm_worker_die(2);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().respawns <= before {
        assert!(Instant::now() < deadline, "watchdog never respawned the dead worker");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The tier is whole again: serving, ready, heartbeats fresh.
    let img = image(90);
    let response = server.submit("m", img.clone()).unwrap().wait().unwrap();
    assert_eq!(bits(&response.logits), bits(&qnet.logits(&img).unwrap()));
    let health = server.health();
    assert!(health.ready, "tier must be ready after healing: {}", health.to_json());
    assert_eq!(health.shards.len(), 1);
    assert!(health.respawns >= 2, "both respawns must be surfaced");

    let snap = server.metrics();
    assert_eq!(snap.completed, 6);
    assert_eq!(snap.failed, 0, "hangs and deaths must not fail any request");
    assert_balanced(&snap);
    server.shutdown();
}

#[test]
fn degraded_answers_are_bit_identical_to_the_truncated_ensemble_oracle() {
    let _guard = serial();
    const MEMBERS: usize = 3;
    let members: Vec<QuantizedNet> = (0..MEMBERS as u64).map(|i| tiny_qnet(900 + i)).collect();
    let ensemble = Ensemble::new(members.clone()).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("ens", ensemble.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            supervise_interval: Duration::from_millis(5),
            hang_timeout: Duration::from_secs(1),
            breaker: None,
            // A 1 ms queue-wait target with an effectively-infinite
            // release, so the level engages under the injected stall and
            // then holds still for the oracle comparison.
            degrade: Some(DegradeConfig {
                target_p95: Duration::from_millis(1),
                release_ticks: 10_000,
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let oracle = |img: &Tensor, k: usize| -> Vec<u32> {
        let truncated = Ensemble::new(members[..k].to_vec()).unwrap();
        let batch = img.reshape([1, 3, 16, 16]).unwrap();
        bits(&truncated.logits_batch(&batch).unwrap())
    };

    // Calm tier: full ensemble, not degraded.
    let img = image(100);
    let response = server.submit("ens", img.clone()).unwrap().wait().unwrap();
    assert!(!response.degraded, "an unloaded tier must serve the full ensemble");
    assert_eq!(bits(&response.logits), oracle(&img, MEMBERS));

    // Overload: one stalled dispatch piles queue wait far past the
    // target onto everything behind it.
    fault::arm_slow_batch(1, Duration::from_millis(80));
    let tickets: Vec<_> = (0..6).map(|i| server.submit("ens", image(101 + i)).unwrap()).collect();
    for ticket in tickets {
        ticket.wait().expect("overloaded traffic still serves");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().degrade_level == 0 {
        assert!(Instant::now() < deadline, "overload never engaged the degrade level");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Let the controller consume every overload sample so the level
    // holds still through the comparison below.
    std::thread::sleep(Duration::from_millis(100));

    let level = server.metrics().degrade_level;
    let served_members = MEMBERS - (level as usize).min(MEMBERS - 1);
    assert!(served_members < MEMBERS, "an engaged level must trim at least one member");

    // The degraded answer must be bit-identical to a standalone
    // ensemble of the served prefix — a smaller ensemble, not an
    // approximation (the paper's Table 3 accuracy/cost dial).
    let img = image(200);
    let response = server.submit("ens", img.clone()).unwrap().wait().unwrap();
    assert!(response.degraded, "a trimmed answer must be flagged degraded");
    assert_eq!(
        bits(&response.logits),
        oracle(&img, served_members),
        "degraded answer diverged from the truncated-ensemble oracle (level {level})"
    );
    assert_eq!(
        server.metrics().degrade_level,
        level,
        "the level must not move mid-comparison (hysteresis held by release_ticks)"
    );

    let snap = server.metrics();
    assert!(snap.degraded >= 1, "degraded answers must be counted");
    assert_eq!(snap.failed, 0);
    assert_balanced(&snap);
    server.shutdown();
}

#[test]
fn bounded_drain_answers_leftovers_typed_and_balances() {
    let _guard = serial();
    let qnet = tiny_qnet(4);
    // A 50 ms budget rejects what is still queued at its deadline;
    // `Duration::MAX` has no representable deadline and drains everything,
    // as `shutdown` does.
    for (drain, bounded) in [(Duration::from_millis(50), true), (Duration::MAX, false)] {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("m", qnet.clone());
        let server = Server::start(
            Arc::clone(&registry),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                max_wait: Duration::from_micros(100),
                breaker: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();

        // One dispatch stalls far past the drain budget; traffic queued
        // behind it cannot possibly dispatch before the deadline.
        fault::arm_slow_batch(1, Duration::from_millis(300));
        let stalled = server.submit("m", image(300)).unwrap();
        std::thread::sleep(Duration::from_millis(20)); // let the worker pop it
        let leftovers: Vec<_> =
            (0..6).map(|i| server.submit("m", image(301 + i)).unwrap()).collect();

        // The drain bound applies to queue wait, not compute: the in-flight
        // batch finishes; under the bound the six queued requests are
        // answered typed, without it they are served.
        let snap = server.shutdown_within(drain);

        let response = stalled.wait().expect("the in-flight batch must finish");
        assert_eq!(bits(&response.logits), bits(&qnet.logits(&image(300)).unwrap()));
        for (i, ticket) in (301..).zip(leftovers) {
            match ticket.wait() {
                Err(ServeError::ShuttingDown) if bounded => {}
                Ok(r) if !bounded => {
                    assert_eq!(bits(&r.logits), bits(&qnet.logits(&image(i)).unwrap()));
                }
                other => panic!("leftover {i} under a {drain:?} drain: got {other:?}"),
            }
        }

        let rejected = if bounded { 6 } else { 0 };
        assert_eq!(snap.submitted, 7);
        assert_eq!(snap.completed, 7 - rejected);
        assert_eq!(snap.shutdown_rejected, rejected, "every drained leftover must be counted");
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.failed, 0);
        assert_balanced(&snap);
        let m = snap.models.iter().find(|m| m.name == "m").unwrap();
        assert_eq!(m.in_flight, 0, "drained requests must release their quota slots");
    }
}
