//! End-to-end tests of the serving runtime against real quantized
//! networks: correctness (responses byte-identical to direct `logits`
//! calls), backpressure (queue-full rejection), and dynamic batching
//! (batches > 1 under concurrent producers).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_core::{calibrate, Ensemble, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::{ModelRegistry, ServeConfig, ServeError, Server, SubmitOptions};
use mfdfp_tensor::{Tensor, TensorRng};

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes).
fn tiny_qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
    let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(x, vec![0, 1, 2, 3])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

/// Deterministic pseudo-random test images (`C×H×W` each).
fn images(count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from(seed);
    (0..count).map(|_| rng.gaussian([3, 16, 16], 0.0, 0.7)).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A test image whose direct logits hold a zero code (`+0.0`): a served
/// single network is a one-member ensemble computing `(0 + z) · 1`, and
/// this input pins that it still answers `+0.0`, bit for bit.
fn zero_logit_image(q: &QuantizedNet) -> Tensor {
    (0..1000)
        .map(|seed| images(1, 5000 + seed).remove(0))
        .find(|img| q.logits(img).unwrap().as_slice().iter().any(|v| v.to_bits() == 0))
        .expect("no test image with a zero logit")
}

#[test]
fn smoke_sequential_requests_match_direct_logits() {
    let q = tiny_qnet(21);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig { workers: 1, queue_capacity: 32, ..Default::default() },
    )
    .unwrap();

    let mut imgs = images(12, 7);
    imgs.push(zero_logit_image(&q));
    for img in &imgs {
        let ticket = server.submit("tiny", img.clone()).unwrap();
        let response = ticket.wait().unwrap();
        let direct = q.logits(img).unwrap();
        assert_eq!(bits(&response.logits), bits(&direct), "served logits differ from direct");
        assert_eq!(response.class, direct.argmax());
        assert_eq!(response.model, "tiny");
        assert!(response.batch_size >= 1);
    }

    let snap = server.metrics();
    assert_eq!(snap.submitted, 13);
    assert_eq!(snap.completed, 13);
    assert_eq!(snap.rejected, 0);
    assert_eq!(snap.failed, 0);
    // Closed-loop single client ⇒ every batch had exactly one request.
    assert_eq!(snap.batch_histogram[0], 13);
    server.shutdown();
}

#[test]
fn admission_control_rejects_bad_requests() {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", tiny_qnet(3));
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).unwrap();

    // Unknown model.
    let img = images(1, 1).pop().unwrap();
    assert!(matches!(
        server.submit("nope", img.clone()),
        Err(ServeError::UnknownModel(n)) if n == "nope"
    ));
    // Wrong input size (the model wants 3·16·16 = 768 elements).
    let bad = Tensor::zeros([3, 8, 8]);
    assert!(matches!(
        server.submit("tiny", bad),
        Err(ServeError::BadInput { expected: 768, actual: 192, .. })
    ));
    // Neither consumed queue capacity or counted as submitted.
    let snap = server.metrics();
    assert_eq!(snap.submitted, 0);
    assert_eq!(snap.queue_depth, 0);

    // Submitting after shutdown reports Closed.
    let server2 = Server::start(registry, ServeConfig::default()).unwrap();
    let registry2 = Arc::clone(server2.registry());
    server2.shutdown();
    drop(registry2);
}

#[test]
fn queue_full_rejection_under_burst() {
    let q = tiny_qnet(5);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    // Tiny queue, single worker, no batching: the worker serves at
    // millisecond pace while the burst below submits in microseconds, so
    // the queue must overflow deterministically.
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();

    let imgs = images(40, 13);
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for img in &imgs {
        match server.submit("tiny", img.clone()) {
            Ok(t) => tickets.push((t, img)),
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 4);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(rejected > 0, "burst of 40 into capacity 4 must reject");
    // Every accepted request still completes, correctly.
    let accepted = tickets.len() as u64;
    for (ticket, img) in tickets {
        let response = ticket.wait().unwrap();
        let direct = q.logits(img).unwrap();
        assert_eq!(bits(&response.logits), bits(&direct));
    }
    let snap = server.metrics();
    assert_eq!(snap.rejected, rejected);
    assert_eq!(snap.submitted, accepted);
    assert_eq!(snap.completed, accepted);
    assert_eq!(snap.submitted + snap.rejected, 40);
    server.shutdown();
}

/// The headline acceptance test: ≥4 concurrent producers, the batcher
/// must form batches larger than one (observed via the batch-size
/// histogram) and every response must be byte-identical to a direct
/// `QuantizedNet::logits` call on the same input.
#[test]
fn concurrent_producers_form_batches_with_identical_results() {
    let q = tiny_qnet(11);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let server = Arc::new(
        Server::start(
            Arc::clone(&registry),
            ServeConfig {
                workers: 1,
                queue_capacity: 128,
                max_batch: 8,
                max_wait: Duration::from_millis(20),
                ..Default::default()
            },
        )
        .unwrap(),
    );

    const PRODUCERS: usize = 4;
    const BURSTS: usize = 2;
    const BURST: usize = 8;
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let server = Arc::clone(&server);
            let q = q.clone();
            std::thread::spawn(move || {
                let imgs = images(BURSTS * BURST, 100 + p as u64);
                for burst in imgs.chunks(BURST) {
                    // Open-loop burst: enqueue the whole burst before
                    // waiting, so the queue genuinely holds concurrent
                    // work; retry (bounded) on backpressure.
                    let mut tickets = Vec::new();
                    for img in burst {
                        loop {
                            match server.submit("tiny", img.clone()) {
                                Ok(t) => break tickets.push((t, img)),
                                Err(ServeError::QueueFull { .. }) => {
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                Err(e) => panic!("unexpected error {e}"),
                            }
                        }
                    }
                    for (ticket, img) in tickets {
                        let response = ticket.wait().unwrap();
                        let direct = q.logits(img).unwrap();
                        assert_eq!(
                            bits(&response.logits),
                            bits(&direct),
                            "batched response differs from direct logits"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = server.metrics();
    let total = (PRODUCERS * BURSTS * BURST) as u64;
    assert_eq!(snap.completed, total);
    assert_eq!(snap.failed, 0);
    // The batcher must have coalesced: some batch larger than one request,
    // visible in the batch-size histogram.
    assert!(
        snap.max_batch_observed() >= 2,
        "no batch >1 formed: histogram {:?}",
        snap.batch_histogram
    );
    // Histogram accounting: dispatched request count equals completions.
    let dispatched: u64 =
        snap.batch_histogram.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
    assert_eq!(dispatched, total);
    assert!(snap.p50_latency_us > 0.0 && snap.p99_latency_us >= snap.p50_latency_us);
    assert!(snap.throughput_rps > 0.0);
    let json = snap.to_json();
    assert!(json.contains("\"batch_histogram\""));
}

/// Batch-fused acceptance: mixed-size open-loop bursts (every size
/// 1..=8, plus ragged repeats) drive the worker through the batch-fused
/// forward at genuinely varied batch sizes; every response must be
/// byte-identical to a direct per-image `QuantizedNet::logits` call, and
/// the batch histogram must prove that batches larger than one — i.e.
/// the fused one-im2col/one-qgemm-per-layer path with B > 1 — actually
/// ran.
#[test]
fn mixed_batch_size_traffic_is_bit_identical_to_per_image() {
    let q = tiny_qnet(71);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 128,
            max_batch: 8,
            max_wait: Duration::from_millis(10),
            ..Default::default()
        },
    )
    .unwrap();

    // Each burst is enqueued in full before any of its tickets is
    // awaited, so the single worker sees varied queue depths and the
    // batcher forms ragged batches (submission is microseconds while an
    // inference is much longer, so bursts pile up behind the in-flight
    // batch).
    let mut total = 0u64;
    for (i, burst) in (1usize..=8).chain([3, 5]).enumerate() {
        let imgs = images(burst, 200 + i as u64);
        let tickets: Vec<_> =
            imgs.iter().map(|img| (server.submit("tiny", img.clone()).unwrap(), img)).collect();
        for (ticket, img) in tickets {
            let response = ticket.wait().unwrap();
            let direct = q.logits(img).unwrap();
            assert_eq!(
                bits(&response.logits),
                bits(&direct),
                "burst {i}: fused batched response differs from per-image logits"
            );
            assert!(response.batch_size >= 1 && response.batch_size <= 8);
            total += 1;
        }
    }

    let snap = server.metrics();
    assert_eq!(snap.completed, total);
    assert_eq!(snap.failed, 0);
    assert!(
        snap.max_batch_observed() >= 2,
        "mixed traffic never exercised the fused path at B > 1: histogram {:?}",
        snap.batch_histogram
    );
    assert!(snap.batch_histogram[0] >= 1, "the singleton burst must have run as a 1-batch");
    // Histogram accounting: dispatched request count equals completions.
    let dispatched: u64 =
        snap.batch_histogram.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
    assert_eq!(dispatched, total);
    server.shutdown();
}

/// Two requests with equal element counts but different shapes (`[768]`
/// vs `[3,16,16]`) must coalesce into one batch safely — the datapath
/// reads flat element slices, so shape must never poison a batch.
#[test]
fn mixed_shapes_with_equal_len_batch_safely() {
    let q = tiny_qnet(41);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 4,
            max_wait: Duration::from_millis(20),
            ..Default::default()
        },
    )
    .unwrap();

    let img = images(1, 19).pop().unwrap();
    let flat = img.reshape([768]).unwrap();
    // Open burst: both sit in the queue together, so the batcher will
    // coalesce them (and must not trip on the shape difference).
    let t1 = server.submit("tiny", img.clone()).unwrap();
    let t2 = server.submit("tiny", flat.clone()).unwrap();
    let direct = q.logits(&img).unwrap();
    for ticket in [t1, t2] {
        let response = ticket.wait().unwrap();
        assert_eq!(bits(&response.logits), bits(&direct));
    }
    let snap = server.metrics();
    assert_eq!(snap.completed, 2);
    assert_eq!(snap.failed, 0);
    server.shutdown();
}

#[test]
fn ensemble_and_multi_model_serving() {
    let a = tiny_qnet(31);
    let b = tiny_qnet(32);
    let ensemble = Ensemble::new(vec![a.clone(), b.clone()]).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("a", a.clone());
    registry.register("duo", ensemble.clone());
    assert_eq!(registry.names(), vec!["a".to_string(), "duo".to_string()]);
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();

    let imgs = images(6, 77);
    let tickets: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let name = if i % 2 == 0 { "a" } else { "duo" };
            (name, img, server.submit(name, img.clone()).unwrap())
        })
        .collect();
    for (name, img, ticket) in tickets {
        let response = ticket.wait().unwrap();
        let direct = if name == "a" {
            a.logits(img).unwrap()
        } else {
            let batch = Tensor::stack_axis0(std::slice::from_ref(img)).unwrap();
            ensemble.logits_batch(&batch).unwrap().index_axis0(0)
        };
        assert_eq!(bits(&response.logits), bits(&direct), "model {name}");
    }
    // Removing a model stops new admissions but the registry handed to the
    // server stays shared.
    assert!(registry.remove("a"));
    assert!(matches!(server.submit("a", imgs[0].clone()), Err(ServeError::UnknownModel(_))));
    server.shutdown();
}

/// A batch holding two models runs both groups on the worker that popped
/// it: each answer is bit-exact, and at any pool width (`MFDFP_THREADS`)
/// no pool task runs for it, because the tiny nets stay under the
/// kernel's fan-out threshold. The pool counter is process-wide and other
/// tests in this binary move it, so the check repeats until one batch
/// lands in a quiet window. The snapshot keeps its `pool` object, reports
/// the pool's real width, and a width-1 pool is never engaged at all.
#[test]
fn snapshot_surfaces_pool_stats() {
    let nets = [tiny_qnet(55), tiny_qnet(56)];
    let imgs = images(2, 9);
    let want: Vec<Vec<u32>> =
        nets.iter().zip(&imgs).map(|(net, img)| bits(&net.logits(img).unwrap())).collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("a", nets[0].clone());
    registry.register("b", nets[1].clone());
    // One worker, a batch of exactly two and a linger far longer than the
    // test: the worker dispatches the moment it holds one request of each
    // model, i.e. one batch with two model groups.
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 2,
            max_wait: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .unwrap();
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let before = mfdfp_rt::global_stats().tasks_run;
        let ta = server.submit("a", imgs[0].clone()).unwrap();
        let tb = server.submit("b", imgs[1].clone()).unwrap();
        assert_eq!(bits(&ta.wait().unwrap().logits), want[0]);
        assert_eq!(bits(&tb.wait().unwrap().logits), want[1]);
        let ran = mfdfp_rt::global_stats().tasks_run - before;
        if ran == 0 {
            break;
        }
        assert!(Instant::now() < give_up, "two-model batches kept running pool tasks ({ran})");
        std::thread::sleep(Duration::from_millis(10));
    }
    let width = mfdfp_rt::global().threads();
    let snap = server.metrics();
    let json = snap.to_json();
    assert!(json.contains("\"pool\":{\"threads\":"), "pool object missing in {json}");
    assert_eq!(snap.pool_threads, width);
    assert!(snap.pool_steals <= snap.pool_tasks_run);
    if width < 2 {
        assert_eq!(snap.pool_tasks_run, 0, "a width-1 pool must never be engaged");
    }
    server.shutdown();
}

/// The snapshot must attribute traffic per model and per pipeline stage,
/// and carry the live op counts with their energy estimate.
#[test]
fn snapshot_breaks_down_stages_models_ops_and_energy() {
    let a = tiny_qnet(61);
    let b = tiny_qnet(62);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("alpha", a);
    registry.register("beta", b);
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig { workers: 1, queue_capacity: 32, ..Default::default() },
    )
    .unwrap();
    let imgs = images(6, 23);
    for (i, img) in imgs.iter().enumerate() {
        let name = if i % 3 == 0 { "beta" } else { "alpha" };
        server.submit(name, img.clone()).unwrap().wait().unwrap();
    }
    // The last response is delivered (unblocking `wait`) a hair before the
    // worker records its respond-stage sample; poll the snapshot until the
    // worker catches up.
    let snap = std::iter::repeat_with(|| {
        std::thread::sleep(Duration::from_millis(1));
        server.metrics()
    })
    .take(2000)
    .find(|s| s.stages.respond.count == 6)
    .expect("worker never recorded the final respond stage");

    // Per-model attribution: registry-keyed, sorted by name, counts adding
    // up to the global view.
    assert_eq!(snap.models.len(), 2);
    assert_eq!(snap.models[0].name, "alpha");
    assert_eq!(snap.models[1].name, "beta");
    assert_eq!((snap.models[0].submitted, snap.models[0].completed), (4, 4));
    assert_eq!((snap.models[1].submitted, snap.models[1].completed), (2, 2));
    assert_eq!(snap.models[0].completed + snap.models[1].completed, snap.completed);
    assert!(snap.models[0].mean_latency_us > 0.0);
    assert_eq!(snap.models[0].batch_histogram[0], 4, "closed loop ⇒ singleton batches");

    // Stage breakdown: one queue-wait per request, one infer/respond per
    // dispatched batch (closed loop ⇒ 6 singleton batches).
    assert_eq!(snap.stages.queue_wait.count, 6);
    assert_eq!(snap.stages.infer.count, 6);
    assert_eq!(snap.stages.respond.count, 6);
    assert!(snap.stages.infer.mean_us > 0.0);
    assert!(snap.stages.infer.p99_us >= snap.stages.infer.p50_us);

    // Op counters and their energy estimate: real shift-MAC work.
    assert!(snap.ops.shift_macs > 0, "served inference must count shift-MACs");
    assert!(snap.ops.im2col_bytes > 0, "conv layers must count staged bytes");
    assert!(snap.energy.total_uj > 0.0);
    assert!(snap.energy.saving_pct > 50.0, "{}", snap.energy.saving_pct);
    assert!(snap.energy.fp32_baseline_uj >= snap.energy.total_uj);

    let json = snap.to_json();
    for key in [
        "\"stages\":{\"queue_wait\":{\"count\":6",
        "\"models\":{\"alpha\":{\"submitted\":4",
        "\"beta\":{\"submitted\":2",
        "\"ops\":{\"shift_macs\":",
        "\"energy_estimate\":{\"mac_uj\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    server.shutdown();
}

/// A budget too large to add to the admission instant (`Duration::MAX`)
/// never sheds. Admission takes the model's only quota slot before it
/// computes the deadline, so the request must be answered bit-exactly and
/// hand the slot back, or the next submit would be refused.
#[test]
fn unbounded_deadline_is_served_and_releases_its_quota_slot() {
    let q = tiny_qnet(31);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig { workers: 1, model_quota: Some(1), ..Default::default() },
    )
    .unwrap();
    let opts = SubmitOptions { deadline: Some(Duration::MAX), ..Default::default() };
    for img in &images(2, 31) {
        let response = server.submit_with("tiny", img.clone(), opts).unwrap().wait().unwrap();
        assert_eq!(bits(&response.logits), bits(&q.logits(img).unwrap()));
        let snap = server.metrics();
        let m = snap.models.iter().find(|m| m.name == "tiny").unwrap();
        assert_eq!(m.in_flight, 0, "an answered request must release its quota slot");
    }
    assert_eq!(server.metrics().completed, 2);
    server.shutdown();
}

/// A "forever" linger (`max_wait: Duration::MAX`) has no deadline — the
/// clock cannot represent one. The worker holds the first request until
/// the batch fills, then answers both in one dispatch; the server stays
/// up and shuts down cleanly.
#[test]
fn unbounded_linger_holds_the_batch_until_it_fills() {
    let q = tiny_qnet(33);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let cfg = ServeConfig { max_batch: 2, max_wait: Duration::MAX, ..ServeConfig::default() };
    let server = Server::start(Arc::clone(&registry), cfg).unwrap();
    let imgs = images(2, 33);
    let tickets: Vec<_> =
        imgs.iter().map(|img| server.submit("tiny", img.clone()).unwrap()).collect();
    for (ticket, img) in tickets.into_iter().zip(&imgs) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.batch_size, 2, "the linger ends when the batch fills");
        assert_eq!(bits(&response.logits), bits(&q.logits(img).unwrap()));
    }
    assert_eq!((server.metrics().completed, server.metrics().failed), (2, 0));
    server.shutdown();
}

/// Every knob at its default except the linger, which is off: the
/// work-conserving configuration.
fn no_linger() -> ServeConfig {
    ServeConfig { max_wait: Duration::ZERO, ..ServeConfig::default() }
}

/// Work-conserving (`max_wait` zero): a lone closed-loop client never
/// waits on a batch timer. Every dispatch is a batch of one, and the
/// median queue wait sits in a sub-millisecond histogram bucket (under
/// the 1 ms default linger it is at least 1024 µs).
#[test]
fn zero_linger_serves_a_lone_client_without_a_timer() {
    let q = tiny_qnet(81);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    let server = Server::start(Arc::clone(&registry), no_linger()).unwrap();

    for img in &images(64, 17) {
        let response = server.submit("tiny", img.clone()).unwrap().wait().unwrap();
        assert_eq!(response.batch_size, 1, "a lone client must never be held for company");
        assert_eq!(bits(&response.logits), bits(&q.logits(img).unwrap()));
    }
    let snap = server.metrics();
    assert_eq!(snap.stages.queue_wait.count, 64);
    assert!(
        snap.stages.queue_wait.p50_us < 1024.0,
        "median queue wait {} µs: the zero-linger path is waiting on something",
        snap.stages.queue_wait.p50_us
    );
    server.shutdown();
}

/// Batching under load survives without a timer: requests that queue up
/// while the single worker is inside a dispatch leave together in the
/// next one.
#[test]
fn zero_linger_batches_the_backlog_behind_a_dispatch() {
    let q = tiny_qnet(83);
    // A cifar10_quick-sized model: one dispatch of it holds the worker
    // for far longer than the burst below takes to submit.
    let blocker = {
        let mut rng = TensorRng::seed_from(85);
        let mut net = zoo::quick_custom(3, 32, [32, 32, 64], 64, 10, &mut rng).unwrap();
        let x = rng.gaussian([2, 3, 32, 32], 0.0, 0.7);
        let plan = calibrate(&mut net, &[(x, vec![0, 1])], 8).unwrap();
        QuantizedNet::from_network(&net, &plan).unwrap()
    };
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", q.clone());
    registry.register("blocker", blocker);
    let server = Server::start(Arc::clone(&registry), no_linger()).unwrap();

    // Everything the burst needs exists before the worker is held.
    let imgs = images(12, 29);
    let burst = imgs.clone();
    let held =
        server.submit("blocker", TensorRng::seed_from(87).gaussian([3, 32, 32], 0.0, 0.7)).unwrap();
    // The queue empties the moment the worker takes the blocker, i.e.
    // as it enters the dispatch.
    while server.metrics().queue_depth > 0 {
        std::thread::yield_now();
    }
    let tickets: Vec<_> =
        burst.into_iter().map(|img| server.submit("tiny", img).unwrap()).collect();

    assert_eq!(held.wait().unwrap().batch_size, 1, "the first dispatch held only the blocker");
    for (ticket, img) in tickets.into_iter().zip(&imgs) {
        let response = ticket.wait().unwrap();
        assert!(
            response.batch_size > 1,
            "a request queued behind a dispatch left alone (batch of {})",
            response.batch_size
        );
        assert_eq!(bits(&response.logits), bits(&q.logits(img).unwrap()));
    }
    let snap = server.metrics();
    assert_eq!((snap.completed, snap.failed), (13, 0));
    server.shutdown();
}

/// Served traffic reaches the flight recorder: every serve stage and the
/// datapath nested under `serve.infer` record spans, and a real dump
/// exports as well-formed Chrome JSON.
#[test]
fn served_requests_reach_the_flight_recorder() {
    let t0 = mfdfp_obs::now_ns();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("tiny", tiny_qnet(5));
    let server = Server::start(Arc::clone(&registry), no_linger()).unwrap();
    std::thread::scope(|s| {
        for c in 0..2 {
            let server = &server;
            s.spawn(move || {
                for img in images(4, 60 + c) {
                    server.submit("tiny", img).unwrap().wait().unwrap();
                }
            });
        }
    });
    server.shutdown(); // publishes the worker's last spans

    let events = mfdfp_obs::dump();
    let labels = "serve.submit serve.batch_form serve.queue_wait serve.infer serve.respond \
                  qnet.conv conv.im2col_batched";
    for label in labels.split(' ') {
        assert!(events.iter().any(|e| e.label == label), "no {label} event recorded");
    }
    // The recorder is process-wide, so this also sees the other tests'
    // servers; the nesting holds for each of them as long as no ring
    // wraps while this test runs (4096 events; the busiest worker in
    // this file records < 1000). Rings pass from exited threads to new
    // ones, so older events may already be overwritten: only this
    // test's window is checked.
    for infer in events.iter().filter(|e| e.label == "serve.infer" && e.start_ns >= t0) {
        let end = infer.start_ns + infer.dur_ns;
        let nested = events.iter().any(|e| {
            e.thread == infer.thread
                && e.label.starts_with("qnet.")
                && e.start_ns >= infer.start_ns
                && e.start_ns + e.dur_ns <= end
        });
        assert!(nested, "serve.infer on ring {} encloses no qnet.* span", infer.thread);
    }
    let json = mfdfp_obs::chrome_trace_json(&events);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches("\"ph\":\"X\"").count(), events.len());
}
