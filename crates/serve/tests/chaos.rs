//! Chaos/concurrency harness: producers hammer `submit` while a swapper
//! hot-swaps the model out from under them every few batches.
//!
//! The invariant under test is the Arc-flip contract: **every** response
//! is bit-identical to one of the registered generations' direct logits
//! — old weights or new weights, never a torn mix, never a third value —
//! and the reported [`Response::version`] names exactly which. The same
//! binary runs at every pool width (CI runs it at the default width and
//! with `MFDFP_THREADS=4`), since the batcher's
//! grouping, not any scheduler property, is what forbids torn batches.
//!
//! [`Response::version`]: mfdfp_serve::Response

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::{ModelRegistry, Priority, ServeConfig, ServeError, Server, SubmitOptions};
use mfdfp_tensor::{Tensor, TensorRng};

/// A small calibrated MF-DFP network (3×16×16 input, 10 classes). Seeds
/// produce *different* weights, so generations answer differently.
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

#[test]
fn hot_swap_under_concurrent_traffic_never_tears_a_response() {
    const PRODUCERS: usize = 4;
    const REQUESTS: usize = 60;
    const GENERATIONS: u64 = 6;

    // Pre-build every generation the swapper will install, and the
    // direct logits each generation produces for every image, so the
    // per-response check is a pure table lookup.
    let generations: Vec<QuantizedNet> = (0..GENERATIONS).map(|g| tiny_qnet(100 + g)).collect();
    let mut rng = TensorRng::seed_from(424_242);
    let images: Vec<Tensor> = (0..REQUESTS).map(|_| rng.gaussian([3, 16, 16], 0.0, 0.7)).collect();
    let expected: Vec<Vec<Vec<u32>>> = generations
        .iter()
        .map(|g| images.iter().map(|img| bits(&g.logits(img).unwrap())).collect())
        .collect();
    // Distinct generations must actually answer differently, or the
    // "matches exactly one generation" check below proves nothing.
    assert_ne!(expected[0][0], expected[1][0], "generations must disagree");

    let registry = Arc::new(ModelRegistry::new());
    registry.register("hot", generations[0].clone());
    let server = Arc::new(
        Server::start(
            Arc::clone(&registry),
            ServeConfig {
                shards: 2,
                workers: 1,
                queue_capacity: 256,
                max_batch: 8,
                max_wait: Duration::from_micros(500),
                model_quota: None,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let server = Arc::clone(&server);
        let generations = generations.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut installed = 1u64; // registered generation 0 at version 1
            while !stop.load(Ordering::Relaxed) {
                let next = &generations[(installed % GENERATIONS) as usize];
                let version = server.swap_model("hot", next.clone()).unwrap();
                installed += 1;
                assert_eq!(version, installed, "versions must be a gapless lineage");
                // A few batches' worth of traffic between swaps.
                std::thread::sleep(Duration::from_millis(2));
            }
            installed
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let server = Arc::clone(&server);
            let images = images.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for (i, img) in images.iter().enumerate() {
                    // Mix the priority lane into the chaos: it must obey
                    // the same consistency contract.
                    let opts = SubmitOptions {
                        priority: if (p + i) % 5 == 0 { Priority::High } else { Priority::Normal },
                        ..Default::default()
                    };
                    let ticket = loop {
                        match server.submit_with("hot", img.clone(), opts) {
                            Ok(t) => break t,
                            Err(ServeError::QueueFull { .. }) => {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(e) => panic!("submit: {e}"),
                        }
                    };
                    let response = ticket.wait().unwrap();
                    let got = bits(&response.logits);
                    // The version the response claims must reproduce the
                    // logits exactly: version v served generation
                    // (v-1) % GENERATIONS.
                    let claimed = &expected[((response.version - 1) % GENERATIONS) as usize][i];
                    assert_eq!(
                        &got, claimed,
                        "producer {p} request {i}: response does not match the weights of the \
                         version ({}) it claims — torn or stale read",
                        response.version
                    );
                }
            })
        })
        .collect();

    for producer in producers {
        producer.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let swaps_done = swapper.join().unwrap();
    assert!(swaps_done > 2, "the swapper must have actually raced the traffic");

    // Metrics: gapless version lineage, every swap counted, exact
    // accounting — nothing lost, nothing double-counted.
    let snap = server.metrics();
    assert_eq!(snap.submitted, (PRODUCERS * REQUESTS) as u64);
    assert_eq!(snap.completed, (PRODUCERS * REQUESTS) as u64);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.shed, 0);
    let hot = snap.models.iter().find(|m| m.name == "hot").unwrap();
    assert_eq!(hot.version, swaps_done);
    assert_eq!(hot.swaps, swaps_done - 1, "every swap_model call must be counted");
    assert_eq!(hot.completed, (PRODUCERS * REQUESTS) as u64);
    assert_eq!(hot.in_flight, 0, "every quota slot must be released");
    assert_eq!(registry.version("hot").unwrap(), swaps_done);

    Arc::try_unwrap(server).ok().expect("all clients joined").shutdown();
}

#[test]
fn swap_is_zero_downtime_for_waiting_tickets() {
    // In-flight requests admitted before a swap must drain on the old
    // weights (their resolved Arc), not error and not see the new ones.
    let old = tiny_qnet(7);
    let new = tiny_qnet(8);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", old.clone());
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            // A long linger holds the admitted requests queued while the
            // swap lands under them.
            max_batch: 64,
            max_wait: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .unwrap();

    let mut rng = TensorRng::seed_from(99);
    let imgs: Vec<Tensor> = (0..6).map(|_| rng.gaussian([3, 16, 16], 0.0, 0.7)).collect();
    let tickets: Vec<_> = imgs.iter().map(|img| server.submit("m", img.clone()).unwrap()).collect();
    let version = server.swap_model("m", new.clone()).unwrap();
    assert_eq!(version, 2);
    for (img, ticket) in imgs.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.version, 1, "pre-swap admissions must drain on the old version");
        assert_eq!(bits(&response.logits), bits(&old.logits(img).unwrap()));
    }
    // Post-swap admissions compute on the new weights.
    let response = server.submit("m", imgs[0].clone()).unwrap().wait().unwrap();
    assert_eq!(response.version, 2);
    assert_eq!(bits(&response.logits), bits(&new.logits(&imgs[0]).unwrap()));
    server.shutdown();
}
