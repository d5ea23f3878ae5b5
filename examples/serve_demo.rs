//! Serving quickstart: quantize a network, register it, and serve
//! concurrent traffic through the dynamic-batching runtime.
//!
//! ```text
//! cargo run --example serve_demo --release
//! ```
//!
//! Four closed-loop clients fire requests at a one-worker server with
//! the batch linger switched off (`max_wait: Duration::ZERO`): whatever
//! queues up while the worker computes one batch leaves together in the
//! next, so multi-image batches for the integer datapath form from load
//! alone, with no timer involved. The final metrics snapshot
//! (JSON) shows the batch-size histogram, throughput and latency
//! percentiles.
//!
//! With a path argument (`… -- trace.json`) the flight recorder is
//! drained after shutdown into a Chrome trace-event file for
//! <https://ui.perfetto.dev>.

use std::sync::Arc;
use std::time::Duration;

use mfdfp::core::{calibrate, QuantizedNet};
use mfdfp::nn::zoo;
use mfdfp::serve::{ModelRegistry, ServeConfig, ServeError, Server};
use mfdfp::tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Build and quantize a small network (see examples/quickstart.rs
    //       for the full float-train → fine-tune pipeline) ───────────────
    let mut rng = TensorRng::seed_from(7);
    let mut float_net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng)?;
    let calib = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut float_net, &[(calib, vec![0, 1, 2, 3])], 8)?;
    let qnet = QuantizedNet::from_network(&float_net, &plan)?;
    println!(
        "serving {:?}: {} classes, {} B parameters",
        qnet.name(),
        qnet.classes(),
        qnet.memory_bytes()
    );

    // ── 2. Register it and start the server ────────────────────────────
    let registry = Arc::new(ModelRegistry::new());
    registry.register("demo", qnet.clone());
    let server = Arc::new(Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 8,
            max_wait: Duration::ZERO,
            ..Default::default()
        },
    )?);

    // ── 3. Four concurrent closed-loop clients ─────────────────────────
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let server = Arc::clone(&server);
            let qnet = qnet.clone();
            std::thread::spawn(move || {
                let mut rng = TensorRng::seed_from(100 + c);
                for i in 0..25 {
                    let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
                    let ticket = loop {
                        match server.submit("demo", img.clone()) {
                            Ok(t) => break t,
                            Err(ServeError::QueueFull { .. }) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("submit: {e}"),
                        }
                    };
                    let response = ticket.wait().expect("response");
                    // Serving never changes the answer: responses are
                    // byte-identical to direct integer inference.
                    let direct = qnet.logits(&img).expect("direct");
                    assert_eq!(response.logits.as_slice(), direct.as_slice());
                    if c == 0 && i == 0 {
                        println!(
                            "first response: class {} (batch of {}, {:?})",
                            response.class, response.batch_size, response.latency
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // ── 4. Inspect the metrics snapshot ────────────────────────────────
    let snap = server.metrics();
    println!(
        "served {} requests at {:.0} req/s, largest batch {}, p95 ≤ {} µs",
        snap.completed,
        snap.throughput_rps,
        snap.max_batch_observed(),
        snap.p95_latency_us
    );
    println!("metrics JSON: {}", snap.to_json());

    // Shut down before draining the flight recorder, so the worker's
    // final spans are published before the dump.
    Arc::try_unwrap(server).ok().expect("clients joined").shutdown();
    if let Some(path) = std::env::args().nth(1) {
        let events = mfdfp::obs::dump();
        std::fs::write(&path, mfdfp::obs::chrome_trace_json(&events))?;
        println!("wrote {path} ({} events)", events.len());
    }
    Ok(())
}
