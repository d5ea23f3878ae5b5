//! HTTP serving quickstart: quantize a network, register it, bind the
//! std-only HTTP/1.1 front-end, and serve real sockets.
//!
//! ```text
//! cargo run --example http_demo --release
//! ```
//!
//! The demo prints ready-to-paste `curl` lines, self-checks one inference
//! over loopback TCP against direct integer inference (bit-exact), then
//! keeps serving for `MFDFP_HTTP_DEMO_SECS` seconds (default 5; CI's
//! smoke test sets it higher and drives the endpoints with `curl`).
//!
//! Environment:
//!
//! * `MFDFP_HTTP_ADDR` — listen address (default `127.0.0.1:8077`)
//! * `MFDFP_HTTP_DEMO_SECS` — how long to keep serving before exiting

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mfdfp::core::{calibrate, QuantizedNet};
use mfdfp::nn::zoo;
use mfdfp::serve::http::{encode_request, format_f32_array};
use mfdfp::serve::{HttpConfig, HttpServer, ModelRegistry, ServeConfig, Server};
use mfdfp::tensor::{Tensor, TensorRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Build and quantize a small network ──────────────────────────
    let mut rng = TensorRng::seed_from(7);
    let mut float_net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng)?;
    let calib = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut float_net, &[(calib, vec![0, 1, 2, 3])], 8)?;
    let qnet = QuantizedNet::from_network(&float_net, &plan)?;

    // ── 2. Register it and bind the HTTP front-end ─────────────────────
    let registry = Arc::new(ModelRegistry::new());
    registry.register("demo", qnet.clone());
    let server = Arc::new(Server::start(
        Arc::clone(&registry),
        ServeConfig {
            shards: 2,
            workers: 1,
            queue_capacity: 256,
            max_batch: 8,
            ..Default::default()
        },
    )?);
    let addr = std::env::var("MFDFP_HTTP_ADDR").unwrap_or_else(|_| "127.0.0.1:8077".into());
    let http = HttpServer::bind(Arc::clone(&server), &addr, HttpConfig::default())?;
    let addr = http.local_addr();
    println!("serving \"demo\" ({} f32 inputs, 10 classes) on http://{addr}", 3 * 16 * 16);
    println!("  curl http://{addr}/v1/models");
    println!("  curl http://{addr}/v1/metrics");
    println!("  curl -d '[0.5,0.5,...×768]' http://{addr}/v1/infer/demo");
    println!("  (headers: x-mfdfp-deadline-us: 2000 — shed if older; x-mfdfp-priority: high)");

    // ── 3. The deterministic probe: a constant 0.5 image ───────────────
    // CI's smoke test regenerates this exact body with awk, POSTs it with
    // curl, and greps the response for the logits printed here — the
    // wire format is bit-exact, so the match is literal.
    let probe = Tensor::from_slice(&vec![0.5f32; 3 * 16 * 16]);
    let expected = qnet.logits(&probe)?;
    println!("probe logits: \"logits\":{}", format_f32_array(expected.as_slice()));

    // ── 4. Self-check over real loopback TCP ───────────────────────────
    let body = format_f32_array(probe.as_slice());
    let request = encode_request("POST", "/v1/infer/demo", &[], body.as_bytes());
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&request)?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let wire = format!("\"logits\":{}", format_f32_array(expected.as_slice()));
    assert!(response.starts_with("HTTP/1.1 200"), "self-check status: {response}");
    assert!(response.contains(&wire), "self-check logits not bit-exact: {response}");
    println!("self-check over TCP: 200, logits bit-exact with direct inference");

    // ── 5. Keep serving, then tear down cleanly ────────────────────────
    let secs: u64 =
        std::env::var("MFDFP_HTTP_DEMO_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    std::thread::sleep(Duration::from_secs(secs));
    http.shutdown();
    println!("final metrics: {}", server.metrics().to_json());
    drop(server);
    Ok(())
}
