//! Load generator for the `mfdfp-serve` runtime — in-process or over
//! the HTTP/1.1 front-end.
//!
//! Spawns `MFDFP_SERVE_PRODUCERS` clients against a sharded
//! dynamic-batching [`Server`] holding one or more small MF-DFP
//! networks, then reports throughput, *exact* per-request latency
//! percentiles (the server's own histogram is bucketed; here every
//! latency is recorded individually), the dispatched batch-size
//! histogram and the admission-control counters (rejected / shed /
//! quota). With more than one producer the micro-batcher coalesces
//! requests, which is the effect this harness exists to measure.
//!
//! ```text
//! cargo run -p mfdfp-bench --bin serve_load --release [--features obs] \
//!     [-- --http] [-- --open-loop <rps>] [-- --trace trace.json]
//! ```
//!
//! Modes:
//!
//! * default — closed-loop in-process clients (submit → wait → submit);
//! * `--http` — clients are real TCP keep-alive connections speaking
//!   HTTP/1.1 to an [`HttpServer`] bound on a loopback ephemeral port:
//!   the full network tier (accept → parse → route → infer → respond)
//!   is on the measured path, and the first response per producer is
//!   checked **bit-exact** against direct integer inference;
//! * `--open-loop <rps>` — arrivals are paced at a fixed aggregate rate
//!   (optionally in bursts of `MFDFP_SERVE_BURST`) independent of
//!   completions, the arrival pattern under which load shedding and
//!   backpressure actually matter; rejected arrivals are counted and
//!   dropped, not retried.
//!
//! With `--trace <path>` (and the `obs` feature), the flight recorder's
//! rings are drained after the run into a Chrome trace-event file —
//! load it at <https://ui.perfetto.dev> to see every pipeline stage and
//! kernel dispatch on a timeline. Without `obs` the file is written but
//! contains no events.
//!
//! Environment knobs:
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `MFDFP_SERVE_PRODUCERS` | 4 | concurrent clients |
//! | `MFDFP_SERVE_REQUESTS` | 64 | requests per client |
//! | `MFDFP_SERVE_SHARDS` | 1 | server worker shards |
//! | `MFDFP_SERVE_WORKERS` | 1 | worker threads per shard |
//! | `MFDFP_SERVE_MAX_BATCH` | 8 | batcher size bound |
//! | `MFDFP_SERVE_MAX_WAIT_US` | 0 | opt-in batcher linger (µs) |
//! | `MFDFP_SERVE_MODELS` | 1 | registered models, round-robined |
//! | `MFDFP_SERVE_DEADLINE_US` | unset | per-request shed deadline (µs) |
//! | `MFDFP_SERVE_POISON_PCT` | 0 | % of requests sent malformed |
//! | `MFDFP_SERVE_BURST` | 1 | open-loop arrivals per tick |
//! | `SERVE_BENCH_OUT` | unset | write a JSON report to this path |
//!
//! A poison request is a deliberately invalid submission (wrong-size
//! image in-process; a non-numeric JSON body over HTTP). The harness
//! asserts every one is rejected with a *typed* error (never a panic,
//! never a served response) and that poison traffic does not corrupt
//! the well-formed requests batched around it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::http::{encode_request, format_f32_array, parse_f32_array};
use mfdfp_serve::{
    HttpConfig, HttpServer, ModelRegistry, ServeConfig, ServeError, Server, SubmitOptions,
};
use mfdfp_tensor::TensorRng;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

fn env_u64_opt(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

fn exact_percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64
}

/// Command-line flags.
struct Cli {
    trace: Option<String>,
    http: bool,
    open_loop_rps: Option<u64>,
    scenario: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { trace: None, http: false, open_loop_rps: None, scenario: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => cli.trace = Some(args.next().expect("--trace requires a path")),
            "--http" => cli.http = true,
            "--open-loop" => {
                cli.open_loop_rps = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--open-loop requires a rate (req/s)"),
                );
            }
            "--scenario" => {
                cli.scenario = Some(args.next().expect("--scenario requires a name"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    cli
}

/// What one producer observed.
#[derive(Default)]
struct ProducerStats {
    latencies_us: Vec<u64>,
    shed: u64,
    dropped: u64,
    poison_rejected: u64,
}

/// The shared request plan every producer follows.
#[derive(Clone, Copy)]
struct Plan {
    requests: usize,
    models: usize,
    deadline: Option<Duration>,
    poison_pct: usize,
    /// Open-loop pacing: `None` is closed-loop; `Some((interval, burst))`
    /// fires `burst` arrivals every `interval` without waiting for
    /// completions first.
    pacing: Option<(Duration, usize)>,
}

impl Plan {
    fn model_name(&self, producer: usize, i: usize) -> String {
        format!("loadgen{}", (producer + i) % self.models)
    }

    fn is_poison(&self, i: usize) -> bool {
        self.poison_pct > 0 && i % 100 < self.poison_pct
    }
}

/// In-process producer: submits directly through [`Server::submit_with`].
/// Closed-loop retries on backpressure; open-loop drops and counts.
fn run_inproc_producer(
    server: &Server,
    qnet: &QuantizedNet,
    plan: &Plan,
    producer: usize,
) -> ProducerStats {
    let mut rng = TensorRng::seed_from(1000 + producer as u64);
    let mut stats = ProducerStats::default();
    let opts = SubmitOptions { deadline: plan.deadline, ..Default::default() };
    let mut pending: Vec<(Instant, mfdfp_serve::Ticket)> = Vec::new();
    let open_started = Instant::now();
    let mut verified = false;
    for i in 0..plan.requests {
        let model = plan.model_name(producer, i);
        if plan.is_poison(i) {
            // Wrong-size image: must be a typed BadInput, never served.
            let poison = rng.gaussian([7], 0.0, 1.0);
            match server.submit_with(&model, poison, opts) {
                Err(ServeError::BadInput { .. }) => stats.poison_rejected += 1,
                other => panic!("poison submission must be BadInput, got {other:?}"),
            }
            continue;
        }
        let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
        let start = Instant::now();
        match plan.pacing {
            None => {
                // Closed loop: block on this request before the next.
                let ticket = loop {
                    match server.submit_with(&model, img.clone(), opts) {
                        Ok(t) => break t,
                        Err(ServeError::QueueFull { .. } | ServeError::QuotaExceeded { .. }) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("submit failed: {e}"),
                    }
                };
                match ticket.wait() {
                    Ok(response) => {
                        stats.latencies_us.push(start.elapsed().as_micros() as u64);
                        if !verified {
                            let direct = qnet.logits(&img).expect("direct logits");
                            assert_eq!(
                                response.logits.as_slice(),
                                direct.as_slice(),
                                "served response diverged from direct inference"
                            );
                            verified = true;
                        }
                    }
                    Err(ServeError::DeadlineExceeded { .. }) => stats.shed += 1,
                    Err(e) => panic!("response failed: {e}"),
                }
            }
            Some((interval, burst)) => {
                // Open loop: pace arrivals off the wall clock, collect
                // tickets, settle after the loop.
                let tick = i / burst;
                let due = open_started + interval * tick as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                match server.submit_with(&model, img, opts) {
                    Ok(t) => pending.push((Instant::now(), t)),
                    Err(ServeError::QueueFull { .. } | ServeError::QuotaExceeded { .. }) => {
                        stats.dropped += 1;
                    }
                    Err(e) => panic!("submit failed: {e}"),
                }
            }
        }
    }
    for (start, ticket) in pending {
        match ticket.wait() {
            Ok(_) => stats.latencies_us.push(start.elapsed().as_micros() as u64),
            Err(ServeError::DeadlineExceeded { .. }) => stats.shed += 1,
            Err(e) => panic!("response failed: {e}"),
        }
    }
    stats
}

/// Reads one HTTP response off `stream`; returns `(status, body)`.
fn read_http_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String) {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad status line in {head:?}"));
            let length: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::trim)
                        .map(String::from)
                })
                .and_then(|v| v.parse().ok())
                .expect("response must carry content-length");
            while buf.len() < head_end + length {
                let n = stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "server closed mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
            buf.drain(..head_end + length);
            return (status, body);
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "server closed mid-head");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Pulls the logits array out of an infer response body.
fn extract_logits(body: &str) -> Vec<f32> {
    let start = body.find("\"logits\":").expect("logits field") + "\"logits\":".len();
    let end = body[start..].find(']').expect("logits terminator") + start + 1;
    parse_f32_array(&body.as_bytes()[start..end]).expect("logits parse")
}

/// HTTP producer: one keep-alive connection, real request bytes on the
/// wire, first well-formed response verified bit-exact against direct
/// inference.
fn run_http_producer(
    addr: std::net::SocketAddr,
    qnet: &QuantizedNet,
    plan: &Plan,
    producer: usize,
) -> ProducerStats {
    let mut rng = TensorRng::seed_from(1000 + producer as u64);
    let mut stats = ProducerStats::default();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = Vec::new();
    let deadline_value = plan.deadline.map(|d| d.as_micros().to_string());
    let mut verified = false;
    let open_started = Instant::now();
    for i in 0..plan.requests {
        let path = format!("/v1/infer/{}", plan.model_name(producer, i));
        if plan.is_poison(i) {
            let bytes = encode_request("POST", &path, &[], b"[1.0,poison]");
            stream.write_all(&bytes).expect("write poison");
            let (status, _) = read_http_response(&mut stream, &mut buf);
            assert_eq!(status, 400, "poison body must be a typed 400");
            stats.poison_rejected += 1;
            continue;
        }
        if let Some((interval, burst)) = plan.pacing {
            let due = open_started + interval * (i / burst) as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
        let body = format_f32_array(img.as_slice());
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(v) = deadline_value.as_deref() {
            headers.push(("x-mfdfp-deadline-us", v));
        }
        let bytes = encode_request("POST", &path, &headers, body.as_bytes());
        let start = Instant::now();
        loop {
            stream.write_all(&bytes).expect("write request");
            let (status, response_body) = read_http_response(&mut stream, &mut buf);
            match status {
                200 => {
                    stats.latencies_us.push(start.elapsed().as_micros() as u64);
                    if !verified {
                        let direct = qnet.logits(&img).expect("direct logits");
                        let served = extract_logits(&response_body);
                        assert_eq!(direct.as_slice().len(), served.len());
                        for (a, b) in direct.as_slice().iter().zip(&served) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "http logits diverged from direct inference"
                            );
                        }
                        verified = true;
                    }
                    break;
                }
                429 if plan.pacing.is_none() => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                429 => {
                    stats.dropped += 1;
                    break;
                }
                504 => {
                    stats.shed += 1;
                    break;
                }
                other => panic!("unexpected status {other}: {response_body}"),
            }
        }
    }
    stats
}

/// `--scenario recovery`: a scripted self-healing exercise (needs the
/// `fault` feature for the injection hooks). One worker serves a warm
/// baseline, then a panic storm trips the per-model circuit breaker; the
/// harness measures time-to-open, the fast-fail latency while open, the
/// time from disarm to the half-open probe closing the circuit, and —
/// after an injected worker death — the watchdog's respawn latency. The
/// numbers land in `SERVE_BENCH_OUT` next to the throughput runs.
#[cfg(feature = "fault")]
#[allow(clippy::too_many_lines)] // one linear scripted scenario, clearer unsplit
fn run_recovery_scenario() {
    use mfdfp_serve::{fault, BreakerConfig};

    let config = ServeConfig {
        workers: 1,
        breaker: Some(BreakerConfig {
            threshold: 3,
            backoff: Duration::from_millis(250),
            backoff_max: Duration::from_secs(2),
            probes: 1,
        }),
        ..ServeConfig::default()
    };
    let mut rng = TensorRng::seed_from(21);
    let mut float_net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).expect("zoo net");
    let calib = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan_q = calibrate(&mut float_net, &[(calib, vec![0, 1, 2, 3])], 8).expect("calibration");
    let qnet = QuantizedNet::from_network(&float_net, &plan_q).expect("quantization");
    let registry = Arc::new(ModelRegistry::new());
    registry.register("recovery", qnet.clone());
    let server = Server::start(Arc::clone(&registry), config).expect("server start");
    fault::reset();

    let img = rng.gaussian([3, 16, 16], 0.0, 0.7);
    let direct = qnet.logits(&img).expect("direct logits");
    let expect_exact = |r: &mfdfp_serve::Response| {
        assert_eq!(r.logits.as_slice(), direct.as_slice(), "served logits diverged");
    };

    // Warm baseline: the tier serves bit-exactly before any injection.
    for _ in 0..8 {
        expect_exact(&server.submit("recovery", img.clone()).unwrap().wait().unwrap());
    }

    // Panic storm: every dispatch panics until the breaker opens.
    fault::arm_worker_panic(1_000);
    let storm_start = Instant::now();
    let mut storm_panics = 0u64;
    let time_to_open = loop {
        match server.submit("recovery", img.clone()) {
            Ok(ticket) => match ticket.wait() {
                Err(ServeError::WorkerPanic) => storm_panics += 1,
                other => panic!("storm dispatch must panic, got {other:?}"),
            },
            Err(ServeError::CircuitOpen { .. }) => break storm_start.elapsed(),
            Err(e) => panic!("storm submit: {e}"),
        }
        assert!(storm_panics < 100, "circuit never opened under a panic storm");
    };

    // While open, admissions fast-fail without touching queue or worker.
    let mut fast_fail_ns = 0u128;
    const FAST_FAILS: u32 = 200;
    for _ in 0..FAST_FAILS {
        let t0 = Instant::now();
        match server.submit("recovery", img.clone()) {
            Err(ServeError::CircuitOpen { .. }) => fast_fail_ns += t0.elapsed().as_nanos(),
            other => panic!("open circuit must fast-fail, got {other:?}"),
        }
    }
    let fast_fail_mean_us = fast_fail_ns as f64 / f64::from(FAST_FAILS) / 1000.0;

    // Disarm and heal: wait out the backoff, the half-open probe
    // succeeds and closes the circuit.
    fault::reset();
    let heal_start = Instant::now();
    let recover = loop {
        match server.submit("recovery", img.clone()) {
            Ok(ticket) => {
                expect_exact(&ticket.wait().expect("probe must serve"));
                break heal_start.elapsed();
            }
            Err(ServeError::CircuitOpen { retry_after, .. }) => {
                std::thread::sleep(
                    retry_after.clamp(Duration::from_millis(1), Duration::from_millis(50)),
                );
            }
            Err(e) => panic!("heal submit: {e}"),
        }
        assert!(heal_start.elapsed() < Duration::from_secs(10), "circuit never closed");
    };

    // Worker death: the watchdog must respawn crash-only.
    fault::arm_worker_die(1);
    let die_start = Instant::now();
    while server.metrics().respawns == 0 {
        assert!(die_start.elapsed() < Duration::from_secs(10), "watchdog never respawned");
        std::thread::sleep(Duration::from_millis(2));
    }
    let respawn = die_start.elapsed();
    expect_exact(&server.submit("recovery", img.clone()).unwrap().wait().unwrap());

    let health = server.health();
    assert!(health.ready, "tier must be ready after healing: {}", health.to_json());
    let snap = server.metrics();
    assert_eq!(
        snap.submitted,
        snap.completed + snap.failed + snap.shed + snap.shutdown_rejected,
        "accounting must balance exactly through storm and respawn"
    );

    println!("serve_load[recovery]: scripted self-healing scenario (1 worker, threshold 3)");
    println!("storm panics       {storm_panics:>10} before the circuit opened");
    println!("time to open       {:>10.1} ms", time_to_open.as_secs_f64() * 1e3);
    println!("fast-fail mean     {fast_fail_mean_us:>10.2} µs over {FAST_FAILS} open admissions");
    println!(
        "time to close      {:>10.1} ms (disarm → probe success)",
        recover.as_secs_f64() * 1e3
    );
    println!(
        "respawn latency    {:>10.1} ms (death → replacement live)",
        respawn.as_secs_f64() * 1e3
    );
    println!("breaker opens      {:>10}", snap.breaker_opens);
    println!("breaker rejected   {:>10}", snap.breaker_rejected);
    println!("respawns           {:>10}", snap.respawns);
    println!("health             {}", health.to_json());

    if let Ok(path) = std::env::var("SERVE_BENCH_OUT") {
        let json = format!(
            concat!(
                "{{\"bench\":\"serve_load\",\"scenario\":\"recovery\",",
                "\"storm_panics\":{},\"time_to_open_ms\":{:.1},",
                "\"fast_fail_mean_us\":{:.2},\"time_to_close_ms\":{:.1},",
                "\"respawn_ms\":{:.1},\"breaker_opens\":{},\"breaker_rejected\":{},",
                "\"respawns\":{}}}\n"
            ),
            storm_panics,
            time_to_open.as_secs_f64() * 1e3,
            fast_fail_mean_us,
            recover.as_secs_f64() * 1e3,
            respawn.as_secs_f64() * 1e3,
            snap.breaker_opens,
            snap.breaker_rejected,
            snap.respawns,
        );
        std::fs::write(&path, json).expect("write SERVE_BENCH_OUT");
        println!("wrote {path}");
    }
    server.shutdown();
}

#[allow(clippy::too_many_lines)] // one linear report, clearer unsplit
fn main() {
    let cli = parse_cli();
    if let Some(scenario) = cli.scenario.as_deref() {
        match scenario {
            "recovery" => {
                #[cfg(feature = "fault")]
                {
                    run_recovery_scenario();
                    return;
                }
                #[cfg(not(feature = "fault"))]
                {
                    eprintln!("--scenario recovery needs the injection hooks: rebuild with --features fault");
                    std::process::exit(2);
                }
            }
            other => panic!("unknown scenario {other:?} (known: recovery)"),
        }
    }
    let producers = env_usize("MFDFP_SERVE_PRODUCERS", 4);
    let config = ServeConfig {
        shards: env_usize("MFDFP_SERVE_SHARDS", 1),
        workers: env_usize("MFDFP_SERVE_WORKERS", 1),
        queue_capacity: (producers * 4).max(64),
        max_batch: env_usize("MFDFP_SERVE_MAX_BATCH", 8),
        max_wait: Duration::from_micros(env_usize("MFDFP_SERVE_MAX_WAIT_US", 0) as u64),
        model_quota: None,
        ..ServeConfig::default()
    };
    let plan = Plan {
        requests: env_usize("MFDFP_SERVE_REQUESTS", 64),
        models: env_usize("MFDFP_SERVE_MODELS", 1),
        deadline: env_u64_opt("MFDFP_SERVE_DEADLINE_US").map(Duration::from_micros),
        poison_pct: std::env::var("MFDFP_SERVE_POISON_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        pacing: cli.open_loop_rps.map(|rps| {
            let burst = env_usize("MFDFP_SERVE_BURST", 1);
            // Each producer carries rps/producers; a tick fires `burst`.
            let tick_ns = 1_000_000_000u64 * burst as u64 * producers as u64 / rps.max(1);
            (Duration::from_nanos(tick_ns), burst)
        }),
    };

    // The served model: the same small calibrated network the qnet tests
    // use (3×16×16 input, 10 classes) — big enough that inference costs
    // real time on the integer datapath, so batching effects are real.
    let mut rng = TensorRng::seed_from(21);
    let mut float_net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).expect("zoo net");
    let calib = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan_q = calibrate(&mut float_net, &[(calib, vec![0, 1, 2, 3])], 8).expect("calibration");
    let qnet = QuantizedNet::from_network(&float_net, &plan_q).expect("quantization");

    let registry = Arc::new(ModelRegistry::new());
    for m in 0..plan.models {
        registry.register(&format!("loadgen{m}"), qnet.clone());
    }
    let server =
        Arc::new(Server::start(Arc::clone(&registry), config.clone()).expect("server start"));
    let http = if cli.http {
        Some(
            HttpServer::bind(
                Arc::clone(&server),
                "127.0.0.1:0",
                HttpConfig { max_connections: producers + 8, ..Default::default() },
            )
            .expect("http bind"),
        )
    } else {
        None
    };

    let mode = if cli.http { "http" } else { "inproc" };
    let loop_kind = if plan.pacing.is_some() { "open" } else { "closed" };
    println!(
        "serve_load[{mode}/{loop_kind}-loop]: {} producers × {} requests, shards={}, \
         workers={}, max_batch={}, max_wait={:?}, models={}, deadline={:?}, poison={}%",
        producers,
        plan.requests,
        config.shards,
        config.workers,
        config.max_batch,
        config.max_wait,
        plan.models,
        plan.deadline,
        plan.poison_pct,
    );

    let wall_start = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let server = Arc::clone(&server);
            let qnet = qnet.clone();
            let addr = http.as_ref().map(HttpServer::local_addr);
            std::thread::spawn(move || match addr {
                Some(addr) => run_http_producer(addr, &qnet, &plan, p),
                None => run_inproc_producer(&server, &qnet, &plan, p),
            })
        })
        .collect();

    let mut latencies_us: Vec<u64> = Vec::new();
    let (mut shed_seen, mut dropped, mut poison_rejected) = (0u64, 0u64, 0u64);
    for h in handles {
        let stats = h.join().expect("producer thread");
        latencies_us.extend(stats.latencies_us);
        shed_seen += stats.shed;
        dropped += stats.dropped;
        poison_rejected += stats.poison_rejected;
    }
    let wall = wall_start.elapsed();
    let snap = server.metrics();

    latencies_us.sort_unstable();
    let total = latencies_us.len() as f64;
    let throughput = total / wall.as_secs_f64();
    let mean_us = latencies_us.iter().sum::<u64>() as f64 / total.max(1.0);
    let (p50, p95, p99) = (
        exact_percentile(&latencies_us, 0.50),
        exact_percentile(&latencies_us, 0.95),
        exact_percentile(&latencies_us, 0.99),
    );

    println!("wall time          {:>10.3} s", wall.as_secs_f64());
    println!("served             {:>10} responses", latencies_us.len());
    println!("throughput         {throughput:>10.1} req/s");
    println!("latency mean       {mean_us:>10.1} µs");
    println!("latency p50        {p50:>10.1} µs");
    println!("latency p95        {p95:>10.1} µs");
    println!("latency p99        {p99:>10.1} µs");
    println!("batch histogram    {:?} (size 1..)", snap.batch_histogram);
    println!("largest batch      {:>10}", snap.max_batch_observed());
    println!("rejected           {:>10} ({dropped} dropped open-loop)", snap.rejected);
    println!("shed (deadline)    {:>10} (clients saw {shed_seen})", snap.shed);
    println!("quota rejected     {:>10}", snap.quota_rejected);
    println!("poison rejected    {:>10} (all typed errors)", poison_rejected);
    // Where the latency went: admission→dispatch wait vs compute vs
    // response delivery (server-side stage histograms, bucketed means).
    println!(
        "stage queue_wait   {:>10.1} µs mean ({} samples)",
        snap.stages.queue_wait.mean_us, snap.stages.queue_wait.count
    );
    println!(
        "stage infer        {:>10.1} µs mean ({} batches)",
        snap.stages.infer.mean_us, snap.stages.infer.count
    );
    println!(
        "stage respond      {:>10.1} µs mean ({} batches)",
        snap.stages.respond.mean_us, snap.stages.respond.count
    );
    println!(
        "ops                {} shift-MACs, {} im2col bytes",
        snap.ops.shift_macs, snap.ops.im2col_bytes
    );
    println!(
        "energy estimate    {:>10.1} µJ ({:.1}% saved vs fp32 MACs)",
        snap.energy.total_uj, snap.energy.saving_pct
    );

    // Sanity: the server's own accounting must balance — everything
    // admitted was answered (served, failed) or shed, and nothing
    // vanished. `completed` counts server-side answers, including ones
    // whose client had already stopped listening.
    assert_eq!(
        snap.submitted,
        snap.completed + snap.failed + snap.shed,
        "accounting must balance exactly"
    );
    assert_eq!(snap.shed, shed_seen, "every shed must reach a client as a typed 504/error");

    if producers > 1 && plan.pacing.is_none() && snap.max_batch_observed() < 2 {
        eprintln!("warning: no batch >1 formed under concurrent producers");
    }

    if let Ok(path) = std::env::var("SERVE_BENCH_OUT") {
        let hist: Vec<String> = snap.batch_histogram.iter().map(u64::to_string).collect();
        let features = if cfg!(feature = "obs") { "[\"obs\"]" } else { "[]" };
        let json = format!(
            concat!(
                "{{\"bench\":\"serve_load\",\"mode\":\"{}\",\"loop\":\"{}\",\"features\":{},",
                "\"producers\":{},\"requests_per_producer\":{},",
                "\"shards\":{},\"workers\":{},\"max_batch\":{},\"max_wait_us\":{},",
                "\"models\":{},\"wall_s\":{:.3},\"throughput_rps\":{:.1},",
                "\"latency_us\":{{\"mean\":{:.1},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}},",
                "\"batch_histogram\":[{}],\"largest_batch\":{},\"rejected\":{},",
                "\"shed\":{},\"quota_rejected\":{},\"poison_rejected\":{},",
                "\"stage_mean_us\":{{\"queue_wait\":{:.1},\"infer\":{:.1},\"respond\":{:.1}}},",
                "\"shift_macs\":{},\"energy_total_uj\":{:.3}}}\n"
            ),
            mode,
            loop_kind,
            features,
            producers,
            plan.requests,
            config.shards,
            config.workers,
            config.max_batch,
            config.max_wait.as_micros(),
            plan.models,
            wall.as_secs_f64(),
            throughput,
            mean_us,
            p50,
            p95,
            p99,
            hist.join(","),
            snap.max_batch_observed(),
            snap.rejected,
            snap.shed,
            snap.quota_rejected,
            poison_rejected,
            snap.stages.queue_wait.mean_us,
            snap.stages.infer.mean_us,
            snap.stages.respond.mean_us,
            snap.ops.shift_macs,
            snap.energy.total_uj,
        );
        std::fs::write(&path, json).expect("write SERVE_BENCH_OUT");
        println!("wrote {path}");
    }

    // Shut down before draining the flight recorder so the workers' final
    // spans are published before the dump.
    drop(http);
    Arc::try_unwrap(server).ok().expect("all producers joined").shutdown();

    if let Some(path) = cli.trace {
        let events = mfdfp_obs::dump();
        std::fs::write(&path, mfdfp_obs::chrome_trace_json(&events)).expect("write trace");
        println!("wrote {path} ({} events; load at https://ui.perfetto.dev)", events.len());
    }
}
