//! Per-layer measurements, taken from outside: each probe times calls
//! into one layer's public functions on the workload's real data. They
//! run only in the traced pass (`--trace 1`), after the timed windows,
//! so they never share a window with an end-to-end number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfdfp_core::{to_image, ImageView, QLayer, QuantizedNet};
use mfdfp_dfp::{crc32, PackedPow2Matrix};
use mfdfp_serve::http::{encode_request, format_f32_array, parse_f32_array, parse_request};
use mfdfp_serve::{
    BoundedQueue, HttpConfig, HttpServer, ModelRegistry, ServeConfig, Server, SubmitOptions,
};
use mfdfp_tensor::{gemm, qgemm_fused_into_i8, TensorRng, Transpose};

use crate::catalog::SHAPES;
use crate::httpclient::{infer_request, Connection};
use crate::layers::{layer_names, replay_forward, GemmShape, KernelProbe};
use crate::loadgen::{closed_loop, merge_clients};
use crate::models::{logits_match, oracle_logits, Model};
use crate::stats::{median, percentile, sorted};
use crate::trace::{self_time_ns, Tracer};
use crate::workloads::{http_call, inproc_call, start_server, HTTP_CLIENTS};

/// Named measurements; the caller checks them against the catalogue.
pub type Metrics = Vec<(String, f64)>;

/// How long the probes may take.
#[derive(Clone, Copy)]
pub struct Effort {
    /// Timed batches per probe; the median over them is reported.
    pub reps: usize,
    /// Target length of one timed batch.
    pub batch: Duration,
    /// Length of the short closed loops (in-process and HTTP round trip).
    pub loop_len: Duration,
}

impl Effort {
    /// The effort of a real traced run.
    pub const FULL: Effort =
        Effort { reps: 7, batch: Duration::from_millis(2), loop_len: Duration::from_millis(600) };
    /// The effort of a `--quick` smoke run.
    pub const QUICK: Effort =
        Effort { reps: 3, batch: Duration::from_micros(200), loop_len: Duration::from_millis(60) };
}

/// Microseconds per call of `f`: the median over `effort.reps` timed
/// batches, each sized from a first call to last about `effort.batch`.
fn time_us(effort: Effort, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (effort.batch.as_nanos() / first.as_nanos()).clamp(1, 100_000) as u32;
    let batches: Vec<f64> = (0..effort.reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Cost of one `Instant::now()` pair, nanoseconds.
pub fn timer_ns() -> f64 {
    let reads = 10_000u32;
    let t0 = Instant::now();
    for _ in 0..reads {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(reads)
}

/// `tensor.*`, `accel.*` and the `core.forward*` metrics: the layer
/// replay at B=1 and B=8 on the model's pool, with the kernels behind
/// each weighted layer timed on that layer's real input. Returns whether
/// every replay matched `logits_batch_into` and the oracle bit for bit.
pub fn layer_metrics(model: &Model, tracer: &Tracer, effort: Effort, m: &mut Metrics) -> bool {
    let net = &model.a.net;
    let names = layer_names(net);
    let classes = net.classes();
    let mut ws = net.plan_for_batch(8).workspace();
    let mut correct = true;
    for (shape, n) in SHAPES {
        let data: Vec<f32> =
            model.pool[..n].iter().flat_map(|t| t.as_slice().iter().copied()).collect();
        let mut direct = vec![0.0f32; classes * n];
        let forward_us = time_us(effort, || {
            net.logits_batch_into(&data, n, &mut ws, &mut direct).expect("pool images are valid");
        });
        m.push((format!("core.forward.{shape}_ms"), forward_us / 1e3));

        // Replays: the first captures every layer's input; all record
        // spans, and each layer's time is the median over the replays.
        let mut replayed = vec![0.0f32; classes * n];
        let mut inputs = Vec::new();
        let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        // Request ids no workload window uses, distinct per shape.
        let first_request = 1_000_000 * n as u64;
        let mut tt = tracer.thread(9);
        for rep in 0..effort.reps {
            let request = first_request + rep as u64;
            let replay = replay_forward(
                net,
                &data,
                n,
                &mut ws,
                &mut replayed,
                Some((&mut tt, request)),
                rep == 0,
            );
            correct &= logits_match(&replayed, &direct);
            for (b, image_logits) in replayed.chunks_exact(classes).enumerate() {
                correct &= logits_match(image_logits, &model.a.expected[b]);
            }
            if rep == 0 {
                inputs = replay.inputs;
            }
            for (samples, &ns) in per_layer.iter_mut().zip(&replay.layer_ns) {
                samples.push(ns as f64 / 1e3);
            }
        }
        drop(tt); // merges the replay spans into the tracer
        let layer_us: Vec<f64> = per_layer.iter().map(|s| median(s)).collect();

        let (mut pool_us, mut relu_us) = (0.0, 0.0);
        let (mut conv_us, mut conv_kernels_us) = (0.0, 0.0);
        for (i, layer) in net.layers().iter().enumerate() {
            let Some(gemm_shape) = GemmShape::of(layer) else {
                match layer {
                    QLayer::Pool { .. } => pool_us += layer_us[i],
                    _ => relu_us += layer_us[i],
                }
                continue;
            };
            let name = &names[i];
            m.push((format!("accel.{name}.{shape}_us"), layer_us[i]));
            let mut probe = KernelProbe::new(layer, &inputs[i], n);
            let is_conv = matches!(layer, QLayer::Conv(_));
            let im2col_us = if is_conv { time_us(effort, || probe.im2col(&mut ws)) } else { 0.0 };
            let qgemm_us = time_us(effort, || probe.qgemm(&mut ws));
            m.push((format!("tensor.qgemm.{name}.{shape}_us"), qgemm_us));
            if is_conv {
                m.push((format!("tensor.im2col.{name}.{shape}_us"), im2col_us));
                conv_us += layer_us[i];
                conv_kernels_us += im2col_us + qgemm_us;
            }
            if n == 8 {
                m.push((format!("tensor.qgemm.{name}.macs"), gemm_shape.macs() as f64));
                m.push((format!("tensor.qgemm.{name}.bytes"), gemm_shape.bytes() as f64));
                let gmacs = gemm_shape.macs() as f64 * n as f64 / (qgemm_us * 1e3);
                m.push((format!("tensor.qgemm.{name}.gmacs_per_s_b8"), gmacs));
            }
        }
        if n == 8 {
            m.push(("accel.pool.b8_us".into(), pool_us));
            m.push(("accel.relu.b8_us".into(), relu_us));
            m.push(("accel.conv_self_share".into(), (conv_us - conv_kernels_us) / conv_us));
            // Forward minus its layers — input quantize + interleave and
            // the final dequantize — as the self time of the replays'
            // `core.forward` spans.
            let spans = tracer.spans();
            let replays = first_request..first_request + effort.reps as u64;
            let self_us: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "core.forward" && replays.contains(&s.request))
                .map(|s| self_time_ns(&spans, s.id) as f64 / 1e3)
                .collect();
            m.push(("core.forward_self.b8_us".into(), median(&self_us)));
        }
    }
    correct
}

/// `tensor.qgemm.256_ms`, `tensor.gemm_f32.256_ms` and their ratio: the
/// packed shift kernel against the float GEMM at the same 256³ MAC
/// volume (ROADMAP's 2.7–3.1 ms vs 2.03 ms comparison).
pub fn gemm_256_metrics(effort: Effort, m: &mut Metrics) {
    let n = 256usize;
    let mut rng = TensorRng::seed_from(42);
    let weights = rng.gaussian([n, n], 0.0, 0.5);
    let w = PackedPow2Matrix::from_f32(n, n, weights.as_slice()).expect("square weights pack");
    let xt: Vec<i8> = (0..n * n).map(|_| rng.index(256) as u8 as i8).collect();
    let bias = vec![0i64; n];
    let mut out = vec![0i8; n * n];
    let q_us = time_us(effort, || {
        qgemm_fused_into_i8(&w, 0, n, &xt, n, 1, &bias, 14, 4, &mut out).expect("256³ product");
    });
    let (a, b) = (rng.gaussian([n, n], 0.0, 1.0), rng.gaussian([n, n], 0.0, 1.0));
    let f_us = time_us(effort, || {
        black_box(gemm(&a, Transpose::No, &b, Transpose::No).expect("256³ product"));
    });
    m.push(("tensor.qgemm.256_ms".into(), q_us / 1e3));
    m.push(("tensor.gemm_f32.256_ms".into(), f_us / 1e3));
    m.push(("tensor.qgemm_vs_f32".into(), q_us / f_us));
}

/// `core.*` image-format metrics, `dfp.crc32_mb_per_s`,
/// `core.reference_forward_ms`.
pub fn image_metrics(model: &Model, effort: Effort, m: &mut Metrics) {
    let net = &model.a.net;
    let image = &model.a.image;
    m.push((
        "core.image_open_us".into(),
        time_us(effort, || {
            black_box(ImageView::open(Arc::clone(image)).expect("own image verifies"));
        }),
    ));
    let view = ImageView::open(Arc::clone(image)).expect("own image verifies");
    m.push((
        "core.from_image_us".into(),
        time_us(effort, || {
            black_box(QuantizedNet::from_image(&view).expect("own image loads"));
        }),
    ));
    m.push((
        "core.to_image_us".into(),
        time_us(effort, || {
            black_box(to_image(net));
        }),
    ));
    let load_us = time_us(effort, || {
        let registry = ModelRegistry::new();
        black_box(registry.load_zoo(Arc::clone(&model.zoo)).expect("own zoo image loads"));
    });
    m.push(("core.load_zoo_ms".into(), load_us / 1e3));
    let bytes = image.as_slice();
    let crc_us = time_us(effort, || {
        black_box(crc32(black_box(bytes)));
    });
    m.push(("dfp.crc32_mb_per_s".into(), bytes.len() as f64 / crc_us));
    // The decode oracle is slow by design: time single calls.
    let once = Effort { batch: Duration::ZERO, ..effort };
    let reference_us = time_us(once, || {
        black_box(oracle_logits(net, &model.pool[0]));
    });
    m.push(("core.reference_forward_ms".into(), reference_us / 1e3));
}

/// `serve.queue.*`, `serve.http.*` codec, admission, registry, snapshot,
/// swap flip, lifecycle, and the in-process vs HTTP round trip on a
/// server of its own (so the workload's server counters stay clean).
pub fn serve_metrics(model: &Model, effort: Effort, m: &mut Metrics) {
    // Queue: the linger a lone request pays, and the bare push+pop.
    let queue: BoundedQueue<u32> = BoundedQueue::new(16);
    let config = ServeConfig::default();
    let once = Effort { batch: Duration::ZERO, ..effort };
    m.push((
        "serve.queue.linger_us".into(),
        time_us(once, || {
            queue.try_push(1).expect("empty queue accepts");
            black_box(queue.pop_batch(config.max_batch, config.max_wait));
        }),
    ));
    m.push((
        "serve.queue.push_pop_us".into(),
        time_us(effort, || {
            queue.try_push(1).expect("empty queue accepts");
            black_box(queue.pop_batch(1, Duration::ZERO));
        }),
    ));

    // HTTP codec, on the workload's real bytes.
    let image = &model.pool[0];
    let body = format_f32_array(image.as_slice());
    let path = format!("/v1/infer/{}", model.name());
    let request = infer_request(model.name(), image);
    let http_config = HttpConfig::default();
    for (name, us) in [
        (
            "serve.http.encode_us",
            time_us(effort, || {
                black_box(encode_request("POST", &path, &[], body.as_bytes()));
            }),
        ),
        (
            "serve.http.parse_request_us",
            time_us(effort, || {
                black_box(parse_request(&request, &http_config).expect("own request parses"));
            }),
        ),
        (
            "serve.http.parse_f32_us",
            time_us(effort, || {
                black_box(parse_f32_array(body.as_bytes()).expect("own body parses"));
            }),
        ),
        (
            "serve.http.format_f32_us",
            time_us(effort, || {
                black_box(format_f32_array(image.as_slice()));
            }),
        ),
    ] {
        m.push((name.into(), us));
    }

    // Lifecycle: start and shutdown of a default server.
    let mut start_us = Vec::new();
    let mut shutdown_us = Vec::new();
    for _ in 0..effort.reps {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(model.name(), model.a.net.clone());
        let t0 = Instant::now();
        let server = Server::start(registry, ServeConfig::default()).expect("default config");
        let t1 = Instant::now();
        server.shutdown();
        start_us.push((t1 - t0).as_secs_f64() * 1e6);
        shutdown_us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    m.push(("serve.start_ms".into(), median(&start_us) / 1e3));
    m.push(("serve.shutdown_ms".into(), median(&shutdown_us) / 1e3));

    // A probe server: admission, registry, snapshot, swap flip, and the
    // two round trips with the same clients and the same model.
    let server = start_server(model);
    m.push((
        "serve.registry.get_us".into(),
        time_us(effort, || {
            black_box(server.registry().get_versioned(model.name()).expect("registered"));
        }),
    ));
    m.push((
        "serve.metrics_snapshot_us".into(),
        time_us(effort, || {
            black_box(server.metrics());
        }),
    ));
    let served = server.registry().get(model.name()).expect("registered");
    m.push((
        "serve.swap_flip_us".into(),
        time_us(effort, || {
            black_box(server.swap_model(model.name(), served.clone()).expect("registered"));
        }),
    ));

    let mut submit_us = Vec::new();
    let inproc = merge_clients(
        effort.loop_len,
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..HTTP_CLIENTS)
                .map(|c| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut submits = Vec::new();
                        let window = closed_loop(Instant::now(), effort.loop_len, || {
                            let call = inproc_call(server, model, c, SubmitOptions::default());
                            submits.push((call.submit_end - call.submit_start).as_secs_f64() * 1e6);
                            (call.outcome, Some(call.wait_end - call.submit_start))
                        });
                        (window, submits)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (window, submits) = h.join().expect("probe client");
                    submit_us.extend(submits);
                    window
                })
                .collect()
        }),
    );
    let http = HttpServer::bind(Arc::clone(&server), "127.0.0.1:0", HttpConfig::default())
        .expect("loopback bind");
    let over_http = merge_clients(
        effort.loop_len,
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..HTTP_CLIENTS)
                .map(|c| {
                    let addr = http.local_addr();
                    scope.spawn(move || {
                        let mut conn = Connection::open(addr).expect("loopback connect");
                        let request = infer_request(model.name(), &model.pool[c]);
                        closed_loop(Instant::now(), effort.loop_len, || {
                            http_call(&mut conn, &request, &model.a.expected[c], None)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("probe client")).collect()
        }),
    );
    http.shutdown();
    let inproc_p50 = percentile(&sorted(inproc.latencies_ms), 0.5) * 1e3;
    let http_p50 = percentile(&sorted(over_http.latencies_ms), 0.5) * 1e3;
    m.push(("serve.submit_us".into(), median(&submit_us)));
    m.push(("serve.inproc_roundtrip_p50_us".into(), inproc_p50));
    m.push(("serve.http.hop_us".into(), http_p50 - inproc_p50));
}

/// `rt.*` and `obs.span_ns`: recorded so that enabling the pool or the
/// flight recorder by default shows up here first.
pub fn runtime_metrics(effort: Effort, m: &mut Metrics) {
    let pool = mfdfp_rt::ThreadPool::with_threads(2);
    let mut slot = 0u64;
    m.push((
        "rt.scope_dispatch_us".into(),
        time_us(effort, || {
            pool.scope(|scope| scope.spawn(|| slot = black_box(slot + 1)));
        }),
    ));
    m.push(("rt.tasks_run".into(), mfdfp_rt::global_stats().tasks_run as f64));
    let span_us = time_us(effort, || {
        let _span = mfdfp_obs::span!("perfbench.probe", 1);
    });
    m.push(("obs.span_ns".into(), span_us * 1e3));
}
