//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from here (`harness manifest`) and a test
//! holds the two equal, so the names a run emits and the names the
//! manifest promises cannot drift apart.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// Timed windows per phase. End-to-end values pool the samples of all of
/// them (see `stats::floor`); each window's own median rides along as
/// context.
pub const WINDOWS: usize = 5;

/// A named workload and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name later issues refer to.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "offline_cifar",
        why: "datapath-bound: one thread runs cifar10_quick at fused B=8 and at B=1; tensor and accel do all the work, serve none, so a kernel change that pays for one shape with the other shows",
    },
    WorkloadSpec {
        name: "http_closed_small",
        why: "serve-overhead-bound: 2 keep-alive HTTP connections, closed loop, small model; batch linger and the HTTP hop dominate and the datapath is under 15%, so kernel changes should not move it",
    },
    WorkloadSpec {
        name: "open_cifar",
        why: "open loop at 40, 120 and 1000 req/s on cifar10_quick: arrivals, not clients, form the batches; low isolates linger + B=1, mid is where batches form, over measures capacity and shedding",
    },
    WorkloadSpec {
        name: "swap_under_load",
        why: "writes beside reads: one closed-loop client on cifar10_quick while weights are hot-swapped at 10 Hz from image bytes (CRC, from_image, swap_model); work moved into load time shows here",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name; every workload emits every one.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. What each one measures on each workload is
/// tabulated in the README ("End-to-end metrics").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "throughput_rps", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "latency_floor_ms", unit: "ms", higher_is_better: false, bound: 0.20 },
    EndToEnd { name: "swap_floor_ms", unit: "ms", higher_is_better: false, bound: 0.10 },
    EndToEnd {
        name: "cold_first_logit_floor_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer metric. No bound: these explain, they do not gate.
pub struct PerLayer {
    /// `<module>.<what>` name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
}

/// The weighted layers of both benchmark models, in network order.
pub const LAYERS: [&str; 5] = ["conv1", "conv2", "conv3", "ip1", "ip2"];

/// Batch shapes the layer probes run at.
pub const SHAPES: [(&str, usize); 2] = [("b1", 1), ("b8", 8)];

/// The per-layer metrics, grouped by the module they measure.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, higher_is_better: bool| {
        out.push(PerLayer { name, unit, higher_is_better });
    };
    // tensor: the two kernels, per layer and batch shape, with computed
    // work and traffic.
    for layer in LAYERS {
        for (shape, _) in SHAPES {
            add(format!("tensor.qgemm.{layer}.{shape}_us"), "us", false);
            if layer.starts_with("conv") {
                add(format!("tensor.im2col.{layer}.{shape}_us"), "us", false);
            }
        }
        add(format!("tensor.qgemm.{layer}.macs"), "count", false);
        add(format!("tensor.qgemm.{layer}.bytes"), "count", false);
        add(format!("tensor.qgemm.{layer}.gmacs_per_s_b8"), "GMAC/s", true);
    }
    add("tensor.qgemm.256_ms".into(), "ms", false);
    add("tensor.gemm_f32.256_ms".into(), "ms", false);
    add("tensor.qgemm_vs_f32".into(), "ratio", false);
    // accel: each layer's public batch entry.
    for layer in LAYERS {
        for (shape, _) in SHAPES {
            add(format!("accel.{layer}.{shape}_us"), "us", false);
        }
    }
    add("accel.pool.b8_us".into(), "us", false);
    add("accel.relu.b8_us".into(), "us", false);
    add("accel.conv_self_share".into(), "share", false);
    // core: whole forward, image format, registry load.
    for (name, unit) in [
        ("core.forward.b8_ms", "ms"),
        ("core.forward.b1_ms", "ms"),
        ("core.forward_self.b8_us", "us"),
        ("core.reference_forward_ms", "ms"),
        ("core.image_open_us", "us"),
        ("core.from_image_us", "us"),
        ("core.to_image_us", "us"),
        ("core.load_zoo_ms", "ms"),
    ] {
        add(name.into(), unit, false);
    }
    add("dfp.crc32_mb_per_s".into(), "MB/s", true);
    // serve: stages and counters from Server::metrics(), queue, HTTP
    // codec, admission, lifecycle.
    for (name, unit, higher) in [
        ("serve.stage.queue_wait_us", "us", false),
        ("serve.stage.infer_us", "us", false),
        ("serve.stage.respond_us", "us", false),
        ("serve.batch_mean", "count", true),
        ("serve.batch_mean_over", "count", true),
        ("serve.submitted", "count", true),
        ("serve.completed", "count", true),
        ("serve.failed", "count", false),
        ("serve.shed", "count", false),
        ("serve.rejected", "count", false),
        ("serve.queue.linger_us", "us", false),
        ("serve.queue.push_pop_us", "us", false),
        ("serve.http.encode_us", "us", false),
        ("serve.http.parse_request_us", "us", false),
        ("serve.http.parse_f32_us", "us", false),
        ("serve.http.format_f32_us", "us", false),
        ("serve.inproc_roundtrip_p50_us", "us", false),
        ("serve.http.hop_us", "us", false),
        ("serve.submit_us", "us", false),
        ("serve.registry.get_us", "us", false),
        ("serve.metrics_snapshot_us", "us", false),
        ("serve.swap_flip_us", "us", false),
        ("serve.start_ms", "ms", false),
        ("serve.shutdown_ms", "ms", false),
        ("rt.scope_dispatch_us", "us", false),
        ("rt.tasks_run", "count", true),
        ("obs.span_ns", "ns", false),
    ] {
        add(name.into(), unit, higher);
    }
    // client: what the load generator saw, including the tails and the
    // phases that are deliberately not gated.
    for (name, unit, higher) in [
        ("client.attempted", "count", true),
        ("client.ok", "count", true),
        ("client.refused", "count", false),
        ("client.shed", "count", false),
        ("client.late", "count", false),
        ("client.wrong", "count", false),
        ("client.failed_share", "share", false),
        ("client.failed_share_over", "share", false),
        ("client.goodput_rps_over", "1/s", true),
        ("client.latency_p50_ms", "ms", false),
        ("client.latency_p50_ms_mid", "ms", false),
        ("client.latency_p95_ms", "ms", false),
        ("client.swap_ms_p50", "ms", false),
        ("client.cold_first_logit_ms_p50", "ms", false),
        ("client.throughput_rps_median_window", "1/s", true),
        ("client.latency_tail_ms", "ms", false),
        ("client.latency_tail_q", "share", true),
        ("client.latency_samples", "count", true),
        ("client.latency_max_ms", "ms", false),
        ("gen.lateness_p99_us", "us", false),
        ("host.nproc", "count", true),
        ("host.timer_ns", "ns", false),
        ("host.ref_kernel_ns", "ns", false),
        ("host.ref_kernel_spread", "share", false),
        ("host.throughput_per_ref", "ratio", true),
        ("trace.overhead_share", "share", false),
        ("trace.spans", "count", true),
    ] {
        add(name.into(), unit, higher);
    }
    out
}

fn direction(higher_is_better: bool) -> Json {
    Json::str(if higher_is_better { "higher" } else { "lower" })
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::strs([
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--bin",
                "harness",
                "--",
            ]),
        ),
        ("paths", Json::strs(["perfbench"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", direction(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", direction(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
