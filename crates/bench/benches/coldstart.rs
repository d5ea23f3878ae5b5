//! Cold-start latency: model bytes on disk → first logit served. This is
//! the metric the v2 flat image exists for — a fleet worker mapping a
//! model (or a whole zoo) should pay validation + O(layers) bookkeeping,
//! not a payload decode.
//!
//! Two deserialisation paths over the same networks:
//!
//! * `v1_stream` — the PR-2 streaming format: unpack every nibble,
//!   re-pack into owned matrices, copy every bias;
//! * `v2_image` — `ImageView::open` + `QuantizedNet::from_image`:
//!   validate, then borrow payloads zero-copy from the aligned buffer.
//!
//! Plus `zoo_to_first_logit` over 1/3/8-model zoo images through
//! `ModelRegistry::load_zoo`, the serving cold-start end to end.
//!
//! Results are recorded in `BENCH_coldstart.json`; regenerate with
//! `CRITERION_SHIM_OUT=path cargo bench -p mfdfp-bench --bench coldstart`.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mfdfp_core::{calibrate, from_bytes, to_bytes, to_image, ImageView, QuantizedNet, ZooBuilder};
use mfdfp_dfp::AlignedBytes;
use mfdfp_nn::zoo;
use mfdfp_serve::ModelRegistry;
use mfdfp_tensor::{Tensor, TensorRng};

/// A deployment-shaped quantized net (3×16×16 input, 10 classes).
fn qnet(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 10, &mut rng).expect("topology");
    let batch = rng.gaussian([4, 3, 16, 16], 0.0, 0.6);
    let plan = calibrate(&mut net, &[(batch, vec![0usize; 4])], 8).expect("calibration");
    QuantizedNet::from_network(&net, &plan).expect("quantize")
}

fn test_image() -> Tensor {
    TensorRng::seed_from(99).gaussian([3, 16, 16], 0.0, 0.6)
}

/// Bytes → first logit for one model, both formats.
fn bench_model_coldstart(c: &mut Criterion) {
    let net = qnet(11);
    let v1 = to_bytes(&net);
    let v2 = Arc::new(to_image(&net));
    let img = test_image();

    let mut group = c.benchmark_group("model_to_first_logit");
    group.throughput(Throughput::Bytes(v1.len() as u64));
    group.bench_function("v1_stream", |b| {
        b.iter(|| {
            let net = from_bytes(black_box(&v1)).expect("v1 decode");
            black_box(net.logits(&img).expect("logits"))
        })
    });
    group.throughput(Throughput::Bytes(v2.len() as u64));
    group.bench_function("v2_image", |b| {
        b.iter(|| {
            let view = ImageView::open(Arc::clone(black_box(&v2))).expect("open");
            let net = QuantizedNet::from_image(&view).expect("from_image");
            black_box(net.logits(&img).expect("logits"))
        })
    });
    // Deserialise only (no forward): the pure open cost.
    group.bench_function("v1_stream_open_only", |b| {
        b.iter(|| black_box(from_bytes(black_box(&v1)).expect("v1 decode")))
    });
    group.bench_function("v2_image_open_only", |b| {
        b.iter(|| {
            let view = ImageView::open(Arc::clone(black_box(&v2))).expect("open");
            black_box(QuantizedNet::from_image(&view).expect("from_image"))
        })
    });
    group.finish();
}

/// Zoo image → registry → first logit from the last model, per zoo size.
fn bench_zoo_coldstart(c: &mut Criterion) {
    let img = TensorRng::seed_from(99).gaussian([1, 3, 16, 16], 0.0, 0.6);
    let mut group = c.benchmark_group("zoo_to_first_logit");
    for n_models in [1usize, 3, 8] {
        let mut builder = ZooBuilder::new();
        for i in 0..n_models {
            builder.push(&format!("m{i}"), &qnet(50 + i as u64));
        }
        let bytes: AlignedBytes = builder.finish();
        let zoo = Arc::new(bytes);
        group.throughput(Throughput::Bytes(zoo.len() as u64));
        group.bench_function(&format!("models_{n_models}"), |b| {
            b.iter(|| {
                let registry = ModelRegistry::new();
                let names = registry.load_zoo(Arc::clone(black_box(&zoo))).expect("load_zoo");
                let model = registry.get(names.last().expect("non-empty")).expect("get");
                let logits = model.logits_batch(&img).expect("logits");
                black_box(logits)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model_coldstart, bench_zoo_coldstart);
criterion_main!(benches);
