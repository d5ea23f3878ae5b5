//! Allocation-regression tests for the zero-allocation inference
//! contract: a **warmed** workspace pass over the packed quantized
//! datapath must perform *zero* heap allocations — the software
//! equivalent of the paper's fixed-buffer Figure 2(a) pipeline, and the
//! property that keeps steady-state serving traffic off the allocator.
//!
//! Mechanism: this test binary installs a counting [`GlobalAlloc`] that
//! increments a **per-thread** counter on every `alloc`/`realloc`/
//! `alloc_zeroed`. Per-thread counting makes the assertions immune to
//! libtest harness threads allocating concurrently; it also measures
//! exactly the right thing, because the zero-allocation contract is a
//! per-thread property (each worker owns its workspace).
//!
//! Scope of the contract, as documented in ARCHITECTURE.md:
//!
//! * the packed forward (`logits_batch_into`), at batch 1 and fused,
//!   over owned and image-backed weights, is strictly allocation-free
//!   once warm — asserted here at zero;
//! * the serving dispatch *compute* (batch staging + inference, what
//!   `dispatch_group` runs between popping a batch and materialising
//!   responses) is allocation-free once warm — asserted here at zero;
//! * response materialisation (the per-ticket logits `Tensor`, channel
//!   send) and engaging the thread pool (O(threads) task boxes per
//!   dispatch) allocate by design: those buffers leave the worker or
//!   coordinate other threads. They are excluded by construction below
//!   (single-model batches never engage the pool, and the models sit
//!   under the parallel kernel's work threshold), so the assertions hold
//!   at every pool width — CI runs this file at the default width and
//!   under `MFDFP_THREADS=4`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_nn::zoo;
use mfdfp_serve::ServedModel;
use mfdfp_tensor::{qgemm_fused_into_i8, Tensor, TensorRng};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocator hits (and bytes requested), then
/// delegates to [`System`]. `try_with` keeps the allocator safe during
/// TLS teardown.
struct CountingAllocator;

fn count(bytes: usize) {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System`; the TLS bump performs no
// allocation itself (`Cell<u64>` is const-initialised, no destructor).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocator hits on the *current thread* while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let result = f();
    let after = THREAD_ALLOCS.with(Cell::get);
    (after - before, result)
}

/// Allocator hits *and bytes requested* on the current thread while `f`
/// runs.
fn allocation_bytes<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let before_bytes = THREAD_BYTES.with(Cell::get);
    let result = f();
    let after = THREAD_ALLOCS.with(Cell::get);
    let after_bytes = THREAD_BYTES.with(Cell::get);
    (after - before, after_bytes - before_bytes, result)
}

/// A small calibrated conv net (3×16×16 → 10 classes). Every layer sits
/// below the parallel kernel's MIN_MACS threshold, so the forward stays
/// on the calling thread at every pool width — which is exactly the
/// regime the strict zero-allocation contract covers.
fn quantized_net(seed: u64) -> (QuantizedNet, Tensor) {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
    let batch = rng.gaussian([2, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(batch.clone(), vec![0, 1])], 8).unwrap();
    (QuantizedNet::from_network(&net, &plan).unwrap(), batch)
}

/// A wider calibrated net whose packed payload (tens of KiB) dwarfs the
/// per-layer struct overhead — the regime where byte-counting cleanly
/// separates a zero-copy deserialiser from a copying one.
fn wide_quantized_net(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(3, 16, [16, 16, 32], 64, 10, &mut rng).unwrap();
    let batch = rng.gaussian([2, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(batch, vec![0, 1])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

/// Packed weight + bias bytes a copying deserialiser would have to clone.
fn payload_bytes(net: &QuantizedNet) -> u64 {
    net.layers()
        .iter()
        .map(|l| match l {
            mfdfp_core::QLayer::Conv(c) => (c.weights.as_bytes().len() + 8 * c.bias.len()) as u64,
            mfdfp_core::QLayer::Linear(l) => (l.weights.as_bytes().len() + 8 * l.bias.len()) as u64,
            _ => 0,
        })
        .sum()
}

#[test]
fn warm_qgemm_i8_kernel_is_allocation_free() {
    let mut rng = TensorRng::seed_from(7);
    let raw = rng.gaussian([32 * 32], 0.0, 0.3);
    let w = mfdfp_dfp::PackedPow2Matrix::from_f32(32, 32, raw.as_slice()).unwrap();
    let xt: Vec<i8> = (0..32 * 32).map(|i| (i % 251) as i8).collect();
    let bias = vec![0i64; 32];
    let mut out = vec![0i8; 32 * 32];
    // The kernel itself has nothing to warm (its buckets and accumulator
    // lanes are stack arrays); the first call only takes one-time state
    // out of the measured loop — a thread's first span takes its ring.
    qgemm_fused_into_i8(&w, 0, 32, &xt, 32, 1, &bias, 13, 4, &mut out).unwrap();
    let (allocs, ()) = allocations(|| {
        for _ in 0..10 {
            qgemm_fused_into_i8(
                black_box(&w),
                0,
                32,
                black_box(&xt),
                32,
                1,
                &bias,
                13,
                4,
                black_box(&mut out),
            )
            .unwrap();
        }
    });
    assert_eq!(allocs, 0, "warmed qgemm_fused_into_i8 must not touch the heap");
}

#[test]
fn warm_logits_batch_into_is_allocation_free() {
    let (qnet, batch) = quantized_net(22);
    let img = batch.index_axis0(0);
    let mut ws = qnet.plan_for_batch(1).workspace();
    let mut out = vec![0.0f32; qnet.classes()];
    // The planned workspace is already at its peaks; the warm-up pass
    // only takes one-time state (the thread's span ring) out of the
    // measured loop.
    qnet.logits_batch_into(img.as_slice(), 1, &mut ws, &mut out).unwrap();
    let (allocs, ()) = allocations(|| {
        for _ in 0..10 {
            qnet.logits_batch_into(black_box(img.as_slice()), 1, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(allocs, 0, "warmed logits_batch_into must not touch the heap");
    black_box(&out);
}

/// A deliberately narrow calibrated conv net (1×16×16 → 4 classes)
/// whose **fused** forward stays under the parallel kernel's MIN_MACS
/// threshold even at batch 8 (conv1 is 2 rows · 25 syn · 256 px =
/// 12 800 MACs/image, 8 × 12 800 = 102 400 < 2¹⁷ — `quantized_net`'s
/// 75-synapse conv1 is 76 800 MACs/image and would cross it at batch
/// 2 and engage the pool). That keeps the whole batched forward on the
/// calling thread at every pool width, which is the regime the strict
/// zero-allocation assertions cover.
fn small_quantized_net(seed: u64) -> QuantizedNet {
    let mut rng = TensorRng::seed_from(seed);
    let mut net = zoo::quick_custom(1, 16, [2, 2, 4], 8, 4, &mut rng).unwrap();
    let batch = rng.gaussian([2, 1, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(batch, vec![0, 1])], 8).unwrap();
    QuantizedNet::from_network(&net, &plan).unwrap()
}

#[test]
fn warm_fused_batch_forward_is_allocation_free() {
    // The batch-fused contract: one im2col + one qgemm per layer per
    // *batch*, with every staging buffer drawn from a batch-sized plan —
    // zero heap traffic once warm.
    let qnet = small_quantized_net(26);
    let mut rng = TensorRng::seed_from(26);
    let batch = rng.gaussian([4, 1, 16, 16], 0.0, 0.7);
    let mut ws = qnet.plan_for_batch(4).workspace();
    let mut out = vec![0.0f32; 4 * qnet.classes()];
    qnet.logits_batch_into(batch.as_slice(), 4, &mut ws, &mut out).unwrap();
    let (allocs, ()) = allocations(|| {
        for _ in 0..10 {
            qnet.logits_batch_into(black_box(batch.as_slice()), 4, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(allocs, 0, "warmed batch-fused logits_batch_into must not touch the heap");
    black_box(&out);
}

#[test]
fn batched_plan_serves_smaller_batches_without_reallocating() {
    // A workspace sized by `plan_for_batch(8)` — what a serving worker
    // builds for its coalescing limit — must absorb every batch size
    // 1..=8 with zero heap traffic once the thread lanes are warm.
    // (On models big enough to cross MIN_MACS, the fused dispatch on a
    // pool ≥ 2 wide engages the pool instead, whose per-dispatch task
    // boxes allocate by design — the documented exception; this net
    // stays serial at every width so the strict assertion applies.)
    let qnet = small_quantized_net(27);
    let per_image = 16 * 16; // one channel
    let mut rng = TensorRng::seed_from(27);
    let big = rng.gaussian([8, 1, 16, 16], 0.0, 0.7);
    let plan = qnet.plan_for_batch(8);
    let mut ws = plan.workspace();
    let mut out = vec![0.0f32; 8 * qnet.classes()];
    // Warm-up at the largest batch grows the thread's accumulator
    // lanes; the plan covers everything else up front.
    qnet.logits_batch_into(big.as_slice(), 8, &mut ws, &mut out).unwrap();
    for b in 1..=8usize {
        let (allocs, ()) = allocations(|| {
            qnet.logits_batch_into(
                black_box(&big.as_slice()[..b * per_image]),
                b,
                &mut ws,
                &mut out[..b * qnet.classes()],
            )
            .unwrap();
        });
        assert_eq!(allocs, 0, "batch {b} reallocated under a max_batch=8 plan");
    }
    assert!(ws.is_warm_for(&plan), "smaller batches must leave the workspace warm");
    black_box(&out);
}

#[test]
fn warm_serve_dispatch_compute_is_allocation_free() {
    // The steady-state work a serving worker performs per request, with
    // response materialisation excluded: stage the admitted image into
    // the batch buffer, run the batched inference through the model the
    // worker resolved at admission, read the logits row. This mirrors
    // `dispatch_group`'s compute (same entry point, same buffers) on a
    // warmed worker.
    let (qnet, batch) = quantized_net(23);
    let model: ServedModel = qnet.into();
    let img = batch.index_axis0(1);
    let classes = model.classes();
    // The worker's persistent scratch, as in serve's `WorkerScratch`:
    // batch staging + logits block + an owned inference workspace.
    let mut ws = model.plan_for_batch(1).workspace();
    let mut data: Vec<f32> = Vec::with_capacity(img.len());
    let mut logits = vec![0.0f32; classes];
    // Warm-up request.
    data.extend_from_slice(img.as_slice());
    model.logits_batch_into(&data, 1, &mut ws, &mut logits, model.len()).unwrap();
    let (allocs, ()) = allocations(|| {
        for _ in 0..10 {
            data.clear();
            data.extend_from_slice(black_box(img.as_slice()));
            model.logits_batch_into(&data, 1, &mut ws, &mut logits, model.len()).unwrap();
            black_box(&logits);
        }
    });
    assert_eq!(allocs, 0, "a warmed serve request's compute must not touch the heap");
}

#[test]
fn from_image_is_zero_copy_and_o_layers() {
    // The v2 flat-image contract: `QuantizedNet::from_image` borrows
    // every weight and bias payload from the image buffer, so building a
    // servable network costs O(layers) *small* allocations — layer
    // structs, the name, the adder tree — and crucially cannot allocate
    // anywhere near the payload size (which a copying deserialiser
    // must).
    let wide = wide_quantized_net(25);
    let image = std::sync::Arc::new(mfdfp_core::to_image(&wide));
    let payload = payload_bytes(&wide);
    let n_layers = wide.layers().len() as u64;

    let (allocs, bytes, _served_wide) = allocation_bytes(|| {
        let view = mfdfp_core::ImageView::open(std::sync::Arc::clone(&image)).unwrap();
        mfdfp_core::QuantizedNet::from_image(&view).unwrap()
    });
    assert!(
        allocs <= 6 * n_layers + 16,
        "from_image must be O(layers) small allocations ({n_layers} layers), saw {allocs}"
    );
    assert!(
        bytes < payload / 2,
        "from_image allocated {bytes} bytes against {payload} payload bytes — \
         weights or biases are being copied"
    );

    // …and an image-backed network honours the same warmed
    // zero-allocation forward contract as the owned one (asserted on the
    // small net, which stays under the parallel kernel's threshold).
    let (qnet, batch) = quantized_net(25);
    let view =
        mfdfp_core::ImageView::open(std::sync::Arc::new(mfdfp_core::to_image(&qnet))).unwrap();
    let served = mfdfp_core::QuantizedNet::from_image(&view).unwrap();
    let img = batch.index_axis0(0);
    let mut ws = served.plan_for_batch(1).workspace();
    let mut out = vec![0.0f32; served.classes()];
    served.logits_batch_into(img.as_slice(), 1, &mut ws, &mut out).unwrap();
    let (allocs, ()) = allocations(|| {
        for _ in 0..10 {
            served.logits_batch_into(black_box(img.as_slice()), 1, &mut ws, &mut out).unwrap();
            black_box(&out);
        }
    });
    assert_eq!(allocs, 0, "warmed forward over an image-backed net must not touch the heap");
}

#[test]
fn load_zoo_does_not_copy_payloads() {
    // Registry-level variant of the zero-copy proof: mapping a 3-model
    // zoo allocates far less than the summed payloads it serves.
    let nets: Vec<QuantizedNet> = (0..3).map(|i| wide_quantized_net(30 + i)).collect();
    let mut builder = mfdfp_core::ZooBuilder::new();
    for (i, net) in nets.iter().enumerate() {
        builder.push(&format!("m{i}"), net);
    }
    let image = std::sync::Arc::new(builder.finish());
    let payload: u64 = nets.iter().map(payload_bytes).sum();

    let registry = mfdfp_serve::ModelRegistry::new();
    let (_, bytes, names) = allocation_bytes(|| registry.load_zoo(image).unwrap());
    assert_eq!(names.len(), 3);
    assert!(
        bytes < payload / 2,
        "load_zoo allocated {bytes} bytes against {payload} payload bytes — \
         models are being copied out of the zoo image"
    );
}

/// The flight recorder's hot-path contract: once a thread's ring is
/// registered (the one-time warm-up allocation), recording spans and op
/// counts is strictly allocation-free — so the recorder, compiled into
/// every build, cannot perturb the zero-allocation inference contract
/// it observes.
#[test]
fn warm_spans_and_counters_allocate_nothing() {
    // Warm-up: the first event on a thread registers its ring.
    drop(mfdfp_obs::span!("alloc.warmup", 1));
    let (allocs, ()) = allocations(|| {
        for i in 0..256u64 {
            let _span = mfdfp_obs::span!("alloc.probe", i);
            mfdfp_obs::ops::record_shift_macs(1024);
            mfdfp_obs::ops::record_im2col_bytes(64);
            let t = mfdfp_obs::now_ns();
            mfdfp_obs::record_complete("alloc.manual", i, t, t + 1);
        }
    });
    assert_eq!(allocs, 0, "warm span/counter recording must not touch the heap");
}

#[test]
fn planned_workspace_first_pass_allocates_only_thread_lanes() {
    // The plan_for_batch() claim: with a pre-sized workspace, the only
    // first-pass allocations left are thread-resident, not per-model (the
    // span ring). A generous bound keeps this
    // robust while still catching any per-layer allocation creeping back in:
    // the seed net runs 3 convs + 2 linears + pools, so a regression to
    // per-call buffers would cost dozens of allocations.
    let (qnet, batch) = quantized_net(24);
    let img = batch.index_axis0(0);
    let mut ws = qnet.plan_for_batch(1).workspace();
    let mut out = vec![0.0f32; qnet.classes()];
    let (allocs, ()) =
        allocations(|| qnet.logits_batch_into(img.as_slice(), 1, &mut ws, &mut out).unwrap());
    assert!(
        allocs <= 6,
        "planned first pass should allocate at most thread-resident state, saw {allocs}"
    );
}
