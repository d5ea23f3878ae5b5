//! Convolution throughput: float im2col+GEMM forward vs the bit-accurate
//! integer shift datapath on the same geometry, plus serial-vs-parallel
//! comparisons for the GEMM and batched-conv hot paths (the threaded
//! kernels engage when the pool width, `MFDFP_THREADS`, is ≥ 2).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mfdfp_accel::ShiftConv;
use mfdfp_dfp::PackedPow2Matrix;
use mfdfp_tensor::{
    conv2d_forward, conv2d_forward_serial, gemm, gemm_serial, ConvGeometry, Tensor, TensorRng,
    Transpose,
};

/// The acceptance case for the parallel path: a 256×256×256 product.
fn bench_gemm_256(c: &mut Criterion) {
    let n = 256;
    let mut rng = TensorRng::seed_from(7);
    let a = rng.uniform([n, n], -1.0, 1.0);
    let b = rng.uniform([n, n], -1.0, 1.0);

    let mut group = c.benchmark_group("gemm_256");
    group.throughput(Throughput::Elements((n * n * n) as u64));

    group.bench_function("serial", |bch| {
        bch.iter(|| {
            black_box(gemm_serial(black_box(&a), Transpose::No, &b, Transpose::No).expect("gemm"))
        })
    });

    // Dispatches to the row-parallel kernel on a pool ≥ 2 wide; at
    // width 1 it is the serial kernel again (baseline parity).
    group.bench_function("dispatch", |bch| {
        bch.iter(|| black_box(gemm(black_box(&a), Transpose::No, &b, Transpose::No).expect("gemm")))
    });

    group.bench_function("parallel", |bch| {
        bch.iter(|| {
            black_box(
                mfdfp_tensor::gemm_parallel(black_box(&a), Transpose::No, &b, Transpose::No)
                    .expect("gemm"),
            )
        })
    });

    group.finish();
}

/// Batched conv forward: the batch-parallel path vs the serial loop.
fn bench_conv_batch(c: &mut Criterion) {
    let g = ConvGeometry::new(8, 16, 16, 16, 3, 1, 1).expect("geometry");
    let batch = 16;
    let mut rng = TensorRng::seed_from(11);
    let x = rng.gaussian([batch, g.in_c, g.in_h, g.in_w], 0.0, 0.5);
    let w = rng.he([g.out_c, g.in_c, g.kernel, g.kernel], g.col_height());
    let bias = Tensor::zeros([g.out_c]);

    let mut group = c.benchmark_group("conv_forward_batch16");
    group.throughput(Throughput::Elements((batch * g.macs()) as u64));

    group.bench_function("serial", |b| {
        b.iter(|| black_box(conv2d_forward_serial(black_box(&x), &w, &bias, &g).expect("conv")))
    });

    group.bench_function("dispatch", |b| {
        b.iter(|| black_box(conv2d_forward(black_box(&x), &w, &bias, &g).expect("conv")))
    });

    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(
                mfdfp_tensor::conv2d_forward_parallel(black_box(&x), &w, &bias, &g).expect("conv"),
            )
        })
    });

    group.finish();
}

fn bench(c: &mut Criterion) {
    // A mid-size layer: 16×16×16 input, 16 kernels of 5×5.
    let g = ConvGeometry::new(16, 16, 16, 16, 5, 1, 2).expect("geometry");
    let mut rng = TensorRng::seed_from(3);
    let x = rng.gaussian([1, g.in_c, g.in_h, g.in_w], 0.0, 0.5);
    let w = rng.he([g.out_c, g.in_c, g.kernel, g.kernel], g.col_height());
    let bias = Tensor::zeros([g.out_c]);

    let mut group = c.benchmark_group("conv_forward");

    group.bench_function("float_im2col_gemm", |b| {
        b.iter(|| black_box(conv2d_forward(black_box(&x), &w, &bias, &g).expect("conv")))
    });

    let shift = ShiftConv {
        geom: g,
        weights: PackedPow2Matrix::from_f32(g.out_c, g.col_height(), w.as_slice())
            .expect("packed weights"),
        bias: vec![0; g.out_c].into(),
        in_frac: 7,
        out_frac: 5,
    };
    let codes: Vec<i8> = x
        .index_axis0(0)
        .as_slice()
        .iter()
        .map(|&v| (v * 128.0).clamp(-128.0, 127.0) as i8)
        .collect();
    // Since PR 3 this measures the packed shift-only qgemm path; the
    // decode-based datapath baseline lives in benches/qgemm.rs.
    group.bench_function("integer_shift_datapath", |b| {
        b.iter(|| black_box(shift.run(black_box(&codes)).expect("shift conv")))
    });

    group.finish();
}

criterion_group!(benches, bench, bench_gemm_256, bench_conv_batch);
criterion_main!(benches);
