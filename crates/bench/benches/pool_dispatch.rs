//! Dispatch-cost microbenchmarks for the persistent `mfdfp-rt` pool —
//! the numbers that justify the PR-4 runtime: a pool dispatch (an
//! enqueue and a wake) versus the per-call `std::thread::scope`
//! spawn/join it replaced, and the small-matrix GEMM sizes the lowered
//! `MIN_MACS` threshold newly lets fan out.
//!
//! On the 1-CPU CI container the pool runs at width 1 (fan-out
//! disabled, dispatchers fall back to serial kernels), so `scope_noop`
//! there measures pure scope bookkeeping and the GEMM rows measure the
//! serial kernels; on multi-core hosts `scope_noop` vs
//! `thread_scope_noop` is the spawn-free dispatch claim, directly.
//!
//! Results are recorded in `BENCH_gemm.json` runs; regenerate with
//! `CRITERION_SHIM_OUT=path cargo bench -p mfdfp-bench --bench
//! pool_dispatch`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mfdfp_tensor::{gemm, Tensor, Transpose};

/// Fan out `width` trivial tasks on the persistent pool, once.
fn bench_pool_scope(c: &mut Criterion) {
    let pool = mfdfp_rt::global();
    let width = pool.threads();
    let mut group = c.benchmark_group("pool_dispatch");
    group.bench_function("scope_noop", |b| {
        b.iter(|| {
            pool.scope(|s| {
                for _ in 0..width {
                    s.spawn(|| {
                        black_box(());
                    });
                }
            });
        });
    });
    // The spawn/join alternative this runtime retired, at equal fan-out.
    group.bench_function("thread_scope_noop", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for _ in 0..width {
                    s.spawn(|| {
                        black_box(());
                    });
                }
            });
        });
    });
    group.finish();
}

/// Small square GEMMs around the lowered dispatch threshold
/// (`MIN_MACS = 1 << 17` = 131 k MACs): 64³ (262 k) and 96³ (885 k)
/// newly qualify for fan-out on multi-core hosts (both sat below the
/// old `1 << 20` bound), while 128³ (2 M) qualified under both — the
/// continuity anchor against the PR-1/PR-3 trajectory.
fn bench_small_gemm(c: &mut Criterion) {
    for n in [64usize, 96, 128] {
        let a = Tensor::from_fn(vec![n, n], |i| ((i * 31 % 101) as f32 - 50.0) / 25.0);
        let b = Tensor::from_fn(vec![n, n], |i| ((i * 17 % 97) as f32 - 48.0) / 24.0);
        let mut group = c.benchmark_group(&format!("gemm_{n}"));
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_function("dispatch", |bch| {
            bch.iter(|| {
                let c = gemm(black_box(&a), Transpose::No, black_box(&b), Transpose::No).unwrap();
                black_box(c);
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_pool_scope, bench_small_gemm);
criterion_main!(benches);
