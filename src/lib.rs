//! # mfdfp — umbrella crate for the MF-DFP reproduction
//!
//! Re-exports every subsystem of the Rust reproduction of
//! *"Hardware-Software Codesign of Accurate, Multiplier-free Deep Neural
//! Networks"* (Tann, Hashemi, Bahar, Reda — DAC 2017) under one roof:
//!
//! * [`tensor`] — dense `f32` tensors, GEMM, convolution, pooling.
//! * [`dfp`] — dynamic fixed-point + power-of-two numerics and shift
//!   arithmetic.
//! * [`nn`] — the float DNN training framework (layers, backprop, SGD,
//!   distillation loss).
//! * [`data`] — deterministic synthetic stand-ins for CIFAR-10 / ImageNet.
//! * [`accel`] — the multiplier-free accelerator model (cycles, area,
//!   power, energy) and its FP32 baseline.
//! * [`core`] — the paper's pipeline: quantization, Phase 1–3 fine-tuning,
//!   ensembles, integer-only inference.
//! * [`serve`] — dynamic-batching serving runtime: model registry, bounded
//!   request queue with backpressure, micro-batcher worker pool, metrics.
//! * [`rt`] — the persistent work-sharing thread-pool runtime the tensor
//!   kernels and the serving dispatch share (lazy global pool, scoped
//!   fork-join, pool stats).
//! * [`obs`] — flight-recorder observability: per-thread span rings,
//!   datapath op counters and a Chrome/Perfetto trace exporter, live in
//!   every build.
//!
//! See `README.md` for the quickstart, `ARCHITECTURE.md` for the crate
//! map, and `PAPER_MAP.md` for the paper-section → code mapping.

pub use mfdfp_accel as accel;
pub use mfdfp_core as core;
pub use mfdfp_data as data;
pub use mfdfp_dfp as dfp;
pub use mfdfp_nn as nn;
pub use mfdfp_obs as obs;
pub use mfdfp_rt as rt;
pub use mfdfp_serve as serve;
pub use mfdfp_tensor as tensor;
