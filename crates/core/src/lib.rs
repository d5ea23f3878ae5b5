//! # mfdfp-core — the MF-DFP pipeline (the paper's contribution)
//!
//! Rust implementation of Algorithm 1 of *"Hardware-Software Codesign of
//! Accurate, Multiplier-free Deep Neural Networks"* (Tann, Hashemi, Bahar,
//! Reda — DAC 2017): mapping trained floating-point DNNs to 8-bit dynamic
//! fixed-point networks with integer power-of-two weights, **without
//! changing the architecture**.
//!
//! * [`calibrate`] / [`QuantizationPlan`] — Ristretto-style range analysis
//!   picking each layer's fractional length (line 2 of Algorithm 1).
//! * [`ShadowTrainer`] — Phase 1/2 fine-tuning with shadow weights
//!   (quantized forward, full-precision update) and optional
//!   student–teacher distillation.
//! * [`run_pipeline`] — the full Algorithm 1 with the paper's phase-switch
//!   heuristic (enter Phase 2 from a near-converged, non-optimal
//!   checkpoint) and plateau learning-rate protocol.
//! * [`QuantizedNet`] — the deployed artifact: 4-bit power-of-two weights,
//!   8-bit activations, integer-only inference through the accelerator's
//!   functional datapath (`mfdfp-accel`), bit-for-bit.
//! * [`Ensemble`] — Phase 3: logit-averaged ensembles of MF-DFP networks.
//! * [`memory_report`] — Table 3 parameter-memory accounting.
//!
//! # Examples
//!
//! ```no_run
//! use mfdfp_core::{run_pipeline, PipelineConfig};
//! use mfdfp_data::{Split, SynthSpec};
//! use mfdfp_nn::zoo;
//! use mfdfp_tensor::TensorRng;
//!
//! let split = Split::generate(&SynthSpec::cifar(100, 42), 20);
//! let mut rng = TensorRng::seed_from(0);
//! let float_net = zoo::cifar10_full(10, &mut rng)?;
//! // (train the float net first — see the examples/ directory)
//! let outcome = run_pipeline(float_net, &split.train, &split.test,
//!                            &PipelineConfig::paper_defaults())?;
//! println!("quantized top-1: {:.2}%", outcome.final_top1 * 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod analysis;
mod ensemble;
mod error;
pub mod image;
mod memory;
mod pipeline;
mod qnet;
mod quantize;
mod shadow;

pub use analysis::{exponent_histogram, quantization_errors, ExponentHistogram, LayerQuantError};
pub use ensemble::Ensemble;
pub use error::{CoreError, Result};
pub use image::{
    to_image, write_image_atomic, ImageView, ZooBuilder, ZooView, IMAGE_MAGIC, IMAGE_VERSION,
    ZOO_MAGIC,
};
pub use memory::{memory_report, MemoryReport, MIB};
pub use mfdfp_dfp::AlignedBytes;
pub use mfdfp_tensor::{Workspace, WorkspacePlan};
pub use pipeline::{run_pipeline, EpochPoint, PhaseTag, PipelineConfig, PipelineOutcome};
pub use qnet::{QLayer, QuantizedNet};
pub use quantize::{build_working_net, calibrate, sync_quantized_params, QuantizationPlan};
pub use shadow::ShadowTrainer;
