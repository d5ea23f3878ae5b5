//! # mfdfp-accel — the multiplier-free accelerator model
//!
//! A faithful model of the hardware half of *"Hardware-Software Codesign
//! of Accurate, Multiplier-free Deep Neural Networks"* (Tann et al.,
//! DAC 2017), in three independent layers:
//!
//! 1. **Functional** ([`qlayers`]) — bit-accurate execution of quantized
//!    layers through the Figure 2(a) datapath: shift products, widening
//!    adder tree (overflow-audited), 32-bit accumulator, radix-realigning
//!    router, NL unit. `mfdfp-core` builds its integer inference engine on
//!    these primitives.
//! 2. **Timing** ([`schedule_network`]) — a cycle-level tile scheduler for
//!    the DianNao-style organisation (16 neurons × 16 synapses per
//!    processing unit, double-buffered DMA), reproducing Table 2's
//!    near-identical FP32/MF-DFP latencies.
//! 3. **Area/power** ([`design_metrics`] over [`ComponentLibrary`]) — a
//!    65 nm component model calibrated on the FP32 baseline of Table 1 and
//!    used to *predict* the MF-DFP and ensemble designs; energy is
//!    `power × time` ([`RunReport`]).
//!
//! # Examples
//!
//! ```
//! use mfdfp_accel::{design_metrics, schedule_network, AcceleratorConfig,
//!                   ComponentLibrary, DmaModel, RunReport};
//! use mfdfp_nn::zoo;
//! use mfdfp_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from(0);
//! let net = zoo::cifar10_quick(10, &mut rng)?;
//! let lib = ComponentLibrary::calibrated_65nm();
//! let cfg = AcceleratorConfig::paper_mf_dfp();
//! let design = design_metrics(&cfg, &lib)?;
//! let schedule = schedule_network(&net, &cfg, DmaModel::Overlapped)?;
//! let run = RunReport::from_schedule(&schedule, &design);
//! assert!(run.energy_uj < 100.0); // tens of µJ, like the paper's 34.22
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod components;
mod design;
mod energy;
mod error;
pub mod qlayers;
mod schedule;

pub use components::{AreaPower, ComponentLibrary};
pub use design::{design_metrics, AcceleratorConfig, BreakdownLine, DesignMetrics, Precision};
pub use energy::{OpCostModel, OpEnergyEstimate, RunReport};
pub use error::{AccelError, Result};
pub use qlayers::{
    avg_pool_codes, avg_pool_codes_batch_into, max_pool_codes, max_pool_codes_batch_into,
    pool_out_dims, relu_codes, ShiftConv, ShiftLinear, PRODUCT_FRAC_SHIFT,
};
pub use schedule::{
    schedule_network, DmaModel, LayerCycles, NetworkSchedule, PIPELINE_DEPTH_FP32,
    PIPELINE_DEPTH_MFDFP,
};
