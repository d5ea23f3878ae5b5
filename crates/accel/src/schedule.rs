//! Cycle-level tile scheduler: maps a network onto the accelerator and
//! counts cycles per layer.
//!
//! The model follows the paper's evaluation methodology: computation is
//! tiled over physical neurons (16) and synapses (16 per neuron); DMA
//! transfers through the three dedicated buffers are double-buffered and
//! assumed fully overlapped with compute (the paper explicitly excludes
//! the main-memory subsystem from its numbers), so per-layer cycles are
//! dominated by `⌈neurons/16⌉ × ⌈synapses/16⌉`. Each layer additionally
//! pays a pipeline fill/drain whose depth differs between the FP32
//! datapath (pipelined FP multiplier) and the shift datapath — which is
//! why Table 2's times differ by a fraction of a microsecond while the
//! MACs are identical.
//!
//! An optional bandwidth-limited DMA model ([`DmaModel::Limited`]) exists
//! for the ablation bench quantifying what the paper's exclusion hides.

use mfdfp_nn::{Layer, Network};
use mfdfp_tensor::PoolKind;

use crate::design::{AcceleratorConfig, Precision};
use crate::error::{AccelError, Result};

/// Pipeline fill/drain depth per layer, FP32 datapath (3-stage FP multiply
/// + 4 tree levels + accumulate + route).
pub const PIPELINE_DEPTH_FP32: u64 = 10;
/// Pipeline fill/drain depth per layer, shift datapath (1-stage shift +
/// 4 tree levels + accumulate).
pub const PIPELINE_DEPTH_MFDFP: u64 = 6;

/// Main-memory DMA model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DmaModel {
    /// Transfers fully overlap with compute (the paper's methodology).
    #[default]
    Overlapped,
    /// Transfers limited to `bytes_per_cycle`; per-layer cycles become
    /// `max(compute, dma)`. Used by the ablation bench only.
    Limited {
        /// Sustained DMA bandwidth in bytes per cycle.
        bytes_per_cycle: f64,
    },
}

/// Cycle accounting for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCycles {
    /// Layer description (from the network).
    pub layer: String,
    /// Compute cycles (tiled MAC or pooling cycles).
    pub compute: u64,
    /// DMA cycles (informational; folded into `total` only for
    /// [`DmaModel::Limited`]).
    pub dma: u64,
    /// Pipeline fill/drain cycles.
    pub overhead: u64,
    /// Cycles charged to this layer.
    pub total: u64,
}

/// Cycle schedule of one network on one accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSchedule {
    /// Per-layer accounting.
    pub layers: Vec<LayerCycles>,
    /// Total cycles for one input.
    pub total_cycles: u64,
    /// Inference latency for one input, in microseconds.
    pub time_us: f64,
}

/// Schedules `net` on the accelerator described by `cfg`.
///
/// The network's *topology* is what matters; weights are not consulted.
/// For the ensemble configuration each member network runs on its own PU
/// in parallel, so a single member's schedule is also the ensemble's
/// latency (the paper's Table 2 shows identical times for MF-DFP and the
/// ensemble).
///
/// # Errors
///
/// Returns [`AccelError::UnsupportedLayer`] for LRN layers (the paper
/// removes them because they are not multiplier-free) and
/// [`AccelError::BadConfig`] for invalid configurations.
pub fn schedule_network(
    net: &Network,
    cfg: &AcceleratorConfig,
    dma: DmaModel,
) -> Result<NetworkSchedule> {
    cfg.validate()?;
    let (act_bits, w_bits) = cfg.bits();
    let depth = match cfg.precision {
        Precision::Fp32 => PIPELINE_DEPTH_FP32,
        Precision::MfDfp => PIPELINE_DEPTH_MFDFP,
    };
    let mut layers = Vec::new();
    for layer in net.layers() {
        let (compute, dma_bytes) = match layer {
            Layer::Conv(c) => {
                let g = c.geometry();
                let out_neurons = g.out_c * g.out_h() * g.out_w();
                let groups = div_ceil(out_neurons, cfg.neurons);
                let chunks = div_ceil(g.col_height(), cfg.synapses);
                let weight_bytes = g.weight_count() as f64 * w_bits as f64 / 8.0;
                let io_bytes =
                    (g.in_c * g.in_h * g.in_w + out_neurons) as f64 * act_bits as f64 / 8.0;
                ((groups * chunks) as u64, weight_bytes + io_bytes)
            }
            Layer::Linear(l) => {
                let groups = div_ceil(l.out_features(), cfg.neurons);
                let chunks = div_ceil(l.in_features(), cfg.synapses);
                let weight_bytes =
                    (l.in_features() * l.out_features()) as f64 * w_bits as f64 / 8.0;
                let io_bytes = (l.in_features() + l.out_features()) as f64 * act_bits as f64 / 8.0;
                ((groups * chunks) as u64, weight_bytes + io_bytes)
            }
            Layer::Pool(p) => {
                let g = p.geometry();
                // Dedicated pooling comparators/adders in the NL stage
                // process one window element per lane per cycle.
                let ops = match p.kind() {
                    PoolKind::Max | PoolKind::Avg => g.ops(),
                };
                let io_bytes = (g.channels * g.in_h * g.in_w) as f64 * act_bits as f64 / 8.0;
                (div_ceil(ops, cfg.neurons) as u64, io_bytes)
            }
            // Fused into the NL write-back stage (ReLU), pure bookkeeping
            // (flatten), inference no-ops (dropout), or already realised by
            // the routing stage (fake-quant): no standalone cycles.
            Layer::Relu(_)
            | Layer::Tanh(_)
            | Layer::Sigmoid(_)
            | Layer::Flatten(_)
            | Layer::Dropout(_)
            | Layer::FakeQuant(_) => (0, 0.0),
            Layer::Lrn(_) => {
                return Err(AccelError::UnsupportedLayer(
                    "LRN is not multiplier-free; the paper removes it from the benchmarks".into(),
                ))
            }
        };
        if compute == 0 {
            continue;
        }
        let dma_cycles = match dma {
            DmaModel::Overlapped => {
                // Informational estimate at one buffer word per cycle.
                (dma_bytes / (cfg.synapses as f64 * act_bits as f64 / 8.0)).ceil() as u64
            }
            DmaModel::Limited { bytes_per_cycle } => (dma_bytes / bytes_per_cycle).ceil() as u64,
        };
        let busy = match dma {
            DmaModel::Overlapped => compute,
            DmaModel::Limited { .. } => compute.max(dma_cycles),
        };
        let total = busy + depth;
        layers.push(LayerCycles {
            layer: layer.describe(),
            compute,
            dma: dma_cycles,
            overhead: depth,
            total,
        });
    }
    let total_cycles: u64 = layers.iter().map(|l| l.total).sum();
    let time_us = total_cycles as f64 / cfg.clock_mhz;
    Ok(NetworkSchedule { layers, total_cycles, time_us })
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    fn cifar_net() -> Network {
        let mut rng = TensorRng::seed_from(0);
        zoo::cifar10_quick(10, &mut rng).unwrap()
    }

    #[test]
    fn cifar_cycle_count_is_in_paper_ballpark() {
        // Paper: 246.52 µs at 250 MHz ⇒ ~61.6K cycles. The pure-compute
        // model lands in the tens of thousands — same order, same story.
        let s = schedule_network(
            &cifar_net(),
            &AcceleratorConfig::paper_mf_dfp(),
            DmaModel::Overlapped,
        )
        .unwrap();
        assert!((30_000..150_000).contains(&s.total_cycles), "cycles {}", s.total_cycles);
        let time = s.time_us;
        assert!((100.0..400.0).contains(&time), "time {time} µs");
    }

    #[test]
    fn fp32_and_mfdfp_times_nearly_equal() {
        // Table 2: 246.52 vs 246.27 µs — the same schedule, differing only
        // in pipeline depth.
        let net = cifar_net();
        let fp =
            schedule_network(&net, &AcceleratorConfig::paper_fp32(), DmaModel::Overlapped).unwrap();
        let mf = schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), DmaModel::Overlapped)
            .unwrap();
        assert!(fp.total_cycles > mf.total_cycles, "FP pipeline is deeper");
        let rel = (fp.time_us - mf.time_us) / fp.time_us;
        assert!(rel < 0.01, "relative time gap {rel} should be well under 1%");
    }

    #[test]
    fn conv_tiling_matches_hand_count() {
        // conv1 of cifar10-quick: 32×32×32 = 32768 neurons → 2048 groups;
        // 75 synapses → 5 chunks ⇒ 10240 cycles.
        let s = schedule_network(
            &cifar_net(),
            &AcceleratorConfig::paper_mf_dfp(),
            DmaModel::Overlapped,
        )
        .unwrap();
        let conv1 = &s.layers[0];
        assert!(conv1.layer.contains("conv1"));
        assert_eq!(conv1.compute, 2048 * 5);
    }

    #[test]
    fn limited_dma_slows_fp32_more_than_mfdfp() {
        // The ablation: with a 32 B/cycle memory system, 32-bit weights
        // hurt much more than 4-bit weights.
        let net = cifar_net();
        let dma = DmaModel::Limited { bytes_per_cycle: 32.0 };
        let fp = schedule_network(&net, &AcceleratorConfig::paper_fp32(), dma).unwrap();
        let mf = schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), dma).unwrap();
        let fp_free =
            schedule_network(&net, &AcceleratorConfig::paper_fp32(), DmaModel::Overlapped).unwrap();
        let slowdown_fp = fp.total_cycles as f64 / fp_free.total_cycles as f64;
        assert!(fp.total_cycles > mf.total_cycles);
        assert!(slowdown_fp > 1.0);
    }

    #[test]
    fn lrn_is_rejected() {
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::alexnet(10, true, &mut rng).unwrap();
        let err = schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), DmaModel::Overlapped)
            .unwrap_err();
        assert!(matches!(err, AccelError::UnsupportedLayer(_)));
    }

    #[test]
    fn alexnet_time_is_in_paper_ballpark() {
        // Paper: 15,666 µs. Ungrouped AlexNet compute-only lands within 2×.
        let mut rng = TensorRng::seed_from(0);
        let net = zoo::alexnet(1000, false, &mut rng).unwrap();
        let s = schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), DmaModel::Overlapped)
            .unwrap();
        assert!((8_000.0..32_000.0).contains(&s.time_us), "AlexNet time {} µs", s.time_us);
    }

    #[test]
    fn schedule_totals_are_consistent() {
        let s = schedule_network(
            &cifar_net(),
            &AcceleratorConfig::paper_mf_dfp(),
            DmaModel::Overlapped,
        )
        .unwrap();
        let sum: u64 = s.layers.iter().map(|l| l.total).sum();
        assert_eq!(sum, s.total_cycles);
        for l in &s.layers {
            assert_eq!(l.total, l.compute + l.overhead);
        }
    }
}
