//! Network quantization (Algorithm 1, line 2): calibrate per-layer
//! dynamic fixed-point formats, round weights to powers of two, and build
//! the two quantized renditions of a float network — the *working network*
//! (fake-quantized float, for fine-tuning) and the *hardware network*
//! (integer codes, for deployment and the accelerator functional model).

use mfdfp_dfp::{DfpFormat, Pow2Weight, RangeStats};
use mfdfp_nn::layers::FakeQuant;
use mfdfp_nn::{Layer, Network, Phase};
use mfdfp_tensor::Tensor;

use crate::error::{CoreError, Result};

/// The calibrated quantization plan of one network: which dynamic
/// fixed-point format each activation boundary uses.
///
/// Formats change only at *weighted-layer outputs* (the hardware's
/// Accumulator & Routing stage is the only place a radix shift exists —
/// ReLU, pooling and flatten inherit their input format), which keeps the
/// fake-quantized working network and the integer engine bit-aligned.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizationPlan {
    /// Activation bit-width (the paper: 8).
    pub activation_bits: u8,
    /// Format of the network input.
    pub input_format: DfpFormat,
    /// One entry per master-network layer: the format of that layer's
    /// output boundary. Non-weighted layers inherit their input's format.
    pub boundary_formats: Vec<DfpFormat>,
    /// One entry per master-network layer: `Some(format)` for weighted
    /// layers' biases (8-bit dynamic fixed point, fractional length capped
    /// at `m + 7` so bias alignment into the accumulator is exact).
    pub bias_formats: Vec<Option<DfpFormat>>,
}

impl QuantizationPlan {
    /// The format feeding layer `i` (input format for `i == 0`).
    pub fn format_before(&self, i: usize) -> DfpFormat {
        if i == 0 {
            self.input_format
        } else {
            self.boundary_formats[i - 1]
        }
    }
}

/// Calibrates a quantization plan by tracing the float network over
/// calibration batches and applying Ristretto-style range analysis
/// (choose the fractional length that just covers the observed maxima).
///
/// # Errors
///
/// Returns [`CoreError::Unquantizable`] if the network contains LRN or
/// pre-existing fake-quant layers, and propagates forward-pass errors.
///
/// # Examples
///
/// Calibrating a tiny float network on two batches of synthetic images
/// yields one boundary format per layer — weighted layers pick a fresh
/// format from the observed ranges (and a bias format), everything else
/// inherits its input's format:
///
/// ```
/// use mfdfp_core::calibrate;
/// use mfdfp_data::{Batcher, Split, SynthSpec};
/// use mfdfp_tensor::TensorRng;
///
/// let spec = SynthSpec {
///     classes: 2, channels: 1, size: 16, per_class: 4,
///     noise: 0.2, max_shift: 1, seed: 11,
/// };
/// let split = Split::generate(&spec, 2);
/// let mut rng = TensorRng::seed_from(1);
/// let mut net = mfdfp_nn::zoo::quick_custom(1, 16, [2, 2, 2], 4, 2, &mut rng)?;
///
/// let batches: Vec<_> = Batcher::new(&split.train, 4).iter().take(2).collect();
/// let plan = calibrate(&mut net, &batches, 8)?;
///
/// assert_eq!(plan.activation_bits, 8);
/// assert_eq!(plan.boundary_formats.len(), net.len());
/// // Exactly the weighted layers carry a bias format.
/// let weighted = net.layers().iter().filter(|l| l.is_weighted()).count();
/// assert_eq!(plan.bias_formats.iter().flatten().count(), weighted);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn calibrate(
    net: &mut Network,
    calibration: &[(Tensor, Vec<usize>)],
    activation_bits: u8,
) -> Result<QuantizationPlan> {
    if calibration.is_empty() {
        return Err(CoreError::BadConfig("calibration set must be non-empty".into()));
    }
    for layer in net.layers() {
        match layer {
            Layer::Lrn(_) => {
                return Err(CoreError::Unquantizable(
                    "LRN is not multiplier-free; remove it first (the paper does)".into(),
                ))
            }
            Layer::FakeQuant(_) => {
                return Err(CoreError::Unquantizable(
                    "network already contains fake-quant layers".into(),
                ))
            }
            Layer::Tanh(_) | Layer::Sigmoid(_) => {
                return Err(CoreError::Unquantizable(
                    "smooth non-linearities have no multiplier-free mapping; use ReLU".into(),
                ))
            }
            _ => {}
        }
    }
    let n_layers = net.len();
    let mut stats = vec![RangeStats::new(); n_layers + 1];
    for (x, _) in calibration {
        let trace = net.forward_trace(x, Phase::Eval)?;
        for (s, t) in stats.iter_mut().zip(&trace) {
            s.observe_slice(t.as_slice());
        }
    }
    let input_format = stats[0].choose_format(activation_bits);

    // Walk layers: weighted layers get fresh output formats; everything
    // else inherits.
    let mut boundary_formats = Vec::with_capacity(n_layers);
    let mut bias_formats = Vec::with_capacity(n_layers);
    let mut current = input_format;
    for (i, layer) in net.layers().iter().enumerate() {
        if layer.is_weighted() {
            let fresh = stats[i + 1].choose_format(activation_bits);
            // Bias format: 8-bit DFP covering the bias range, fractional
            // length capped at m+7 so accumulator alignment is a pure
            // (exact) left shift.
            let m = current.frac() as i32;
            let bias = bias_range(layer);
            let natural = RangeStats::frac_for_max_abs(bias, activation_bits) as i32;
            let frac = natural.min(m + 7).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
            bias_formats.push(Some(DfpFormat::new(activation_bits, frac)?));
            current = fresh;
        } else {
            bias_formats.push(None);
        }
        boundary_formats.push(current);
    }
    Ok(QuantizationPlan { activation_bits, input_format, boundary_formats, bias_formats })
}

fn bias_range(layer: &Layer) -> f32 {
    match layer {
        Layer::Conv(c) => c.bias().abs_max(),
        Layer::Linear(l) => l.bias().abs_max(),
        _ => 0.0,
    }
}

/// Builds the Phase-1/2 *working network*: a clone of the master with
/// fake-quantization inserted at the input, after every weighted layer,
/// and after every average-pooling layer (whose divisions leave the grid).
///
/// Forwarding through this network computes exactly what the hardware
/// computes (up to float-summation rounding inside a layer), while its
/// backward pass delivers straight-through gradients for the shadow
/// weights.
pub fn build_working_net(master: &Network, plan: &QuantizationPlan) -> Network {
    let mut net = Network::new(format!("{}-quantized", master.name()));
    net.push(Layer::FakeQuant(fq(plan.input_format)));
    for (i, layer) in master.layers().iter().enumerate() {
        net.push(layer.clone());
        let needs_fq = match layer {
            Layer::Conv(_) | Layer::Linear(_) => true,
            Layer::Pool(p) => matches!(p.kind(), mfdfp_tensor::PoolKind::Avg),
            _ => false,
        };
        if needs_fq {
            net.push(Layer::FakeQuant(fq(plan.boundary_formats[i])));
        }
    }
    net
}

fn fq(format: DfpFormat) -> FakeQuant {
    FakeQuant::new(format.step(), format.min_value(), format.max_value())
}

/// Copies the master's float parameters into the working network in
/// quantized form: weights rounded to the nearest power of two
/// (deterministic, the paper's choice), biases rounded to their 8-bit
/// dynamic fixed-point format.
///
/// This is Algorithm 1 lines 2/7/17 — rerun after every optimizer step on
/// the master.
///
/// # Panics
///
/// Panics if the two networks' weighted layers do not correspond
/// one-to-one (they always do when `working` came from
/// [`build_working_net`] on this master).
pub fn sync_quantized_params(master: &Network, working: &mut Network, plan: &QuantizationPlan) {
    let mut sources: Vec<(&Tensor, &Tensor, DfpFormat)> = Vec::new();
    for (i, layer) in master.layers().iter().enumerate() {
        match layer {
            Layer::Conv(c) => {
                sources.push((c.weights(), c.bias(), plan.bias_formats[i].expect("weighted")))
            }
            Layer::Linear(l) => {
                sources.push((l.weights(), l.bias(), plan.bias_formats[i].expect("weighted")))
            }
            _ => {}
        }
    }
    let mut si = 0usize;
    for layer in working.layers_mut() {
        if !layer.is_weighted() {
            continue;
        }
        assert!(si < sources.len(), "working network has more weighted layers than master");
        let (src_w, src_b, bias_fmt) = &sources[si];
        let mut w = (*src_w).clone();
        w.map_in_place(|v| Pow2Weight::from_f32(v).to_f32());
        let mut b = (*src_b).clone();
        b.map_in_place(|v| bias_fmt.round_trip(v));
        match layer {
            Layer::Conv(c) => {
                *c.weights_mut() = w;
                *c.bias_mut() = b;
            }
            Layer::Linear(l) => {
                *l.weights_mut() = w;
                *l.bias_mut() = b;
            }
            _ => unreachable!("is_weighted covers conv and linear only"),
        }
        si += 1;
    }
    assert_eq!(si, sources.len(), "weighted layer mismatch between master and working nets");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    fn small_net_and_batch() -> (Network, Vec<(Tensor, Vec<usize>)>) {
        let mut rng = TensorRng::seed_from(5);
        let net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
        let x = rng.gaussian([4, 3, 16, 16], 0.0, 1.0);
        (net, vec![(x, vec![0, 1, 2, 3])])
    }

    #[test]
    fn calibrate_produces_one_format_per_boundary() {
        let (mut net, calib) = small_net_and_batch();
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        assert_eq!(plan.boundary_formats.len(), net.len());
        assert_eq!(plan.bias_formats.len(), net.len());
        assert_eq!(plan.activation_bits, 8);
        // Non-weighted layers inherit the previous boundary's format.
        for (i, layer) in net.layers().iter().enumerate() {
            if !layer.is_weighted() {
                assert_eq!(plan.boundary_formats[i], plan.format_before(i), "layer {i}");
                assert!(plan.bias_formats[i].is_none());
            } else {
                assert!(plan.bias_formats[i].is_some());
            }
        }
    }

    #[test]
    fn calibrated_formats_cover_observed_ranges() {
        let (mut net, calib) = small_net_and_batch();
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        let trace = net.forward_trace(&calib[0].0, Phase::Eval).unwrap();
        assert!(plan.input_format.max_value() >= trace[0].abs_max() * 0.99);
        for (i, layer) in net.layers().iter().enumerate() {
            if layer.is_weighted() {
                assert!(
                    plan.boundary_formats[i].max_value() >= trace[i + 1].abs_max() * 0.99,
                    "layer {i}: fmt {} vs max {}",
                    plan.boundary_formats[i],
                    trace[i + 1].abs_max()
                );
            }
        }
    }

    #[test]
    fn formats_are_dynamic_across_layers() {
        // The whole point of *dynamic* fixed point: at least two distinct
        // fractional lengths should appear in a real network.
        let (mut net, calib) = small_net_and_batch();
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        let mut fracs: Vec<i8> = plan.boundary_formats.iter().map(|f| f.frac()).collect();
        fracs.push(plan.input_format.frac());
        fracs.sort_unstable();
        fracs.dedup();
        assert!(fracs.len() >= 2, "expected dynamic formats, got {fracs:?}");
    }

    #[test]
    fn calibrate_rejects_lrn_and_empty_calibration() {
        let mut rng = TensorRng::seed_from(5);
        let mut net = zoo::alexnet(10, true, &mut rng).unwrap();
        let x = Tensor::zeros([1, 3, 227, 227]);
        let err = calibrate(&mut net, &[(x, vec![0])], 8).unwrap_err();
        assert!(matches!(err, CoreError::Unquantizable(_)));
        let (mut small, _) = small_net_and_batch();
        assert!(matches!(calibrate(&mut small, &[], 8), Err(CoreError::BadConfig(_))));
    }

    #[test]
    fn working_net_structure() {
        let (mut net, calib) = small_net_and_batch();
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        let working = build_working_net(&net, &plan);
        // Input FQ + per-weighted FQ (5 weighted) + per-avg-pool FQ (2).
        let fq_count = working.layers().iter().filter(|l| matches!(l, Layer::FakeQuant(_))).count();
        assert_eq!(fq_count, 1 + 5 + 2);
        assert_eq!(working.param_count(), net.param_count());
    }

    #[test]
    fn sync_rounds_weights_to_powers_of_two() {
        let (mut net, calib) = small_net_and_batch();
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        let mut working = build_working_net(&net, &plan);
        sync_quantized_params(&net, &mut working, &plan);
        let mut checked = 0;
        for layer in working.layers() {
            let w = match layer {
                Layer::Conv(c) => c.weights(),
                Layer::Linear(l) => l.weights(),
                _ => continue,
            };
            for &v in w.as_slice() {
                let q = Pow2Weight::from_f32(v).to_f32();
                assert_eq!(v, q, "weight {v} is not an exact power of two");
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn working_net_forward_differs_but_correlates_with_master() {
        let (mut net, calib) = small_net_and_batch();
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        let mut working = build_working_net(&net, &plan);
        sync_quantized_params(&net, &mut working, &plan);
        let x = &calib[0].0;
        let fl = net.forward(x, Phase::Eval).unwrap();
        let qn = working.forward(x, Phase::Eval).unwrap();
        assert_eq!(fl.shape(), qn.shape());
        // Quantization perturbs but does not destroy the logits.
        assert_ne!(fl.as_slice(), qn.as_slice());
        let corr = fl.dot(&qn).unwrap() / (fl.norm_sq().sqrt() * qn.norm_sq().sqrt());
        assert!(corr > 0.5, "correlation {corr} too low — quantization broke the net");
    }
}
