//! The deployed MF-DFP network: integer-only inference through the
//! accelerator's functional datapath.
//!
//! A [`QuantizedNet`] is the artifact Algorithm 1 produces — 4-bit
//! power-of-two weights, 8-bit dynamic fixed-point activations with
//! per-layer radix points, biases aligned into the accumulator. Its
//! forward pass uses **only** integer shift/add operations (via
//! `mfdfp_accel::qlayers`), so evaluating it *is* simulating the
//! accelerator bit-for-bit.
//!
//! Weights stay in their packed 4-bit nibble form from construction to
//! inference. There is one packed forward,
//! [`QuantizedNet::logits_batch_into`], which dispatches the shift-only
//! packed `qgemm` kernel; [`QuantizedNet::logits`] and
//! [`QuantizedNet::logits_batch`] are adapters over it.
//! [`QuantizedNet::forward_codes_reference`] keeps the original
//! decode-based adder-tree datapath as the bit-exactness oracle (the two
//! are property-tested identical, logit bit for dequantized code).
//!
//! Loading walks the layer list once (in `from_parts`, which
//! [`QuantizedNet::from_network`] and [`QuantizedNet::from_image`] both
//! end in). The walk checks each layer against the activation length
//! that reaches it, records the length each step writes, the input
//! length and the workspace plan, and lowers the list into the steps the
//! packed forward walks — so nothing past load re-derives a shape. A ReLU
//! right after a weighted layer — or after a max pool that follows one,
//! since ReLU commutes with max — becomes that layer's routing lower rail
//! (Fig. 2(a)'s NL unit sitting on "Accumulator & Routing"), so the
//! kernel writes post-ReLU codes and no pass re-reads them. A ReLU after
//! an average pool stays a step of its own. The decode oracle keeps
//! interpreting the un-lowered list, so every oracle comparison checks
//! the lowering too.
//!
//! Like the hardware it models, the packed forward path has **no dynamic
//! memory**: activations ping-pong between two pre-sized buffers of a
//! [`Workspace`] and the im2col staging is drawn from the same arena.
//! [`QuantizedNet::plan_for_batch`] holds every peak buffer size,
//! recorded at load from the layer geometry, so a workspace is sized once
//! per model and [`QuantizedNet::logits_batch_into`] then runs
//! arbitrarily many inferences with zero heap allocations. The adapters
//! build a workspace from the plan for each call.

use mfdfp_accel::qlayers::{
    avg_pool_codes, avg_pool_codes_batch_into, max_pool_codes, max_pool_codes_batch_into,
    pool_out_dims, relu_codes, ShiftConv, ShiftLinear, PRODUCT_FRAC_SHIFT,
};
use mfdfp_accel::AccelError;
use mfdfp_dfp::{realign, AdderTree, DfpFormat, PackedPow2Matrix};
use mfdfp_nn::{Layer, Network};
use mfdfp_tensor::{AlignedVec, PoolKind, Shape, Tensor, Workspace, WorkspacePlan};

use crate::error::{CoreError, Result};
use crate::quantize::QuantizationPlan;

/// One layer of the deployed network.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// Shift-based convolution (runs on the accelerator datapath).
    Conv(ShiftConv),
    /// Shift-based fully-connected layer.
    Linear(ShiftLinear),
    /// Pooling on activation codes.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Channels.
        channels: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Window side.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// ReLU on activation codes (the NL unit).
    Relu,
}

/// One step of the lowered forward: a layer of the stack, the
/// per-image length it writes and, for a weighted layer, the lower rail
/// its routing clamps to — 0 when the ReLU after it folded in,
/// `i8::MIN` otherwise.
#[derive(Debug, Clone, Copy)]
struct Step {
    layer: usize,
    out_len: usize,
    rail: i8,
}

/// A quantized multiplier-free dynamic fixed-point network.
#[derive(Debug, Clone)]
pub struct QuantizedNet {
    name: String,
    input_format: DfpFormat,
    output_format: DfpFormat,
    layers: Vec<QLayer>,
    steps: Vec<Step>,
    input_len: usize,
    plan: WorkspacePlan,
    classes: usize,
    tree: AdderTree,
}

impl QuantizedNet {
    /// Builds the deployed network from a float master and its calibrated
    /// plan (Algorithm 1 line 2 — typically called on the *fine-tuned*
    /// master at the end of Phases 1/2).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unquantizable`] for layers with no hardware
    /// mapping (LRN) and [`CoreError::BadConfig`] for non-8-bit plans.
    pub fn from_network(master: &Network, plan: &QuantizationPlan) -> Result<Self> {
        if plan.activation_bits != 8 {
            return Err(CoreError::BadConfig(format!(
                "the integer engine is 8-bit; plan has {} bits",
                plan.activation_bits
            )));
        }
        if plan.boundary_formats.len() != master.len() {
            return Err(CoreError::BadConfig(
                "quantization plan does not match network layer count".into(),
            ));
        }
        let mut layers = Vec::new();
        let mut classes = 0usize;
        let mut current = plan.input_format;
        let mut output_format = plan.input_format;
        for (i, layer) in master.layers().iter().enumerate() {
            match layer {
                Layer::Conv(c) => {
                    let out_fmt = plan.boundary_formats[i];
                    let bias_fmt = plan.bias_formats[i].expect("weighted layer has bias format");
                    let g = *c.geometry();
                    layers.push(QLayer::Conv(ShiftConv {
                        geom: g,
                        weights: PackedPow2Matrix::from_f32(
                            g.out_c,
                            g.col_height(),
                            c.weights().as_slice(),
                        )
                        .map_err(CoreError::Dfp)?,
                        bias: align_biases(c.bias().as_slice(), bias_fmt, current).into(),
                        in_frac: current.frac(),
                        out_frac: out_fmt.frac(),
                    }));
                    classes = c.geometry().out_c;
                    current = out_fmt;
                    output_format = out_fmt;
                }
                Layer::Linear(l) => {
                    let out_fmt = plan.boundary_formats[i];
                    let bias_fmt = plan.bias_formats[i].expect("weighted layer has bias format");
                    layers.push(QLayer::Linear(ShiftLinear {
                        in_features: l.in_features(),
                        out_features: l.out_features(),
                        weights: PackedPow2Matrix::from_f32(
                            l.out_features(),
                            l.in_features(),
                            l.weights().as_slice(),
                        )
                        .map_err(CoreError::Dfp)?,
                        bias: align_biases(l.bias().as_slice(), bias_fmt, current).into(),
                        in_frac: current.frac(),
                        out_frac: out_fmt.frac(),
                    }));
                    classes = l.out_features();
                    current = out_fmt;
                    output_format = out_fmt;
                }
                Layer::Pool(p) => {
                    let g = p.geometry();
                    layers.push(QLayer::Pool {
                        kind: p.kind(),
                        channels: g.channels,
                        in_h: g.in_h,
                        in_w: g.in_w,
                        window: g.window,
                        stride: g.stride,
                    });
                }
                Layer::Relu(_) => layers.push(QLayer::Relu),
                // Identity at inference: flatten only reshapes, dropout is
                // disabled, fake-quant is already realised by the integer
                // representation itself.
                Layer::Flatten(_) | Layer::Dropout(_) | Layer::FakeQuant(_) => {}
                Layer::Lrn(_) => {
                    return Err(CoreError::Unquantizable(
                        "LRN has no multiplier-free mapping".into(),
                    ))
                }
                Layer::Tanh(_) | Layer::Sigmoid(_) => {
                    return Err(CoreError::Unquantizable(
                        "smooth non-linearities have no multiplier-free mapping; use ReLU".into(),
                    ))
                }
            }
        }
        if classes == 0 {
            return Err(CoreError::Unquantizable("network has no weighted layers".into()));
        }
        let name = format!("{}-mfdfp", master.name());
        Self::from_parts(name, plan.input_format, output_format, classes, layers)
    }

    /// Assembles a network from its parts — the one constructor both
    /// [`QuantizedNet::from_network`] and the deployment-image loader end
    /// in, and the one walk over the layer list. Checks that the engine
    /// can run the stack: 8-bit input and output formats, each layer
    /// fitting the activation length that reaches it (a weighted layer's
    /// own shape check, a pool's `C×H×W` and output size), the last
    /// producing `classes` values, and the radix points chaining the same
    /// way — each weighted layer reading the one that reaches it (the
    /// input format's, or the last weighted layer's output), the output
    /// format carrying the last one written. The same walk records each step's
    /// output length, the input length and the workspace plan, and
    /// lowers the list into the forward's steps, folding ReLUs into the
    /// routing rail (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an empty layer stack and
    /// [`CoreError::BadImage`] for a non-8-bit format or a layer that
    /// does not fit.
    pub(crate) fn from_parts(
        name: String,
        input_format: DfpFormat,
        output_format: DfpFormat,
        classes: usize,
        layers: Vec<QLayer>,
    ) -> Result<Self> {
        if layers.is_empty() || classes == 0 {
            return Err(CoreError::BadConfig("deployment image has no layers".into()));
        }
        for (side, fmt) in [("input", input_format), ("output", output_format)] {
            if fmt.bits() != DfpFormat::PAPER_BITS {
                return Err(CoreError::BadImage(format!(
                    "the integer engine is 8-bit; the {side} format is {fmt}"
                )));
            }
        }
        // A pool's extents come straight from the image; their product
        // may not fit (a conv's was checked by `ConvGeometry::new`).
        let pool_len = |channels: usize, in_h: usize, in_w: usize| {
            channels.checked_mul(in_h).and_then(|n| n.checked_mul(in_w)).ok_or_else(|| {
                CoreError::BadImage(format!("pool extents {channels}x{in_h}x{in_w} overflow"))
            })
        };
        // The first shaped layer fixes the input length; ReLUs before it
        // take that length too.
        let input_len = layers
            .iter()
            .find_map(|l| match l {
                QLayer::Conv(c) => Some(Ok(c.geom.in_c * c.geom.in_h * c.geom.in_w)),
                QLayer::Linear(l) => Some(Ok(l.in_features)),
                QLayer::Pool { channels, in_h, in_w, .. } => {
                    Some(pool_len(*channels, *in_h, *in_w))
                }
                QLayer::Relu => None,
            })
            .unwrap_or(Ok(0))?;
        if input_len == 0 {
            return Err(CoreError::BadImage("the layer stack takes no input values".into()));
        }
        let mut len = input_len;
        // The radix point the activations reaching the next layer carry.
        let mut frac = input_format.frac();
        let mut plan = WorkspacePlan { act_len: len, ..WorkspacePlan::default() };
        let mut steps: Vec<Step> = Vec::with_capacity(layers.len());
        // The step whose rail a ReLU here would set: the weighted layer
        // before it, with only max pools in between (`max(0, ·)` commutes
        // with max, not with a rounded mean).
        let mut fold_into: Option<usize> = None;
        for (i, layer) in layers.iter().enumerate() {
            let bad = |e: &dyn std::fmt::Display| CoreError::BadImage(format!("layer {i}: {e}"));
            len = match layer {
                QLayer::Conv(c) => {
                    c.validate(len).map_err(|e| bad(&e))?;
                    frac = chain_frac(frac, c.in_frac, c.out_frac).map_err(|e| bad(&e))?;
                    plan.im2col_len = plan.im2col_len.max(c.im2col_len());
                    fold_into = Some(steps.len());
                    c.out_len()
                }
                QLayer::Linear(l) => {
                    l.validate(len).map_err(|e| bad(&e))?;
                    frac = chain_frac(frac, l.in_frac, l.out_frac).map_err(|e| bad(&e))?;
                    fold_into = Some(steps.len());
                    l.out_features
                }
                QLayer::Pool { kind, channels, in_h, in_w, window, stride } => {
                    let need = pool_len(*channels, *in_h, *in_w)?;
                    if need != len {
                        return Err(bad(&format!(
                            "pool takes {need} values, the layer before produces {len}"
                        )));
                    }
                    let (oh, ow) =
                        pool_out_dims(*in_h, *in_w, *window, *stride).map_err(|e| bad(&e))?;
                    if *kind == PoolKind::Avg {
                        fold_into = None;
                    }
                    channels * oh * ow
                }
                QLayer::Relu => match fold_into {
                    Some(w) => {
                        steps[w].rail = 0;
                        continue;
                    }
                    None => len,
                },
            };
            plan.act_len = plan.act_len.max(len);
            steps.push(Step { layer: i, out_len: len, rail: i8::MIN });
        }
        if len != classes {
            return Err(CoreError::BadImage(format!(
                "layer stack produces {len} logits, header declares {classes} classes"
            )));
        }
        if frac != output_format.frac() {
            return Err(CoreError::BadImage(format!(
                "layer stack writes radix point {frac}, the output format is {output_format}"
            )));
        }
        Ok(QuantizedNet {
            name,
            input_format,
            output_format,
            layers,
            steps,
            input_len,
            plan,
            classes,
            tree: AdderTree::new(16).expect("16 is a power of two"),
        })
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The input activation format.
    pub fn input_format(&self) -> DfpFormat {
        self.input_format
    }

    /// The logits' activation format.
    pub fn output_format(&self) -> DfpFormat {
        self.output_format
    }

    /// The layer stack.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Number of activation codes one input image must supply: the first
    /// shaped layer's input length, recorded at load.
    ///
    /// Serving-side admission control uses this to reject malformed
    /// requests *before* they occupy queue capacity.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Peak scratch sizes of the packed forward for fused batches of up
    /// to `max_batch` images, recorded at load from the layer geometry —
    /// the software analogue of sizing the hardware's activation buffers
    /// at synthesis time. The lanes are per-image peaks that
    /// [`Workspace::reserve`] scales by the batch, so a workspace built
    /// from this plan ([`WorkspacePlan::workspace`]) runs
    /// [`QuantizedNet::logits_batch_into`] allocation-free for any batch
    /// up to `max_batch`, even on its first pass. This is what the
    /// serving worker sizes its scratch with (`max_batch` = the batcher's
    /// coalescing limit).
    pub fn plan_for_batch(&self, max_batch: usize) -> WorkspacePlan {
        self.plan.for_batch(max_batch)
    }

    /// Runs the same inference through the **decode-based** Figure 2(a)
    /// datapath — per-element `Pow2Weight` decode and `mul_shift`, the
    /// widening adder tree with per-level overflow audits, the 32-bit
    /// accumulator — instead of the packed shift-only `qgemm` kernel that
    /// [`QuantizedNet::logits_batch_into`] dispatches. Returns the logit
    /// codes; [`QuantizedNet::output_format`] dequantizes them to the
    /// packed forward's logits.
    ///
    /// Slower by design. Kept as the bit-exactness oracle the packed hot
    /// path is property-tested against (`crates/core/tests/properties.rs`,
    /// `crates/accel/tests/qgemm_equivalence.rs`) and as the
    /// decode-overhead baseline the benchmark reads as
    /// `core.reference_forward_ms`.
    ///
    /// # Errors
    ///
    /// Propagates datapath faults (overflow audits, geometry mismatches).
    pub fn forward_codes_reference(&self, image: &Tensor) -> Result<Vec<i8>> {
        let mut codes: Vec<i8> =
            image.as_slice().iter().map(|&x| self.input_format.quantize(x) as i8).collect();
        for layer in &self.layers {
            codes = match layer {
                QLayer::Conv(c) => c.run_reference(&codes, &self.tree).map_err(CoreError::Accel)?,
                QLayer::Linear(l) => {
                    l.run_reference(&codes, &self.tree).map_err(CoreError::Accel)?
                }
                QLayer::Pool { kind, channels, in_h, in_w, window, stride } => match kind {
                    PoolKind::Max => {
                        max_pool_codes(&codes, *channels, *in_h, *in_w, *window, *stride)
                            .map_err(CoreError::Accel)?
                    }
                    PoolKind::Avg => {
                        avg_pool_codes(&codes, *channels, *in_h, *in_w, *window, *stride)
                            .map_err(CoreError::Accel)?
                    }
                },
                QLayer::Relu => {
                    let mut c = codes;
                    relu_codes(&mut c);
                    c
                }
            };
        }
        Ok(codes)
    }

    /// Dequantized logits for one image: [`QuantizedNet::logits_batch_into`]
    /// at batch 1, with a workspace built for this call.
    ///
    /// # Errors
    ///
    /// As [`QuantizedNet::logits_batch_into`].
    pub fn logits(&self, image: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::zeros(Shape::d1(self.classes));
        let mut ws = self.plan_for_batch(1).workspace();
        self.logits_batch_into(image.as_slice(), 1, &mut ws, out.as_mut_slice())?;
        Ok(out)
    }

    /// Dequantized logits for a `N×C×H×W` batch (`N×classes`):
    /// [`QuantizedNet::logits_batch_into`] with a workspace built for
    /// this call.
    ///
    /// # Errors
    ///
    /// As [`QuantizedNet::logits_batch_into`].
    pub fn logits_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let n = batch.shape().dim(0);
        let mut out = Tensor::zeros(Shape::d2(n, self.classes));
        let mut ws = self.plan_for_batch(n).workspace();
        self.logits_batch_into(batch.as_slice(), n, &mut ws, out.as_mut_slice())?;
        Ok(out)
    }

    /// The packed forward — every other inference entry is built on it:
    /// `data` is `n` images flat (`n × input_len` elements), `out`
    /// receives the `n × classes` dequantized logits row-major, and every
    /// scratch byte comes from `ws`, so a warmed call performs zero heap
    /// allocations (size the workspace with
    /// [`QuantizedNet::plan_for_batch`]).
    ///
    /// This is the **batch-fused** path: the input quantizer writes all
    /// `n` images into one element-interleaved activation buffer (element
    /// `e` of image `b` at `e·n + b`), then the lowered layer loop runs
    /// **once** — one im2col gather and one packed shift-MAC pass per
    /// layer per group (`ShiftConv::run_batch_railed_into` /
    /// `ShiftLinear::run_batch_railed_into`), activations ping-ponging
    /// between the workspace's two pre-sized buffers. It is bit-identical
    /// to `n` calls at batch 1 because the kernel's per-output
    /// accumulation order does not depend on the column count
    /// ([`mfdfp_tensor::qgemm_fused_into_i8`]); at batch 1 the
    /// interleaved layout is byte-for-byte the plain `C×H×W` one. On a
    /// pool of width ≥ 2 (`MFDFP_THREADS`), row-banded parallelism splits
    /// each layer's fused product across the pool when the whole batch's
    /// MACs cross the dispatch threshold; the pool dispatch costs
    /// O(threads) small allocations — the documented exception to the
    /// zero-allocation steady state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if `out` is not `n × classes`,
    /// [`AccelError::BadInput`] if `data` is not `n` images of
    /// [`QuantizedNet::input_len`] values, and propagates datapath
    /// faults.
    pub fn logits_batch_into(
        &self,
        data: &[f32],
        n: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) -> Result<()> {
        if out.len() != n * self.classes {
            return Err(CoreError::BadConfig(format!(
                "logit buffer holds {} values, batch needs {}",
                out.len(),
                n * self.classes
            )));
        }
        if n == 0 && data.is_empty() {
            return Ok(());
        }
        if data.len() != n * self.input_len {
            return Err(CoreError::Accel(AccelError::BadInput {
                expected: n * self.input_len,
                actual: data.len(),
            }));
        }
        let (mut cur, mut nxt) = ws.take_act();
        let result = self.run_steps(data, n, ws, &mut cur, &mut nxt);
        ws.restore_act(cur, nxt);
        result?;
        // Load checked that the last step writes `classes` codes.
        let codes = ws.codes(self.classes * n);
        for (b, row) in out.chunks_exact_mut(self.classes).enumerate() {
            for (c, o) in row.iter_mut().enumerate() {
                *o = self.output_format.dequantize(codes[c * n + b] as i32);
            }
        }
        Ok(())
    }

    /// The lowered layer loop of [`QuantizedNet::logits_batch_into`]:
    /// quantizes `data` (`n ≥ 1` images of checked length) into `cur`,
    /// runs every step and leaves the interleaved logit codes in `cur`.
    /// Every buffer size is the one load recorded for its step.
    fn run_steps(
        &self,
        data: &[f32],
        n: usize,
        ws: &mut Workspace,
        cur: &mut AlignedVec<i8>,
        nxt: &mut AlignedVec<i8>,
    ) -> Result<()> {
        cur.resize(self.input_len * n, 0);
        let input_format = self.input_format;
        for (b, image) in data.chunks_exact(self.input_len).enumerate() {
            for (c, &x) in cur[b..].iter_mut().step_by(n).zip(image) {
                *c = input_format.quantize(x) as i8;
            }
        }
        for &Step { layer: idx, out_len, rail } in &self.steps {
            // Flight-recorder: one span per step covering the whole
            // batch, label = layer kind, arg = layer index.
            let layer = &self.layers[idx];
            if let QLayer::Relu = layer {
                let _span = mfdfp_obs::span!("qnet.relu", idx as u64);
                relu_codes(cur);
                continue;
            }
            nxt.resize(out_len * n, 0);
            match layer {
                QLayer::Conv(c) => {
                    let _span = mfdfp_obs::span!("qnet.conv", idx as u64);
                    c.run_batch_railed_into(cur, n, ws, rail, nxt)
                }
                QLayer::Linear(l) => {
                    let _span = mfdfp_obs::span!("qnet.linear", idx as u64);
                    l.run_batch_railed_into(cur, n, rail, nxt)
                }
                QLayer::Pool { kind, channels, in_h, in_w, window, stride } => {
                    let _span = mfdfp_obs::span!("qnet.pool", idx as u64);
                    match kind {
                        PoolKind::Max => max_pool_codes_batch_into(
                            cur, *channels, *in_h, *in_w, *window, *stride, n, nxt,
                        ),
                        PoolKind::Avg => avg_pool_codes_batch_into(
                            cur, *channels, *in_h, *in_w, *window, *stride, n, nxt,
                        ),
                    }
                }
                QLayer::Relu => unreachable!("ReLU steps run in place above"),
            }
            .map_err(CoreError::Accel)?;
            std::mem::swap(cur, nxt);
        }
        Ok(())
    }

    /// Parameter memory of the deployed network in bytes: 4-bit packed
    /// weights + 8-bit biases (Table 3's MF-DFP rows).
    pub fn memory_bytes(&self) -> u64 {
        let mut weights = 0u64;
        let mut biases = 0u64;
        for layer in &self.layers {
            match layer {
                QLayer::Conv(c) => {
                    weights += c.weights.count() as u64;
                    biases += c.bias.len() as u64;
                }
                QLayer::Linear(l) => {
                    weights += l.weights.count() as u64;
                    biases += l.bias.len() as u64;
                }
                _ => {}
            }
        }
        weights.div_ceil(2) + biases
    }
}

/// The radix point after a weighted layer that reads `in_frac` and writes
/// `out_frac`, given the `frac` its input carries — an error if the two
/// disagree.
fn chain_frac(frac: i8, in_frac: i8, out_frac: i8) -> std::result::Result<i8, String> {
    if in_frac == frac {
        Ok(out_frac)
    } else {
        Err(format!("reads radix point {in_frac}, its input carries {frac}"))
    }
}

/// Converts float biases into accumulator-format integers: quantize to the
/// 8-bit bias format, then (exactly) left-shift to fractional length
/// `m + 7`.
fn align_biases(bias: &[f32], bias_fmt: DfpFormat, in_fmt: DfpFormat) -> Vec<i64> {
    let acc_frac = in_fmt.frac() as i32 + PRODUCT_FRAC_SHIFT;
    bias.iter()
        .map(|&b| realign(bias_fmt.quantize(b) as i64, bias_fmt.frac() as i32, acc_frac))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::{build_working_net, calibrate, sync_quantized_params};
    use mfdfp_nn::zoo;
    use mfdfp_tensor::TensorRng;

    fn setup() -> (Network, QuantizationPlan, Vec<(Tensor, Vec<usize>)>) {
        let mut rng = TensorRng::seed_from(21);
        let mut net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
        let x = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
        let calib = vec![(x, vec![0usize, 1, 2, 3])];
        let plan = calibrate(&mut net, &calib, 8).unwrap();
        (net, plan, calib)
    }

    #[test]
    fn builds_and_runs_end_to_end() {
        let (net, plan, calib) = setup();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        assert_eq!(q.classes(), 10);
        let img = calib[0].0.index_axis0(0);
        assert_eq!(q.logits(&img).unwrap().len(), 10);
        let logits = q.logits_batch(&calib[0].0).unwrap();
        assert_eq!(logits.shape().dims(), &[4, 10]);
    }

    #[test]
    fn integer_engine_matches_fake_quant_network() {
        // The central bit-exactness claim: the fake-quantized float
        // network (training view) and the integer engine (hardware view)
        // compute the same activations, up to one LSB of float-summation
        // slack.
        let (net, plan, calib) = setup();
        let mut working = build_working_net(&net, &plan);
        sync_quantized_params(&net, &mut working, &plan);
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let batch = &calib[0].0;
        let fq_logits = working.forward(batch, mfdfp_nn::Phase::Eval).unwrap();
        let hw_logits = q.logits_batch(batch).unwrap();
        let step = q.output_format().step();
        let mut exact = 0usize;
        for (a, b) in fq_logits.as_slice().iter().zip(hw_logits.as_slice()) {
            let lsb = ((a - b) / step).abs();
            assert!(lsb <= 1.0 + 1e-3, "fake-quant {a} vs hardware {b} ({lsb} LSB)");
            if lsb < 1e-3 {
                exact += 1;
            }
        }
        let frac = exact as f64 / fq_logits.len() as f64;
        assert!(frac >= 0.9, "only {frac:.2} of logits bit-exact");
    }

    #[test]
    fn packed_forward_matches_decode_reference() {
        // The tentpole contract at network scope: the packed shift-only
        // forward and the decode-based datapath agree code-for-code, so
        // the packed logits are the oracle's codes dequantized, bit for
        // bit.
        let (net, plan, calib) = setup();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let fmt = q.output_format();
        for s in 0..calib[0].0.shape().dim(0) {
            let img = calib[0].0.index_axis0(s);
            let packed: Vec<u32> =
                q.logits(&img).unwrap().as_slice().iter().map(|v| v.to_bits()).collect();
            let oracle: Vec<u32> = q
                .forward_codes_reference(&img)
                .unwrap()
                .iter()
                .map(|&c| fmt.dequantize(c as i32).to_bits())
                .collect();
            assert_eq!(packed, oracle, "sample {s} diverged between packed and decode paths");
        }
    }

    #[test]
    fn logits_batch_into_matches_logits_batch() {
        let (net, plan, calib) = setup();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let batch = &calib[0].0;
        let n = batch.shape().dim(0);
        let expect = q.logits_batch(batch).unwrap();
        let mut ws = q.plan_for_batch(n).workspace();
        let mut out = vec![0.0f32; n * q.classes()];
        q.logits_batch_into(batch.as_slice(), n, &mut ws, &mut out).unwrap();
        assert_eq!(out, expect.as_slice());
        // Shape checks.
        assert!(q.logits_batch_into(batch.as_slice(), 3, &mut ws, &mut out).is_err());
        assert!(q.logits_batch_into(batch.as_slice(), n, &mut ws, &mut out[..1]).is_err());
        assert!(q.logits_batch_into(&[], 0, &mut ws, &mut []).is_ok());
        assert!(q.logits_batch_into(batch.as_slice(), 0, &mut ws, &mut out).is_err());
        // An empty image is a typed length error, not a panic.
        assert!(q.logits_batch_into(&[], 1, &mut ws, &mut out[..q.classes()]).is_err());
    }

    #[test]
    fn lowering_folds_relus_that_commute_into_rails() {
        let linear = || {
            QLayer::Linear(ShiftLinear {
                in_features: 1,
                out_features: 1,
                weights: PackedPow2Matrix::from_f32(1, 1, &[1.0]).unwrap(),
                bias: vec![0].into(),
                in_frac: 0,
                out_frac: 0,
            })
        };
        let pool =
            |kind| QLayer::Pool { kind, channels: 1, in_h: 1, in_w: 1, window: 1, stride: 1 };
        let layers = [
            QLayer::Relu, // 0: leading, nothing to fold into
            linear(),     // 1
            QLayer::Relu, // 2: folds into 1
            QLayer::Relu, // 3: relu → relu folds too
            pool(PoolKind::Max),
            QLayer::Relu, // 5: commutes with the max pool, folds into 1
            pool(PoolKind::Avg),
            QLayer::Relu, // 7: after an average pool, stays
            linear(),     // 8
            pool(PoolKind::Max),
            QLayer::Relu, // 10: folds into 8
        ];
        let fmt = DfpFormat::new(8, 0).unwrap();
        let q = QuantizedNet::from_parts("lowering".into(), fmt, fmt, 1, layers.to_vec()).unwrap();
        let steps: Vec<(usize, i8)> = q.steps.iter().map(|s| (s.layer, s.rail)).collect();
        let min = i8::MIN;
        assert_eq!(steps, [(0, min), (1, 0), (4, min), (6, min), (7, min), (8, 0), (9, min)]);

        // cifar10_quick's shape: every ReLU folds, so no ReLU pass runs.
        let (net, plan, _) = setup();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        assert!(q.steps.iter().all(|s| !matches!(q.layers[s.layer], QLayer::Relu)));
        let rails: Vec<i8> = q.steps.iter().map(|s| s.rail).collect();
        assert_eq!(rails, [0, min, 0, min, 0, min, min, min]);
    }

    #[test]
    fn load_refuses_a_stack_without_input() {
        let fmt = DfpFormat::new(8, 0).unwrap();
        let empty_linear = QLayer::Linear(ShiftLinear {
            in_features: 0,
            out_features: 1,
            weights: PackedPow2Matrix::from_f32(1, 0, &[]).unwrap(),
            bias: vec![0].into(),
            in_frac: 0,
            out_frac: 0,
        });
        for layers in [vec![QLayer::Relu], vec![QLayer::Relu, empty_linear]] {
            assert!(matches!(
                QuantizedNet::from_parts("no-input".into(), fmt, fmt, 1, layers),
                Err(CoreError::BadImage(_))
            ));
        }
    }

    #[test]
    fn memory_is_one_eighth_of_float() {
        let (net, plan, _) = setup();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let float_bytes = net.param_count() as u64 * 4;
        let ratio = float_bytes as f64 / q.memory_bytes() as f64;
        // Weights dominate; biases (8-bit) nudge it slightly below 8×.
        assert!((7.0..=8.0).contains(&ratio), "compression ratio {ratio}");
    }

    #[test]
    fn rejects_lrn_and_wrong_plans() {
        let mut rng = TensorRng::seed_from(1);
        let lrn_net = zoo::alexnet(10, true, &mut rng).unwrap();
        let (net, plan, _) = setup();
        assert!(QuantizedNet::from_network(&lrn_net, &plan).is_err());
        let mut bad_plan = plan.clone();
        bad_plan.activation_bits = 16;
        assert!(matches!(
            QuantizedNet::from_network(&net, &bad_plan),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn quantized_accuracy_tracks_float_on_easy_data() {
        // On well-separated data a freshly quantized net should agree with
        // the float net on most predictions even before fine-tuning.
        let (mut net, plan, _) = setup();
        let mut rng = TensorRng::seed_from(3);
        let x = rng.gaussian([16, 3, 16, 16], 0.0, 0.7);
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let fl = net.forward(&x, mfdfp_nn::Phase::Eval).unwrap();
        let hw = q.logits_batch(&x).unwrap();
        let fl_pred = mfdfp_tensor::argmax_rows(&fl).unwrap();
        let hw_pred = mfdfp_tensor::argmax_rows(&hw).unwrap();
        let agree = fl_pred.iter().zip(&hw_pred).filter(|(a, b)| a == b).count();
        assert!(agree >= 10, "only {agree}/16 predictions agree after quantization");
    }
}
